//! Reading declarative benchmark specs (`--benchmark PATH`), with the
//! shared exit-code taxonomy.
//!
//! The figure specs need no file: `charm_core` embeds the committed
//! `benchmarks/{fig04,fig07,pchase}.toml`, and `--benchmark` replaces
//! that text (`read`). `run_campaign` has no built-in design, so it
//! reads and resolves its spec here ([`load`]).
//!
//! Every binary distinguishes these failure classes so CI and scripts
//! can react without parsing stderr:
//!
//! * **2 — bad spec / bad usage**: a flag the binary does not read, a
//!   TOML that does not parse, a resolution failure (unknown parameter,
//!   bad generator, unknown target name), or flags that contradict the
//!   spec (e.g. `--shards 2` against a sequential-only external engine);
//! * **3 — target / protocol / experiment error**: the campaign itself
//!   failed — a KLV timeout, a malformed frame, an I/O error talking to
//!   the engine — or a figure's experiment did (a fit with too few
//!   distinct sizes per regime);
//! * **4 — engine subprocess failed**: the external engine exited
//!   nonzero or died; its captured stderr is in the error message.

use charm_core::spec::{BenchmarkSpec, ResolvedBenchmark};
use charm_engine::TargetError;
use std::process::ExitCode;

/// Exit code for spec parse/resolution failures and misuse.
pub const EXIT_BAD_SPEC: u8 = 2;
/// Exit code for target/protocol failures during the campaign.
pub const EXIT_TARGET: u8 = 3;
/// Exit code for an engine subprocess that exited nonzero or died.
pub(crate) const EXIT_ENGINE: u8 = 4;

/// Reads a spec file's text; a failure prints to stderr and maps to
/// exit code [`EXIT_BAD_SPEC`].
pub(crate) fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read benchmark spec {path}: {e}");
        ExitCode::from(EXIT_BAD_SPEC)
    })
}

/// Reads, parses, and resolves a spec file; every failure prints to
/// stderr and maps to exit code [`EXIT_BAD_SPEC`].
pub fn load(
    path: &str,
    seed: u64,
    params: &[(String, String)],
) -> Result<ResolvedBenchmark, ExitCode> {
    let text = read(path)?;
    let spec = BenchmarkSpec::parse(&text).map_err(|e| {
        eprintln!("bad benchmark spec {path}: {e}");
        ExitCode::from(EXIT_BAD_SPEC)
    })?;
    spec.resolve(seed, params).map_err(|e| {
        eprintln!("bad benchmark spec {path}: {e}");
        ExitCode::from(EXIT_BAD_SPEC)
    })
}

/// Prints a spec-level complaint and returns the bad-spec exit code
/// (for validation performed after [`load`], e.g. target-kind checks).
pub fn bad_spec(detail: impl std::fmt::Display) -> ExitCode {
    eprintln!("bad benchmark spec: {detail}");
    ExitCode::from(EXIT_BAD_SPEC)
}

/// Classifies a campaign-time [`TargetError`] into the taxonomy: engine
/// subprocess death is `EXIT_ENGINE` (4); unknown target names are spec
/// bugs ([`EXIT_BAD_SPEC`]); everything else — timeouts, protocol
/// violations, I/O — is [`EXIT_TARGET`].
pub fn exit_for(e: &TargetError) -> ExitCode {
    match e {
        TargetError::EngineFailed { .. } => ExitCode::from(EXIT_ENGINE),
        TargetError::UnknownTarget { .. } => ExitCode::from(EXIT_BAD_SPEC),
        _ => ExitCode::from(EXIT_TARGET),
    }
}

//! The one driver behind `all_figures` and every per-figure binary.
//!
//! A figure binary is a shim naming its entry of
//! `charm_core::experiments::catalog` ([`main`]); `all_figures` runs
//! every entry in catalog order ([`all`]). Both take the same steps, so
//! both write the same bytes:
//!
//! * refuse (exit 2, with the usage) a flag the binary does not read:
//!   the campaign flags everywhere, `--benchmark`/`--param` on
//!   `all_figures` and on entries without a spec;
//! * run the entry: a bad spec exits 2, a failed experiment or an
//!   artifact it cannot write 3, both with `<id> (seed N): …` on stderr;
//! * stamp each CSV with `generator`, `seed` (when the entry reads one)
//!   and `observed` (fig10, fig11);
//! * with `--obs-jsonl`, write an observed entry's report as
//!   `<id>_obs.jsonl` once it provably parses back identical (else exit
//!   3), and hand it to the `--profile`/`--trace-out` session.

use crate::cli::{CommonArgs, Reads};
use crate::profile::Session;
use crate::specload::{self, EXIT_BAD_SPEC, EXIT_TARGET};
use charm_core::error::CharmError;
use charm_core::experiments::catalog::{catalog, Entry, Outputs, SpecArgs};
use charm_engine::TargetError;
use charm_obs::CampaignReport;
use std::process::ExitCode;

/// Runs catalog entry `id` as its own binary (panics if there is none).
pub fn main(id: &str) -> ExitCode {
    let entry = catalog().iter().find(|e| e.id == id).expect("each shim names a catalog entry");
    let args = CommonArgs::parse("", Reads { campaign: false, spec: entry.spec });
    let text = match args.benchmark.as_deref().map(specload::read).transpose() {
        Ok(text) => text,
        Err(code) => return code,
    };
    let spec = SpecArgs { text, params: args.params.clone() };
    run(std::slice::from_ref(entry), &args, &spec, false)
}

/// Runs every catalog entry in order (`all_figures`), stopping at the
/// first that fails.
pub fn all() -> ExitCode {
    let args = CommonArgs::parse("", Reads::SHARED);
    run(catalog(), &args, &SpecArgs::default(), true)
}

fn run(entries: &[Entry], args: &CommonArgs, spec: &SpecArgs, banner: bool) -> ExitCode {
    let session = Session::from_args(args);
    for (i, e) in entries.iter().enumerate() {
        if banner {
            println!("{}== {} ({}) ==", if i == 0 { "" } else { "\n" }, e.id, e.paper_ref);
        }
        if let Err((code, message)) = run_entry(e, args, spec, &session) {
            eprintln!("{} (seed {}): {message}", e.id, args.seed);
            return ExitCode::from(code);
        }
    }
    crate::exit_status(session.finish())
}

fn run_entry(
    e: &Entry,
    args: &CommonArgs,
    spec: &SpecArgs,
    session: &Session,
) -> Result<(), (u8, String)> {
    let out = (e.run)(args.seed, args.quick, spec).map_err(|err| match err {
        CharmError::Spec(_) | CharmError::Target(TargetError::UnknownTarget { .. }) => {
            (EXIT_BAD_SPEC, err.to_string())
        }
        _ => (EXIT_TARGET, err.to_string()),
    })?;
    let dir = args.out.as_deref();
    for (name, text) in stamped(e, args.seed, &out) {
        crate::write_artifact(dir, name, &text).map_err(write_failed)?;
    }
    if let Some(report) = &out.observed {
        if args.obs_jsonl {
            let name = format!("{}_obs.jsonl", e.id);
            let text =
                validated_jsonl(report).map_err(|m| (EXIT_TARGET, format!("{name}: {m}")))?;
            crate::write_artifact(dir, &name, &text).map_err(write_failed)?;
            println!("verified {name}: the JSONL parses back to the identical report");
        }
        session.attach_virtual(e.id, report);
    }
    print!("{}", out.report);
    Ok(())
}

/// Entry `e`'s CSV artifacts from a run at `seed`, `(file name, text)`
/// in write order, each stamped with `generator`, `seed` (when the
/// entry reads one) and `observed` (when the run was observed): the
/// exact bytes a binary writes.
pub fn stamped(e: &Entry, seed: u64, out: &Outputs) -> Vec<(&'static str, String)> {
    out.artifacts
        .iter()
        .map(|(name, body)| {
            let mut artifact = crate::csvout::artifact(name).meta("generator", e.binary);
            if e.seeded {
                artifact = artifact.meta("seed", seed);
            }
            (*name, artifact.observed(out.observed.is_some()).stamped(body))
        })
        .collect()
}

fn write_failed(e: std::io::Error) -> (u8, String) {
    (EXIT_TARGET, e.to_string())
}

/// `report` as JSONL, once the text is proven to parse back to an
/// identical report.
fn validated_jsonl(report: &CampaignReport) -> Result<String, String> {
    let text = report.to_jsonl();
    match CampaignReport::from_jsonl(&text) {
        Ok(parsed) if &parsed == report => Ok(text),
        Ok(_) => Err("JSONL round-trip changed the report".to_string()),
        Err(e) => Err(format!("JSONL round-trip failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_obs::Event;

    #[test]
    fn a_report_that_does_not_round_trip_is_refused() {
        // NaN never compares equal, so its parse-back cannot match.
        let report = CampaignReport {
            events: vec![Event { seq: 0, kind: "measure".into(), t_us: f64::NAN, attrs: vec![] }],
            ..CampaignReport::default()
        };
        assert!(validated_jsonl(&report).is_err());
    }
}

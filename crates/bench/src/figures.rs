//! `all_figures [ENTRY …]`: the one driver of
//! `charm_core::experiments::catalog`.
//!
//! [`run`] runs the entries named on the command line, in the order
//! given, or every entry in catalog order when none is named. Each entry
//! takes the same steps, so a run of one entry writes the same bytes as
//! the whole-catalog run:
//!
//! * refuse (exit 2, with the usage) an unknown or repeated entry (the
//!   complaint lists the ids), the campaign flags, and
//!   `--benchmark`/`--param` unless exactly one spec entry (fig04, fig07,
//!   pchase_interference) is selected;
//! * run the entry: a bad spec exits 2, a failed experiment or an
//!   artifact it cannot write 3, both with `<id> (seed N): …` on stderr;
//!   a run of several entries stops at the first that fails;
//! * stamp each CSV with `generator` (the entry's id), `seed` (when the
//!   entry reads one) and `observed` (fig10, fig11);
//! * with `--obs-jsonl`, write an observed entry's report as
//!   `<id>_obs.jsonl` once it provably parses back identical (else exit
//!   3), and hand it to the `--profile`/`--trace-out` session.

use crate::cli::{self, CommonArgs, Reads};
use crate::profile::Session;
use crate::specload::{self, EXIT_BAD_SPEC, EXIT_TARGET};
use charm_core::error::CharmError;
use charm_core::experiments::catalog::{catalog, Entry, Outputs, SpecArgs};
use charm_engine::TargetError;
use charm_obs::CampaignReport;
use std::process::ExitCode;

const USAGE_POSITIONAL: &str = "[ENTRY ...]";
/// `all_figures` reads the spec flags, but only for one spec entry.
const READS: Reads = Reads { campaign: false, spec: true };

/// Runs `all_figures` on this process's command line.
pub fn run() -> ExitCode {
    let args = CommonArgs::parse(USAGE_POSITIONAL, READS);
    let entries = select(&args.rest).unwrap_or_else(|m| cli::refuse(&m, USAGE_POSITIONAL, READS));
    let one_spec_entry = matches!(entries[..], [e] if e.spec);
    for (flag, given) in
        [("--benchmark", args.benchmark.is_some()), ("--param", !args.params.is_empty())]
    {
        if given && !one_spec_entry {
            let spec_ids: Vec<&str> = catalog().iter().filter(|e| e.spec).map(|e| e.id).collect();
            let complaint = format!(
                "all_figures does not read {flag} unless exactly one spec entry ({}) is named",
                spec_ids.join(", ")
            );
            cli::refuse(&complaint, USAGE_POSITIONAL, READS);
        }
    }
    let text = match args.benchmark.as_deref().map(specload::read).transpose() {
        Ok(text) => text,
        Err(code) => return code,
    };
    let spec = SpecArgs { text, params: args.params.clone() };
    let session = Session::from_args(&args);
    for (i, e) in entries.iter().enumerate() {
        if entries.len() > 1 {
            println!("{}== {} ({}) ==", if i == 0 { "" } else { "\n" }, e.id, e.paper_ref);
        }
        if let Err((code, message)) = run_entry(e, &args, &spec, &session) {
            eprintln!("{} (seed {}): {message}", e.id, args.seed);
            return ExitCode::from(code);
        }
    }
    crate::exit_status(session.finish())
}

/// The entries `names` select, in the order given; the whole catalog
/// when `names` is empty. An unknown or repeated name is refused with a
/// complaint that lists the ids.
fn select(names: &[String]) -> Result<Vec<&'static Entry>, String> {
    if names.is_empty() {
        return Ok(catalog().iter().collect());
    }
    let mut picked: Vec<&'static Entry> = Vec::with_capacity(names.len());
    for name in names {
        let problem = match catalog().iter().find(|e| e.id == name) {
            None => "is not a catalog entry",
            Some(e) if picked.iter().any(|p| p.id == e.id) => "is named twice",
            Some(e) => {
                picked.push(e);
                continue;
            }
        };
        let ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
        return Err(format!("{name:?} {problem}; the entries are: {}", ids.join(" ")));
    }
    Ok(picked)
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
/// exact bytes `all_figures` writes.
pub fn stamped(e: &Entry, seed: u64, out: &Outputs) -> Vec<(&'static str, String)> {
    out.artifacts
        .iter()
        .map(|(name, body)| {
            let mut artifact = crate::csvout::artifact().meta("generator", e.id);
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

//! Diff two archived campaign runs by design cell.
//!
//! ```text
//! store_diff <store_dir> <run_a> <run_b>
//! ```
//!
//! Both runs are digest-verified on load (a tampered artifact aborts
//! the diff), then aligned by their full factor-level tuples. The
//! report covers metadata drift (seed, shards, plan hash, versions,
//! and every campaign metadata key), per-cell record-count and
//! mean/median shifts, and cells present in only one run.
//!
//! Exit codes: `0` the runs are bit-identical (clean diff), `1` they
//! differ (the report says how), `2` usage or store error.

use charm_store::RunId;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 3 || args.iter().any(|a| a.starts_with("--")) {
        eprintln!("usage: store_diff <store_dir> <run_a> <run_b>");
        return ExitCode::from(2);
    }
    let store = match charm_bench::open_existing_store(&args[0]) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let parse = |raw: &str| match RunId::parse(raw) {
        Ok(id) => Some(id),
        Err(e) => {
            eprintln!("bad run ID {raw:?}: {e}");
            None
        }
    };
    let (Some(a), Some(b)) = (parse(&args[1]), parse(&args[2])) else {
        return ExitCode::from(2);
    };
    match store.diff(&a, &b) {
        Ok(diff) => {
            print!("{}", diff.render());
            if diff.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("diff failed: {e}");
            ExitCode::from(2)
        }
    }
}

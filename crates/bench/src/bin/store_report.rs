//! Fleet report over a campaign store: ranked comparisons with
//! paired-bootstrap speedup confidence intervals.
//!
//! ```text
//! store_report <store_dir> [--out DIR] [--level L] [--reps N] [--seed S]
//!              [--plan-hash PREFIX] [--target PREFIX] [--benchmark NAME]
//!              [--host CLASS]
//! ```
//!
//! Groups finalized runs by (target identity × benchmark label × host
//! class), ranks each group best-first by an orientation-aware median
//! score, and compares every non-best run against the group's best
//! with the Touati-style paired bootstrap of `charm_analysis::speedup`
//! — so the report states "statistically faster / slower /
//! indistinguishable" with an interval, never a bare point ratio.
//!
//! Markdown goes to stdout; with `--out DIR`, `report.md` and
//! `report.csv` are written there too (the CSV is what
//! `bench_engine_gate --report` consumes). The report is deterministic:
//! the same store and flags yield byte-identical output, regardless of
//! the order runs were archived in.
//!
//! * exit 0 — report rendered;
//! * exit 2 — bad usage (including `--reps` outside 10 to
//!   `charm_analysis::speedup::MAX_REPS` or `--level` outside (0,1),
//!   refused before any run is loaded), unreadable store, or a
//!   digest-verification failure while loading a run.

use charm_analysis::speedup::SpeedupConfig;
use charm_store::{build_report, RunQuery};
use std::process::ExitCode;

const USAGE: &str = "usage: store_report <store_dir> [--out DIR] [--level L] [--reps N] \
                     [--seed S] [--plan-hash PREFIX] [--target PREFIX] [--benchmark NAME] \
                     [--host CLASS]";

struct Args {
    store_dir: String,
    out: Option<String>,
    cfg: SpeedupConfig,
    query: RunQuery,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut out = None;
    let mut cfg = SpeedupConfig::default();
    let mut query = RunQuery::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")?),
            "--level" => {
                cfg.level = value("--level")?
                    .parse()
                    .map_err(|_| "--level needs a number in (0,1)".to_string())?;
            }
            "--reps" => {
                cfg.reps =
                    value("--reps")?.parse().map_err(|_| "--reps needs an integer".to_string())?;
            }
            "--seed" => {
                cfg.seed =
                    value("--seed")?.parse().map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--plan-hash" => query.plan_hash = Some(value("--plan-hash")?),
            "--target" => query.target = Some(value("--target")?),
            "--benchmark" => query.benchmark = Some(value("--benchmark")?),
            // `--host current` scopes to the machine running the report
            // (the class pre-v3 manifests match is the literal `unknown`).
            "--host" => {
                let h = value("--host")?;
                if h == "current" {
                    query = query.on_current_host();
                } else {
                    query.host = Some(h);
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    let [store_dir] = positional.as_slice() else {
        return Err("expected exactly one store directory".to_string());
    };
    Ok(Args { store_dir: store_dir.clone(), out, cfg, query })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let store = match charm_bench::open_existing_store(&args.store_dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = match build_report(&store, &args.query, &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot build report: {e}");
            return ExitCode::from(2);
        }
    };
    let markdown = report.render_markdown();
    print!("{markdown}");
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for (name, contents) in [("report.md", markdown), ("report.csv", report.render_csv())] {
            let path = std::path::Path::new(dir).join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

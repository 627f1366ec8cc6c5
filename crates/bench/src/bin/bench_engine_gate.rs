//! Perf-regression gate: compares a freshly generated
//! `BENCH_engine.json` (`charm-bench-engine/1`, the one schema it reads)
//! against the committed baseline and fails CI when a gated metric is
//! more than 25 % (`charm_trace::bench::DEFAULT_THRESHOLD`) worse.
//!
//! ```text
//! bench_engine_gate <candidate.json> <baseline.json>
//! bench_engine_gate --report <report.csv>
//! ```
//!
//! In `--report` mode the gate consumes a fleet report CSV produced by
//! `store_report` and renders a **CI-backed** verdict: a run only fails
//! the gate when its paired-bootstrap confidence interval against the
//! group's best run lies entirely below 1.0 (verdict `slower`) — a
//! statistically supported regression, not a bare threshold crossing.
//! `indistinguishable` and `incomparable` rows pass with a note.
//!
//! The gate is **core-aware**: when the two reports' `cores` metrics
//! differ, core-bound metrics (shard timings/speedups/utilizations and
//! `engine.scheduler.*`) are downgraded to informational, and on
//! full-mode candidates that ran with ≥ 4 cores the absolute scheduler
//! requirements (`charm_trace::bench::absolute_failures` — memory
//! shard-4 speedup and utilization) are enforced regardless of the
//! baseline (quick-mode smokes are exempt: their plans are too small
//! to amortize thread spawn/join).
//!
//! * exit 0 — no gated metric regressed and no absolute check failed;
//! * exit 1 — at least one regression past the threshold, or an
//!   absolute requirement violated;
//! * exit 2 — the reports carry the right schema but are not comparable
//!   (config mismatch, malformed contents, unreadable file), or
//!   `CHARM_GATE_FLOOR_S` is not a non-negative number;
//! * exit 3 — a report file does not exist (a fresh checkout with no
//!   committed baseline, or a candidate that was never generated);
//! * exit 4 — a report carries the wrong schema tag (written by an
//!   incompatible version of the tooling, e.g. a retired
//!   `charm-bench-campaign/1` summary).
//!
//! Exits 3 and 4 are distinct from 2 so CI and scripts can tell "the
//! baseline needs regenerating" from "the comparison itself is broken";
//! both print the regeneration command. One environment knob:
//! `CHARM_GATE_FLOOR_S`, the absolute floor in seconds under which
//! timings are noise (default 0.005); a value that is not a
//! non-negative number fails the gate (exit 2) rather than falling back
//! to the default. The gate conventions — `*_s` lower-better,
//! `*_per_sec` higher-better, everything else informational — live in
//! `charm_trace::bench`.

use charm_trace::bench::{self, EngineBench, ParseError};
use std::process::ExitCode;

const REGEN_HINT: &str =
    "regenerate it: cargo run --release -p charm-bench --bin bench_campaign_summary";

/// A load failure, ordered by how the gate should exit.
enum LoadError {
    /// Exit 3: the file is not there at all.
    Missing(String),
    /// Exit 4: the file parses but its schema tag is wrong.
    Schema(String),
    /// Exit 2: unreadable or malformed contents.
    Other(String),
}

impl LoadError {
    fn message(&self) -> &str {
        match self {
            LoadError::Missing(m) | LoadError::Schema(m) | LoadError::Other(m) => m,
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            LoadError::Missing(_) => 3,
            LoadError::Schema(_) => 4,
            LoadError::Other(_) => 2,
        }
    }
}

/// The noise floor: `CHARM_GATE_FLOOR_S` when set, else the default.
/// A value that is not a finite, non-negative number is an error.
fn floor_s() -> Result<f64, String> {
    let raw = match std::env::var("CHARM_GATE_FLOOR_S") {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return Ok(bench::DEFAULT_FLOOR_S),
        Err(e) => return Err(format!("CHARM_GATE_FLOOR_S: {e}")),
    };
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!("CHARM_GATE_FLOOR_S={raw:?} is not a non-negative number of seconds")),
    }
}

fn load(path: &str) -> Result<EngineBench, LoadError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(LoadError::Missing(format!("{path} does not exist; {REGEN_HINT}")));
        }
        Err(e) => return Err(LoadError::Other(format!("cannot read {path}: {e}"))),
    };
    EngineBench::from_json(&text).map_err(|e| match e {
        ParseError::SchemaMismatch { .. } => {
            LoadError::Schema(format!("{path}: {e}; {REGEN_HINT}"))
        }
        ParseError::Malformed(_) => LoadError::Other(format!("{path}: {e}")),
    })
}

/// `--report` mode: a CI-backed verdict from a `store_report` CSV.
fn gate_report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("{path} does not exist; generate it: store_report <store> --out <dir>");
            return ExitCode::from(3);
        }
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = match charm_store::report::parse_csv(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut compared = 0usize;
    let mut regressed = Vec::new();
    for row in &rows {
        let bench = if row.benchmark.is_empty() { "-" } else { row.benchmark.as_str() };
        match (row.verdict.as_str(), row.ratio_vs_best, row.ci) {
            ("best", _, _) => {
                println!(
                    "{} · {}: rank {} run {} is the group's best",
                    row.target,
                    bench,
                    row.rank,
                    &row.run_id[..12.min(row.run_id.len())]
                );
            }
            ("incomparable", _, _) => {
                println!(
                    "{} · {}: run {} shares no usable cells with the best — no claim",
                    row.target,
                    bench,
                    &row.run_id[..12.min(row.run_id.len())]
                );
            }
            (verdict, Some(ratio), Some((lo, hi))) => {
                compared += 1;
                println!(
                    "{} · {}: rank {} run {} ratio {:.4} CI [{:.4}, {:.4}] -> {verdict}",
                    row.target,
                    bench,
                    row.rank,
                    &row.run_id[..12.min(row.run_id.len())],
                    ratio,
                    lo,
                    hi
                );
                if verdict == "slower" {
                    regressed.push(format!("{} · {bench} run {}", row.target, row.run_id));
                }
            }
            (verdict, _, _) => {
                eprintln!("{path}: verdict {verdict:?} without a confidence interval");
                return ExitCode::from(2);
            }
        }
    }
    println!("{} row(s), {} CI-backed comparison(s)", rows.len(), compared);
    if regressed.is_empty() {
        println!("report gate passed: no statistically supported regression");
        ExitCode::SUCCESS
    } else {
        for r in &regressed {
            eprintln!("statistically slower than the group's best: {r}");
        }
        eprintln!("report gate FAILED");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let ["--report", path] = argv.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        return gate_report(path);
    }
    let [candidate_path, baseline_path] = argv.as_slice() else {
        eprintln!(
            "usage: bench_engine_gate <candidate.json> <baseline.json>\n\
             \x20      bench_engine_gate --report <report.csv>"
        );
        return ExitCode::from(2);
    };
    let threshold = bench::DEFAULT_THRESHOLD;
    let floor_s = match floor_s() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let (candidate, baseline) = match (load(candidate_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            // Report every failure, then exit with the most actionable
            // one: missing file beats wrong schema beats everything else.
            let errors: Vec<LoadError> = [c, b].into_iter().filter_map(Result::err).collect();
            for e in &errors {
                eprintln!("{}", e.message());
            }
            let code = errors
                .iter()
                .min_by_key(|e| match e {
                    LoadError::Missing(_) => 0,
                    LoadError::Schema(_) => 1,
                    LoadError::Other(_) => 2,
                })
                .map_or(2, LoadError::exit_code);
            return ExitCode::from(code);
        }
    };

    let comparisons = match bench::compare(&candidate, &baseline, threshold, floor_s) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<34} {:>12} {:>12} {:>7}  verdict  (threshold {:.0}%, floor {:.0} ms)",
        "metric",
        "baseline",
        "candidate",
        "ratio",
        threshold * 100.0,
        floor_s * 1e3
    );
    for c in &comparisons {
        println!("{c}");
    }
    let absolute = bench::absolute_failures(&candidate);
    for failure in &absolute {
        eprintln!("absolute requirement violated: {failure}");
    }
    if bench::regressed(&comparisons) || !absolute.is_empty() {
        eprintln!("regression gate FAILED");
        ExitCode::from(1)
    } else {
        println!("regression gate passed");
        ExitCode::SUCCESS
    }
}

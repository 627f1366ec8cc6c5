//! Perf-regression gate.
//!
//! ```text
//! bench_engine_gate <parent.jsonl> <change.jsonl>
//! ```
//!
//! Compares a parent and a change measured on the same host. Each file
//! holds the result lines of N `charm_perf --workload W` runs (`perf/`),
//! one run per line, the two sides' runs alternating in time so that
//! both see the same host drift. No absolute baseline is
//! committed: a number from another host class would be the
//! missing-context pitfall this repository is about.
//!
//! The metrics are `BENCHMARK.json`'s `end_to_end` list, compiled in:
//! names, units, directions and bounds. Each metric's two samples go
//! through [`speedup_ci`] with [`SpeedupConfig::default`], a bootstrap
//! confidence interval on the benefit ratio of medians (> 1 means the
//! change is better). A metric regresses when both hold:
//!
//! * the change's median is worse than the parent's by more than the
//!   bound: `parent/change < 1/(1+bound)` for lower-better metrics,
//!   `change/parent < 1 − bound` for higher-better ones;
//! * the verdict is `slower`: the whole interval lies below 1.
//!
//! The bound alone would fail on one noisy median, the interval alone
//! on a real slowdown the bound tolerates. The gate also fails when a
//! change line reports `"correct": false`, or when the change's share
//! of failed operations (`failed/attempted`, summed over its runs) is
//! larger than the parent's.
//!
//! * exit 0 — nothing regressed;
//! * exit 1 — a metric regressed, or a change run is incorrect or fails
//!   more operations;
//! * exit 2 — the inputs are not comparable: unequal run counts, fewer
//!   than 2 runs a side, a malformed line, an unreadable file;
//! * exit 3 — a file does not exist;
//! * exit 4 — a result line lacks an end-to-end metric or reports it in
//!   another unit: it was written by an incompatible `charm_perf`.

use charm_analysis::descriptive::median;
use charm_analysis::speedup::{speedup_ci, Direction, SpeedupConfig, Verdict};
use charm_obs::json::{self, Value};
use std::process::ExitCode;

/// The benchmark declaration; the gate reads its `end_to_end` list.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    direction: Direction,
    bound: f64,
}

impl Declared {
    /// The lowest benefit ratio within the bound.
    fn floor(&self) -> f64 {
        match self.direction {
            Direction::LowerIsBetter => 1.0 / (1.0 + self.bound),
            Direction::HigherIsBetter => 1.0 - self.bound,
        }
    }
}

/// One `charm_perf` result line.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The declared metrics' values, in declaration order.
    values: Vec<f64>,
}

/// Exit codes of a load failure (see the module docs).
const MISSING: u8 = 3;
const INCOMPATIBLE: u8 = 4;
const MALFORMED: u8 = 2;

/// A load failure: its exit code and message.
struct LoadError(u8, String);

fn malformed(message: impl Into<String>) -> LoadError {
    LoadError(MALFORMED, message.into())
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `BENCHMARK.json`'s `end_to_end` list.
fn declared() -> Result<Vec<Declared>, String> {
    let root = json::parse_object(BENCHMARK_JSON)?;
    let Some(Value::List(items)) = root.get("end_to_end") else {
        return Err("no \"end_to_end\" list".to_string());
    };
    let entry = |item: &Value| -> Option<Declared> {
        let Value::Map(fields) = item else { return None };
        let text = |key| match field(fields, key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let direction = match text("better")?.as_str() {
            "lower" => Direction::LowerIsBetter,
            "higher" => Direction::HigherIsBetter,
            _ => return None,
        };
        let bound = match field(fields, "bound") {
            Some(Value::Num(raw)) => raw.parse().ok().filter(|b: &f64| (0.0..1.0).contains(b))?,
            _ => return None,
        };
        Some(Declared { name: text("name")?, unit: text("unit")?, direction, bound })
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| entry(item).ok_or_else(|| format!("malformed \"end_to_end\" entry {i}")))
        .collect()
}

fn parse_run(line: &str, declared: &[Declared]) -> Result<Run, LoadError> {
    let o = json::parse_object(line).map_err(malformed)?;
    let (Some(correct), Some(attempted), Some(failed)) =
        (o.get_bool("correct"), o.get_u64("attempted"), o.get_u64("failed"))
    else {
        return Err(malformed("needs \"correct\", \"attempted\" and \"failed\" fields"));
    };
    if attempted == 0 || failed > attempted {
        return Err(malformed(format!("{failed} of {attempted} operations failed")));
    }
    let Some(Value::Map(metrics)) = o.get("metrics") else {
        return Err(malformed("no \"metrics\" object"));
    };
    let values = declared
        .iter()
        .map(|d| {
            let Some(Value::Map(m)) = field(metrics, &d.name) else {
                return Err(LoadError(INCOMPATIBLE, format!("no {:?} metric", d.name)));
            };
            match (field(m, "value"), field(m, "unit")) {
                (Some(Value::Num(raw)), Some(Value::Str(unit))) if *unit == d.unit => {
                    raw.parse().map_err(|_| malformed(format!("{}: bad value {raw:?}", d.name)))
                }
                (Some(Value::Num(_)), Some(Value::Str(unit))) => Err(LoadError(
                    INCOMPATIBLE,
                    format!("{} is in {unit:?}, BENCHMARK.json says {:?}", d.name, d.unit),
                )),
                _ => Err(malformed(format!("{} lacks a numeric value or a unit", d.name))),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Run { correct, attempted, failed, values })
}

/// Every non-blank line of `path` as a run.
fn load(path: &str, declared: &[Declared]) -> Result<Vec<Run>, LoadError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(LoadError(MISSING, format!("{path} does not exist")));
        }
        Err(e) => return Err(malformed(format!("cannot read {path}: {e}"))),
    };
    let runs = text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty());
    runs.map(|(i, line)| {
        parse_run(line, declared).map_err(|LoadError(code, message)| {
            let hint = if code == INCOMPATIBLE {
                "; written by an incompatible charm_perf (build perf/ from the same checkout as \
                 the gate)"
            } else {
                ""
            };
            LoadError(code, format!("{path}:{}: {message}{hint}", i + 1))
        })
    })
    .collect()
}

/// The gate: the parent's runs against the change's.
fn gate(parent_path: &str, change_path: &str) -> ExitCode {
    let declared = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(MALFORMED);
        }
    };
    let (parent, change) = match (load(parent_path, &declared), load(change_path, &declared)) {
        (Ok(p), Ok(c)) => (p, c),
        (p, c) => {
            let errors: Vec<LoadError> = [p, c].into_iter().filter_map(Result::err).collect();
            for LoadError(_, message) in &errors {
                eprintln!("{message}");
            }
            // The most actionable code: a missing file, then an
            // incompatible line, then anything else.
            let rank = |code: u8| [MISSING, INCOMPATIBLE].iter().position(|&c| c == code);
            let code = errors.iter().map(|e| e.0).min_by_key(|&c| rank(c).unwrap_or(2));
            return ExitCode::from(code.unwrap_or(MALFORMED));
        }
    };
    if parent.len() != change.len() {
        eprintln!(
            "{} parent run(s) but {} change run(s): the runs are not paired",
            parent.len(),
            change.len()
        );
        return ExitCode::from(MALFORMED);
    }
    if parent.len() < 2 {
        eprintln!("{} run(s) a side; the gate needs at least 2", parent.len());
        return ExitCode::from(MALFORMED);
    }

    let cfg = SpeedupConfig::default();
    let mut failures = Vec::new();
    println!(
        "{:<12} {:>12} {:>12} {:>7} {:>17} {:>7}  verdict  ({} pairs, {:.0} % CI)",
        "metric",
        "parent",
        "change",
        "ratio",
        "CI",
        "floor",
        parent.len(),
        cfg.level * 100.0
    );
    for (k, d) in declared.iter().enumerate() {
        let p: Vec<f64> = parent.iter().map(|r| r.values[k]).collect();
        let c: Vec<f64> = change.iter().map(|r| r.values[k]).collect();
        let ci = match speedup_ci(&d.name, &p, &c, d.direction, &cfg) {
            Ok(ci) => ci,
            Err(e) => {
                eprintln!("{}: {e}", d.name);
                return ExitCode::from(MALFORMED);
            }
        };
        let verdict = Verdict::of(&ci);
        let regressed = ci.estimate < d.floor() && verdict == Verdict::Slower;
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>7.3} [{:>6.3}, {:>6.3}] {:>7.3}  {verdict}{}",
            d.name,
            median(&p).unwrap_or(f64::NAN),
            median(&c).unwrap_or(f64::NAN),
            ci.estimate,
            ci.lo,
            ci.hi,
            d.floor(),
            if regressed { "  REGRESSED" } else { "" }
        );
        if regressed {
            failures.push(format!(
                "{}: ratio {:.3} is below the bound's {:.3} and its CI [{:.3}, {:.3}] below 1",
                d.name,
                ci.estimate,
                d.floor(),
                ci.lo,
                ci.hi
            ));
        }
    }

    let incorrect = change.iter().filter(|r| !r.correct).count();
    if incorrect > 0 {
        failures.push(format!("{incorrect} change run(s) report \"correct\": false"));
    }
    let tally = |runs: &[Run]| {
        runs.iter()
            .fold((0u128, 0u128), |(f, a), r| (f + r.failed as u128, a + r.attempted as u128))
    };
    let ((pf, pa), (cf, ca)) = (tally(&parent), tally(&change));
    println!("failed operations: parent {pf} of {pa}, change {cf} of {ca}");
    if cf * pa > pf * ca {
        failures.push(format!(
            "the change failed {cf} of {ca} operations, a larger share than the parent's {pf} of \
             {pa}"
        ));
    }

    if failures.is_empty() {
        println!("paired gate passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("{f}");
        }
        eprintln!("paired gate FAILED");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        [parent, change] if !parent.starts_with("--") => gate(parent, change),
        _ => {
            eprintln!("usage: bench_engine_gate <parent.jsonl> <change.jsonl>");
            ExitCode::from(2)
        }
    }
}

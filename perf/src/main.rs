//! The `charm_perf` command.
//!
//! ```text
//! charm_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!            [--trace-out PATH] [--write-expected]
//! charm_perf run [--trace] [--seed N] [--seconds S] [--write-expected]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its result as JSON. `run` runs every
//! workload, each in its own child process so that `peak_rss_mb`
//! belongs to that workload alone, and prints one table.
//!
//! Exit status: 0 when every output check passed; 1 when a check failed
//! (the result still prints, with `"correct": false`); 2 when the run
//! could not complete or the arguments are wrong.

use charm_perf::metrics::WORKLOADS;
use charm_perf::output::Output;
use charm_perf::{run_workload, Config, Expected, Sizes, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: charm_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out PATH] [--write-expected]\n       \
                     charm_perf run [--trace] [--seed N] [--seconds S] [--write-expected]";

struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    write_expected: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        all: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        write_expected: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "run" => a.all = true,
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--write-expected" => a.write_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give either `run` or `--workload NAME`".into());
    }
    if a.write_expected && a.seed != DEFAULT_SEED {
        return Err(format!("--write-expected needs the reference seed {DEFAULT_SEED}"));
    }
    Ok(a)
}

/// The build's target directory (`<target>/<profile>/charm_perf`), where
/// runs keep their scratch files and traces.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .ok_or_else(|| format!("cannot place scratch files next to {}", exe.display()))
}

fn one(a: &Args, name: &str) -> ExitCode {
    if !WORKLOADS.iter().any(|(w, _)| *w == name) {
        eprintln!("unknown workload {name:?}");
        return ExitCode::from(2);
    }
    let target = match target_dir() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let scratch = target.join("charm_perf-scratch").join(format!("{name}-{}", std::process::id()));
    let expected_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"));
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        sizes: Sizes::full(),
        scratch: scratch.clone(),
        trace_out: a.trace.then(|| {
            a.trace_out
                .clone()
                .unwrap_or_else(|| target.join(format!("charm_perf-trace-{name}.json")))
        }),
        expected: if a.write_expected {
            Expected::Write(expected_dir)
        } else if a.seed == DEFAULT_SEED {
            Expected::Check(expected_dir)
        } else {
            Expected::Skip
        },
    };
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| {
            // A panic inside charm still gets its scratch files removed.
            std::panic::catch_unwind(|| run_workload(name, &cfg))
                .unwrap_or_else(|_| Err("panicked".to_string()))
        });
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            for m in &report.output.metrics {
                eprintln!("{name:<12} {:<32} {:>16} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.output.render());
            if report.output.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("{name}: output checks FAILED");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(2)
        }
    }
}

fn all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut table = Vec::new();
    for (name, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if a.write_expected {
            cmd.arg("--write-expected");
        }
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.lines().last().map(Output::parse) {
            Some(Ok(result)) => {
                ok &= out.status.success() && result.correct;
                table.push((name, result));
            }
            _ => {
                eprintln!("{name}: no result ({})", out.status);
                ok = false;
            }
        }
    }
    println!("{:<12} {:<32} {:>16}  unit", "workload", "metric", "value");
    for (name, result) in &table {
        for m in &result.metrics {
            println!("{name:<12} {:<32} {:>16.4}  {}", m.name, m.value, m.unit);
        }
        println!(
            "{name:<12} {:<32} {:>16}  ({} attempted, {} failed)",
            "correct", result.correct, result.attempted, result.failed
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("charm_perf: a workload failed");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        Some(name) => one(&a, name),
        None => all(&a),
    }
}

//! `bench_engine_gate` end to end: each exit code the gate documents,
//! driven through the binary on synthetic `charm_perf` result lines
//! (paired mode) and fleet report CSVs (`--report` mode) in a scratch
//! directory.

mod common;

use common::Scratch;
use std::process::{Command, Output};

/// The end-to-end metrics of `BENCHMARK.json` with typical values.
const METRICS: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.15),
    ("op_p50_ms", "ms", 98.0),
    ("op_p90_ms", "ms", 116.0),
    ("ops_per_s", "1/s", 9.6),
    ("peak_rss_mb", "MB", 21.4),
];

/// One run's result line as `charm_perf` prints it.
fn line(correct: bool, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": 131, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Five runs with ±2 % run-to-run jitter; `scale(run, metric, value)`
/// rewrites each value.
fn side(scale: impl Fn(usize, &str, f64) -> f64) -> Vec<String> {
    (0..5)
        .map(|run| {
            let jitter = 1.0 + 0.01 * (run as f64 - 2.0);
            let metrics: Vec<_> = METRICS
                .iter()
                .map(|&(name, unit, v)| (name, unit, scale(run, name, v * jitter)))
                .collect();
            line(true, 0, &metrics)
        })
        .collect()
}

fn parent() -> Vec<String> {
    side(|_, _, v| v)
}

/// Runs the gate on two sides, written one line per run.
fn gate(dir: &Scratch, parent: &[String], change: &[String]) -> Output {
    let p = dir.write("parent.jsonl", &(parent.join("\n") + "\n"));
    let c = dir.write("change.jsonl", &(change.join("\n") + "\n"));
    run(&[&p, &c])
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_engine_gate")).args(args).output().unwrap()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("the gate exits, it is not killed")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The table row of `metric`.
fn row(out: &Output, metric: &str) -> String {
    let table = stdout(out);
    table.lines().find(|l| l.starts_with(&format!("{metric} "))).unwrap_or_default().to_string()
}

#[test]
fn identical_sides_pass() {
    let dir = Scratch::new("identical");
    let out = gate(&dir, &parent(), &parent());
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("paired gate passed"));
    for (name, _, _) in METRICS {
        assert!(row(&out, name).contains("indistinguishable"), "{}", stdout(&out));
    }
}

#[test]
fn a_slowdown_past_the_bound_regresses_and_names_the_metric() {
    for (metric, factor) in [("op_p50_ms", 1.3), ("ops_per_s", 0.7), ("peak_rss_mb", 1.25)] {
        let dir = Scratch::new(&format!("slow_{metric}"));
        let change = side(|_, name, v| if name == metric { v * factor } else { v });
        let out = gate(&dir, &parent(), &change);
        assert_eq!(exit_code(&out), 1, "{metric} ×{factor}: {}", stdout(&out));
        assert!(row(&out, metric).contains("slower  REGRESSED"), "{}", stdout(&out));
        assert!(stderr(&out).contains(metric), "{}", stderr(&out));
        let flagged = stdout(&out).matches("REGRESSED").count();
        assert_eq!(flagged, 1, "only {metric} regressed: {}", stdout(&out));
    }
}

#[test]
fn a_slowdown_within_the_bound_passes_even_when_the_ci_sees_it() {
    // Every metric 10 % worse: the interval clears 1, the bound holds.
    let dir = Scratch::new("within");
    let change = side(|_, name, v| if name == "ops_per_s" { v / 1.1 } else { v * 1.1 });
    let out = gate(&dir, &parent(), &change);
    assert_eq!(exit_code(&out), 0, "{}\n{}", stdout(&out), stderr(&out));
    assert!(row(&out, "op_p50_ms").contains("slower"), "{}", stdout(&out));
    assert!(!stdout(&out).contains("REGRESSED"));
}

#[test]
fn a_worse_median_whose_ci_straddles_one_passes() {
    // The change's median op is 30 % slower, but its runs spread so
    // widely that the interval on the ratio contains 1: no evidence.
    let dir = Scratch::new("straddle");
    let spread = [0.45, 0.7, 1.3, 1.9, 2.4];
    let change = side(|run, name, v| if name == "op_p50_ms" { v * spread[run] } else { v });
    let out = gate(&dir, &parent(), &change);
    assert_eq!(exit_code(&out), 0, "{}\n{}", stdout(&out), stderr(&out));
    let r = row(&out, "op_p50_ms");
    assert!(r.contains("indistinguishable"), "{r}");
    let ratio: f64 = r.split_whitespace().nth(3).unwrap().parse().unwrap();
    assert!(ratio < 1.0 / 1.25, "the median is worse than the bound: {r}");
}

#[test]
fn an_incorrect_change_run_fails() {
    let dir = Scratch::new("incorrect");
    let mut change = parent();
    change[3] = change[3].replace("\"correct\": true", "\"correct\": false");
    let out = gate(&dir, &parent(), &change);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stderr(&out).contains("\"correct\": false"), "{}", stderr(&out));
    // An incorrect parent run does not fail the change.
    assert_eq!(exit_code(&gate(&dir, &change, &parent())), 0);
}

#[test]
fn more_failed_operations_fail() {
    let dir = Scratch::new("failed");
    let mut change = parent();
    change[0] = change[0].replace("\"failed\": 0", "\"failed\": 2");
    let out = gate(&dir, &parent(), &change);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stderr(&out).contains("failed 2 of 655"), "{}", stderr(&out));
    // The same failures on both sides are the same share.
    assert_eq!(exit_code(&gate(&dir, &change, &change)), 0);
}

#[test]
fn unpaired_short_or_malformed_inputs_are_not_comparable() {
    let dir = Scratch::new("incomparable");
    let cases: [(&str, Vec<String>, Vec<String>); 4] = [
        ("unequal line counts", parent(), parent()[..4].to_vec()),
        ("fewer than 2 lines", parent()[..1].to_vec(), parent()[..1].to_vec()),
        ("a malformed line", parent(), {
            let mut c = parent();
            c[2] = c[2][..40].to_string();
            c
        }),
        ("a non-numeric value", parent(), {
            let mut c = parent();
            c[1] = c[1].replacen("\"value\": ", "\"value\": \"", 1).replacen(
                ", \"unit\"",
                "\", \"unit\"",
                1,
            );
            c
        }),
    ];
    for (what, p, c) in cases {
        let out = gate(&dir, &p, &c);
        assert_eq!(exit_code(&out), 2, "{what}: {}", stderr(&out));
    }
    assert_eq!(exit_code(&run(&[])), 2, "no arguments");
}

#[test]
fn a_missing_file_exits_3() {
    let dir = Scratch::new("missing");
    let p = dir.write("parent.jsonl", &parent().join("\n"));
    let absent = dir.join("absent.jsonl");
    let out = run(&[&p, absent.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("does not exist"), "{}", stderr(&out));
}

#[test]
fn a_line_from_an_incompatible_charm_perf_exits_4() {
    let dir = Scratch::new("incompatible");
    let missing: Vec<(&str, &str, f64)> =
        METRICS.iter().copied().filter(|(name, _, _)| *name != "op_p90_ms").collect();
    let mut renamed = parent();
    renamed[4] = line(true, 0, &missing);
    let mut reunited = parent();
    reunited[0] = reunited[0].replace("\"unit\": \"MB\"", "\"unit\": \"MiB\"");
    for (what, change, needle) in
        [("missing metric", renamed, "op_p90_ms"), ("different unit", reunited, "MiB")]
    {
        let out = gate(&dir, &parent(), &change);
        assert_eq!(exit_code(&out), 4, "{what}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(needle) && err.contains("incompatible charm_perf"), "{err}");
    }
}

#[test]
fn a_report_row_with_a_bad_run_id_fails_closed() {
    let dir = Scratch::new("report");
    // A multi-byte character across byte 12, where the gate cuts the ID.
    let bad_id = format!("{}é{}", "0".repeat(11), "0".repeat(19));
    let csv = format!(
        "{}\ntaurus,fig04,linux/2c,1,{bad_id},41,1,8,8,1.0,,,,0.95,best\n",
        charm_store::report::CSV_HEADER
    );
    let out = run(&["--report", &dir.write("report.csv", &csv)]);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("row 2: bad run ID"), "{}", stderr(&out));
}

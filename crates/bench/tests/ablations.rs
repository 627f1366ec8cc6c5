//! The ablations: each catalog entry writes its CSV and reports the
//! outcome EXPERIMENTS.md's ablation table states for it, checked here
//! as a predicate on its report at the default seed, in process.

mod common;

use charm_bench::DEFAULT_SEED;
use charm_core::experiments::catalog::{catalog, SpecArgs};
use common::Scratch;
use std::process::Command;

/// Every ablation entry.
const ABLATIONS: [&str; 5] = [
    "ablation_randomization",
    "ablation_sizegrids",
    "ablation_aggregation",
    "ablation_allocation",
    "ablation_breakpoints",
];

/// Runs ablation `id` at the default seed, asserts that it yields
/// `<id>.csv` with rows, and returns its report.
fn run(id: &str) -> String {
    let e = catalog().iter().find(|e| e.id == id).unwrap();
    let out = (e.run)(DEFAULT_SEED, false, &SpecArgs::default()).unwrap();
    let csv = format!("{id}.csv");
    let [(name, body)] = &out.artifacts[..] else { panic!("{id} writes one artifact") };
    assert_eq!(*name, csv);
    assert!(body.lines().any(|l| !l.starts_with('#')), "{csv} has no rows");
    out.report
}

/// The number that starts `s` (after leading spaces), ignoring what follows.
fn number(s: &str) -> f64 {
    let s = s.trim_start();
    let end = s.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(s.len());
    s[..end].parse().unwrap_or_else(|_| panic!("no number at the start of {s:?}"))
}

/// The number printed right after `key` on `line`.
fn after(line: &str, key: &str) -> f64 {
    let i = line.find(key).unwrap_or_else(|| panic!("{key:?} not in {line:?}"));
    number(&line[i + key.len()..])
}

/// The one report line that starts with `prefix`.
fn line<'a>(report: &'a str, prefix: &str) -> &'a str {
    let mut lines = report.lines().filter(|l| l.starts_with(prefix));
    let found = lines.next().unwrap_or_else(|| panic!("no line starts with {prefix:?}"));
    assert!(lines.next().is_none(), "more than one line starts with {prefix:?}");
    found
}

#[test]
fn size_grids_flag_exactly_size_1024() {
    let report = run("ablation_sizegrids");
    let flagged: Vec<f64> =
        report.lines().filter_map(|l| l.trim_start().strip_prefix("size ")).map(number).collect();
    assert_eq!(flagged, [1024.0], "{report}");
}

#[test]
fn the_free_search_finds_the_16_kib_break_the_forced_fit_lacks() {
    let report = run("ablation_breakpoints");
    let breaks = |prefix: &str| -> Vec<f64> {
        let l = line(&report, prefix);
        let list = &l[l.find('[').unwrap() + 1..l.find(']').unwrap()];
        list.split(',').filter(|b| !b.trim().is_empty()).map(number).collect()
    };
    let near_16_kib = |b: &f64| (12_288.0..=20_480.0).contains(b);
    assert!(breaks("free search").iter().any(near_16_kib), "{report}");
    assert!(!breaks("forced 1 break").iter().any(near_16_kib), "{report}");
    assert!(after(line(&report, "SSE ratio"), "forced/free:") > 1.0, "{report}");
}

#[test]
fn randomized_order_exposes_the_burst_sequential_order_hides() {
    let report = run("ablation_randomization");
    let row = |label: &str| line(&report, &format!("{label:<11} worst"));
    let (sequential, randomized) = (row("sequential"), row("randomized"));
    assert_eq!(after(sequential, "temporal windows detected:"), 0.0, "{report}");
    assert!(after(randomized, "temporal windows detected:") >= 1.0, "{report}");
    let jump = |l: &str| after(l, "median jump:");
    assert!(jump(randomized) < jump(sequential), "{report}");
}

#[test]
fn raw_retention_recovers_two_modes_at_each_size() {
    let report = run("ablation_aggregation");
    let sizes: Vec<&str> = report.lines().filter(|l| l.starts_with("size ")).collect();
    assert!(!sizes.is_empty(), "{report}");
    for l in sizes {
        let (low, high) = (after(l, "modes at"), after(l, " and "));
        assert!(low < high, "{l}");
        assert!(after(l, "MB/s (") > 0.0, "no slow share: {l}");
    }
}

#[test]
fn malloc_per_size_runs_disagree_more_than_pooled_ones() {
    let report = run("ablation_allocation");
    let spread = |name: &str| after(line(&report, &format!("  {name} ")), "cross-run spread");
    assert!(spread("malloc_per_size") > spread("pooled_random_offset"), "{report}");
}

#[test]
fn an_unwritable_out_exits_3_naming_it() {
    let dir = Scratch::new("unwritable");
    let file = dir.write("occupied", "");
    for id in ABLATIONS {
        let out =
            Command::new(env!("CARGO_BIN_EXE_all_figures")).args([id, "--out", &file]).output();
        let out = out.unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{id}: {stderr}");
        assert!(stderr.contains(&format!("cannot write {file}")), "{id}: {stderr}");
    }
}

//! The ablation binaries end to end: each writes its CSV and prints the
//! outcome EXPERIMENTS.md's ablation table states for it, checked here
//! as a predicate on its stdout at the default seed.

mod common;

use common::Scratch;
use std::process::Command;

/// Every ablation binary.
const ABLATIONS: [(&str, &str); 5] = [
    ("ablation_sizegrids", env!("CARGO_BIN_EXE_ablation_sizegrids")),
    ("ablation_breakpoints", env!("CARGO_BIN_EXE_ablation_breakpoints")),
    ("ablation_randomization", env!("CARGO_BIN_EXE_ablation_randomization")),
    ("ablation_aggregation", env!("CARGO_BIN_EXE_ablation_aggregation")),
    ("ablation_allocation", env!("CARGO_BIN_EXE_ablation_allocation")),
];

/// Runs ablation `name` with `--out` a scratch directory, asserts that
/// it exits 0 and writes `<name>.csv`, and returns its stdout.
fn run(name: &str) -> String {
    let (_, bin) = ABLATIONS.into_iter().find(|(n, _)| *n == name).unwrap();
    let dir = Scratch::new(name);
    let out = Command::new(bin).args(["--out", dir.0.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(dir.join(&format!("{name}.csv"))).unwrap();
    assert!(csv.lines().any(|l| !l.starts_with('#')), "{name}.csv has no rows");
    String::from_utf8(out.stdout).unwrap()
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

/// The one stdout line that starts with `prefix`.
fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    let mut lines = stdout.lines().filter(|l| l.starts_with(prefix));
    let found = lines.next().unwrap_or_else(|| panic!("no line starts with {prefix:?}"));
    assert!(lines.next().is_none(), "more than one line starts with {prefix:?}");
    found
}

#[test]
fn size_grids_flag_exactly_size_1024() {
    let stdout = run("ablation_sizegrids");
    let flagged: Vec<f64> =
        stdout.lines().filter_map(|l| l.trim_start().strip_prefix("size ")).map(number).collect();
    assert_eq!(flagged, [1024.0], "{stdout}");
}

#[test]
fn the_free_search_finds_the_16_kib_break_the_forced_fit_lacks() {
    let stdout = run("ablation_breakpoints");
    let breaks = |prefix: &str| -> Vec<f64> {
        let l = line(&stdout, prefix);
        let list = &l[l.find('[').unwrap() + 1..l.find(']').unwrap()];
        list.split(',').filter(|b| !b.trim().is_empty()).map(number).collect()
    };
    let near_16_kib = |b: &f64| (12_288.0..=20_480.0).contains(b);
    assert!(breaks("free search").iter().any(near_16_kib), "{stdout}");
    assert!(!breaks("forced 1 break").iter().any(near_16_kib), "{stdout}");
    assert!(after(line(&stdout, "SSE ratio"), "forced/free:") > 1.0, "{stdout}");
}

#[test]
fn randomized_order_exposes_the_burst_sequential_order_hides() {
    let stdout = run("ablation_randomization");
    let row = |label: &str| line(&stdout, &format!("{label:<11} worst"));
    let (sequential, randomized) = (row("sequential"), row("randomized"));
    assert_eq!(after(sequential, "temporal windows detected:"), 0.0, "{stdout}");
    assert!(after(randomized, "temporal windows detected:") >= 1.0, "{stdout}");
    let jump = |l: &str| after(l, "median jump:");
    assert!(jump(randomized) < jump(sequential), "{stdout}");
}

#[test]
fn raw_retention_recovers_two_modes_at_each_size() {
    let stdout = run("ablation_aggregation");
    let sizes: Vec<&str> = stdout.lines().filter(|l| l.starts_with("size ")).collect();
    assert!(!sizes.is_empty(), "{stdout}");
    for l in sizes {
        let (low, high) = (after(l, "modes at"), after(l, " and "));
        assert!(low < high, "{l}");
        assert!(after(l, "MB/s (") > 0.0, "no slow share: {l}");
    }
}

#[test]
fn malloc_per_size_runs_disagree_more_than_pooled_ones() {
    let stdout = run("ablation_allocation");
    let spread = |name: &str| after(line(&stdout, &format!("  {name} ")), "cross-run spread");
    assert!(spread("malloc_per_size") > spread("pooled_random_offset"), "{stdout}");
}

#[test]
fn an_unwritable_out_exits_3_naming_it() {
    let dir = Scratch::new("unwritable");
    let file = dir.write("occupied", "");
    for (name, bin) in ABLATIONS {
        let out = Command::new(bin).args(["--out", &file]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{name}: {stderr}");
        assert!(stderr.contains(&format!("cannot write {file}")), "{name}: {stderr}");
    }
}

//! The figure binaries end to end: each is its catalog entry run through
//! the one driver, so it writes exactly the entry's artifacts, refuses
//! flags it does not read, fails closed on a failed experiment, and
//! finds its design without a `benchmarks/` directory nearby.

mod common;

use charm_core::experiments::catalog::catalog;
use common::Scratch;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

/// Every per-figure binary, in catalog order.
const BINARIES: [(&str, &str); 12] = [
    ("fig03", env!("CARGO_BIN_EXE_fig03")),
    ("fig04", env!("CARGO_BIN_EXE_fig04")),
    ("table05", env!("CARGO_BIN_EXE_table05")),
    ("fig07", env!("CARGO_BIN_EXE_fig07")),
    ("fig08", env!("CARGO_BIN_EXE_fig08")),
    ("fig09", env!("CARGO_BIN_EXE_fig09")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ("convolution", env!("CARGO_BIN_EXE_convolution")),
    ("pchase", env!("CARGO_BIN_EXE_pchase_interference")),
];
const ALL_FIGURES: &str = env!("CARGO_BIN_EXE_all_figures");

/// Runs `bin` from `dir`, without the harness's env knobs, writing into
/// `<dir>/<out>`.
fn run(dir: &Scratch, bin: &str, out: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .args(["--out", dir.join(out).to_str().unwrap()])
        .current_dir(&dir.0)
        .env_remove("CHARM_SEED")
        .env_remove("CHARM_SHARDS")
        .env_remove("CHARM_RESULTS_DIR")
        .output()
        .unwrap()
}

fn files(dir: &Scratch, out: &str) -> BTreeSet<String> {
    let entries = std::fs::read_dir(dir.join(out)).into_iter().flatten();
    entries.map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect()
}

fn read(dir: &Scratch, out: &str, name: &str) -> String {
    std::fs::read_to_string(dir.join(out).join(name)).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn each_quick_run_writes_exactly_the_declared_artifacts() {
    let ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
    assert_eq!(ids, BINARIES.map(|(id, _)| id), "one binary per entry");
    let dir = Scratch::new("artifacts");
    let mut every = BTreeSet::new();
    for (e, (_, bin)) in catalog().iter().zip(BINARIES) {
        assert!(Path::new(bin).ends_with(e.binary), "{} is built as {bin}", e.id);
        let out = run(&dir, bin, e.id, &["--quick"]);
        assert!(out.status.success(), "{}: {}", e.id, stderr(&out));
        let declared: BTreeSet<String> = e.artifacts.iter().map(|a| a.to_string()).collect();
        assert_eq!(files(&dir, e.id), declared, "{}", e.id);
        every.extend(declared.into_iter().map(|a| (e.id, a)));
    }
    let out = run(&dir, ALL_FIGURES, "all", &["--quick"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(files(&dir, "all"), every.iter().map(|(_, a)| a.clone()).collect());
    for (id, name) in &every {
        assert!(read(&dir, "all", name) == read(&dir, id, name), "{name} differs");
    }
}

#[test]
fn flags_a_binary_does_not_read_exit_2_with_usage() {
    let dir = Scratch::new("unread");
    let fig03 = BINARIES[0].1;
    let cases: [(&str, &[&str]); 10] = [
        (fig03, &["garbage"]),
        (fig03, &["--store", "/tmp/x", "--resume", "abc"]),
        (fig03, &["--resume", "abc"]),
        (fig03, &["--min-rows-per-shard", "1"]),
        (fig03, &["--benchmark", "x.toml"]),
        (fig03, &["--param", "a=b"]),
        (ALL_FIGURES, &["--benchmark", "x.toml"]),
        (ALL_FIGURES, &["--param", "n_sizes=30"]),
        (ALL_FIGURES, &["garbage"]),
        (ALL_FIGURES, &["--store", "/tmp/x"]),
    ];
    for (bin, args) in cases {
        let result = run(&dir, bin, "out", args);
        assert_eq!(result.status.code(), Some(2), "{bin} {args:?}");
        let err = stderr(&result);
        let (complaint, usage) = err.split_once("usage:").expect("usage on stderr");
        assert!(complaint.contains("does not read"), "{err}");
        for flag in ["--store", "--resume", "--min-rows-per-shard", "--benchmark", "--param"] {
            assert!(!usage.contains(flag), "{bin}'s usage lists {flag}, which it does not read");
        }
        assert!(files(&dir, "out").is_empty(), "{bin} {args:?} wrote artifacts");
    }
}

#[test]
fn a_failed_fit_exits_3_naming_the_experiment_and_seed() {
    let dir = Scratch::new("fit");
    for bin in [ALL_FIGURES, BINARIES[1].1] {
        let result = run(&dir, bin, "out", &["--quick", "--seed", "3"]);
        let err = stderr(&result);
        assert_eq!(result.status.code(), Some(3), "{bin}: {err}");
        assert!(
            err.contains("fig04 (seed 3): analysis failed") && !err.contains("panicked"),
            "{err}"
        );
    }
}

#[test]
fn fig04_needs_no_benchmarks_directory() {
    // The scratch directory has no benchmarks/: the design is embedded.
    let dir = Scratch::new("cwd");
    let result = run(&dir, BINARIES[1].1, "out", &["--shards", "1"]);
    assert!(result.status.success(), "{}", stderr(&result));
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["fig04_raw.csv", "fig04_model.csv"] {
        let committed = std::fs::read_to_string(results.join(name)).unwrap();
        assert!(read(&dir, "out", name) == committed, "{name} differs from results/{name}");
    }
}

#[test]
fn benchmark_replaces_the_embedded_spec_and_a_bad_one_exits_2() {
    let dir = Scratch::new("spec");
    let both = "levels = [\"l1_resident_8KiB\", \"dram_bound_8MiB\"]";
    let spec =
        charm_core::experiments::pchase::SPEC.replace(both, "levels = [\"l1_resident_8KiB\"]");
    let file = dir.write("one_workload.toml", &spec);
    let result = run(&dir, BINARIES[11].1, "out", &["--benchmark", &file]);
    assert!(result.status.success(), "{}", stderr(&result));
    let csv = read(&dir, "out", "pchase_interference.csv");
    assert!(csv.contains("l1_resident_8KiB") && !csv.contains("dram_bound_8MiB"), "{csv}");

    let file = dir.write("bad.toml", "[benchmark\n");
    let fig07 = BINARIES[3].1;
    let result = run(&dir, fig07, "bad", &["--benchmark", &file, "--seed", "4"]);
    assert_eq!(result.status.code(), Some(2));
    assert!(stderr(&result).contains("fig07 (seed 4): bad benchmark spec"), "{}", stderr(&result));
    let result = run(&dir, fig07, "bad", &["--param", "reps=2"]);
    assert_eq!(result.status.code(), Some(2));
    assert!(stderr(&result).contains("declared: repetitions"), "{}", stderr(&result));
}

#[test]
fn fig10_obs_jsonl_goes_through_the_round_trip_check() {
    let dir = Scratch::new("obs");
    let result = run(&dir, BINARIES[6].1, "out", &["--quick", "--obs-jsonl"]);
    assert!(result.status.success(), "{}", stderr(&result));
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("verified fig10_obs.jsonl"), "{stdout}");
    let text = read(&dir, "out", "fig10_obs.jsonl");
    assert_eq!(charm_obs::CampaignReport::from_jsonl(&text).unwrap().to_jsonl(), text);
    let csv = read(&dir, "out", "fig10.csv");
    assert!(csv.starts_with("# generator: fig10\n# seed: 20170529\n# observed: true\n"), "{csv}");
}

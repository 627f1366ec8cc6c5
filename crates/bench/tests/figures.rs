//! `all_figures` end to end: each catalog entry it runs goes through the
//! one driver, so a run of one entry writes exactly the entry's
//! artifacts, byte-equal to the whole-catalog run; it refuses entries
//! and flags it will not run, fails closed on a failed experiment, and
//! finds its designs without a `benchmarks/` directory nearby.

mod common;

use charm_core::experiments::catalog::catalog;
use common::Scratch;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

const ALL_FIGURES: &str = env!("CARGO_BIN_EXE_all_figures");

/// Runs `all_figures` from `dir`, writing into `<dir>/<out>`.
fn run(dir: &Scratch, out: &str, args: &[&str]) -> Output {
    Command::new(ALL_FIGURES)
        .args(args)
        .args(["--out", dir.join(out).to_str().unwrap()])
        .current_dir(&dir.0)
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
fn each_entry_run_alone_writes_exactly_its_artifacts_byte_equal_to_the_whole_catalog() {
    let dir = Scratch::new("artifacts");
    let mut every = BTreeSet::new();
    for e in catalog() {
        let out = run(&dir, e.id, &[e.id, "--quick"]);
        assert!(out.status.success(), "{}: {}", e.id, stderr(&out));
        let declared: BTreeSet<String> = e.artifacts.iter().map(|a| a.to_string()).collect();
        assert_eq!(files(&dir, e.id), declared, "{}", e.id);
        for name in &declared {
            let generator = format!("# generator: {}\n", e.id);
            assert!(
                read(&dir, e.id, name).starts_with(&generator),
                "{name} is not stamped {}",
                e.id
            );
        }
        every.extend(declared.into_iter().map(|a| (e.id, a)));
    }
    let out = run(&dir, "all", &["--quick"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(files(&dir, "all"), every.iter().map(|(_, a)| a.clone()).collect());
    for (id, name) in &every {
        assert!(read(&dir, "all", name) == read(&dir, id, name), "{name} differs");
    }
}

#[test]
fn entries_and_flags_all_figures_will_not_run_exit_2_with_usage() {
    let dir = Scratch::new("unread");
    let ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
    let lists_ids = format!("the entries are: {}", ids.join(" "));
    let spec_only = "does not read --benchmark unless exactly one spec entry \
                     (fig04, fig07, pchase_interference) is named";
    let param_only = spec_only.replace("--benchmark", "--param");
    let cases: [(&[&str], &str); 11] = [
        (&["garbage"], "\"garbage\" is not a catalog entry"),
        (&["fig03", "fig03"], "\"fig03\" is named twice"),
        (&["--store", "/tmp/x"], "does not read --store"),
        (&["--shards", "2"], "does not read --shards"),
        (&["fig04", "--shards", "2"], "does not read --shards"),
        (&["--benchmark", "x.toml"], spec_only),
        (&["--param", "n_sizes=30"], &param_only),
        (&["fig04", "fig07", "--param", "n_sizes=30"], &param_only),
        (&["fig04", "fig07", "--benchmark", "x.toml"], spec_only),
        (&["fig03", "--benchmark", "x.toml"], spec_only),
        (&["fig03", "--param", "a=b"], &param_only),
    ];
    for (args, expected) in cases {
        let result = run(&dir, "out", args);
        assert_eq!(result.status.code(), Some(2), "{args:?}");
        let err = stderr(&result);
        let (complaint, usage) = err.split_once("usage:").expect("usage on stderr");
        assert!(complaint.contains(expected), "{args:?}: {err}");
        if expected.starts_with('"') {
            assert!(complaint.contains(&lists_ids), "{args:?} does not list the ids: {err}");
        }
        assert!(usage.contains("[ENTRY ...]"), "{err}");
        for flag in ["--shards", "--store"] {
            assert!(!usage.contains(flag), "the usage lists {flag}, which all_figures never reads");
        }
        assert!(files(&dir, "out").is_empty(), "{args:?} wrote artifacts");
    }
}

#[test]
fn a_failed_fit_exits_3_naming_the_experiment_and_seed() {
    let dir = Scratch::new("fit");
    for args in [&["--quick", "--seed", "3"][..], &["fig04", "--quick", "--seed", "3"]] {
        let result = run(&dir, "out", args);
        let err = stderr(&result);
        assert_eq!(result.status.code(), Some(3), "{args:?}: {err}");
        assert!(
            err.contains("fig04 (seed 3): analysis failed") && !err.contains("panicked"),
            "{err}"
        );
    }
}

#[test]
fn a_failed_fit_names_the_op_and_the_segment() {
    // The biased-sizes pitfall in our own harness: a few log-uniform
    // sizes leave the detached regime with too few distinct sizes to fit.
    let dir = Scratch::new("segment");
    for (seed, cause) in [
        ("3", "with 0 distinct x: need at least 2 observations, got 0"),
        ("6", "with 1 distinct x: all predictor values identical"),
    ] {
        let result = run(&dir, "out", &["fig04", "--quick", "--seed", seed]);
        let err = stderr(&result);
        assert_eq!(result.status.code(), Some(3), "seed {seed}: {err}");
        let named = format!("analysis failed: async_send: segment 1 [32768, 131072) {cause}");
        assert!(err.contains(&named), "seed {seed}: {err}");
    }
}

#[test]
fn a_failed_convolution_fit_exits_3_instead_of_panicking() {
    // At seed 9 the white-box network model's fit meets a degenerate
    // predictor; the convolution entry reports it like any failed fit.
    let dir = Scratch::new("convolution");
    for args in [&["--seed", "9"][..], &["convolution", "--seed", "9"]] {
        let result = run(&dir, "out", args);
        let err = stderr(&result);
        assert_eq!(result.status.code(), Some(3), "{args:?}: {err}");
        assert!(
            err.contains("convolution (seed 9): analysis failed") && !err.contains("panicked"),
            "{err}"
        );
    }
}

#[test]
fn an_unwritable_results_directory_exits_3_naming_it() {
    // `--out` names a regular file, so the results directory cannot be
    // created there.
    let dir = Scratch::new("unwritable");
    let file = dir.write("occupied", "");
    for args in [&["fig13"][..], &["--quick"]] {
        let result = run(&dir, "occupied", args);
        let err = stderr(&result);
        assert_eq!(result.status.code(), Some(3), "{args:?}: {err}");
        assert!(
            err.contains(&format!("cannot write {file}: ")) && !err.contains("panicked"),
            "{err}"
        );
    }
}

#[test]
fn fig04_needs_no_benchmarks_directory() {
    // The scratch directory has no benchmarks/: the design is embedded.
    let dir = Scratch::new("cwd");
    let result = run(&dir, "out", &["fig04"]);
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
    let result = run(&dir, "out", &["pchase_interference", "--benchmark", &file]);
    assert!(result.status.success(), "{}", stderr(&result));
    let csv = read(&dir, "out", "pchase_interference.csv");
    assert!(csv.contains("l1_resident_8KiB") && !csv.contains("dram_bound_8MiB"), "{csv}");

    let file = dir.write("bad.toml", "[benchmark\n");
    let result = run(&dir, "bad", &["fig07", "--benchmark", &file, "--seed", "4"]);
    assert_eq!(result.status.code(), Some(2));
    assert!(stderr(&result).contains("fig07 (seed 4): bad benchmark spec"), "{}", stderr(&result));
    let result = run(&dir, "bad", &["fig07", "--param", "reps=2"]);
    assert_eq!(result.status.code(), Some(2));
    assert!(stderr(&result).contains("declared: repetitions"), "{}", stderr(&result));
}

#[test]
fn fig10_obs_jsonl_goes_through_the_round_trip_check() {
    let dir = Scratch::new("obs");
    let result = run(&dir, "out", &["fig10", "--quick", "--obs-jsonl"]);
    assert!(result.status.success(), "{}", stderr(&result));
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("verified fig10_obs.jsonl"), "{stdout}");
    let text = read(&dir, "out", "fig10_obs.jsonl");
    assert_eq!(charm_obs::CampaignReport::from_jsonl(&text).unwrap().to_jsonl(), text);
    let csv = read(&dir, "out", "fig10.csv");
    assert!(csv.starts_with("# generator: fig10\n# seed: 20170529\n# observed: true\n"), "{csv}");
}

#[test]
fn a_pchase_working_set_larger_than_the_page_pool_exits_3_naming_buffer_bytes() {
    // The arm's page pool is 2 MiB: its two threads' 8 MiB buffers cannot
    // be placed.
    let dir = Scratch::new("pchase_pool");
    let spec = charm_core::experiments::pchase::SPEC.replace("cpu = \"i7\"", "cpu = \"arm\"");
    let file = dir.write("arm.toml", &spec);
    let result = run(&dir, "out", &["pchase_interference", "--benchmark", &file]);
    let err = stderr(&result);
    assert_eq!(result.status.code(), Some(3), "{err}");
    assert!(err.contains("pchase_interference (seed 20170529): measurement failed"), "{err}");
    assert!(err.contains("\"buffer_bytes\"") && !err.contains("panicked"), "{err}");
    assert!(files(&dir, "out").is_empty(), "a failed sweep wrote artifacts");
}

#[test]
fn more_fig04_sizes_than_its_range_holds_exit_2() {
    let dir = Scratch::new("n_sizes");
    let result = run(&dir, "out", &["fig04", "--param", "n_sizes=100000000"]);
    let err = stderr(&result);
    assert_eq!(result.status.code(), Some(2), "{err}");
    assert!(err.contains("fig04 (seed 20170529): bad benchmark spec"), "{err}");
    assert!(err.contains("[factors.size]") && !err.contains("panicked"), "{err}");
}

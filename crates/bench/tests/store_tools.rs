//! The read-only store tools refuse a path that is not a store: each
//! exits 2 with `cannot open store: …` and creates nothing there. On a
//! real store, `store_report`'s exit status is its verdict: 1 when a
//! run is statistically slower than its group's best, 0 otherwise.

mod common;

use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::Factor;
use charm_engine::target::NetworkTarget;
use charm_engine::Campaign;
use charm_simnet::presets;
use charm_store::{CampaignKey, Store};
use common::Scratch;
use std::process::Command;

/// A well-formed run ID, so `store_diff` gets as far as opening the store.
const RUN: &str = "0123456789abcdef0123456789abcdef";

/// A store path for each tool, with the arguments after it.
const TOOLS: [(&str, &str, &[&str]); 4] = [
    ("ls", env!("CARGO_BIN_EXE_store_ls"), &[]),
    ("ls_gc", env!("CARGO_BIN_EXE_store_ls"), &["--gc"]),
    ("diff", env!("CARGO_BIN_EXE_store_diff"), &[RUN, RUN]),
    ("report", env!("CARGO_BIN_EXE_store_report"), &[]),
];

#[test]
fn a_mistyped_store_path_exits_2_and_is_not_created() {
    let dir = Scratch::new("typo");
    for (tag, bin, rest) in TOOLS {
        let typo = dir.join(&format!("typo_store_{tag}"));
        let out = Command::new(bin).arg(&typo).args(rest).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(stderr.starts_with("cannot open store: "), "{tag}: {stderr}");
        assert!(!typo.exists(), "{tag} created {}", typo.display());
    }
}

#[test]
fn a_plain_directory_or_file_is_not_a_store() {
    let dir = Scratch::new("not_a_store");
    std::fs::create_dir(dir.join("plain")).unwrap();
    let file = dir.write("file", "");
    for path in [dir.join("plain"), file.into()] {
        for (tag, bin, rest) in TOOLS {
            let out = Command::new(bin).arg(&path).args(rest).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{tag} {}: {stderr}", path.display());
            assert!(!path.join("runs").exists(), "{tag} created runs/ in {}", path.display());
        }
    }
    assert_eq!(std::fs::read_to_string(dir.join("file")).unwrap(), "", "a tool wrote the file");
}

#[test]
fn an_empty_store_still_lists() {
    let dir = Scratch::new("empty");
    std::fs::create_dir(dir.join("runs")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_store_ls")).arg(&dir.0).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "no archived runs\n");
}

/// Runs a small network plan on the taurus preset noised by `seed`,
/// scales every measurement by `scale` and archives the result under
/// the declared seed `key_seed`; returns the run ID.
fn archive(store: &Store, seed: u64, key_seed: u64, scale: f64) -> String {
    let plan: ExperimentPlan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
        .factor(Factor::new("size", vec![64i64, 4096]))
        .replicates(8)
        .build();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let identity = charm_store::target_identity(&target);
    let mut data = Campaign::new(&plan, target).seed(seed).run().unwrap().data;
    for r in &mut data.records {
        r.value *= scale;
    }
    let key = CampaignKey::of(&plan, &identity, Some(key_seed), 1);
    store.put_run(&key, "fleet", "store tools test", &data, None).unwrap().to_string()
}

#[test]
fn store_report_exits_1_naming_a_statistically_slower_run() {
    let dir = Scratch::new("slower");
    let store = Store::open(dir.join("store")).unwrap();
    let fast = archive(&store, 51, 51, 1.0);
    // The same measurements, every one 4x worse.
    let slow = archive(&store, 51, 52, 4.0);
    let out = Command::new(env!("CARGO_BIN_EXE_store_report"))
        .arg(dir.join("store"))
        .arg("--out")
        .arg(dir.join("report"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let named: Vec<&str> = stderr.lines().filter(|l| l.starts_with("slower than")).collect();
    assert_eq!(named.len(), 1, "{stderr}");
    assert!(
        named[0].contains(&format!("· fleet · run {slow} · ratio 0.2500 · 95% CI [")),
        "{stderr}"
    );
    assert!(!stderr.contains(&fast), "{stderr}");
    // The report is rendered and written before the verdict.
    let md = std::fs::read_to_string(dir.join("report").join("report.md")).unwrap();
    assert_eq!(md, String::from_utf8_lossy(&out.stdout));
    let csv = std::fs::read_to_string(dir.join("report").join("report.csv")).unwrap();
    let verdicts: Vec<&str> = csv.lines().skip(1).map(|l| l.rsplit(',').next().unwrap()).collect();
    assert_eq!(verdicts, ["best", "slower"]);
}

#[test]
fn store_report_exits_0_on_same_distribution_runs() {
    let dir = Scratch::new("same");
    let store = Store::open(dir.join("store")).unwrap();
    // Two noise seeds of one plan and preset: draws from one distribution.
    archive(&store, 1, 1, 1.0);
    archive(&store, 3, 3, 1.0);
    let out =
        Command::new(env!("CARGO_BIN_EXE_store_report")).arg(dir.join("store")).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("| indistinguishable |"));
    assert!(!stderr.contains("slower"), "{stderr}");
}

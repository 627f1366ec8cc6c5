//! `bench_engine_gate` end to end: each exit code the gate documents,
//! driven through the binary on report files in a scratch directory.

use charm_trace::bench::EngineBench;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The committed baseline CI gates against.
const BASELINE: &str = include_str!("../../../results/BENCH_engine.json");

/// Scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let p = std::env::temp_dir()
            .join(format!("charm_bench_engine_gate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }

    /// Writes `text` to `name` in the directory and returns its path.
    fn write(&self, name: &str, text: &str) -> String {
        let p = self.0.join(name);
        std::fs::write(&p, text).unwrap();
        p.to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the gate on `candidate` against `baseline` with
/// `CHARM_GATE_FLOOR_S` set to `floor` (unset when `None`).
fn gate(candidate: &str, baseline: &str, floor: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_engine_gate"));
    cmd.args([candidate, baseline]).env_remove("CHARM_GATE_FLOOR_S");
    if let Some(f) = floor {
        cmd.env("CHARM_GATE_FLOOR_S", f);
    }
    cmd.output().unwrap()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("the gate exits, it is not killed")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn baseline() -> EngineBench {
    EngineBench::from_json(BASELINE).expect("the committed baseline parses")
}

#[test]
fn the_committed_baseline_passes_against_itself() {
    let dir = Scratch::new("self");
    let base = dir.write("baseline.json", BASELINE);
    let out = gate(&base, &base, None);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("regression gate passed"));
}

#[test]
fn a_slower_memory_campaign_regresses() {
    let dir = Scratch::new("slow");
    let base = baseline();
    let seq = base.metrics["engine.mem.sequential_s"];
    let slow = base.metric("engine.mem.sequential_s", seq * 1.3);
    let cand = dir.write("candidate.json", &slow.to_json());
    let out = gate(&cand, &dir.write("baseline.json", BASELINE), None);
    assert_eq!(exit_code(&out), 1, "{}", stderr(&out));
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = table.lines().find(|l| l.starts_with("engine.mem.sequential_s")).unwrap();
    assert!(line.contains("REGRESSED"), "{line}");
}

#[test]
fn a_config_mismatch_is_not_comparable() {
    let dir = Scratch::new("config");
    let other = baseline().config("rows", 900);
    let out = gate(
        &dir.write("candidate.json", &other.to_json()),
        &dir.write("baseline.json", BASELINE),
        None,
    );
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("rows"), "{}", stderr(&out));
}

#[test]
fn a_malformed_noise_floor_fails_closed() {
    let dir = Scratch::new("floor");
    let base = dir.write("baseline.json", BASELINE);
    for floor in ["abc", "", "-0.1", "NaN", "inf"] {
        let out = gate(&base, &base, Some(floor));
        assert_eq!(exit_code(&out), 2, "CHARM_GATE_FLOOR_S={floor:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("CHARM_GATE_FLOOR_S"), "{}", stderr(&out));
    }
    // A well-formed value is honoured, CI's widened floor included.
    assert_eq!(exit_code(&gate(&base, &base, Some("0.05"))), 0);
}

#[test]
fn a_missing_report_asks_for_regeneration() {
    let dir = Scratch::new("missing");
    let base = dir.write("baseline.json", BASELINE);
    let absent = dir.0.join("absent.json");
    let out = gate(absent.to_str().unwrap(), &base, None);
    assert_eq!(exit_code(&out), 3, "{}", stderr(&out));
    assert!(stderr(&out).contains("bench_campaign_summary"), "{}", stderr(&out));
}

#[test]
fn a_retired_campaign_summary_is_a_schema_mismatch() {
    let dir = Scratch::new("schema");
    let stale = BASELINE.replace("charm-bench-engine/1", "charm-bench-campaign/1");
    assert_ne!(stale, BASELINE);
    let out = gate(&dir.write("stale.json", &stale), &dir.write("baseline.json", BASELINE), None);
    assert_eq!(exit_code(&out), 4, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("charm-bench-campaign/1") && err.contains("regenerate"), "{err}");
}

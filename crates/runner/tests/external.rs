//! Integration tests for [`charm_runner::ExternalTarget`] against the
//! real `klv_engine_demo` subprocess — including its misbehaving modes
//! (hang, garbage frames, error frames, nonzero exit), which must all
//! surface as the *typed* `TargetError` variant the taxonomy promises.

use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::registry::ExternalEngineSpec;
use charm_engine::target::{Assignment, Target, TargetError};
use charm_engine::Campaign;
use charm_runner::ExternalTarget;

/// Spec pointing at the compiled demo engine. Short timeout so the
/// hang test finishes in ~1 s instead of the 10 s default.
fn demo_spec(mode: &str, timeout_ms: u64) -> ExternalEngineSpec {
    ExternalEngineSpec {
        program: env!("CARGO_BIN_EXE_klv_engine_demo").to_string(),
        args: vec!["--seed".into(), "9".into(), "--mode".into(), mode.into()],
        timeout_ms,
        label: "klv-demo".into(),
    }
}

fn small_plan() -> charm_design::ExperimentPlan {
    FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
        .factor(Factor::new("size", vec![64i64, 4096]))
        .replicates(2)
        .build()
}

#[test]
fn end_to_end_campaign_over_a_subprocess() {
    let target = ExternalTarget::spawn(demo_spec("well-behaved", 10_000)).unwrap();
    // handshake ran eagerly: metadata answers without touching the wire
    let md = target.metadata();
    let get = |k: &str| md.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
    assert_eq!(get("target_kind"), Some("external"));
    assert_eq!(get("engine_name"), Some("klv-demo"));
    assert_eq!(get("engine.seed"), Some("9"));
    assert_eq!(get("klv_protocol"), Some("charm-klv/1"));

    let plan = small_plan();
    let run = Campaign::new(&plan, target).run().unwrap();
    assert_eq!(run.data.records.len(), 8);
    assert!(run.data.records.iter().all(|r| r.value > 0.0));
    // same spec + seed reproduces the campaign bit-for-bit
    let target2 = ExternalTarget::spawn(demo_spec("well-behaved", 10_000)).unwrap();
    let run2 = Campaign::new(&plan, target2).run().unwrap();
    assert_eq!(run.data.records, run2.data.records);
}

#[test]
fn diagnostics_count_frames_and_engine_counters() {
    let plan = small_plan();
    let mut target = ExternalTarget::spawn(demo_spec("well-behaved", 10_000)).unwrap();
    for row in plan.rows() {
        target.measure(&Assignment::new(&plan, row)).unwrap();
    }
    let diag: std::collections::BTreeMap<String, u64> = target.diagnostics().into_iter().collect();
    // 1 hello + 8 measures sent; 5 handshake + 8×(diagnostic+observation) received
    assert_eq!(diag["runner.frames_sent"], 9);
    assert_eq!(diag["runner.frames_received"], 21);
    assert_eq!(diag["runner.timeouts"], 0);
    assert_eq!(diag["runner.restarts"], 0);
    assert_eq!(diag["runner.engine.demo.measured"], 8);
}

#[test]
fn hanging_engine_is_killed_and_reported_as_timeout() {
    let plan = small_plan();
    let mut target = ExternalTarget::spawn(demo_spec("hang", 300)).unwrap();
    let err = target.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap_err();
    assert_eq!(err, TargetError::Timeout { phase: "measure".into(), timeout_ms: 300 });
    let diag: std::collections::BTreeMap<String, u64> = target.diagnostics().into_iter().collect();
    assert_eq!(diag["runner.timeouts"], 1);
    // the child is gone: the next measure respawns (counted) and hangs again
    let err = target.measure(&Assignment::new(&plan, &plan.rows()[1])).unwrap_err();
    assert!(matches!(err, TargetError::Timeout { .. }));
    let diag: std::collections::BTreeMap<String, u64> = target.diagnostics().into_iter().collect();
    assert_eq!(diag["runner.restarts"], 1);
}

#[test]
fn garbage_frames_are_a_typed_protocol_error() {
    let plan = small_plan();
    let mut target = ExternalTarget::spawn(demo_spec("garbage", 2_000)).unwrap();
    let err = target.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap_err();
    match err {
        TargetError::Protocol { detail } => {
            assert!(detail.contains("measure"), "detail: {detail}")
        }
        other => panic!("expected Protocol, got {other}"),
    }
}

#[test]
fn engine_error_frames_are_a_typed_protocol_error() {
    let plan = small_plan();
    let mut target = ExternalTarget::spawn(demo_spec("error-frame", 2_000)).unwrap();
    let err = target.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap_err();
    match err {
        TargetError::Protocol { detail } => {
            assert!(detail.contains("induced measurement failure"), "detail: {detail}")
        }
        other => panic!("expected Protocol, got {other}"),
    }
}

#[test]
fn nonzero_exit_is_engine_failed_with_captured_stderr() {
    // the demo exits 7 before completing the handshake, so spawn fails
    let err = ExternalTarget::spawn(demo_spec("fail-exit-7", 2_000)).unwrap_err();
    match err {
        TargetError::EngineFailed { exit_code, stderr } => {
            assert_eq!(exit_code, Some(7));
            assert!(stderr.contains("induced failure"), "stderr: {stderr}");
        }
        other => panic!("expected EngineFailed, got {other}"),
    }
}

#[test]
fn missing_binary_is_engine_failed() {
    let spec = ExternalEngineSpec {
        program: "/nonexistent/engine/binary".into(),
        args: vec![],
        timeout_ms: 1_000,
        label: "ghost".into(),
    };
    let err = ExternalTarget::spawn(spec).unwrap_err();
    match err {
        TargetError::EngineFailed { exit_code: None, stderr } => {
            assert!(stderr.contains("failed to spawn"), "stderr: {stderr}")
        }
        other => panic!("expected EngineFailed, got {other}"),
    }
}

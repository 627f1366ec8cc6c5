//! Fleet-report behavior through a real on-disk store: deterministic
//! byte-identical rendering, invariance under archive insertion order,
//! statistically sound self-comparison, query filtering, and a CSV
//! whose rows mirror the typed report.

use charm_analysis::speedup::{SpeedupConfig, MAX_REPS};
use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::Factor;
use charm_engine::target::NetworkTarget;
use charm_engine::{Campaign, CampaignData};
use charm_simnet::presets;
use charm_store::report::CSV_HEADER;
use charm_store::{build_report, CampaignKey, RunQuery, Store, StoreError, VsBest};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("charm-store-report-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn plan() -> ExperimentPlan {
    FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
        .factor(Factor::new("size", vec![64i64, 4096]))
        .replicates(8)
        .build()
}

/// Runs the shared plan against the taurus preset noised by `seed`.
fn run(plan: &ExperimentPlan, seed: u64) -> (String, CampaignData) {
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let identity = charm_store::target_identity(&target);
    let data = Campaign::new(plan, target).seed(seed).run().unwrap().data;
    (identity, data)
}

fn archive(store: &Store, plan: &ExperimentPlan, benchmark: &str, seed: u64) -> String {
    let (identity, data) = run(plan, seed);
    let key = CampaignKey::of(plan, &identity, Some(seed), 1);
    store.put_run(&key, benchmark, "report test", &data, None).unwrap().to_string()
}

fn cfg() -> SpeedupConfig {
    SpeedupConfig { reps: 400, level: 0.95, seed: 7 }
}

#[test]
fn self_comparison_is_always_indistinguishable_with_a_degenerate_unity_ci() {
    let dir = scratch("identical");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    // The literal self-comparison: one campaign's bytes archived under
    // two keys (the store keys by caller-declared seed, so this models
    // a re-run that happened to reproduce identical measurements). The
    // point estimate is exactly 1.0 — both sides share their medians —
    // and the bootstrap ratios are exchangeable around 1.0, so the
    // interval straddles unity and the verdict is indistinguishable.
    let (identity, data) = run(&plan, 61);
    for declared_seed in [61, 62] {
        let key = CampaignKey::of(&plan, &identity, Some(declared_seed), 1);
        store.put_run(&key, "fig04", "", &data, None).unwrap();
    }
    let report = build_report(&store, &RunQuery::default(), &cfg()).unwrap();
    assert_eq!(report.groups.len(), 1);
    let group = &report.groups[0];
    assert_eq!(group.runs.len(), 2);
    match &group.runs[1].vs_best {
        VsBest::Ci { ci, verdict, .. } => {
            assert_eq!(ci.estimate, 1.0, "identical medians give a unity estimate");
            assert!(ci.lo <= 1.0 && 1.0 <= ci.hi, "interval straddles unity: {ci:?}");
            assert_eq!(verdict.as_str(), "indistinguishable");
        }
        other => panic!("expected a CI comparison, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_distribution_reruns_are_indistinguishable_with_unity_ci() {
    let dir = scratch("selfcmp");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    // Same plan, same preset, different noise seeds: two draws from the
    // same distribution. A sound speedup test must refuse to call
    // either one faster. (Any single pair can land in the interval's
    // 5% tail by construction; this pair is a verified representative
    // and is deterministic, so the assertion is stable.)
    archive(&store, &plan, "fig04", 1);
    archive(&store, &plan, "fig04", 3);

    let report = build_report(&store, &RunQuery::default(), &cfg()).unwrap();
    assert_eq!(report.groups.len(), 1, "one (target, benchmark, host) group");
    let group = &report.groups[0];
    assert_eq!(group.runs.len(), 2);
    assert_eq!(group.runs[0].rank, 1);
    assert!(matches!(group.runs[0].vs_best, VsBest::Best));
    match &group.runs[1].vs_best {
        VsBest::Ci { ci, verdict, shared_cells, .. } => {
            assert!(ci.lo <= 1.0 && 1.0 <= ci.hi, "CI must contain 1.0: {ci:?}");
            assert_eq!(verdict.as_str(), "indistinguishable");
            assert_eq!(*shared_cells, 4, "all design cells shared");
        }
        other => panic!("expected a CI comparison, got {other:?}"),
    }

    let md = report.render_markdown();
    assert!(md.contains("| rank |"), "ranked table present:\n{md}");
    assert!(md.contains("CI lo") && md.contains("CI hi"), "CI columns present");
    assert!(md.contains("indistinguishable"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slower_verdicts_name_the_driving_cells_in_markdown() {
    let dir = scratch("drilldown");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    // One real run, and a synthetic rerun with every measurement 4x
    // worse — unambiguously slower in every cell, so the drill-down
    // must name all of them.
    let (identity, fast) = run(&plan, 51);
    let mut slow = fast.clone();
    for r in &mut slow.records {
        r.value *= 4.0;
    }
    let fast_key = CampaignKey::of(&plan, &identity, Some(51), 1);
    let slow_key = CampaignKey::of(&plan, &identity, Some(52), 1);
    store.put_run(&fast_key, "fig04", "", &fast, None).unwrap();
    store.put_run(&slow_key, "fig04", "", &slow, None).unwrap();

    let report = build_report(&store, &RunQuery::default(), &cfg()).unwrap();
    assert_eq!(report.groups.len(), 1);
    let group = &report.groups[0];
    match &group.runs[1].vs_best {
        VsBest::Ci { verdict, slower_cells, shared_cells, .. } => {
            assert_eq!(verdict.as_str(), "slower");
            assert_eq!(*shared_cells, 4);
            assert_eq!(slower_cells.len(), 4, "every cell is decisively 4x slower");
            assert!(slower_cells.iter().all(|c| c.ci.hi < 1.0), "{slower_cells:?}");
            // Sorted by cell name — part of the determinism contract.
            let names: Vec<&str> = slower_cells.iter().map(|c| c.name.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted);
        }
        other => panic!("expected a slower CI comparison, got {other:?}"),
    }

    let md = report.render_markdown();
    assert!(md.contains("drove it"), "drill-down section present:\n{md}");
    assert!(md.contains("- `op=ping_pong,size=64`:"), "cells named:\n{md}");
    assert!(md.contains("- `op=async_send,size=4096`:"), "cells named:\n{md}");

    // The CSV carries the same verdicts, one row per ranked run.
    assert_eq!(verdict_column(&report.render_csv()), ["best", "slower"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_bytes_are_invariant_under_insertion_order() {
    let plan = plan();
    let dir_fwd = scratch("order-fwd");
    let dir_rev = scratch("order-rev");
    let fwd = Store::open(&dir_fwd).unwrap();
    let rev = Store::open(&dir_rev).unwrap();
    for seed in [11, 12, 13] {
        archive(&fwd, &plan, "fig04", seed);
    }
    for seed in [13, 12, 11] {
        archive(&rev, &plan, "fig04", seed);
    }
    let report_fwd = build_report(&fwd, &RunQuery::default(), &cfg()).unwrap();
    let report_rev = build_report(&rev, &RunQuery::default(), &cfg()).unwrap();
    assert_eq!(report_fwd.render_markdown(), report_rev.render_markdown());
    assert_eq!(report_fwd.render_csv(), report_rev.render_csv());
    // And rendering twice from one report is trivially byte-identical.
    assert_eq!(report_fwd.render_markdown(), report_fwd.render_markdown());
    std::fs::remove_dir_all(&dir_fwd).ok();
    std::fs::remove_dir_all(&dir_rev).ok();
}

#[test]
fn different_benchmarks_never_share_a_group() {
    let dir = scratch("groups");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    archive(&store, &plan, "figA", 21);
    archive(&store, &plan, "figB", 22);
    let report = build_report(&store, &RunQuery::default(), &cfg()).unwrap();
    assert_eq!(report.groups.len(), 2);
    assert!(report.groups.iter().all(|g| g.runs.len() == 1));
    assert!(report.groups.iter().all(|g| matches!(g.runs[0].vs_best, VsBest::Best)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_filter_by_benchmark_target_and_plan_hash() {
    let dir = scratch("query");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    archive(&store, &plan, "figA", 31);
    archive(&store, &plan, "figB", 32);

    let by_bench = RunQuery { benchmark: Some("figA".to_string()), ..Default::default() };
    assert_eq!(store.select(&by_bench).unwrap().len(), 1);
    assert_eq!(store.select(&by_bench).unwrap()[0].benchmark, "figA");

    // Prefix match on target identity: the bare platform name selects
    // both, a non-matching prefix selects none.
    let by_target = RunQuery { target: Some("taurus".to_string()), ..Default::default() };
    assert_eq!(store.select(&by_target).unwrap().len(), 2);
    let no_target = RunQuery { target: Some("myrinet".to_string()), ..Default::default() };
    assert!(store.select(&no_target).unwrap().is_empty());

    // Prefix match on plan hash, as printed truncated by the CLI.
    let full_hash = store.list().unwrap()[0].plan_hash.clone();
    let by_hash = RunQuery { plan_hash: Some(full_hash[..12].to_string()), ..Default::default() };
    assert_eq!(store.select(&by_hash).unwrap().len(), 2, "both runs share the plan");

    // A filtered report only covers the selected runs.
    let report = build_report(&store, &by_bench, &cfg()).unwrap();
    assert_eq!(report.runs, 1);
    assert_eq!(report.groups.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bad_speedup_config_fails_before_any_run_is_loaded() {
    let dir = scratch("badcfg");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    archive(&store, &plan, "fig04", 71);
    let id = archive(&store, &plan, "fig04", 72);
    // Corrupt one run: loading it fails the report with `Tampered`, so
    // an `Analysis` error proves the config was checked first.
    let records = dir.join("runs").join(&id).join("records.csv");
    let mut bytes = std::fs::read(&records).unwrap();
    let pos = bytes.len() / 2;
    bytes[pos] ^= 0x01;
    std::fs::write(&records, &bytes).unwrap();
    assert!(matches!(
        build_report(&store, &RunQuery::default(), &cfg()),
        Err(StoreError::Tampered { .. })
    ));
    for bad in [
        SpeedupConfig { reps: 5, ..cfg() },
        SpeedupConfig { reps: usize::MAX, ..cfg() },
        SpeedupConfig { reps: MAX_REPS + 1, ..cfg() },
        SpeedupConfig { level: 1.5, ..cfg() },
        SpeedupConfig { level: f64::NAN, ..cfg() },
    ] {
        match build_report(&store, &RunQuery::default(), &bad) {
            Err(StoreError::Analysis { message }) => {
                assert!(message.contains("reps") || message.contains("level"), "{message}")
            }
            other => panic!("{bad:?}: expected an Analysis error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn csv_rows_mirror_the_typed_report() {
    let dir = scratch("csv");
    let store = Store::open(&dir).unwrap();
    let plan = plan();
    archive(&store, &plan, "fig04", 41);
    archive(&store, &plan, "fig04", 42);
    let report = build_report(&store, &RunQuery::default(), &cfg()).unwrap();
    let group = &report.groups[0];
    assert_eq!(group.key.benchmark, "fig04");
    assert!(matches!(group.runs[0].vs_best, VsBest::Best));
    let VsBest::Ci { ci, verdict, .. } = &group.runs[1].vs_best else {
        panic!("rank-2 run carries a CI: {:?}", group.runs[1].vs_best);
    };
    assert!(ci.lo <= ci.hi);

    let csv = report.render_csv();
    assert_eq!(verdict_column(&csv), ["best", verdict.as_str()]);
    let rows: Vec<Vec<&str>> = csv.lines().skip(1).map(|l| l.split(',').collect()).collect();
    for (row, run) in rows.iter().zip(&group.runs) {
        assert_eq!(row.len(), CSV_HEADER.split(',').count(), "{row:?}");
        let rank = run.rank.to_string();
        let key = [group.key.target.as_str(), "fig04", &group.key.host, &rank, &run.run_id];
        assert_eq!(row[..5], key);
    }
    // The best row leaves the comparison columns empty; the compared
    // row prints its interval.
    assert_eq!(rows[0][10..14], ["", "", "", ""]);
    assert_eq!(rows[1][11..13], [format!("{:.6}", ci.lo), format!("{:.6}", ci.hi)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The last column of every CSV row, after checking the header.
fn verdict_column(csv: &str) -> Vec<&str> {
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(CSV_HEADER));
    lines.map(|line| line.rsplit(',').next().unwrap()).collect()
}

//! End-to-end observability guarantees through the facade crate:
//! attaching an observer never changes the retained records, counter
//! totals are shard-count-invariant, the JSONL export round-trips, and
//! the analysis process counters tally real work.

use charm::design::doe::FullFactorial;
use charm::design::Factor;
use charm::engine::target::{MemoryTarget, NetworkTarget, ParallelTarget};
use charm::engine::Campaign;
use charm::obs::{CampaignReport, Observer};
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;
use charm::simnet::presets;

const SEED: u64 = 20170529;

fn memory_target(seed: u64) -> MemoryTarget {
    MemoryTarget::new(
        "opteron",
        MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        ),
    )
}

fn memory_plan(seed: u64) -> charm::design::plan::ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", vec![8192i64, 65536, 1 << 20]))
        .factor(Factor::new("nloops", vec![20i64]))
        .replicates(6)
        .build();
    plan.shuffle(seed);
    plan
}

#[test]
fn observed_records_are_bit_identical_at_every_shard_count() {
    let plan = memory_plan(SEED);
    let base = memory_target(SEED);
    let plain = Campaign::new(&plan, base.fork(base.stream_seed())).seed(SEED).run().unwrap().data;
    for shards in [1usize, 2, 3] {
        let observed = Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(SEED)
            .observer(Observer::default())
            .run()
            .unwrap();
        assert_eq!(plain.records.len(), observed.data.records.len());
        for (a, b) in plain.records.iter().zip(&observed.data.records) {
            assert_eq!(a.levels, b.levels);
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "value changed under observation");
            if shards == 1 {
                assert_eq!(a.start_us.to_bits(), b.start_us.to_bits(), "clock changed");
            } else {
                // reconstructed per-shard clock: float rounding of the
                // offset sums allows ulp-level wobble (DESIGN.md §9)
                let tol = 1e-9 * a.start_us.abs().max(1.0);
                assert!((a.start_us - b.start_us).abs() <= tol, "clock drifted beyond rounding");
            }
        }
    }
}

#[test]
fn counters_and_provenance_survive_the_jsonl_round_trip() {
    let plan = memory_plan(SEED);
    let base = memory_target(SEED);
    let run = Campaign::new(&plan, base.fork(base.stream_seed()))
        .shards(2)
        .seed(SEED)
        .observer(Observer::default())
        .run()
        .unwrap();
    let report = run.report.expect("observer attached");
    assert_eq!(report.counters.get("engine.rows"), plan.len() as u64);
    assert_eq!(report.counters.get("simmem.measurements"), plan.len() as u64);
    assert!(report.counters.get("simmem.cache.l1.hits") > 0);
    // every retained record has exactly one provenance event
    for r in &run.data.records {
        let trail = report.provenance_for(r.sequence);
        assert_eq!(trail.len(), 1, "record {} lost its trace", r.sequence);
        assert_eq!(trail[0].t_us.to_bits(), r.start_us.to_bits());
    }
    let back = CampaignReport::from_jsonl(&report.to_jsonl()).expect("parses");
    assert_eq!(back, report);
}

#[test]
fn network_counters_are_shard_count_invariant() {
    let sizes: Vec<i64> = (1..=12).map(|i| i * 1024).collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
        .factor(Factor::new("size", sizes))
        .replicates(4)
        .build();
    plan.shuffle(SEED);
    let base = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(SEED));
    let reference = Campaign::new(&plan, base.fork(base.stream_seed()))
        .seed(SEED)
        .observer(Observer::default())
        .run()
        .unwrap()
        .report
        .unwrap();
    for shards in [2usize, 3, 5] {
        let report = Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(SEED)
            .observer(Observer::default())
            .run()
            .unwrap()
            .report
            .unwrap();
        assert_eq!(report.counters, reference.counters, "{shards} shards drifted");
        assert_eq!(report.events.len(), reference.events.len());
    }
}

#[test]
fn analysis_process_counters_tally_segmentation_work() {
    let xs: Vec<f64> = (0..120).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| if x < 60.0 { 2.0 * x } else { 60.0 + x }).collect();
    charm::obs::process::enable();
    let fit = charm::analysis::segmented::segment(
        &xs,
        &ys,
        &charm::analysis::segmented::SegmentConfig::default(),
    )
    .unwrap();
    let counters = charm::obs::process::take();
    assert!(!fit.breakpoints.is_empty());
    assert_eq!(counters.get("analysis.segment_calls"), 1);
    assert!(counters.get("analysis.sse_evals") > 0);
    // disabled again after take(): further work leaves no trace
    assert!(charm::obs::process::snapshot().is_empty());
}

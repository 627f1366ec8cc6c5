//! Criterion benchmarks of the deterministic parallel campaign engine
//! (the sequential `Campaign` builder vs its sharded form at 1/2/4/8
//! shards) and of the segmentation search (pre-optimization O(j − i)
//! refit DP vs the prefix-sum O(1)-SSE DP). `bench_campaign_summary`
//! produces the machine-readable `BENCH_campaign.json` counterpart.

use charm_analysis::prefix::naive_stretch_sse;
use charm_analysis::segmented::{reference, segment, SegmentConfig};
use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::{sampling, Factor};
use charm_engine::target::{MemoryTarget, NetworkTarget, ParallelTarget};
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

const SEED: u64 = 20170529;

/// A Figure-4-shaped campaign: 3 ops × 40 unique sizes × 50 replicates
/// = 6000 rows, randomized.
fn network_plan() -> ExperimentPlan {
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(8, 1 << 22, 40, SEED)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(50)
        .build()
        .unwrap();
    plan.shuffle(SEED);
    plan
}

/// A Figure-6-shaped campaign: 25 buffer sizes crossing every cache
/// level × 240 replicates = 6000 rows. Per-row cost is dominated by the
/// physical-placement resolve, so this is the campaign shape where
/// sharding pays (the network target's per-row cost is mere nanoseconds
/// and mostly measures the merge overhead).
fn memory_plan() -> ExperimentPlan {
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(16 * 1024, 16 << 20, 25, SEED)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("stride", vec![2i64]))
        .factor(Factor::new("nloops", vec![100i64]))
        .replicates(240)
        .build()
        .unwrap();
    plan.shuffle(SEED);
    plan
}

fn memory_target() -> MemoryTarget {
    MemoryTarget::new(
        "opteron",
        MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            SEED,
        ),
    )
}

fn campaign_engine(c: &mut Criterion) {
    let plan = network_plan();
    let base = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(SEED));
    let mut g = c.benchmark_group("campaign_net_6000");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            // fresh fork per iteration: the sequential runner advances
            // the target's virtual clock
            let target = base.fork(base.stream_seed());
            black_box(charm_engine::Campaign::new(&plan, target).seed(SEED).run().unwrap().data)
        })
    });
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("parallel", shards), &shards, |b, &s| {
            b.iter(|| {
                black_box(
                    charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
                        .shards(s)
                        .seed(SEED)
                        .run()
                        .unwrap()
                        .data,
                )
            })
        });
    }
    g.finish();

    let plan = memory_plan();
    let base = memory_target();
    let mut g = c.benchmark_group("campaign_mem_6000");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let target = base.fork(base.stream_seed());
            black_box(charm_engine::Campaign::new(&plan, target).seed(SEED).run().unwrap().data)
        })
    });
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("parallel", shards), &shards, |b, &s| {
            b.iter(|| {
                black_box(
                    charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
                        .shards(s)
                        .seed(SEED)
                        .run()
                        .unwrap()
                        .data,
                )
            })
        });
    }
    g.finish();
}

/// Three-regime response curve with deterministic noise, sorted by x.
fn piecewise_data(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| {
            let f = x / n as f64;
            let base = if f < 0.3 {
                2.0 * x
            } else if f < 0.7 {
                0.6 * n as f64 + 0.5 * x
            } else {
                0.25 * n as f64 + x
            };
            base + ((x * 12.9898).sin() * 43758.5453).fract() * 8.0
        })
        .collect();
    (xs, ys)
}

/// The pre-optimization segmentation search: the reference DP with an
/// O(j − i) OLS refit per candidate stretch (memoized across segment
/// counts, as the old `stretch_sse` did). Expects x sorted ascending.
fn refit_dp_breakpoints(x: &[f64], y: &[f64], config: &SegmentConfig) -> Vec<f64> {
    let mut memo = HashMap::new();
    reference(x, y, config, |i, j| {
        *memo.entry((i, j)).or_insert_with(|| naive_stretch_sse(x, y, i, j))
    })
    .unwrap()
    .breakpoints
}

fn segmentation(c: &mut Criterion) {
    let config = SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: Some(500.0) };

    // Old vs new at a size the refit DP can still finish in bench time.
    let (xs, ys) = piecewise_data(800);
    let old_breaks = refit_dp_breakpoints(&xs, &ys, &config);
    let new_breaks = segment(&xs, &ys, &config).unwrap().breakpoints;
    assert_eq!(old_breaks, new_breaks, "old and new DP must agree");

    let mut g = c.benchmark_group("segment_800");
    g.sample_size(10);
    g.bench_function("refit_dp", |b| b.iter(|| black_box(refit_dp_breakpoints(&xs, &ys, &config))));
    g.bench_function("prefix_dp", |b| b.iter(|| black_box(segment(&xs, &ys, &config).unwrap())));
    g.finish();

    // The new path at campaign scale (the old one would take minutes
    // per iteration here; bench_campaign_summary times it once).
    let (bx, by) = piecewise_data(6000);
    let mut g = c.benchmark_group("segment_6000");
    g.sample_size(10);
    g.bench_function("prefix_dp", |b| b.iter(|| black_box(segment(&bx, &by, &config).unwrap())));
    g.finish();
}

criterion_group!(benches, campaign_engine, segmentation);
criterion_main!(benches);

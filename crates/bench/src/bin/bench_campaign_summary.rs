//! One-shot wall-clock characterization of the engine and the analysis
//! kernels, written as two schema-versioned reports that
//! `bench_engine_gate` compares against their committed baselines:
//!
//! * `results/BENCH_engine.json` (`charm-bench-engine/1`) — stage
//!   timings, throughput, shard utilization;
//! * `results/BENCH_campaign.json` (`charm-bench-campaign/1`) — the
//!   parallel-campaign summary: shard speedups, per-shard shared
//!   profile-cache hit rates, work-stealing scheduler diagnostics. This
//!   is the report the core-aware absolute checks
//!   (`charm_trace::bench::absolute_failures`) read.
//!
//! ```text
//! bench_campaign_summary [rows] [segment_points] [--quick] [--shards N]
//!                        [--refit-dp]
//! ```
//!
//! Every timing is a **median-of-N** (N = 5): medians rather than
//! minima so a single lucky run cannot mask a regression, per the
//! statistical-speedup methodology in PAPERS.md.
//!
//! * default: 6000 campaign rows and 6000 segmentation points, shard
//!   counts 1/2/4/8;
//! * `--quick`: small plans sized for CI; both reports are still
//!   written;
//! * `--shards N`: time only that shard count (CI uses `--shards 4` so
//!   the numbers do not depend on the runner's core count — the
//!   `cores` metric records the machine shape and the gate downgrades
//!   core-bound metrics when it differs);
//! * `--refit-dp`: also time the O(n³) refit-DP segmentation comparison
//!   (minutes at full size; off by default).

use charm_analysis::bootstrap::mean_ci;
use charm_analysis::changepoint::binary_segmentation;
use charm_analysis::loess::{loess, LoessConfig};
use charm_analysis::prefix::{naive_stretch_sse, PrefixOls};
use charm_analysis::segmented::{reference, segment, SegmentConfig};
use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::{sampling, Factor};
use charm_engine::record::Campaign;
use charm_engine::target::{Assignment, MemoryTarget, NetworkTarget, ParallelTarget, Target};
use charm_obs::Observer;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;
use charm_trace::bench::{EngineBench, CAMPAIGN_SCHEMA};
use std::collections::HashMap;
use std::time::Instant;

fn network_plan(rows_target: usize, seed: u64) -> ExperimentPlan {
    // 3 ops × 40 unique sizes × replicates ≈ rows_target rows
    let reps = (rows_target / 120).max(1) as u32;
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(8, 1 << 22, 40, seed)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(reps)
        .build()
        .unwrap();
    plan.shuffle(seed);
    plan
}

/// Median-of-`n` wall-clock seconds.
fn median_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

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

/// A Figure-6-shaped memory campaign: buffer sizes crossing every cache
/// level, fixed stride/nloops. Per-row cost is dominated by the
/// physical-placement resolve, the campaign shape where sharding pays.
fn memory_plan(rows_target: usize, seed: u64) -> ExperimentPlan {
    let reps = (rows_target / 25).max(1) as u32;
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(16 * 1024, 16 << 20, 25, seed)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("stride", vec![2i64]))
        .factor(Factor::new("nloops", vec![100i64]))
        .replicates(reps)
        .build()
        .unwrap();
    plan.shuffle(seed);
    plan
}

/// Times the sequential runner and each requested shard count on `base`,
/// checking every parallel run reproduces the sequential records.
/// Returns `(sequential_s, parallel_s per shard count)`.
fn time_campaign<T: ParallelTarget>(
    label: &str,
    plan: &ExperimentPlan,
    base: &T,
    shard_counts: &[usize],
    repeats: usize,
) -> (f64, Vec<f64>) {
    println!("campaign: {} rows on {label} (median of {repeats})", plan.len());
    let reference: Campaign = {
        let t = base.fork(base.stream_seed());
        charm_engine::Campaign::new(plan, t).seed(base.stream_seed()).run().unwrap().data
    };
    let sequential_s = median_of(repeats, || {
        let t = base.fork(base.stream_seed());
        let c = charm_engine::Campaign::new(plan, t).seed(base.stream_seed()).run().unwrap().data;
        assert_eq!(c.records.len(), plan.len());
    });
    println!("  sequential          {:>8.1} ms", sequential_s * 1e3);
    let mut parallel_s = Vec::new();
    for &k in shard_counts {
        let s = median_of(repeats, || {
            let c = charm_engine::Campaign::new(plan, base.fork(base.stream_seed()))
                .shards(k)
                .seed(base.stream_seed())
                .run()
                .unwrap()
                .data;
            // determinism spot-check against the sequential reference
            assert!(c
                .records
                .iter()
                .zip(&reference.records)
                .all(|(a, b)| a.value == b.value && a.levels == b.levels));
        });
        println!("  parallel {k} shard(s) {:>8.1} ms  ({:.2}x)", s * 1e3, sequential_s / s);
        parallel_s.push(s);
    }
    (sequential_s, parallel_s)
}

/// One instrumented sharded run: returns the shard-pool utilization the
/// engine's own `engine.parallel` span reports (busy ÷ capacity).
fn shard_utilization<T: ParallelTarget>(plan: &ExperimentPlan, base: &T, shards: usize) -> f64 {
    let profiler = charm_trace::Profiler::enabled();
    charm_engine::Campaign::new(plan, base.fork(base.stream_seed()))
        .shards(shards)
        .seed(base.stream_seed())
        .profiler(profiler.clone())
        .run()
        .unwrap();
    profiler
        .take()
        .iter()
        .find(|s| s.name == "engine.parallel")
        .and_then(|s| s.args.iter().find(|(k, _)| k == "utilization"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0.0)
}

#[allow(clippy::too_many_arguments)]
fn engine_metrics(
    bench: EngineBench,
    prefix: &str,
    rows: usize,
    sequential_s: f64,
    shard_counts: &[usize],
    parallel_s: &[f64],
    utilizations: &[f64],
) -> EngineBench {
    let mut b = bench
        .metric(&format!("{prefix}.sequential_s"), sequential_s)
        .metric(&format!("{prefix}.records_per_sec"), rows as f64 / sequential_s);
    for ((&k, &s), &u) in shard_counts.iter().zip(parallel_s).zip(utilizations) {
        b = b
            .metric(&format!("{prefix}.shard{k}_s"), s)
            .metric(&format!("{prefix}.shard{k}_speedup"), sequential_s / s)
            .metric(&format!("{prefix}.shard{k}_utilization"), u);
    }
    b
}

fn main() {
    let args = charm_bench::cli::CommonArgs::parse("[rows] [segment_points]");
    let session = charm_bench::profile::Session::from_args(&args);
    let quick = args.quick;
    let default_rows = if quick { 900 } else { 6000 };
    let default_points = if quick { 800 } else { 6000 };
    let rows: usize = args.rest.first().and_then(|s| s.parse().ok()).unwrap_or(default_rows);
    let points: usize = args.rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(default_points);
    let repeats = 5;
    let seed = args.seed;
    let shard_counts: Vec<usize> = match args.shards {
        Some(k) => vec![k],
        None => vec![1, 2, 4, 8],
    };

    let net_plan = network_plan(rows, seed);
    let net_base = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let (net_seq_s, net_par_s) =
        time_campaign("taurus", &net_plan, &net_base, &shard_counts, repeats);
    let net_util: Vec<f64> =
        shard_counts.iter().map(|&k| shard_utilization(&net_plan, &net_base, k)).collect();

    let mem_plan = memory_plan(rows, seed);
    let mem_base = MemoryTarget::new(
        "opteron",
        MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        ),
    );
    let (mem_seq_s, mem_par_s) =
        time_campaign("opteron", &mem_plan, &mem_base, &shard_counts, repeats);
    let mem_util: Vec<f64> =
        shard_counts.iter().map(|&k| shard_utilization(&mem_plan, &mem_base, k)).collect();

    // Service-profile cache effectiveness: one sequential pass over the
    // same plan on a MallocPerSize machine, then read the machine's own
    // hit/miss counters. That is the regime memoization serves — same-size
    // replicates reuse one placement, so the expected rate is
    // ≈ 1 − distinct_cells / rows. (The pooled-random-offset campaign
    // timed above draws a fresh placement per measurement index by
    // design, which defeats the cache on purpose.)
    let mem_hit_rate = {
        let mut probe = MemoryTarget::new(
            "opteron",
            MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                seed,
            ),
        );
        for row in mem_plan.rows() {
            probe.measure(&Assignment::new(&mem_plan, row)).unwrap();
        }
        let (hits, misses) = probe.machine().profile_cache_stats();
        hits as f64 / (hits + misses).max(1) as f64
    };
    println!("  profile cache       {:>8.1} % hit rate (malloc regime)", mem_hit_rate * 100.0);

    // Shared-cache behavior under the work-stealing scheduler: one
    // observed sharded run in the same malloc regime. All workers fork
    // from one base target and therefore share one profile cache; the
    // engine's diagnostics channel reports the campaign-wide hit rate,
    // each worker's share, and the scheduler's batch/steal counts.
    let diag_shards = shard_counts.iter().copied().max().unwrap_or(1);
    let diagnostics = {
        let base = MemoryTarget::new(
            "opteron",
            MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                seed,
            ),
        );
        charm_engine::Campaign::new(&mem_plan, base.fork(base.stream_seed()))
            .shards(diag_shards)
            .seed(base.stream_seed())
            .observer(Observer::default())
            .run()
            .unwrap()
            .report
            .expect("observer attached")
            .diagnostics
    };
    let shared_hit_rate = diagnostics.get("simmem.profile_cache.hit_rate_permille") as f64 / 1000.0;
    println!(
        "  shared cache        {:>8.1} % hit rate across {diag_shards} shard(s), {} steal(s)",
        shared_hit_rate * 100.0,
        diagnostics.get("engine.scheduler.steals"),
    );

    // --- analysis passes ---
    let config = SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: Some(500.0) };
    let (xs, ys) = piecewise_data(points);
    println!("analysis: {points} points (median of {repeats})");

    let segment_s = median_of(repeats, || {
        segment(&xs, &ys, &config).unwrap();
    });
    println!("  segment (prefix DP) {:>8.1} ms", segment_s * 1e3);
    // The fast kernel must reproduce the plain triple-loop DP bit for bit.
    let fast = segment(&xs, &ys, &config).unwrap();
    let prefix = PrefixOls::new(&xs, &ys);
    let oracle = reference(&xs, &ys, &config, |i, j| prefix.sse(i, j)).unwrap();
    assert_eq!(fast.score.to_bits(), oracle.score.to_bits());
    assert_eq!(fast, oracle);

    let changepoint_s = median_of(repeats, || {
        binary_segmentation(&ys, 5, 50.0).unwrap();
    });
    println!("  changepoint binseg  {:>8.1} ms", changepoint_s * 1e3);

    let boot_sample: Vec<f64> = ys.iter().take(400).copied().collect();
    let boot_reps = if quick { 500 } else { 2000 };
    let bootstrap_s = median_of(repeats, || {
        mean_ci(&boot_sample, boot_reps, 0.95, seed).unwrap();
    });
    println!("  bootstrap ({boot_reps} reps) {:>6.1} ms", bootstrap_s * 1e3);

    let loess_n = points.min(if quick { 200 } else { 800 });
    let loess_x = &xs[..loess_n];
    let loess_y = &ys[..loess_n];
    let loess_s = median_of(repeats, || {
        loess(loess_x, loess_y, loess_x, &LoessConfig { span: 0.3, robustness_iters: 1 }).unwrap();
    });
    println!("  loess ({loess_n} pts)     {:>8.1} ms", loess_s * 1e3);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64;
    let shards_config = shard_counts.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(",");
    let mut bench = EngineBench::new()
        .config("quick", quick)
        .config("rows", rows)
        .config("points", points)
        .config("repeats", repeats)
        .config("shards", &shards_config)
        .metric("cores", cores)
        .metric("simmem.profile_cache.hit_rate", mem_hit_rate)
        .metric("analysis.segment_s", segment_s)
        .metric("analysis.changepoint_s", changepoint_s)
        .metric("analysis.bootstrap_s", bootstrap_s)
        .metric("analysis.loess_s", loess_s);
    bench = engine_metrics(
        bench,
        "engine.net",
        net_plan.len(),
        net_seq_s,
        &shard_counts,
        &net_par_s,
        &net_util,
    );
    bench = engine_metrics(
        bench,
        "engine.mem",
        mem_plan.len(),
        mem_seq_s,
        &shard_counts,
        &mem_par_s,
        &mem_util,
    );
    charm_bench::write_artifact("BENCH_engine.json", &bench.to_json());

    // --- the campaign-level summary the absolute gate checks read ---
    let mut campaign = EngineBench::new()
        .with_schema(CAMPAIGN_SCHEMA)
        .config("quick", quick)
        .config("rows", rows)
        .config("points", points)
        .config("repeats", repeats)
        .config("shards", &shards_config)
        .config("refit_dp", args.refit_dp)
        .metric("cores", cores)
        .metric("simmem.profile_cache.hit_rate", mem_hit_rate)
        .metric("simmem.profile_cache.shared_hit_rate", shared_hit_rate)
        .metric("engine.scheduler.batches", diagnostics.get("engine.scheduler.batches") as f64)
        .metric("engine.scheduler.steals", diagnostics.get("engine.scheduler.steals") as f64);
    // Per-worker view of the shared cache: `shard{w}.…hit_rate_permille`
    // from the diagnostics channel becomes `…shard{w}_hit_rate` here.
    for (key, value) in diagnostics.iter() {
        if let Some(worker) = key
            .strip_suffix(".simmem.profile_cache.hit_rate_permille")
            .and_then(|prefix| prefix.strip_prefix("shard"))
        {
            campaign = campaign.metric(
                &format!("simmem.profile_cache.shard{worker}_hit_rate"),
                value as f64 / 1000.0,
            );
        }
    }
    campaign = engine_metrics(
        campaign,
        "engine.net",
        net_plan.len(),
        net_seq_s,
        &shard_counts,
        &net_par_s,
        &net_util,
    );
    campaign = engine_metrics(
        campaign,
        "engine.mem",
        mem_plan.len(),
        mem_seq_s,
        &shard_counts,
        &mem_par_s,
        &mem_util,
    );

    if args.refit_dp {
        // The O(n³) refit DP is timed once — at 6000 points it needs
        // minutes, which is exactly the point of the comparison.
        // Memoized across segment counts, as the pre-prefix-sum search was.
        let mut memo = HashMap::new();
        let t = Instant::now();
        let old_breaks = reference(&xs, &ys, &config, |i, j| {
            *memo.entry((i, j)).or_insert_with(|| naive_stretch_sse(&xs, &ys, i, j))
        })
        .unwrap()
        .breakpoints;
        let refit_s = t.elapsed().as_secs_f64();
        println!(
            "  refit DP (1 run)    {:>8.1} ms  ({:.1}x slower)",
            refit_s * 1e3,
            refit_s / segment_s
        );
        assert_eq!(old_breaks, fast.breakpoints);
        campaign = campaign
            .metric("analysis.refit_dp_s", refit_s)
            .metric("analysis.refit_speedup", refit_s / segment_s);
    }
    charm_bench::write_artifact("BENCH_campaign.json", &campaign.to_json());
    session.finish();
}

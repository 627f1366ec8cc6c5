//! The five ablations DESIGN.md §5 calls for: each removes one element
//! of the white-box methodology and shows the pitfall it guards against
//! coming back. Each yields its CSV and, as its report, the outcome
//! EXPERIMENTS.md's ablation table states for it.

use super::catalog::Outputs;
use super::plot;
use crate::error::CharmError;
use crate::pitfalls;
use charm_analysis::modes;
use charm_analysis::segmented::{segment, segment_with_k_breaks, SegmentConfig};
use charm_design::doe::FullFactorial;
use charm_design::{sampling, Factor};
use charm_engine::record::Campaign;
use charm_engine::target::{MemoryTarget, NetworkTarget};
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::kernel::KernelConfig;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::noise::{BurstConfig, NoiseModel};
use charm_simnet::{presets, NetOp, NetworkSim};
use std::fmt::Write;

/// The median of `v` (the upper one for an even length).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Randomized vs sequential measurement order on a burst-perturbed
/// network (§III-1 / §IV-3). Sequential order converts a temporal burst
/// into a phantom size effect: a contiguous block of sizes looks slow.
/// Randomization spreads the burst over all sizes, where the
/// sequence-order detector then exposes it as temporal.
pub(crate) fn randomization(seed: u64) -> Result<Outputs, CharmError> {
    let mut rows = Vec::new();
    let mut report = String::new();
    for (label, randomize) in [("sequential", false), ("randomized", true)] {
        let c = ordered_campaign(randomize, seed)?;
        let spread = per_size_median_spread(&c);
        let anomalies = pitfalls::temporal_anomalies(&c, &["size"], 1.0);
        let _ = writeln!(
            report,
            "{label:<11} worst adjacent-size median jump: {spread:.2}x | temporal windows detected: {}",
            anomalies.len()
        );
        rows.push(vec![label.to_string(), spread.to_string(), anomalies.len().to_string()]);
    }
    report.push_str(
        "\nsequential campaigns localize the burst in a block of sizes (phantom size effect);\n\
         randomized campaigns keep per-size medians smooth and expose the burst as temporal\n",
    );
    let csv = plot::csv(&["order", "worst_adjacent_median_jump", "temporal_windows"], &rows);
    Ok(Outputs::new(report, vec![("ablation_randomization.csv", csv)]))
}

fn ordered_campaign(randomize: bool, seed: u64) -> Result<Campaign, CharmError> {
    let sizes: Vec<i64> = (1..=40).map(|i| i * 1024).collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(20)
        .build();
    if randomize {
        plan.shuffle(seed);
    } else {
        plan = plan.sequential();
    }
    let mut sim = presets::myrinet_gm(seed);
    // one long burst window: ~15% duty, strongly clustered
    sim.set_noise(NoiseModel::new(
        seed,
        0.02,
        BurstConfig { enter_prob: 0.002, exit_prob: 0.012, slowdown: 5.0, extra_us: 100.0 },
    ));
    let target = NetworkTarget::new("myrinet-bursty", sim);
    let run = charm_engine::Campaign::new(&plan, target).seed(randomize.then_some(seed)).run()?;
    Ok(run.data)
}

/// The largest ratio between adjacent per-size medians, sorted: a
/// phantom size effect inflates it.
fn per_size_median_spread(c: &Campaign) -> f64 {
    let mut medians: Vec<f64> = c.group_by(&["size"]).into_iter().map(|(_, v)| median(v)).collect();
    medians.sort_by(f64::total_cmp);
    medians.windows(2).map(|w| (w[1] / w[0]).max(w[0] / w[1])).fold(1.0f64, f64::max)
}

/// Size-grid choice (§III-2): power-of-two vs linear vs log-uniform
/// grids against a platform with a special-cased 1024-byte path, plus
/// the neighbour probe that makes the bias measurable.
pub(crate) fn sizegrids(seed: u64) -> Result<Outputs, CharmError> {
    let platform = || {
        let mut sim = presets::taurus_openmpi_tcp(seed);
        sim.set_noise(NoiseModel::new(seed, 0.02, BurstConfig::off()).with_anomaly(1024, 0.7));
        sim
    };
    let median_time = |sim: &mut NetworkSim, size: u64| {
        median((0..15).map(|_| sim.measure(NetOp::PingPong, size)).collect())
    };

    // 1. how each grid "sees" the 512..4096 region
    let mut rows = Vec::new();
    for (label, grid) in [
        ("power_of_two", sampling::power_of_two_sizes(12, false)),
        ("linear_1k", sampling::linear_sizes(512, 1024, 4096)),
        ("log_uniform", sampling::log_uniform_sizes(512, 4096, 8, seed)),
    ] {
        let mut sim = platform();
        for &size in grid.iter().filter(|&&s| (512..=4096).contains(&s)) {
            let t = median_time(&mut sim, size);
            rows.push(vec![label.to_string(), size.to_string(), t.to_string()]);
        }
    }
    let csv = plot::csv(&["grid", "size", "median_us"], &rows);

    // 2. the neighbour probe finds the planted anomaly
    let mut sim = platform();
    let found =
        pitfalls::probe_size_bias(&mut sim, &sampling::power_of_two_sizes(12, false), 15, 0.1);
    let mut report = String::from("neighbour-probe over the power-of-two grid flags:\n");
    for p in &found {
        let _ = writeln!(
            report,
            "  size {:>6}: on-grid {:.1} µs vs neighbours {:.1} µs ({:+.0}%)",
            p.size,
            p.on_grid_us,
            p.neighbours_us,
            100.0 * p.deviation()
        );
    }
    report.push_str(
        "\nthe power-of-two grid lands exactly ON the special-cased 1024-byte path and\n\
         bends the fitted curve; the log-uniform grid samples its neighbourhood instead\n",
    );
    Ok(Outputs::new(report, vec![("ablation_sizegrids.csv", csv)]))
}

/// On-the-fly aggregation vs raw retention (§IV-3 / Figure 11): the
/// same RT-scheduled ARM campaign reported two ways, the opaque
/// mean ± sd per size and the raw-data mode analysis. The mean describes
/// no behaviour the machine actually has.
pub(crate) fn aggregation(seed: u64) -> Result<Outputs, CharmError> {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", vec![8192i64, 16384]))
        .factor(Factor::new("nloops", vec![40i64]))
        .replicates(150)
        .build();
    plan.shuffle(seed);
    let mut target = MemoryTarget::new(
        "arm-rt",
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedRealtime,
            AllocPolicy::PooledRandomOffset,
            seed,
        ),
    );
    let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(seed).run()?.data;

    let mut rows = Vec::new();
    let mut report = String::new();
    for (key, values) in campaign.group_by(&["size_bytes"]) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let sd = (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        let loss = pitfalls::aggregation_loss(&values).unwrap_or(0.0);
        let split = modes::two_means(&values)?;
        let _ = writeln!(
            report,
            "size {:>6}: opaque report = {:.0} ± {:.0} MB/s | raw-data view: modes at {:.0} and {:.0} MB/s ({:.0}% slow), mean sits {:.0}% of the mode gap away from the nearest mode",
            key[0], mean, sd, split.low_center, split.high_center,
            100.0 * split.low_fraction, 100.0 * loss
        );
        rows.push(vec![
            key[0].to_string(),
            mean.to_string(),
            sd.to_string(),
            split.low_center.to_string(),
            split.high_center.to_string(),
            split.low_fraction.to_string(),
            loss.to_string(),
        ]);
    }
    report.push_str("\nmean ± sd (all an opaque tool keeps) hides the two modes entirely\n");
    let csv = plot::csv(
        &["size_bytes", "mean", "sd", "low_mode", "high_mode", "low_fraction", "aggregation_loss"],
        &rows,
    );
    Ok(Outputs::new(report, vec![("ablation_aggregation.csv", csv)]))
}

/// Malloc-per-size vs pooled-random-offset allocation on the ARM
/// (§IV-4 / Figure 12): cross-run reproducibility of the measured
/// bandwidth at the conflict-prone sizes.
pub(crate) fn allocation(seed: u64) -> Result<Outputs, CharmError> {
    // the median bandwidth at 24 KiB over 30 repetitions of one run (seed)
    let median_bw = |alloc: AllocPolicy, run_seed: u64| {
        let mut m = MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            alloc,
            run_seed,
        );
        let cfg = KernelConfig::baseline(24 * 1024, 300);
        median((0..30).map(|_| m.run_kernel(&cfg).bandwidth_mbps).collect())
    };
    let mut rows = Vec::new();
    let mut report =
        String::from("cross-run median bandwidth at 24 KiB (the conflict-prone zone), 8 runs:\n");
    for alloc in [AllocPolicy::MallocPerSize, AllocPolicy::PooledRandomOffset] {
        let medians: Vec<f64> = (0..8).map(|i| median_bw(alloc, seed + i)).collect();
        let max = medians.iter().cloned().fold(f64::MIN, f64::max);
        let min = medians.iter().cloned().fold(f64::MAX, f64::min);
        let _ = writeln!(
            report,
            "  {:<22} min {min:.0}  max {max:.0}  cross-run spread {:.0}%",
            alloc.name(),
            100.0 * (max - min) / max
        );
        rows.push(vec![
            alloc.name().to_string(),
            min.to_string(),
            max.to_string(),
            ((max - min) / max).to_string(),
        ]);
    }
    report.push_str(
        "\nmalloc reuse makes each run stable but runs disagree wildly (the Figure 12 trap);\n\
         the pooled allocator samples many page layouts per run and reproduces across runs\n",
    );
    let csv =
        plot::csv(&["allocator", "min_median_mbps", "max_median_mbps", "cross_run_spread"], &rows);
    Ok(Outputs::new(report, vec![("ablation_allocation.csv", csv)]))
}

/// A preconceived breakpoint count vs free segmentation (§III-3) on the
/// Open MPI-like platform with the hidden 16 KiB slope change.
pub(crate) fn breakpoints(seed: u64) -> Result<Outputs, CharmError> {
    let mut sim = presets::openmpi_fig3(seed);
    sim.set_noise(NoiseModel::new(seed, 0.005, BurstConfig::off()));
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for size in (256..=64 * 1024).step_by(1024) {
        let mut acc = 0.0;
        for _ in 0..5 {
            acc += sim.measure(NetOp::PingPong, size);
        }
        xs.push(size as f64);
        ys.push(acc / 5.0);
    }
    let forced = segment_with_k_breaks(&xs, &ys, 1, 5)?;
    let free = segment(&xs, &ys, &SegmentConfig::default())?;
    let mut report = String::new();
    let _ =
        writeln!(report, "forced 1 break : breaks {:?}  SSE {:.1}", forced.breakpoints, forced.sse);
    let _ = writeln!(report, "free search    : breaks {:?}  SSE {:.1}", free.breakpoints, free.sse);
    let _ = writeln!(
        report,
        "SSE ratio forced/free: {:.1}x — the preconceived count hides the 16 KiB regime",
        forced.sse / free.sse.max(1e-9)
    );
    let breaks = |b: &[f64]| format!("{b:?}").replace(',', ";");
    let csv = plot::csv(
        &["fit", "breaks", "sse"],
        &[
            vec!["forced_1".into(), breaks(&forced.breakpoints), forced.sse.to_string()],
            vec!["free".into(), breaks(&free.breakpoints), free.sse.to_string()],
        ],
    );
    Ok(Outputs::new(report, vec![("ablation_breakpoints.csv", csv)]))
}

//! The paper's thesis as integration tests: on identical substrates, the
//! opaque tools are misled where the white-box methodology is not.

use charm::analysis::segmented::{segment, SegmentConfig};
use charm::core::pitfalls;
use charm::design::doe::FullFactorial;
use charm::design::{sampling, Factor};
use charm::engine::target::NetworkTarget;
use charm::opaque::{netgauge, plogp, pmb};
use charm::simnet::noise::{BurstConfig, NoiseModel};
use charm::simnet::{presets, NetOp};

fn bursty_noise(seed: u64) -> NoiseModel {
    NoiseModel::new(
        seed,
        0.015,
        BurstConfig { enter_prob: 0.005, exit_prob: 0.02, slowdown: 6.0, extra_us: 200.0 },
    )
}

/// §III-1: on a burst-perturbed network, the opaque online detector
/// reports spurious protocol changes on some campaigns; the white-box
/// offline analysis of randomized raw data instead classifies the burst
/// as temporal and finds no extra *size* breakpoints.
#[test]
fn temporal_burst_fools_netgauge_not_the_methodology() {
    let mut opaque_spurious = 0;
    let mut whitebox_spurious = 0;
    let mut whitebox_temporal_hits = 0;
    for seed in 0..6u64 {
        // opaque: NetGauge-style, linear sweep, online detection
        let mut sim = presets::myrinet_gm(seed);
        sim.set_noise(bursty_noise(seed));
        let out = netgauge::run(
            &mut sim,
            &netgauge::NetgaugeConfig {
                start: 512,
                step: 512,
                end: 24 * 1024,
                repetitions: 4,
                lsq_factor: 6.0,
            },
        );
        if !out.breaks.is_empty() {
            opaque_spurious += 1;
        }

        // white-box: randomized campaign on the same platform/noise
        let sizes: Vec<i64> =
            sampling::linear_sizes(512, 512, 24 * 1024).into_iter().map(|s| s as i64).collect();
        // Enough replicates that a per-size median survives the burst's
        // ~20% duty cycle on every seed: with few reps a cell is one
        // unlucky draw away from majority contamination, and the test
        // becomes a seed lottery rather than a methodology contrast
        // (at 36 reps the contrast still collapses on some RNG streams).
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", sizes))
            .replicates(72)
            .build();
        plan.shuffle(seed);
        let mut sim2 = presets::myrinet_gm(seed);
        sim2.set_noise(bursty_noise(seed + 1000));
        let mut target = NetworkTarget::new("myrinet-bursty", sim2);
        let campaign =
            charm::engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data;

        // offline: per-size medians (robust) then free segmentation
        let mut meds: Vec<(f64, f64)> = campaign
            .group_by(&["size"])
            .into_iter()
            .map(|(k, mut v)| {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                (k[0].as_float().unwrap(), v[v.len() / 2])
            })
            .collect();
        meds.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let xs: Vec<f64> = meds.iter().map(|m| m.0).collect();
        let ys: Vec<f64> = meds.iter().map(|m| m.1).collect();
        let seg = segment(&xs, &ys, &SegmentConfig::default()).unwrap();
        if !seg.breakpoints.is_empty() {
            whitebox_spurious += 1;
        }
        if !pitfalls::temporal_anomalies(&campaign, &["size"], 1.0).is_empty() {
            whitebox_temporal_hits += 1;
        }
    }
    assert!(opaque_spurious >= 1, "expected the online detector to be fooled at least once");
    assert!(
        whitebox_spurious < opaque_spurious,
        "methodology should be fooled less: {whitebox_spurious} vs {opaque_spurious}"
    );
    assert!(
        whitebox_temporal_hits >= 1,
        "the methodology should classify the perturbation as temporal"
    );
}

/// §III-2: PMB's power-of-two grid lands exactly on the special-cased
/// 1024-byte path and silently bends its curve; the methodology's
/// neighbour probe names the culprit.
#[test]
fn size_special_case_bends_pmb_probe_names_it() {
    let platform = |seed| {
        let mut sim = presets::taurus_openmpi_tcp(seed);
        sim.set_noise(NoiseModel::new(seed, 0.01, BurstConfig::off()).with_anomaly(1024, 0.7));
        sim
    };
    // opaque view: the 1024 mean is *lower* than the 512 mean
    let mut sim = platform(1);
    let cells =
        pmb::run(&mut sim, &pmb::PmbConfig { max_pow: 12, repetitions: 40, op: NetOp::PingPong });
    let mean_at = |x: u64| cells.iter().find(|c| c.x == x).unwrap().mean;
    assert!(mean_at(1024) < mean_at(512), "PMB silently absorbs the anomaly");

    // white-box probe: flags exactly 1024
    let mut sim = platform(2);
    let grid = sampling::power_of_two_sizes(12, false);
    let flagged = pitfalls::probe_size_bias(&mut sim, &grid, 20, 0.1);
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].size, 1024);
}

/// §III-3: PLogP's extrapolation scheme, probing only powers of two,
/// cannot distinguish the one-size anomaly from a protocol change; it
/// reports a "break" in [1024, 2048].
#[test]
fn plogp_misreads_anomaly_as_protocol_change() {
    let mut sim = presets::taurus_openmpi_tcp(3);
    sim.set_noise(NoiseModel::silent(0).with_anomaly(1024, 0.6));
    let out = plogp::run(
        &mut sim,
        &plogp::PlogpConfig { max_pow: 14, repetitions: 2, tolerance: 0.1, max_attempts: 6 },
    );
    assert!(
        out.breaks.iter().any(|&b| (1024..=2048).contains(&b)),
        "expected a phantom break: {:?}",
        out.breaks
    );
}

/// Figure 11's aggregation lesson, cross-crate: the opaque MultiMAPS
/// report for an RT-scheduled ARM has no trace of the two modes beyond an
/// inflated sd, while the methodology splits them and measures both.
#[test]
fn multimaps_mean_hides_modes_methodology_splits_them() {
    use charm::engine::target::MemoryTarget;
    use charm::opaque::multimaps;
    use charm::simmem::dvfs::GovernorPolicy;
    use charm::simmem::machine::{CpuSpec, MachineSim};
    use charm::simmem::paging::AllocPolicy;
    use charm::simmem::sched::SchedPolicy;

    let machine = || {
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedRealtime,
            AllocPolicy::PooledRandomOffset,
            17,
        )
    };
    // opaque: one (mean, sd) pair
    let mut m = machine();
    let rows = multimaps::run(
        &mut m,
        &multimaps::MultimapsConfig {
            sizes: vec![8192],
            strides: vec![1],
            nloops: 30,
            repetitions: 150,
        },
    );
    assert_eq!(rows.len(), 1);

    // methodology: same machine, raw campaign, bimodal cell found
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", vec![8192i64]))
        .factor(Factor::new("nloops", vec![30i64]))
        .replicates(150)
        .build();
    plan.shuffle(17);
    let mut target = MemoryTarget::new("arm-rt", machine());
    let campaign = charm::engine::Campaign::new(&plan, &mut target).seed(17).run().unwrap().data;
    let cells = pitfalls::bimodal_cells(&campaign, &["size_bytes"]);
    assert_eq!(cells.len(), 1, "the mode structure must be recoverable from raw data");
    let ratio = cells[0].split.center_ratio();
    assert!((3.0..8.0).contains(&ratio), "mode ratio {ratio}");
}

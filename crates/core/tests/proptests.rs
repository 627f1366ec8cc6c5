//! Property-based tests of charm-core's models and convolution.

use charm_core::convolution::{convolve, AppSignature, MachineSignature};
use charm_core::models::memory::{MemoryModel, Plateau};
use charm_core::models::roofline::{Bound, Roofline};
use charm_core::models::NetworkModel;
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::target::NetworkTarget;
use charm_simnet::noise::NoiseModel;
use charm_simnet::{presets, NetOp};
use proptest::prelude::*;

/// A small, silent network model fit once per test case (sizes fixed so
/// the fit is cheap).
fn quick_model(seed: u64) -> NetworkModel {
    let sizes: Vec<i64> = vec![64, 512, 2048, 8192, 20_000, 50_000, 90_000, 200_000, 800_000];
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(3)
        .build();
    plan.shuffle(seed);
    let mut sim = presets::taurus_openmpi_tcp(seed);
    sim.set_noise(NoiseModel::silent(0));
    let mut target = NetworkTarget::new("t", sim);
    let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data;
    NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn network_predictions_positive_monotone_within_regime(seed in 0u64..50) {
        let model = quick_model(seed);
        // within the eager regime predictions are positive and increase
        let mut prev = 0.0;
        for size in (0..32_000).step_by(4000) {
            let t = model.predict(NetOp::PingPong, size);
            prop_assert!(t > 0.0);
            prop_assert!(t >= prev - 1e-9);
            prev = t;
        }
    }

    #[test]
    fn convolution_additive_in_apps(seed in 0u64..30, reps in 1u32..20) {
        let model = quick_model(seed);
        let memory = MemoryModel {
            plateaus: vec![Plateau { capacity_bytes: 1 << 20, bandwidth_mbps: 10_000.0 }],
            dram_bandwidth_mbps: 1_000.0,
        };
        let machine = MachineSignature { memory, network: model };
        let a = AppSignature::new().message(NetOp::PingPong, 4096, reps);
        let b = AppSignature::new().block(1e6, 4096, reps);
        let combined = AppSignature::new()
            .message(NetOp::PingPong, 4096, reps)
            .block(1e6, 4096, reps);
        let pa = convolve(&a, &machine);
        let pb = convolve(&b, &machine);
        let pc = convolve(&combined, &machine);
        prop_assert!((pc.total_us() - pa.total_us() - pb.total_us()).abs() < 1e-6);
    }

    #[test]
    fn roofline_attainable_bounded_and_monotone(
        gflops in 1.0..1000.0f64, bw in 1000.0..1e6f64,
        i1 in 0.01..100.0f64, i2 in 0.01..100.0f64,
    ) {
        let r = Roofline::new(gflops, bw);
        let (lo, hi) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
        prop_assert!(r.attainable_gflops(lo) <= r.attainable_gflops(hi) + 1e-12);
        prop_assert!(r.attainable_gflops(hi) <= gflops + 1e-12);
        // bound classification consistent with ridge
        match r.bound(lo) {
            Bound::Memory => prop_assert!(lo < r.ridge_intensity()),
            Bound::Compute => prop_assert!(lo >= r.ridge_intensity()),
        }
    }

    #[test]
    fn memory_model_lookup_matches_plateau_structure(
        caps in prop::collection::vec(1u64..30, 1..4),
        bws in prop::collection::vec(100.0..100_000.0f64, 4),
    ) {
        // build strictly ascending capacities in KiB
        let mut acc = 0u64;
        let capacities: Vec<u64> = caps
            .iter()
            .map(|c| {
                acc += c * 1024;
                acc
            })
            .collect();
        let plateaus: Vec<Plateau> = capacities
            .iter()
            .zip(&bws)
            .map(|(&c, &b)| Plateau { capacity_bytes: c, bandwidth_mbps: b })
            .collect();
        let model = MemoryModel { plateaus: plateaus.clone(), dram_bandwidth_mbps: 50.0 };
        for p in &plateaus {
            prop_assert_eq!(model.bandwidth_for(p.capacity_bytes), p.bandwidth_mbps);
        }
        prop_assert_eq!(model.bandwidth_for(acc + 1), 50.0);
    }
}

//! Integration tests of the extension features: trace replay vs
//! convolution, STREAM kernels, multi-core interference, the DSL, and the
//! cluster report — all through the facade crate.

use charm::core::convolution::{convolve, AppSignature, MachineSignature};
use charm::core::models::memory::{MemoryModel, Plateau};
use charm::core::models::NetworkModel;
use charm::core::replay::{replay, Event};
use charm::design::doe::FullFactorial;
use charm::design::{dsl, Factor};
use charm::engine::target::NetworkTarget;
use charm::simnet::noise::NoiseModel;
use charm::simnet::{presets, NetOp};

fn quiet_network_model(seed: u64) -> NetworkModel {
    let sizes: Vec<i64> = vec![64, 1024, 8192, 40_000, 90_000, 400_000, 900_000];
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(3)
        .build();
    plan.shuffle(seed);
    let mut sim = presets::taurus_openmpi_tcp(seed);
    sim.set_noise(NoiseModel::silent(0));
    let mut target = NetworkTarget::new("t", sim);
    let campaign = charm::engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data;
    NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap()
}

fn flat_memory() -> MemoryModel {
    MemoryModel {
        plateaus: vec![Plateau { capacity_bytes: 1 << 20, bandwidth_mbps: 10_000.0 }],
        dram_bandwidth_mbps: 1_000.0,
    }
}

/// Replay must charge the receiver for waiting; convolution cannot. On a
/// dependency-free trace the two agree; on a dependency-heavy trace
/// replay's makespan exceeds the convolution total of the lagging rank.
#[test]
fn replay_captures_waiting_convolution_does_not() {
    let network = quiet_network_model(1);
    let memory = flat_memory();

    // dependency-heavy: rank 1 only receives, rank 0 computes 10 ms first
    let traces = vec![
        vec![
            Event::Compute { bytes: 1e7, working_set: 8 << 20 }, // 10 ms
            Event::Send { peer: 1, size: 1024 },
        ],
        vec![Event::Recv { peer: 0 }],
    ];
    let r = replay(&traces, &network, &memory).unwrap();

    // the convolution view of rank 1 alone: just a receive overhead
    let rank1_app = AppSignature::new().message(NetOp::BlockingRecv, 1024, 1);
    let machine = MachineSignature { memory: flat_memory(), network };
    let conv = convolve(&rank1_app, &machine);

    assert!(
        r.rank_finish_us[1] > 100.0 * conv.total_us(),
        "replay rank-1 finish {} must dwarf convolution {}",
        r.rank_finish_us[1],
        conv.total_us()
    );
}

/// A ping-pong chain in replay approximates the model's RTT-derived time.
#[test]
fn replay_pingpong_consistent_with_model() {
    let network = quiet_network_model(2);
    let memory = flat_memory();
    let size = 4096u64;
    let n_rounds = 10;
    let mut t0 = Vec::new();
    let mut t1 = Vec::new();
    for _ in 0..n_rounds {
        t0.push(Event::Send { peer: 1, size });
        t0.push(Event::Recv { peer: 1 });
        t1.push(Event::Recv { peer: 0 });
        t1.push(Event::Send { peer: 0, size });
    }
    let r = replay(&[t0, t1], &network, &memory).unwrap();
    let per_round = r.makespan_us() / n_rounds as f64;
    let rtt = network.predict(NetOp::PingPong, size);
    let ratio = per_round / rtt;
    assert!((0.5..2.0).contains(&ratio), "per-round {per_round} vs rtt {rtt}");
}

/// DSL → engine → model: the full workflow from a text plan.
#[test]
fn dsl_compiles_into_a_model_grade_campaign() {
    let plan = dsl::compile(
        "factor op in [async_send, blocking_recv, ping_pong]\n\
         factor size loguniform 8..2097152 count 50 seed 5\n\
         replicates 5\n\
         order randomized 5\n",
    )
    .unwrap();
    let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(5));
    let campaign = charm::engine::Campaign::new(&plan, &mut target).seed(5).run().unwrap().data;
    let model = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap();
    assert_eq!(model.segments.len(), 3);
    assert!(model.max_rel_rmse() < 0.5);
}

/// STREAM + interference through the facade.
#[test]
fn stream_and_interference_end_to_end() {
    use charm::simmem::compiler::{CodegenConfig, ElementWidth};
    use charm::simmem::dvfs::GovernorPolicy;
    use charm::simmem::kernel::KernelConfig;
    use charm::simmem::machine::{CpuSpec, MachineSim};
    use charm::simmem::paging::AllocPolicy;
    use charm::simmem::parallel::run_kernel_parallel;
    use charm::simmem::sched::SchedPolicy;
    use charm::simmem::stream_kernels::{run_stream, StreamKernel, StreamRunConfig};

    let mut m = MachineSim::new(
        CpuSpec::core_i7_2600(),
        GovernorPolicy::Performance,
        SchedPolicy::PinnedDefault,
        AllocPolicy::PooledRandomOffset,
        9,
    );
    // DRAM-resident triad is slower than L1-resident triad
    let big = run_stream(
        &mut m,
        &StreamRunConfig {
            array_bytes: 16 << 20,
            kernel: StreamKernel::Triad,
            codegen: CodegenConfig::new(ElementWidth::W64, true),
            nloops: 3,
        },
    )
    .unwrap();
    let small = run_stream(
        &mut m,
        &StreamRunConfig {
            array_bytes: 8 * 1024,
            kernel: StreamKernel::Triad,
            codegen: CodegenConfig::new(ElementWidth::W64, true),
            nloops: 200,
        },
    )
    .unwrap();
    assert!(small.bandwidth_mbps > 2.0 * big.bandwidth_mbps);

    // interference: DRAM-bound parallel scaling is sublinear
    let cfg = KernelConfig::baseline(8 << 20, 3);
    let one = run_kernel_parallel(&mut m, &cfg, 1).unwrap().measurement.bandwidth_mbps;
    let eight = run_kernel_parallel(&mut m, &cfg, 8).unwrap().measurement.bandwidth_mbps;
    assert!(eight < 4.0 * one, "DRAM-bound scaling must be sublinear: {one} -> {eight}");
}

/// The collectives inherit point-to-point regimes through the facade.
#[test]
fn collectives_scale_with_tree_depth() {
    use charm::simnet::collective::{measure_collective, Collective};
    let mut sim = presets::myrinet_gm(3);
    sim.set_noise(NoiseModel::silent(0));
    let t4 = measure_collective(&mut sim, Collective::AllReduce, 8192, 4);
    let t16 = measure_collective(&mut sim, Collective::AllReduce, 8192, 16);
    assert!((t16 / t4 - 2.0).abs() < 1e-9, "log2(16)/log2(4) = 2: {t4} vs {t16}");
}

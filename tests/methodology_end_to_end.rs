//! Cross-crate integration: the full white-box pipeline — design →
//! engine → raw CSV round-trip → analysis → model instantiation →
//! convolution — exercised through the facade crate.

use charm::core::convolution::{convolve, AppSignature, MachineSignature};
use charm::core::models::{MemoryModel, NetworkModel};
use charm::core::pipeline::{analyze_cells, Study};
use charm::design::doe::FullFactorial;
use charm::design::{sampling, Factor};
use charm::engine::record::Campaign;
use charm::engine::target::{MemoryTarget, NetworkTarget};
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;
use charm::simnet::{presets, NetOp};

fn network_campaign(seed: u64) -> Campaign {
    // unique draws: duplicate sizes would merge design cells downstream
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(8, 1 << 21, 60, seed)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(6)
        .build();
    let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    Study::new(plan).randomized(seed).run(&mut target).unwrap()
}

fn memory_campaign(seed: u64) -> Campaign {
    let sizes: Vec<i64> =
        vec![8 * 1024, 32 * 1024, 48 * 1024, 256 * 1024, 768 * 1024, 2 << 20, 6 << 20];
    let plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("stride", vec![2i64]))
        .factor(Factor::new("nloops", vec![600i64]))
        .replicates(5)
        .build();
    let mut target = MemoryTarget::new(
        "opteron",
        MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        ),
    );
    Study::new(plan).randomized(seed).run(&mut target).unwrap()
}

#[test]
fn raw_campaign_survives_csv_roundtrip_bit_exact() {
    let c = network_campaign(1);
    let back = Campaign::from_csv(&c.to_csv()).unwrap();
    assert_eq!(c, back);
    // metadata documents the whole environment
    for key in ["engine", "order", "shuffle_seed", "platform", "plan_rows", "value_unit"] {
        assert!(back.metadata.contains_key(key), "missing metadata {key}");
    }
}

#[test]
fn cells_then_model_then_convolution() {
    let netc = network_campaign(2);
    let cells = analyze_cells(&netc, &["op"]);
    assert_eq!(cells.len(), 3);

    let memc = memory_campaign(2);
    let memory = MemoryModel::fit(&memc, &[64 * 1024, 1024 * 1024]).unwrap();
    let network = NetworkModel::fit(&netc, &[32 * 1024, 128 * 1024]).unwrap();

    // the instantiated machine signature predicts a synthetic app within
    // tolerance of the substrate's ground truth
    let app = AppSignature::new()
        .block(4e6, 16 * 1024, 10)
        .message(NetOp::PingPong, 2000, 50)
        .message(NetOp::PingPong, 300_000, 10);
    let machine = MachineSignature { memory, network };
    let pred = convolve(&app, &machine);

    let sim = presets::taurus_openmpi_tcp(0);
    let net_truth = 50.0 * sim.true_time(NetOp::PingPong, 2000)
        + 10.0 * sim.true_time(NetOp::PingPong, 300_000);
    let rel = (pred.network_us - net_truth).abs() / net_truth;
    assert!(rel < 0.15, "network prediction off by {rel}");
    assert!(pred.memory_us > 0.0);
}

#[test]
fn same_seed_identical_artifacts_across_the_stack() {
    let a = network_campaign(9);
    let b = network_campaign(9);
    assert_eq!(a.to_csv(), b.to_csv(), "bit-reproducible campaigns");
    let c = memory_campaign(9);
    let d = memory_campaign(9);
    assert_eq!(c.to_csv(), d.to_csv());
}

#[test]
fn different_seed_different_measurements_same_design_shape() {
    let a = network_campaign(10);
    let b = network_campaign(11);
    assert_eq!(a.records.len(), b.records.len());
    assert_ne!(a.values(), b.values());
}

#[test]
fn memory_model_matches_cpu_geometry() {
    let c = memory_campaign(5);
    let model = MemoryModel::fit(&c, &[64 * 1024, 1024 * 1024]).unwrap();
    // plateaus strictly ordered: L1 > L2 > DRAM
    assert!(model.plateaus[0].bandwidth_mbps > model.plateaus[1].bandwidth_mbps);
    assert!(model.plateaus[1].bandwidth_mbps > model.dram_bandwidth_mbps);
}

#[test]
fn engine_is_stage_separated() {
    // the campaign must not contain any aggregated values: every record
    // is one raw measurement, replicates included
    let c = network_campaign(6);
    let groups = c.group_by(&["op", "size"]);
    assert!(groups.iter().all(|(_, v)| v.len() == 6), "all replicates retained");
    // and sequence numbers cover 0..n without gaps
    let mut seqs: Vec<u64> = c.records.iter().map(|r| r.sequence).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..c.records.len() as u64).collect::<Vec<_>>());
}

//! Produce a full platform-characterization report — the paper's stated
//! future work ("a coherent and easily understandable report over a
//! complex set of measurements, … reliably characterize a whole
//! cluster") — for a healthy platform and for a compromised one.
//!
//! ```text
//! cargo run --release --example cluster_report
//! ```

use charm::core::pipeline::Study;
use charm::core::report::{characterize, ClusterReportInput};
use charm::design::doe::FullFactorial;
use charm::design::{sampling, Factor};
use charm::engine::record::Campaign;
use charm::engine::target::{MemoryTarget, NetworkTarget};
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;
use charm::simnet::noise::{BurstConfig, NoiseModel};
use charm::simnet::presets;

fn network_campaign(seed: u64, bursty: bool) -> Campaign {
    let sizes: Vec<i64> =
        sampling::log_uniform_sizes(8, 1 << 21, 80, seed).into_iter().map(|s| s as i64).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(10)
        .build();
    let mut sim = presets::taurus_openmpi_tcp(seed);
    if bursty {
        sim.set_noise(NoiseModel::new(
            seed,
            0.02,
            BurstConfig { enter_prob: 0.004, exit_prob: 0.012, slowdown: 6.0, extra_us: 200.0 },
        ));
    }
    let mut target = NetworkTarget::new("taurus", sim);
    Study::new(plan).randomized(seed).run(&mut target).expect("campaign")
}

fn memory_campaign(seed: u64) -> Campaign {
    let sizes: Vec<i64> = vec![16 * 1024, 48 * 1024, 128 * 1024, 512 * 1024, 2 << 20, 6 << 20];
    let plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("nloops", vec![500i64]))
        .replicates(6)
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
    Study::new(plan).randomized(seed).run(&mut target).expect("campaign")
}

fn main() {
    std::fs::create_dir_all("results").ok();
    for (label, bursty) in [("healthy", false), ("compromised", true)] {
        let net = network_campaign(21, bursty);
        let mem = memory_campaign(21);
        let report = characterize(&ClusterReportInput {
            platform: &format!("taurus-{label}"),
            network: &net,
            network_breakpoints: &[32 * 1024, 128 * 1024],
            memory: Some(&mem),
            cache_capacities: &[64 * 1024, 1024 * 1024],
        })
        .expect("report");
        let path = format!("results/cluster_report_{label}.md");
        std::fs::write(&path, report.to_markdown()).expect("write report");
        println!("{label}: calibration-grade = {} -> {path}", report.is_calibration_grade());
    }
}

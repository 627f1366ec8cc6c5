//! Hunt for the paper's pitfalls on a deliberately hostile platform:
//! an ARM machine under the real-time policy with an intruder, plus a
//! network with a special-cased message size — then let the raw-data
//! detectors expose everything an opaque tool would have averaged away.
//!
//! ```text
//! cargo run --release --example pitfall_hunt
//! ```

use charm::core::pitfalls;
use charm::design::doe::FullFactorial;
use charm::design::Factor;
use charm::engine::target::MemoryTarget;
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;
use charm::simnet::noise::{BurstConfig, NoiseModel};
use charm::simnet::presets;

fn main() {
    // --- memory side: the Figure 11 configuration ---------------------
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", vec![4096i64, 8192, 12288, 16384]))
        .factor(Factor::new("nloops", vec![40i64]))
        .replicates(80)
        .build();
    plan.shuffle(3);
    let mut target = MemoryTarget::new(
        "arm-rt",
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedRealtime,
            AllocPolicy::PooledRandomOffset,
            3,
        ),
    );
    let campaign =
        charm::engine::Campaign::new(&plan, &mut target).seed(3).run().expect("campaign").data;

    println!("== scheduler pitfall hunt (ARM, RT policy) ==");
    let windows = pitfalls::temporal_anomalies(&campaign, &["size_bytes"], 1.0);
    for w in &windows {
        println!(
            "  temporal window: measurements {}..{} run at {:.1}x the campaign level",
            w.from_seq, w.to_seq, w.level_ratio
        );
    }
    for cell in pitfalls::bimodal_cells(&campaign, &["size_bytes"]) {
        println!(
            "  bimodal cell size={}: modes {:.0} / {:.0} MB/s, slow share {:.0}%",
            cell.key,
            cell.split.low_center,
            cell.split.high_center,
            100.0 * cell.split.low_fraction
        );
    }
    if windows.is_empty() {
        println!("  (no temporal window hit this seed — rerun with another seed)");
    }

    // --- network side: the §III-2 size-special-casing -----------------
    println!("\n== size-bias hunt (network with hidden 1024-byte fast path) ==");
    let mut sim = presets::taurus_openmpi_tcp(5);
    sim.set_noise(NoiseModel::new(5, 0.02, BurstConfig::off()).with_anomaly(1024, 0.7));
    let grid: Vec<u64> = (8..=13).map(|p| 1u64 << p).collect();
    for probe in pitfalls::probe_size_bias(&mut sim, &grid, 20, 0.1) {
        println!(
            "  grid size {} deviates {:+.0}% from its off-grid neighbours — special-cased path",
            probe.size,
            100.0 * probe.deviation()
        );
    }
    println!("\nan opaque tool reporting means per grid size would have noticed none of this");
}

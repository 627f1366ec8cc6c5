//! Characterize the memory hierarchy of all four Figure 5 CPUs: run the
//! white-box memory campaign on each and instantiate the per-cache-level
//! bandwidth signature the PMaC-style convolver consumes.
//!
//! ```text
//! cargo run --release --example memory_characterization
//! ```

use charm::core::models::MemoryModel;
use charm::core::pipeline::Study;
use charm::design::doe::FullFactorial;
use charm::design::Factor;
use charm::engine::target::MemoryTarget;
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;

fn main() {
    for spec in CpuSpec::all() {
        let caps: Vec<u64> = spec.levels.iter().map(|l| l.size_bytes).collect();
        let max_cap = *caps.last().expect("has caches");

        // size ladder spanning past the last cache level, but bounded by
        // the machine's page pool
        let pool_bytes = spec.page_bytes * spec.pool_pages as u64;
        let mut sizes: Vec<i64> = Vec::new();
        let mut s = 4 * 1024u64;
        while s <= (max_cap * 4).min(pool_bytes / 2) {
            sizes.push(s as i64);
            s = ((s * 3 / 2) & !4095).max(s + 4096);
        }
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", sizes))
            .factor(Factor::new("stride", vec![1i64]))
            .factor(Factor::new("nloops", vec![500i64]))
            .replicates(6)
            .build();
        let name = spec.name;
        let mut target = MemoryTarget::new(
            name,
            MachineSim::new(
                spec,
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::PooledRandomOffset,
                11,
            ),
        );
        let campaign = Study::new(plan).randomized(11).run(&mut target).expect("campaign");
        let model = MemoryModel::fit(&campaign, &caps).expect("model");

        println!("\n{name}");
        for (i, p) in model.plateaus.iter().enumerate() {
            println!(
                "  L{} (≤ {:>7} KiB): {:>7.0} MB/s",
                i + 1,
                p.capacity_bytes / 1024,
                p.bandwidth_mbps
            );
        }
        println!("  DRAM             : {:>7.0} MB/s", model.dram_bandwidth_mbps);
    }
}

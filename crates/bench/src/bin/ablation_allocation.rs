//! Ablation: malloc-per-size vs pooled-random-offset allocation on the
//! ARM (§IV-4 / Figure 12): cross-run reproducibility of the measured
//! bandwidth at the conflict-prone sizes.

use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::kernel::KernelConfig;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;

/// Median bandwidth at `kb` KiB over reps for one run (seed).
fn median_bw(alloc: AllocPolicy, seed: u64, kb: u64, reps: u32) -> f64 {
    let mut m = MachineSim::new(
        CpuSpec::arm_snowball(),
        GovernorPolicy::Performance,
        SchedPolicy::PinnedDefault,
        alloc,
        seed,
    );
    let mut v: Vec<f64> = (0..reps)
        .map(|_| m.run_kernel(&KernelConfig::baseline(kb * 1024, 300)).bandwidth_mbps)
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let args = charm_bench::cli::CommonArgs::parse("", charm_bench::cli::Reads::SHARED);
    let session = charm_bench::profile::Session::from_args(&args);
    let base = args.seed;
    let mut rows = Vec::new();
    println!("cross-run median bandwidth at 24 KiB (the conflict-prone zone), 8 runs:");
    for alloc in [AllocPolicy::MallocPerSize, AllocPolicy::PooledRandomOffset] {
        let medians: Vec<f64> = (0..8).map(|i| median_bw(alloc, base + i, 24, 30)).collect();
        let max = medians.iter().cloned().fold(f64::MIN, f64::max);
        let min = medians.iter().cloned().fold(f64::MAX, f64::min);
        println!(
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
    let csv = charm_core::experiments::plot::csv(
        &["allocator", "min_median_mbps", "max_median_mbps", "cross_run_spread"],
        &rows,
    );
    charm_bench::csvout::artifact("ablation_allocation.csv")
        .meta("generator", "ablation_allocation")
        .meta("seed", base)
        .write(&csv);
    println!("\nmalloc reuse makes each run stable but runs disagree wildly (the Figure 12 trap);\nthe pooled allocator samples many page layouts per run and reproduces across runs");
    session.finish();
}

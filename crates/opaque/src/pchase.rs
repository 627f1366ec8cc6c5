//! PChase-style multi-core memory interference benchmark.
//!
//! Paper §II-C: "PChase also assesses memory latency and bandwidth on
//! multi-socket multi-core systems, captures the interference between
//! CPUs and cores when accessing memory, and ultimately provides a richer
//! model." Like the other opaque tools here, this reimplementation keeps
//! the original reporting style: sweep thread counts in ascending order,
//! print one aggregate mean per count, discard the raw samples.

use crate::report::{AggregatedCell, Welford};
use charm_simmem::kernel::KernelConfig;
use charm_simmem::machine::{MachineSim, PoolExceeded};
use charm_simmem::parallel::run_kernel_parallel;

/// PChase-style configuration.
#[derive(Debug, Clone, Copy)]
pub struct PchaseConfig {
    /// Per-thread buffer size (bytes).
    pub buffer_bytes: u64,
    /// Largest thread count swept (clamped to the machine's cores).
    pub max_threads: u32,
    /// Passes per measurement.
    pub nloops: u64,
    /// Repetitions per thread count.
    pub repetitions: u32,
}

impl Default for PchaseConfig {
    fn default() -> Self {
        PchaseConfig { buffer_bytes: 8 << 20, max_threads: 8, nloops: 8, repetitions: 10 }
    }
}

/// One row of PChase output: thread count vs aggregate bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PchaseRow {
    /// Thread count.
    pub threads: u32,
    /// Aggregated bandwidth cell (x = threads, mean in MB/s).
    pub cell: AggregatedCell,
}

/// Runs the sweep: thread counts `1..=max_threads` in ascending order,
/// or an error when the largest count's buffers do not fit the page pool.
pub fn run(
    machine: &mut MachineSim,
    config: &PchaseConfig,
) -> Result<Vec<PchaseRow>, PoolExceeded> {
    let max_threads = config.max_threads.clamp(1, machine.spec().cores);
    let kcfg = KernelConfig::baseline(config.buffer_bytes, config.nloops);
    let mut rows = Vec::with_capacity(max_threads as usize);
    for threads in 1..=max_threads {
        let mut w = Welford::new();
        for _ in 0..config.repetitions {
            let r = run_kernel_parallel(machine, &kcfg, threads)?;
            w.push(r.measurement.bandwidth_mbps);
        }
        rows.push(PchaseRow { threads, cell: AggregatedCell::from_welford(threads as u64, &w) });
    }
    Ok(rows)
}

/// Scaling efficiency at the largest thread count:
/// `bw(T) / (T · bw(1))` — 1.0 is perfect scaling, low values mean
/// interference.
pub fn scaling_efficiency(rows: &[PchaseRow]) -> f64 {
    let first = rows.first().expect("at least one row");
    let last = rows.last().expect("at least one row");
    last.cell.mean / (last.threads as f64 * first.cell.mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::CpuSpec;
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;

    fn machine(seed: u64) -> MachineSim {
        MachineSim::new(
            CpuSpec::core_i7_2600(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        )
    }

    #[test]
    fn dram_bound_sweep_shows_interference() {
        let mut m = machine(1);
        let rows = run(
            &mut m,
            &PchaseConfig { buffer_bytes: 8 << 20, max_threads: 8, nloops: 4, repetitions: 3 },
        )
        .unwrap();
        assert_eq!(rows.len(), 8);
        let eff = scaling_efficiency(&rows);
        assert!(eff < 0.6, "DRAM-bound scaling efficiency should collapse: {eff}");
        // aggregate bandwidth still weakly grows or saturates, never
        // collapses below the single-thread rate
        assert!(rows.last().unwrap().cell.mean > 0.8 * rows[0].cell.mean);
    }

    #[test]
    fn cache_resident_sweep_scales() {
        let mut m = machine(2);
        let rows = run(
            &mut m,
            &PchaseConfig { buffer_bytes: 8 * 1024, max_threads: 4, nloops: 200, repetitions: 3 },
        )
        .unwrap();
        let eff = scaling_efficiency(&rows);
        assert!(eff > 0.8, "L1-resident scaling efficiency should be high: {eff}");
    }

    #[test]
    fn thread_counts_ascend() {
        let mut m = machine(3);
        let rows = run(
            &mut m,
            &PchaseConfig { buffer_bytes: 64 * 1024, max_threads: 5, nloops: 10, repetitions: 2 },
        )
        .unwrap();
        let counts: Vec<u32> = rows.iter().map(|r| r.threads).collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 5]);
    }
}

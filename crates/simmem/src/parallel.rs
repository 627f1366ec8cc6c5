//! Multi-core memory interference.
//!
//! Paper §II-C on PChase: it "assesses memory latency and bandwidth on
//! multi-socket multi-core systems, captures the interference between
//! CPUs and cores when accessing memory, and ultimately provides a richer
//! model". The paper's own investigation retreated to the single-thread
//! case ("we restrict our investigation … for a single-threaded program")
//! after the pitfalls piled up — this module implements the machinery the
//! authors *aimed* for, over the same substrate:
//!
//! * each thread runs the kernel on its own buffer, pinned to its core;
//! * private cache levels behave as in the single-threaded model;
//! * **shared** levels ([`crate::machine::CpuSpec::first_shared_level`])
//!   have their capacity competitively partitioned across threads;
//! * DRAM bandwidth is shared: concurrent miss streams beyond the
//!   machine's channel count stretch every DRAM stall proportionally.

use crate::kernel::{KernelConfig, KernelResult};
use crate::layout::{profile_segments, PatternSegment};
use crate::machine::{CacheLevelSpec, MachineSim, PoolExceeded};
use crate::memo::ProfileKey;

/// Result of a parallel kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelResult {
    /// The timed measurement (bandwidth aggregated over all threads).
    pub measurement: KernelResult,
    /// Threads that actually ran (clamped to the core count).
    pub threads: u32,
    /// Per-thread cycle counts (before governor/scheduler effects).
    pub per_thread_cycles: Vec<f64>,
}

impl ParallelResult {}

/// Levels as one thread sees them with `threads` active: shared levels
/// shrink to their competitive share.
fn effective_levels(
    levels: &[CacheLevelSpec],
    first_shared: Option<usize>,
    threads: u32,
) -> Vec<CacheLevelSpec> {
    levels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut eff = *l;
            if let Some(fs) = first_shared {
                if i >= fs && threads > 1 {
                    // competitive partitioning: capacity share shrinks;
                    // geometry stays valid by dividing the sets
                    let share = (l.size_bytes / threads as u64).max(l.assoc as u64 * l.line_bytes);
                    // round down to a power-of-two multiple of one way row
                    let way_row = l.assoc as u64 * l.line_bytes;
                    eff.size_bytes = (share / way_row).max(1) * way_row;
                }
            }
            eff
        })
        .collect()
}

/// Runs the Figure 6 kernel on `threads` cores simultaneously (one
/// private buffer each) and returns the aggregate measurement, or an
/// error when the threads' buffers together do not fit the page pool.
pub fn run_kernel_parallel(
    machine: &mut MachineSim,
    cfg: &KernelConfig,
    threads: u32,
) -> Result<ParallelResult, PoolExceeded> {
    assert!(cfg.nloops >= 1, "nloops must be >= 1");
    let threads = threads.clamp(1, machine.spec().cores);
    let alloc_bytes = machine.working_set(threads as u64, cfg.buffer_bytes)?;
    let spec = machine.spec().clone();
    let levels = effective_levels(&spec.levels, spec.first_shared_level, threads);
    // DRAM contention: streams beyond the channel count stretch stalls
    let contention = (threads as f64 / spec.dram_channels as f64).max(1.0);
    let dram_latency = spec.dram_latency_cycles * contention;

    // all buffers from one allocation so the layout policy applies to the
    // union of the threads' working sets; the RNG draw happens whether or
    // not the per-thread profiles are cached
    let placement = machine.draw_placement(alloc_bytes);
    let pages_per_thread = cfg.buffer_bytes.div_ceil(spec.page_bytes) as usize;
    let issue = spec.issue.cycles_per_access(cfg.codegen);

    let mut per_thread_cycles = Vec::with_capacity(threads as usize);
    for t in 0..threads as usize {
        let key = ProfileKey {
            placement,
            buffer_bytes: cfg.buffer_bytes,
            stride_elems: cfg.stride_elems,
            elem_bytes: cfg.codegen.width.bytes(),
            segment: t as u32,
            // the effective (contention-shrunk) geometry is a function of
            // the thread count, so keying by it keeps thread counts apart
            arrays: threads,
        };
        let levels_ref = &levels;
        let profile = machine.cached_profile(key, alloc_bytes, |_, pages, scratch| {
            let slice = &pages[t * pages_per_thread..(t + 1) * pages_per_thread];
            profile_segments(
                &[PatternSegment { phys_pages: slice, buffer_bytes: cfg.buffer_bytes }],
                spec.page_bytes,
                cfg.codegen.width.bytes(),
                cfg.stride_elems,
                spec.levels[0].line_bytes,
                levels_ref,
                scratch,
            )
        });
        per_thread_cycles.push(profile.total_cycles(
            cfg.nloops,
            issue,
            &levels,
            dram_latency,
            spec.overlap_factor,
        ));
    }
    // the run finishes when the slowest thread does
    let max_cycles = per_thread_cycles.iter().cloned().fold(0.0, f64::max);
    let bytes = threads as f64
        * cfg.accesses_per_pass() as f64
        * cfg.nloops as f64
        * cfg.codegen.width.bytes() as f64;
    let measurement = machine.execute_cycles(max_cycles, bytes);
    Ok(ParallelResult { measurement, threads, per_thread_cycles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::GovernorPolicy;
    use crate::machine::CpuSpec;
    use crate::paging::AllocPolicy;
    use crate::sched::SchedPolicy;

    fn machine(spec: CpuSpec, seed: u64) -> MachineSim {
        MachineSim::new(
            spec,
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        )
    }

    #[test]
    fn cache_resident_work_scales_linearly() {
        // 8 KiB per thread on the i7: private L1 resident, no contention
        let mut m = machine(CpuSpec::core_i7_2600(), 1);
        let cfg = KernelConfig::baseline(8 * 1024, 400);
        let one = run_kernel_parallel(&mut m, &cfg, 1).unwrap().measurement.bandwidth_mbps;
        let four = run_kernel_parallel(&mut m, &cfg, 4).unwrap().measurement.bandwidth_mbps;
        let scaling = four / one;
        assert!((3.2..=4.8).contains(&scaling), "L1-resident scaling {scaling}");
    }

    #[test]
    fn dram_bound_work_saturates() {
        // 16 MiB per thread: DRAM-bound; 2 channels on the i7 -> beyond 2
        // threads aggregate bandwidth stops growing
        let mut m = machine(CpuSpec::core_i7_2600(), 2);
        let cfg = KernelConfig::baseline(16 << 20, 4);
        let two = run_kernel_parallel(&mut m, &cfg, 2).unwrap().measurement.bandwidth_mbps;
        let eight = run_kernel_parallel(&mut m, &cfg, 8).unwrap().measurement.bandwidth_mbps;
        assert!(eight < 1.3 * two, "DRAM-bound aggregate should saturate: 2T {two} vs 8T {eight}");
    }

    #[test]
    fn shared_l3_capacity_contention() {
        // 1.5 MiB per thread: fits the 8 MiB L3 alone, but 8 threads need
        // 12 MiB -> shared-level thrash degrades per-thread bandwidth
        let mut m = machine(CpuSpec::core_i7_2600(), 3);
        let cfg = KernelConfig::baseline(1536 * 1024, 20);
        let per_thread = |r: ParallelResult| r.measurement.bandwidth_mbps / r.threads as f64;
        let solo = per_thread(run_kernel_parallel(&mut m, &cfg, 1).unwrap());
        let crowded = per_thread(run_kernel_parallel(&mut m, &cfg, 8).unwrap());
        assert!(
            crowded < 0.7 * solo,
            "shared-L3 contention missing: solo {solo} vs crowded {crowded}"
        );
    }

    #[test]
    fn buffers_filling_the_page_pool_run_and_one_page_more_is_an_error() {
        let mut m = machine(CpuSpec::arm_snowball(), 6);
        let (pool, page) = (m.max_buffer_bytes(), m.spec().page_bytes);
        for threads in [1u32, 2] {
            let exact = pool / threads as u64;
            let run = |m: &mut MachineSim, bytes| {
                run_kernel_parallel(m, &KernelConfig::baseline(bytes, 1), threads)
            };
            assert_eq!(run(&mut m, exact).unwrap().threads, threads);
            let err = run(&mut m, exact + page).unwrap_err();
            let buffers = threads as u64;
            assert_eq!(err, PoolExceeded { buffers, buffer_bytes: exact + page, pool_bytes: pool });
        }
        // a buffer that is not a whole number of pages takes whole pages
        let r = run_kernel_parallel(&mut m, &KernelConfig::baseline(page + 1, 1), 2).unwrap();
        assert_eq!(r.per_thread_cycles.len(), 2);
    }

    #[test]
    fn thread_count_clamped_to_cores() {
        let mut m = machine(CpuSpec::arm_snowball(), 4);
        let cfg = KernelConfig::baseline(8 * 1024, 10);
        let r = run_kernel_parallel(&mut m, &cfg, 64).unwrap();
        assert_eq!(r.threads, 2);
        assert_eq!(r.per_thread_cycles.len(), 2);
    }

    #[test]
    fn effective_levels_preserve_geometry() {
        let spec = CpuSpec::core_i7_2600();
        let eff = effective_levels(&spec.levels, spec.first_shared_level, 8);
        // private levels untouched
        assert_eq!(eff[0].size_bytes, spec.levels[0].size_bytes);
        assert_eq!(eff[1].size_bytes, spec.levels[1].size_bytes);
        // shared L3 shrunk to ~1/8, still a valid geometry
        assert_eq!(eff[2].size_bytes, 1 << 20);
        assert_eq!(eff[2].size_bytes % (eff[2].assoc as u64 * eff[2].line_bytes), 0);
        // single thread: unchanged
        let eff1 = effective_levels(&spec.levels, spec.first_shared_level, 1);
        assert_eq!(eff1[2].size_bytes, spec.levels[2].size_bytes);
    }

    #[test]
    fn single_thread_matches_run_kernel_shape() {
        // parallel with 1 thread ≈ the plain kernel (same cycle model,
        // different RNG draws only)
        let cfg = KernelConfig::baseline(64 * 1024, 100);
        let mut a = machine(CpuSpec::opteron(), 5);
        let mut b = machine(CpuSpec::opteron(), 5);
        let plain = a.run_kernel(&cfg).bandwidth_mbps;
        let par = run_kernel_parallel(&mut b, &cfg, 1).unwrap().measurement.bandwidth_mbps;
        let ratio = par / plain;
        assert!((0.9..1.1).contains(&ratio), "plain {plain} vs parallel-1 {par}");
    }
}

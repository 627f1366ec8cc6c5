//! The classic STREAM kernel family over the substrate.
//!
//! STREAM (McCalpin 1995, the paper's ref. 23) defines four kernels — Copy,
//! Scale, Add, Triad — each touching two or three arrays per element; the
//! paper's MultiMAPS descends from the single-array read Sum. This module
//! generalizes the substrate's access model to multi-array kernels:
//!
//! * each kernel owns `n_arrays` equally-sized buffers, allocated
//!   contiguously from the machine's page pool (so physical-page effects
//!   apply to all of them);
//! * the per-set cyclic-LRU analysis runs on the *union* of the arrays'
//!   lines — streams from different arrays compete for the same sets,
//!   which is how real STREAM loses to conflict misses on
//!   low-associativity caches;
//! * written arrays pay a write-allocate fetch plus an eviction
//!   write-back, modelled as 1.5× the read stall for written lines.

use crate::compiler::CodegenConfig;
use crate::kernel::KernelResult;
use crate::layout::{profile_segments, PatternSegment};
use crate::machine::MachineSim;
use crate::memo::{ProfileKey, SEGMENT_MERGED};

/// One of the STREAM kernels (plus the paper's single-array Sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `s += a[i]` — the Figure 6 kernel; 1 array, read-only.
    Sum,
    /// `c[i] = a[i]` — 2 arrays, 1 written.
    Copy,
    /// `b[i] = q·c[i]` — 2 arrays, 1 written.
    Scale,
    /// `c[i] = a[i] + b[i]` — 3 arrays, 1 written.
    Add,
    /// `a[i] = b[i] + q·c[i]` — 3 arrays, 1 written.
    Triad,
}

impl StreamKernel {
    /// Number of arrays the kernel touches.
    pub(crate) fn n_arrays(self) -> u64 {
        match self {
            StreamKernel::Sum => 1,
            StreamKernel::Copy | StreamKernel::Scale => 2,
            StreamKernel::Add | StreamKernel::Triad => 3,
        }
    }

    /// Number of written arrays.
    pub(crate) fn n_written(self) -> u64 {
        match self {
            StreamKernel::Sum => 0,
            _ => 1,
        }
    }

    /// Name as STREAM reports it.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Sum => "sum",
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }
}

/// Configuration of a STREAM-kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRunConfig {
    /// Size of *each* array (bytes).
    pub array_bytes: u64,
    /// The kernel.
    pub kernel: StreamKernel,
    /// Element width / unrolling.
    pub codegen: CodegenConfig,
    /// Timed passes.
    pub nloops: u64,
}

/// Runs a STREAM kernel on the machine and returns the measurement with
/// the STREAM bandwidth convention (`n_arrays · array_bytes` moved per
/// pass).
pub fn run_stream(machine: &mut MachineSim, cfg: &StreamRunConfig) -> KernelResult {
    assert!(cfg.nloops >= 1, "nloops must be >= 1");
    let n_arrays = cfg.kernel.n_arrays();
    let spec_page = machine.spec().page_bytes;
    let line = machine.spec().levels[0].line_bytes;
    let elem = cfg.codegen.width.bytes();

    // one contiguous allocation split into the arrays, so MallocPerSize
    // reuse semantics apply to the whole working set; the RNG draw
    // happens here whether or not the profile is cached
    let alloc_bytes = n_arrays * cfg.array_bytes;
    let placement = machine.draw_placement(alloc_bytes);
    let pages_per_array = cfg.array_bytes.div_ceil(spec_page) as usize;

    let key = ProfileKey {
        placement,
        buffer_bytes: cfg.array_bytes,
        stride_elems: 1,
        elem_bytes: elem,
        segment: SEGMENT_MERGED,
        arrays: n_arrays as u32,
        levels: machine.levels_key(),
    };
    let profile = machine.cached_profile(key, alloc_bytes, |spec, total_pages, scratch| {
        // union of the arrays' line sets
        let segments: Vec<PatternSegment<'_>> = (0..n_arrays as usize)
            .map(|a| PatternSegment {
                phys_pages: &total_pages[a * pages_per_array..(a + 1) * pages_per_array],
                buffer_bytes: cfg.array_bytes,
            })
            .collect();
        profile_segments(&segments, spec_page, elem, 1, line, &spec.levels, scratch)
    });
    let issue = machine.spec().issue.cycles_per_access(cfg.codegen);
    // written lines pay write-allocate + write-back: model as a 1.5x
    // weight on the fraction of lines belonging to written arrays
    let write_fraction = cfg.kernel.n_written() as f64 / n_arrays as f64;
    let stall_weight = 1.0 + 0.5 * write_fraction;
    let base_cycles = profile.total_cycles(
        cfg.nloops,
        issue,
        &machine.spec().levels,
        machine.spec().dram_latency_cycles,
        machine.spec().overlap_factor,
    );
    let issue_only = profile.accesses_per_pass as f64 * issue * cfg.nloops as f64;
    let stall_cycles = (base_cycles - issue_only).max(0.0) * stall_weight;
    let cycles = issue_only + stall_cycles;

    let bytes = profile.accesses_per_pass as f64 * elem as f64 * cfg.nloops as f64;
    machine.execute_cycles(cycles, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::ElementWidth;
    use crate::dvfs::GovernorPolicy;
    use crate::machine::{CpuSpec, MachineSim};
    use crate::paging::AllocPolicy;
    use crate::sched::SchedPolicy;

    fn machine(seed: u64) -> MachineSim {
        MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        )
    }

    fn cfg(kernel: StreamKernel, array_kb: u64) -> StreamRunConfig {
        StreamRunConfig {
            array_bytes: array_kb * 1024,
            kernel,
            codegen: CodegenConfig::new(ElementWidth::W64, true),
            nloops: 50,
        }
    }

    #[test]
    fn kernel_metadata() {
        assert_eq!(StreamKernel::Sum.n_arrays(), 1);
        assert_eq!(StreamKernel::Copy.n_arrays(), 2);
        assert_eq!(StreamKernel::Triad.n_arrays(), 3);
        assert_eq!(StreamKernel::Triad.n_written(), 1);
    }

    #[test]
    fn all_kernels_run_and_report_positive_bandwidth() {
        let mut m = machine(1);
        for k in [
            StreamKernel::Sum,
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ] {
            let r = run_stream(&mut m, &cfg(k, 2048));
            assert!(r.bandwidth_mbps > 0.0 && r.bandwidth_mbps.is_finite(), "{k:?}");
        }
    }

    #[test]
    fn writes_cost_more_than_reads_dram_resident() {
        // same total traffic volume: Sum over 4 MiB vs Copy over 2x2 MiB;
        // Copy writes half its lines -> lower bandwidth
        let mut m = machine(2);
        let sum = run_stream(&mut m, &cfg(StreamKernel::Sum, 4096));
        let copy = run_stream(&mut m, &cfg(StreamKernel::Copy, 2048));
        assert!(
            copy.bandwidth_mbps < 0.95 * sum.bandwidth_mbps,
            "write-allocate should cost: sum {} vs copy {}",
            sum.bandwidth_mbps,
            copy.bandwidth_mbps
        );
    }

    #[test]
    fn triad_and_add_equal_traffic() {
        let mut m = machine(3);
        let add = run_stream(&mut m, &cfg(StreamKernel::Add, 2048));
        let triad = run_stream(&mut m, &cfg(StreamKernel::Triad, 2048));
        let ratio = add.bandwidth_mbps / triad.bandwidth_mbps;
        assert!(
            (0.8..1.25).contains(&ratio),
            "add {} vs triad {}",
            add.bandwidth_mbps,
            triad.bandwidth_mbps
        );
    }

    #[test]
    fn combined_working_set_decides_the_cache_level() {
        // three 28 KiB arrays = 84 KiB total > 64 KiB L1: Triad misses
        // where Sum (28 KiB) still fits
        let mut m = machine(4);
        let sum = run_stream(&mut m, &cfg(StreamKernel::Sum, 28));
        let triad = run_stream(&mut m, &cfg(StreamKernel::Triad, 28));
        assert!(
            sum.bandwidth_mbps > 1.2 * triad.bandwidth_mbps,
            "sum {} vs triad {}",
            sum.bandwidth_mbps,
            triad.bandwidth_mbps
        );
    }

    #[test]
    fn in_cache_streams_hit_regardless_of_kernel() {
        // tiny arrays: everything L1-resident, bandwidth ~ issue-limited,
        // equal for all kernels
        let mut m = machine(5);
        let copy = run_stream(&mut m, &cfg(StreamKernel::Copy, 4));
        let add = run_stream(&mut m, &cfg(StreamKernel::Add, 4));
        let ratio = copy.bandwidth_mbps / add.bandwidth_mbps;
        assert!(
            (0.85..1.18).contains(&ratio),
            "copy {} vs add {}",
            copy.bandwidth_mbps,
            add.bandwidth_mbps
        );
    }
}

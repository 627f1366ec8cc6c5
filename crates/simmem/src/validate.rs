//! Cross-validation of the analytic fast path against the exact LRU
//! simulator.
//!
//! The benchmarks trust the closed-form cyclic-LRU model on multi-megabyte
//! buffers because it provably matches the reference simulator on small
//! ones. Tests exercise that equivalence for the shipped presets; this
//! module exposes the same check as a public API so that anyone adding a
//! custom [`crate::machine::CpuSpec`] can verify the analytic model holds
//! for *their* geometry before relying on sweep results.

use crate::cache::{Access, SetAssocCache};
use crate::layout::{
    profile_segments, reference, PatternSegment, PhysicalPattern, ProfileScratch, RunGeometry,
};
use crate::machine::{CacheLevelSpec, CpuSpec};
use crate::memo::PlacementKey;
use crate::paging::{AllocPolicy, PageAllocator};

/// Outcome of one validation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Validation {
    /// Steady-pass misses the analytic model predicts.
    pub analytic_misses: u64,
    /// Steady-pass misses the exact LRU simulator observed (averaged over
    /// the simulated steady passes; exact for cyclic patterns).
    pub simulated_misses: u64,
}

impl Validation {
    /// Whether analytic and simulated counts agree exactly.
    pub fn agrees(&self) -> bool {
        self.analytic_misses == self.simulated_misses
    }
}

/// Validates the analytic steady-state model for one cache level and one
/// access pattern: simulates `steady_passes` passes after a warm pass on
/// the exact LRU simulator and compares per-pass miss counts.
///
/// # Panics
/// Panics if the geometry is invalid (same rules as
/// [`SetAssocCache::new`]) or `steady_passes == 0`.
pub fn validate_level(
    level: &CacheLevelSpec,
    phys_pages: &[u64],
    page_bytes: u64,
    elem_bytes: u64,
    stride_elems: u64,
    buffer_bytes: u64,
    steady_passes: u32,
) -> Validation {
    assert!(steady_passes > 0, "need at least one steady pass");
    let pattern = PhysicalPattern::resolve(
        phys_pages,
        page_bytes,
        elem_bytes,
        stride_elems,
        buffer_bytes,
        level.line_bytes,
    );
    let analytic = pattern.steady_misses(level);

    let mut sim = SetAssocCache::new(level.size_bytes, level.assoc, level.line_bytes);
    let stride_bytes = stride_elems * elem_bytes;
    let accesses = pattern.accesses_per_pass();
    let addr = |i: u64| {
        let off = i * stride_bytes;
        phys_pages[(off / page_bytes) as usize] * page_bytes + off % page_bytes
    };
    // warm pass
    for i in 0..accesses {
        sim.access(addr(i));
    }
    // steady passes
    let mut misses = 0u64;
    for _ in 0..steady_passes {
        for i in 0..accesses {
            if sim.access(addr(i)) == Access::Miss {
                misses += 1;
            }
        }
    }
    Validation { analytic_misses: analytic, simulated_misses: misses / steady_passes as u64 }
}

/// Validates every cache level of a spec over a grid of buffer sizes and
/// strides with identity paging, returning the first disagreement (if
/// any). Buffer sizes are chosen around each level's capacity, where the
/// model has the most to get wrong.
pub fn validate_spec(spec: &crate::machine::CpuSpec) -> Option<(usize, u64, u64, Validation)> {
    for (li, level) in spec.levels.iter().enumerate() {
        let cap = level.size_bytes;
        for &buffer in &[cap / 2, cap, cap + cap / 4, 2 * cap] {
            // keep validation cheap: cap the simulated buffer at 1 MiB
            let buffer = buffer.min(1 << 20).max(spec.page_bytes);
            for &stride in &[1u64, 2, 8] {
                let pages: Vec<u64> = (0..buffer.div_ceil(spec.page_bytes)).collect();
                let v = validate_level(level, &pages, spec.page_bytes, 4, stride, buffer, 2);
                if !v.agrees() {
                    return Some((li, buffer, stride, v));
                }
            }
        }
    }
    None
}

/// Validates the optimised resolve/profile paths against the kept
/// pre-optimisation implementations ([`mod@reference`]) for a spec: over the
/// same size/stride grid as [`validate_spec`], plus one buffer that is
/// not a whole number of pages, with both identity and
/// scrambled paging, the O(lines) resolve must produce the exact line
/// list of the per-access loop, and [`profile_segments`] the exact
/// profile of the per-level-mask computation. Returns the first
/// disagreement as `(buffer, stride, what)`.
pub fn validate_fast_path(spec: &crate::machine::CpuSpec) -> Option<(u64, u64, &'static str)> {
    let mut scratch = ProfileScratch::default();
    let max_cap = spec.levels.iter().map(|l| l.size_bytes).max().unwrap_or(spec.page_bytes);
    // ends inside a page, so the buffer's last page is partial
    let mid_page = max_cap.min(1 << 19) * 5 / 4 + spec.page_bytes / 2 + 20;
    for &buffer in &[max_cap / 2, max_cap, max_cap + max_cap / 4, 2 * max_cap, mid_page] {
        let buffer = buffer.min(1 << 20).max(spec.page_bytes);
        for &stride in &[1u64, 2, 8, 32] {
            let n_pages = buffer.div_ceil(spec.page_bytes);
            let identity: Vec<u64> = (0..n_pages).collect();
            let scrambled: Vec<u64> = (0..n_pages).map(|v| (v * 7 + 3) % n_pages.max(1)).collect();
            for pages in [&identity, &scrambled] {
                let line = spec.levels[0].line_bytes;
                let fast =
                    PhysicalPattern::resolve(pages, spec.page_bytes, 4, stride, buffer, line);
                let slow = reference::resolve(pages, spec.page_bytes, 4, stride, buffer, line);
                if fast.line_addrs() != slow.line_addrs()
                    || fast.accesses_per_pass() != slow.accesses_per_pass()
                {
                    return Some((buffer, stride, "resolve"));
                }
                let fused = profile_segments(
                    &[PatternSegment { phys_pages: pages, buffer_bytes: buffer }],
                    spec.page_bytes,
                    4,
                    stride,
                    line,
                    &spec.levels,
                    &mut scratch,
                );
                if fused != reference::compute(&slow, &spec.levels) {
                    return Some((buffer, stride, "profile"));
                }
            }
        }
    }
    None
}

/// Validates the pooled placement path for a spec: on a pool of the
/// spec's `pool_pages` shuffled under `seed`, the `buffer_bytes` slice
/// starting at pool offset `start` (offset 0 is where every
/// `MallocPerSize` buffer lands) must get the page walk's colour-block
/// counts ([`reference::block_counts`]) from the pool's block table, and
/// the profile built from them must equal both [`profile_segments`] over
/// the slice's pages and [`reference::compute`] over
/// [`reference::resolve`]. Returns what disagreed first; `None` also when
/// the spec's geometry has no block-table path.
///
/// # Panics
/// Panics when the slice runs past the pool.
pub fn validate_pool_slice(
    spec: &CpuSpec,
    seed: u64,
    start: usize,
    buffer_bytes: u64,
    stride_elems: u64,
) -> Option<&'static str> {
    let line = spec.levels[0].line_bytes;
    let geometry = RunGeometry::new(&spec.levels, spec.page_bytes, line)?;
    let n_blocks = geometry.n_blocks();
    let pool =
        PageAllocator::new(AllocPolicy::MallocPerSize, spec.page_bytes, spec.pool_pages, seed);
    let placement = PlacementKey::PooledStart(start as u64);
    let pages = pool.pages(placement, buffer_bytes);
    let mut blocks = vec![0u64; n_blocks];
    pool.add_block_counts(placement, pages.len(), n_blocks, &mut blocks);
    if blocks != reference::block_counts(pages, n_blocks as u64) {
        return Some("block counts");
    }
    let mut scratch = ProfileScratch::default();
    let table =
        geometry.profile_pool_slice(&pool, placement, buffer_bytes, 4, stride_elems, &mut scratch);
    let walked = profile_segments(
        &[PatternSegment { phys_pages: pages, buffer_bytes }],
        spec.page_bytes,
        4,
        stride_elems,
        line,
        &spec.levels,
        &mut scratch,
    );
    if table.is_some_and(|t| t != walked) {
        return Some("profile vs page walk");
    }
    let slow = reference::resolve(pages, spec.page_bytes, 4, stride_elems, buffer_bytes, line);
    if walked != reference::compute(&slow, &spec.levels) {
        return Some("profile vs reference");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CpuSpec;

    #[test]
    fn fast_paths_match_reference_on_all_presets() {
        for spec in CpuSpec::all() {
            assert_eq!(validate_fast_path(&spec), None, "fast path diverges on {}", spec.name);
        }
    }

    #[test]
    fn all_shipped_presets_validate() {
        for spec in CpuSpec::all() {
            assert_eq!(validate_spec(&spec), None, "analytic model diverges on {}", spec.name);
        }
    }

    #[test]
    fn validation_detects_agreement_on_simple_case() {
        let level =
            CacheLevelSpec { size_bytes: 8192, assoc: 2, line_bytes: 64, hit_latency_cycles: 4.0 };
        let pages: Vec<u64> = (0..4).collect();
        let v = validate_level(&level, &pages, 4096, 4, 1, 16384, 3);
        assert!(v.agrees());
        // 16 KiB over an 8 KiB cache: full thrash, miss per line per pass
        assert_eq!(v.analytic_misses, 256);
    }

    #[test]
    fn scrambled_pages_still_agree() {
        let level = CacheLevelSpec {
            size_bytes: 32 * 1024,
            assoc: 4,
            line_bytes: 32,
            hit_latency_cycles: 4.0,
        };
        for seed in 0..5u64 {
            let pages: Vec<u64> = (0..8).map(|v| (v * 7 + seed * 13) % 64).collect();
            let v = validate_level(&level, &pages, 4096, 4, 1, 8 * 4096, 2);
            assert!(v.agrees(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "steady pass")]
    fn zero_passes_rejected() {
        let level =
            CacheLevelSpec { size_bytes: 8192, assoc: 2, line_bytes: 64, hit_latency_cycles: 4.0 };
        validate_level(&level, &[0], 4096, 4, 1, 4096, 0);
    }
}

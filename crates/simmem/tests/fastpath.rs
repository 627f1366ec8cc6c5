//! Bit-identity of the optimised hot path against the pre-change
//! reference implementations.
//!
//! Three claims are property-tested here, matching the memoization
//! contract of `DESIGN.md` §13:
//!
//! 1. the O(lines) `resolve` and the fused/run-based `profile_segments`
//!    produce *exactly* the line lists and profiles of the kept
//!    [`charm_simmem::layout::reference`] oracle, across arbitrary
//!    geometries (including non-dividing line sizes and `line == page`
//!    duplicate-page corners that force the general path);
//! 2. the profile cache at any capacity — including 0, which disables
//!    it — never changes a [`KernelResult`] bit or an `Observation`
//!    counter, for plain, stream, and parallel kernels;
//! 3. `ideal_bandwidth_mbps` memoization returns bit-identical values on
//!    repeated calls and against an uncached machine;
//! 4. a pooled buffer's colour-block counts, read from the pool's block
//!    table instead of walking its pages, equal the page walk's
//!    ([`charm_simmem::layout::reference::block_counts`]) and give the
//!    profile of `profile_segments` and of the reference oracle, for
//!    slices of any length anywhere in every preset's pool, its first
//!    and last page included.

use charm_simmem::compiler::{CodegenConfig, ElementWidth};
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::kernel::{KernelConfig, KernelResult};
use charm_simmem::layout::{
    profile_segments, reference, PatternSegment, PhysicalPattern, ProfileScratch,
};
use charm_simmem::machine::{CacheLevelSpec, CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::parallel::run_kernel_parallel;
use charm_simmem::sched::SchedPolicy;
use charm_simmem::stream_kernels::{run_stream, StreamKernel, StreamRunConfig};
use charm_simmem::validate::validate_pool_slice;
use proptest::prelude::*;

fn assert_results_bit_identical(a: &KernelResult, b: &KernelResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.elapsed_us.to_bits(), b.elapsed_us.to_bits());
    prop_assert_eq!(a.bandwidth_mbps.to_bits(), b.bandwidth_mbps.to_bits());
    prop_assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
    prop_assert_eq!(a.max_freq_fraction.to_bits(), b.max_freq_fraction.to_bits());
    prop_assert_eq!(a.intruded, b.intruded);
    prop_assert_eq!(a.sequence, b.sequence);
    Ok(())
}

fn spec_by_index(i: usize) -> CpuSpec {
    let mut all = CpuSpec::all();
    all.swap_remove(i % all.len())
}

fn machine(spec: CpuSpec, policy: AllocPolicy, seed: u64) -> MachineSim {
    MachineSim::new(spec, GovernorPolicy::Performance, SchedPolicy::PinnedDefault, policy, seed)
}

proptest! {
    #[test]
    fn resolve_matches_reference(
        page_values in prop::collection::vec(0u64..8, 1..24),
        stride in 1u64..80,
        elem_pow in 0u32..4,
        line_idx in 0usize..4,
        fill in 1u64..=100,
    ) {
        let page = 1024u64;
        // 96 does not divide the page; 1024 == page (dup-page corner)
        let line = [32u64, 64, 96, 1024][line_idx];
        let elem = 1u64 << elem_pow;
        let buffer = (page_values.len() as u64 * page) * fill / 100;
        let fast = PhysicalPattern::resolve(&page_values, page, elem, stride, buffer, line);
        let slow = reference::resolve(&page_values, page, elem, stride, buffer, line);
        prop_assert_eq!(fast.accesses_per_pass(), slow.accesses_per_pass());
        prop_assert_eq!(fast.line_addrs(), slow.line_addrs());
        prop_assert_eq!(fast.distinct_lines(), slow.distinct_lines());
    }

    #[test]
    fn profile_segments_matches_reference(
        seg_lens in prop::collection::vec(1usize..12, 1..4),
        tails in prop::collection::vec(1u64..=1024, 3),
        stride in 1u64..8,
        assoc_a in 1usize..5,
        assoc_b in 2usize..9,
        sets_pow in 2u32..7,
        line_pow in 5u32..7,
        odd_geometry in any::<bool>(),
        shared_last_block in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let page = 1024u64;
        // 16 or 32 lines per page: with 4..128 L1 sets and 16..512 L2
        // sets that covers levels with fewer sets than lines per page,
        // and (32-byte lines, 4-set L1) a largest set count below it.
        let line = 1u64 << line_pow;
        // odd_geometry forces the materialising fallback (assoc 3 on a
        // 3-set cache and a mismatched deeper line size); otherwise both
        // levels are power-of-two and eligible for the run-based path.
        let sets_a = 1u64 << sets_pow;
        let levels = if odd_geometry {
            vec![
                CacheLevelSpec {
                    size_bytes: 3 * assoc_a as u64 * line,
                    assoc: assoc_a,
                    line_bytes: line,
                    hit_latency_cycles: 3.0,
                },
                CacheLevelSpec {
                    size_bytes: 64 * assoc_b as u64 * 128,
                    assoc: assoc_b,
                    line_bytes: 128,
                    hit_latency_cycles: 14.0,
                },
            ]
        } else {
            vec![
                CacheLevelSpec {
                    size_bytes: sets_a * assoc_a as u64 * line,
                    assoc: assoc_a,
                    line_bytes: line,
                    hit_latency_cycles: 3.0,
                },
                CacheLevelSpec {
                    size_bytes: 4 * sets_a * assoc_b as u64 * line,
                    assoc: assoc_b,
                    line_bytes: line,
                    hit_latency_cycles: 14.0,
                },
            ]
        };
        // scrambled page numbers, duplicates across segments allowed
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut pages: Vec<Vec<u64>> =
            seg_lens.iter().map(|&n| (0..n).map(|_| next() % 64).collect()).collect();
        // Every colour block count divides 64, so shifting by multiples
        // of 64 moves each segment's last (partial) page into the first
        // segment's block without repeating a page.
        if shared_last_block {
            let first_last = *pages[0].last().unwrap();
            for (i, p) in pages.iter_mut().enumerate().skip(1) {
                *p.last_mut().unwrap() = first_last + 64 * i as u64;
            }
        }
        // buffers end anywhere inside their last page, so most segments
        // have a partial last page
        let segments: Vec<PatternSegment<'_>> = pages
            .iter()
            .zip(&tails)
            .map(|(p, &tail)| PatternSegment {
                phys_pages: p,
                buffer_bytes: (p.len() as u64 - 1) * page + tail,
            })
            .collect();

        let mut scratch = ProfileScratch::default();
        let fast = profile_segments(&segments, page, 4, stride, line, &levels, &mut scratch);

        let mut merged = reference::resolve(&pages[0], page, 4, stride, segments[0].buffer_bytes, line);
        for (p, s) in pages.iter().zip(&segments).skip(1) {
            merged.merge(reference::resolve(p, page, 4, stride, s.buffer_bytes, line));
        }
        let slow = reference::compute(&merged, &levels);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn pool_slices_count_and_profile_like_the_page_walk(
        spec_idx in 0usize..4,
        seed in any::<u64>(),
        pages in 1usize..700,
        tail in 1u64..=4096,
        edge in 0usize..3,
        offset in any::<u64>(),
        stride in 1u64..20,
    ) {
        let spec = spec_by_index(spec_idx);
        let pages = pages.min(spec.pool_pages);
        // a buffer ending anywhere inside its last page
        let buffer_bytes = (pages as u64 - 1) * spec.page_bytes + tail.min(spec.page_bytes);
        let last_start = spec.pool_pages - pages;
        // edge 0: the pool's first page (every `MallocPerSize` slice);
        // edge 1: its last page; else anywhere in between
        let start = match edge {
            0 => 0,
            1 => last_start,
            _ => (offset % (last_start as u64 + 1)) as usize,
        };
        prop_assert_eq!(
            validate_pool_slice(&spec, seed, start, buffer_bytes, stride),
            None,
            "{} start {} bytes {} stride {}", spec.name, start, buffer_bytes, stride
        );
    }

    #[test]
    fn cache_never_changes_kernel_records_or_observations(
        spec_idx in 0usize..4,
        pooled in any::<bool>(),
        seed in any::<u64>(),
        sizes in prop::collection::vec(1u64..48, 4..20),
        capacity in 0usize..3,
    ) {
        let policy =
            if pooled { AllocPolicy::PooledRandomOffset } else { AllocPolicy::MallocPerSize };
        let mut cached = machine(spec_by_index(spec_idx), policy, seed);
        let mut uncached = machine(spec_by_index(spec_idx), policy, seed);
        // tiny capacities exercise FIFO eviction mid-run; 0 disables
        if capacity > 0 {
            cached.set_profile_cache_capacity(capacity);
        }
        uncached.set_profile_cache_capacity(0);
        cached.enable_observability(4096);
        uncached.enable_observability(4096);
        for (i, &kib) in sizes.iter().enumerate() {
            let cfg = KernelConfig::baseline(kib * 1024, 3).with_stride(1 + (i as u64 % 3));
            let a = cached.run_kernel(&cfg);
            let b = uncached.run_kernel(&cfg);
            assert_results_bit_identical(&a, &b)?;
        }
        prop_assert_eq!(cached.take_observation().counters, uncached.take_observation().counters);
        let (_, misses) = uncached.profile_cache_stats();
        prop_assert_eq!(misses, sizes.len() as u64, "capacity 0 must never hit");
    }

    #[test]
    fn cache_never_changes_stream_or_parallel_records(
        spec_idx in 0usize..4,
        seed in any::<u64>(),
        kernel_idx in 0usize..5,
        array_pages in 1u64..16,
        short_by in 0u64..4096,
        threads in 1u32..6,
        reps in 2usize..5,
    ) {
        // each buffer takes whole pages, so a size short of a page
        // multiple splits the allocation like the multiple does
        let array_bytes = array_pages * 4096 - short_by;
        let kernel = [
            StreamKernel::Sum,
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ][kernel_idx];
        let scfg = StreamRunConfig {
            array_bytes,
            kernel,
            codegen: CodegenConfig::new(ElementWidth::W64, true),
            nloops: 5,
        };
        let kcfg = KernelConfig::baseline(array_bytes, 4);
        let mut cached = machine(spec_by_index(spec_idx), AllocPolicy::PooledRandomOffset, seed);
        let mut uncached = machine(spec_by_index(spec_idx), AllocPolicy::PooledRandomOffset, seed);
        uncached.set_profile_cache_capacity(0);
        for _ in 0..reps {
            let a = run_stream(&mut cached, &scfg).unwrap();
            let b = run_stream(&mut uncached, &scfg).unwrap();
            assert_results_bit_identical(&a, &b)?;
            let pa = run_kernel_parallel(&mut cached, &kcfg, threads).unwrap();
            let pb = run_kernel_parallel(&mut uncached, &kcfg, threads).unwrap();
            assert_results_bit_identical(&pa.measurement, &pb.measurement)?;
            prop_assert_eq!(pa.threads, pb.threads);
            prop_assert_eq!(&pa.per_thread_cycles, &pb.per_thread_cycles);
        }
    }

    #[test]
    fn ideal_bandwidth_memoization_is_invisible(
        spec_idx in 0usize..4,
        kib in 1u64..128,
        stride in 1u64..4,
        nloops in 1u64..6,
    ) {
        let spec = spec_by_index(spec_idx);
        let freq = spec.freqs_ghz[0];
        let cached = machine(spec.clone(), AllocPolicy::MallocPerSize, 1);
        let mut uncached = machine(spec, AllocPolicy::MallocPerSize, 1);
        uncached.set_profile_cache_capacity(0);
        let cfg = KernelConfig::baseline(kib * 1024, nloops).with_stride(stride);
        let first = cached.ideal_bandwidth_mbps(&cfg, freq);
        let second = cached.ideal_bandwidth_mbps(&cfg, freq);
        let plain = uncached.ideal_bandwidth_mbps(&cfg, freq);
        prop_assert_eq!(first.to_bits(), second.to_bits());
        prop_assert_eq!(first.to_bits(), plain.to_bits());
        let (hits, misses) = cached.profile_cache_stats();
        prop_assert_eq!((hits, misses), (1, 1));
    }
}

/// `MallocPerSize` replicates of one design cell reuse one placement, so
/// every measurement after the first is a cache hit — the memoization
/// payoff the campaign engine banks on.
#[test]
fn malloc_replicates_hit_the_cache() {
    let mut m = machine(CpuSpec::opteron(), AllocPolicy::MallocPerSize, 42);
    let cfg = KernelConfig::baseline(256 * 1024, 10);
    for _ in 0..20 {
        m.run_kernel(&cfg);
    }
    let (hits, misses) = m.profile_cache_stats();
    assert_eq!((hits, misses), (19, 1));
}

/// Forks get an empty cache of their own (stats start at zero, and a
/// profile the parent cached misses in the fork) at the parent's
/// capacity, including a disabled one.
#[test]
fn fork_propagates_cache_capacity() {
    let mut base = machine(CpuSpec::opteron(), AllocPolicy::MallocPerSize, 7);
    let cfg = KernelConfig::baseline(64 * 1024, 2);
    base.run_kernel(&cfg);
    let mut fork = base.fork(base.stream_seed());
    assert_eq!(fork.profile_cache_stats(), (0, 0));
    assert_eq!(fork.profile_cache_capacity(), base.profile_cache_capacity());
    fork.run_kernel(&cfg);
    assert_eq!(fork.profile_cache_stats(), (0, 1), "a fork starts cold");
    base.run_kernel(&cfg);
    assert_eq!(base.profile_cache_stats(), (1, 1), "the parent keeps its entries");
    base.set_profile_cache_capacity(0);
    assert_eq!(base.fork(base.stream_seed()).profile_cache_capacity(), 0);
}

/// Paging counters are read from the pages when observing, not from the
/// cache: a machine that switches observability on after its cache was
/// filled unobserved reports exactly the counters of a cache-disabled
/// machine over the same kernels.
#[test]
fn observing_after_unobserved_cache_fills_counts_like_no_cache() {
    let kernels: Vec<KernelConfig> = [16u64, 96, 640]
        .iter()
        .flat_map(|&kib| (1..=2).map(move |s| KernelConfig::baseline(kib * 1024, 2).with_stride(s)))
        .collect();
    for spec in CpuSpec::all() {
        let mut cached = machine(spec.clone(), AllocPolicy::MallocPerSize, 11);
        let mut uncached = machine(spec.clone(), AllocPolicy::MallocPerSize, 11);
        uncached.set_profile_cache_capacity(0);
        for cfg in &kernels {
            cached.run_kernel(cfg);
            uncached.run_kernel(cfg);
        }
        cached.enable_observability(64);
        uncached.enable_observability(64);
        for cfg in &kernels {
            let a = cached.run_kernel(cfg);
            let b = uncached.run_kernel(cfg);
            assert_eq!(a.elapsed_us.to_bits(), b.elapsed_us.to_bits(), "{}", spec.name);
        }
        let n = kernels.len() as u64;
        assert_eq!(cached.profile_cache_stats(), (n, n), "observed kernels all hit");
        let (cached, uncached) = (cached.take_observation(), uncached.take_observation());
        let paging = |o: &charm_obs::Observation| -> Vec<(String, u64)> {
            o.counters
                .iter()
                .filter(|(k, _)| k.starts_with("simmem.paging."))
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        };
        assert!(cached.counters.get("simmem.paging.pages_allocated") > 0, "{}", spec.name);
        assert_eq!(paging(&cached), paging(&uncached), "{}", spec.name);
        assert_eq!(cached.counters, uncached.counters, "{}", spec.name);
    }
}

//! Virtual→physical page mapping and allocation policies.
//!
//! Paper §IV-4: "operating systems allocate nonconsecutive 4 KB physical
//! memory pages, choosing them randomly from a pool of available pages".
//! On the ARM Snowball (low-associativity L1), an unlucky draw of page
//! *colours* causes conflict misses and the unpredictable mid-size
//! performance drops of Figure 12. Two behaviours interact:
//!
//! * with per-buffer `malloc`/`free`, **the same pages get reused** within
//!   one experiment run ("the buffers actually start from the same
//!   physical memory location for each memory size during one experiment")
//!   — zero within-run variability, large *between*-run variability;
//! * the fix: allocate **one large block** once and take each measurement
//!   at a random offset inside it, sampling many physical layouts within a
//!   single run ("physical address randomization").
//!
//! Either way a buffer is a contiguous slice of the pool, whose order is
//! fixed at boot. A profile miss needs only how many of a slice's pages
//! fall in each page-colour block, so the pool carries per-block prefix
//! counts (`BlockTable`) that answer it in O(blocks) for any slice
//! length; the pool and its table are shared by every same-seed fork.

use crate::memo::PlacementKey;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, OnceLock};

/// Allocation policy of the benchmark buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// `malloc`/`free` per buffer size: the OS hands back the same
    /// physical pages every time within one run (the paper's first,
    /// accidentally-deterministic technique).
    MallocPerSize,
    /// One large pooled block allocated up front; each measurement uses a
    /// random page-aligned offset within it (the paper's §IV-4 fix).
    PooledRandomOffset,
}

impl AllocPolicy {
    /// CSV-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            AllocPolicy::MallocPerSize => "malloc_per_size",
            AllocPolicy::PooledRandomOffset => "pooled_random_offset",
        }
    }
}

/// A pool of physical pages with an allocation policy, standing in for the
/// OS page allocator. Physical page numbers are randomly ordered at boot
/// (seeded), which is what makes page colours unpredictable per run.
#[derive(Debug, Clone)]
pub struct PageAllocator {
    page_bytes: u64,
    /// The boot-time pool, immutable and shared by same-seed forks.
    pool: Arc<BootPool>,
    policy: AllocPolicy,
    rng: ChaCha8Rng,
    /// RNG state right after boot (pool shuffled, no offsets drawn yet):
    /// what [`PageAllocator::fork`] restores instead of re-shuffling.
    boot_rng: ChaCha8Rng,
    /// Seed the allocator was built with; [`PageAllocator::allocate_at`]
    /// derives per-index offsets from it so that the pages backing
    /// measurement `i` do not depend on allocation order.
    seed: u64,
}

/// The pool as shuffled at boot and, once a profile miss asks for them,
/// its colour-block prefix counts. Under `PooledRandomOffset` the whole
/// pool is the pooled block: a contiguous physical mapping fixed once
/// per run, like a real long-lived allocation.
#[derive(Debug)]
struct BootPool {
    /// Physical page numbers in pool order; `MallocPerSize` buffers always
    /// occupy a prefix of this order.
    pages: Vec<u64>,
    blocks: OnceLock<BlockTable>,
}

impl PageAllocator {
    /// Creates an allocator over a pool of `pool_pages` physical pages of
    /// `page_bytes` each, with the given policy. The physical ordering of
    /// the pool is a seeded random permutation — a fresh seed models a
    /// fresh boot / experiment run.
    pub fn new(policy: AllocPolicy, page_bytes: u64, pool_pages: usize, seed: u64) -> Self {
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        assert!(pool_pages > 0, "empty page pool");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pages: Vec<u64> = (0..pool_pages as u64).collect();
        pages.shuffle(&mut rng);
        let boot_rng = rng.clone();
        PageAllocator {
            page_bytes,
            pool: Arc::new(BootPool { pages, blocks: OnceLock::new() }),
            policy,
            rng,
            boot_rng,
            seed,
        }
    }

    /// An allocator at boot state for `seed`, bit-identical to
    /// [`PageAllocator::new`] with the same geometry. When `seed` matches
    /// this allocator's own, the fork shares the boot pool (and its
    /// colour-block table, built or not) and restores the RNG from the
    /// boot snapshot instead of re-deriving both — the campaign engine
    /// forks every batch with the parent's seed, so the per-fork shuffle
    /// (O(pool) RNG draws), pool copy and table build vanish from the hot
    /// path.
    pub(crate) fn fork(&self, seed: u64) -> Self {
        if seed == self.seed {
            PageAllocator { rng: self.boot_rng.clone(), ..self.clone() }
        } else {
            PageAllocator::new(self.policy, self.page_bytes, self.pool.pages.len(), seed)
        }
    }

    /// The largest buffer this allocator can place: the whole pool. Under
    /// either policy a larger buffer makes [`PageAllocator::allocate`] and
    /// [`PageAllocator::allocate_at`] panic.
    pub fn max_buffer_bytes(&self) -> u64 {
        self.pool.pages.len() as u64 * self.page_bytes
    }

    /// Returns the physical page numbers backing a fresh buffer of
    /// `buffer_bytes`, in virtual-address order. Advances the allocator's
    /// RNG only under `PooledRandomOffset` (offset draw); `MallocPerSize`
    /// is deterministic, modelling page reuse.
    ///
    /// # Panics
    /// Panics when the buffer needs more pages than the pool holds.
    pub fn allocate(&mut self, buffer_bytes: u64) -> Vec<u64> {
        let placement = self.draw_placement(buffer_bytes);
        self.pages(placement, buffer_bytes).to_vec()
    }

    /// Like [`PageAllocator::allocate`], but the offset draw under
    /// `PooledRandomOffset` is a pure function of `(seed, index)` instead
    /// of consuming the sequential RNG: the pages backing measurement
    /// `index` are the same no matter how many allocations happened
    /// before, which is what lets forked shard simulators reproduce a
    /// sequential campaign's buffers (see `DESIGN.md`). `MallocPerSize`
    /// is unchanged (it never draws).
    ///
    /// # Panics
    /// Panics when the buffer needs more pages than the pool holds.
    pub fn allocate_at(&self, index: u64, buffer_bytes: u64) -> Vec<u64> {
        self.pages(self.placement_at(index, buffer_bytes), buffer_bytes).to_vec()
    }

    /// The key half of [`PageAllocator::allocate`]: draws where a fresh
    /// buffer lands and returns the [`PlacementKey`] naming that slice of
    /// the pool, advancing the RNG exactly as `allocate` does, so the two
    /// are interchangeable. [`PageAllocator::pages`] resolves the key.
    ///
    /// # Panics
    /// Panics when the buffer needs more pages than the pool holds.
    pub(crate) fn draw_placement(&mut self, buffer_bytes: u64) -> PlacementKey {
        let pages_needed = self.pages_needed(buffer_bytes);
        match self.policy {
            AllocPolicy::MallocPerSize => {
                assert!(pages_needed <= self.pool.pages.len(), "buffer exceeds page pool");
                // Freed pages are immediately reused in LIFO order, so a
                // same-or-smaller allocation always lands on the same
                // physical prefix.
                PlacementKey::MallocPrefix
            }
            AllocPolicy::PooledRandomOffset => {
                assert!(pages_needed <= self.pool.pages.len(), "buffer exceeds pooled block");
                let max_start = self.pool.pages.len() - pages_needed;
                let start = if max_start == 0 { 0 } else { self.rng.random_range(0..=max_start) };
                PlacementKey::PooledStart(start as u64)
            }
        }
    }

    /// The physical pages, in virtual-address order, of a `buffer_bytes`
    /// buffer at `placement`: a slice borrowed from the pool, so a caller
    /// that only needs to read the placement copies nothing.
    ///
    /// # Panics
    /// Panics on [`PlacementKey::Identity`], which the pool does not back,
    /// and when the slice runs past the pool.
    pub(crate) fn pages(&self, placement: PlacementKey, buffer_bytes: u64) -> &[u64] {
        let start = pool_start(placement);
        &self.pool.pages[start..start + self.pages_needed(buffer_bytes)]
    }

    /// Adds, per colour block `pp & (n_blocks - 1)`, the first `n_pages`
    /// pages at `placement` into `blocks` (`n_blocks` long, a power of
    /// two) — what a walk over `pages(placement, ..)[..n_pages]` counts,
    /// in O(`n_blocks`) steps from the pool's [`BlockTable`], which the
    /// first slice longer than `2 · n_blocks` pages builds for this pool
    /// and every same-seed fork. A shorter slice is walked: that costs no
    /// more than the table's row difference and end walks, and spares a
    /// machine that only places small buffers the O(pool) build.
    ///
    /// # Panics
    /// As [`PageAllocator::pages`].
    pub(crate) fn add_block_counts(
        &self,
        placement: PlacementKey,
        n_pages: usize,
        n_blocks: usize,
        blocks: &mut [u64],
    ) {
        let start = pool_start(placement);
        let pool = &self.pool.pages;
        let slice = &pool[start..start + n_pages];
        let mask = n_blocks as u64 - 1;
        if n_pages <= 2 * n_blocks {
            return add_walked(slice, mask, blocks);
        }
        let table = self.pool.blocks.get_or_init(|| BlockTable::build(pool, n_blocks));
        if table.n_blocks == n_blocks {
            table.add_counts(pool, start, start + n_pages, blocks);
        } else {
            // A pool serves one machine's geometry, so this walk is only
            // reached by a caller asking for a second block count.
            add_walked(slice, mask, blocks);
        }
    }

    /// The pool's colour-block table, if a profile miss has built it.
    #[cfg(test)]
    pub(crate) fn block_table(&self) -> Option<&BlockTable> {
        self.pool.blocks.get()
    }

    /// The [`PlacementKey`] that [`PageAllocator::allocate_at`] resolves
    /// `(index, buffer_bytes)` to — a pure function, like `allocate_at`
    /// itself, and the reason profiles are memoizable at all: the key is
    /// a few bytes where the page vector is thousands.
    ///
    /// # Panics
    /// Panics when the buffer needs more pages than the pool holds.
    pub(crate) fn placement_at(&self, index: u64, buffer_bytes: u64) -> PlacementKey {
        let pages_needed = self.pages_needed(buffer_bytes);
        match self.policy {
            AllocPolicy::MallocPerSize => {
                assert!(pages_needed <= self.pool.pages.len(), "buffer exceeds page pool");
                PlacementKey::MallocPrefix
            }
            AllocPolicy::PooledRandomOffset => {
                assert!(pages_needed <= self.pool.pages.len(), "buffer exceeds pooled block");
                PlacementKey::PooledStart(self.start_at(index, pages_needed) as u64)
            }
        }
    }

    fn pages_needed(&self, buffer_bytes: u64) -> usize {
        (buffer_bytes.div_ceil(self.page_bytes)).max(1) as usize
    }

    /// The pure per-index start offset of `allocate_at` under
    /// `PooledRandomOffset`.
    fn start_at(&self, index: u64, pages_needed: usize) -> usize {
        let max_start = self.pool.pages.len() - pages_needed;
        if max_start == 0 {
            0
        } else {
            (crate::stream::derive_u64(self.seed, index, 0xA110_C000_0000_0003)
                % (max_start as u64 + 1)) as usize
        }
    }

    /// Colour of a physical page with respect to a cache where one way
    /// spans `way_bytes` (= cache size / associativity): pages of equal
    /// colour compete for the same sets.
    pub fn page_color(&self, phys_page: u64, way_bytes: u64) -> u64 {
        phys_page % color_count(way_bytes, self.page_bytes)
    }
}

/// The pool offset a placement's slice starts at.
///
/// # Panics
/// Panics on [`PlacementKey::Identity`], which the pool does not back.
fn pool_start(placement: PlacementKey) -> usize {
    match placement {
        PlacementKey::MallocPrefix => 0,
        PlacementKey::PooledStart(start) => start as usize,
        PlacementKey::Identity => panic!("identity placements are not backed by the pool"),
    }
}

/// Adds `pages` per colour block `pp & mask` into `blocks`.
pub(crate) fn add_walked(pages: &[u64], mask: u64, blocks: &mut [u64]) {
    for &pp in pages {
        blocks[(pp & mask) as usize] += 1;
    }
}

/// Per-colour-block prefix counts of a pool, checkpointed every
/// `n_blocks` pages: row `c` holds, for each block, how many of
/// `pool[..c · n_blocks]` fall in it. A slice's counts are then the
/// difference of the last and first checkpoint rows inside it plus the
/// fewer than `n_blocks` pages walked at each end, so counting any slice
/// costs O(`n_blocks`) steps, not O(pages). The table holds
/// `(pool / n_blocks + 1) · n_blocks` four-byte counts: about 4 bytes
/// per pool page, half of the 8 the pool itself takes (a dense
/// pages × blocks table would be `n_blocks` times larger).
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Colour blocks, a power of two; also the checkpoint stride.
    n_blocks: usize,
    /// `rows[c · n_blocks + b]`: pages of block `b` in `pool[..c · n_blocks]`.
    rows: Vec<u32>,
}

impl BlockTable {
    fn build(pool: &[u64], n_blocks: usize) -> Self {
        assert!(n_blocks.is_power_of_two(), "colour blocks must be a power of two");
        assert!(u32::try_from(pool.len()).is_ok(), "pool too large for 32-bit block counts");
        let mask = n_blocks as u64 - 1;
        let mut rows = vec![0u32; (pool.len() / n_blocks + 1) * n_blocks];
        let (mut prev, mut rest) = rows.split_at_mut(n_blocks);
        for chunk in pool.chunks_exact(n_blocks) {
            let (row, tail) = rest.split_at_mut(n_blocks);
            row.copy_from_slice(prev);
            for &pp in chunk {
                row[(pp & mask) as usize] += 1;
            }
            (prev, rest) = (row, tail);
        }
        BlockTable { n_blocks, rows }
    }

    /// Adds the pages of `pool[lo..hi]` per colour block into `blocks`.
    fn add_counts(&self, pool: &[u64], lo: usize, hi: usize, blocks: &mut [u64]) {
        let nb = self.n_blocks;
        let mask = nb as u64 - 1;
        let (first, last) = (lo.div_ceil(nb), hi / nb);
        if first >= last {
            add_walked(&pool[lo..hi], mask, blocks);
            return;
        }
        let (head, tail) = (&self.rows[first * nb..][..nb], &self.rows[last * nb..][..nb]);
        for ((b, &h), &t) in blocks.iter_mut().zip(head).zip(tail) {
            *b += u64::from(t - h);
        }
        add_walked(&pool[lo..first * nb], mask, blocks);
        add_walked(&pool[last * nb..hi], mask, blocks);
    }

    /// Bytes of the count table.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u32>()
    }
}

/// Number of page colours of a cache where one way spans `way_bytes`.
fn color_count(way_bytes: u64, page_bytes: u64) -> u64 {
    (way_bytes / page_bytes).max(1)
}

/// Pages per colour ([`PageAllocator::page_color`]) of `pages`, in one
/// masked pass when the colour count is a power of two (every modelled
/// CPU) and by remainder otherwise.
pub(crate) fn color_histogram(pages: &[u64], way_bytes: u64, page_bytes: u64) -> Vec<u64> {
    let colors = color_count(way_bytes, page_bytes);
    let mut histogram = vec![0u64; colors as usize];
    if colors.is_power_of_two() {
        for &page in pages {
            histogram[(page & (colors - 1)) as usize] += 1;
        }
    } else {
        for &page in pages {
            histogram[(page % colors) as usize] += 1;
        }
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::reference;

    #[test]
    fn malloc_per_size_reuses_pages() {
        let mut a = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 512, 7);
        let first = a.allocate(20_000);
        let second = a.allocate(20_000);
        assert_eq!(first, second, "same size must reuse identical pages");
        assert_eq!(first.len(), 5);
        // smaller buffer gets a prefix of the same pages
        let small = a.allocate(8192);
        assert_eq!(&first[..2], &small[..]);
    }

    #[test]
    fn different_seed_different_physical_layout() {
        let mut a = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 512, 1);
        let mut b = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 512, 2);
        assert_ne!(a.allocate(40_000), b.allocate(40_000));
    }

    #[test]
    fn pooled_offsets_vary_within_run() {
        let mut a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 512, 3);
        let draws: Vec<Vec<u64>> = (0..20).map(|_| a.allocate(16_384)).collect();
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert!(distinct.len() > 5, "offsets should vary: {} distinct", distinct.len());
        // all draws are contiguous slices of the same fixed block
        for d in &draws {
            assert_eq!(d.len(), 4);
        }
    }

    #[test]
    fn pooled_layout_is_fixed_even_though_offsets_move() {
        // Two allocators with the same seed draw the same offsets and the
        // same underlying block.
        let mut a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 128, 9);
        let mut b = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 128, 9);
        for _ in 0..10 {
            assert_eq!(a.allocate(12_288), b.allocate(12_288));
        }
    }

    #[test]
    fn page_count_rounds_up() {
        let mut a = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 64, 0);
        assert_eq!(a.allocate(1).len(), 1);
        assert_eq!(a.allocate(4096).len(), 1);
        assert_eq!(a.allocate(4097).len(), 2);
    }

    #[test]
    fn colors_partition_pages() {
        let a = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 64, 0);
        // ARM-like: 32 KiB 4-way -> way spans 8 KiB -> 2 colours.
        for p in 0..16 {
            let c = a.page_color(p, 8192);
            assert_eq!(c, p % 2);
        }
        // way smaller than a page -> single colour
        assert_eq!(a.page_color(5, 2048), 0);
        // the histogram agrees with page_color for power-of-two (masked)
        // and odd colour counts
        let pages: Vec<u64> = (0..40).map(|v| (v * 7 + 3) % 64).collect();
        for way_bytes in [8 * 4096u64, 3 * 4096, 2048] {
            let mut expected = vec![0u64; (way_bytes / 4096).max(1) as usize];
            for &p in &pages {
                expected[a.page_color(p, way_bytes) as usize] += 1;
            }
            assert_eq!(color_histogram(&pages, way_bytes, 4096), expected, "way {way_bytes}");
        }
    }

    #[test]
    fn allocate_at_is_order_independent() {
        let a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 256, 5);
        let forward: Vec<Vec<u64>> = (0..50).map(|i| a.allocate_at(i, 16_384)).collect();
        let backward: Vec<Vec<u64>> = (0..50).rev().map(|i| a.allocate_at(i, 16_384)).collect();
        for (i, d) in backward.into_iter().rev().enumerate() {
            assert_eq!(d, forward[i], "index {i}");
        }
        // offsets still vary across indices
        let distinct: std::collections::HashSet<_> = forward.iter().collect();
        assert!(distinct.len() > 5, "{} distinct layouts", distinct.len());
    }

    #[test]
    fn allocate_at_malloc_matches_allocate() {
        let mut a = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 64, 11);
        for i in 0..5 {
            assert_eq!(a.allocate_at(i, 12_288), a.allocate(12_288));
        }
    }

    #[test]
    fn placement_at_identifies_allocate_at_slices() {
        let a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 256, 5);
        for i in 0..50 {
            let pages = a.allocate_at(i, 16_384);
            match a.placement_at(i, 16_384) {
                PlacementKey::PooledStart(start) => {
                    let start = start as usize;
                    assert_eq!(
                        pages,
                        a.pool.pages[start..start + pages.len()].to_vec(),
                        "index {i}"
                    );
                }
                other => panic!("pooled placement must be PooledStart, got {other:?}"),
            }
        }
        let m = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 256, 5);
        assert_eq!(m.placement_at(7, 16_384), PlacementKey::MallocPrefix);
    }

    #[test]
    fn draw_placement_matches_allocate_and_rng_stream() {
        // Interleaving placement draws and plain allocations across two
        // same-seed allocators must produce identical pages: the draw
        // advances the RNG exactly like `allocate`.
        let mut a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 512, 13);
        let mut b = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 512, 13);
        for i in 0..20 {
            let plain = a.allocate(16_384);
            let key = b.draw_placement(16_384);
            assert_eq!(plain, b.pages(key, 16_384), "draw {i}");
            match key {
                PlacementKey::PooledStart(start) => {
                    let start = start as usize;
                    assert_eq!(plain, b.pool.pages[start..start + plain.len()].to_vec());
                }
                other => panic!("pooled placement must be PooledStart, got {other:?}"),
            }
        }
        let mut m = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 512, 13);
        let key = m.draw_placement(16_384);
        assert_eq!(key, PlacementKey::MallocPrefix);
        let pages = m.allocate(16_384);
        assert_eq!(m.pages(key, 16_384), pages);
    }

    #[test]
    fn fork_matches_fresh_construction_for_any_seed() {
        for policy in [AllocPolicy::MallocPerSize, AllocPolicy::PooledRandomOffset] {
            let mut parent = PageAllocator::new(policy, 4096, 256, 17);
            // Advance the parent's RNG so the fork must restore the boot
            // snapshot, not copy the current state.
            for _ in 0..7 {
                parent.allocate(8192);
            }
            for seed in [17u64, 99] {
                let mut fork = parent.fork(seed);
                let mut fresh = PageAllocator::new(policy, 4096, 256, seed);
                assert_eq!(fork.seed, fresh.seed);
                for i in 0..10 {
                    assert_eq!(fork.allocate(12_288), fresh.allocate(12_288), "draw {i}");
                    assert_eq!(fork.allocate_at(i, 16_384), fresh.allocate_at(i, 16_384));
                }
            }
        }
    }

    #[test]
    fn block_counts_match_a_page_walk_for_every_slice() {
        // 300 pages: not a multiple of any block count
        for n_blocks in [1usize, 8, 128] {
            let a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 300, n_blocks as u64);
            // the first slice longer than 2 · n_blocks builds the table
            a.add_block_counts(PlacementKey::PooledStart(0), 300, n_blocks, &mut [0; 128]);
            assert_eq!(a.block_table().unwrap().n_blocks, n_blocks);
            for start in 0..=300usize {
                for len in 0..=300 - start {
                    let placement = PlacementKey::PooledStart(start as u64);
                    let pages = &a.pool.pages[start..start + len];
                    let mut got = vec![0u64; n_blocks];
                    a.add_block_counts(placement, len, n_blocks, &mut got);
                    assert_eq!(got, reference::block_counts(pages, n_blocks as u64));
                    // the table is built for the first block count asked;
                    // another is walked
                    let mut other = vec![0u64; 4];
                    a.add_block_counts(placement, len, 4, &mut other);
                    assert_eq!(other, reference::block_counts(pages, 4));
                }
            }
        }
        let mut prefix = vec![0u64; 8];
        let m = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 100, 5);
        m.add_block_counts(PlacementKey::MallocPrefix, 16, 8, &mut prefix);
        assert!(m.block_table().is_none(), "a slice of 2 · n_blocks pages is walked");
        m.add_block_counts(PlacementKey::MallocPrefix, 37, 8, &mut prefix);
        assert!(m.block_table().is_some());
        let walked = reference::block_counts(&m.pool.pages[..16], 8).into_iter();
        let expected: Vec<u64> = walked
            .zip(reference::block_counts(&m.pool.pages[..37], 8))
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(prefix, expected);
    }

    #[test]
    fn same_seed_forks_share_the_pool() {
        let a = PageAllocator::new(AllocPolicy::PooledRandomOffset, 4096, 64, 3);
        assert!(Arc::ptr_eq(&a.pool, &a.fork(3).pool));
        assert!(!Arc::ptr_eq(&a.pool, &a.fork(4).pool));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflow_pool_panics() {
        let mut a = PageAllocator::new(AllocPolicy::MallocPerSize, 4096, 4, 0);
        a.allocate(5 * 4096);
    }
}

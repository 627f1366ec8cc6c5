//! Analytic steady-state cache behaviour of cyclic access kernels.
//!
//! The Figure 6 kernel sweeps a buffer cyclically (`nloops` passes of the
//! same access sequence). Under LRU, cyclic access has a sharp closed
//! form per cache set:
//!
//! * if the number of distinct lines mapping to a set is ≤ the
//!   associativity, every access hits from the second pass on;
//! * if it exceeds the associativity, **every line misses once per pass,
//!   forever** (the classic LRU worst case).
//!
//! So the steady-state behaviour of a pass is fully determined by the
//! histogram of distinct lines per set — which depends on the *physical*
//! page placement, which is exactly how the ARM paging anomaly of
//! Figure 12 arises. This module computes that histogram and per-line
//! service levels; `tests` validate it against the exact LRU simulator in
//! [`crate::cache`].

use crate::machine::CacheLevelSpec;
use crate::memo::PlacementKey;
use crate::paging::{add_walked, PageAllocator};

/// The access pattern of one kernel pass, physically resolved.
#[derive(Debug, Clone)]
pub struct PhysicalPattern {
    /// Physical byte address of the first byte of each *distinct* line
    /// touched, in access order.
    line_addrs: Vec<u64>,
    /// Total accesses per pass.
    accesses_per_pass: u64,
}

impl PhysicalPattern {
    /// Merges another pattern's accesses into this one (multi-array
    /// kernels: the union of streams competes for the same sets). The
    /// arrays must not share physical pages — allocators never hand the
    /// same page to two live arrays, so merged line sets stay disjoint.
    pub fn merge(&mut self, other: PhysicalPattern) {
        self.line_addrs.extend(other.line_addrs);
        self.accesses_per_pass += other.accesses_per_pass;
    }

    /// Resolves the Figure 6 pattern (`for i in 0..n_elems/stride:
    /// access buffer[stride*i]`) through a page mapping.
    ///
    /// * `phys_pages[v]` — physical page number backing virtual page `v`
    ///   of the buffer;
    /// * `page_bytes` — page size;
    /// * `elem_bytes` — element size;
    /// * `stride_elems` — stride in elements (≥ 1);
    /// * `buffer_bytes` — buffer size;
    /// * `line_bytes` — line size used to deduplicate (use the smallest
    ///   line size in the hierarchy; all levels of the modelled CPUs share
    ///   one line size).
    pub fn resolve(
        phys_pages: &[u64],
        page_bytes: u64,
        elem_bytes: u64,
        stride_elems: u64,
        buffer_bytes: u64,
        line_bytes: u64,
    ) -> Self {
        Self::resolve_reusing(
            Vec::new(),
            phys_pages,
            page_bytes,
            elem_bytes,
            stride_elems,
            buffer_bytes,
            line_bytes,
        )
    }

    /// [`PhysicalPattern::resolve`] into a caller-provided buffer (cleared
    /// first), so hot loops can recycle the allocation via
    /// [`PhysicalPattern::into_line_addrs`].
    ///
    /// Runs in O(distinct lines): when the stride is below the line size
    /// every line of the buffer is touched in address order, so the lines
    /// are emitted page by page without ever visiting individual accesses;
    /// larger strides walk per access but with incremental page/offset
    /// arithmetic instead of two divisions each.
    pub(crate) fn resolve_reusing(
        mut line_addrs: Vec<u64>,
        phys_pages: &[u64],
        page_bytes: u64,
        elem_bytes: u64,
        stride_elems: u64,
        buffer_bytes: u64,
        line_bytes: u64,
    ) -> Self {
        assert!(stride_elems >= 1, "stride must be >= 1");
        assert!(elem_bytes >= 1 && line_bytes >= 1 && page_bytes >= line_bytes);
        line_addrs.clear();
        let stride_bytes = stride_elems * elem_bytes;
        let n_elems = buffer_bytes / elem_bytes;
        let accesses_per_pass = n_elems.checked_div(stride_elems).unwrap_or(0);
        if accesses_per_pass == 0 {
            return PhysicalPattern { line_addrs, accesses_per_pass };
        }

        // Dense path: stride < line means virtual lines 0..n_lines are
        // each touched (in order), so emit them page by page. Consecutive
        // dedup can only differ from this when two *consecutive identical*
        // pages meet `line == page` (then the per-access walk merges the
        // boundary lines) — fall back for that corner.
        let dense = stride_bytes < line_bytes
            && page_bytes.is_multiple_of(line_bytes)
            && (line_bytes < page_bytes || phys_pages.windows(2).all(|w| w[0] != w[1]));
        if dense {
            let n_lines = (accesses_per_pass - 1) * stride_bytes / line_bytes + 1;
            let lines_per_page = page_bytes / line_bytes;
            let pages_spanned = ((n_lines - 1) / lines_per_page + 1) as usize;
            line_addrs.reserve(n_lines as usize);
            let mut remaining = n_lines;
            for &pp in &phys_pages[..pages_spanned] {
                let take = remaining.min(lines_per_page);
                let mut addr = pp * page_bytes;
                for _ in 0..take {
                    line_addrs.push(addr);
                    addr += line_bytes;
                }
                remaining -= take;
            }
            return PhysicalPattern { line_addrs, accesses_per_pass };
        }

        let mut last_line = u64::MAX;
        let mut vpage = 0usize;
        let mut in_page: u64 = 0;
        for _ in 0..accesses_per_pass {
            let phys = phys_pages[vpage] * page_bytes + in_page;
            let line = phys / line_bytes;
            if line != last_line {
                line_addrs.push(line * line_bytes);
                last_line = line;
            }
            in_page += stride_bytes;
            while in_page >= page_bytes {
                in_page -= page_bytes;
                vpage += 1;
            }
        }
        PhysicalPattern { line_addrs, accesses_per_pass }
    }

    /// Consumes the pattern, handing back its line buffer for reuse with
    /// [`PhysicalPattern::resolve_reusing`].
    pub(crate) fn into_line_addrs(self) -> Vec<u64> {
        self.line_addrs
    }

    /// Number of accesses in one pass.
    pub fn accesses_per_pass(&self) -> u64 {
        self.accesses_per_pass
    }

    /// Number of distinct lines touched per pass.
    pub fn distinct_lines(&self) -> u64 {
        // Lines are deduplicated consecutively; with strides < page the
        // pattern never revisits a line within a pass, so consecutive
        // dedup is exact.
        self.line_addrs.len() as u64
    }

    /// Physical addresses of the distinct lines (first byte).
    pub fn line_addrs(&self) -> &[u64] {
        &self.line_addrs
    }

    /// For a cache level, returns a mask over [`Self::line_addrs`]:
    /// `true` where the line's set holds more distinct lines than the
    /// associativity (the set thrashes under cyclic LRU).
    pub(crate) fn thrash_mask(&self, level: &CacheLevelSpec) -> Vec<bool> {
        let num_sets = level.num_sets();
        let mut per_set = vec![0u32; num_sets as usize];
        let sets: Vec<u64> =
            self.line_addrs.iter().map(|&addr| (addr / level.line_bytes) % num_sets).collect();
        for &s in &sets {
            per_set[s as usize] += 1;
        }
        sets.iter().map(|&s| per_set[s as usize] > level.assoc as u32).collect()
    }

    /// Steady-state misses per pass at a level: lines in thrashing sets
    /// miss once per pass each.
    pub fn steady_misses(&self, level: &CacheLevelSpec) -> u64 {
        self.thrash_mask(level).iter().filter(|&&b| b).count() as u64
    }
}

/// Maps a line address to its cache set, with a shift/mask fast path for
/// power-of-two geometries (every modelled CPU) and exact div/mod
/// otherwise.
#[derive(Debug, Clone, Copy)]
enum SetIndexer {
    Pow2 { shift: u32, mask: u64 },
    General { line_bytes: u64, num_sets: u64 },
}

impl SetIndexer {
    fn new(level: &CacheLevelSpec) -> Self {
        let num_sets = level.num_sets();
        if level.line_bytes.is_power_of_two() && num_sets.is_power_of_two() {
            SetIndexer::Pow2 { shift: level.line_bytes.trailing_zeros(), mask: num_sets - 1 }
        } else {
            SetIndexer::General { line_bytes: level.line_bytes, num_sets }
        }
    }

    #[inline]
    fn set_of(self, addr: u64) -> u64 {
        match self {
            SetIndexer::Pow2 { shift, mask } => (addr >> shift) & mask,
            SetIndexer::General { line_bytes, num_sets } => (addr / line_bytes) % num_sets,
        }
    }
}

/// Reusable scratch for `ServiceProfile::compute_with` and
/// [`profile_segments`]: per-set line counts for the materialising path,
/// the colour-block tables of the run-based path, and a recycled line
/// buffer. One instance per simulator amortises every allocation in the
/// profile hot path.
#[derive(Debug, Clone, Default)]
pub struct ProfileScratch {
    /// Per-level distinct-line count per set.
    per_set: Vec<Vec<u32>>,
    /// Full pages per colour block.
    blocks: Vec<u64>,
    /// `(block, lines)` of each segment's partial last page.
    partials: Vec<(usize, u64)>,
    /// Sorted piece boundaries over a block's line offsets `0..=L`.
    cuts: Vec<u64>,
    /// The colour blocks that hold any of the pages, ascending.
    occupied: Vec<usize>,
    /// The current piece's lines per offset in each occupied block.
    counts: Vec<u64>,
    /// One level's lines per set in each class of the current piece.
    classes: Vec<u64>,
    /// Per occupied block, bit `i` set when level `i`'s set holds the
    /// current piece's lines.
    fits: Vec<u32>,
    /// Recycled `line_addrs` buffer for the materialising fallback.
    lines: Vec<u64>,
}

/// One contiguous buffer of a kernel: the physical pages backing it and
/// its size. Multi-array kernels (`run_stream`) pass one segment per
/// array; all segments share element size, stride, and line size.
#[derive(Debug, Clone, Copy)]
pub struct PatternSegment<'a> {
    /// Physical page number per virtual page, in virtual order.
    pub phys_pages: &'a [u64],
    /// Bytes of the buffer swept by the Figure 6 pattern.
    pub buffer_bytes: u64,
}

/// Computes the union [`ServiceProfile`] of `segments` through `levels` —
/// exactly what resolving each segment, merging, and calling
/// [`ServiceProfile::compute`] produces, but in
/// O(pages + blocks · pieces · levels) when the geometry allows it.
///
/// The fast path applies when the stride stays under the line size (the
/// pattern then touches every line of each buffer, in address order), all
/// levels share `line_bytes`, and every set count and the lines per page
/// `L` are powers of two. Then a line's set at *every* level is a function
/// of its index modulo `N = max(n_max, L)`, where `n_max` is the largest
/// set count, and page `pp` covers the aligned offset range of *colour
/// block* `pp mod (N / L)`. A buffer's profile therefore depends only on
/// how many of its full pages fall in each block plus its one partial
/// last page: one pass over the pages counts the blocks, and the lines
/// are classified per block and offset *piece* (see `RunGeometry`) — no
/// per-line or per-set work at all. (A machine's own kernels skip even
/// the pass: their buffers are pool slices, whose block counts the
/// pool's table holds.)
/// Geometries outside those conditions (non-uniform line sizes,
/// non-power-of-two set counts or lines per page, strides ≥ line) fall
/// back to materialising the merged pattern and the fused single-pass
/// `ServiceProfile::compute_with`.
pub fn profile_segments(
    segments: &[PatternSegment<'_>],
    page_bytes: u64,
    elem_bytes: u64,
    stride_elems: u64,
    line_bytes: u64,
    levels: &[CacheLevelSpec],
    scratch: &mut ProfileScratch,
) -> ServiceProfile {
    if let Some(profile) = try_profile_from_runs(
        segments,
        page_bytes,
        elem_bytes,
        stride_elems,
        line_bytes,
        levels,
        scratch,
    ) {
        return profile;
    }
    let mut merged = PhysicalPattern::resolve_reusing(
        std::mem::take(&mut scratch.lines),
        segments.first().map_or(&[][..], |s| s.phys_pages),
        page_bytes,
        elem_bytes,
        stride_elems,
        segments.first().map_or(0, |s| s.buffer_bytes),
        line_bytes,
    );
    for seg in segments.iter().skip(1) {
        merged.merge(PhysicalPattern::resolve(
            seg.phys_pages,
            page_bytes,
            elem_bytes,
            stride_elems,
            seg.buffer_bytes,
            line_bytes,
        ));
    }
    let profile = ServiceProfile::compute_with(&merged, levels, scratch);
    scratch.lines = merged.into_line_addrs();
    profile
}

/// The run-based fast path of [`profile_segments`]; `None` when the
/// geometry falls outside its validity conditions. Counts each segment's
/// full pages per colour block by walking them.
#[allow(clippy::too_many_arguments)]
fn try_profile_from_runs(
    segments: &[PatternSegment<'_>],
    page_bytes: u64,
    elem_bytes: u64,
    stride_elems: u64,
    line_bytes: u64,
    levels: &[CacheLevelSpec],
    scratch: &mut ProfileScratch,
) -> Option<ServiceProfile> {
    assert!(stride_elems >= 1, "stride must be >= 1");
    assert!(elem_bytes >= 1 && line_bytes >= 1 && page_bytes >= line_bytes);
    if stride_elems * elem_bytes >= line_bytes {
        return None;
    }
    let geometry = RunGeometry::new(levels, page_bytes, line_bytes)?;
    // The dense line walk differs from per-access dedup only when
    // `line == page` meets consecutive duplicate pages (see
    // `resolve_reusing`); punt on that corner.
    if line_bytes == page_bytes
        && segments.iter().any(|s| s.phys_pages.windows(2).any(|w| w[0] == w[1]))
    {
        return None;
    }
    let mask = geometry.n_blocks as u64 - 1;
    geometry.profile(segments, elem_bytes, stride_elems, scratch, |s, full, blocks| {
        add_walked(&segments[s].phys_pages[..full], mask, blocks)
    })
}

/// What the run-based fast path of [`profile_segments`] derives from a
/// hierarchy alone: a machine, whose cache never changes, derives it
/// once instead of on every miss.
///
/// With `L` lines per page and `nb = N / L` colour blocks, the line at
/// offset `j` of page `pp` has residue `(pp mod nb)·L + j` modulo `N`. A
/// level with `S ≥ L` sets puts it in set `(pp mod S/L)·L + j`, so its
/// per-set counts sum the blocks of one *class* `b mod S/L`; a level with
/// `S < L` sets puts it in set `j mod S`, whatever the block. Counts are
/// constant over each *piece* — one block times one offset interval
/// `[cuts[p], cuts[p + 1])` — once the intervals are cut at every partial
/// page's length (where its block's count steps down) and, for each level
/// with `S < L`, at every `m·S + x` with `x` zero or a partial length
/// modulo `S` (where that level's set counts step). Each piece is then
/// classified once and weighted by its width: O(blocks) to count a pool
/// slice (see [`crate::paging::PageAllocator::add_block_counts`]) or
/// O(pages) to walk any other segment, then O(blocks · pieces · levels) to
/// classify, with no division per page or per piece.
#[derive(Debug, Clone)]
pub(crate) struct RunGeometry {
    /// The one line size of every level.
    line_bytes: u64,
    /// Lines per page `L`, a power of two.
    lines_per_page: u64,
    /// Colour blocks `nb = max(n_max / L, 1)`, a power of two.
    n_blocks: usize,
    /// Each level's set count (a power of two) and associativity, L1
    /// first.
    levels: Vec<(u64, u64)>,
}

impl RunGeometry {
    /// The geometry of `levels` profiled at `line_bytes` over pages of
    /// `page_bytes`; `None` unless the lines per page and every level's
    /// set count are powers of two and every level has lines of
    /// `line_bytes`.
    pub(crate) fn new(levels: &[CacheLevelSpec], page_bytes: u64, line_bytes: u64) -> Option<Self> {
        if levels.is_empty() || line_bytes == 0 || !page_bytes.is_multiple_of(line_bytes) {
            return None;
        }
        let lines_per_page = page_bytes / line_bytes;
        let sets: Vec<(u64, u64)> = levels.iter().map(|l| (l.num_sets(), l.assoc as u64)).collect();
        if !lines_per_page.is_power_of_two()
            || !levels
                .iter()
                .zip(&sets)
                .all(|(l, s)| l.line_bytes == line_bytes && s.0.is_power_of_two())
        {
            return None;
        }
        let n_max = sets.iter().map(|s| s.0).max().expect("levels is not empty");
        let n_blocks = (n_max / lines_per_page).max(1) as usize;
        Some(RunGeometry { line_bytes, lines_per_page, n_blocks, levels: sets })
    }

    /// Number of colour blocks; page `pp` lies in block `pp & (nb - 1)`.
    pub(crate) fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// The profile of the `buffer_bytes` buffer at `placement` in
    /// `allocator`'s pool, with its full pages counted from the pool's
    /// block table in O(blocks) whatever the buffer's length; `None` when
    /// the stride is not below the line size. (A pool slice never repeats
    /// a page, so the `line == page` corner cannot arise.)
    pub(crate) fn profile_pool_slice(
        &self,
        allocator: &PageAllocator,
        placement: PlacementKey,
        buffer_bytes: u64,
        elem_bytes: u64,
        stride_elems: u64,
        scratch: &mut ProfileScratch,
    ) -> Option<ServiceProfile> {
        let segment =
            [PatternSegment { phys_pages: allocator.pages(placement, buffer_bytes), buffer_bytes }];
        self.profile(&segment, elem_bytes, stride_elems, scratch, |_, full, blocks| {
            allocator.add_block_counts(placement, full, self.n_blocks, blocks)
        })
    }

    /// The union profile of `segments`, or `None` when the stride is not
    /// below the line size. `count_full(s, full, blocks)` must add the
    /// first `full` pages of segment `s` to `blocks` by colour block; the
    /// partial last page is read from the segment itself.
    pub(crate) fn profile(
        &self,
        segments: &[PatternSegment<'_>],
        elem_bytes: u64,
        stride_elems: u64,
        scratch: &mut ProfileScratch,
        mut count_full: impl FnMut(usize, usize, &mut [u64]),
    ) -> Option<ServiceProfile> {
        assert!(stride_elems >= 1 && elem_bytes >= 1, "stride and element must be >= 1");
        let stride_bytes = stride_elems * elem_bytes;
        if stride_bytes >= self.line_bytes {
            return None;
        }
        let lines_per_page = self.lines_per_page;
        let block_mask = self.n_blocks as u64 - 1;
        scratch.blocks.clear();
        scratch.blocks.resize(self.n_blocks, 0);
        scratch.partials.clear();
        let mut distinct_lines = 0u64;
        let mut accesses_per_pass = 0u64;
        for (s, seg) in segments.iter().enumerate() {
            let accesses = seg.buffer_bytes / elem_bytes / stride_elems;
            accesses_per_pass += accesses;
            if accesses == 0 {
                continue;
            }
            let n_lines = (accesses - 1) * stride_bytes / self.line_bytes + 1;
            distinct_lines += n_lines;
            let full = (n_lines / lines_per_page) as usize;
            count_full(s, full, &mut scratch.blocks);
            let rem = n_lines % lines_per_page;
            if rem > 0 {
                scratch.partials.push(((seg.phys_pages[full] & block_mask) as usize, rem));
            }
        }
        Some(self.classify(scratch, distinct_lines, accesses_per_pass))
    }

    /// Classifies the full-page block counts and partial pages in
    /// `scratch` into a profile, piece by piece: the occupied blocks'
    /// counts fold into each level's class counts, one "fits" bit mask
    /// per occupied block collects the levels whose set holds the piece,
    /// and its lowest set bit (or DRAM) serves the block's lines. Adds
    /// the partial pages into `scratch`'s block counts.
    fn classify(
        &self,
        scratch: &mut ProfileScratch,
        distinct_lines: u64,
        accesses_per_pass: u64,
    ) -> ServiceProfile {
        let lines_per_page = self.lines_per_page;
        let ProfileScratch { blocks, partials, cuts, occupied, counts, classes, fits, .. } =
            scratch;
        cuts.clear();
        cuts.extend([0, lines_per_page]);
        cuts.extend(partials.iter().map(|&(_, rem)| rem));
        for &(sets, _) in &self.levels {
            if sets < lines_per_page {
                for &x in std::iter::once(&0).chain(partials.iter().map(|(_, rem)| rem)) {
                    cuts.extend((x & (sets - 1)..lines_per_page).step_by(sets as usize));
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        // The first piece holds every block's full pages and every
        // partial page; a partial page of `rem` lines leaves the counts
        // once a piece starts at `rem`. Only blocks that hold a page are
        // visited: a small buffer leaves most of the i7's 128 empty.
        let full_pages: u64 = blocks.iter().sum();
        partials.sort_unstable_by_key(|&(_, rem)| rem);
        for &(block, _) in partials.iter() {
            blocks[block] += 1;
        }
        occupied.clear();
        counts.clear();
        for (b, &c) in blocks.iter().enumerate().filter(|&(_, &c)| c > 0) {
            occupied.push(b);
            counts.push(c);
        }
        fits.resize(occupied.len(), 0);
        let n = self.levels.len();
        // Lines per serving level: L1 (dropped), deeper levels, DRAM.
        let mut served = [0u64; MAX_LEVELS + 1];
        let mut ended = 0;
        for piece in cuts.windows(2) {
            let (start, end) = (piece[0], piece[1]);
            fits.fill(0);
            for (li, &(sets, assoc)) in self.levels.iter().enumerate() {
                if sets >= lines_per_page {
                    // Block `b` falls in class `b mod S/L` of this level.
                    let class_mask = (sets / lines_per_page) as usize - 1;
                    if class_mask + 1 == self.n_blocks {
                        // The largest level: every block is a class.
                        for (m, &c) in fits.iter_mut().zip(counts.iter()) {
                            *m |= u32::from(c <= assoc) << li;
                        }
                        continue;
                    }
                    classes.clear();
                    classes.resize(class_mask + 1, 0);
                    let classes = &mut classes[..=class_mask];
                    for (&b, &c) in occupied.iter().zip(counts.iter()) {
                        classes[b & class_mask] += c;
                    }
                    for (m, &b) in fits.iter_mut().zip(occupied.iter()) {
                        *m |= u32::from(classes[b & class_mask] <= assoc) << li;
                    }
                } else {
                    // Set `s` holds L/S lines of every full page and, of a
                    // partial page of `rem` lines, rem/S plus one when
                    // `s < rem mod S`: the same count in every block.
                    let s = start & (sets - 1);
                    let partial: u64 = partials
                        .iter()
                        .map(|&(_, rem)| rem / sets + u64::from(s < rem & (sets - 1)))
                        .sum();
                    if full_pages * (lines_per_page / sets) + partial <= assoc {
                        for m in fits.iter_mut() {
                            *m |= 1 << li;
                        }
                    }
                }
            }
            // Each block's lines go to the first level whose set fits
            // them (`served[0]`, steady L1 hits, is dropped), or to DRAM
            // (`served[n]`). The serving level is selected, not branched to.
            let width = end - start;
            for (&m, &c) in fits.iter().zip(counts.iter()) {
                served[(m | 1 << n).trailing_zeros() as usize] += c * width;
            }
            while let Some(&(block, rem)) = partials.get(ended) {
                if rem > end {
                    break;
                }
                let at =
                    occupied.binary_search(&block).expect("a partial page's block is occupied");
                counts[at] -= 1;
                ended += 1;
            }
        }
        let mut served_by_level = LevelFetches::zeros(n - 1);
        served_by_level.copy_from_slice(&served[1..n]);
        ServiceProfile {
            served_by_level,
            served_by_dram: served[n],
            distinct_lines,
            accesses_per_pass,
        }
    }
}

/// The pre-optimisation implementations, kept verbatim as the oracle for
/// property tests, validation, and benches: the per-access resolve loop
/// and the per-level `thrash_mask` profile. The fast paths in this module
/// must stay bit-identical to these.
pub mod reference {
    use super::{LevelFetches, PhysicalPattern, ServiceProfile};
    use crate::machine::CacheLevelSpec;

    /// Original `PhysicalPattern::resolve`: one loop iteration (and one
    /// division) per access, consecutive-line dedup.
    pub fn resolve(
        phys_pages: &[u64],
        page_bytes: u64,
        elem_bytes: u64,
        stride_elems: u64,
        buffer_bytes: u64,
        line_bytes: u64,
    ) -> PhysicalPattern {
        assert!(stride_elems >= 1, "stride must be >= 1");
        assert!(elem_bytes >= 1 && line_bytes >= 1 && page_bytes >= line_bytes);
        let stride_bytes = stride_elems * elem_bytes;
        let n_elems = buffer_bytes / elem_bytes;
        let accesses_per_pass = n_elems.checked_div(stride_elems).unwrap_or(0);

        let mut line_addrs = Vec::new();
        let mut last_line = u64::MAX;
        let mut off: u64 = 0;
        for _ in 0..accesses_per_pass {
            let vpage = off / page_bytes;
            let phys = phys_pages[vpage as usize] * page_bytes + (off % page_bytes);
            let line = phys / line_bytes;
            if line != last_line {
                line_addrs.push(line * line_bytes);
                last_line = line;
            }
            off += stride_bytes;
        }
        PhysicalPattern { line_addrs, accesses_per_pass }
    }

    /// Pages per colour block `pp mod n_blocks`, one page at a time: what
    /// the pool's colour-block table (see
    /// [`crate::paging::PageAllocator`]) answers for a slice without
    /// walking it.
    pub fn block_counts(pages: &[u64], n_blocks: u64) -> Vec<u64> {
        let mut counts = vec![0u64; n_blocks as usize];
        for &pp in pages {
            counts[(pp % n_blocks) as usize] += 1;
        }
        counts
    }

    /// Original `ServiceProfile::compute`: a fresh thrash mask per level,
    /// then per-line classification over the masks.
    pub fn compute(pattern: &PhysicalPattern, levels: &[CacheLevelSpec]) -> ServiceProfile {
        let masks: Vec<Vec<bool>> = levels.iter().map(|l| pattern.thrash_mask(l)).collect();
        let n_lines = pattern.distinct_lines() as usize;
        let mut served_by_level = LevelFetches::zeros(levels.len().saturating_sub(1));
        let mut served_by_dram = 0u64;
        for line_idx in 0..n_lines {
            if !masks[0][line_idx] {
                continue;
            }
            let mut served = None;
            for (li, mask) in masks.iter().enumerate().skip(1) {
                if !mask[line_idx] {
                    served = Some(li);
                    break;
                }
            }
            match served {
                Some(li) => served_by_level[li - 1] += 1,
                None => served_by_dram += 1,
            }
        }
        ServiceProfile {
            served_by_level,
            served_by_dram,
            distinct_lines: pattern.distinct_lines(),
            accesses_per_pass: pattern.accesses_per_pass(),
        }
    }
}

/// The most cache levels, L1 included, a hierarchy may have: a
/// [`ServiceProfile`] holds its per-level counts inline, so computing or
/// caching one allocates nothing.
pub const MAX_LEVELS: usize = 4;

/// Line fetches per steady pass served by each cache level below L1,
/// held inline; dereferences to one count per deeper level, L2 first.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LevelFetches {
    len: u8,
    fetches: [u64; MAX_LEVELS - 1],
}

impl LevelFetches {
    /// `n` zero counts.
    ///
    /// # Panics
    ///
    /// If `n` exceeds `MAX_LEVELS - 1`.
    pub fn zeros(n: usize) -> Self {
        assert!(n < MAX_LEVELS, "a hierarchy has at most {MAX_LEVELS} cache levels");
        LevelFetches { len: n as u8, fetches: [0; MAX_LEVELS - 1] }
    }
}

impl std::ops::Deref for LevelFetches {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.fetches[..usize::from(self.len)]
    }
}

impl std::ops::DerefMut for LevelFetches {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.fetches[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for LevelFetches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Per-pass service profile of a pattern through a whole hierarchy:
/// how many line fetches per pass are served by each level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// `served_by[i]` — line fetches per steady pass served by cache
    /// level `i+1` (i.e. missing in levels `0..=i`, hitting in `i+1`).
    /// Index 0 corresponds to fetches served by L2 (missed L1), etc.
    pub served_by_level: LevelFetches,
    /// Line fetches per steady pass served by DRAM (missed everywhere).
    pub served_by_dram: u64,
    /// Distinct lines (all of which go to DRAM on the warm pass).
    pub distinct_lines: u64,
    /// Accesses per pass.
    pub accesses_per_pass: u64,
}

impl ServiceProfile {
    /// Computes the profile of `pattern` through `levels` (L1 first).
    ///
    /// A line is served by the first level whose set does not thrash; if
    /// all levels thrash it goes to DRAM every pass.
    pub fn compute(pattern: &PhysicalPattern, levels: &[CacheLevelSpec]) -> Self {
        Self::compute_with(pattern, levels, &mut ProfileScratch::default())
    }

    /// [`ServiceProfile::compute`] with caller-provided scratch buffers.
    ///
    /// Where `compute` used to build a fresh address→set vector, per-set
    /// histogram, and thrash mask *per level*, this makes one counting
    /// pass and one classification pass over the lines for all levels
    /// together, reusing `scratch` across calls. The result is identical
    /// to the per-level-mask formulation (see [`reference::compute`]).
    pub(crate) fn compute_with(
        pattern: &PhysicalPattern,
        levels: &[CacheLevelSpec],
        scratch: &mut ProfileScratch,
    ) -> Self {
        let indexers: Vec<SetIndexer> = levels.iter().map(SetIndexer::new).collect();
        scratch.per_set.resize_with(levels.len(), Vec::new);
        for (li, level) in levels.iter().enumerate() {
            let counts = &mut scratch.per_set[li];
            counts.clear();
            counts.resize(level.num_sets() as usize, 0);
        }
        for &addr in pattern.line_addrs() {
            for (li, ix) in indexers.iter().enumerate() {
                scratch.per_set[li][ix.set_of(addr) as usize] += 1;
            }
        }
        let mut served_by_level = LevelFetches::zeros(levels.len().saturating_sub(1));
        let mut served_by_dram = 0u64;
        for &addr in pattern.line_addrs() {
            let s0 = indexers[0].set_of(addr) as usize;
            if scratch.per_set[0][s0] <= levels[0].assoc as u32 {
                continue; // steady L1 hit: no fetch
            }
            let mut served = None;
            for (li, ix) in indexers.iter().enumerate().skip(1) {
                let s = ix.set_of(addr) as usize;
                if scratch.per_set[li][s] <= levels[li].assoc as u32 {
                    served = Some(li);
                    break;
                }
            }
            match served {
                Some(li) => served_by_level[li - 1] += 1,
                None => served_by_dram += 1,
            }
        }
        ServiceProfile {
            served_by_level,
            served_by_dram,
            distinct_lines: pattern.distinct_lines(),
            accesses_per_pass: pattern.accesses_per_pass(),
        }
    }

    /// Issue cycles spent per fetched line: how much compute the core has
    /// available to *hide* a miss latency behind (out-of-order execution
    /// plus hardware prefetch on a constant-stride pattern).
    fn issue_cycles_per_line(&self, issue_cycles_per_access: f64) -> f64 {
        if self.distinct_lines == 0 {
            return 0.0;
        }
        self.accesses_per_pass as f64 * issue_cycles_per_access / self.distinct_lines as f64
    }

    /// Effective stall of a fetch with raw latency `lat`: the machine
    /// hides `overlap_factor · issue_cycles_per_line` of it. This is the
    /// mechanism behind the paper's Figure 9 observation that the L1
    /// boundary is *invisible* when the kernel "is not using the full
    /// processor capacity in terms of memory access": a slow narrow kernel
    /// gives the prefetcher enough slack to hide the entire L2 latency.
    fn effective_stall(&self, lat: f64, issue_cycles_per_access: f64, overlap: f64) -> f64 {
        (lat - overlap * self.issue_cycles_per_line(issue_cycles_per_access)).max(0.0)
    }

    /// Cycles of one steady-state pass: issue cost plus (overlap-reduced)
    /// miss penalties.
    ///
    /// `issue_cycles_per_access` comes from the compiler model;
    /// `levels[i].hit_latency_cycles` is the penalty for a fetch served by
    /// level `i` (L1's own latency is folded into the issue cost);
    /// `dram_latency_cycles` for fetches that reach memory;
    /// `overlap_factor` in `[0, 1]` is the machine's ability to hide miss
    /// latency behind compute on streaming patterns.
    pub(crate) fn steady_pass_cycles(
        &self,
        issue_cycles_per_access: f64,
        levels: &[CacheLevelSpec],
        dram_latency_cycles: f64,
        overlap_factor: f64,
    ) -> f64 {
        let mut cycles = self.accesses_per_pass as f64 * issue_cycles_per_access;
        for (i, &fetches) in self.served_by_level.iter().enumerate() {
            let stall = self.effective_stall(
                levels[i + 1].hit_latency_cycles,
                issue_cycles_per_access,
                overlap_factor,
            );
            cycles += fetches as f64 * stall;
        }
        cycles += self.served_by_dram as f64
            * self.effective_stall(dram_latency_cycles, issue_cycles_per_access, overlap_factor);
        cycles
    }

    /// Cycles of the warm (first) pass: all distinct lines are compulsory
    /// DRAM fetches (overlap applies — prefetchers stream ahead on the
    /// first pass too).
    pub(crate) fn warm_pass_cycles(
        &self,
        issue_cycles_per_access: f64,
        dram_latency_cycles: f64,
        overlap_factor: f64,
    ) -> f64 {
        self.accesses_per_pass as f64 * issue_cycles_per_access
            + self.distinct_lines as f64
                * self.effective_stall(dram_latency_cycles, issue_cycles_per_access, overlap_factor)
    }

    /// Total kernel cycles for `nloops` passes (first pass warm).
    pub fn total_cycles(
        &self,
        nloops: u64,
        issue_cycles_per_access: f64,
        levels: &[CacheLevelSpec],
        dram_latency_cycles: f64,
        overlap_factor: f64,
    ) -> f64 {
        if nloops == 0 {
            return 0.0;
        }
        self.warm_pass_cycles(issue_cycles_per_access, dram_latency_cycles, overlap_factor)
            + (nloops - 1) as f64
                * self.steady_pass_cycles(
                    issue_cycles_per_access,
                    levels,
                    dram_latency_cycles,
                    overlap_factor,
                )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Access, SetAssocCache};
    use crate::machine::CacheLevelSpec;

    fn l1_spec(size: u64, assoc: usize, line: u64) -> CacheLevelSpec {
        CacheLevelSpec { size_bytes: size, assoc, line_bytes: line, hit_latency_cycles: 10.0 }
    }

    /// Identity paging: virtual page v -> physical page v.
    fn identity_pages(buffer_bytes: u64, page: u64) -> Vec<u64> {
        (0..buffer_bytes.div_ceil(page)).collect()
    }

    #[test]
    fn pattern_counts_stride1() {
        let pages = identity_pages(8192, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 8192, 64);
        assert_eq!(p.accesses_per_pass(), 2048);
        assert_eq!(p.distinct_lines(), 128);
    }

    #[test]
    fn pattern_counts_large_stride() {
        // stride 32 elements of 4B = 128B > 64B line: one line per access.
        let pages = identity_pages(8192, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 32, 8192, 64);
        assert_eq!(p.accesses_per_pass(), 64);
        assert_eq!(p.distinct_lines(), 64);
    }

    #[test]
    fn fits_in_cache_no_thrash() {
        let pages = identity_pages(4096, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 4096, 64);
        let l1 = l1_spec(8192, 2, 64);
        assert_eq!(p.steady_misses(&l1), 0);
    }

    #[test]
    fn twice_cache_size_thrashes_everywhere() {
        let pages = identity_pages(16384, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 16384, 64);
        let l1 = l1_spec(8192, 2, 64);
        // every line is in an overcommitted set -> every line misses per pass
        assert_eq!(p.steady_misses(&l1), p.distinct_lines());
    }

    /// Cross-validation: analytic steady misses == exact LRU simulator
    /// steady-state misses, across sizes around the cache capacity and
    /// several strides.
    #[test]
    fn analytic_matches_lru_simulator() {
        let (cache_size, assoc, line) = (4096u64, 4usize, 64u64);
        let page = 1024u64;
        for &buffer in &[1024u64, 2048, 4096, 5120, 8192, 12288] {
            for &stride in &[1u64, 2, 4, 16, 32] {
                // scrambled but fixed physical layout
                let n_pages = buffer.div_ceil(page);
                let pages: Vec<u64> = (0..n_pages).map(|v| (v * 7 + 3) % 64).collect();
                let pattern = PhysicalPattern::resolve(&pages, page, 4, stride, buffer, line);
                let spec = l1_spec(cache_size, assoc, line);

                // exact simulation: 1 warm pass + 3 steady passes
                let mut sim = SetAssocCache::new(cache_size, assoc, line);
                let offsets: Vec<u64> =
                    (0..pattern.accesses_per_pass()).map(|i| i * stride * 4).collect();
                let addr = |off: u64| pages[(off / page) as usize] * page + off % page;
                for &o in &offsets {
                    sim.access(addr(o));
                }
                let mut steady_misses = 0u64;
                for _ in 0..3 {
                    for &o in &offsets {
                        if sim.access(addr(o)) == Access::Miss {
                            steady_misses += 1;
                        }
                    }
                }
                assert_eq!(
                    steady_misses,
                    3 * pattern.steady_misses(&spec),
                    "mismatch at buffer={buffer} stride={stride}"
                );
            }
        }
    }

    #[test]
    fn color_conflicts_cause_partial_thrash() {
        // ARM-like: 2 colours. 6 pages all of colour 0 on a 4-way cache:
        // each set in colour 0 sees 6 lines > 4 ways -> all thrash; buffer
        // is only 24 KiB < 32 KiB cache.
        let l1 = l1_spec(32 * 1024, 4, 32);
        let pages: Vec<u64> = vec![0, 2, 4, 6, 8, 10]; // all even = colour 0
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 6 * 4096, 32);
        assert_eq!(p.steady_misses(&l1), p.distinct_lines());

        // Balanced colours: 3 even + 3 odd -> 3 lines per set < 4 ways.
        let pages_bal: Vec<u64> = vec![0, 1, 2, 3, 4, 5];
        let p2 = PhysicalPattern::resolve(&pages_bal, 4096, 4, 1, 6 * 4096, 32);
        assert_eq!(p2.steady_misses(&l1), 0);
    }

    #[test]
    fn service_profile_levels() {
        // L1 8K/2way, L2 64K/8way; buffer 16K: thrash L1, fit L2.
        let levels = vec![l1_spec(8192, 2, 64), l1_spec(65536, 8, 64)];
        let pages = identity_pages(16384, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 16384, 64);
        let prof = ServiceProfile::compute(&p, &levels);
        assert_eq!(prof.served_by_level[0], p.distinct_lines());
        assert_eq!(prof.served_by_dram, 0);

        // buffer 256K: thrash both -> DRAM.
        let pages = identity_pages(262_144, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 262_144, 64);
        let prof = ServiceProfile::compute(&p, &levels);
        assert_eq!(prof.served_by_dram, p.distinct_lines());
    }

    #[test]
    fn cycles_accounting() {
        let levels = vec![l1_spec(8192, 2, 64), l1_spec(65536, 8, 64)];
        let pages = identity_pages(4096, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 4096, 64);
        let prof = ServiceProfile::compute(&p, &levels);
        // fits L1: steady pass = pure issue cost
        let steady = prof.steady_pass_cycles(2.0, &levels, 100.0, 0.0);
        assert_eq!(steady, 1024.0 * 2.0);
        // warm pass adds a DRAM fetch per line (no overlap here)
        let warm = prof.warm_pass_cycles(2.0, 100.0, 0.0);
        assert_eq!(warm, 1024.0 * 2.0 + 64.0 * 100.0);
        // 3 loops = warm + 2 steady
        let total = prof.total_cycles(3, 2.0, &levels, 100.0, 0.0);
        assert_eq!(total, warm + 2.0 * steady);
        assert_eq!(prof.total_cycles(0, 2.0, &levels, 100.0, 0.0), 0.0);
    }

    #[test]
    fn overlap_hides_latency_when_issue_bound() {
        // 16 accesses per line at 2 cycles each = 32 cycles of slack:
        // with full overlap an L2 latency of 12 vanishes entirely.
        let levels = vec![l1_spec(8192, 2, 64), l1_spec(65536, 8, 64)];
        let pages = identity_pages(16384, 4096);
        let p = PhysicalPattern::resolve(&pages, 4096, 4, 1, 16384, 64);
        let prof = ServiceProfile::compute(&p, &levels);
        assert!(prof.served_by_level[0] > 0, "must be L2-resident");
        let no_overlap = prof.steady_pass_cycles(2.0, &levels, 100.0, 0.0);
        let full_overlap = prof.steady_pass_cycles(2.0, &levels, 100.0, 1.0);
        let issue_only = p.accesses_per_pass() as f64 * 2.0;
        assert!(no_overlap > issue_only);
        assert_eq!(full_overlap, issue_only, "L2 latency (10 < 32) fully hidden");
        // DRAM latency (100 > 32) is only partially hidden.
        let pages_big = identity_pages(262_144, 4096);
        let pb = PhysicalPattern::resolve(&pages_big, 4096, 4, 1, 262_144, 64);
        let prof_b = ServiceProfile::compute(&pb, &levels);
        let with = prof_b.steady_pass_cycles(2.0, &levels, 100.0, 1.0);
        assert!(with > pb.accesses_per_pass() as f64 * 2.0);
    }
}

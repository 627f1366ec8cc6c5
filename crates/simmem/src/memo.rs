//! Bounded memoization of service profiles.
//!
//! A measurement's [`crate::layout::ServiceProfile`] is a pure function
//! of *where the buffer landed* and the cache geometry: placement is
//! decided by [`crate::paging::PageAllocator`], whose `allocate_at` is
//! side-effect-free, `MallocPerSize` reuses one fixed placement forever,
//! and `PooledRandomOffset` slices a fixed block at a start offset — so
//! the placement is fully identified by a tiny `PlacementKey` instead
//! of the page vector itself. Replicates and repeated design cells
//! therefore skip pattern resolution and profile computation entirely;
//! only the governor/scheduler/jitter stage (which carries all the
//! temporal phenomena) runs per measurement.
//!
//! The cache is consulted strictly *after* any RNG draws the uncached
//! path would have made and never touches the virtual clock, so records
//! are bit-identical with the cache on, off, or at any capacity — see
//! `DESIGN.md` §13 and the property tests in `tests/fastpath.rs`.
//!
//! Every machine owns its `ProfileCache`: forks and clones start
//! empty at the parent's capacity (see `DESIGN.md` §14), so campaign
//! shards never share a lock or a refcount on the per-row path. Because
//! a machine's cache geometry is fixed when it is built, the key leaves
//! the geometry out: a lookup, insert or eviction hashes a few integers
//! and clones nothing.
//!
//! Under `PooledRandomOffset` nearly every row misses, so the miss is
//! the cost: the profile is computed from how many of the slice's pages
//! fall in each page-colour block, which the pool's block table (see
//! [`crate::paging`]) answers in O(blocks) whatever the buffer's length.

use crate::layout::ServiceProfile;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a hasher for the profile map. A [`ProfileKey`] is a handful of
/// small integers; the std `HashMap`'s SipHash pays its keyed setup on
/// every lookup, which dominates the hit path the memoization exists to
/// make cheap. FNV needs no setup and mixes a word per multiply. Not
/// DoS-resistant — irrelevant here, keys come from the experiment plan,
/// not the network.
#[derive(Debug, Default)]
pub(crate) struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl FnvHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// The profile map's hasher factory (stateless, so hashes are stable
/// across maps and runs).
pub(crate) type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Identifies where a buffer landed, independent of its page vector.
///
/// Valid because every policy serves buffers out of one fixed seeded pool
/// permutation per allocator: `MallocPerSize` always the prefix,
/// `PooledRandomOffset` always the contiguous slice at a start offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlacementKey {
    /// `MallocPerSize`: the pool prefix (the buffer size in the rest of
    /// the key pins the length).
    MallocPrefix,
    /// `PooledRandomOffset`: the slice starting at this pool offset.
    PooledStart(u64),
    /// Identity mapping (virtual page v → physical page v), used by
    /// idealised paths like `ideal_bandwidth_mbps`. Never collides with
    /// allocator-backed placements.
    Identity,
}

/// Everything a service profile depends on, apart from the cache
/// geometry: a cache belongs to one machine, whose geometry is fixed at
/// `MachineSim::new`, and `run_kernel_parallel`'s contention-shrunk
/// geometry is a function of its thread count, which `arrays` carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProfileKey {
    /// Where the (first) buffer landed.
    pub placement: PlacementKey,
    /// Buffer size in bytes (per array for multi-array kernels).
    pub buffer_bytes: u64,
    /// Stride in elements.
    pub stride_elems: u64,
    /// Element width in bytes.
    pub elem_bytes: u64,
    /// Distinguishes callers that share a placement but profile different
    /// slices of it: `run_kernel` uses [`SEGMENT_WHOLE`], `run_stream`
    /// [`SEGMENT_MERGED`], `run_kernel_parallel` the thread index.
    pub segment: u32,
    /// Number of arrays/threads sharing the allocation (1 for plain
    /// kernels).
    pub arrays: u32,
}

/// [`ProfileKey::segment`] for single-buffer kernels.
pub(crate) const SEGMENT_WHOLE: u32 = u32::MAX;
/// [`ProfileKey::segment`] for the merged multi-array stream pattern.
pub(crate) const SEGMENT_MERGED: u32 = u32::MAX - 1;

/// Bounded FIFO-evicting map from [`ProfileKey`] to a
/// [`ServiceProfile`], owned by one machine. A profile is a few inline
/// integers, stored and handed out by value, so neither a lookup nor an
/// insert or eviction allocates once the map has reached its capacity.
///
/// FIFO (not LRU) keeps lookups read-only; campaigns revisit a
/// bounded set of design cells, so recency adds nothing. Capacity 0
/// disables the cache (every lookup misses), which the property tests
/// use to prove the cache never changes a record. The cache never
/// holds more than `capacity()` profiles.
///
/// Cloning yields an *empty* cache at the same capacity: a clone or
/// fork of a machine starts cold instead of deep-copying the map.
#[derive(Debug)]
pub(crate) struct ProfileCache {
    map: HashMap<ProfileKey, ServiceProfile, FnvBuildHasher>,
    order: VecDeque<ProfileKey>,
    capacity: usize,
}

/// Default capacity: comfortably above any campaign grid in the repo
/// (25 sizes × strides × policies) while bounding memory to a few MiB
/// even with adversarial plans.
pub(crate) const DEFAULT_CAPACITY: usize = 1024;

impl Default for ProfileCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Clone for ProfileCache {
    fn clone(&self) -> Self {
        Self::with_capacity(self.capacity)
    }
}

impl ProfileCache {
    /// A cache holding at most `capacity` profiles (0 disables caching).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ProfileCache { map: HashMap::default(), order: VecDeque::new(), capacity }
    }

    /// The eviction bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up.
    pub(crate) fn lookup(&self, key: &ProfileKey) -> Option<ServiceProfile> {
        self.map.get(key).copied()
    }

    /// Inserts a profile computed after a miss, evicting the oldest key
    /// when full. A no-op at capacity 0.
    pub(crate) fn insert(&mut self, key: ProfileKey, profile: ServiceProfile) {
        if self.capacity == 0 || self.map.insert(key, profile).is_some() {
            return;
        }
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LevelFetches;

    fn key(start: u64, buffer: u64) -> ProfileKey {
        ProfileKey {
            placement: PlacementKey::PooledStart(start),
            buffer_bytes: buffer,
            stride_elems: 1,
            elem_bytes: 4,
            segment: SEGMENT_WHOLE,
            arrays: 1,
        }
    }

    fn entry(distinct: u64) -> ServiceProfile {
        ServiceProfile {
            served_by_level: LevelFetches::zeros(0),
            served_by_dram: 0,
            distinct_lines: distinct,
            accesses_per_pass: 0,
        }
    }

    /// Number of cached profiles.
    fn cached(c: &ProfileCache) -> usize {
        c.map.len()
    }

    #[test]
    fn lookup_hits_only_inserted_keys() {
        let mut c = ProfileCache::default();
        assert!(c.lookup(&key(0, 4096)).is_none());
        c.insert(key(0, 4096), entry(1));
        assert!(c.lookup(&key(0, 4096)).is_some());
        assert!(c.lookup(&key(1, 4096)).is_none());
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let mut c = ProfileCache::with_capacity(2);
        for start in 0..5u64 {
            c.insert(key(start, 4096), entry(start));
        }
        assert_eq!(cached(&c), 2);
        assert!(c.lookup(&key(0, 4096)).is_none(), "oldest evicted");
        assert!(c.lookup(&key(4, 4096)).is_some(), "newest kept");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut c = ProfileCache::with_capacity(0);
        c.insert(key(0, 4096), entry(1));
        assert_eq!(cached(&c), 0);
        assert!(c.lookup(&key(0, 4096)).is_none());
    }

    #[test]
    fn keys_separate_every_dimension() {
        let base = key(3, 8192);
        let mut variants = vec![base];
        variants.push(ProfileKey { placement: PlacementKey::MallocPrefix, ..base });
        variants.push(ProfileKey { placement: PlacementKey::Identity, ..base });
        variants.push(ProfileKey { buffer_bytes: 4096, ..base });
        variants.push(ProfileKey { stride_elems: 2, ..base });
        variants.push(ProfileKey { elem_bytes: 8, ..base });
        variants.push(ProfileKey { segment: 0, ..base });
        variants.push(ProfileKey { arrays: 3, ..base });
        let mut c = ProfileCache::default();
        for (i, v) in variants.iter().enumerate() {
            c.insert(*v, entry(i as u64));
        }
        assert_eq!(cached(&c), variants.len(), "every dimension must distinguish keys");
    }

    #[test]
    fn clones_start_empty_at_the_same_capacity() {
        let mut c = ProfileCache::with_capacity(3);
        c.insert(key(0, 4096), entry(1));
        let clone = c.clone();
        assert_eq!(cached(&clone), 0);
        assert_eq!(clone.capacity(), 3);
        assert!(c.lookup(&key(0, 4096)).is_some(), "the original keeps its entries");
    }
}

//! CPU specifications (the Figure 5 table) and the combined machine
//! simulator.

use crate::compiler::{CodegenConfig, ElementWidth, IssueModel};
use crate::dvfs::{Governor, GovernorPolicy};
use crate::kernel::{KernelConfig, KernelResult};
use crate::layout::{
    profile_segments, PatternSegment, ProfileScratch, RunGeometry, ServiceProfile,
};
use crate::memo::{PlacementKey, ProfileCache, ProfileKey, SEGMENT_WHOLE};
use crate::paging::{color_histogram, AllocPolicy, PageAllocator};
use crate::sched::{IntruderConfig, SchedPolicy, Scheduler};
use crate::stream;
use charm_obs::{IndexedNames, Observation, Recorder};
use std::cell::RefCell;
use std::sync::Arc;

/// Salt for the per-measurement timer-jitter draw.
const JITTER_SALT: u64 = 0x7177_E200_0000_0004;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevelSpec {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Cycles to service a fetch that hits this level (for L1 this is
    /// folded into the issue cost and ignored).
    pub hit_latency_cycles: f64,
}

impl CacheLevelSpec {
    /// Number of sets.
    pub(crate) fn num_sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes)
    }

    /// Bytes one way spans (`size / assoc`) — determines page colours.
    pub(crate) fn way_bytes(&self) -> u64 {
        self.size_bytes / self.assoc as u64
    }
}

/// Full description of a CPU, mirroring one row of the paper's Figure 5.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// Marketing name as in Figure 5.
    pub name: &'static str,
    /// Word size in bits.
    pub word_bits: u32,
    /// Number of cores (informational; the benchmark is single-threaded).
    pub cores: u32,
    /// Available frequencies in GHz, ascending (one entry = no DVFS).
    pub freqs_ghz: Vec<f64>,
    /// Cache levels, L1 first.
    pub levels: Vec<CacheLevelSpec>,
    /// DRAM access latency in cycles (at nominal frequency).
    pub dram_latency_cycles: f64,
    /// OS page size in bytes.
    pub page_bytes: u64,
    /// Physical pages available to the benchmark.
    pub pool_pages: usize,
    /// Issue cost model.
    pub issue: IssueModel,
    /// Ability to hide miss latency behind compute on streaming patterns
    /// (out-of-order window + hardware prefetchers), in `[0, 1]`.
    pub overlap_factor: f64,
    /// Baseline relative measurement noise of the platform timer/loop.
    pub timer_noise_rel: f64,
    /// Index (into `levels`) of the first *shared* cache level, if any —
    /// threads on different cores compete for its capacity.
    pub first_shared_level: Option<usize>,
    /// Independent DRAM channels: concurrent memory streams beyond this
    /// count contend for bandwidth.
    pub dram_channels: u32,
}

impl CpuSpec {
    /// AMD **Opteron**, 2.8 GHz, 2 cores, 64-bit; L1 64 KB 2-way,
    /// L2 1 MB 16-way (Figure 5 row 1; the Figure 7 machine).
    pub fn opteron() -> Self {
        CpuSpec {
            name: "Opteron 2.8GHz",
            word_bits: 64,
            cores: 2,
            freqs_ghz: vec![2.8],
            levels: vec![
                CacheLevelSpec {
                    size_bytes: 64 * 1024,
                    assoc: 2,
                    line_bytes: 64,
                    hit_latency_cycles: 3.0,
                },
                CacheLevelSpec {
                    size_bytes: 1024 * 1024,
                    assoc: 16,
                    line_bytes: 64,
                    hit_latency_cycles: 14.0,
                },
            ],
            dram_latency_cycles: 180.0,
            page_bytes: 4096,
            pool_pages: 8192, // 32 MiB of pool
            issue: IssueModel::generic_ooo(),
            overlap_factor: 0.2,
            timer_noise_rel: 0.01,
            first_shared_level: None,
            dram_channels: 2,
        }
    }

    /// Intel **Pentium 4**, 3.2 GHz, 64-bit; L1 16 KB 8-way, L2 2 MB 8-way
    /// (Figure 5 row 2; the Figure 8 machine).
    pub fn pentium4() -> Self {
        CpuSpec {
            name: "Intel Pentium 4 3.2GHz",
            word_bits: 64,
            cores: 2,
            freqs_ghz: vec![3.2],
            levels: vec![
                CacheLevelSpec {
                    size_bytes: 16 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    hit_latency_cycles: 4.0,
                },
                CacheLevelSpec {
                    size_bytes: 2 * 1024 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    hit_latency_cycles: 20.0,
                },
            ],
            dram_latency_cycles: 280.0,
            page_bytes: 4096,
            pool_pages: 8192,
            issue: IssueModel {
                // NetBurst: long pipeline, poor sustained load throughput.
                rolled_cycles_per_access: 3.0,
                unrolled_cycles_per_access: 1.5,
                overrides: Default::default(),
            },
            overlap_factor: 0.3,
            timer_noise_rel: 0.03,
            first_shared_level: None,
            dram_channels: 1,
        }
    }

    /// Intel **Core i7-2600** (Sandy Bridge), 3.4 GHz, 8 threads; per-core
    /// L1 32 KB 8-way, L2 256 KB 8-way, shared L3 8 MB 16-way (Figure 5
    /// row 3; the Figures 9 and 10 machine). DVFS modes 1.6/3.4 GHz; the
    /// 256-bit + unroll codegen anomaly of Figure 9 is an issue-model
    /// override.
    pub fn core_i7_2600() -> Self {
        let anomaly = CodegenConfig::new(ElementWidth::W256, true);
        CpuSpec {
            name: "Intel Core i7-2600 3.4GHz",
            word_bits: 64,
            cores: 8,
            freqs_ghz: vec![1.6, 3.4],
            levels: vec![
                CacheLevelSpec {
                    size_bytes: 32 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    hit_latency_cycles: 4.0,
                },
                CacheLevelSpec {
                    size_bytes: 256 * 1024,
                    assoc: 8,
                    line_bytes: 64,
                    hit_latency_cycles: 12.0,
                },
                CacheLevelSpec {
                    size_bytes: 8 * 1024 * 1024,
                    assoc: 16,
                    line_bytes: 64,
                    hit_latency_cycles: 30.0,
                },
            ],
            dram_latency_cycles: 200.0,
            page_bytes: 4096,
            pool_pages: 65536, // 256 MiB — large enough for 8-thread sweeps
            issue: IssueModel::generic_ooo().with_override(anomaly, 12.0),
            overlap_factor: 0.8,
            timer_noise_rel: 0.01,
            first_shared_level: Some(2), // the 8 MiB L3 is socket-shared
            dram_channels: 2,
        }
    }

    /// **ARM Snowball** (ARMv7 rev 1), 1.0 GHz, 2 cores, 32-bit; L1 32 KB
    /// 4-way (the associativity §IV-4 reports for this generation; the
    /// Figure 5 table itself lists 2-way — we follow §IV-4 because the
    /// paging analysis depends on it), L2 512 KB (Figure 5 row 4; the
    /// Figures 11 and 12 machine).
    pub fn arm_snowball() -> Self {
        CpuSpec {
            name: "ARMv7 Snowball 1.0GHz",
            word_bits: 32,
            cores: 2,
            freqs_ghz: vec![1.0],
            levels: vec![
                CacheLevelSpec {
                    size_bytes: 32 * 1024,
                    assoc: 4,
                    line_bytes: 32,
                    hit_latency_cycles: 4.0,
                },
                CacheLevelSpec {
                    size_bytes: 512 * 1024,
                    assoc: 8,
                    line_bytes: 32,
                    hit_latency_cycles: 40.0,
                },
            ],
            dram_latency_cycles: 150.0,
            page_bytes: 4096,
            pool_pages: 512, // the paper's 2 MiB pooled block
            issue: IssueModel {
                // in-order-ish core
                rolled_cycles_per_access: 3.0,
                unrolled_cycles_per_access: 2.0,
                overrides: Default::default(),
            },
            overlap_factor: 0.1,
            timer_noise_rel: 0.008,
            first_shared_level: Some(1), // the 512 KiB L2 is shared
            dram_channels: 1,
        }
    }

    /// All four Figure 5 presets.
    pub fn all() -> Vec<CpuSpec> {
        vec![Self::opteron(), Self::pentium4(), Self::core_i7_2600(), Self::arm_snowball()]
    }

    /// Renders the Figure 5 table row for this CPU.
    pub fn table_row(&self) -> String {
        let caches: Vec<String> = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| format!("L{}: {}KB {}-way", i + 1, l.size_bytes / 1024, l.assoc))
            .collect();
        format!(
            "{:<28} {:>4} cores  {:>2}-bit  {}",
            self.name,
            self.cores,
            self.word_bits,
            caches.join("  ")
        )
    }
}

/// A multi-buffer kernel's working set that the machine's page pool
/// cannot hold ([`MachineSim::max_buffer_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExceeded {
    /// Buffers in the working set: threads or arrays.
    pub buffers: u64,
    /// The size of each buffer.
    pub buffer_bytes: u64,
    /// The page pool's size.
    pub pool_bytes: u64,
}

impl std::fmt::Display for PoolExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let PoolExceeded { buffers, buffer_bytes, pool_bytes } = self;
        write!(
            f,
            "{buffers} buffers of {buffer_bytes} bytes do not fit the {pool_bytes}-byte page pool"
        )
    }
}

impl std::error::Error for PoolExceeded {}

/// The combined machine: CPU spec + governor + scheduler + page allocator
/// + virtual clock.
///
/// One instance models one *experiment run* (one boot): re-create with a
/// new seed for an independent run.
///
/// Timer jitter and pooled-allocation offsets are counter-based — pure
/// functions of `(seed, measurement index)` — so for configurations whose
/// physics is time-independent (see [`MachineSim::order_invariant`]) a
/// campaign can be split across [`MachineSim::fork`]ed instances and
/// reproduce the sequential measurement values exactly.
#[derive(Debug, Clone)]
pub struct MachineSim {
    spec: CpuSpec,
    governor: Governor,
    scheduler: Scheduler,
    allocator: PageAllocator,
    stream_seed: u64,
    now_us: f64,
    last_busy_end_us: f64,
    /// Idle virtual time between measurements (setup, logging; µs).
    pub inter_measurement_us: f64,
    measurements_taken: u64,
    recorder: Recorder,
    /// The run-based profile path's view of `spec.levels`, derived once:
    /// `None` when the hierarchy falls outside it.
    run_geometry: Option<RunGeometry>,
    /// Profile memoization + reusable scratch. `RefCell` because
    /// [`MachineSim::ideal_bandwidth_mbps`] takes `&self`; `&mut self`
    /// paths use `get_mut` (no runtime borrow). Private to this machine:
    /// forks and clones start with an empty cache (`DESIGN.md` §14).
    /// Never observable: the cache holds pure functions of its keys and
    /// its stats stay out of the [`Recorder`].
    memo: RefCell<MemoState>,
}

/// Pre-interned `"simmem.cache.l{n}.*"` counter names.
#[derive(Debug, Clone)]
struct LevelCounterNames {
    hits: IndexedNames,
    misses: IndexedNames,
    evictions: IndexedNames,
}

/// The memoization side-car of a machine: cache, scratch buffers, and
/// pre-interned counter names (everything the hot path would otherwise
/// allocate per measurement).
#[derive(Debug)]
struct MemoState {
    /// This machine's profile cache; never shared with a fork or clone.
    cache: ProfileCache,
    /// Lookups this machine made that hit / missed its cache.
    local_hits: u64,
    local_misses: u64,
    scratch: ProfileScratch,
    color_names: IndexedNames,
    level_names: LevelCounterNames,
}

impl MemoState {
    fn new() -> Self {
        MemoState {
            cache: ProfileCache::default(),
            local_hits: 0,
            local_misses: 0,
            scratch: ProfileScratch::default(),
            color_names: IndexedNames::new("simmem.paging.color.", ""),
            level_names: LevelCounterNames {
                hits: IndexedNames::new("simmem.cache.l", ".hits"),
                misses: IndexedNames::new("simmem.cache.l", ".misses"),
                evictions: IndexedNames::new("simmem.cache.l", ".evictions"),
            },
        }
    }

    /// The one memo rule: looks `key` up in the cache and tallies the
    /// hit or miss; only on a miss does it run `build` on the scratch
    /// buffers and cache the profile it returns.
    fn profile(
        &mut self,
        key: ProfileKey,
        build: impl FnOnce(&mut ProfileScratch) -> ServiceProfile,
    ) -> Arc<ServiceProfile> {
        if let Some(profile) = self.cache.lookup(&key) {
            self.local_hits += 1;
            return profile;
        }
        self.local_misses += 1;
        let profile = Arc::new(build(&mut self.scratch));
        self.cache.insert(key, Arc::clone(&profile));
        profile
    }
}

/// A cold copy: an empty cache at the same capacity and zeroed tallies;
/// scratch capacity and interned names carry over.
impl Clone for MemoState {
    fn clone(&self) -> Self {
        MemoState {
            cache: self.cache.clone(),
            local_hits: 0,
            local_misses: 0,
            scratch: self.scratch.clone(),
            color_names: self.color_names.clone(),
            level_names: self.level_names.clone(),
        }
    }
}

impl MachineSim {
    /// Builds a machine for one experiment run.
    pub fn new(
        spec: CpuSpec,
        governor_policy: GovernorPolicy,
        sched_policy: SchedPolicy,
        alloc_policy: AllocPolicy,
        seed: u64,
    ) -> Self {
        let governor = Governor::new(governor_policy, spec.freqs_ghz.clone());
        let scheduler = Scheduler::new(sched_policy, IntruderConfig::figure11(), seed ^ 0x5eed);
        let allocator =
            PageAllocator::new(alloc_policy, spec.page_bytes, spec.pool_pages, seed ^ 0x9a9e);
        let run_geometry = spec
            .levels
            .first()
            .and_then(|l1| RunGeometry::new(&spec.levels, spec.page_bytes, l1.line_bytes));
        MachineSim {
            spec,
            governor,
            scheduler,
            allocator,
            stream_seed: seed,
            now_us: 0.0,
            last_busy_end_us: 0.0,
            inter_measurement_us: 300.0,
            measurements_taken: 0,
            recorder: Recorder::disabled(),
            run_geometry,
            memo: RefCell::new(MemoState::new()),
        }
    }

    /// Switches observability on: cache/paging/DVFS/scheduler counters
    /// and one `"measure"` event per kernel run (ring capacity
    /// `event_capacity`). Recording never touches the random streams or
    /// the virtual clock, so measurement values are unchanged.
    pub fn enable_observability(&mut self, event_capacity: usize) {
        self.recorder = Recorder::enabled(event_capacity);
    }

    /// Drains everything observed so far (counters, events, drop count).
    pub fn take_observation(&mut self) -> Observation {
        self.recorder.take()
    }

    /// The CPU specification.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// The seed identifying this machine's random streams.
    pub fn stream_seed(&self) -> u64 {
        self.stream_seed
    }

    /// A fresh machine with identical configuration (spec, policies,
    /// intruder, pacing) at virtual time 0, drawing from `stream_seed`'s
    /// random streams. Forking with the parent's own
    /// [`MachineSim::stream_seed`] reproduces its measurement values on
    /// [`MachineSim::order_invariant`] configurations.
    ///
    /// The fork gets its own empty service-profile cache at the
    /// parent's capacity, with hit/miss tallies at zero, so forks on
    /// different threads share no lock (`DESIGN.md` §14).
    ///
    /// Forks are clone-and-reset, not full reconstructions: the page
    /// allocator restores its boot snapshot via `PageAllocator::fork`
    /// (no per-fork pool shuffle when the seed matches, which it always
    /// does for the engine's per-batch forks; the fork then shares the
    /// boot pool and its colour-block table), and the memo side-car
    /// keeps its interned counter names and scratch capacity. Both are
    /// bit-identical to a fresh construction by construction: the
    /// allocator proves it in `paging::tests`, and the memo state only
    /// ever caches pure functions of its inputs.
    pub fn fork(&self, stream_seed: u64) -> Self {
        let memo = self.memo.borrow().clone();
        MachineSim {
            spec: self.spec.clone(),
            governor: Governor::new(self.governor.policy(), self.spec.freqs_ghz.clone()),
            scheduler: Scheduler::new(
                self.scheduler.policy(),
                self.scheduler.intruder(),
                stream_seed ^ 0x5eed,
            ),
            allocator: self.allocator.fork(stream_seed ^ 0x9a9e),
            stream_seed,
            now_us: 0.0,
            last_busy_end_us: 0.0,
            inter_measurement_us: self.inter_measurement_us,
            measurements_taken: 0,
            recorder: self.recorder.fork(),
            run_geometry: self.run_geometry.clone(),
            memo: RefCell::new(memo),
        }
    }

    /// `(hits, misses)` of this machine's lookups into its
    /// service-profile cache. A plain accessor — deliberately
    /// not a [`Recorder`] counter, so the cache can never change an
    /// [`Observation`].
    pub fn profile_cache_stats(&self) -> (u64, u64) {
        let memo = self.memo.borrow();
        (memo.local_hits, memo.local_misses)
    }

    /// Eviction bound of the service-profile cache.
    pub fn profile_cache_capacity(&self) -> usize {
        self.memo.borrow().cache.capacity()
    }

    /// Replaces the service-profile cache with an empty one bounded at
    /// `capacity` entries; 0 disables memoization entirely (every
    /// measurement recomputes — same values, no reuse). Zeroes the
    /// tallies; forks taken after the call inherit the capacity.
    pub fn set_profile_cache_capacity(&mut self, capacity: usize) {
        let memo = self.memo.get_mut();
        memo.cache = ProfileCache::with_capacity(capacity);
        memo.local_hits = 0;
        memo.local_misses = 0;
    }

    /// Jumps the measurement counter to `index`: the next
    /// [`MachineSim::run_kernel`] produces the jitter and buffer placement
    /// the sequential run would use for measurement `index`. The virtual
    /// clock is left untouched (shard clocks are per-shard; the campaign
    /// runner records their offsets in metadata).
    pub fn skip_to(&mut self, index: u64) {
        self.measurements_taken = index;
    }

    /// Whether measurement values on this configuration are independent
    /// of when (in virtual time) each measurement runs — the requirement
    /// for sharded campaigns to reproduce sequential values. `Ondemand`
    /// frequency scaling and non-default scheduling are start-time- or
    /// order-dependent by design (they model exactly the temporal
    /// phenomena of paper §IV), so campaigns studying them must stay
    /// sequential.
    pub fn order_invariant(&self) -> bool {
        !matches!(self.governor.policy(), GovernorPolicy::Ondemand { .. })
            && self.scheduler.policy() == SchedPolicy::PinnedDefault
    }

    /// Current virtual time (µs).
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Draws the placement of a `bytes` allocation from the machine's
    /// page pool under its policy (the RNG draw of
    /// [`PageAllocator::allocate`]), returning the [`PlacementKey`] of the
    /// slice instead of a copy of its pages
    /// ([`MachineSim::cached_profile`] resolves it on a miss).
    pub(crate) fn draw_placement(&mut self, bytes: u64) -> PlacementKey {
        self.allocator.draw_placement(bytes)
    }

    /// The largest `buffer_bytes` a kernel can run on: the machine's page
    /// pool. A larger buffer makes [`MachineSim::run_kernel`] panic.
    pub fn max_buffer_bytes(&self) -> u64 {
        self.allocator.max_buffer_bytes()
    }

    /// The size of one allocation holding `buffers` page-aligned buffers
    /// of `buffer_bytes` each, the working set of a multi-buffer kernel
    /// (`run_kernel_parallel`'s threads, `run_stream`'s arrays); an error
    /// when it is larger than the page pool, which could not place it.
    pub(crate) fn working_set(&self, buffers: u64, buffer_bytes: u64) -> Result<u64, PoolExceeded> {
        let page = self.spec.page_bytes;
        let pool_bytes = self.max_buffer_bytes();
        buffer_bytes
            .div_ceil(page)
            .checked_mul(buffers)
            .and_then(|pages| pages.checked_mul(page))
            .filter(|&bytes| bytes <= pool_bytes)
            .ok_or(PoolExceeded { buffers, buffer_bytes, pool_bytes })
    }

    /// Looks `key` up in the profile cache. Only on a miss does it borrow
    /// the pages of the `alloc_bytes` allocation at `key.placement` from
    /// the pool and run `build` on them, with the machine's spec and
    /// scratch buffers.
    pub(crate) fn cached_profile<F>(
        &mut self,
        key: ProfileKey,
        alloc_bytes: u64,
        build: F,
    ) -> Arc<ServiceProfile>
    where
        F: FnOnce(&CpuSpec, &[u64], &mut ProfileScratch) -> ServiceProfile,
    {
        let (spec, allocator, placement) = (&self.spec, &self.allocator, key.placement);
        self.memo
            .get_mut()
            .profile(key, |scratch| build(spec, allocator.pages(placement, alloc_bytes), scratch))
    }

    /// Runs the Figure 6 kernel once and returns the measurement.
    pub fn run_kernel(&mut self, cfg: &KernelConfig) -> KernelResult {
        assert!(cfg.nloops >= 1, "nloops must be >= 1");
        let elem_bytes = cfg.codegen.width.bytes();
        let line = self.spec.levels[0].line_bytes;
        // Placement is a pure function of the measurement index (see
        // `PageAllocator::allocate_at`), so the profile can be looked up
        // before — and instead of — reading the pages.
        let placement = self.allocator.placement_at(self.measurements_taken, cfg.buffer_bytes);
        let key = ProfileKey {
            placement,
            buffer_bytes: cfg.buffer_bytes,
            stride_elems: cfg.stride_elems,
            elem_bytes,
            segment: SEGMENT_WHOLE,
            arrays: 1,
        };
        let (spec, allocator, geometry) = (&self.spec, &self.allocator, &self.run_geometry);
        let profile = self.memo.get_mut().profile(key, |scratch| {
            geometry
                .as_ref()
                .and_then(|g| {
                    g.profile_pool_slice(
                        allocator,
                        placement,
                        cfg.buffer_bytes,
                        elem_bytes,
                        cfg.stride_elems,
                        scratch,
                    )
                })
                .unwrap_or_else(|| {
                    profile_segments(
                        &[PatternSegment {
                            phys_pages: allocator.pages(placement, cfg.buffer_bytes),
                            buffer_bytes: cfg.buffer_bytes,
                        }],
                        spec.page_bytes,
                        elem_bytes,
                        cfg.stride_elems,
                        line,
                        &spec.levels,
                        scratch,
                    )
                })
        });
        if self.recorder.is_enabled() {
            let memo = self.memo.get_mut();
            record_cache_counters(&mut self.recorder, &mut memo.level_names, &profile, cfg.nloops);
            // Paging counters come from the pages themselves, read only
            // when observing, so cached and uncached runs count alike.
            let pages = self.allocator.pages(placement, cfg.buffer_bytes);
            self.recorder.count("simmem.paging.pages_allocated", pages.len() as u64);
            let histogram =
                color_histogram(pages, self.spec.levels[0].way_bytes(), self.spec.page_bytes);
            // Only colours that actually occur get a counter.
            for (color, &n) in histogram.iter().enumerate() {
                if n > 0 {
                    self.recorder.count(memo.color_names.get(color), n);
                }
            }
        }
        let issue = self.spec.issue.cycles_per_access(cfg.codegen);
        let cycles = profile.total_cycles(
            cfg.nloops,
            issue,
            &self.spec.levels,
            self.spec.dram_latency_cycles,
            self.spec.overlap_factor,
        );
        let bytes_touched =
            profile.accesses_per_pass as f64 * cfg.nloops as f64 * elem_bytes as f64;
        self.execute_cycles(cycles, bytes_touched)
    }

    /// Executes a pre-computed cycle count as one timed measurement:
    /// governor (with idle decay), scheduler slowdown, timer noise, and
    /// the virtual clock all apply. Returns the measurement with
    /// bandwidth computed over `bytes_touched`.
    pub(crate) fn execute_cycles(&mut self, cycles: f64, bytes_touched: f64) -> KernelResult {
        let transitions_before = self.governor.transitions();
        // idle gap lets the governor decay
        self.now_us += self.inter_measurement_us;
        self.governor.note_idle(self.last_busy_end_us, self.now_us);

        // execute under the governor
        let outcome = self.governor.run_cycles(cycles, self.now_us);

        // scheduler slowdown + noise
        let (sched_mult, extra_rel) = self.scheduler.run_multiplier(self.now_us);
        let rel = (self.spec.timer_noise_rel.powi(2) + extra_rel.powi(2)).sqrt();
        let jitter = if rel > 0.0 {
            let z = stream::normal_at(self.stream_seed, self.measurements_taken, JITTER_SALT);
            (1.0 + rel * z).max(0.05)
        } else {
            1.0
        };
        let elapsed_us = outcome.elapsed_us * sched_mult * jitter;
        let intruded = sched_mult > 1.0;

        if self.recorder.is_enabled() {
            self.recorder.count("simmem.measurements", 1);
            self.recorder
                .count("simmem.dvfs.transitions", self.governor.transitions() - transitions_before);
            // quantized to permille so shard merges stay integer-exact
            self.recorder.count(
                "simmem.dvfs.max_freq_permille",
                quantize_permille(outcome.max_freq_fraction),
            );
            let bucket = if outcome.max_freq_fraction < 0.25 {
                "simmem.dvfs.residency.low"
            } else if outcome.max_freq_fraction > 0.75 {
                "simmem.dvfs.residency.high"
            } else {
                "simmem.dvfs.residency.mid"
            };
            self.recorder.count(bucket, 1);
            if intruded {
                self.recorder.count("simmem.sched.preemptions", 1);
            }
            // stamped with the exact float the record's start_us will
            // carry ((t + e) - e, not t), so provenance lookups can
            // compare timestamps bit-for-bit
            self.recorder.event(
                self.measurements_taken,
                "measure",
                (self.now_us + elapsed_us) - elapsed_us,
                vec![
                    ("max_freq_fraction".to_string(), outcome.max_freq_fraction.to_string()),
                    ("intruded".to_string(), intruded.to_string()),
                ],
            );
        }

        self.now_us += elapsed_us;
        self.last_busy_end_us = self.now_us;
        self.measurements_taken += 1;

        KernelResult {
            elapsed_us,
            bandwidth_mbps: bytes_touched / elapsed_us, // B/µs == MB/s
            max_freq_fraction: outcome.max_freq_fraction,
            intruded,
            start_us: self.last_busy_end_us - elapsed_us,
            sequence: self.measurements_taken - 1,
        }
    }

    /// Noise-free bandwidth the analytic model predicts for a
    /// configuration at a fixed frequency (the "true" machine signature a
    /// calibration should recover). Uses identity paging (best case);
    /// memoized under an identity-placement key, which no allocator can
    /// produce, so calibration loops stop recomputing the same profile.
    pub fn ideal_bandwidth_mbps(&self, cfg: &KernelConfig, freq_ghz: f64) -> f64 {
        let elem_bytes = cfg.codegen.width.bytes();
        let line = self.spec.levels[0].line_bytes;
        let mut memo = self.memo.borrow_mut();
        let key = ProfileKey {
            placement: PlacementKey::Identity,
            buffer_bytes: cfg.buffer_bytes,
            stride_elems: cfg.stride_elems,
            elem_bytes,
            segment: SEGMENT_WHOLE,
            arrays: 1,
        };
        let profile = memo.profile(key, |scratch| {
            let n_pages = cfg.buffer_bytes.div_ceil(self.spec.page_bytes).max(1);
            // colour-balanced layout
            let pages: Vec<u64> = (0..n_pages).collect();
            profile_segments(
                &[PatternSegment { phys_pages: &pages, buffer_bytes: cfg.buffer_bytes }],
                self.spec.page_bytes,
                elem_bytes,
                cfg.stride_elems,
                line,
                &self.spec.levels,
                scratch,
            )
        });
        let issue = self.spec.issue.cycles_per_access(cfg.codegen);
        let cycles = profile.total_cycles(
            cfg.nloops,
            issue,
            &self.spec.levels,
            self.spec.dram_latency_cycles,
            self.spec.overlap_factor,
        );
        let elapsed_us = cycles / (freq_ghz * 1e3);
        let bytes = profile.accesses_per_pass as f64 * cfg.nloops as f64 * elem_bytes as f64;
        bytes / elapsed_us
    }
}

/// Records steady-state cache service counts for one kernel run:
/// the per-pass profile times `nloops` passes. L1 hits are in
/// *accesses* (accesses needing no line fetch); all deeper counts are
/// in *line fetches*. In the cyclic steady state every fetch into a
/// level evicts a line from it, so evictions equal misses.
///
/// A free function over split borrows (the recorder and the interned
/// names live in different fields of [`MachineSim`]).
fn record_cache_counters(
    recorder: &mut Recorder,
    names: &mut LevelCounterNames,
    profile: &ServiceProfile,
    nloops: u64,
) {
    let total_fetches: u64 = profile.served_by_level.iter().sum::<u64>() + profile.served_by_dram;
    recorder.count("simmem.cache.l1.hits", (profile.accesses_per_pass - total_fetches) * nloops);
    recorder.count("simmem.cache.l1.misses", total_fetches * nloops);
    recorder.count("simmem.cache.l1.evictions", total_fetches * nloops);
    // served_by_level[i] holds fetches served by cache level i+2
    // (index 0 = L2); fetches served deeper are that level's misses.
    let mut missed_so_far = total_fetches;
    for (i, &served_here) in profile.served_by_level.iter().enumerate() {
        let level = i + 2;
        let misses = missed_so_far - served_here;
        recorder.count(names.hits.get(level), served_here * nloops);
        recorder.count(names.misses.get(level), misses * nloops);
        recorder.count(names.evictions.get(level), misses * nloops);
        missed_so_far = misses;
    }
    recorder.count("simmem.cache.dram_lines", profile.served_by_dram * nloops);
}

/// Quantizes a `[0, 1]` fraction to integer permille, keeping counter
/// sums shard-invariant (integer addition is associative; float addition
/// is not).
fn quantize_permille(fraction: f64) -> u64 {
    (fraction * 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_presets_match_table() {
        let all = CpuSpec::all();
        assert_eq!(all.len(), 4);
        let opteron = &all[0];
        assert_eq!(opteron.levels[0].size_bytes, 64 * 1024);
        assert_eq!(opteron.levels[0].assoc, 2);
        assert_eq!(opteron.levels[1].size_bytes, 1024 * 1024);
        let i7 = &all[2];
        assert_eq!(i7.levels.len(), 3);
        assert_eq!(i7.levels[2].size_bytes, 8 * 1024 * 1024);
        assert_eq!(i7.freqs_ghz, vec![1.6, 3.4]);
        let arm = &all[3];
        assert_eq!(arm.word_bits, 32);
        assert_eq!(arm.levels[0].assoc, 4);
    }

    #[test]
    fn cache_level_helpers() {
        let l = CacheLevelSpec {
            size_bytes: 32 * 1024,
            assoc: 4,
            line_bytes: 32,
            hit_latency_cycles: 4.0,
        };
        assert_eq!(l.num_sets(), 256);
        assert_eq!(l.way_bytes(), 8192);
    }

    #[test]
    fn forked_shards_reproduce_sequential_kernels() {
        let mut base = MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            77,
        );
        assert!(base.order_invariant());
        let cfgs: Vec<KernelConfig> =
            (0u64..60).map(|i| KernelConfig::baseline(4096 * (1 + i % 9), 10 + i % 5)).collect();
        let sequential: Vec<f64> = cfgs.iter().map(|c| base.run_kernel(c).bandwidth_mbps).collect();
        for (lo, hi) in [(0usize, 25usize), (25, 60)] {
            let mut shard = base.fork(base.stream_seed());
            shard.skip_to(lo as u64);
            for i in lo..hi {
                assert_eq!(
                    shard.run_kernel(&cfgs[i]).bandwidth_mbps,
                    sequential[i],
                    "measurement {i}"
                );
            }
        }
    }

    #[test]
    fn ondemand_or_realtime_not_order_invariant() {
        let m = |g, s| {
            MachineSim::new(CpuSpec::core_i7_2600(), g, s, AllocPolicy::MallocPerSize, 1)
                .order_invariant()
        };
        assert!(m(GovernorPolicy::Performance, SchedPolicy::PinnedDefault));
        assert!(m(GovernorPolicy::Powersave, SchedPolicy::PinnedDefault));
        assert!(!m(
            GovernorPolicy::Ondemand { sample_period_us: 1000.0 },
            SchedPolicy::PinnedDefault
        ));
        assert!(!m(GovernorPolicy::Performance, SchedPolicy::PinnedRealtime));
        assert!(!m(GovernorPolicy::Performance, SchedPolicy::TimeshareNoisy));
    }

    #[test]
    fn table_rows_render() {
        for spec in CpuSpec::all() {
            let row = spec.table_row();
            assert!(row.contains("L1"));
            assert!(row.contains(spec.name.split(' ').next().unwrap()));
        }
    }

    fn observed_machine(seed: u64) -> MachineSim {
        let mut m = MachineSim::new(
            CpuSpec::core_i7_2600(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        );
        m.enable_observability(1024);
        m
    }

    #[test]
    fn observability_never_changes_measurements() {
        let mut plain = MachineSim::new(
            CpuSpec::core_i7_2600(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            99,
        );
        let mut observed = observed_machine(99);
        for i in 0u64..40 {
            let cfg = KernelConfig::baseline(4096 * (1 + i % 7), 5);
            let a = plain.run_kernel(&cfg);
            let b = observed.run_kernel(&cfg);
            assert_eq!(a.bandwidth_mbps.to_bits(), b.bandwidth_mbps.to_bits());
            assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
        }
        let obs = observed.take_observation();
        assert_eq!(obs.counters.get("simmem.measurements"), 40);
        assert_eq!(obs.events.len(), 40);
        assert!(plain.take_observation().counters.is_empty());
    }

    #[test]
    fn cache_counters_balance() {
        let mut m = observed_machine(3);
        let cfg = KernelConfig::baseline(64 * 1024, 7);
        m.run_kernel(&cfg);
        let c = m.take_observation().counters;
        // L1 misses cascade: every L1 line fetch is served by L2, L3, or DRAM.
        let l1_misses = c.get("simmem.cache.l1.misses");
        let served = c.get("simmem.cache.l2.hits")
            + c.get("simmem.cache.l3.hits")
            + c.get("simmem.cache.dram_lines");
        assert_eq!(l1_misses, served);
        assert_eq!(c.get("simmem.cache.l2.misses"), l1_misses - c.get("simmem.cache.l2.hits"));
        assert!(c.get("simmem.paging.pages_allocated") >= 16);
        // page colours partition the allocated pages
        let colored: u64 =
            c.iter().filter(|(k, _)| k.starts_with("simmem.paging.color.")).map(|(_, v)| v).sum();
        assert_eq!(colored, c.get("simmem.paging.pages_allocated"));
    }

    #[test]
    fn counters_are_shard_invariant() {
        let mut base = observed_machine(17);
        let cfgs: Vec<KernelConfig> =
            (0u64..30).map(|i| KernelConfig::baseline(4096 * (1 + i % 5), 3 + i % 4)).collect();
        for cfg in &cfgs {
            base.run_kernel(cfg);
        }
        let sequential = base.take_observation().counters;
        let mut merged = charm_obs::Counters::new();
        for (lo, hi) in [(0usize, 11usize), (11, 23), (23, 30)] {
            let mut shard = base.fork(base.stream_seed());
            assert!(shard.recorder.is_enabled(), "fork must propagate observability");
            shard.skip_to(lo as u64);
            for cfg in &cfgs[lo..hi] {
                shard.run_kernel(cfg);
            }
            merged.merge_from(&shard.take_observation().counters);
        }
        assert_eq!(merged, sequential);
    }

    fn pooled(spec: CpuSpec, policy: AllocPolicy, seed: u64) -> MachineSim {
        MachineSim::new(spec, GovernorPolicy::Performance, SchedPolicy::PinnedDefault, policy, seed)
    }

    /// Kernels whose buffers span one page to the whole pool, ending
    /// inside a page or on its boundary, at strides on both sides of the
    /// line size.
    fn pool_spanning_kernels(spec: &CpuSpec) -> Vec<KernelConfig> {
        let (page, pool) = (spec.page_bytes, spec.pool_pages as u64 * spec.page_bytes);
        let sizes = [1, page, 3 * page + 100, 64 * page + 7, pool / 3 + 12, pool - page + 1, pool];
        sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| KernelConfig::baseline(b, 2).with_stride([1, 2, 5, 40][i % 4]))
            .collect()
    }

    #[test]
    fn the_block_table_path_matches_a_machine_forced_onto_the_page_walk() {
        for spec in CpuSpec::all() {
            for policy in [AllocPolicy::MallocPerSize, AllocPolicy::PooledRandomOffset] {
                let mut table = pooled(spec.clone(), policy, 21);
                let mut walk = pooled(spec.clone(), policy, 21);
                assert!(table.run_geometry.is_some(), "{} has a table path", spec.name);
                walk.run_geometry = None;
                for m in [&mut table, &mut walk] {
                    m.set_profile_cache_capacity(0);
                    m.enable_observability(64);
                }
                for cfg in pool_spanning_kernels(&spec) {
                    let (a, b) = (table.run_kernel(&cfg), walk.run_kernel(&cfg));
                    assert_eq!(a.elapsed_us.to_bits(), b.elapsed_us.to_bits(), "{}", spec.name);
                    assert_eq!(a.bandwidth_mbps.to_bits(), b.bandwidth_mbps.to_bits());
                }
                assert_eq!(table.take_observation().counters, walk.take_observation().counters);
                assert!(walk.allocator.block_table().is_none(), "the walk built no table");
            }
        }
    }

    #[test]
    fn same_seed_forks_share_one_block_table() {
        let cfg = KernelConfig::baseline(1 << 20, 2);
        let mut parent = pooled(CpuSpec::opteron(), AllocPolicy::PooledRandomOffset, 8);
        // A fork taken before any miss builds the table its parent reads...
        let mut early = parent.fork(parent.stream_seed());
        assert!(early.allocator.block_table().is_none());
        early.run_kernel(&cfg);
        let built: *const _ = early.allocator.block_table().expect("a miss builds the table");
        let shared: *const _ = parent.allocator.block_table().expect("the parent shares it");
        assert!(std::ptr::eq(built, shared));
        // ...and one taken after reuses it without building another.
        parent.run_kernel(&cfg);
        let mut late = parent.fork(parent.stream_seed());
        late.run_kernel(&cfg);
        assert!(std::ptr::eq(late.allocator.block_table().unwrap(), shared));
    }

    #[test]
    fn a_fork_with_another_seed_builds_its_own_table_and_matches_a_fresh_machine() {
        for policy in [AllocPolicy::MallocPerSize, AllocPolicy::PooledRandomOffset] {
            let spec = CpuSpec::pentium4();
            let mut parent = pooled(spec.clone(), policy, 8);
            parent.run_kernel(&KernelConfig::baseline(4 << 20, 2));
            let mut fork = parent.fork(99);
            let mut fresh = pooled(spec.clone(), policy, 99);
            for cfg in pool_spanning_kernels(&spec) {
                let (a, b) = (fork.run_kernel(&cfg), fresh.run_kernel(&cfg));
                assert_eq!(a.elapsed_us.to_bits(), b.elapsed_us.to_bits(), "{policy:?}");
                assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
            }
            let (own, parents) = (fork.allocator.block_table(), parent.allocator.block_table());
            assert!(!std::ptr::eq(own.unwrap(), parents.unwrap()), "{policy:?}");
        }
    }

    /// The table costs at most 4 bytes per pool page plus one row of
    /// `n_blocks` counts: half the pool's own 8 bytes per page, where a
    /// dense pages × blocks table would cost `4 · n_blocks` per page.
    #[test]
    fn each_presets_block_table_stays_within_half_its_pool() {
        for spec in CpuSpec::all() {
            let mut m = pooled(spec.clone(), AllocPolicy::PooledRandomOffset, 1);
            m.run_kernel(&KernelConfig::baseline(m.max_buffer_bytes(), 1));
            let n_blocks = m.run_geometry.as_ref().unwrap().n_blocks();
            let bytes = m.allocator.block_table().unwrap().bytes();
            let bound = 4 * (spec.pool_pages + n_blocks);
            assert!(bytes <= bound, "{}: {bytes} B > {bound} B", spec.name);
        }
    }

    #[test]
    fn dvfs_and_sched_counters_track_phenomena() {
        // ondemand on short kernels: mostly low-frequency residency
        let mut m = MachineSim::new(
            CpuSpec::core_i7_2600(),
            GovernorPolicy::Ondemand { sample_period_us: 1000.0 },
            SchedPolicy::PinnedDefault,
            AllocPolicy::MallocPerSize,
            5,
        );
        m.enable_observability(256);
        for _ in 0..50 {
            m.run_kernel(&KernelConfig::baseline(16 * 1024, 2000));
        }
        let c = m.take_observation().counters;
        assert!(c.get("simmem.dvfs.transitions") > 0, "ondemand must switch frequencies");
        let residency = c.get("simmem.dvfs.residency.low")
            + c.get("simmem.dvfs.residency.mid")
            + c.get("simmem.dvfs.residency.high");
        assert_eq!(residency, 50);
        assert!(c.get("simmem.dvfs.max_freq_permille") <= 50 * 1000);

        // realtime scheduling: preemptions equal intruded measurements
        let mut m = MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedRealtime,
            AllocPolicy::PooledRandomOffset,
            11,
        );
        m.enable_observability(4096);
        let mut intruded = 0u64;
        for _ in 0..300 {
            if m.run_kernel(&KernelConfig::baseline(8192, 40)).intruded {
                intruded += 1;
            }
        }
        let obs = m.take_observation();
        assert!(intruded > 0, "intruder never fired");
        assert_eq!(obs.counters.get("simmem.sched.preemptions"), intruded);
        let event_intruded =
            obs.events.iter().filter(|e| e.attr("intruded") == Some("true")).count() as u64;
        assert_eq!(event_intruded, intruded);
    }
}

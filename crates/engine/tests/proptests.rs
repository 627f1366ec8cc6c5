//! Property-based tests of the measurement engine, including the
//! work-stealing scheduler's determinism contract: records are
//! bit-identical to the sequential run at any worker count, any shared
//! profile-cache capacity, and any checkpoint kill/resume pattern.

use charm_design::doe::FullFactorial;
use charm_design::factors::Level;
use charm_design::plan::ExperimentPlan;
use charm_design::Factor;
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::record::{Campaign, RawRecord};
use charm_engine::target::{MemoryTarget, NetworkTarget, ParallelTarget};
use charm_engine::{batch_bounds, effective_workers};
use charm_obs::Observer;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn plan_of(sizes: Vec<i64>, reps: u32, shuffle_seed: Option<u64>) -> ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(reps)
        .build();
    if let Some(seed) = shuffle_seed {
        plan.shuffle(seed);
    }
    plan
}

fn run(sizes: Vec<i64>, reps: u32, seed: u64, shuffle: bool) -> Campaign {
    let plan = plan_of(sizes, reps, shuffle.then_some(seed));
    let mut target = NetworkTarget::new("m", presets::myrinet_gm(seed));
    charm_engine::Campaign::new(&plan, &mut target)
        .seed(shuffle.then_some(seed))
        .run()
        .unwrap()
        .data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn record_count_is_plan_size(
        sizes in prop::collection::vec(1i64..1_000_000, 1..8),
        reps in 1u32..6,
        seed in any::<u64>(),
        shuffle in any::<bool>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let c = run(distinct.iter().copied().collect(), reps, seed, shuffle);
        prop_assert_eq!(c.records.len(), distinct.len() * reps as usize);
    }

    #[test]
    fn csv_roundtrip_any_campaign(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 1u32..4,
        seed in any::<u64>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let c = run(distinct.into_iter().collect(), reps, seed, true);
        let back = Campaign::from_csv(&c.to_csv()).unwrap();
        prop_assert_eq!(c, back);
    }

    #[test]
    fn timestamps_strictly_increase(
        reps in 2u32..8, seed in any::<u64>()
    ) {
        let c = run(vec![64, 4096, 65536], reps, seed, true);
        for w in c.records.windows(2) {
            prop_assert!(w[1].start_us > w[0].start_us);
        }
    }

    #[test]
    fn values_positive_and_finite(seed in any::<u64>()) {
        let c = run(vec![1, 1024, 1 << 20], 3, seed, true);
        prop_assert!(c.values().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn observer_never_changes_records_or_clock(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 1u32..4,
        seed in any::<u64>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let plain = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .seed(seed)
            .run()
            .unwrap()
            .data;
        let observed = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .seed(seed)
            .observer(Observer::default())
            .run()
            .unwrap();
        prop_assert_eq!(plain.records.len(), observed.data.records.len());
        for (a, b) in plain.records.iter().zip(&observed.data.records) {
            prop_assert_eq!(&a.levels, &b.levels);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            prop_assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
        }
    }

    #[test]
    fn counter_merge_is_shard_count_invariant(
        sizes in prop::collection::vec(1i64..1_000_000, 2..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 2usize..6,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let one = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(1)
            .seed(seed)
            .observer(Observer::default())
            .run()
            .unwrap();
        let many = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .observer(Observer::default())
            .run()
            .unwrap();
        // the requested shards are the shards that ran, clamped to the rows
        prop_assert_eq!(&many.data.metadata["shards"], &shards.clamp(1, plan.len()).to_string());
        prop_assert_eq!(one.data.records.len(), many.data.records.len());
        for (a, b) in one.data.records.iter().zip(&many.data.records) {
            prop_assert_eq!(&a.levels, &b.levels);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            // reconstructed per-shard clocks wobble at float rounding
            let tol = 1e-9 * a.start_us.abs().max(1.0);
            prop_assert!((a.start_us - b.start_us).abs() <= tol);
        }
        prop_assert_eq!(
            one.report.unwrap().counters,
            many.report.unwrap().counters
        );
    }

    #[test]
    fn grouping_partitions_records(
        sizes in prop::collection::vec(1i64..100_000, 2..6),
        reps in 1u32..5,
        seed in any::<u64>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let c = run(distinct.into_iter().collect(), reps, seed, true);
        let groups = c.group_by(&["size"]);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(total, c.records.len());
        prop_assert!(groups.iter().all(|(_, v)| v.len() == reps as usize));
    }
}

/// A memory target over a fresh machine with the given profile-cache
/// capacity. Rebuilding the machine from the same seed reproduces the
/// exact RNG streams, so two targets built by this function are
/// interchangeable for determinism comparisons.
fn mem_target(seed: u64, cache_capacity: usize) -> MemoryTarget {
    let mut machine = MachineSim::new(
        CpuSpec::arm_snowball(),
        GovernorPolicy::Performance,
        SchedPolicy::PinnedDefault,
        AllocPolicy::MallocPerSize,
        seed,
    );
    machine.set_profile_cache_capacity(cache_capacity);
    MemoryTarget::new("arm", machine)
}

fn mem_plan(sizes: Vec<i64>, reps: u32, shuffle_seed: u64) -> ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("stride", vec![1i64, 4]))
        .replicates(reps)
        .build();
    plan.shuffle(shuffle_seed);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole contract: the work-stealing scheduler with a *shared*
    /// profile cache reproduces the sequential run bit-for-bit at every
    /// cache capacity — disabled (0), small enough to evict constantly,
    /// and effectively unbounded — because the cache is consulted only
    /// after the RNG draws that decide a measurement's value.
    #[test]
    fn work_stealing_matches_sequential_at_any_cache_capacity(
        sizes in prop::collection::vec(1024i64..262_144, 2..4),
        reps in 1u32..3,
        seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = mem_plan(distinct.into_iter().collect(), reps, seed);
        let reference = charm_engine::Campaign::new(&plan, mem_target(seed, usize::MAX))
            .seed(seed)
            .run()
            .unwrap()
            .data;
        for cache_capacity in [0usize, 2, usize::MAX] {
            for k in [1usize, shards] {
                let got = charm_engine::Campaign::new(&plan, mem_target(seed, cache_capacity))
                    .shards(k)
                    .seed(seed)
                    .run()
                    .unwrap()
                    .data;
                prop_assert_eq!(reference.records.len(), got.records.len());
                for (a, b) in reference.records.iter().zip(&got.records) {
                    prop_assert_eq!(&a.levels, &b.levels);
                    prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                }
            }
        }
    }
}

/// In-memory checkpoint sink keyed on `(batch, batches)`, with a kill
/// switch so proptests can simulate a campaign dying after an arbitrary
/// subset of batches was persisted, and a log of delivered batches.
#[derive(Default)]
struct MemorySink {
    segments: std::sync::Mutex<std::collections::HashMap<(usize, usize), ShardCheckpoint>>,
    deliveries: std::sync::Mutex<Vec<Vec<RawRecord>>>,
}

impl MemorySink {
    fn new() -> Self {
        MemorySink::default()
    }

    fn kill(&self, batch: usize, batches: usize) {
        self.segments.lock().unwrap().remove(&(batch, batches));
    }

    /// The records delivered since the last call, concatenated.
    fn take_delivered(&self) -> Vec<RawRecord> {
        std::mem::take(&mut *self.deliveries.lock().unwrap()).concat()
    }
}

impl CheckpointSink for MemorySink {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        self.segments.lock().unwrap().insert((shard, shards), checkpoint.clone());
        Ok(())
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        Ok(self.segments.lock().unwrap().get(&(shard, shards)).cloned())
    }

    fn deliver(&self, records: &[RawRecord]) {
        self.deliveries.lock().unwrap().push(records.to_vec());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint/resume with dynamically claimed batches: killing any
    /// subset of a run's persisted batch segments and rerunning yields a
    /// campaign bit-identical to an uninterrupted run — surviving
    /// batches replay, killed ones re-execute, and the in-order merge
    /// makes the two paths indistinguishable.
    #[test]
    fn dynamic_batch_resume_is_bit_identical(
        sizes in prop::collection::vec(1i64..1_000_000, 2..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 2usize..6,
        kill_bits in any::<u32>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let workers = effective_workers(plan.len(), shards);
        let nbatches = batch_bounds(plan.len(), workers).len();

        let uninterrupted = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .run()
            .unwrap()
            .data;

        let sink = MemorySink::new();
        let first = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        prop_assert_eq!(&first, &uninterrupted);
        prop_assert_eq!(sink.segments.lock().unwrap().len(), nbatches);

        for b in 0..nbatches {
            if kill_bits >> (b % 32) & 1 == 1 {
                sink.kill(b, nbatches);
            }
        }
        let resumed = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        prop_assert_eq!(&resumed, &uninterrupted);
    }

    /// Merged delivery: whatever the plan, the shard count and the
    /// subset of batches the store already holds, the batches a sink
    /// receives concatenate to exactly the campaign's records, replayed
    /// and measured batches alike.
    #[test]
    fn deliveries_concatenate_to_the_campaign_records(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 1usize..6,
        kill_bits in any::<u32>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let nbatches = batch_bounds(plan.len(), effective_workers(plan.len(), shards)).len();
        let sink = MemorySink::new();
        let run = || {
            charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
                .shards(shards)
                .seed(seed)
                .store(&sink)
                .run()
                .unwrap()
        };
        let fresh = run();
        prop_assert_eq!(&sink.take_delivered(), &fresh.data.records);
        for b in 0..nbatches {
            if kill_bits >> (b % 32) & 1 == 1 {
                sink.kill(b, nbatches);
            }
        }
        let resumed = run();
        prop_assert_eq!(&sink.take_delivered(), &resumed.data.records);
        prop_assert_eq!(&resumed.data, &fresh.data);
    }
}

/// Renders a campaign's CSV the pre-columnar way — one `format!` per
/// field, one `String` per row, `join` per line — so the
/// zero-allocation `write_csv_row` path has an independent oracle that
/// shares no code with it beyond std's float formatting.
fn reference_csv(c: &Campaign) -> String {
    let mut out = String::new();
    for (k, v) in &c.metadata {
        out.push_str(&format!("# {k}: {v}\n"));
    }
    let mut header: Vec<String> = c.factor_names.clone();
    header.extend(["replicate", "sequence", "start_us", "value"].map(String::from));
    out.push_str(&header.join(","));
    out.push('\n');
    for r in &c.records {
        let mut cols: Vec<String> = r.levels.iter().map(|l| l.to_string()).collect();
        cols.push(r.replicate.to_string());
        cols.push(r.sequence.to_string());
        cols.push(r.start_us.to_string());
        cols.push(r.value.to_string());
        out.push_str(&cols.join(","));
        out.push('\n');
    }
    out
}

/// The `plan_of` plan widened by one factor of every other level kind:
/// text (a space and non-ASCII included), floats from arbitrary finite
/// bit patterns, flags, and negative integers. The network target
/// reads only `op` and `size`, so the extra factors only multiply rows.
fn wide_plan_of(
    sizes: Vec<i64>,
    float_bits: &[u64],
    negatives: &[i64],
    reps: u32,
    seed: u64,
) -> ExperimentPlan {
    let dedup = |mut v: Vec<Level>| {
        let mut out = Vec::new();
        for l in v.drain(..) {
            if !out.contains(&l) {
                out.push(l);
            }
        }
        out
    };
    let floats = float_bits
        .iter()
        .map(|&b| f64::from_bits(b))
        .map(|f| Level::Float(if f.is_finite() { f } else { -((f.to_bits() >> 12) as f64) }));
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong"]))
        .factor(Factor::new("size", sizes))
        .factor(Factor::new("tag", vec!["ping pong", "x", "ünï-code"]))
        .factor(Factor { name: "scale".into(), levels: dedup(floats.collect()) })
        .factor(Factor::new("pinned", vec![true, false]))
        .factor(Factor {
            name: "offset".into(),
            levels: dedup(negatives.iter().map(|&n| Level::Int(n)).collect()),
        })
        .replicates(reps)
        .build();
    plan.shuffle(seed);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Columnar serialization contract: the single-buffer
    /// `write_csv_row` path produces bytes identical to a naive
    /// allocate-per-row serializer, for sequential and sharded runs,
    /// for every level kind and for `start_us`/`value` drawn from
    /// arbitrary bit patterns (negatives, subnormals, NaN and ±inf
    /// included).
    #[test]
    fn columnar_csv_matches_reference_serializer(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        float_bits in prop::collection::vec(any::<u64>(), 1..4),
        negatives in prop::collection::vec(i64::MIN..0, 1..3),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = wide_plan_of(distinct.into_iter().collect(), &float_bits, &negatives, reps, seed);
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let mut c = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .run()
            .unwrap()
            .data;
        let mut bits = ChaCha8Rng::seed_from_u64(seed);
        for r in &mut c.records {
            r.start_us = f64::from_bits(bits.next_u64());
            r.value = f64::from_bits(bits.next_u64());
        }
        prop_assert_eq!(c.to_csv(), reference_csv(&c));
    }

    /// Columnar layout contract: every record of a design cell points at
    /// one shared interned `Levels` allocation — the number of distinct
    /// allocations equals the number of distinct cells, sequential or
    /// sharded (the merge must not re-materialize level vectors).
    #[test]
    fn records_share_one_interned_levels_per_cell(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 2u32..5,
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.iter().copied().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let c = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .run()
            .unwrap()
            .data;
        let mut id_by_cell: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for r in &c.records {
            let cell = r.levels.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(",");
            let id = *id_by_cell.entry(cell).or_insert_with(|| r.levels.shared_id());
            prop_assert_eq!(id, r.levels.shared_id(), "cell split across allocations");
        }
        prop_assert_eq!(id_by_cell.len(), distinct.len());
        let distinct_ids: std::collections::HashSet<usize> =
            id_by_cell.values().copied().collect();
        prop_assert_eq!(distinct_ids.len(), id_by_cell.len());
    }

    /// Checkpoint segment contract: the persisted segments partition the
    /// plan's sequence range contiguously in batch order, and their
    /// records carry the same levels, replicates, and bit-identical
    /// values as the merged campaign (segment clocks are batch-local).
    #[test]
    fn checkpoint_segments_partition_the_run(
        sizes in prop::collection::vec(1i64..1_000_000, 2..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 2usize..6,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let sink = MemorySink::new();
        let merged = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(seed)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        let segments = sink.segments.lock().unwrap();
        let nbatches = segments.keys().next().expect("at least one segment").1;
        prop_assert_eq!(segments.len(), nbatches);
        let mut next_seq = 0u64;
        for b in 0..nbatches {
            let chk = &segments[&(b, nbatches)];
            prop_assert!(!chk.records.is_empty(), "empty batch {}", b);
            for r in &chk.records {
                let m = &merged.records[r.sequence as usize];
                prop_assert_eq!(r.sequence, next_seq, "batch {} not contiguous", b);
                prop_assert_eq!(&r.levels, &m.levels);
                prop_assert_eq!(r.replicate, m.replicate);
                prop_assert_eq!(r.value.to_bits(), m.value.to_bits());
                next_seq += 1;
            }
        }
        prop_assert_eq!(next_seq as usize, merged.records.len());
    }

    /// Adaptive scheduler geometry: for any (rows, workers) the batch
    /// bounds partition `0..rows` contiguously, shrink monotonically
    /// along the claim order, and keep every non-final batch at or
    /// above the floor of 1/8 of a worker's static share.
    #[test]
    fn batch_bounds_partition_any_geometry(
        rows in 0usize..4000,
        workers in 1usize..9,
    ) {
        let bounds = batch_bounds(rows, workers);
        let floor = (rows / (workers * 8)).max(1);
        prop_assert_eq!(bounds[0].0, 0);
        prop_assert_eq!(bounds.last().unwrap().1, rows);
        for w in bounds.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "gap or overlap between batches");
            prop_assert!(w[0].1 - w[0].0 >= w[1].1 - w[1].0, "batch sizes must shrink");
        }
        for (i, (lo, hi)) in bounds.iter().enumerate() {
            prop_assert!(hi > lo || rows == 0, "empty batch {}", i);
            if i + 1 < bounds.len() {
                prop_assert!(hi - lo >= floor, "non-final batch below the floor");
            }
        }
        if workers == 1 {
            prop_assert_eq!(bounds.len(), 1);
        }
    }
}

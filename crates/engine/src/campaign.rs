//! The [`Campaign`] builder: the single front door for campaign
//! execution — sequential or sharded, observed or not, profiled or not:
//!
//! ```text
//! Campaign::new(&plan, target).seed(9).run()?                    // sequential
//! Campaign::new(&plan, target).shards(4).seed(9).run()?          // sharded
//! Campaign::new(&plan, target).observer(Observer::default())     // observed
//!     .run()?
//! ```
//!
//! [`Campaign::run`] returns a [`CampaignRun`]: the retained-everything
//! [`CampaignData`] plus, when an [`Observer`] was attached, a
//! [`CampaignReport`] of counters, provenance events and spans. Attaching
//! an observer never changes measurement values — targets record counters
//! outside their noise streams and virtual clocks (tested here and in the
//! simulator crates), so observed and unobserved campaigns are
//! bit-identical.
//!
//! Orthogonally to observation (which lives on the **virtual** clock and
//! is part of the reproducible artifact), the calling thread's ambient
//! [`Profiler`] (installed with [`Profiler::install_thread`]) records
//! where the engine's own **wall-clock** time goes: plan execution,
//! per-shard work, record merge. The same bit-identity rule applies — the profiler
//! only reads the host monotonic clock, never virtual clocks or RNG
//! streams — and a disabled profiler costs one branch per span site.

use crate::cancel::CancelToken;
use crate::checkpoint::{CheckpointSink, ShardCheckpoint};
use crate::meta::MetadataBuilder;
use crate::record::{Campaign as CampaignData, RawRecord};
use crate::target::{Assignment, ParallelTarget, Target, TargetError};
use charm_design::plan::ExperimentPlan;
use charm_obs::{CampaignReport, Counters, Observation, Observer, Span};
use charm_trace::{Profiler, WallSpan};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Batches carved per worker for dynamic claiming: enough slack that a
/// worker stuck on a slow batch sheds the rest of its static share to
/// idle peers, few enough that per-batch fork/`skip_to` setup stays
/// noise next to the measurements.
const BATCHES_PER_WORKER: usize = 4;

/// The worker count a sharded run actually uses: `shards` clamped to
/// `1..=rows` and nothing else, so the count a caller asks for (and
/// hashes into a run ID) is the count that runs. A pure function, so
/// callers — tests, the store's smoke checks — can predict the run's
/// geometry.
pub fn effective_workers(rows: usize, shards: usize) -> usize {
    shards.clamp(1, rows.max(1))
}

/// The contiguous plan-row batches a work-stealing run over `rows` rows
/// with `workers` workers hands out, in claim order.
///
/// The geometry is *guided*: each batch takes `remaining / (workers*2)`
/// rows, so batches start large (cheap claims while everyone is busy
/// anyway) and shrink as the claim counter drains — the tail of the
/// plan is carved fine enough that one high-variance cell can no longer
/// stall a worker while its peers sit idle. Batch sizes never drop
/// below `max(1, rows / (workers*8))` — 1/8 of a worker's static share
/// — bounding per-batch fork/`skip_to` overhead. One worker means one
/// batch.
///
/// A pure function of its inputs — never of claim timing — so
/// checkpoint geometry is reproducible across runs and resumes.
pub fn batch_bounds(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    if workers <= 1 || rows == 0 {
        return vec![(0, rows)];
    }
    let floor = (rows / (workers * BATCHES_PER_WORKER * 2)).max(1);
    let mut bounds = Vec::new();
    let mut lo = 0;
    while lo < rows {
        let rem = rows - lo;
        let chunk = (rem / (workers * 2)).max(floor).min(rem);
        bounds.push((lo, lo + chunk));
        lo += chunk;
    }
    bounds
}

/// How many times the guided geometry stepped its batch size down — the
/// `engine.scheduler.splits` diagnostic: how much finer the scheduler
/// carved the tail than the head.
fn scheduler_splits(bounds: &[(usize, usize)]) -> u64 {
    bounds.windows(2).filter(|w| (w[1].1 - w[1].0) < (w[0].1 - w[0].0)).count() as u64
}

/// For every `X.hits`/`X.misses` pair in `diag`, derives
/// `X.hit_rate_permille` (integer permille keeps the diagnostics
/// channel `u64` end to end).
fn add_hit_rates(diag: &mut Counters) {
    let bases: Vec<String> =
        diag.iter().filter_map(|(k, _)| k.strip_suffix(".hits").map(str::to_string)).collect();
    for base in bases {
        let hits = diag.get(&format!("{base}.hits"));
        let total = hits + diag.get(&format!("{base}.misses"));
        if let Some(permille) = (hits * 1000).checked_div(total) {
            diag.add_owned(format!("{base}.hit_rate_permille"), permille);
        }
    }
}

/// The outcome of a [`Campaign::run`]: the campaign data itself plus the
/// observability report when an [`Observer`] was attached.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The retained-everything campaign (records + metadata).
    pub data: CampaignData,
    /// Counters, provenance events and spans — `Some` iff an observer
    /// was attached with [`Campaign::observer`].
    pub report: Option<CampaignReport>,
    /// How many batches were replayed from the checkpoint store instead
    /// of measured (see [`ShardedCampaign::store`]); 0 for a sequential
    /// run.
    pub replayed_batches: usize,
}

/// Builder for one campaign execution over a plan and a target.
///
/// Construct with [`Campaign::new`], configure with the chainable
/// methods, execute with [`Campaign::run`]. For sharded execution on a
/// [`ParallelTarget`], [`Campaign::shards`] converts the builder into a
/// [`ShardedCampaign`].
#[derive(Debug)]
pub struct Campaign<'p, T> {
    plan: &'p ExperimentPlan,
    target: T,
    shuffle_seed: Option<u64>,
    observer: Option<Observer>,
    profiler: Profiler,
    cancel: CancelToken,
}

impl<'p, T: Target> Campaign<'p, T> {
    /// Starts a builder over `plan` and `target`. The target may be owned
    /// or a `&mut` borrow (a `&mut Target` is itself a [`Target`]).
    ///
    /// The builder starts with the calling thread's ambient profiler
    /// (see [`charm_trace::thread_profiler`]) — disabled unless the host
    /// installed one — so campaigns constructed deep inside experiment
    /// drivers are profiled without plumbing. The profiler never touches
    /// virtual clocks or RNG streams, so records are bit-identical with
    /// profiling on or off (tested below); when disabled each span site
    /// costs one branch.
    pub fn new(plan: &'p ExperimentPlan, target: T) -> Self {
        Campaign {
            plan,
            target,
            shuffle_seed: None,
            observer: None,
            profiler: charm_trace::thread_profiler(),
            cancel: CancelToken::default(),
        }
    }

    /// Records the shuffle seed in the campaign metadata. Pass the seed
    /// used to shuffle the plan, or `None` for a deliberately sequential
    /// — opaque-style — campaign (the default), so the artifact says so.
    pub fn seed(mut self, shuffle_seed: impl Into<Option<u64>>) -> Self {
        self.shuffle_seed = shuffle_seed.into();
        self
    }

    /// Attaches an observer: the target's instrumentation is switched on
    /// for the run and [`CampaignRun::report`] carries the drained
    /// counters, events and spans. Observation never changes values.
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: the run checks it between
    /// plan rows (sequential) or at batch-claim boundaries (sharded) and
    /// fails with [`TargetError::Cancelled`] once it fires. Keep a clone
    /// of the token to cancel from another thread.
    pub(crate) fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Executes every row of the plan (in the plan's order) against the
    /// target.
    ///
    /// Fails fast on the first target error: a mis-specified plan is a
    /// setup bug, and partial campaigns silently passed to analysis are
    /// exactly the kind of artifact the methodology bans.
    pub fn run(mut self) -> Result<CampaignRun, TargetError> {
        let _run_span = self.profiler.span_on("engine", "engine.run");
        let wall_start = Instant::now();
        if let Some(observer) = &self.observer {
            self.target.observe(observer);
        }
        let mut records = Vec::with_capacity(self.plan.len());
        {
            let _execute_span =
                self.profiler.span_on("engine", "engine.execute").arg("rows", self.plan.len());
            for (sequence, row) in self.plan.rows().iter().enumerate() {
                if self.cancel.is_cancelled() {
                    return Err(TargetError::Cancelled);
                }
                let m = self.target.measure(&Assignment::new(self.plan, row))?;
                records.push(RawRecord {
                    levels: row.levels.clone(),
                    replicate: row.replicate,
                    sequence: sequence as u64,
                    start_us: m.start_us,
                    value: m.value,
                });
            }
        }
        let _finalize_span = self.profiler.span_on("engine", "engine.finalize");
        let mut metadata = MetadataBuilder::new()
            .with_engine_info()
            .with_campaign_info(self.plan.len(), self.shuffle_seed)
            .with_target_info(&self.target.metadata());
        let report = if self.observer.is_some() {
            metadata = metadata.set("observed", "true");
            let mut report = CampaignReport::merge(vec![self.target.take_observation()]);
            report.counters.add("engine.rows", records.len() as u64);
            for (k, v) in self.target.diagnostics() {
                report.diagnostics.add_owned(k, v);
            }
            add_hit_rates(&mut report.diagnostics);
            report.spans.push(Span {
                name: "campaign".to_string(),
                t_start_us: 0.0,
                t_end_us: records.last().map_or(0.0, |r| r.start_us),
                wall_ns: wall_start.elapsed().as_nanos() as u64,
            });
            Some(report)
        } else {
            None
        };
        let data = CampaignData {
            metadata: metadata.build(),
            factor_names: self.plan.factor_names().to_vec(),
            records,
        };
        Ok(CampaignRun { data, report, replayed_batches: 0 })
    }
}

impl<'p, T: ParallelTarget> Campaign<'p, T> {
    /// Converts the builder into a sharded execution: `shards` worker
    /// threads dynamically claim contiguous batches of the plan (see
    /// [`ShardedCampaign::run`]). Requires a [`ParallelTarget`]; the
    /// worker count is clamped at run time to `1..=plan rows` and
    /// nothing else ([`effective_workers`]).
    pub fn shards(self, shards: usize) -> ShardedCampaign<'p, T> {
        ShardedCampaign { inner: self, shards, sink: None }
    }
}

/// A [`Campaign`] configured for sharded execution (see
/// [`Campaign::shards`]). The same chainable configuration applies;
/// [`ShardedCampaign::run`] executes and merges.
pub struct ShardedCampaign<'p, T> {
    inner: Campaign<'p, T>,
    shards: usize,
    sink: Option<&'p dyn CheckpointSink>,
}

impl<'p, T: std::fmt::Debug> std::fmt::Debug for ShardedCampaign<'p, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCampaign")
            .field("inner", &self.inner)
            .field("shards", &self.shards)
            .field("checkpointed", &self.sink.is_some())
            .finish()
    }
}

/// What one claimed batch yields: its records, its local clock's final
/// reading, its drained observation (when observing), its fork's
/// diagnostics, and its wall time.
struct BatchYield {
    records: Vec<RawRecord>,
    elapsed_us: f64,
    observation: Option<Observation>,
    diagnostics: Vec<(String, u64)>,
    wall_ns: u64,
}

/// What one worker thread reports back: the batches it claimed (with
/// their outcomes), how many of those claims were steals, and how many
/// of them it replayed from the checkpoint store.
struct WorkerYield {
    batches: Vec<(usize, Result<BatchYield, TargetError>)>,
    steals: u64,
    replayed: usize,
}

/// One batch's place in the run geometry: which batch of how many, and
/// the contiguous plan-row range it covers.
#[derive(Clone, Copy)]
struct BatchSpan {
    batch: usize,
    batches: usize,
    lo: usize,
    hi: usize,
}

/// The span's batch replayed from `sink`, or `None` when it was never
/// stored. A stored segment that does not cover exactly the span's rows
/// is an error, never a silent re-measure (the sink checks plan, target
/// and digest itself).
fn replay_batch(
    sink: &dyn CheckpointSink,
    span: BatchSpan,
) -> Result<Option<BatchYield>, TargetError> {
    let batch_start = Instant::now();
    let BatchSpan { batch, batches, lo, hi } = span;
    let loaded = sink
        .load_shard(batch, batches)
        .map_err(|e| TargetError::Checkpoint { message: e.to_string() })?;
    let Some(chk) = loaded else { return Ok(None) };
    let covers = chk.records.len() == hi - lo
        && chk.records.first().is_none_or(|r| r.sequence == lo as u64)
        && chk.records.last().is_none_or(|r| r.sequence == (hi - 1) as u64);
    if !covers {
        return Err(TargetError::Checkpoint {
            message: format!(
                "batch {batch} of {batches} checkpoint does not cover plan rows {lo}..{hi} \
                 (got {} records)",
                chk.records.len()
            ),
        });
    }
    Ok(Some(BatchYield {
        records: chk.records,
        elapsed_us: chk.elapsed_us,
        observation: None,
        diagnostics: Vec::new(),
        wall_ns: batch_start.elapsed().as_nanos() as u64,
    }))
}

/// Measures the span's plan rows on a fresh fork — the per-batch body
/// of the work-stealing loop. The finished batch is flushed through the
/// checkpoint sink (keyed `(batch, batches)`) before it is reported, so
/// an interrupted campaign retains every batch it already paid for;
/// the flush happens after the last measurement, outside every virtual
/// clock and RNG stream, so it cannot change values.
fn run_batch<T: ParallelTarget>(
    plan: &ExperimentPlan,
    mut target: T,
    observer: Option<&Observer>,
    sink: Option<&dyn CheckpointSink>,
    span: BatchSpan,
) -> Result<BatchYield, TargetError> {
    let batch_start = Instant::now();
    if let Some(observer) = observer {
        target.observe(observer);
    }
    target.skip_to(span.lo as u64);
    let mut records = Vec::with_capacity(span.hi - span.lo);
    let rows = &plan.rows()[span.lo..span.hi];
    for (offset, row) in rows.iter().enumerate() {
        let m = target.measure(&Assignment::new(plan, row))?;
        records.push(RawRecord {
            levels: row.levels.clone(),
            replicate: row.replicate,
            sequence: (span.lo + offset) as u64,
            start_us: m.start_us,
            value: m.value,
        });
    }
    // The sink borrows a checkpoint, so the records move into one for
    // the save and back out after it instead of being cloned.
    if let Some(sink) = sink {
        let checkpoint = ShardCheckpoint { records, elapsed_us: target.now_us() };
        sink.save_shard(span.batch, span.batches, &checkpoint)
            .map_err(|e| TargetError::Checkpoint { message: e.to_string() })?;
        records = checkpoint.records;
    }
    let diagnostics = target.diagnostics();
    let observation = observer.is_some().then(|| target.take_observation());
    Ok(BatchYield {
        records,
        elapsed_us: target.now_us(),
        observation,
        diagnostics,
        wall_ns: batch_start.elapsed().as_nanos() as u64,
    })
}

impl<'p, T: ParallelTarget> ShardedCampaign<'p, T> {
    /// Records the shuffle seed in the campaign metadata (see
    /// [`Campaign::seed`]).
    pub fn seed(mut self, shuffle_seed: impl Into<Option<u64>>) -> Self {
        self.inner = self.inner.seed(shuffle_seed);
        self
    }

    /// Attaches an observer to every shard fork (see
    /// [`Campaign::observer`]). Per-shard counters are merged with
    /// integer sums, so the merged report is shard-count-invariant for
    /// shard-invariant targets; events keep their global sequence numbers
    /// and get their timestamps shifted onto the campaign timeline.
    pub fn observer(mut self, observer: Observer) -> Self {
        self.inner = self.inner.observer(observer);
        self
    }

    /// Attaches a cooperative [`CancelToken`]; keep a clone of the
    /// token to cancel from another thread. Workers check the token
    /// each time they go to claim a batch, so a fired token stops the
    /// campaign after at most one in-flight batch per worker — and because
    /// checkpoints flush per finished batch, a cancelled stored campaign
    /// leaves only whole, resumable segments behind.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.inner = self.inner.cancel_token(cancel);
        self
    }

    /// Attaches a checkpoint store: every worker flushes each finished
    /// batch through [`CheckpointSink::save_shard`] the moment it
    /// completes, so an interrupted campaign retains the batches it
    /// already paid for. Checkpointing never touches measurement values
    /// — segments are written after a batch's last measurement, outside
    /// every virtual clock and RNG stream — so stored and unstored
    /// campaigns are bit-identical (tested below).
    ///
    /// An unobserved campaign also asks the store for every batch it
    /// claims ([`CheckpointSink::load_shard`]) and replays a stored
    /// segment instead of measuring it, so rerunning an interrupted
    /// campaign resumes it, bit-identically: batch geometry is a pure
    /// function of plan size and worker count (DESIGN.md §9).
    /// [`CampaignRun::replayed_batches`] counts the replays. An observed
    /// campaign measures every batch: checkpoints retain records, not
    /// counter streams.
    pub fn store(mut self, sink: &'p dyn CheckpointSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Executes the plan on a pool of worker threads that dynamically
    /// claim contiguous row batches off a shared counter, and merges the
    /// per-batch records back into canonical plan order.
    ///
    /// # Scheduling
    ///
    /// The plan's `n` rows are carved into the [`batch_bounds`] guided
    /// geometry — large batches up front, progressively finer ones as
    /// the claim counter drains, floored at 1/8 of a worker's static
    /// share — and [`effective_workers`] threads claim them one
    /// `fetch_add` at a time. Claiming is dynamic: a worker that finishes early claims
    /// the next unclaimed batch, *stealing* it from the worker a static
    /// split would have given it, so a slow batch no longer leaves the
    /// other threads idle behind a barrier — and because the tail is
    /// fine-grained, the last batches level out skew from high-variance
    /// cells. Which worker executes a batch affects wall-clock time
    /// only, never results, because every batch runs on a fresh fork
    /// positioned by measurement index (see below). Steal and split
    /// counts surface as diagnostics (`engine.scheduler.steals`,
    /// `engine.scheduler.splits`), not as scientific counters.
    ///
    /// # Determinism
    ///
    /// Each claimed batch gets an independent fork of the target (same
    /// configuration, same stream seed — see [`ParallelTarget::fork`])
    /// positioned at the batch's first measurement index via
    /// [`ParallelTarget::skip_to`]. Because every random draw of a
    /// shard-invariant target is a pure function of `(stream seed,
    /// measurement index)`, batch `b` produces bit-for-bit the values a
    /// sequential run produces for its rows, so the merged campaign has
    /// exactly the sequential `(levels, replicate, value)` multiset
    /// regardless of worker count, batch geometry, or claim order.
    /// Every fork of a memoizing target starts with its own empty
    /// memoization cache, so workers share no lock; the cache is
    /// consulted only after all random draws (DESIGN.md §13), so it
    /// changes hit rates — reported in the diagnostics channel — never
    /// values.
    ///
    /// Virtual clocks are batch-local: each fork starts at time 0, and
    /// the merge shifts batch `b`'s timestamps (records *and* events) by
    /// the summed elapsed time of batches `0..b`. With deterministic
    /// per-measurement durations this reconstructs the sequential
    /// timeline up to float rounding in the offset sums (for one worker
    /// there is a single batch with offset 0 and the campaign equals the
    /// sequential run record-for-record). The applied offsets are
    /// recorded in metadata under `shard_clock_offsets` (one per batch),
    /// next to `shards` (the effective worker count) and `batches`.
    ///
    /// The original target is consumed but only forked, never measured;
    /// the run behaves as if a fresh target with its configuration and
    /// stream seed had executed the plan.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError::NotShardable`] when the effective worker
    /// count exceeds 1 and the target reports
    /// [`ParallelTarget::shard_invariant`] `== false` (time-dependent
    /// physics such as `ondemand` DVFS or intruder scheduling): sharding
    /// such a target would silently change its science, so the engine
    /// refuses instead. (A one-shard request, or one clamped to a
    /// one-row plan, runs sequentially and is always fine.) Measurement
    /// errors fail the campaign like the sequential run; the error for
    /// the earliest failing plan row wins — batches are claimed in index
    /// order, so every batch before the earliest failure has a result. A
    /// stored segment that fails its checks fails its batch the same way,
    /// with [`TargetError::Checkpoint`].
    /// A fired [`CancelToken`] (see [`ShardedCampaign::cancel_token`])
    /// returns [`TargetError::Cancelled`] once the workers drain; a token
    /// that fires after the last batch was claimed lets the run complete
    /// normally — cancellation is advisory, never destructive.
    pub fn run(self) -> Result<CampaignRun, TargetError> {
        let ShardedCampaign { inner, shards, sink } = self;
        let Campaign { plan, target: base, shuffle_seed, observer, profiler, cancel } = inner;
        let _run_span = profiler.span_on("engine", "engine.run");
        let wall_start = Instant::now();
        let n = plan.len();
        let workers = effective_workers(n, shards);
        if workers > 1 && !base.shard_invariant() {
            return Err(TargetError::NotShardable { target: base.name() });
        }
        let seed = base.stream_seed();
        // Guided geometry: batches shrink as the claim counter drains
        // (see batch_bounds), so the tail is fine-grained where stealing
        // pays and coarse where it does not.
        let bounds = batch_bounds(n, workers);
        let nbatches = bounds.len();
        // Stored segments can be replayed only where no observation is
        // owed: checkpoints retain records, not counter streams.
        let replay_from = sink.filter(|_| observer.is_none());
        // One proto per worker, forked off `base` up front, so each
        // thread forks its per-batch targets from a value it owns.
        let protos: Vec<T> = (0..workers).map(|_| base.fork(seed)).collect();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let parallel_start_ns = profiler.elapsed_ns();
        let worker_yields: Vec<WorkerYield> = std::thread::scope(|scope| {
            let handles: Vec<_> = protos
                .into_iter()
                .enumerate()
                .map(|(w, proto)| {
                    let profiler = profiler.clone();
                    let (next, abort, bounds, observer, cancel) =
                        (&next, &abort, &bounds, &observer, &cancel);
                    scope.spawn(move || {
                        let mut batches: Vec<(usize, Result<BatchYield, TargetError>)> = Vec::new();
                        let (mut steals, mut replayed) = (0u64, 0usize);
                        loop {
                            // Batch-claim boundary: an aborted (failed)
                            // or cancelled campaign hands out no further
                            // batches; in-flight batches finish (and
                            // checkpoint) so only whole segments exist.
                            if abort.load(Ordering::Relaxed) || cancel.is_cancelled() {
                                break;
                            }
                            let b = next.fetch_add(1, Ordering::SeqCst);
                            if b >= bounds.len() {
                                break;
                            }
                            // The batch a static split would have given this
                            // worker; claiming any other batch is a steal.
                            if b * workers / bounds.len() != w {
                                steals += 1;
                            }
                            let (lo, hi) = bounds[b];
                            // Gated on is_enabled so the disabled path
                            // allocates no track name.
                            let _batch_span = profiler.is_enabled().then(|| {
                                profiler
                                    .span_on(&format!("shard{w}"), "batch.execute")
                                    .arg("batch", b)
                                    .arg("rows", hi - lo)
                            });
                            let span = BatchSpan { batch: b, batches: bounds.len(), lo, hi };
                            let result = match replay_from
                                .map_or(Ok(None), |s| replay_batch(s, span))
                            {
                                Ok(Some(stored)) => {
                                    replayed += 1;
                                    Ok(stored)
                                }
                                Ok(None) => {
                                    run_batch(plan, proto.fork(seed), observer.as_ref(), sink, span)
                                }
                                Err(e) => Err(e),
                            };
                            let failed = result.is_err();
                            batches.push((b, result));
                            if failed {
                                // Fail fast: stop handing out batches;
                                // in-flight batches on other workers finish.
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        WorkerYield { batches, steals, replayed }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        let mut executed: Vec<Option<Result<BatchYield, TargetError>>> =
            (0..nbatches).map(|_| None).collect();
        let mut steals_per_worker = vec![0u64; workers];
        let mut total_steals = 0u64;
        let mut replayed_batches = 0usize;
        let mut worker_of: Vec<usize> = vec![0; nbatches];
        for (w, wy) in worker_yields.into_iter().enumerate() {
            steals_per_worker[w] = wy.steals;
            total_steals += wy.steals;
            replayed_batches += wy.replayed;
            for (b, res) in wy.batches {
                worker_of[b] = w;
                executed[b] = Some(res);
            }
        }
        if profiler.is_enabled() {
            // Worker utilization: summed batch busy time over the
            // parallel region's wall time × worker count. 1.0 means every
            // thread worked the whole region; low values expose skewed
            // batches or an oversubscribed host. A replayed batch counts
            // the time its segment took to load.
            let parallel_dur_ns = profiler.elapsed_ns().saturating_sub(parallel_start_ns);
            let busy_ns: u64 =
                executed.iter().flatten().filter_map(|r| r.as_ref().ok().map(|y| y.wall_ns)).sum();
            let capacity_ns = parallel_dur_ns.saturating_mul(workers as u64);
            let utilization =
                if capacity_ns == 0 { 0.0 } else { busy_ns as f64 / capacity_ns as f64 };
            profiler.record(WallSpan {
                track: "engine".to_string(),
                name: "engine.parallel".to_string(),
                start_ns: parallel_start_ns,
                dur_ns: parallel_dur_ns,
                args: vec![
                    ("shards".to_string(), workers.to_string()),
                    ("utilization".to_string(), format!("{utilization:.3}")),
                    ("batches".to_string(), nbatches.to_string()),
                    ("steals".to_string(), total_steals.to_string()),
                    ("splits".to_string(), scheduler_splits(&bounds).to_string()),
                ],
            });
        }

        let _merge_span = profiler.span_on("engine", "engine.merge");
        let mut records = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(nbatches);
        let mut observations = Vec::with_capacity(nbatches);
        let mut diagnostics = Counters::new();
        let mut spans = Vec::with_capacity(nbatches);
        let mut clock_us = 0.0f64;
        for (b, outcome) in executed.into_iter().enumerate() {
            // Batches are claimed in index order, so every batch before
            // the earliest failure has a result, and the first failing
            // batch holds the earliest failing plan row. Replayed batches
            // carry their stored clock reading, so the offset arithmetic
            // — and therefore every timestamp — matches the uninterrupted
            // run.
            let mut y = match outcome {
                Some(Ok(y)) => y,
                Some(Err(e)) => return Err(e),
                // A hole means the claim loop stopped handing out
                // batches — with a fired token that is cancellation
                // (whole segments for every batch that did run are
                // already in the sink).
                None if cancel.is_cancelled() => return Err(TargetError::Cancelled),
                None => unreachable!("batch never claimed"),
            };
            offsets.push(clock_us);
            for r in &mut y.records {
                r.start_us += clock_us;
            }
            records.append(&mut y.records);
            for (k, v) in y.diagnostics {
                // Campaign total plus a per-worker breakdown keyed by the
                // worker that actually executed the batch.
                diagnostics.add_owned(format!("shard{}.{k}", worker_of[b]), v);
                diagnostics.add_owned(k, v);
            }
            if let Some(mut obs) = y.observation {
                // Shift batch-local event timestamps onto the campaign
                // timeline, like record timestamps above. Sequence
                // numbers are already global (skip_to set the index).
                for e in &mut obs.events {
                    e.t_us += clock_us;
                }
                spans.push(Span {
                    name: format!("batch{b}"),
                    t_start_us: clock_us,
                    t_end_us: clock_us + y.elapsed_us,
                    wall_ns: y.wall_ns,
                });
                observations.push(obs);
            }
            clock_us += y.elapsed_us;
        }
        let offsets_str = offsets.iter().map(|o| format!("{o:.3}")).collect::<Vec<_>>().join(",");
        let mut metadata = MetadataBuilder::new()
            .with_engine_info()
            .with_campaign_info(plan.len(), shuffle_seed)
            .with_target_info(&base.metadata())
            .set("shards", workers)
            .set("batches", nbatches)
            .set("shard_clock_offsets", offsets_str);
        let report = if observer.is_some() {
            metadata = metadata.set("observed", "true");
            let mut report = CampaignReport::merge(observations);
            // merge() counts observations (= batches); the report's shard
            // count is the worker count.
            report.shards = workers;
            report.counters.add("engine.rows", records.len() as u64);
            report.spans = spans;
            report.spans.push(Span {
                name: "campaign".to_string(),
                t_start_us: 0.0,
                t_end_us: clock_us,
                wall_ns: wall_start.elapsed().as_nanos() as u64,
            });
            diagnostics.add("engine.scheduler.batches", nbatches as u64);
            diagnostics.add("engine.scheduler.steals", total_steals);
            diagnostics.add("engine.scheduler.splits", scheduler_splits(&bounds));
            for (w, s) in steals_per_worker.iter().enumerate() {
                diagnostics.add_owned(format!("shard{w}.engine.scheduler.steals"), *s);
            }
            add_hit_rates(&mut diagnostics);
            report.diagnostics = diagnostics;
            Some(report)
        } else {
            None
        };
        let data = CampaignData {
            metadata: metadata.build(),
            factor_names: plan.factor_names().to_vec(),
            records,
        };
        Ok(CampaignRun { data, report, replayed_batches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{MemoryTarget, NetworkTarget};
    use charm_design::doe::FullFactorial;
    use charm_design::{Factor, Level, Levels};
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::{CpuSpec, MachineSim};
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;
    use charm_simnet::presets;

    fn shuffled_net_plan(reps: u32, seed: u64) -> ExperimentPlan {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong", "async_send", "blocking_recv"]))
            .factor(Factor::new("size", vec![64i64, 1024, 16384, 262144]))
            .replicates(reps)
            .build();
        plan.shuffle(seed);
        plan
    }

    fn arm_machine(seed: u64) -> MachineSim {
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        )
    }

    #[test]
    fn campaign_retains_every_measurement() {
        let plan = shuffled_net_plan(3, 9);
        let run =
            Campaign::new(&plan, NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(1)))
                .seed(9)
                .run()
                .unwrap();
        assert!(run.report.is_none());
        let campaign = run.data;
        assert_eq!(campaign.records.len(), plan.len());
        // sequence numbers are the execution order
        for (i, r) in campaign.records.iter().enumerate() {
            assert_eq!(r.sequence, i as u64);
        }
        // timestamps strictly increase (virtual clock)
        for w in campaign.records.windows(2) {
            assert!(w[1].start_us > w[0].start_us);
        }
        assert_eq!(campaign.metadata["order"], "randomized");
        assert_eq!(campaign.metadata["shuffle_seed"], "9");
        assert_eq!(campaign.metadata["plan_rows"], plan.len().to_string());
    }

    #[test]
    fn campaign_csv_roundtrip_end_to_end() {
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![4096i64, 8192]))
            .factor(Factor::new("stride", vec![1i64, 2]))
            .replicates(2)
            .build();
        let target = MemoryTarget::new(
            "opteron",
            MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                3,
            ),
        );
        let campaign = Campaign::new(&plan, target).run().unwrap().data;
        let back = CampaignData::from_csv(&campaign.to_csv()).unwrap();
        assert_eq!(campaign, back);
        assert_eq!(back.metadata["order"], "sequential");
        assert_eq!(back.metadata["cpu"], "Opteron 2.8GHz");
    }

    #[test]
    fn identical_seeds_identical_campaigns() {
        let mk = || {
            let plan = shuffled_net_plan(3, 4);
            let target = NetworkTarget::new("myrinet", presets::myrinet_gm(8));
            Campaign::new(&plan, target).seed(4).run().unwrap().data
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn fails_fast_on_bad_plan() {
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["nonsense"]))
            .factor(Factor::new("size", vec![1i64]))
            .build();
        let target = NetworkTarget::new("x", presets::myrinet_gm(1));
        assert!(Campaign::new(&plan, target).run().is_err());
    }

    #[test]
    fn group_by_recovers_replicates() {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![64i64, 512]))
            .replicates(5)
            .build();
        plan.shuffle(2);
        let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(2));
        let campaign = Campaign::new(&plan, target).seed(2).run().unwrap().data;
        let groups = campaign.group_by(&["size"]);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|(_, vs)| vs.len() == 5));
    }

    #[test]
    fn a_level_listed_twice_groups_with_its_twin() {
        // The two 64 combinations hold separate but equal tuples: they
        // run as themselves and group as one.
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![64i64, 64, 4096]))
            .replicates(4)
            .build();
        plan.shuffle(6);
        let run = |shards| {
            let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(6));
            Campaign::new(&plan, target).shards(shards).seed(6).run().unwrap().data
        };
        let (sequential, sharded) = (run(1), run(3));
        // start_us is rebuilt from per-shard clocks, so it is left out
        let rows = |c: &CampaignData| {
            let rows = c.records.iter();
            rows.map(|r| (r.levels.to_vec(), r.replicate, r.sequence, r.value.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&sequential), rows(&sharded));
        for campaign in [&sequential, &sharded] {
            let groups = campaign.group_by(&["size"]);
            assert_eq!(groups.len(), 2);
            assert_eq!(groups.iter().find(|(k, _)| k[0] == Level::Int(64)).unwrap().1.len(), 8);
        }
    }

    #[test]
    fn builder_runs_borrowed_targets() {
        let plan = shuffled_net_plan(2, 5);
        let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(5));
        let by_ref = Campaign::new(&plan, &mut target).seed(5).run().unwrap();
        assert_eq!(by_ref.data.records.len(), plan.len());
        // the borrow ends with run(); the same target advanced its noise
        // stream, so a second run measures different values
        let again = Campaign::new(&plan, &mut target).seed(5).run().unwrap();
        let values = |c: &CampaignData| c.records.iter().map(|r| r.value).collect::<Vec<_>>();
        assert_ne!(values(&by_ref.data), values(&again.data));
    }

    #[test]
    fn observer_never_changes_records() {
        let plan = shuffled_net_plan(5, 23);
        let plain = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(23)))
            .seed(23)
            .run()
            .unwrap();
        let observed = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(23)))
            .seed(23)
            .observer(Observer::default())
            .run()
            .unwrap();
        assert_eq!(plain.data.records.len(), observed.data.records.len());
        for (a, b) in plain.data.records.iter().zip(&observed.data.records) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "seq {}", a.sequence);
            assert_eq!(a.start_us.to_bits(), b.start_us.to_bits(), "seq {}", a.sequence);
        }
        // metadata differs only by the `observed` marker
        assert_eq!(observed.data.metadata["observed"], "true");
        assert!(!plain.data.metadata.contains_key("observed"));
    }

    #[test]
    fn sequential_report_carries_provenance() {
        let plan = shuffled_net_plan(3, 7);
        let run = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(7)))
            .seed(7)
            .observer(Observer::default())
            .run()
            .unwrap();
        let report = run.report.expect("observer attached");
        let n = plan.len() as u64;
        assert_eq!(report.counters.get("engine.rows"), n);
        assert_eq!(report.counters.get("simnet.measurements"), n);
        assert_eq!(report.events.len(), plan.len());
        // every record's sequence resolves to exactly one "measure" event
        // stamped at the record's start time
        for r in &run.data.records {
            let events = report.provenance_for(r.sequence);
            assert_eq!(events.len(), 1, "seq {}", r.sequence);
            assert_eq!(events[0].kind, "measure");
            assert_eq!(events[0].t_us.to_bits(), r.start_us.to_bits(), "seq {}", r.sequence);
        }
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "campaign");
        assert_eq!(report.shards, 1);
    }

    #[test]
    fn one_shard_equals_sequential() {
        let plan = shuffled_net_plan(5, 11);
        let sequential =
            Campaign::new(&plan, NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(11)))
                .seed(11)
                .run()
                .unwrap()
                .data;
        let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(11));
        let parallel = Campaign::new(&plan, target).shards(1).seed(11).run().unwrap().data;
        assert_eq!(sequential.records, parallel.records);
        assert_eq!(sequential.factor_names, parallel.factor_names);
        assert_eq!(parallel.metadata["shards"], "1");
        assert_eq!(parallel.metadata["batches"], "1");
        assert_eq!(parallel.metadata["shard_clock_offsets"], "0.000");
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let plan = shuffled_net_plan(6, 3);
        let sequential =
            Campaign::new(&plan, NetworkTarget::new("myrinet", presets::myrinet_gm(42)))
                .seed(3)
                .run()
                .unwrap()
                .data;
        for shards in [2usize, 3, 7] {
            let target = NetworkTarget::new("myrinet", presets::myrinet_gm(42));
            let parallel = Campaign::new(&plan, target).shards(shards).seed(3).run().unwrap().data;
            assert_eq!(parallel.records.len(), sequential.records.len());
            for (s, p) in sequential.records.iter().zip(&parallel.records) {
                assert_eq!(s.levels, p.levels, "{shards} shards");
                assert_eq!(s.replicate, p.replicate, "{shards} shards");
                assert_eq!(s.sequence, p.sequence, "{shards} shards");
                // values are counter-derived: bit-for-bit equal
                assert_eq!(s.value, p.value, "{shards} shards, seq {}", s.sequence);
                // timestamps are reconstructed from shard offsets: equal
                // up to float rounding of the offset sums
                let tol = 1e-6 * s.start_us.abs().max(1.0);
                assert!(
                    (s.start_us - p.start_us).abs() <= tol,
                    "{shards} shards, seq {}: {} vs {}",
                    s.sequence,
                    s.start_us,
                    p.start_us
                );
            }
            assert_eq!(parallel.metadata["shards"], shards.to_string());
            let batches = batch_bounds(plan.len(), shards).len();
            assert_eq!(parallel.metadata["batches"], batches.to_string());
            let offsets = parallel.metadata["shard_clock_offsets"].split(',').count();
            assert_eq!(offsets, batches);
        }
    }

    #[test]
    fn memory_target_shards_reproduce_sequential() {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![4096i64, 16384, 65536, 262144]))
            .factor(Factor::new("stride", vec![1i64, 4]))
            .replicates(4)
            .build();
        plan.shuffle(8);
        let sequential =
            Campaign::new(&plan, MemoryTarget::new("arm", arm_machine(21))).seed(8).run().unwrap();
        let parallel = Campaign::new(&plan, MemoryTarget::new("arm", arm_machine(21)))
            .shards(4)
            .seed(8)
            .run()
            .unwrap();
        let values = |c: &CampaignData| {
            c.records.iter().map(|r| (r.levels.clone(), r.replicate, r.value)).collect::<Vec<_>>()
        };
        assert_eq!(values(&sequential.data), values(&parallel.data));
    }

    #[test]
    fn shards_clamp_to_plan_rows() {
        let plan = shuffled_net_plan(1, 1); // 12 rows
        let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(1));
        let campaign = Campaign::new(&plan, target).shards(99).seed(1).run().unwrap().data;
        assert_eq!(campaign.records.len(), 12);
        assert_eq!(campaign.metadata["shards"], "12");
    }

    #[test]
    fn geometry_helpers_are_pure_and_clamped() {
        assert_eq!(effective_workers(100, 8), 8, "the request is the geometry");
        assert_eq!(effective_workers(3, 8), 3, "never more workers than rows");
        assert_eq!(effective_workers(0, 8), 1, "empty plan still gets one worker");
        assert_eq!(effective_workers(100, 0), 1, "at least one worker");
        assert_eq!(batch_bounds(100, 1), vec![(0, 100)], "one worker means one batch");
        assert_eq!(batch_bounds(0, 1), vec![(0, 0)], "empty plan still gets one (empty) batch");
        assert_eq!(batch_bounds(96, 3).len(), 15, "store smoke geometry (see ci.yml)");
    }

    /// The guided geometry's contract: bounds partition the plan
    /// contiguously, batch sizes never increase along the claim order,
    /// and no batch but the last drops below the row floor of 1/8 of a
    /// worker's static share.
    #[test]
    fn batch_bounds_shrink_monotonically_and_respect_the_floor() {
        for (rows, workers) in [(100usize, 4usize), (96, 3), (6000, 4), (6, 4), (7, 3), (2, 2)] {
            let bounds = batch_bounds(rows, workers);
            let floor = (rows / (workers * 8)).max(1);
            assert_eq!(bounds.first().unwrap().0, 0, "{rows}/{workers}");
            assert_eq!(bounds.last().unwrap().1, rows, "{rows}/{workers}");
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous: {rows}/{workers}");
                assert!(
                    w[1].1 - w[1].0 <= w[0].1 - w[0].0,
                    "sizes never increase: {rows}/{workers}"
                );
            }
            for &(lo, hi) in &bounds[..bounds.len() - 1] {
                assert!(hi - lo >= floor, "floor respected: {rows}/{workers}");
            }
            assert_eq!(
                scheduler_splits(&bounds),
                bounds.windows(2).filter(|w| w[1].1 - w[1].0 < w[0].1 - w[0].0).count() as u64
            );
        }
    }

    #[test]
    fn parallel_error_reports_earliest_failing_row() {
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["nonsense"]))
            .factor(Factor::new("size", vec![64i64]))
            .replicates(6)
            .build();
        let target = NetworkTarget::new("m", presets::myrinet_gm(1));
        let err = Campaign::new(&plan, target).shards(3).run().unwrap_err();
        assert!(matches!(err, TargetError::BadFactor { name: "op", .. }));
    }

    #[test]
    fn sharded_report_is_shard_count_invariant() {
        let plan = shuffled_net_plan(4, 13);
        let report_for = |shards: usize| {
            let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(13));
            let run = Campaign::new(&plan, target)
                .shards(shards)
                .seed(13)
                .observer(Observer::default())
                .run()
                .unwrap();
            run.report.expect("observer attached")
        };
        let one = report_for(1);
        assert_eq!(one.counters.get("engine.rows"), plan.len() as u64);
        for shards in [2usize, 3, 5] {
            let many = report_for(shards);
            assert_eq!(one.counters, many.counters, "{shards} shards");
            assert_eq!(many.shards, shards);
            // events cover every sequence exactly once, in order
            assert_eq!(many.events.len(), plan.len());
            for (i, e) in many.events.iter().enumerate() {
                assert_eq!(e.seq, i as u64, "{shards} shards");
            }
            // one span per batch plus the whole-campaign span
            let batches = batch_bounds(plan.len(), shards).len();
            assert_eq!(many.spans.len(), batches + 1);
            assert_eq!(many.spans[batches].name, "campaign");
        }
    }

    #[test]
    fn sharded_event_times_land_on_campaign_timeline() {
        let plan = shuffled_net_plan(5, 29);
        let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(29));
        let run = Campaign::new(&plan, target)
            .shards(4)
            .seed(29)
            .observer(Observer::default())
            .run()
            .unwrap();
        let report = run.report.unwrap();
        for r in &run.data.records {
            let events = report.provenance_for(r.sequence);
            assert_eq!(events.len(), 1);
            // events got the same clock offset shift as the records
            let tol = 1e-6 * r.start_us.abs().max(1.0);
            assert!(
                (events[0].t_us - r.start_us).abs() <= tol,
                "seq {}: event {} vs record {}",
                r.sequence,
                events[0].t_us,
                r.start_us
            );
        }
    }

    #[test]
    fn sharded_builder_refuses_time_dependent_targets() {
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![8192i64]))
            .replicates(4)
            .build();
        let mk = || {
            MemoryTarget::new(
                "i7",
                MachineSim::new(
                    CpuSpec::core_i7_2600(),
                    GovernorPolicy::Ondemand { sample_period_us: 10_000.0 },
                    SchedPolicy::PinnedDefault,
                    AllocPolicy::MallocPerSize,
                    5,
                ),
            )
        };
        let err = Campaign::new(&plan, mk()).shards(2).run().unwrap_err();
        assert!(matches!(err, TargetError::NotShardable { .. }));
        // one shard is always fine: it is just the sequential run
        assert!(Campaign::new(&plan, mk()).shards(1).run().is_ok());
        // so is any request on a one-row plan: it clamps to one worker
        let one_row = FullFactorial::new().factor(Factor::new("size_bytes", vec![8192i64])).build();
        assert!(Campaign::new(&one_row, mk()).shards(2).run().is_ok());
    }

    #[test]
    fn observed_memory_shards_reproduce_sequential_counters() {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![4096i64, 16384, 65536]))
            .factor(Factor::new("stride", vec![1i64, 4]))
            .replicates(3)
            .build();
        plan.shuffle(31);
        let run_with = |shards: usize| {
            let target = MemoryTarget::new("arm", arm_machine(21));
            Campaign::new(&plan, target)
                .shards(shards)
                .seed(31)
                .observer(Observer::default())
                .run()
                .unwrap()
        };
        let one = run_with(1);
        let four = run_with(4);
        let values = |c: &CampaignData| {
            c.records.iter().map(|r| (r.levels.clone(), r.replicate, r.value)).collect::<Vec<_>>()
        };
        assert_eq!(values(&one.data), values(&four.data));
        let (r1, r4) = (one.report.unwrap(), four.report.unwrap());
        assert_eq!(r1.counters, r4.counters);
        assert!(r1.counters.get("simmem.cache.l1.hits") > 0);
    }

    #[test]
    fn profiler_never_changes_records() {
        let plan = shuffled_net_plan(4, 19);
        let run_with = |profiler: Profiler, shards: usize| {
            profiler.install_thread("main");
            let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(19));
            let builder = Campaign::new(&plan, target).seed(19);
            let data = match shards {
                0 => builder.run().unwrap().data,
                k => builder.shards(k).run().unwrap().data,
            };
            Profiler::uninstall_thread();
            data
        };
        for shards in [0usize, 3] {
            let plain = run_with(Profiler::disabled(), shards);
            let profiled = run_with(Profiler::enabled(), shards);
            assert_eq!(plain.records.len(), profiled.records.len());
            for (a, b) in plain.records.iter().zip(&profiled.records) {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "seq {}", a.sequence);
                assert_eq!(a.start_us.to_bits(), b.start_us.to_bits(), "seq {}", a.sequence);
            }
            assert_eq!(plain.metadata, profiled.metadata);
        }
    }

    #[test]
    fn sequential_profiler_records_engine_spans() {
        let plan = shuffled_net_plan(2, 5);
        let p = Profiler::enabled();
        let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(5));
        p.install_thread("main");
        Campaign::new(&plan, target).seed(5).run().unwrap();
        Profiler::uninstall_thread();
        let spans = p.take();
        let find = |name: &str| {
            spans.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no {name} span"))
        };
        let run = find("engine.run");
        let execute = find("engine.execute");
        let finalize = find("engine.finalize");
        assert!(spans.iter().all(|s| s.track == "engine"));
        assert_eq!(execute.args, vec![("rows".to_string(), plan.len().to_string())]);
        // execute and finalize nest inside run, in order
        assert!(run.start_ns <= execute.start_ns);
        assert!(execute.end_ns() <= finalize.start_ns);
        assert!(finalize.end_ns() <= run.end_ns());
    }

    #[test]
    fn sharded_profiler_records_shard_tracks_and_utilization() {
        let plan = shuffled_net_plan(4, 7);
        let p = Profiler::enabled();
        let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(7));
        p.install_thread("main");
        Campaign::new(&plan, target).shards(3).seed(7).run().unwrap();
        Profiler::uninstall_thread();
        let spans = p.take();
        // Every batch executed on some worker track; which worker ran
        // which batch is scheduling, not science, so assert coverage
        // rather than placement.
        let batches = batch_bounds(plan.len(), 3).len();
        let batch_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.track.starts_with("shard") && s.name == "batch.execute")
            .collect();
        assert_eq!(batch_spans.len(), batches);
        let mut seen: Vec<usize> = batch_spans
            .iter()
            .map(|s| {
                assert_eq!(s.args[0].0, "batch");
                assert_eq!(s.args[1].0, "rows");
                s.args[0].1.parse::<usize>().unwrap()
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..batches).collect::<Vec<_>>());
        let parallel =
            spans.iter().find(|s| s.name == "engine.parallel").expect("parallel region span");
        assert_eq!(parallel.track, "engine");
        assert_eq!(parallel.args[0], ("shards".to_string(), "3".to_string()));
        assert_eq!(parallel.args[1].0, "utilization");
        let u: f64 = parallel.args[1].1.parse().unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        assert_eq!(parallel.args[2], ("batches".to_string(), batches.to_string()));
        assert_eq!(parallel.args[3].0, "steals");
        // merge follows the parallel region inside the run span
        let merge = spans.iter().find(|s| s.name == "engine.merge").unwrap();
        assert!(parallel.end_ns() <= merge.start_ns + 1_000);
    }

    /// The diagnostics channel: a sharded observed memory campaign
    /// reports profile-cache hit statistics and scheduler tallies,
    /// separate from the (shard-invariant) scientific counters.
    #[test]
    fn sharded_run_reports_cache_and_scheduler_diagnostics() {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![4096i64, 16384, 65536]))
            .factor(Factor::new("stride", vec![1i64, 4]))
            .replicates(4)
            .build();
        plan.shuffle(43);
        let machine = MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::MallocPerSize,
            9,
        );
        let run = Campaign::new(&plan, MemoryTarget::new("arm", machine))
            .shards(3)
            .seed(43)
            .observer(Observer::default())
            .run()
            .unwrap();
        let report = run.report.expect("observer attached");
        let d = &report.diagnostics;
        let hits = d.get("simmem.profile_cache.hits");
        let misses = d.get("simmem.profile_cache.misses");
        assert_eq!(hits + misses, plan.len() as u64, "one cache lookup per row");
        // Every batch runs on a fork with an empty cache, so under
        // MallocPerSize a row hits exactly when an earlier row of its
        // batch has the same (size, stride).
        let expected_hits: u64 = batch_bounds(plan.len(), 3)
            .iter()
            .map(|&(lo, hi)| {
                let mut distinct: Vec<&Levels> = Vec::new();
                for row in &plan.rows()[lo..hi] {
                    if !distinct.contains(&&row.levels) {
                        distinct.push(&row.levels);
                    }
                }
                (hi - lo - distinct.len()) as u64
            })
            .sum();
        assert!(expected_hits > 0, "the plan must repeat a cell within some batch");
        assert_eq!(hits, expected_hits, "hits are exactly the within-batch repeats");
        assert_eq!(d.get("simmem.profile_cache.hit_rate_permille"), hits * 1000 / (hits + misses));
        assert_eq!(d.get("engine.scheduler.batches"), batch_bounds(plan.len(), 3).len() as u64);
        assert_eq!(
            d.get("engine.scheduler.splits"),
            scheduler_splits(&batch_bounds(plan.len(), 3))
        );
        // per-worker breakdowns sum to the campaign totals
        let per_worker_hits: u64 =
            (0..3).map(|w| d.get(&format!("shard{w}.simmem.profile_cache.hits"))).sum();
        assert_eq!(per_worker_hits, hits);
        let per_worker_steals: u64 =
            (0..3).map(|w| d.get(&format!("shard{w}.engine.scheduler.steals"))).sum();
        assert_eq!(per_worker_steals, d.get("engine.scheduler.steals"));
        // diagnostics never leak into the scientific counter set
        assert!(report.counters.iter().all(|(k, _)| !k.contains("profile_cache")));
    }

    /// In-memory checkpoint sink: segments keyed by (batch, batches),
    /// plus save/load counters so tests can assert which batches executed.
    #[derive(Default)]
    struct MemorySink {
        segments: std::sync::Mutex<std::collections::HashMap<(usize, usize), ShardCheckpoint>>,
        saves: std::sync::atomic::AtomicUsize,
    }

    impl MemorySink {
        fn remove(&self, shard: usize, shards: usize) {
            self.segments.lock().unwrap().remove(&(shard, shards));
        }

        fn saves(&self) -> usize {
            self.saves.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl CheckpointSink for MemorySink {
        fn save_shard(
            &self,
            shard: usize,
            shards: usize,
            checkpoint: &ShardCheckpoint,
        ) -> Result<(), crate::checkpoint::CheckpointError> {
            self.saves.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.segments.lock().unwrap().insert((shard, shards), checkpoint.clone());
            Ok(())
        }

        fn load_shard(
            &self,
            shard: usize,
            shards: usize,
        ) -> Result<Option<ShardCheckpoint>, crate::checkpoint::CheckpointError> {
            Ok(self.segments.lock().unwrap().get(&(shard, shards)).cloned())
        }
    }

    fn assert_bit_identical(a: &CampaignData, b: &CampaignData) {
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.levels, y.levels, "seq {}", x.sequence);
            assert_eq!(x.replicate, y.replicate, "seq {}", x.sequence);
            assert_eq!(x.sequence, y.sequence);
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "seq {}", x.sequence);
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits(), "seq {}", x.sequence);
        }
        assert_eq!(a.metadata, b.metadata);
    }

    #[test]
    fn checkpointing_never_changes_records() {
        let plan = shuffled_net_plan(4, 37);
        let plain = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(37)))
            .shards(3)
            .seed(37)
            .run()
            .unwrap()
            .data;
        let sink = MemorySink::default();
        let stored = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(37)))
            .shards(3)
            .seed(37)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        assert_bit_identical(&plain, &stored);
        // every batch flushed exactly one segment
        let batches = batch_bounds(plan.len(), 3).len();
        assert_eq!(sink.saves(), batches);
        let segments = sink.segments.lock().unwrap();
        assert_eq!(segments.len(), batches);
        let total: usize = segments.values().map(|c| c.records.len()).sum();
        assert_eq!(total, plan.len());
    }

    #[test]
    fn resume_after_killing_shards_is_bit_identical() {
        let plan = shuffled_net_plan(5, 41);
        let fresh = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(41)))
            .shards(4)
            .seed(41)
            .run()
            .unwrap()
            .data;
        let sink = MemorySink::default();
        Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(41)))
            .shards(4)
            .seed(41)
            .store(&sink)
            .run()
            .unwrap();
        // Kill a strict subset of batches, as if the campaign died mid-run.
        let batches = batch_bounds(plan.len(), 4).len();
        sink.remove(1, batches);
        sink.remove(batches - 1, batches);
        let saves_before = sink.saves();
        let resumed = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(41)))
            .shards(4)
            .seed(41)
            .store(&sink)
            .run()
            .unwrap();
        assert_bit_identical(&fresh, &resumed.data);
        // only the two missing batches were re-executed (and re-flushed)
        assert_eq!(sink.saves() - saves_before, 2);
        assert_eq!(resumed.replayed_batches, batches - 2);
    }

    #[test]
    fn resume_with_all_shards_present_executes_nothing() {
        let plan = shuffled_net_plan(3, 53);
        let sink = MemorySink::default();
        let stored = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(53)))
            .shards(2)
            .seed(53)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        let saves_before = sink.saves();
        let resumed =
            Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(53)))
                .shards(2)
                .seed(53)
                .store(&sink)
                .run()
                .unwrap();
        assert_bit_identical(&stored, &resumed.data);
        assert_eq!(sink.saves(), saves_before, "no batch re-executed");
        assert_eq!(resumed.replayed_batches, batch_bounds(plan.len(), 2).len());
    }

    /// Checkpoints retain records, not counter streams, so an observed
    /// campaign measures every batch even when the store holds them all —
    /// and measures exactly what the unobserved run stored.
    #[test]
    fn observed_campaign_measures_every_batch_over_a_full_store() {
        let plan = shuffled_net_plan(3, 2);
        let sink = MemorySink::default();
        let run = |observer: Option<Observer>| {
            let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(2));
            let campaign = Campaign::new(&plan, target).shards(2).seed(2).store(&sink);
            match observer {
                Some(o) => campaign.observer(o).run().unwrap(),
                None => campaign.run().unwrap(),
            }
        };
        let plain = run(None);
        let batches = batch_bounds(plan.len(), 2).len();
        assert_eq!(sink.saves(), batches, "the unobserved run stored every batch");
        let observed = run(Some(Observer::default()));
        assert_eq!(sink.saves(), 2 * batches, "one fresh segment per batch");
        assert_eq!(observed.replayed_batches, 0);
        assert_eq!(observed.report.expect("observer attached").events.len(), plan.len());
        assert_eq!(plain.data.records, observed.data.records);
    }

    #[test]
    fn resume_rejects_checkpoint_with_wrong_geometry() {
        let plan = shuffled_net_plan(2, 3);
        let sink = MemorySink::default();
        Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(3)))
            .shards(2)
            .seed(3)
            .store(&sink)
            .run()
            .unwrap();
        // Truncate batch 0's segment: resume must refuse, not re-measure.
        let batches = batch_bounds(plan.len(), 2).len();
        {
            let mut segments = sink.segments.lock().unwrap();
            let chk = segments.get_mut(&(0, batches)).unwrap();
            chk.records.pop();
        }
        let err = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(3)))
            .shards(2)
            .seed(3)
            .store(&sink)
            .run()
            .unwrap_err();
        assert!(matches!(err, TargetError::Checkpoint { .. }));
    }

    /// Checkpoint sink that fires a [`CancelToken`] after `after` saved
    /// segments: a deterministic stand-in for "the operator cancelled the
    /// job while batches were still unclaimed".
    struct CancelAfterSink<'s> {
        inner: &'s MemorySink,
        token: CancelToken,
        after: usize,
    }

    impl CheckpointSink for CancelAfterSink<'_> {
        fn save_shard(
            &self,
            shard: usize,
            shards: usize,
            checkpoint: &ShardCheckpoint,
        ) -> Result<(), crate::checkpoint::CheckpointError> {
            self.inner.save_shard(shard, shards, checkpoint)?;
            if self.inner.saves() >= self.after {
                self.token.cancel();
            }
            Ok(())
        }

        fn load_shard(
            &self,
            shard: usize,
            shards: usize,
        ) -> Result<Option<ShardCheckpoint>, crate::checkpoint::CheckpointError> {
            self.inner.load_shard(shard, shards)
        }
    }

    #[test]
    fn cancelled_campaign_stops_promptly_and_leaves_resumable_segments() {
        let plan = shuffled_net_plan(6, 61);
        let fresh = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(61)))
            .shards(4)
            .seed(61)
            .run()
            .unwrap()
            .data;
        let sink = MemorySink::default();
        let token = CancelToken::new();
        let cancelling = CancelAfterSink { inner: &sink, token: token.clone(), after: 1 };
        let err = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(61)))
            .shards(4)
            .seed(61)
            .store(&cancelling)
            .cancel_token(token.clone())
            .run()
            .unwrap_err();
        assert!(matches!(err, TargetError::Cancelled), "got {err}");
        assert!(token.is_cancelled());
        // Stopped promptly: the claim loop stopped handing out batches, so
        // a strict subset of the geometry ran — at least the segment that
        // fired the token, at most one in-flight batch per worker more.
        let batches = batch_bounds(plan.len(), 4).len();
        let saved = sink.saves();
        assert!(saved >= 1, "the triggering segment was flushed");
        assert!(saved < batches, "cancellation must not run the whole campaign (ran {saved})");
        assert!(saved <= 1 + 4, "at most one in-flight batch per worker after the trigger");
        // Every segment left behind is whole, and resume completes the
        // campaign bit-identically to an uninterrupted run.
        for ((_, b), chk) in sink.segments.lock().unwrap().iter() {
            assert_eq!(*b, batches, "segments carry the run's geometry");
            assert!(!chk.records.is_empty(), "no empty segments");
        }
        let resumed = Campaign::new(&plan, NetworkTarget::new("m", presets::myrinet_gm(61)))
            .shards(4)
            .seed(61)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        assert_bit_identical(&fresh, &resumed);
    }

    #[test]
    fn pre_cancelled_sequential_campaign_never_measures() {
        let plan = shuffled_net_plan(2, 7);
        let token = CancelToken::new();
        token.cancel();
        let err = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(7)))
            .seed(7)
            .cancel_token(token)
            .run()
            .unwrap_err();
        assert!(matches!(err, TargetError::Cancelled));
    }

    #[test]
    fn pre_cancelled_sharded_campaign_claims_no_batches() {
        let plan = shuffled_net_plan(2, 7);
        let sink = MemorySink::default();
        let token = CancelToken::new();
        token.cancel();
        let err = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(7)))
            .shards(2)
            .seed(7)
            .store(&sink)
            .cancel_token(token)
            .run()
            .unwrap_err();
        assert!(matches!(err, TargetError::Cancelled));
        assert_eq!(sink.saves(), 0, "no batch may start after cancellation");
    }

    #[test]
    fn token_firing_after_last_claim_lets_the_run_complete() {
        // Cancellation is advisory: a token fired once all batches are
        // claimed (here: after every batch already saved) changes nothing.
        let plan = shuffled_net_plan(2, 11);
        let sink = MemorySink::default();
        let token = CancelToken::new();
        let batches = batch_bounds(plan.len(), 2).len();
        let late = CancelAfterSink { inner: &sink, token: token.clone(), after: batches };
        let run = Campaign::new(&plan, NetworkTarget::new("t", presets::taurus_openmpi_tcp(11)))
            .shards(2)
            .seed(11)
            .store(&late)
            .cancel_token(token.clone())
            .run();
        // Either every batch was claimed before the token fired (normal
        // completion) or a worker saw the token first (cancelled) — both
        // are legal; what is banned is a partial result passed off as Ok.
        match run {
            Ok(r) => assert_eq!(r.data.records.len(), plan.len()),
            Err(e) => assert!(matches!(e, TargetError::Cancelled)),
        }
    }

    #[test]
    fn submission_path_is_send_clean() {
        // The serve crate moves campaigns across threads: builders,
        // sharded builders, tokens, results and errors must all be Send.
        fn assert_send<T: Send>() {}
        assert_send::<Campaign<'static, NetworkTarget>>();
        assert_send::<Campaign<'static, MemoryTarget>>();
        assert_send::<ShardedCampaign<'static, NetworkTarget>>();
        assert_send::<ShardedCampaign<'static, MemoryTarget>>();
        assert_send::<CancelToken>();
        assert_send::<CampaignRun>();
        assert_send::<TargetError>();
    }

    #[test]
    fn builder_defaults_to_thread_profiler() {
        let plan = shuffled_net_plan(1, 2);
        let p = Profiler::enabled();
        p.install_thread("main");
        let target = NetworkTarget::new("t", presets::taurus_openmpi_tcp(2));
        Campaign::new(&plan, target).seed(2).run().unwrap();
        Profiler::uninstall_thread();
        let spans = p.take();
        assert!(spans.iter().any(|s| s.name == "engine.run"), "ambient profiler picked up");
    }
}

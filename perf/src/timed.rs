//! Timing wrappers the traced ops hand to the engine in place of the
//! real target and checkpoint sink. They delegate every call, so names,
//! metadata, run IDs and records are exactly those of the wrapped
//! object, and add up the wall time of the calls they time.

use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::target::{Assignment, Measurement};
use charm_engine::{ParallelTarget, Target, TargetError};
use charm_obs::{Observation, Observer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A target whose `measure` calls are timed. Each engine fork keeps a
/// private tally and adds it to the shared total when dropped, so the
/// hot path costs two clock reads and no shared write.
pub struct TimedTarget<T> {
    inner: T,
    total_ns: Arc<AtomicU64>,
    local_ns: u64,
}

impl<T> TimedTarget<T> {
    /// Wraps `inner`; measurement time accumulates into `total_ns`.
    pub fn new(inner: T, total_ns: Arc<AtomicU64>) -> Self {
        TimedTarget { inner, total_ns, local_ns: 0 }
    }
}

impl<T> Drop for TimedTarget<T> {
    fn drop(&mut self) {
        // A statistic read after the campaign's threads are joined.
        self.total_ns.fetch_add(self.local_ns, Ordering::Relaxed);
    }
}

impl<T: Target> Target for TimedTarget<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn metadata(&self) -> Vec<(String, String)> {
        self.inner.metadata()
    }

    fn measure(&mut self, a: &Assignment<'_>) -> Result<Measurement, TargetError> {
        let start = Instant::now();
        let m = self.inner.measure(a);
        self.local_ns += start.elapsed().as_nanos() as u64;
        m
    }

    fn observe(&mut self, observer: &Observer) {
        self.inner.observe(observer)
    }

    fn take_observation(&mut self) -> Observation {
        self.inner.take_observation()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        self.inner.diagnostics()
    }
}

impl<T: ParallelTarget> ParallelTarget for TimedTarget<T> {
    fn stream_seed(&self) -> u64 {
        self.inner.stream_seed()
    }

    fn fork(&self, seed: u64) -> Self {
        TimedTarget::new(self.inner.fork(seed), Arc::clone(&self.total_ns))
    }

    fn skip_to(&mut self, index: u64) {
        self.inner.skip_to(index)
    }

    fn now_us(&self) -> f64 {
        self.inner.now_us()
    }

    fn shard_invariant(&self) -> bool {
        self.inner.shard_invariant()
    }
}

/// A checkpoint sink whose segment writes are timed.
pub struct TimedSink<'a> {
    inner: &'a dyn CheckpointSink,
    total_ns: AtomicU64,
}

impl<'a> TimedSink<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn CheckpointSink) -> Self {
        TimedSink { inner, total_ns: AtomicU64::new(0) }
    }

    /// Total time spent in `save_shard`, summed over threads.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

impl CheckpointSink for TimedSink<'_> {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        let start = Instant::now();
        let r = self.inner.save_shard(shard, shards, checkpoint);
        self.total_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        self.inner.load_shard(shard, shards)
    }
}

//! Checkpoint hooks: how a campaign archive plugs into the shard loop.
//!
//! The paper's methodology keeps *every* raw measurement with its full
//! context so analyses can be redone offline. A long campaign that dies
//! at shard 7 of 8 loses that promise unless the completed shards
//! survive. [`CheckpointSink`] is the engine-side contract a durable
//! store (see the `charm-store` crate) implements: the sharded runner
//! flushes each finished shard through [`CheckpointSink::save_shard`]
//! and, unless the campaign is observed, replays every shard the sink
//! already holds via [`CheckpointSink::load_shard`] instead of
//! re-measuring it. Each batch that joins the campaign timeline then
//! goes to [`CheckpointSink::deliver`], in plan order.
//!
//! The trait lives here — not in the store crate — so the engine stays
//! free of storage concerns and the store crate depends on the engine,
//! never the other way around.
//!
//! # Determinism
//!
//! A shard checkpoint carries the shard's records in shard-local
//! coordinates (timestamps before the merge applies clock offsets) plus
//! the shard clock's final reading. Because shard-invariant targets make
//! every value a pure function of `(stream seed, measurement index)`,
//! replaying a checkpoint is indistinguishable from re-executing the
//! shard: a resumed campaign is bit-identical to an uninterrupted one.
//! That property is tested in the store crate against arbitrary plans,
//! seeds and shard counts.

use crate::record::RawRecord;
use std::fmt;

/// Everything one shard contributes to the merge, in shard-local
/// coordinates: its records (timestamps not yet offset onto the
/// campaign timeline) and its local virtual clock's final reading.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// The shard's records, in sequence order, shard-local timestamps.
    pub records: Vec<RawRecord>,
    /// The shard's virtual clock after its last measurement (µs) — the
    /// quantity the merge folds into the clock offsets of later shards.
    pub elapsed_us: f64,
}

/// A checkpoint store failure (I/O, corruption, geometry mismatch).
/// Carried inside [`TargetError::Checkpoint`](crate::TargetError) so
/// campaign callers see one error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// A durable destination for per-shard checkpoint segments.
///
/// `save_shard` and `load_shard` are called from the engine's shard
/// threads concurrently (each shard writes only its own segment, so a
/// file-per-shard layout needs no locking). `save_shard` must be atomic
/// — a half-written segment must never be loadable. `deliver` is called
/// from the thread running the campaign only, one batch at a time.
pub trait CheckpointSink: Sync {
    /// Persists `checkpoint` as the segment for `shard` of `shards`.
    /// Overwrites any previous segment for the same geometry.
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError>;

    /// Loads the segment for `shard` of `shards`, or `None` when that
    /// shard has no checkpoint yet. Implementations should verify
    /// integrity (provenance hash, geometry) and return an error — not
    /// `None` — for a present-but-corrupt segment, so resume never
    /// silently re-measures rows it was told were retained.
    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError>;

    /// Receives the next merged batch: its records as they appear in
    /// the finished campaign. Batches arrive in plan order, measured or
    /// replayed, and stop before the earliest failing or unclaimed one;
    /// a measured batch arrives after its `save_shard` returned. The
    /// default does nothing.
    fn deliver(&self, _records: &[RawRecord]) {}
}

/// A `&S` to a sink is itself a sink, so builders can hold borrowed
/// sessions without taking ownership.
impl<S: CheckpointSink + ?Sized> CheckpointSink for &S {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        (**self).save_shard(shard, shards, checkpoint)
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        (**self).load_shard(shard, shards)
    }

    fn deliver(&self, records: &[RawRecord]) {
        (**self).deliver(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_error_displays_message() {
        let e = CheckpointError("segment is torn".into());
        assert_eq!(e.to_string(), "segment is torn");
    }

    /// Stores nothing; counts the rows delivered to it.
    #[derive(Default)]
    struct Counting(std::sync::atomic::AtomicUsize);

    impl CheckpointSink for Counting {
        fn save_shard(
            &self,
            _: usize,
            _: usize,
            _: &ShardCheckpoint,
        ) -> Result<(), CheckpointError> {
            Ok(())
        }

        fn load_shard(
            &self,
            _: usize,
            _: usize,
        ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
            Ok(None)
        }

        fn deliver(&self, records: &[RawRecord]) {
            self.0.fetch_add(records.len(), std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn a_borrowed_sink_forwards_deliveries() {
        fn deliver_through<S: CheckpointSink>(sink: S, records: &[RawRecord]) {
            sink.deliver(records);
        }
        let record = RawRecord {
            levels: vec![charm_design::factors::Level::Int(64)].into(),
            replicate: 0,
            sequence: 0,
            start_us: 1.0,
            value: 2.0,
        };
        let sink = Counting::default();
        deliver_through(&sink, &[record.clone(), record]);
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::SeqCst), 2);
    }
}

//! Incremental record streaming: a [`CheckpointSink`] that forwards
//! merged batches to the client while the engine is still measuring.
//!
//! Persistence is the session's: `save_shard` and `load_shard` go
//! straight to the [`CheckpointSession`] the sink wraps, so a segment is
//! on disk before its batch can be merged. The engine merges batches as
//! they finish and hands each one to [`CheckpointSink::deliver`] in plan
//! order, replayed batches included, with its timestamps already on the
//! campaign timeline: they are the rows of the finished campaign. The
//! sink renders each with [`RawRecord::csv_row`], the row writer of the
//! engine's campaign-CSV layout, so the streamed rows are byte-identical
//! to the data rows of the archived `records.csv`, and a resumed
//! campaign streams like an uninterrupted one.

use crate::protocol::Event;
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::RawRecord;
use charm_store::CheckpointSession;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;

/// A checkpoint sink that streams merged batches to a client event
/// channel while delegating persistence to the session it wraps.
pub(crate) struct StreamSink<'s> {
    session: &'s CheckpointSession,
    job: String,
    /// The event channel to the connection thread.
    tx: Sender<Event>,
    /// Rows streamed so far.
    streamed: AtomicU64,
}

impl<'s> StreamSink<'s> {
    /// Wraps `session`, streaming `job`'s records into `tx`.
    pub(crate) fn new(session: &'s CheckpointSession, job: &str, tx: Sender<Event>) -> Self {
        StreamSink { session, job: job.to_string(), tx, streamed: AtomicU64::new(0) }
    }

    /// Rows streamed so far (all of them, once the run returned).
    pub(crate) fn streamed(&self) -> u64 {
        self.streamed.load(Ordering::Relaxed)
    }
}

impl CheckpointSink for StreamSink<'_> {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        self.session.save_shard(shard, shards, checkpoint)
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        self.session.load_shard(shard, shards)
    }

    fn deliver(&self, records: &[RawRecord]) {
        for r in records {
            // A gone client is not a campaign error: the run keeps going
            // and archives normally.
            let _ = self.tx.send(Event::Record { job: self.job.clone(), row: r.csv_row() });
        }
        self.streamed.fetch_add(records.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::factors::Level;
    use charm_design::Factor;
    use charm_store::Store;
    use std::sync::mpsc::channel;

    #[test]
    fn disconnected_client_does_not_fail_the_sink() {
        let dir =
            std::env::temp_dir().join(format!("charm_serve_stream_gone_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let plan =
            FullFactorial::new().factor(Factor::new("size", vec![64i64])).replicates(4).build();
        let session = store.session(&plan, "t#0", Some(1), 2).unwrap();
        let (tx, rx) = channel();
        let sink = StreamSink::new(&session, "j1", tx);
        drop(rx);
        let record = RawRecord {
            levels: vec![Level::Int(64)].into(),
            replicate: 0,
            sequence: 0,
            start_us: 1.0,
            value: 1.5,
        };
        let checkpoint = ShardCheckpoint { records: vec![record], elapsed_us: 1.0 };
        sink.save_shard(0, 2, &checkpoint).unwrap();
        sink.deliver(&checkpoint.records);
        assert_eq!(sink.streamed(), 1, "rows still count");
        assert!(session.load_shard(0, 2).unwrap().is_some(), "persistence still happened");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

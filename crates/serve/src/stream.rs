//! Incremental record streaming: a [`CheckpointSink`] tee that forwards
//! finished batches to the client while the engine is still measuring.
//!
//! The engine flushes each finished batch through its checkpoint sink
//! the moment it completes, in whatever order workers finish. The tee
//! persists the segment first (durability is the point of the sink),
//! then buffers the batch and streams every *contiguous* completed
//! prefix in batch-index order, applying exactly the clock-offset
//! arithmetic of the engine's merge — batch `b`'s timestamps are
//! shifted by the summed `elapsed_us` of batches `0..b`, accumulated in
//! the same order with the same `f64` additions. Rows are rendered with
//! [`RawRecord::write_csv_row`] into one reused buffer — the same
//! formatting path `to_csv` uses. Both together make the streamed rows
//! byte-identical to the data rows of the archived `records.csv`.
//!
//! Resume replays flow through the same buffer: the engine asks
//! [`CheckpointSink::load_shard`] for every batch it claims, so replayed
//! batches stream exactly like fresh ones and a resumed campaign's
//! stream equals an uninterrupted one's.

use crate::protocol::Event;
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::RawRecord;
use charm_store::CheckpointSession;
use std::collections::BTreeMap;
use std::sync::mpsc::Sender;
use std::sync::Mutex;

struct Reorder {
    /// Finished batches not yet streamed, keyed by batch index.
    pending: BTreeMap<usize, (Vec<RawRecord>, f64)>,
    /// The next batch index to stream.
    next: usize,
    /// Summed `elapsed_us` of the batches already streamed — the clock
    /// offset the next batch's timestamps get, as in the engine merge.
    clock_us: f64,
    /// Rows streamed so far.
    streamed: u64,
    /// The event channel to the connection thread. Kept under the lock:
    /// sends must happen in flush order, and `mpsc::Sender` is not
    /// required to be `Sync` on older toolchains.
    tx: Sender<Event>,
}

/// A checkpoint sink that tees batches to a client event channel while
/// delegating persistence to the session it wraps.
pub(crate) struct StreamSink<'s> {
    session: &'s CheckpointSession,
    job: String,
    state: Mutex<Reorder>,
}

impl<'s> StreamSink<'s> {
    /// Wraps `session`, streaming `job`'s records into `tx`.
    pub(crate) fn new(session: &'s CheckpointSession, job: &str, tx: Sender<Event>) -> Self {
        StreamSink {
            session,
            job: job.to_string(),
            state: Mutex::new(Reorder {
                pending: BTreeMap::new(),
                next: 0,
                clock_us: 0.0,
                streamed: 0,
                tx,
            }),
        }
    }

    /// Rows streamed so far (all of them, once the run returned).
    pub(crate) fn streamed(&self) -> u64 {
        self.state.lock().unwrap().streamed
    }

    fn buffer(&self, batch: usize, records: Vec<RawRecord>, elapsed_us: f64) {
        let mut st = self.state.lock().unwrap();
        st.pending.insert(batch, (records, elapsed_us));
        let mut row = String::new();
        loop {
            let next = st.next;
            let Some((records, elapsed_us)) = st.pending.remove(&next) else { break };
            for mut r in records {
                r.start_us += st.clock_us;
                // Render into one scratch buffer, then ship an
                // exactly-sized copy: the event must own its row, but
                // the formatting pass never reallocates.
                row.clear();
                r.write_csv_row(&mut row).expect("writing to a String cannot fail");
                // A gone client is not a campaign error: the run keeps
                // going and archives normally.
                let _ = st.tx.send(Event::Record { job: self.job.clone(), row: row.clone() });
                st.streamed += 1;
            }
            st.clock_us += elapsed_us;
            st.next += 1;
        }
    }
}

impl CheckpointSink for StreamSink<'_> {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        self.session.save_shard(shard, shards, checkpoint)?;
        self.buffer(shard, checkpoint.records.clone(), checkpoint.elapsed_us);
        Ok(())
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        let loaded = self.session.load_shard(shard, shards)?;
        if let Some(chk) = &loaded {
            self.buffer(shard, chk.records.clone(), chk.elapsed_us);
        }
        Ok(loaded)
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

    fn record(sequence: u64, start_us: f64) -> RawRecord {
        RawRecord {
            levels: vec![Level::Int(64)].into(),
            replicate: 0,
            sequence,
            start_us,
            value: 1.5,
        }
    }

    fn scratch_session(tag: &str) -> (tempish::Dir, Store, CheckpointSession) {
        let dir = tempish::Dir::new(tag);
        let store = Store::open(dir.path()).unwrap();
        let plan =
            FullFactorial::new().factor(Factor::new("size", vec![64i64])).replicates(4).build();
        let session = store.session(&plan, "t#0", Some(1), 2).unwrap();
        (dir, store, session)
    }

    /// Minimal scratch-dir helper (std only, unique per test name).
    mod tempish {
        use std::path::{Path, PathBuf};

        pub struct Dir(PathBuf);

        impl Dir {
            pub fn new(tag: &str) -> Dir {
                let p = std::env::temp_dir()
                    .join(format!("charm_serve_stream_{tag}_{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&p);
                std::fs::create_dir_all(&p).unwrap();
                Dir(p)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn out_of_order_batches_stream_in_batch_order_with_offsets() {
        let (_dir, _store, session) = scratch_session("reorder");
        let (tx, rx) = channel();
        let sink = StreamSink::new(&session, "j1", tx);
        // Batch 1 finishes first: nothing streams yet.
        sink.save_shard(
            1,
            2,
            &ShardCheckpoint { records: vec![record(2, 5.0), record(3, 9.0)], elapsed_us: 12.0 },
        )
        .unwrap();
        assert_eq!(sink.streamed(), 0);
        // Batch 0 lands: both batches flush, batch 1 shifted by batch
        // 0's elapsed clock.
        sink.save_shard(
            0,
            2,
            &ShardCheckpoint { records: vec![record(0, 1.0), record(1, 3.0)], elapsed_us: 4.5 },
        )
        .unwrap();
        assert_eq!(sink.streamed(), 4);
        let rows: Vec<String> = rx
            .try_iter()
            .map(|e| match e {
                Event::Record { row, .. } => row,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                "64,0,0,1,1.5",
                "64,0,1,3,1.5",
                "64,0,2,9.5,1.5", // 5.0 + 4.5
                "64,0,3,13.5,1.5",
            ]
        );
    }

    #[test]
    fn replayed_segments_stream_like_fresh_ones() {
        let (_dir, _store, session) = scratch_session("replay");
        // First: persist a batch through a throwaway sink.
        {
            let (tx, _rx) = channel();
            let sink = StreamSink::new(&session, "j1", tx);
            sink.save_shard(
                0,
                2,
                &ShardCheckpoint { records: vec![record(0, 1.0)], elapsed_us: 2.0 },
            )
            .unwrap();
        }
        // A later session (same key) replays it via load_shard.
        let (tx, rx) = channel();
        let sink = StreamSink::new(&session, "j2", tx);
        let loaded = sink.load_shard(0, 2).unwrap().expect("segment persisted");
        assert_eq!(loaded.records.len(), 1);
        assert!(sink.load_shard(1, 2).unwrap().is_none(), "missing batch stays missing");
        let rows: Vec<Event> = rx.try_iter().collect();
        assert_eq!(rows, vec![Event::Record { job: "j2".into(), row: "64,0,0,1,1.5".into() }]);
    }

    #[test]
    fn disconnected_client_does_not_fail_the_sink() {
        let (_dir, _store, session) = scratch_session("gone");
        let (tx, rx) = channel();
        let sink = StreamSink::new(&session, "j1", tx);
        drop(rx);
        sink.save_shard(0, 2, &ShardCheckpoint { records: vec![record(0, 1.0)], elapsed_us: 1.0 })
            .unwrap();
        assert_eq!(sink.streamed(), 1, "rows still count; persistence still happened");
    }
}

//! # charm-store
//!
//! The archive stage of the white-box methodology: *raw-data retention
//! with full context* (paper §III). The engine keeps every individual
//! measurement; this crate keeps every campaign — content-addressed,
//! append-only, resumable and diffable — so analyses can be redone
//! offline months later and challenged against the exact bytes that
//! were measured.
//!
//! * [`digest`] — dependency-free SHA-256 with published-vector tests;
//!   the content-addressing and tamper-detection primitive;
//! * [`manifest`] — the `manifest.json` format: plan hash, seed, shard
//!   count, crate versions, CLI args, and a digest for every artifact
//!   in the run directory;
//! * [`store`] — [`Store`]: `open` / `put_run` / `get` / `list` / `gc`,
//!   plus [`CheckpointSession`], the [`CheckpointSink`] the engine's
//!   `Campaign::store` builder hook writes shard segments through and
//!   replays them from;
//! * [`diff`] — [`RunDiff`]: two runs aligned by design cell, with
//!   metadata drift, per-cell count/mean/median shifts, and a
//!   bit-exactness verdict;
//! * [`report`] — [`FleetReport`]: archived runs grouped by (target ×
//!   benchmark × host class), ranked, and compared against each
//!   group's best with paired-bootstrap speedup intervals
//!   (`charm_analysis::speedup`); deterministic markdown/CSV emitters
//!   feed the `store_report` bin and the CI gate.
//!
//! Run IDs derive from `(plan_hash, target, seed, shards)` — the target
//! identity is the platform name plus a digest of its introspected
//! metadata (see [`target_identity`]): archiving the same campaign
//! twice dedupes onto one directory, while non-identical campaigns —
//! including the same plan run against two platforms — can never
//! silently collide; the manifest stores the full quadruple and every
//! operation cross-checks it.
//!
//! Like the obs and trace layers, the store is zero-cost when unused: a
//! campaign that never calls `.store(...)` touches no filesystem path
//! in this crate.
//!
//! [`CheckpointSink`]: charm_engine::CheckpointSink

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod digest;
pub mod manifest;
pub mod report;
pub mod store;

pub use diff::{CellDiff, MetadataDrift, RunDiff};
pub use manifest::{Artifact, MachineFacts, Manifest};
pub use report::{build_report, FleetReport, GroupReport, RankedRun, VsBest};
pub use store::{
    target_identity, CampaignKey, CheckpointSession, GcReport, RunId, RunQuery, Store, StoreError,
    StoredRun,
};

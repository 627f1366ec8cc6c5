//! # charm-engine
//!
//! The *second stage* of the white-box methodology (paper §V): the
//! measurement engine. "The benchmark engine reads each factor
//! combination from its input, conducts the measurement on the target
//! platform, and reports the details of **every individual measurement**
//! in one or multiple output files, along with a lot of meta-data about
//! the measurements and the environment."
//!
//! The engine is deliberately dumb: it does **no aggregation, no
//! filtering, no analysis** — it executes an [`charm_design::ExperimentPlan`]
//! row by row (in the plan's order, which stage 1 randomized) against a
//! [`Target`], records the raw value plus sequence number and virtual
//! timestamp for each row, captures environment metadata, and can
//! round-trip the whole campaign through CSV.
//!
//! * [`target`] — the `Target` abstraction plus adapters for the network
//!   and memory substrates (a real-MPI or real-kernel adapter would slot
//!   in identically);
//! * [`record`] — raw measurement records and campaign CSV I/O;
//! * [`meta`] — environment metadata capture;
//! * [`campaign`] — the [`Campaign`] builder, the one front door for
//!   sequential/sharded, observed/unobserved and profiled/unprofiled
//!   execution (the old `run_campaign`/`run_campaign_parallel` free
//!   functions are gone; the builder is the API);
//! * [`registry`] — resolves declarative target descriptions
//!   (`model = "network" | "memory" | "external"` from benchmark spec
//!   files) into live targets, so the harness knows nothing about
//!   engines (DESIGN.md §15);
//! * [`checkpoint`] — the [`CheckpointSink`] contract a durable campaign
//!   archive (the `charm-store` crate) implements so sharded runs can
//!   flush finished shards and resume interrupted campaigns;
//! * [`cancel`] — the cooperative [`CancelToken`] long-running services
//!   use to stop a campaign at the next row/batch boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cancel;
pub mod checkpoint;
pub mod meta;
pub mod record;
pub mod registry;
pub mod replicate;
pub mod target;

pub use campaign::{
    batch_bounds, batch_count, effective_workers, Campaign, CampaignRun, ShardedCampaign,
    DEFAULT_MIN_ROWS_PER_SHARD,
};
pub use cancel::CancelToken;
pub use checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
pub use record::{Campaign as CampaignData, RawRecord};
pub use registry::{ExternalEngineSpec, ResolvedTarget, TargetSpec};
pub use target::{Measurement, ParallelTarget, Target, TargetError};

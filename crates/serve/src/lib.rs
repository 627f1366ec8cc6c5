//! `charm_serve` — a multi-tenant campaign service over the charm
//! engine and store.
//!
//! The crate turns the batch pipeline (`plan → engine → store`) into a
//! long-running daemon: clients connect over TCP, speak the
//! line-oriented [`protocol`] (`charm-serve/1`), and submit campaign
//! plans — the experiment-design DSL or `charm-spec/1` TOML — that a
//! fixed worker pool executes on the work-stealing sharded engine while
//! records stream back incrementally.
//!
//! Three properties carry the design (DESIGN.md §17):
//!
//! * **Dedupe is free and honest.** Submissions are content-addressed
//!   exactly like `run_campaign` runs, so an identical resubmission
//!   streams the archived records byte-for-byte with zero engine work.
//! * **Interruption is cheap.** Every job writes checkpoint segments
//!   through the shared store; a daemon crash (or cooperative cancel)
//!   loses at most the in-flight batches, and the same submission later
//!   resumes from the segments and archives the identical result.
//! * **Tenants can't starve each other.** Admission is a bounded queue
//!   plus per-tenant concurrency and row-volume quotas, with typed
//!   rejections (`queue_full`, `quota_jobs`, `quota_rows`) the client
//!   can back off on.
//!
//! The binaries: `charm_serve_d` is the daemon, `serve_load` the
//! load generator that proves the concurrency story (hundreds of
//! submissions, dedupe hits, quota rejections, clean cancellation).

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
mod server;
mod stream;
mod submit;

pub use client::{Client, Drained};
pub use metrics::Metrics;
pub use server::{Server, ServerConfig};

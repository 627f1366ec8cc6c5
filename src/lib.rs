//! # charm
//!
//! Facade crate of the **charm** workspace — a reproduction of
//! *"Characterizing the Performance of Modern Architectures Through
//! Opaque Benchmarks: Pitfalls Learned the Hard Way"* (Stanisic et al.,
//! IPDPS 2017 RepPar).
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`analysis`] — offline statistics (stage 3 of the methodology);
//! * [`design`] — experiment design (stage 1);
//! * [`engine`] — the raw-retention measurement engine (stage 2);
//! * [`simnet`] / [`simmem`] — the simulated substrates standing in for
//!   the paper's clusters and CPUs;
//! * [`opaque`] — the opaque benchmark reimplementations under study;
//! * [`obs`] — observability: counters, event traces, provenance reports;
//! * [`trace`] — engine self-profiling: wall-clock spans and the
//!   dual-clock Chrome/Perfetto exporter;
//! * [`store`] — the content-addressed campaign archive: manifests with
//!   per-artifact digests, checkpoint/resume for sharded campaigns, and
//!   cross-run diffing;
//! * [`core`] — the methodology pipeline, model instantiation,
//!   convolution prediction, pitfall detectors, and per-figure
//!   experiment drivers.
//!
//! Start with `examples/quickstart.rs`.

#![forbid(unsafe_code)]

pub use charm_analysis as analysis;
pub use charm_core as core;
pub use charm_design as design;
pub use charm_engine as engine;
pub use charm_obs as obs;
pub use charm_opaque as opaque;
pub use charm_simmem as simmem;
pub use charm_simnet as simnet;
pub use charm_store as store;
pub use charm_trace as trace;

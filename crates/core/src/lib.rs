//! # charm-core
//!
//! The paper's contribution as a library: a **white-box, three-stage
//! benchmarking methodology** for instantiating network and memory
//! performance models, plus the pitfall detectors that motivate it and
//! the PMaC-style convolution predictor that consumes the models.
//!
//! * [`pipeline`] — the three-stage API (design → engine → analysis) with
//!   per-cell summaries over retained raw data;
//! * [`models`] — model instantiation: piecewise LogGP network models
//!   (supervised breakpoints, paper §V-A) and per-cache-level memory
//!   bandwidth models;
//! * [`convolution`] — the Figure 1 scheme: convolve an application
//!   signature with a machine signature to predict run time;
//! * [`pitfalls`] — detectors for the §III/§IV pitfalls on raw campaigns:
//!   temporal anomalies (sequence-order changepoints), per-cell
//!   multimodality, grid-induced size bias, aggregation loss;
//! * [`experiments`] — one driver per paper figure/table, producing the
//!   rows the bench binaries print;
//! * [`error`] — [`CharmError`], the workspace-level error every stage
//!   error converts into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convolution;
pub mod error;
pub mod experiments;
pub mod models;
pub mod pipeline;
pub mod pitfalls;
pub mod replay;
pub mod report;
pub mod screening;
pub mod spec;
pub mod variability;

pub use error::CharmError;

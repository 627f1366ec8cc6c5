//! # charm-analysis
//!
//! Statistical toolkit for the *third stage* of the white-box benchmarking
//! methodology of Stanisic et al. (IPDPS 2017 RepPar): offline analysis of
//! raw benchmark measurements.
//!
//! The paper's central claim is that measurement, experiment design and
//! analysis must be **separated**, and that analysis must run on the *raw*
//! retained observations rather than on-the-fly aggregates. This crate
//! therefore provides everything the paper's R scripts used, as plain Rust:
//!
//! * [`descriptive`] — means, variances, quantiles, MAD, summaries;
//! * [`ecdf`] — empirical distribution functions;
//! * [`regression`] — ordinary and weighted least squares;
//! * [`piecewise`] — piecewise-linear models with analyst-provided
//!   breakpoints (the supervised procedure of paper §V-A);
//! * [`segmented`] — *free* optimal segmentation, used to show that a
//!   preconceived number of breakpoints can hide real protocol changes
//!   (paper §III-3, Figure 3);
//! * [`loess`] — local regression smoothing (the trend lines of Figure 8);
//! * [`outliers`] — Tukey / MAD / z-score rules;
//! * [`modes`] — 1-D bimodality detection (the two scheduler modes of
//!   Figure 11 that plain mean/variance reporting hides);
//! * [`anova`] — one-way ANOVA for factor screening;
//! * [`changepoint`] — both the *online* least-squares detector that
//!   NetGauge-style tools embed, and offline binary segmentation;
//! * [`prefix`] — prefix-sum incremental least squares: O(1) stretch SSE
//!   queries that turn the free segmentation search from O(n³) to O(n²);
//! * [`speedup`] — Touati-style paired speedup tests: bootstrap
//!   confidence intervals on benefit ratios of medians with
//!   `faster`/`slower`/`indistinguishable` verdicts (the statistics
//!   behind `store_report` and the CI perf gate).
//!
//! All routines are deterministic; anything stochastic takes an explicit
//! seed. Nothing here performs I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anova;
pub mod changepoint;
pub mod descriptive;
pub mod ecdf;
pub mod error;
pub mod loess;
pub mod modes;
pub mod outliers;
pub mod piecewise;
pub mod prefix;
pub mod regression;
pub mod segmented;
pub mod speedup;

pub use error::AnalysisError;

/// Convenience result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, AnalysisError>;

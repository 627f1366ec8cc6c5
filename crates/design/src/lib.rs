//! # charm-design
//!
//! The *first stage* of the white-box benchmarking methodology (paper §V):
//! experimental design. This crate knows nothing about networks or caches —
//! it deals with **factors**, their levels, full-factorial combination,
//! replication, and crucially the **randomization** of both level choices
//! and measurement order, which the paper identifies as "an essential
//! ingredient" ("This guarantees that the presence of temporal anomalies in
//! the setup remains independent of the factors' values").
//!
//! * [`factors`] — typed factors and levels;
//! * [`plan`] — experiment plans (ordered lists of factor combinations with
//!   replicate indices), the artifact handed to the measurement engine,
//!   and their CSV rendering, which the campaign archive hashes;
//! * [`doe`] — full-factorial construction and replication, the only way
//!   to build a plan, and the [`doe::Design`] both plan front ends lower
//!   into;
//! * [`dsl`] — the experiment-description language that compiles to a
//!   plan;
//! * [`sampling`] — message-size distributions: the paper's log-uniform
//!   `10^X, X ~ U(log10 a, log10 b)` (Eq. 1) and the *biased* ladders
//!   (powers of two, linear increments) that opaque tools use;
//! * [`diagram`] — the cause-and-effect (Ishikawa) factor diagram of
//!   Figure 13, as a data structure with an ASCII renderer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
pub mod doe;
pub mod dsl;
pub mod factors;
pub mod plan;
pub mod sampling;

pub use factors::{Factor, Level, Levels};
pub use plan::{ExperimentPlan, PlanRow};

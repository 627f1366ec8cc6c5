//! # charm-simmem
//!
//! A seedable memory-hierarchy substrate standing in for the four CPUs of
//! the paper's Figure 5 (Opteron, Pentium 4, Core i7-2600, ARM Snowball),
//! per the reproduction's substitution rule. Every phenomenon of paper §IV
//! is reproduced *mechanistically*, not scripted:
//!
//! * cache-capacity plateaus and stride effects (Figure 7) fall out of a
//!   set-associative cache model with per-level latencies;
//! * vectorization / loop-unrolling effects and the missing-L1-drop
//!   phenomenon (Figure 9) fall out of an issue-width compiler model —
//!   when the core cannot issue accesses fast enough, the miss penalty
//!   hides behind the issue cost and the L1 boundary becomes invisible;
//! * DVFS multimodality (Figure 10) falls out of an `ondemand` governor
//!   state machine sampling a free-running tick in virtual time;
//! * real-time-scheduler bimodality (Figure 11) falls out of an intruder
//!   process model that shares the core only under the RT policy;
//! * the ARM paging anomaly (Figure 12) falls out of physical page
//!   colouring versus a 4-way-associative virtually-indexed L1.
//!
//! Modules:
//!
//! * [`cache`] — a genuine set-associative LRU cache simulator (reference
//!   model, used in tests to validate the fast path);
//! * [`layout`] — analytic steady-state hit/miss computation for cyclic
//!   kernels (the fast path the benchmarks use);
//! * [`memo`] — bounded memoization of service profiles (placement is a
//!   pure function of the measurement index, so replicates skip pattern
//!   resolution entirely; bit-identity is property-tested);
//! * [`paging`] — virtual→physical page allocators;
//! * [`dvfs`] — frequency governors;
//! * [`sched`] — scheduler policies and the intruder process;
//! * [`compiler`] — element width / unrolling → issue-cost model;
//! * [`kernel`] — the Figure 6 access kernel over all of the above;
//! * [`machine`] — CPU presets (Figure 5) and the combined machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compiler;
pub mod dvfs;
pub mod kernel;
pub mod layout;
pub mod machine;
pub mod memo;
pub mod paging;
pub mod parallel;
pub mod sched;
mod stream;
pub mod stream_kernels;
pub mod validate;

pub use compiler::{CodegenConfig, ElementWidth};
pub use kernel::{KernelConfig, KernelResult};
pub use machine::{CacheLevelSpec, CpuSpec, MachineSim};
pub use paging::AllocPolicy;

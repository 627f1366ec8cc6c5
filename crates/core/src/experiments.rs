//! Experiment drivers: one module per table/figure of the paper's
//! evaluation, each producing plain data that `charm-bench`'s
//! `all_figures` renders as CSV and ASCII plots. [`catalog`] is the one
//! list of them, and of the five ablations (the private `ablations`
//! module): `all_figures [ENTRY …]` runs its entries.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig03`] | Figure 3 — time vs size on two interconnects, the reported 32 K break and the hidden 16 K break |
//! | [`fig04`] | Figure 4 — Taurus send/recv overhead + latency/bandwidth with randomized log-uniform sizes |
//! | [`table05`] | Figure 5 — the CPU characteristics table |
//! | [`fig07`] | Figure 7 — MultiMAPS plateaus and stride effect on the Opteron |
//! | [`fig08`] | Figure 8 — the noisy replication attempt on the Pentium 4 |
//! | [`fig09`] | Figure 9 — vectorization × unrolling on the i7-2600 |
//! | [`fig10`] | Figure 10 — DVFS ondemand nloops facets |
//! | [`fig11`] | Figure 11 — real-time scheduler bimodality on the ARM |
//! | [`fig12`] | Figure 12 — the ARM paging anomaly across four runs |
//! | [`fig13`] | Figure 13 — the cause-and-effect factor diagram |
//! | [`convolution`] | Figure 1's use-case — prediction error of opaque- vs white-box-instantiated models |
//! | [`pchase`] | §II-C extension — PChase-style multi-core memory interference |
//!
//! [`fig04`], [`fig07`] and [`pchase`] have no design in Rust: each
//! embeds its committed `benchmarks/*.toml` spec as `SPEC` and resolves
//! it (or a replacement text) through [`crate::spec`].

mod ablations;
pub mod catalog;
pub mod convolution;
pub mod fig03;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod pchase;
pub mod plot;
pub mod table05;

use crate::error::CharmError;
use crate::spec::{BenchmarkSpec, ResolvedBenchmark, SpecError};
use charm_engine::registry::{self, ResolvedTarget};
use charm_engine::target::MemoryTarget;

fn spec_error(message: std::fmt::Arguments<'_>) -> CharmError {
    CharmError::Spec(SpecError { message: message.to_string() })
}

/// Parses and resolves a spec text at `seed` with `params` overrides.
fn resolve(
    text: &str,
    seed: u64,
    params: &[(String, String)],
) -> Result<ResolvedBenchmark, CharmError> {
    Ok(BenchmarkSpec::parse(text)?.resolve(seed, params)?)
}

/// Resolves the spec's target, which experiment `id` needs to be a
/// memory machine.
fn memory_target(r: &ResolvedBenchmark, seed: u64, id: &str) -> Result<MemoryTarget, CharmError> {
    match registry::resolve(&r.target, seed)? {
        ResolvedTarget::Memory(t) => Ok(*t),
        other => Err(spec_error(format_args!("{id} needs a memory target, spec gave {other:?}"))),
    }
}

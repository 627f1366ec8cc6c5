//! `charm-perf`: charm's end-to-end and per-layer benchmark.
//!
//! Four workloads, each stressing different layers and bypassing
//! others (see [`metrics::WORKLOADS`]): `mem-sweep`, `net-archive`,
//! `serve-mix` and `reproduce`. A run sets up three times (reporting the
//! median as `setup_s`), then times ops of its workload for a fixed
//! length, then checks the outputs. An untraced run reports the
//! end-to-end metrics; a traced run alternates traced and untraced ops
//! and reports the per-layer metrics, from spans the benchmark records
//! around its calls into charm's public functions and from layer probes.
//!
//! Everything the program measures goes through the crates' public
//! APIs; the benchmark adds no instrumentation inside them.

pub mod metrics;
pub mod output;
pub mod stats;

mod calib;
mod campaign;
mod harness;
mod plans;
mod probes;
mod reproduce;
mod serve;
mod spans;
mod sys;
mod timed;

pub use harness::{Config, Expected, Report, Sizes, DEFAULT_SEED};

/// Runs workload `name` in this process.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "mem-sweep" => campaign::run(cfg, campaign::Kind::Mem),
        "net-archive" => campaign::run(cfg, campaign::Kind::Net),
        "serve-mix" => serve::run(cfg),
        "reproduce" => reproduce::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

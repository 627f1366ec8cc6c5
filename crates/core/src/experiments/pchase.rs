//! Extension experiment (paper §II-C context): PChase-style multi-core
//! memory interference on the i7-2600 — the multi-threaded study the
//! paper postponed ("we restrict our investigation … for a
//! single-threaded program").
//!
//! Cache-resident work scales with cores; DRAM-bound work saturates at
//! the memory system's channel count. Each `workload` factor level of
//! the spec has a `[tool.workloads.<name>]` table with its buffer size
//! and loop count, and each runs on a fresh registry-resolved machine.

use crate::error::CharmError;
use crate::spec::ResolvedBenchmark;
use charm_opaque::pchase::{self, PchaseConfig, PchaseRow};

/// The experiment's design, `benchmarks/pchase.toml`: an L1-resident and
/// a DRAM-bound workload, 1 to 8 threads.
pub const SPEC: &str = include_str!("../../../../benchmarks/pchase.toml");

/// One workload's thread sweep.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The `workload` factor level.
    pub label: String,
    /// Aggregate bandwidth per thread count, ascending.
    pub rows: Vec<PchaseRow>,
}

/// The interference dataset, one sweep per workload in declaration order.
#[derive(Debug, Clone)]
pub struct Pchase {
    /// The sweeps.
    pub workloads: Vec<Workload>,
}

/// Resolves a PChase spec (normally [`SPEC`]) at `seed` with `params`
/// overrides and sweeps each workload up to the largest `threads` level,
/// each on a fresh machine (same seed, same policies).
pub fn from_spec(text: &str, seed: u64, params: &[(String, String)]) -> Result<Pchase, CharmError> {
    let r = super::resolve(text, seed, params)?;
    let max_threads = r.int_levels("threads")?.into_iter().max().unwrap_or(1) as u32;
    let mut workloads = Vec::new();
    for label in r.text_levels("workload")? {
        let wl = r.tool.table("workloads").and_then(|t| t.table(&label)).ok_or_else(|| {
            super::spec_error(format_args!(
                "spec lacks [tool.workloads.{label}] for workload level {label:?}"
            ))
        })?;
        let config = PchaseConfig {
            buffer_bytes: ResolvedBenchmark::u64_value(wl, "buffer_bytes")?,
            max_threads,
            nloops: ResolvedBenchmark::u64_value(wl, "nloops")?,
            repetitions: r.replicates,
        };
        let mut target = super::memory_target(&r, seed, "pchase")?;
        let rows = pchase::run(target.machine_mut(), &config);
        workloads.push(Workload { label, rows });
    }
    Ok(Pchase { workloads })
}

impl Pchase {
    /// CSV rows: `workload,threads,mean_mbps,sd_mbps`.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .workloads
            .iter()
            .flat_map(|w| w.rows.iter().map(move |r| (&w.label, r)))
            .map(|(label, r)| {
                let (mean, sd) = (r.cell.mean, r.cell.std_dev);
                vec![label.clone(), r.threads.to_string(), mean.to_string(), sd.to_string()]
            })
            .collect();
        super::plot::csv(&["workload", "threads", "mean_mbps", "sd_mbps"], &rows)
    }

    /// Terminal report: bandwidth per thread count and the scaling
    /// efficiency of each workload.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "PChase-style interference sweep on the i7-2600 (aggregate MB/s by thread count)\n\n",
        );
        for w in &self.workloads {
            out.push_str(&format!("[{}]\n", w.label));
            for r in &w.rows {
                out.push_str(&format!(
                    "  {} threads: {:>9.0} ± {:>6.0} MB/s\n",
                    r.threads, r.cell.mean, r.cell.std_dev
                ));
            }
            out.push_str(&format!(
                "  scaling efficiency at 8 threads: {:.2}\n\n",
                pchase::scaling_efficiency(&w.rows)
            ));
        }
        out.push_str(
            "cache-resident work scales with cores; DRAM-bound work saturates at the channel count\n\
             — the interference PChase was built to capture\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_workload_without_its_tool_table_is_a_spec_error() {
        let text = SPEC.replace("[tool.workloads.dram_bound_8MiB]", "[tool.other]");
        let err = from_spec(&text, 1, &[]).unwrap_err();
        assert!(matches!(&err, CharmError::Spec(e) if e.message.contains("dram_bound_8MiB")));
    }
}

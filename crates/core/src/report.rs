//! Cluster characterization reports — the paper's stated future work.
//!
//! Conclusion of the paper: "In a near future we plan to work on
//! automating and combining various tools we have built to instantiate
//! HPC network models while keeping the same white box and randomization
//! methodology. One of the challenges will be related to the production
//! of a coherent and easily understandable report over a complex set of
//! measurements, and allowing to reliably characterize a whole cluster."
//!
//! [`ClusterReport`] is that combination: given white-box campaigns for
//! the network and the memory side of a platform, it instantiates the
//! models, runs every pitfall detector, screens the factors, and renders
//! one self-contained Markdown document.

use crate::models::{MemoryModel, NetworkModel, PLogPModel};
use crate::pitfalls;
use crate::screening;
use crate::variability::VariabilityProfile;
use charm_analysis::AnalysisError;
use charm_engine::record::Campaign;

/// Everything needed to characterize one platform.
#[derive(Debug, Clone)]
pub struct ClusterReportInput<'a> {
    /// Human-readable platform name.
    pub platform: &'a str,
    /// The network campaign (factors `op`, `size`).
    pub network: &'a Campaign,
    /// Analyst-provided network breakpoints (bytes).
    pub network_breakpoints: &'a [u64],
    /// The memory campaign (factor `size_bytes`), if measured.
    pub memory: Option<&'a Campaign>,
    /// Cache capacities for the memory model (bytes, ascending).
    pub cache_capacities: &'a [u64],
}

/// The assembled characterization.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Platform name.
    pub platform: String,
    /// Piecewise LogGP model.
    pub network_model: NetworkModel,
    /// PLogP functional model (model-agnostic raw data allows both).
    pub plogp_model: PLogPModel,
    /// Memory plateaus, when a memory campaign was supplied.
    pub memory_model: Option<MemoryModel>,
    /// Network variability profile along size.
    pub variability: VariabilityProfile,
    /// Temporal anomalies found in the network campaign.
    pub temporal: Vec<pitfalls::TemporalAnomaly>,
    /// Bimodal cells found in the network campaign.
    pub bimodal: Vec<pitfalls::BimodalCell>,
    /// Factor screening of the network campaign.
    pub factor_effects: Vec<screening::FactorEffect>,
}

/// Builds a report from the inputs.
pub fn characterize(input: &ClusterReportInput<'_>) -> Result<ClusterReport, AnalysisError> {
    let network_model = NetworkModel::fit(input.network, input.network_breakpoints)?;
    let plogp_model = PLogPModel::fit(input.network)?;
    let memory_model = match input.memory {
        Some(c) => Some(MemoryModel::fit(c, input.cache_capacities)?),
        None => None,
    };
    let variability = VariabilityProfile::build(
        &input.network.filtered("op", |l| l.as_text() == Some("ping_pong")),
        "size",
    )?;
    let temporal = pitfalls::temporal_anomalies(input.network, &["op", "size"], 1.0);
    let bimodal = pitfalls::bimodal_cells(input.network, &["op", "size"]);
    let factor_effects = screening::screen_factors(input.network);
    Ok(ClusterReport {
        platform: input.platform.to_string(),
        network_model,
        plogp_model,
        memory_model,
        variability,
        temporal,
        bimodal,
        factor_effects,
    })
}

impl ClusterReport {
    /// Health verdict: a campaign with temporal anomalies or heavy
    /// bimodality should not be used to instantiate simulation models.
    pub fn is_calibration_grade(&self) -> bool {
        self.temporal.is_empty()
            && self.bimodal.is_empty()
            && self.network_model.max_rel_rmse() < 0.35
    }

    /// Renders the report as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut md = format!("# Platform characterization — {}\n\n", self.platform);

        md.push_str("## Network model (piecewise LogGP)\n\n");
        md.push_str("| regime | sizes (B) | latency (µs) | bandwidth (MB/s) | o_s(0) (µs) | o_r(0) (µs) | RTT R² |\n");
        md.push_str("|---|---|---|---|---|---|---|\n");
        for (i, seg) in self.network_model.segments.iter().enumerate() {
            md.push_str(&format!(
                "| {} | {}–{} | {:.2} | {:.0} | {:.2} | {:.2} | {:.4} |\n",
                i,
                seg.from,
                seg.to,
                seg.latency_us,
                seg.bandwidth_mbps(),
                seg.send_overhead.0,
                seg.recv_overhead.0,
                seg.rtt_r_squared
            ));
        }
        md.push_str(&format!(
            "\nPLogP view: L = {:.2} µs, function tables with {} knots.\n",
            self.plogp_model.latency_us,
            self.plogp_model.g.knots().len()
        ));

        if let Some(mem) = &self.memory_model {
            md.push_str("\n## Memory signature\n\n| level | capacity (KiB) | bandwidth (MB/s) |\n|---|---|---|\n");
            for (i, p) in mem.plateaus.iter().enumerate() {
                md.push_str(&format!(
                    "| L{} | {} | {:.0} |\n",
                    i + 1,
                    p.capacity_bytes / 1024,
                    p.bandwidth_mbps
                ));
            }
            md.push_str(&format!("| DRAM | — | {:.0} |\n", mem.dram_bandwidth_mbps));
        }

        md.push_str("\n## Variability (ping-pong)\n\n");
        md.push_str(&format!(
            "mean relative 5–95 % band: {:.3}; volatile sizes (band > 0.5): {}\n",
            self.variability.mean_relative_band(),
            self.variability.volatile_cells(0.5).len()
        ));

        md.push_str("\n## Pitfall scan\n\n");
        if self.temporal.is_empty() {
            md.push_str("- no temporal anomalies detected\n");
        }
        for t in &self.temporal {
            md.push_str(&format!(
                "- **temporal anomaly**: measurements {}–{} at {:.2}× the campaign level\n",
                t.from_seq, t.to_seq, t.level_ratio
            ));
        }
        if self.bimodal.is_empty() {
            md.push_str("- no bimodal cells detected\n");
        }
        for b in &self.bimodal {
            md.push_str(&format!(
                "- **bimodal cell** {}: modes {:.1}/{:.1}, slow share {:.0}%\n",
                b.key,
                b.split.low_center,
                b.split.high_center,
                100.0 * b.split.low_fraction
            ));
        }

        md.push_str("\n## Factor screening\n\n| factor | η² | F |\n|---|---|---|\n");
        for e in &self.factor_effects {
            md.push_str(&format!(
                "| {} | {:.3} | {:.1} |\n",
                e.factor, e.anova.eta_squared, e.anova.f_statistic
            ));
        }

        md.push_str(&format!(
            "\n## Verdict\n\ncalibration-grade: **{}**\n",
            if self.is_calibration_grade() {
                "yes"
            } else {
                "no — investigate before instantiating models"
            }
        ));
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Study;
    use charm_design::doe::FullFactorial;
    use charm_design::{sampling, Factor};
    use charm_engine::target::NetworkTarget;
    use charm_simnet::noise::{BurstConfig, NoiseModel};
    use charm_simnet::presets;

    fn network_campaign(seed: u64, bursty: bool) -> Campaign {
        let sizes: Vec<i64> = sampling::log_uniform_sizes(8, 1 << 21, 60, seed)
            .into_iter()
            .map(|s| s as i64)
            .collect();
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
            .factor(Factor::new("size", sizes))
            .replicates(8)
            .build();
        let mut sim = presets::taurus_openmpi_tcp(seed);
        if bursty {
            sim.set_noise(NoiseModel::new(
                seed,
                0.02,
                BurstConfig { enter_prob: 0.004, exit_prob: 0.012, slowdown: 6.0, extra_us: 200.0 },
            ));
        }
        let mut target = NetworkTarget::new("taurus", sim);
        Study::new(plan).randomized(seed).run(&mut target).unwrap()
    }

    #[test]
    fn quiet_platform_is_calibration_grade() {
        let net = network_campaign(1, false);
        let report = characterize(&ClusterReportInput {
            platform: "taurus",
            network: &net,
            network_breakpoints: &[32 * 1024, 128 * 1024],
            memory: None,
            cache_capacities: &[],
        })
        .unwrap();
        assert!(
            report.is_calibration_grade(),
            "temporal: {:?}, bimodal: {}, rel_rmse: {}",
            report.temporal,
            report.bimodal.len(),
            report.network_model.max_rel_rmse()
        );
        let md = report.to_markdown();
        assert!(md.contains("# Platform characterization — taurus"));
        assert!(md.contains("calibration-grade: **yes**"));
        assert!(md.contains("| 0 |"));
    }

    #[test]
    fn bursty_platform_fails_the_verdict() {
        let net = network_campaign(2, true);
        let report = characterize(&ClusterReportInput {
            platform: "taurus-bursty",
            network: &net,
            network_breakpoints: &[32 * 1024, 128 * 1024],
            memory: None,
            cache_capacities: &[],
        })
        .unwrap();
        assert!(!report.is_calibration_grade(), "burst should fail the verdict");
        assert!(report.to_markdown().contains("investigate"));
    }

    #[test]
    fn report_includes_memory_when_supplied() {
        use charm_engine::target::MemoryTarget;
        use charm_simmem::dvfs::GovernorPolicy;
        use charm_simmem::machine::{CpuSpec, MachineSim};
        use charm_simmem::paging::AllocPolicy;
        use charm_simmem::sched::SchedPolicy;

        let net = network_campaign(3, false);
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![16 * 1024i64, 48 * 1024, 512 * 1024, 4 << 20]))
            .factor(Factor::new("nloops", vec![500i64]))
            .replicates(4)
            .build();
        let mut target = MemoryTarget::new(
            "opteron",
            MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::PooledRandomOffset,
                3,
            ),
        );
        let mem = Study::new(plan).randomized(3).run(&mut target).unwrap();
        let report = characterize(&ClusterReportInput {
            platform: "opteron-cluster",
            network: &net,
            network_breakpoints: &[32 * 1024, 128 * 1024],
            memory: Some(&mem),
            cache_capacities: &[64 * 1024, 1024 * 1024],
        })
        .unwrap();
        let md = report.to_markdown();
        assert!(md.contains("## Memory signature"));
        assert!(md.contains("| DRAM |"));
    }

    #[test]
    fn factor_screening_ranks_size_first() {
        let net = network_campaign(4, false);
        let report = characterize(&ClusterReportInput {
            platform: "x",
            network: &net,
            network_breakpoints: &[32 * 1024],
            memory: None,
            cache_capacities: &[],
        })
        .unwrap();
        assert_eq!(report.factor_effects[0].factor, "size");
    }
}

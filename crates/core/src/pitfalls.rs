//! Pitfall detectors over retained raw campaigns.
//!
//! Each detector corresponds to one of the paper's pitfalls and only
//! works because the campaign kept *raw* records with sequence numbers —
//! run any of these on an opaque tool's aggregated output and there is
//! nothing to detect, which is the paper's thesis.

use charm_analysis::changepoint::binary_segmentation;
use charm_analysis::descriptive;
use charm_analysis::modes;
use charm_engine::record::Campaign;
use charm_simnet::{NetOp, NetworkSim};

/// A temporal anomaly: a contiguous window of measurements (in sequence
/// order) whose level differs from the rest of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalAnomaly {
    /// First sequence index of the window.
    pub from_seq: u64,
    /// One past the last sequence index.
    pub to_seq: u64,
    /// Ratio of the window's median (normalized) level to the campaign's.
    pub level_ratio: f64,
}

/// Detects temporal anomalies (§III-1, §IV-3 / Figure 11 right plot).
///
/// Values are first normalized by their factor-cell median — valid
/// because the design randomized the order, so cells are spread uniformly
/// over time and a *temporal* window shows up in the normalized sequence
/// regardless of which sizes it hit. Changepoints in the normalized
/// sequence are then found by binary segmentation.
///
/// `sensitivity` scales the changepoint penalty: ~1.0 is a good default;
/// smaller is more sensitive.
pub fn temporal_anomalies(
    campaign: &Campaign,
    cell_factors: &[&str],
    sensitivity: f64,
) -> Vec<TemporalAnomaly> {
    let n = campaign.records.len();
    if n < 20 {
        return Vec::new();
    }
    // normalize each record by its cell median
    let groups = campaign.group_by(cell_factors);
    let cell_median: Vec<f64> = {
        // map each record to its cell median, in record order
        let mut medians_per_group: Vec<f64> = Vec::with_capacity(groups.len());
        for (_, values) in &groups {
            medians_per_group.push(descriptive::median(values).unwrap_or(1.0));
        }
        // reconstruct per-record medians by re-grouping in the same order
        let idxs: Vec<usize> =
            cell_factors.iter().filter_map(|f| campaign.factor_index(f)).collect();
        campaign
            .records
            .iter()
            .map(|rec| {
                let key: Vec<_> = idxs.iter().map(|&i| rec.levels[i].clone()).collect();
                let pos = groups.iter().position(|(k, _)| *k == key).unwrap_or(0);
                medians_per_group[pos]
            })
            .collect()
    };
    let mut normalized: Vec<(u64, f64)> = campaign
        .records
        .iter()
        .zip(&cell_median)
        .map(|(r, &m)| (r.sequence, if m != 0.0 { r.value / m } else { r.value }))
        .collect();
    normalized.sort_by_key(|&(seq, _)| seq);
    let series: Vec<f64> = normalized.iter().map(|&(_, v)| v).collect();

    // spread-scaled penalty
    let mad = descriptive::mad(&series).unwrap_or(0.1).max(1e-6);
    let penalty = sensitivity * 25.0 * mad * mad * (series.len() as f64).ln();
    let splits = binary_segmentation(&series, 5, penalty).unwrap_or_default();
    if splits.is_empty() {
        return Vec::new();
    }

    // segments between splits; anomalous = level ratio far from 1
    let mut edges = vec![0usize];
    edges.extend(&splits);
    edges.push(series.len());
    let overall_median = descriptive::median(&series).unwrap_or(1.0);
    let mut out = Vec::new();
    for w in edges.windows(2) {
        let seg = &series[w[0]..w[1]];
        let med = descriptive::median(seg).unwrap_or(overall_median);
        let ratio = if overall_median != 0.0 { med / overall_median } else { 1.0 };
        if !(0.8..=1.25).contains(&ratio) {
            out.push(TemporalAnomaly {
                from_seq: normalized[w[0]].0,
                to_seq: normalized[w[1] - 1].0 + 1,
                level_ratio: ratio,
            });
        }
    }
    out
}

/// Per-cell bimodality report (§IV-3 / Figure 11 left plot).
#[derive(Debug, Clone)]
pub struct BimodalCell {
    /// Rendered cell key.
    pub key: String,
    /// The mode split.
    pub split: modes::ModeSplit,
}

/// Finds cells whose raw samples split into two well-separated modes —
/// the structure that mean ± sd reporting "completely hides".
pub fn bimodal_cells(campaign: &Campaign, cell_factors: &[&str]) -> Vec<BimodalCell> {
    campaign
        .group_by(cell_factors)
        .into_iter()
        .filter_map(|(key, values)| {
            let split = modes::two_means(&values).ok()?;
            if split.is_bimodal(2.0, 0.05) {
                let key = key.iter().map(|l| l.to_string()).collect::<Vec<_>>().join("/");
                Some(BimodalCell { key, split })
            } else {
                None
            }
        })
        .collect()
}

/// Result of probing one grid size against its off-grid neighbours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeBiasProbe {
    /// The grid size probed.
    pub size: u64,
    /// Median time at the grid size (µs).
    pub on_grid_us: f64,
    /// Median time at `size − 1` and `size + 1` averaged (µs).
    pub neighbours_us: f64,
}

impl SizeBiasProbe {
    /// Relative deviation of the grid point from its neighbourhood.
    pub fn deviation(&self) -> f64 {
        if self.neighbours_us == 0.0 {
            0.0
        } else {
            (self.on_grid_us - self.neighbours_us) / self.neighbours_us
        }
    }
}

/// Probes a size grid for special-cased values (§III-2: "some values,
/// such as 1024 … may have special behavior"): measures each grid size
/// and its ±1 neighbours and reports grid points that deviate by more
/// than `threshold` relative.
pub fn probe_size_bias(
    sim: &mut NetworkSim,
    grid: &[u64],
    repetitions: u32,
    threshold: f64,
) -> Vec<SizeBiasProbe> {
    let median_of = |sim: &mut NetworkSim, size: u64, reps: u32| -> f64 {
        let mut v: Vec<f64> = (0..reps).map(|_| sim.measure(NetOp::PingPong, size)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let mut out = Vec::new();
    for &size in grid {
        if size < 2 {
            continue;
        }
        let on = median_of(sim, size, repetitions);
        let below = median_of(sim, size - 1, repetitions);
        let above = median_of(sim, size + 1, repetitions);
        let probe = SizeBiasProbe { size, on_grid_us: on, neighbours_us: (below + above) / 2.0 };
        if probe.deviation().abs() > threshold {
            out.push(probe);
        }
    }
    out
}

/// Quantifies aggregation loss for one cell: how far the mean sits from
/// *either* mode of a bimodal sample. Large values mean the mean
/// describes no actual behaviour of the system (the Figure 11 lesson).
pub fn aggregation_loss(values: &[f64]) -> Option<f64> {
    let split = modes::two_means(values).ok()?;
    if !split.is_bimodal(2.0, 0.05) {
        return Some(0.0);
    }
    let mean = descriptive::mean(values).ok()?;
    let d_low = (mean - split.low_center).abs();
    let d_high = (mean - split.high_center).abs();
    let spread = (split.high_center - split.low_center).abs().max(f64::MIN_POSITIVE);
    Some(d_low.min(d_high) / spread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_engine::target::{MemoryTarget, NetworkTarget};
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::{CpuSpec, MachineSim};
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;
    use charm_simnet::noise::{BurstConfig, NoiseModel};
    use charm_simnet::presets;

    fn arm_rt_campaign(seed: u64) -> Campaign {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![4096i64, 8192, 12288, 16384]))
            .factor(Factor::new("nloops", vec![20i64]))
            .replicates(60)
            .build();
        plan.shuffle(seed);
        let mut target = MemoryTarget::new(
            "arm-rt",
            MachineSim::new(
                CpuSpec::arm_snowball(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedRealtime,
                AllocPolicy::PooledRandomOffset,
                seed,
            ),
        );
        charm_engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data
    }

    #[test]
    fn detects_figure11_temporal_window() {
        let campaign = arm_rt_campaign(12);
        let anomalies = temporal_anomalies(&campaign, &["size_bytes"], 1.0);
        assert!(!anomalies.is_empty(), "intruder window should be detected");
        // the anomalous windows sit ~5x off
        assert!(anomalies.iter().any(|a| a.level_ratio < 0.5 || a.level_ratio > 2.0));
    }

    #[test]
    fn quiet_campaign_reports_no_temporal_anomaly() {
        let mut plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![4096i64, 8192]))
            .replicates(40)
            .build();
        plan.shuffle(3);
        let mut target = MemoryTarget::new(
            "arm-quiet",
            MachineSim::new(
                CpuSpec::arm_snowball(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                3,
            ),
        );
        let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(3).run().unwrap().data;
        let anomalies = temporal_anomalies(&campaign, &["size_bytes"], 1.0);
        assert!(anomalies.is_empty(), "spurious anomalies: {anomalies:?}");
    }

    #[test]
    fn bimodal_cells_found_under_rt_policy() {
        let campaign = arm_rt_campaign(13);
        let cells = bimodal_cells(&campaign, &["size_bytes"]);
        assert!(!cells.is_empty(), "RT campaign should have bimodal cells");
        for c in &cells {
            let ratio = c.split.center_ratio();
            assert!((3.0..8.0).contains(&ratio), "mode ratio {ratio} for {}", c.key);
        }
    }

    #[test]
    fn probe_finds_planted_1024_anomaly() {
        let mut sim = presets::taurus_openmpi_tcp(1);
        sim.set_noise(NoiseModel::new(1, 0.01, BurstConfig::off()).with_anomaly(1024, 0.7));
        let grid = [256u64, 512, 1024, 2048, 4096];
        let found = probe_size_bias(&mut sim, &grid, 15, 0.1);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].size, 1024);
        assert!(found[0].deviation() < -0.1);
    }

    #[test]
    fn probe_quiet_grid_clean() {
        let mut sim = presets::myrinet_gm(2);
        sim.set_noise(NoiseModel::silent(0));
        let found = probe_size_bias(&mut sim, &[256, 512, 1024, 2048], 3, 0.05);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn aggregation_loss_zero_when_unimodal_large_when_bimodal() {
        let uni: Vec<f64> = (0..40).map(|i| 100.0 + (i % 5) as f64).collect();
        assert_eq!(aggregation_loss(&uni), Some(0.0));
        // balanced two-point mixture: mean sits midway, far from both modes
        let mut bi: Vec<f64> = vec![100.0; 20];
        bi.extend(vec![500.0; 20]);
        let loss = aggregation_loss(&bi).unwrap();
        assert!(loss > 0.4, "loss = {loss}");
    }

    #[test]
    fn network_burst_campaign_detected_too() {
        let mut sim = presets::myrinet_gm(4);
        // Burst long enough (mean 1/exit = 100 measurements) and frequent
        // enough (duty = enter/(enter+exit) = 1/3) that a 600-row
        // campaign reliably straddles several ON windows — the original
        // 240-row / 1-expected-burst setup hinged on one lucky draw.
        sim.set_noise(NoiseModel::new(
            4,
            0.02,
            BurstConfig { enter_prob: 0.005, exit_prob: 0.01, slowdown: 6.0, extra_us: 100.0 },
        ));
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![512i64, 2048, 8192]))
            .replicates(200)
            .build();
        plan.shuffle(4);
        let mut target = NetworkTarget::new("bursty", sim);
        let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(4).run().unwrap().data;
        let anomalies = temporal_anomalies(&campaign, &["op", "size"], 1.0);
        assert!(!anomalies.is_empty());
    }
}

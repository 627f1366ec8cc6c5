//! Figure 11 — "Real-time scheduling priority on an ARM Snowball
//! processor": the left plot shows two bandwidth modes vs buffer size,
//! the right plot shows the *same data vs measurement sequence*,
//! revealing that the slow mode is one contiguous temporal window — an
//! interloper process, not a property of any buffer size.
//!
//! Both the detection ingredients are methodology features: randomized
//! order (so the slow window hits all sizes equally) and raw retention
//! with sequence numbers (so the right plot can exist at all).

use crate::pipeline::Study;
use crate::pitfalls::{self, TemporalAnomaly};
use charm_analysis::modes::{self, ModeSplit};
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::record::Campaign;
use charm_engine::target::MemoryTarget;
use charm_obs::{CampaignReport, Observer};
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;

/// The Figure 11 dataset.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The raw campaign (RT policy).
    pub campaign: Campaign,
    /// Global two-mode split of all bandwidths.
    pub split: ModeSplit,
    /// Detected temporal windows.
    pub anomalies: Vec<TemporalAnomaly>,
    /// The scheduler's side of the story: a preemption counter and one
    /// provenance event per measurement carrying its `intruded` flag, so
    /// the slow mode is attributable to the interloper record by record.
    pub report: CampaignReport,
}

/// Runs the experiment: sizes 1–50 KiB (keeping each ≤ 4 pages-per-colour
/// safe zone is *not* done — the paper's buffers went to 50 KiB; the
/// paging effect is mitigated by the pooled allocator), 42 replicates,
/// randomized, RT policy.
pub fn run(seed: u64) -> Fig11 {
    let sizes: Vec<i64> = (1..=12).map(|i| i * 4 * 1024).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("nloops", vec![40i64]))
        .replicates(42)
        .build()
        .expect("static plan");
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
    let run = Study::new(plan)
        .randomized(seed)
        .run_observed(&mut target, Observer::default())
        .expect("simulated");
    let campaign = run.data;
    let report = run.report.expect("observer attached");
    // Mode analysis on values normalized by their size-cell median —
    // otherwise the L1-capacity bandwidth drop across sizes would
    // masquerade as a "mode". The paper's per-size view does the same
    // thing implicitly.
    let mut normalized = Vec::with_capacity(campaign.records.len());
    for (_, values) in campaign.group_by(&["size_bytes"]) {
        let med = charm_analysis::descriptive::median(&values).unwrap_or(1.0);
        normalized.extend(values.iter().map(|v| v / med));
    }
    let split = modes::two_means(&normalized).expect("enough samples");
    let anomalies = pitfalls::temporal_anomalies(&campaign, &["size_bytes"], 1.0);
    Fig11 { campaign, split, anomalies, report }
}

impl Fig11 {
    /// Fraction of measurements in the slow mode.
    pub(crate) fn slow_fraction(&self) -> f64 {
        self.split.low_fraction
    }

    /// Ratio between the two mode centers.
    pub(crate) fn mode_ratio(&self) -> f64 {
        self.split.center_ratio()
    }

    /// The raw campaign CSV.
    pub fn raw_csv(&self) -> String {
        self.campaign.to_csv()
    }

    /// Terminal report: both panels.
    pub(crate) fn report(&self) -> String {
        let mut out = String::from("Figure 11 — RT priority on the ARM Snowball\n");
        let (xs, ys) = self.campaign.paired("size_bytes").expect("numeric");
        let left: Vec<(f64, f64)> = xs.into_iter().zip(ys.iter().copied()).collect();
        out.push_str("\n[left: bandwidth vs buffer size]\n");
        out.push_str(&super::plot::scatter(&[(&left, '·')], 64, 12));
        let right: Vec<(f64, f64)> =
            self.campaign.records.iter().map(|r| (r.sequence as f64, r.value)).collect();
        out.push_str("\n[right: the same data vs sequence order]\n");
        out.push_str(&super::plot::scatter(&[(&right, '·')], 64, 12));
        out.push_str(&format!(
            "\ntwo modes: slow fraction {:.2} (paper: 0.20–0.25), fast/slow ratio {:.1} (paper: ~5)\n",
            self.slow_fraction(),
            self.mode_ratio()
        ));
        out.push_str(&format!(
            "temporal windows detected in sequence order: {:?}\n",
            self.anomalies.iter().map(|a| (a.from_seq, a.to_seq)).collect::<Vec<_>>()
        ));
        out.push_str("mean and variance alone would have hidden all of this\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_modes_with_paper_shape() {
        // The slow-mode share of a single campaign varies (few intruder
        // phases per campaign); aggregate over seeds like the paper's
        // repeated experiments did.
        let figs: Vec<Fig11> = (0..4).map(|s| run(100 + s)).collect();
        let mean_frac: f64 =
            figs.iter().map(|f| f.slow_fraction()).sum::<f64>() / figs.len() as f64;
        assert!((0.08..=0.40).contains(&mean_frac), "mean slow fraction {mean_frac} implausible");
        let any_ratio_ok = figs.iter().any(|f| (3.0..=7.0).contains(&f.mode_ratio()));
        assert!(any_ratio_ok, "no campaign shows the ~5x mode ratio");
    }

    #[test]
    fn right_plot_reveals_contiguous_window() {
        let fig = run(7);
        assert!(!fig.anomalies.is_empty(), "temporal window not detected");
        // windows are contiguous stretches — their total span is small
        // relative to scattering the same count uniformly
        for a in &fig.anomalies {
            assert!(a.to_seq > a.from_seq);
        }
    }

    #[test]
    fn artifacts_render() {
        let fig = run(9);
        assert!(fig.raw_csv().contains("sequence"));
        let rep = fig.report();
        assert!(rep.contains("left:"));
        assert!(rep.contains("right:"));
    }

    #[test]
    fn report_attributes_slow_mode_to_preemptions() {
        let fig = run(7);
        // the preemption counter counts exactly the intruded measurements
        let intruded: Vec<u64> = fig
            .report
            .events
            .iter()
            .filter(|e| e.attr("intruded") == Some("true"))
            .map(|e| e.seq)
            .collect();
        assert!(!intruded.is_empty(), "no preemptions observed");
        assert_eq!(fig.report.counters.get("simmem.sched.preemptions"), intruded.len() as u64);
        // record-by-record attribution: the slow-mode records are the
        // preempted ones (per-size normalization, as in the mode split)
        let mut agree = 0usize;
        let mut total = 0usize;
        let size_idx = fig.campaign.factor_index("size_bytes").unwrap();
        let sizes: std::collections::BTreeSet<i64> =
            fig.campaign.records.iter().filter_map(|r| r.levels[size_idx].as_int()).collect();
        for size in sizes {
            let cell = fig.campaign.filtered("size_bytes", |l| l.as_int() == Some(size));
            let med = charm_analysis::descriptive::median(&cell.values()).unwrap();
            for r in &cell.records {
                let slow = r.value < 0.6 * med;
                if slow == intruded.contains(&r.sequence) {
                    agree += 1;
                }
                total += 1;
            }
        }
        let ratio = agree as f64 / total as f64;
        assert!(ratio >= 0.9, "slow mode should track the intruder: agreement {ratio}");
    }
}

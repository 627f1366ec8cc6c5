//! Figure 10 — "Memory bandwidth as a function of the buffer size for
//! four workloads (facets) as indicated by the nloops parameter": the
//! DVFS ondemand pitfall. `nloops` "should not have any influence on the
//! final bandwidth", yet short kernels run at the governor's idle
//! frequency, long kernels at the maximum, and intermediate ones bounce
//! between modes.

use crate::pipeline::Study;
use charm_analysis::descriptive;
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::record::Campaign;
use charm_engine::target::MemoryTarget;
use charm_obs::{CampaignReport, Observer};
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;

/// Summary of one nloops facet.
#[derive(Debug, Clone)]
pub struct NloopsFacet {
    /// The facet's nloops value.
    pub nloops: i64,
    /// Median bandwidth (MB/s).
    pub median_mbps: f64,
    /// Coefficient of variation across the facet.
    pub cv: f64,
}

/// The Figure 10 dataset.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The raw campaign.
    pub campaign: Campaign,
    /// Facet summaries in nloops order.
    pub facets: Vec<NloopsFacet>,
    /// The governor's side of the story: DVFS transition counts,
    /// frequency residency, and one provenance event per measurement
    /// carrying its `max_freq_fraction` — the mechanism behind the
    /// multimodal facets, attributable record by record.
    pub report: CampaignReport,
}

/// The four facet values used (geometric ladder like the paper's).
pub(crate) const NLOOPS_FACETS: [i64; 4] = [1, 32, 192, 8192];

/// Runs the experiment on the i7-2600 with the ondemand governor.
pub fn run(seed: u64, reps: u32) -> Fig10 {
    let sizes: Vec<i64> = (1..=8).map(|i| i * 4 * 1024).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("nloops", NLOOPS_FACETS.to_vec()))
        .replicates(reps)
        .build();
    let mut target = MemoryTarget::new(
        "i7-ondemand",
        MachineSim::new(
            CpuSpec::core_i7_2600(),
            GovernorPolicy::Ondemand { sample_period_us: 1000.0 },
            SchedPolicy::PinnedDefault,
            AllocPolicy::MallocPerSize,
            seed,
        ),
    );
    let run = Study::new(plan)
        .randomized(seed)
        .run_observed(&mut target, Observer::default())
        .expect("simulated");
    let campaign = run.data;
    let report = run.report.expect("observer attached");

    let facets = NLOOPS_FACETS
        .iter()
        .map(|&nl| {
            let vals = campaign.filtered("nloops", |l| l.as_int() == Some(nl)).values();
            let median = descriptive::median(&vals).unwrap_or(0.0);
            let cv = descriptive::coeff_of_variation(&vals).unwrap_or(0.0);
            NloopsFacet { nloops: nl, median_mbps: median, cv }
        })
        .collect();
    Fig10 { campaign, facets, report }
}

impl Fig10 {
    /// Facet summary CSV.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .facets
            .iter()
            .map(|f| vec![f.nloops.to_string(), f.median_mbps.to_string(), f.cv.to_string()])
            .collect();
        super::plot::csv(&["nloops", "median_mbps", "cv"], &rows)
    }

    /// Terminal report: per-facet scatter.
    pub(crate) fn report(&self) -> String {
        let mut out =
            String::from("Figure 10 — ondemand governor: bandwidth vs size, faceted by nloops\n");
        for f in &self.facets {
            let sub = self.campaign.filtered("nloops", |l| l.as_int() == Some(f.nloops));
            let (xs, ys) = sub.paired("size_bytes").expect("numeric");
            let pts: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
            out.push_str(&format!(
                "\n[nloops = {}]  median {:.0} MB/s, cv {:.3}\n",
                f.nloops, f.median_mbps, f.cv
            ));
            out.push_str(&super::plot::scatter(&[(&pts, '·')], 60, 8));
        }
        out.push_str("\nlow nloops pin the idle frequency, high nloops the maximum; the middle facets are multimodal\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nloops_changes_what_should_not_change() {
        let fig = run(1, 42);
        let by_nl = |nl: i64| fig.facets.iter().find(|f| f.nloops == nl).unwrap();
        // the highest facet approaches max-frequency bandwidth: well above
        // the low facet
        assert!(
            by_nl(8192).median_mbps > 1.5 * by_nl(1).median_mbps,
            "{} vs {}",
            by_nl(1).median_mbps,
            by_nl(8192).median_mbps
        );
    }

    #[test]
    fn intermediate_facet_is_the_noisy_one() {
        let fig = run(2, 42);
        let by_nl = |nl: i64| fig.facets.iter().find(|f| f.nloops == nl).unwrap();
        assert!(by_nl(192).cv > 3.0 * by_nl(8192).cv, "{} vs {}", by_nl(192).cv, by_nl(8192).cv);
        assert!(by_nl(192).cv > 0.15);
    }

    #[test]
    fn artifacts_render() {
        let fig = run(3, 10);
        assert!(fig.to_csv().lines().count() == 5);
        assert!(fig.report().contains("nloops = 8192"));
    }

    #[test]
    fn report_attributes_multimodality_to_the_governor() {
        let fig = run(4, 42);
        let n = fig.campaign.records.len() as u64;
        assert_eq!(fig.report.counters.get("simmem.measurements"), n);
        // the governor actually moved, and every measurement landed in a
        // residency bucket
        assert!(fig.report.counters.get("simmem.dvfs.transitions") > 0);
        let residency: u64 = ["low", "mid", "high"]
            .iter()
            .map(|b| fig.report.counters.get(&format!("simmem.dvfs.residency.{b}")))
            .sum();
        assert_eq!(residency, n);
        // record-by-record attribution: within the multimodal facet, the
        // fast half of the records are the ones whose provenance event
        // shows more time at the maximum frequency
        let frac_for = |seq: u64| {
            let events = fig.report.provenance_for(seq);
            assert_eq!(events.len(), 1, "seq {seq}");
            events[0].attr("max_freq_fraction").unwrap().parse::<f64>().unwrap()
        };
        let facet = fig.campaign.filtered("nloops", |l| l.as_int() == Some(192));
        let mut vals = facet.values();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        let mean_frac = |fast: bool| {
            let fracs: Vec<f64> = facet
                .records
                .iter()
                .filter(|r| (r.value > median) == fast)
                .map(|r| frac_for(r.sequence))
                .collect();
            assert!(!fracs.is_empty());
            fracs.iter().sum::<f64>() / fracs.len() as f64
        };
        assert!(
            mean_frac(true) > mean_frac(false) + 0.2,
            "fast records should run at max frequency: {} vs {}",
            mean_frac(true),
            mean_frac(false)
        );
    }
}

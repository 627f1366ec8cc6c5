//! Figure 9 — vectorization (element width) × loop unrolling on the
//! Core i7-2600: widening elements raises bandwidth, unrolling helps —
//! except the anomalous 256-bit + unroll case — and the L1 boundary only
//! becomes visible once the kernel approaches the core's true issue
//! capability.

use crate::pipeline::Study;
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::record::Campaign;
use charm_engine::target::MemoryTarget;
use charm_simmem::compiler::ElementWidth;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;

/// Summary of one facet (width × unroll).
#[derive(Debug, Clone)]
pub struct Facet {
    /// Element width.
    pub width: ElementWidth,
    /// Unrolling on/off.
    pub unroll: bool,
    /// Median bandwidth inside L1 (sizes ≤ 24 KiB).
    pub inside_l1_mbps: f64,
    /// Median bandwidth beyond L1 (sizes ≥ 48 KiB).
    pub beyond_l1_mbps: f64,
}

impl Facet {
    /// The visibility of the L1 boundary in this facet.
    pub(crate) fn drop_ratio(&self) -> f64 {
        self.inside_l1_mbps / self.beyond_l1_mbps
    }
}

/// The Figure 9 dataset.
#[derive(Debug, Clone)]
pub struct Fig09 {
    /// The raw campaign.
    pub campaign: Campaign,
    /// Eight facet summaries (4 widths × 2 unroll states).
    pub facets: Vec<Facet>,
}

/// Runs the experiment: sizes 1–100 KiB, all widths × unroll states.
pub fn run(seed: u64, reps: u32) -> Fig09 {
    let sizes: Vec<i64> = (1..=25).map(|i| i * 4 * 1024).collect();
    let widths: Vec<&str> = ElementWidth::all().iter().map(|w| w.name()).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("width", widths))
        .factor(Factor::new("unroll", vec![false, true]))
        .factor(Factor::new("nloops", vec![400i64]))
        .replicates(reps)
        .build()
        .expect("static plan");
    let mut target = MemoryTarget::new(
        "i7-2600",
        MachineSim::new(
            CpuSpec::core_i7_2600(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        ),
    );
    let campaign = Study::new(plan).randomized(seed).run(&mut target).expect("simulated");

    let mut facets = Vec::new();
    for width in ElementWidth::all() {
        for unroll in [false, true] {
            let sub = campaign
                .filtered("width", |l| l.as_text() == Some(width.name()))
                .filtered("unroll", |l| l.as_flag() == Some(unroll));
            let median_band = |lo: i64, hi: i64| -> f64 {
                let mut vals: Vec<f64> = sub
                    .filtered("size_bytes", |l| {
                        l.as_int().map(|s| s > lo && s <= hi).unwrap_or(false)
                    })
                    .values();
                vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                if vals.is_empty() {
                    0.0
                } else {
                    vals[vals.len() / 2]
                }
            };
            facets.push(Facet {
                width,
                unroll,
                inside_l1_mbps: median_band(0, 24 * 1024),
                beyond_l1_mbps: median_band(48 * 1024, i64::MAX),
            });
        }
    }
    Fig09 { campaign, facets }
}

impl Fig09 {
    /// Facet summary CSV.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .facets
            .iter()
            .map(|f| {
                vec![
                    f.width.name().to_string(),
                    f.unroll.to_string(),
                    f.inside_l1_mbps.to_string(),
                    f.beyond_l1_mbps.to_string(),
                    f.drop_ratio().to_string(),
                ]
            })
            .collect();
        super::plot::csv(
            &["width", "unroll", "inside_l1_mbps", "beyond_l1_mbps", "l1_drop_ratio"],
            &rows,
        )
    }

    /// Terminal report: the facet grid.
    pub(crate) fn report(&self) -> String {
        let mut out = String::from(
            "Figure 9 — vectorization × unrolling on the i7-2600\n  width            unroll  in-L1 MB/s  beyond MB/s  drop\n",
        );
        for f in &self.facets {
            out.push_str(&format!(
                "  {:<16} {:<6}  {:>10.0}  {:>11.0}  {:>4.2}\n",
                f.width.name(),
                f.unroll,
                f.inside_l1_mbps,
                f.beyond_l1_mbps,
                f.drop_ratio()
            ));
        }
        out.push_str("note the 256b+unroll anomaly (slow despite 'best' config) and the\nmissing L1 drop on the narrow rolled kernels\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facet(fig: &Fig09, width: ElementWidth, unroll: bool) -> &Facet {
        fig.facets.iter().find(|f| f.width == width && f.unroll == unroll).expect("facet computed")
    }

    #[test]
    fn width_doubles_bandwidth() {
        let fig = run(1, 4);
        let w32 = facet(&fig, ElementWidth::W32, false).inside_l1_mbps;
        let w64 = facet(&fig, ElementWidth::W64, false).inside_l1_mbps;
        let w128 = facet(&fig, ElementWidth::W128, false).inside_l1_mbps;
        assert!((w64 / w32 - 2.0).abs() < 0.3, "{w32} -> {w64}");
        assert!((w128 / w64 - 2.0).abs() < 0.3, "{w64} -> {w128}");
    }

    #[test]
    fn unroll_helps_except_256bit() {
        let fig = run(2, 4);
        for width in [ElementWidth::W32, ElementWidth::W64, ElementWidth::W128] {
            let rolled = facet(&fig, width, false).inside_l1_mbps;
            let unrolled = facet(&fig, width, true).inside_l1_mbps;
            assert!(unrolled > 1.5 * rolled, "{width:?}: {rolled} vs {unrolled}");
        }
        // the anomaly: 256b unrolled is drastically *slower*
        let rolled = facet(&fig, ElementWidth::W256, false).inside_l1_mbps;
        let unrolled = facet(&fig, ElementWidth::W256, true).inside_l1_mbps;
        assert!(unrolled < 0.5 * rolled, "anomaly missing: {rolled} vs {unrolled}");
    }

    #[test]
    fn l1_drop_grows_with_bandwidth() {
        let fig = run(3, 4);
        // narrow rolled: essentially no drop; wide rolled: big drop
        let narrow = facet(&fig, ElementWidth::W32, false).drop_ratio();
        let wide = facet(&fig, ElementWidth::W256, false).drop_ratio();
        assert!(narrow < 1.2, "narrow drop {narrow}");
        assert!(wide > 1.5, "wide drop {wide}");
        assert!(wide > narrow);
    }

    #[test]
    fn artifacts_render() {
        let fig = run(4, 2);
        assert_eq!(fig.facets.len(), 8);
        assert!(fig.to_csv().contains("256b_4xdouble"));
        assert!(fig.report().contains("anomaly"));
    }
}

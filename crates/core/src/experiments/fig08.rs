//! Figure 8 — the authors' first replication attempt, on a Pentium 4 in
//! a less controlled environment: "there is an enormous experimental
//! noise for every buffer size … the influence of the stride is ambiguous
//! and bandwidth does not decrease by a factor of two".
//!
//! The driver runs the white-box pipeline (randomized sizes/strides, raw
//! retention) on the Pentium 4 preset under the `TimeshareNoisy`
//! scheduler, then fits LOESS trend lines per stride — the solid lines of
//! the figure.

use crate::pipeline::Study;
use charm_analysis::loess::{loess, LoessConfig};
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::record::Campaign;
use charm_engine::target::MemoryTarget;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;

/// The Figure 8 dataset.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// The raw campaign.
    pub campaign: Campaign,
    /// Per-stride LOESS trends: `(stride, Vec<(size, smoothed bw)>)`.
    pub trends: Vec<(u64, Vec<(f64, f64)>)>,
    /// Per-stride overall coefficient of variation.
    pub cv_per_stride: Vec<(u64, f64)>,
}

/// Runs the experiment: sizes 1–30 KiB × strides {2,4,8} × `reps`
/// replicates, randomized.
pub fn run(seed: u64, reps: u32) -> Fig08 {
    let sizes: Vec<i64> = (1..=30).map(|kb| kb * 1024).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("stride", vec![2i64, 4, 8]))
        .factor(Factor::new("nloops", vec![60i64]))
        .replicates(reps)
        .build()
        .expect("static plan");
    let mut target = MemoryTarget::new(
        "pentium4-timeshare",
        MachineSim::new(
            CpuSpec::pentium4(),
            GovernorPolicy::Performance,
            SchedPolicy::TimeshareNoisy,
            AllocPolicy::MallocPerSize,
            seed,
        ),
    );
    let campaign = Study::new(plan).randomized(seed).run(&mut target).expect("simulated");

    let mut trends = Vec::new();
    let mut cv_per_stride = Vec::new();
    for stride in [2u64, 4, 8] {
        let sub = campaign.filtered("stride", |l| l.as_int() == Some(stride as i64));
        let (xs, ys) = sub.paired("size_bytes").expect("numeric size");
        let eval: Vec<f64> = (1..=30).map(|kb| (kb * 1024) as f64).collect();
        if let Ok(sm) = loess(&xs, &ys, &eval, &LoessConfig { span: 0.4, robustness_iters: 1 }) {
            trends.push((stride, eval.iter().copied().zip(sm).collect()));
        }
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let sd = (ys.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / ys.len() as f64).sqrt();
        cv_per_stride.push((stride, sd / mean));
    }
    Fig08 { campaign, trends, cv_per_stride }
}

impl Fig08 {
    /// The raw campaign CSV.
    pub fn raw_csv(&self) -> String {
        self.campaign.to_csv()
    }

    /// Trend CSV: `stride,size_bytes,loess_bandwidth_mbps`.
    pub fn trend_csv(&self) -> String {
        let mut rows = Vec::new();
        for (stride, pts) in &self.trends {
            for &(x, y) in pts {
                rows.push(vec![stride.to_string(), x.to_string(), y.to_string()]);
            }
        }
        super::plot::csv(&["stride", "size_bytes", "loess_bandwidth_mbps"], &rows)
    }

    /// Terminal report.
    pub(crate) fn report(&self) -> String {
        let mut out = String::from(
            "Figure 8 — replication attempt on the Pentium 4 (raw dots per stride: 2/4/8)\n",
        );
        let mut series_data: Vec<(Vec<(f64, f64)>, char)> = Vec::new();
        for (stride, glyph) in [(2i64, '2'), (4, '4'), (8, '8')] {
            let sub = self.campaign.filtered("stride", |l| l.as_int() == Some(stride));
            let (xs, ys) = sub.paired("size_bytes").expect("numeric");
            series_data.push((xs.into_iter().zip(ys).collect(), glyph));
        }
        let views: Vec<(&[(f64, f64)], char)> =
            series_data.iter().map(|(v, g)| (v.as_slice(), *g)).collect();
        out.push_str(&super::plot::scatter(&views, 70, 16));
        out.push_str("per-stride coefficient of variation (the 'enormous noise'):\n");
        for (stride, cv) in &self.cv_per_stride {
            out.push_str(&format!("  stride {stride}: cv = {cv:.3}\n"));
        }
        out.push_str("stride influence is ambiguous: trend lines overlap within the noise\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_enormous() {
        let fig = run(1, 12);
        for &(stride, cv) in &fig.cv_per_stride {
            assert!(cv > 0.15, "stride {stride}: cv {cv} should be large");
        }
    }

    #[test]
    fn stride_influence_ambiguous() {
        // Unlike Figure 7, the per-stride trends overlap within the noise
        // inside L1 (16 KiB): their spread is far below the measurement sd.
        let fig = run(2, 12);
        let trend_at_8k: Vec<f64> = fig
            .trends
            .iter()
            .map(|(_, pts)| pts.iter().find(|&&(x, _)| x == 8.0 * 1024.0).map(|&(_, y)| y).unwrap())
            .collect();
        let max = trend_at_8k.iter().cloned().fold(f64::MIN, f64::max);
        let min = trend_at_8k.iter().cloned().fold(f64::MAX, f64::min);
        let spread = (max - min) / max;
        assert!(spread < 0.45, "stride trends should be entangled: spread {spread}");
        // nothing like the clean factor-2 of Figure 7
        assert!(max / min < 1.8, "no clean factor-2 separation: {trend_at_8k:?}");
    }

    #[test]
    fn artifacts_render() {
        let fig = run(3, 6);
        assert!(fig.raw_csv().contains("timeshare"));
        assert!(fig.trend_csv().lines().count() > 60);
        assert!(fig.report().contains("enormous noise"));
    }
}

//! Figure 12 — "Four experiments on the ARM Snowball processor": with
//! per-size `malloc`, the drop point wanders between ~50 % and 100 % of
//! the L1 size across runs while being perfectly stable *within* a run;
//! the pooled-random-offset allocator restores honest variability and
//! cross-run agreement.

use crate::pipeline::Study;
use charm_analysis::descriptive::Summary;
use charm_design::doe::FullFactorial;
use charm_design::Factor;
use charm_engine::record::Campaign;
use charm_engine::target::MemoryTarget;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;

/// One run (one facet of the figure).
#[derive(Debug, Clone)]
pub struct Run {
    /// The run's seed (stands for "one boot").
    pub seed: u64,
    /// The raw campaign.
    pub campaign: Campaign,
    /// Per-size summaries (the boxplots of the figure), ascending size.
    pub boxplots: Vec<(u64, Summary)>,
    /// The detected drop point (first size whose median falls below 60 %
    /// of the small-buffer reference), if any.
    pub drop_point_bytes: Option<u64>,
}

/// The Figure 12 dataset: four malloc-per-size runs plus one pooled run.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// The four runs with per-size malloc.
    pub malloc_runs: Vec<Run>,
    /// A control run with the pooled-random-offset allocator.
    pub pooled_run: Run,
    /// L1 capacity (bytes) for annotation.
    pub l1_bytes: u64,
}

fn paging_plan() -> charm_design::plan::ExperimentPlan {
    let sizes: Vec<i64> = (1..=25).map(|i| i * 2 * 1024).collect(); // 2..50 KiB
    FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("nloops", vec![300i64]))
        .replicates(42)
        .build()
}

fn analyze_run(seed: u64, campaign: Campaign) -> Run {
    let mut boxplots: Vec<(u64, Summary)> = campaign
        .group_by(&["size_bytes"])
        .into_iter()
        .filter_map(|(key, values)| Some((key[0].as_int()? as u64, Summary::of(&values).ok()?)))
        .collect();
    boxplots.sort_by_key(|&(s, _)| s);

    let reference = boxplots.first().map(|(_, s)| s.median).unwrap_or(1.0);
    let drop_point_bytes =
        boxplots.iter().find(|(_, s)| s.median < 0.6 * reference).map(|&(size, _)| size);
    Run { seed, campaign, boxplots, drop_point_bytes }
}

fn one_run(seed: u64, alloc: AllocPolicy) -> Run {
    let mut target = MemoryTarget::new(
        "arm-paging",
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            alloc,
            seed,
        ),
    );
    let campaign = Study::new(paging_plan()).randomized(seed).run(&mut target).expect("simulated");
    analyze_run(seed, campaign)
}

/// Runs the experiment with four seeds for the malloc facets. The four
/// independent runs execute in parallel threads (they are seeded and
/// deterministic, so parallelism cannot change any number).
pub fn run(base_seed: u64) -> Fig12 {
    let seeds: Vec<u64> = (0..4).map(|i| base_seed + i).collect();
    let campaigns = charm_engine::replicate::run_replicated(&paging_plan(), &seeds, |seed| {
        MemoryTarget::new(
            "arm-paging",
            MachineSim::new(
                CpuSpec::arm_snowball(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                seed,
            ),
        )
    })
    .expect("simulated");
    let malloc_runs: Vec<Run> =
        seeds.iter().zip(campaigns).map(|(&seed, c)| analyze_run(seed, c)).collect();
    let pooled_run = one_run(base_seed + 100, AllocPolicy::PooledRandomOffset);
    Fig12 { malloc_runs, pooled_run, l1_bytes: CpuSpec::arm_snowball().levels[0].size_bytes }
}

impl Fig12 {
    /// Boxplot CSV across all runs:
    /// `allocator,run,size_bytes,q1,median,q3,min,max`.
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        let mut push = |label: &str, run: &Run| {
            for (size, s) in &run.boxplots {
                rows.push(vec![
                    label.to_string(),
                    run.seed.to_string(),
                    size.to_string(),
                    s.q1.to_string(),
                    s.median.to_string(),
                    s.q3.to_string(),
                    s.min.to_string(),
                    s.max.to_string(),
                ]);
            }
        };
        for r in &self.malloc_runs {
            push("malloc_per_size", r);
        }
        push("pooled_random_offset", &self.pooled_run);
        super::plot::csv(
            &["allocator", "run", "size_bytes", "q1", "median", "q3", "min", "max"],
            &rows,
        )
    }

    /// Terminal report: per-run median curves + drop points.
    pub(crate) fn report(&self) -> String {
        let mut out = String::from("Figure 12 — ARM paging anomaly: four malloc-per-size runs\n");
        for (i, r) in self.malloc_runs.iter().enumerate() {
            let pts: Vec<(f64, f64)> =
                r.boxplots.iter().map(|&(s, ref sm)| (s as f64, sm.median)).collect();
            out.push_str(&format!(
                "\n[run {} (seed {})]  drop at {:?} bytes (L1 = {} bytes)\n",
                i + 1,
                r.seed,
                r.drop_point_bytes,
                self.l1_bytes
            ));
            out.push_str(&super::plot::scatter(&[(&pts, '▇')], 60, 8));
        }
        out.push_str("\nwithin-run variability (median IQR/median) per allocator:\n");
        let iqr_ratio = |r: &Run| {
            let ratios: Vec<f64> =
                r.boxplots.iter().map(|(_, s)| s.iqr() / s.median.max(1e-9)).collect();
            ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
        };
        let malloc_mean: f64 =
            self.malloc_runs.iter().map(iqr_ratio).sum::<f64>() / self.malloc_runs.len() as f64;
        out.push_str(&format!(
            "  malloc_per_size: {:.4}   pooled_random_offset: {:.4}\n",
            malloc_mean,
            iqr_ratio(&self.pooled_run)
        ));
        out.push_str("page reuse makes each run eerily stable while the drop point wanders between runs;\nthe pooled allocator trades that false stability for honest, reproducible variability\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_points_wander_within_plausible_window() {
        let fig = run(40);
        let mut points = Vec::new();
        for r in &fig.malloc_runs {
            let p = r.drop_point_bytes.expect("every run eventually drops");
            // between ~50 % of L1 (first size where 5 pages can collide)
            // and a little past L1
            assert!((16 * 1024..=40 * 1024).contains(&p), "drop at {p} outside window");
            points.push(p);
        }
        let distinct: std::collections::HashSet<u64> = points.iter().copied().collect();
        assert!(distinct.len() >= 2, "drop points should differ across runs: {points:?}");
    }

    #[test]
    fn within_run_stability_vs_pooled_variability() {
        let fig = run(41);
        let iqr_ratio = |r: &Run| {
            let ratios: Vec<f64> =
                r.boxplots.iter().map(|(_, s)| s.iqr() / s.median.max(1e-9)).collect();
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let malloc_mean: f64 = fig.malloc_runs.iter().map(iqr_ratio).sum::<f64>() / 4.0;
        let pooled = iqr_ratio(&fig.pooled_run);
        assert!(
            pooled > 2.0 * malloc_mean,
            "pooled IQR {pooled} should dwarf malloc IQR {malloc_mean}"
        );
    }

    #[test]
    fn small_and_large_sizes_behave_consistently_across_runs() {
        // "the lower and higher values of buffer size always exhibit a
        // similar behavior": compare 4 KiB and 48 KiB medians across runs.
        let fig = run(42);
        let median_at = |r: &Run, size: u64| {
            r.boxplots.iter().find(|&&(s, _)| s == size).map(|(_, sm)| sm.median).unwrap()
        };
        for &size in &[4 * 1024u64, 48 * 1024] {
            let meds: Vec<f64> = fig.malloc_runs.iter().map(|r| median_at(r, size)).collect();
            let max = meds.iter().cloned().fold(f64::MIN, f64::max);
            let min = meds.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max / min < 1.3, "size {size}: run medians should agree: {meds:?}");
        }
    }

    #[test]
    fn artifacts_render() {
        let fig = run(43);
        let csv = fig.to_csv();
        assert!(csv.contains("malloc_per_size"));
        assert!(csv.contains("pooled_random_offset"));
        assert!(fig.report().contains("drop at"));
    }
}

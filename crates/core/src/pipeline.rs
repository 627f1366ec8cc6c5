//! The three-stage methodology as an API.
//!
//! Paper §V: "(1) the experimental design, (2) the benchmark running
//! engine, and (3) the results statistical analysis. We believe that
//! separated stages, together with careful documentation and environment
//! capture, enable us to avoid all pitfalls that we presented."
//!
//! [`Study`] wires the three crates together while keeping the stage
//! boundaries visible: you *must* produce a plan before running, and the
//! analysis only ever sees the retained raw campaign.

use charm_analysis::descriptive::Summary;
use charm_analysis::modes::{self, ModeSplit};
use charm_analysis::outliers::{self, Rule};
use charm_design::factors::Level;
use charm_design::plan::ExperimentPlan;
use charm_engine::record::Campaign;
use charm_engine::target::{ParallelTarget, Target, TargetError};
use charm_engine::CampaignRun;
use charm_obs::Observer;

/// Stage-1 wrapper: a design ready to run.
#[derive(Debug, Clone)]
pub struct Study {
    plan: ExperimentPlan,
    shuffle_seed: Option<u64>,
}

impl Study {
    /// Starts a study from a plan (build it with
    /// [`charm_design::doe::FullFactorial`]).
    pub fn new(plan: ExperimentPlan) -> Self {
        Study { plan, shuffle_seed: None }
    }

    /// Starts a study from a plan whose ordering was already applied —
    /// benchmark-spec resolution (`crate::spec`) shuffles at resolve
    /// time — recording `shuffle_seed` in the campaign metadata exactly
    /// as [`Study::randomized`] would (`None` means sequential /
    /// as-declared order).
    pub(crate) fn prepared(plan: ExperimentPlan, shuffle_seed: Option<u64>) -> Self {
        Study { plan, shuffle_seed }
    }

    /// Randomizes the measurement order — the methodology's key step.
    pub fn randomized(mut self, seed: u64) -> Self {
        self.plan.shuffle(seed);
        self.shuffle_seed = Some(seed);
        self
    }

    /// Stage 2: runs the campaign on a target, retaining raw data.
    pub fn run<T: Target>(&self, target: &mut T) -> Result<Campaign, TargetError> {
        charm_engine::Campaign::new(&self.plan, target)
            .seed(self.shuffle_seed)
            .run()
            .map(|run| run.data)
    }

    /// Stage 2 with observability: like [`Study::run`] but with the
    /// target's instrumentation switched on, so the result also carries
    /// the campaign's counters and provenance events. Observation never
    /// changes measurement values.
    pub(crate) fn run_observed<T: Target>(
        &self,
        target: &mut T,
        observer: Observer,
    ) -> Result<CampaignRun, TargetError> {
        charm_engine::Campaign::new(&self.plan, target)
            .seed(self.shuffle_seed)
            .observer(observer)
            .run()
    }

    /// Stage 2, sharded: runs the campaign across `shards` forks of
    /// `base` on separate threads (see
    /// [`charm_engine::ShardedCampaign::run`]). For shard-invariant
    /// targets the retained `(levels, replicate, value)` data is
    /// identical to [`Study::run`] no matter the shard count; the count
    /// is the caller's, clamped only to the plan's rows.
    pub fn run_sharded<T: ParallelTarget>(
        &self,
        base: &T,
        shards: usize,
    ) -> Result<Campaign, TargetError> {
        charm_engine::Campaign::new(&self.plan, base.fork(base.stream_seed()))
            .shards(shards)
            .seed(self.shuffle_seed)
            .run()
            .map(|run| run.data)
    }
}

/// Stage-3 result for one factor combination.
#[derive(Debug, Clone)]
pub struct CellAnalysis {
    /// The cell's factor levels (in the grouping factors' order).
    pub key: Vec<Level>,
    /// Five-number summary + mean/sd/MAD.
    pub summary: Summary,
    /// Fraction flagged by the Tukey rule.
    pub outlier_fraction: f64,
    /// Two-mode split (present when the cell has ≥ 4 observations).
    pub modes: Option<ModeSplit>,
}

/// Stage 3: per-cell analysis over the retained raw campaign.
///
/// Groups by `factors`, summarizes each cell, flags outliers (without
/// dropping them!), and runs the bimodality screen.
pub fn analyze_cells(campaign: &Campaign, factors: &[&str]) -> Vec<CellAnalysis> {
    campaign
        .group_by(factors)
        .into_iter()
        .filter_map(|(key, values)| {
            let summary = Summary::of(&values).ok()?;
            let outlier_fraction =
                outliers::outlier_fraction(&values, Rule::tukey()).unwrap_or(0.0);
            let modes = modes::two_means(&values).ok();
            Some(CellAnalysis { key, summary, outlier_fraction, modes })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_engine::target::NetworkTarget;
    use charm_simnet::presets;

    fn study() -> Study {
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![512i64, 4096, 65536]))
            .replicates(12)
            .build();
        Study::new(plan).randomized(5)
    }

    #[test]
    fn randomization_changes_order_not_content() {
        let base = FullFactorial::new()
            .factor(Factor::new("size", vec![1i64, 2, 3, 4, 5, 6]))
            .replicates(2)
            .build();
        let a = Study::new(base.clone()).randomized(1);
        let b = Study::new(base.clone());
        assert_ne!(a.plan.rows(), b.plan.rows());
        assert_eq!(a.plan.len(), b.plan.len());
    }

    #[test]
    fn full_pipeline_produces_cells() {
        let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(7));
        let campaign = study().run(&mut target).unwrap();
        let cells = analyze_cells(&campaign, &["size"]);
        assert_eq!(cells.len(), 3);
        for c in &cells {
            assert_eq!(c.summary.n, 12);
            assert!(c.summary.min <= c.summary.median);
            assert!((0.0..=1.0).contains(&c.outlier_fraction));
        }
        // Larger messages take longer (median view).
        let medians: Vec<f64> = cells.iter().map(|c| c.summary.median).collect();
        assert!(medians[0] < medians[2]);
    }

    #[test]
    fn bimodal_cell_detected_through_pipeline() {
        // Inject a burst process: some cells straddle the burst and
        // become bimodal; the plain summary would only show inflated sd.
        let mut sim = presets::myrinet_gm(3);
        sim.set_noise(charm_simnet::noise::NoiseModel::new(
            3,
            0.01,
            charm_simnet::noise::BurstConfig {
                enter_prob: 0.02,
                exit_prob: 0.02,
                slowdown: 6.0,
                extra_us: 0.0,
            },
        ));
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![1024i64]))
            .replicates(200)
            .build();
        let mut target = NetworkTarget::new("noisy", sim);
        let campaign = Study::new(plan).randomized(1).run(&mut target).unwrap();
        let cells = analyze_cells(&campaign, &["size"]);
        assert_eq!(cells.len(), 1);
        let bimodal = cells[0].modes.as_ref().is_some_and(|m| m.is_bimodal(2.0, 0.05));
        assert!(bimodal, "burst should split the cell into modes");
    }

    #[test]
    fn sharded_study_retains_identical_data() {
        let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(7));
        let sequential = study().run(&mut target).unwrap();
        let base = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(7));
        let sharded = study().run_sharded(&base, 4).unwrap();
        let data = |c: &Campaign| {
            c.records.iter().map(|r| (r.levels.clone(), r.replicate, r.value)).collect::<Vec<_>>()
        };
        assert_eq!(data(&sequential), data(&sharded));
        assert_eq!(sharded.metadata["shards"], "4");
    }

    #[test]
    fn observed_study_reports_without_changing_data() {
        let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(7));
        let plain = study().run(&mut target).unwrap();
        let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(7));
        let observed = study().run_observed(&mut target, Observer::default()).unwrap();
        assert_eq!(plain.records, observed.data.records);
        let report = observed.report.expect("observer attached");
        assert_eq!(report.counters.get("engine.rows"), plain.records.len() as u64);
    }

    #[test]
    fn sequential_study_records_order_in_metadata() {
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![64i64]))
            .build();
        let mut target = NetworkTarget::new("m", presets::myrinet_gm(1));
        let c = Study::new(plan).run(&mut target).unwrap();
        assert_eq!(c.metadata["order"], "sequential");
    }
}

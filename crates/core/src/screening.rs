//! Factor screening: rebuild the Figure 13 diagram *from data*.
//!
//! The paper's diagram was assembled the hard way — one surprise at a
//! time. With a replicated randomized design and retained raw records,
//! the same knowledge drops out of a one-way ANOVA per factor: rank the
//! factors by effect size η² and the influential ones name themselves.

use charm_analysis::anova::{self, OneWayAnova};
use charm_engine::record::Campaign;

/// Screening result for one factor.
#[derive(Debug, Clone)]
pub struct FactorEffect {
    /// Factor name.
    pub factor: String,
    /// Its one-way ANOVA against the response.
    pub anova: OneWayAnova,
}

impl FactorEffect {
    /// Effect size η².
    pub(crate) fn eta_squared(&self) -> f64 {
        self.anova.eta_squared
    }
}

/// Screens every factor of a campaign: one-way ANOVA of the response
/// against each factor's levels, ranked by η² descending. Factors whose
/// ANOVA is degenerate (a single level present, no residual df) are
/// skipped.
pub(crate) fn screen_factors(campaign: &Campaign) -> Vec<FactorEffect> {
    let mut out: Vec<FactorEffect> = campaign
        .factor_names()
        .iter()
        .filter_map(|name| {
            let groups: Vec<Vec<f64>> =
                campaign.group_by(&[name.as_str()]).into_iter().map(|(_, v)| v).collect();
            let anova = anova::one_way(&groups).ok()?;
            Some(FactorEffect { factor: name.clone(), anova })
        })
        .collect();
    out.sort_by(|a, b| b.eta_squared().partial_cmp(&a.eta_squared()).expect("finite eta"));
    out
}

/// Extension trait surfacing factor names on a campaign.
trait FactorNames {
    fn factor_names(&self) -> &[String];
}

impl FactorNames for Campaign {
    fn factor_names(&self) -> &[String] {
        &self.factor_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Study;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_engine::target::MemoryTarget;
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::{CpuSpec, MachineSim};
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;

    /// A design where buffer size matters hugely (spans L1) and an inert
    /// decoy factor does not.
    fn campaign(seed: u64) -> Campaign {
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![8 * 1024i64, 512 * 1024]))
            .factor(Factor::new("stride", vec![1i64, 2]))
            .factor(Factor::new("nloops", vec![500i64, 501])) // near-inert
            .replicates(6)
            .build()
            .unwrap();
        let mut target = MemoryTarget::new(
            "opteron",
            MachineSim::new(
                CpuSpec::opteron(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::PooledRandomOffset,
                seed,
            ),
        );
        Study::new(plan).randomized(seed).run(&mut target).unwrap()
    }

    #[test]
    fn size_dominates_the_ranking() {
        let c = campaign(1);
        let effects = screen_factors(&c);
        assert_eq!(
            effects[0].factor,
            "size_bytes",
            "ranking: {:?}",
            effects.iter().map(|e| (&e.factor, e.eta_squared())).collect::<Vec<_>>()
        );
        assert!(effects[0].eta_squared() > 0.5);
        // the near-inert nloops tweak explains almost nothing
        let nloops = effects.iter().find(|e| e.factor == "nloops").unwrap();
        assert!(nloops.eta_squared() < 0.05);
    }

    #[test]
    fn screening_survives_single_level_factors() {
        // a factor with one level has no between-group df and is skipped
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![8192i64, 16384]))
            .factor(Factor::new("nloops", vec![100i64]))
            .replicates(4)
            .build()
            .unwrap();
        let mut target = MemoryTarget::new(
            "arm",
            MachineSim::new(
                CpuSpec::arm_snowball(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                3,
            ),
        );
        let c = Study::new(plan).randomized(3).run(&mut target).unwrap();
        let effects = screen_factors(&c);
        assert!(effects.iter().all(|e| e.factor != "nloops"));
        assert_eq!(effects.len(), 1);
    }
}

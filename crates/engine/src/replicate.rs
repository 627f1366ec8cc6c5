//! Replicated campaign execution across independent machines.
//!
//! Figure 12's design is "four consecutive experiments … using exactly
//! the same source code and inputs" — independent runs whose disagreement
//! *is* the finding. This module runs R seeded, mutually-independent
//! campaigns in parallel threads (each on its own target instance; the
//! simulators are deterministic per seed, so parallelism cannot change
//! any result) and returns them in seed order.

use crate::record::Campaign;
use crate::target::{Target, TargetError};
use charm_design::plan::ExperimentPlan;

/// Runs `seeds.len()` independent campaigns of the same `plan`, one per
/// seed, each against a fresh target built by `make_target(seed)`.
/// Campaigns run on separate scoped OS threads; results come
/// back in the order of `seeds`.
///
/// The plan is shuffled *per run* with the run's seed — every run gets
/// its own randomized order, as independent experiments should.
pub fn run_replicated<T, F>(
    plan: &ExperimentPlan,
    seeds: &[u64],
    make_target: F,
) -> Result<Vec<Campaign>, TargetError>
where
    T: Target,
    F: Fn(u64) -> T + Sync,
{
    let results: Vec<Result<Campaign, TargetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let make_target = &make_target;
                scope.spawn(move || {
                    let mut run_plan = plan.clone();
                    run_plan.shuffle(seed);
                    let target = make_target(seed);
                    crate::Campaign::new(&run_plan, target).seed(seed).run().map(|run| run.data)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("campaign thread panicked")).collect()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::NetworkTarget;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_simnet::presets;

    fn plan() -> ExperimentPlan {
        FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong"]))
            .factor(Factor::new("size", vec![512i64, 4096, 32768]))
            .replicates(6)
            .build()
    }

    #[test]
    fn replicated_runs_are_independent_and_ordered() {
        let seeds = [1u64, 2, 3, 4];
        let campaigns = run_replicated(&plan(), &seeds, |seed| {
            NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed))
        })
        .unwrap();
        assert_eq!(campaigns.len(), 4);
        for (c, &seed) in campaigns.iter().zip(&seeds) {
            assert_eq!(c.metadata["shuffle_seed"], seed.to_string());
            assert_eq!(c.records.len(), 18);
        }
        // different seeds -> different values
        assert_ne!(campaigns[0].values(), campaigns[1].values());
    }

    #[test]
    fn parallel_equals_serial_per_seed() {
        // determinism survives the thread pool: the parallel run equals a
        // serial run with the same seed
        let p = plan();
        let parallel = run_replicated(&p, &[7, 8], |seed| {
            NetworkTarget::new("myrinet", presets::myrinet_gm(seed))
        })
        .unwrap();
        for (i, &seed) in [7u64, 8].iter().enumerate() {
            let mut serial_plan = p.clone();
            serial_plan.shuffle(seed);
            let target = NetworkTarget::new("myrinet", presets::myrinet_gm(seed));
            let serial = crate::Campaign::new(&serial_plan, target).seed(seed).run().unwrap().data;
            assert_eq!(parallel[i], serial, "seed {seed}");
        }
    }

    #[test]
    fn error_in_any_run_propagates() {
        let bad_plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["nonsense"]))
            .factor(Factor::new("size", vec![64i64]))
            .build();
        let result = run_replicated(&bad_plan, &[1, 2], |seed| {
            NetworkTarget::new("m", presets::myrinet_gm(seed))
        });
        assert!(result.is_err());
    }
}

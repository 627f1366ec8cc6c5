//! Submission compilation: turning a `submit` request's plan text into
//! everything the scheduler and the engine need.
//!
//! This is deliberately the same lowering the `run_campaign` CLI uses —
//! a DSL plan through `ResolvedBenchmark::from_dsl`, a spec through
//! `BenchmarkSpec::resolve`, both into one `ResolvedBenchmark` — so a
//! campaign submitted to the service derives the *same*
//! content-addressed run ID, the same metadata, and the same record
//! bytes as one run directly. That equivalence is what makes
//! archive-backed dedupe honest: a dedupe hit serves exactly the bytes
//! an engine run would have produced.

use crate::protocol::{PlanKind, RejectReason};
use charm_core::spec::{BenchmarkSpec, ResolvedBenchmark};
use charm_design::ExperimentPlan;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_store::target_identity;

/// A compiled, validated submission, ready for admission.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    /// The executable plan, in final row order.
    pub plan: ExperimentPlan,
    /// The declarative target the worker re-resolves at run time.
    pub target: TargetSpec,
    /// The target's store identity (`name#digest`), from a resolution
    /// at `seed` — deterministic, so admission and execution agree.
    pub target_id: String,
    /// The shuffle seed recorded in campaign metadata: the lowered
    /// benchmark's `order_seed`, `Some` exactly when the plan declares a
    /// randomized order, whichever syntax it is written in.
    pub shuffle_seed: Option<u64>,
}

fn bad_plan(detail: impl Into<String>) -> (RejectReason, String) {
    (RejectReason::BadPlan, detail.into())
}

/// Compiles a submission. `seed` is the stream seed the campaign will
/// run with (it parameterizes spec resolution and the target identity).
pub(crate) fn prepare(
    kind: PlanKind,
    plan_text: &str,
    platform: &str,
    seed: u64,
) -> Result<Prepared, (RejectReason, String)> {
    let ResolvedBenchmark { plan, target, order_seed, .. } = match kind {
        PlanKind::Dsl => {
            ResolvedBenchmark::from_dsl(plan_text, platform).map_err(|e| bad_plan(e.to_string()))?
        }
        PlanKind::Spec => BenchmarkSpec::parse(plan_text)
            .and_then(|spec| spec.resolve(seed, &[]))
            .map_err(|e| bad_plan(format!("spec error: {e}")))?,
    };
    if plan.is_empty() {
        return Err(bad_plan("plan has no rows"));
    }
    let target_id = match registry::resolve(&target, seed) {
        Ok(ResolvedTarget::Network(t)) => target_identity(t.as_ref()),
        Ok(ResolvedTarget::Memory(t)) => target_identity(t.as_ref()),
        Ok(ResolvedTarget::External(_)) => {
            return Err(bad_plan(
                "external engines are not served (a subprocess cannot be forked, streamed, \
                 or resumed); run them with run_campaign --benchmark",
            ));
        }
        Err(e) => return Err(bad_plan(e.to_string())),
    };
    Ok(Prepared { plan, target, target_id, shuffle_seed: order_seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DSL: &str = "factor op in [ping_pong]\nfactor size in [64, 1024]\nreplicates 2\n";

    #[test]
    fn dsl_submissions_compile_with_registry_defaults() {
        let p = prepare(PlanKind::Dsl, DSL, "taurus", 7).unwrap();
        assert_eq!(p.plan.len(), 4);
        assert_eq!(p.target.label(), "taurus");
        assert_eq!(p.shuffle_seed, None);
        assert!(p.target_id.starts_with("taurus#"), "{}", p.target_id);
        assert_eq!(p.target, TargetSpec::Network { preset: "taurus".into(), label: None });
    }

    #[test]
    fn memory_platforms_resolve_with_default_policies() {
        let dsl = "factor size_bytes in [4096, 8192]\nreplicates 2\n";
        let p = prepare(PlanKind::Dsl, dsl, "opteron", 3).unwrap();
        assert!(p.target_id.starts_with("opteron#"));
        match p.target {
            TargetSpec::Memory { governor, sched, alloc, .. } => {
                assert!(governor.is_none() && sched.is_none() && alloc.is_none());
            }
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn target_identity_is_seed_stable_for_derivation() {
        // Same seed → same identity (admission and execution agree);
        // the identity folds the stream seed's configuration in exactly
        // as run_campaign's direct construction does.
        let a = prepare(PlanKind::Dsl, DSL, "myrinet", 11).unwrap();
        let b = prepare(PlanKind::Dsl, DSL, "myrinet", 11).unwrap();
        assert_eq!(a.target_id, b.target_id);
    }

    #[test]
    fn bad_inputs_reject_as_bad_plan() {
        for (kind, plan, platform) in [
            (PlanKind::Dsl, "factor", "taurus"),   // DSL parse error
            (PlanKind::Dsl, DSL, "plan9"),         // unknown platform
            (PlanKind::Spec, "not = toml =", ""),  // spec parse error
            (PlanKind::Spec, "[benchmark]\n", ""), // incomplete spec
        ] {
            let err = prepare(kind, plan, platform, 1).unwrap_err();
            assert_eq!(err.0, RejectReason::BadPlan, "{plan:?}: {}", err.1);
        }
    }

    #[test]
    fn spec_text_levels_with_a_comma_are_refused() {
        let spec = "[benchmark]\nname = \"x\"\n\n\
                    [target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
                    [factors.tag]\nlevels = [\"a,b\", \"c\"]\n";
        match prepare(PlanKind::Spec, spec, "", 1) {
            Err((RejectReason::BadPlan, detail)) => {
                assert!(detail.contains(r#"[factors.tag] level "a,b" contains ','"#), "{detail}");
            }
            other => panic!("expected bad_plan, got {other:?}"),
        }
    }

    #[test]
    fn external_targets_are_refused() {
        let spec = "[benchmark]\nname = \"x\"\n\n\
                    [target]\nmodel = \"external\"\nprogram = \"/bin/true\"\n\n\
                    [factors.size]\nlevels = [1, 2]\n\n\
                    [design]\nreplicates = 1\n";
        match prepare(PlanKind::Spec, spec, "", 1) {
            Err((RejectReason::BadPlan, detail)) => {
                assert!(detail.contains("external"), "{detail}");
            }
            other => panic!("expected bad_plan, got {other:?}"),
        }
    }
}

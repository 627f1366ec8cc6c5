//! The two plan front ends lower into one representation: a design
//! written as DSL text and the same design written as a charm-spec/1
//! TOML spec must resolve to identical plan rows, factors, replicates
//! and shuffle seed.

use charm_core::spec::{BenchmarkSpec, ResolvedBenchmark};
use charm_design::dsl;
use proptest::prelude::*;

/// One generated factor: `(kind, a, b, c, seed)`; `kind` picks a level
/// list of integers or of words, a `range`, or a `loguniform` sampler.
type FactorGen = (u8, i64, i64, usize, u64);

/// Writes factor `i` in both syntaxes: `(DSL line, spec table)`.
fn factor(i: usize, (kind, a, b, c, seed): FactorGen) -> (String, String) {
    let name = format!("f{i}");
    match kind {
        0 => {
            let levels: Vec<String> = (0..c as i64).map(|k| (a + k * b).to_string()).collect();
            let list = levels.join(", ");
            (format!("factor {name} in [{list}]"), format!("[factors.{name}]\nlevels = [{list}]\n"))
        }
        1 => {
            let words: Vec<String> = (0..c).map(|k| format!("w{}", (a as usize + k) % 7)).collect();
            let quoted: Vec<String> = words.iter().map(|w| format!("\"{w}\"")).collect();
            (
                format!("factor {name} in [{}]", words.join(", ")),
                format!("[factors.{name}]\nlevels = [{}]\n", quoted.join(", ")),
            )
        }
        2 => {
            let (from, to, step) = (a - 20, a - 20 + b * c as i64, b);
            (
                format!("factor {name} from {from} to {to} step {step}"),
                format!(
                    "[factors.{name}]\ngenerator = \"range\"\nfrom = {from}\nto = {to}\nstep = {step}\n"
                ),
            )
        }
        _ => {
            let (min, max) = (a + 1, (a + 1) * (b + 1) * 1000);
            (
                format!("factor {name} loguniform {min}..{max} count {c} seed {seed}"),
                format!(
                    "[factors.{name}]\ngenerator = \"loguniform\"\nmin = {min}\nmax = {max}\n\
                     count = {c}\nseed = {seed}\n"
                ),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dsl_and_spec_lower_identically(
        factors in prop::collection::vec((0u8..4, 0i64..50, 1i64..6, 1usize..6, 0u64..(1 << 62)), 1..4),
        replicates in 1u32..5,
        order in 0u8..4,
        order_seed in 0u64..(1 << 62),
    ) {
        let mut dsl_text = String::new();
        let mut spec_text = String::from(
            "[benchmark]\nname = \"twin\"\n\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\n",
        );
        for (i, f) in factors.iter().enumerate() {
            let (line, table) = factor(i, *f);
            dsl_text.push_str(&line);
            dsl_text.push('\n');
            spec_text.push_str(&table);
            spec_text.push('\n');
        }
        dsl_text.push_str(&format!("replicates {replicates}\n"));
        spec_text.push_str(&format!("[design]\nreplicates = {replicates}\n"));
        // The spec's randomized order takes its seed from `order_seed`
        // or, when absent, from the harness seed passed to `resolve`.
        let harness_seed = order_seed ^ 0x5eed;
        let resolve_seed = match order {
            0 => harness_seed,
            1 => {
                dsl_text.push_str("order sequential\n");
                spec_text.push_str("order = \"sequential\"\n");
                harness_seed
            }
            2 => {
                dsl_text.push_str(&format!("order randomized {order_seed}\n"));
                spec_text.push_str(&format!("order = \"randomized\"\norder_seed = {order_seed}\n"));
                harness_seed
            }
            _ => {
                dsl_text.push_str(&format!("order randomized {order_seed}\n"));
                spec_text.push_str("order = \"randomized\"\n");
                order_seed
            }
        };

        let from_dsl = ResolvedBenchmark::from_dsl(&dsl_text, "taurus").unwrap();
        let from_spec = BenchmarkSpec::parse(&spec_text).unwrap().resolve(resolve_seed, &[]).unwrap();
        prop_assert_eq!(from_dsl.plan.rows(), from_spec.plan.rows(), "{}\n---\n{}", dsl_text, spec_text);
        prop_assert_eq!(from_dsl.plan.factor_names(), from_spec.plan.factor_names());
        prop_assert_eq!(&from_dsl.factors, &from_spec.factors);
        prop_assert_eq!(from_dsl.replicates, from_spec.replicates);
        prop_assert_eq!(from_dsl.order_seed, from_spec.order_seed);
        prop_assert_eq!(from_dsl.order_seed, (order >= 2).then_some(order_seed));
        prop_assert_eq!(&from_dsl.target, &from_spec.target);
        // The public compile path is the same lowering, minus the target.
        prop_assert_eq!(dsl::compile(&dsl_text).unwrap(), from_dsl.plan);
    }
}

/// CI's store-smoke plan and its committed spec twin.
#[test]
fn the_smoke_plan_and_its_spec_twin_lower_identically() {
    let dsl_text = "factor op in [ping_pong, async_send]\n\
                    factor size loguniform 64..65536 count 12 seed 7\n\
                    replicates 4\n\
                    order randomized 42\n";
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/campaign_smoke.toml");
    let spec_text = std::fs::read_to_string(spec_path).unwrap();
    let from_dsl = ResolvedBenchmark::from_dsl(dsl_text, "taurus").unwrap();
    let from_spec = BenchmarkSpec::parse(&spec_text).unwrap().resolve(1, &[]).unwrap();
    assert_eq!(from_dsl.plan, from_spec.plan);
    assert_eq!(from_dsl.order_seed, Some(42));
    assert_eq!(from_spec.order_seed, Some(42));
    assert_eq!(from_dsl.target.label(), from_spec.target.label());
}

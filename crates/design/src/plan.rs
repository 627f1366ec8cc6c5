//! Experiment plans: the ordered, randomized list of factor combinations
//! the measurement engine executes.
//!
//! "The resulting combinations …, one per line, are registered in a text
//! file that is provided to the measurement engine" (paper §V-A). Here
//! that hand-off is a value, not a file: [`FullFactorial::build`]
//! (reached through [`Design::expand`] from the DSL and from
//! charm-spec/1) is the only way to construct a plan, and the engine
//! runs the result as it is. [`ExperimentPlan::to_csv`] renders the same
//! text the paper describes, which the campaign archive hashes to key a
//! run. Keeping the design as an explicit artifact (rather than loops
//! inside the benchmark binary) is what separates stage 1 from stage 2.
//!
//! [`FullFactorial::build`]: crate::doe::FullFactorial::build
//! [`Design::expand`]: crate::doe::Design::expand

use crate::factors::{Level, Levels};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// One row of an experiment plan: a full assignment of factor levels plus
/// the replicate index within its combination.
///
/// The level tuple is an interned [`Levels`]: the DOE builder hands
/// every replicate of a factor combination the *same* shared
/// allocation, so cloning a row (shuffling, sharding, recording) is a
/// refcount bump, and the engine copies that reference into each
/// record as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRow {
    /// Values for each factor, ordered as in [`ExperimentPlan::factor_names`].
    pub levels: Levels,
    /// Replicate index (0-based) of this combination.
    pub replicate: u32,
}

/// Why a design cannot be expanded into a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The design's row count — the product of the factors' level
    /// counts times the replicates — does not fit in `usize`.
    TooManyRows,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooManyRows => write!(
                f,
                "the design expands to more than {} rows (levels per factor multiplied, times replicates)",
                usize::MAX
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// An ordered experiment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPlan {
    factor_names: Vec<String>,
    rows: Vec<PlanRow>,
}

impl ExperimentPlan {
    /// Creates a plan with the given factor names and rows; every row
    /// holds one level per factor.
    pub(crate) fn new(factor_names: Vec<String>, rows: Vec<PlanRow>) -> Self {
        ExperimentPlan { factor_names, rows }
    }

    /// The factor names, in column order.
    pub fn factor_names(&self) -> &[String] {
        &self.factor_names
    }

    /// The rows in execution order.
    pub fn rows(&self) -> &[PlanRow] {
        &self.rows
    }

    /// Number of rows (individual measurements to take).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the plan has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Shuffles the execution order of the rows with a seeded RNG — the
    /// paper's central randomization step. Deterministic given the seed.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        self.rows.shuffle(&mut rng);
    }

    /// Returns a copy of this plan with rows sorted lexicographically by
    /// their display representation — the *sequential* order an opaque
    /// tool would use. Exists so ablations can compare randomized vs
    /// sequential campaigns on identical row multisets.
    pub fn sequential(&self) -> ExperimentPlan {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| {
            (r.levels.iter().map(|l| format!("{l:>24}")).collect::<Vec<_>>().join(","), r.replicate)
        });
        ExperimentPlan { factor_names: self.factor_names.clone(), rows }
    }

    /// Serializes the plan as CSV: header of factor names plus
    /// `replicate`, one row per line.
    ///
    /// Each combination's level prefix is rendered once and memoised by
    /// [`Levels::shared_id`], so the replicates of an interned cell copy
    /// bytes instead of re-formatting levels. Two combinations with equal
    /// levels (a factor that lists a level twice) each render their own
    /// prefix; the bytes are the same either way.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.factor_names.join(","));
        out.push_str(",replicate\n");
        let mut prefixes: HashMap<usize, String> = HashMap::new();
        for row in &self.rows {
            let prefix = prefixes.entry(row.levels.shared_id()).or_insert_with(|| {
                let vals: Vec<String> = row.levels.iter().map(Level::to_string).collect();
                vals.join(",") + ","
            });
            out.push_str(prefix);
            writeln!(out, "{}", row.replicate).expect("writing to a String cannot fail");
        }
        out
    }
}

/// The pre-memo rendering, kept as the oracle for the memoised
/// [`ExperimentPlan::to_csv`]: one `Vec<String>` per row.
#[cfg(test)]
mod reference {
    use super::ExperimentPlan;

    pub fn to_csv(plan: &ExperimentPlan) -> String {
        let mut out = String::new();
        out.push_str(&plan.factor_names.join(","));
        out.push_str(",replicate\n");
        for row in &plan.rows {
            let vals: Vec<String> = row.levels.iter().map(|l| l.to_string()).collect();
            out.push_str(&vals.join(","));
            out.push(',');
            out.push_str(&row.replicate.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doe::FullFactorial;
    use crate::factors::Factor;
    use proptest::prelude::*;
    use rand::Rng;

    /// Up to four distinct levels of one kind: Int, Float (integral
    /// ones included, which render like Ints), Text or Flag.
    fn random_levels(rng: &mut ChaCha8Rng, kind: u32) -> Vec<Level> {
        let n = rng.random_range(1..5usize);
        let mut levels: Vec<Level> = Vec::new();
        for i in 0..n {
            let level = match kind {
                0 => Level::Int(rng.random_range(-1_000_000i64..1_000_000)),
                1 if i % 2 == 0 => Level::Float(rng.random_range(-1e6f64..1e6)),
                1 => Level::Float(rng.random_range(0i64..64) as f64),
                2 => Level::Text(["ping_pong", "async send", "x", "ondemand"][i].to_string()),
                _ => Level::Flag(i % 2 == 0),
            };
            if !levels.contains(&level) {
                levels.push(level);
            }
        }
        levels
    }

    /// A plan of `n_factors` random factors: built by the DOE builder
    /// and shuffled (interned cells), or re-assembled row by row with a
    /// fresh tuple per row (no interning at all).
    fn random_plan(seed: u64, n_factors: usize, reps: u32, interned: bool) -> ExperimentPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut doe = FullFactorial::new().replicates(reps);
        for f in 0..n_factors {
            let kind = rng.random_range(0u32..4);
            doe =
                doe.factor(Factor { name: format!("f{f}"), levels: random_levels(&mut rng, kind) });
        }
        let mut plan = doe.build();
        plan.shuffle(seed);
        if interned {
            return plan;
        }
        let rows = plan
            .rows()
            .iter()
            .map(|r| PlanRow { levels: r.levels.to_vec().into(), replicate: r.replicate })
            .collect();
        ExperimentPlan::new(plan.factor_names().to_vec(), rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memoised_to_csv_writes_the_reference_bytes(
            seed in any::<u64>(),
            n_factors in 0usize..4,
            reps in 1u32..4,
            interned in any::<bool>(),
        ) {
            let plan = random_plan(seed, n_factors, reps, interned);
            prop_assert_eq!(plan.to_csv(), reference::to_csv(&plan));
        }
    }

    fn small_plan() -> ExperimentPlan {
        let rows = vec![
            PlanRow { levels: vec![Level::Int(1), Level::Text("a".into())].into(), replicate: 0 },
            PlanRow { levels: vec![Level::Int(1), Level::Text("a".into())].into(), replicate: 1 },
            PlanRow { levels: vec![Level::Int(2), Level::Text("b".into())].into(), replicate: 0 },
        ];
        ExperimentPlan::new(vec!["size".into(), "mode".into()], rows)
    }

    #[test]
    fn csv_header_format() {
        let csv = small_plan().to_csv();
        assert!(csv.starts_with("size,mode,replicate\n"));
        assert!(csv.contains("1,a,0\n"));
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let base = small_plan();
        let mut a = base.clone();
        let mut b = base.clone();
        a.shuffle(99);
        b.shuffle(99);
        assert_eq!(a, b, "same seed, same order");

        // multiset is preserved
        let mut rows_a = a.rows().to_vec();
        let mut rows_o = base.rows().to_vec();
        let key = |r: &PlanRow| (format!("{:?}", r.levels), r.replicate);
        rows_a.sort_by_key(key);
        rows_o.sort_by_key(key);
        assert_eq!(rows_a, rows_o);
    }

    #[test]
    fn different_seed_usually_different_order() {
        // with 20 rows, collision of two seeded shuffles is essentially nil
        let rows: Vec<PlanRow> =
            (0..20).map(|i| PlanRow { levels: vec![Level::Int(i)].into(), replicate: 0 }).collect();
        let base = ExperimentPlan::new(vec!["i".into()], rows);
        let mut a = base.clone();
        let mut b = base;
        a.shuffle(1);
        b.shuffle(2);
        assert_ne!(a, b);
    }

    #[test]
    fn sequential_sorts_rows() {
        let mut p = small_plan();
        p.shuffle(7);
        let s = p.sequential();
        let sizes: Vec<i64> = s.rows().iter().map(|r| r.levels[0].as_int().unwrap()).collect();
        let mut expected = sizes.clone();
        expected.sort_unstable();
        assert_eq!(sizes, expected);
    }
}

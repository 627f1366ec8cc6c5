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
use std::fmt;

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
    /// `replicate`, one row per line. The store hashes these bytes as a
    /// campaign's plan identity (it renders them in chunks, through
    /// `charm_engine::record::write_plan_csv`, instead of calling this).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.factor_names.join(","));
        out.push_str(",replicate\n");
        for row in &self.rows {
            let vals: Vec<String> = row.levels.iter().map(Level::to_string).collect();
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

//! Design-of-experiments construction: full factorials with replication,
//! and the declared [`Design`] both plan front ends (the DSL and
//! charm-spec/1) lower into before it expands.

use crate::factors::{Factor, Level, Levels};
use crate::plan::{ExperimentPlan, PlanError, PlanRow};

/// The run order of an expanded design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Systematic factorial order, replicates innermost.
    AsDeclared,
    /// Rows sorted by level, the way an opaque tool sweeps
    /// ([`ExperimentPlan::sequential`]).
    Sequential,
    /// Rows shuffled with this seed ([`ExperimentPlan::shuffle`]).
    Randomized(u64),
}

/// A replicated full factorial and its run order, as a plan file
/// declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// The factors, in declaration (column) order.
    pub factors: Vec<Factor>,
    /// Replicates per factor combination (values below 1 count as 1).
    pub replicates: u32,
    /// How the expanded rows are ordered.
    pub order: Order,
}

impl Design {
    /// Expands the design into its plan: every combination times every
    /// replicate, then ordered.
    pub fn expand(&self) -> Result<ExperimentPlan, PlanError> {
        let full =
            FullFactorial { factors: self.factors.clone(), replicates: self.replicates.max(1) };
        let mut plan = full.build()?;
        match self.order {
            Order::AsDeclared => {}
            Order::Sequential => plan = plan.sequential(),
            Order::Randomized(seed) => plan.shuffle(seed),
        }
        Ok(plan)
    }
}

/// The integer levels `from, from + step, …` up to and including `to`;
/// `None` unless `from <= to` and `step > 0`.
pub fn range_levels(from: i64, to: i64, step: i64) -> Option<Vec<Level>> {
    if step <= 0 || from > to {
        return None;
    }
    Some((from..=to).step_by(step as usize).map(Level::Int).collect())
}

/// Builder for replicated full-factorial designs.
///
/// ```
/// use charm_design::doe::FullFactorial;
/// use charm_design::Factor;
///
/// let plan = FullFactorial::new()
///     .factor(Factor::new("size_kb", vec![1usize, 2, 4, 8]))
///     .factor(Factor::new("stride", vec![1usize, 2]))
///     .replicates(3)
///     .build()
///     .unwrap();
/// assert_eq!(plan.len(), 4 * 2 * 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FullFactorial {
    factors: Vec<Factor>,
    replicates: u32,
}

impl FullFactorial {
    /// Creates an empty builder (1 replicate by default).
    pub fn new() -> Self {
        FullFactorial { factors: Vec::new(), replicates: 1 }
    }

    /// Adds a factor.
    pub fn factor(mut self, f: Factor) -> Self {
        self.factors.push(f);
        self
    }

    /// Sets the number of replicates per combination (≥ 1).
    pub fn replicates(mut self, n: u32) -> Self {
        self.replicates = n.max(1);
        self
    }

    /// Total number of rows the built plan will have.
    pub(crate) fn size(&self) -> usize {
        self.factors.iter().map(Factor::cardinality).product::<usize>() * self.replicates as usize
    }

    /// Builds the plan in *systematic* order (replicates innermost). Call
    /// [`ExperimentPlan::shuffle`] afterwards — the methodology demands it.
    pub fn build(self) -> Result<ExperimentPlan, PlanError> {
        let names = self.factors.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
        let mut rows = Vec::with_capacity(self.size());
        let cards: Vec<usize> = self.factors.iter().map(Factor::cardinality).collect();
        if cards.contains(&0) {
            // a factor without levels yields an empty plan
            return ExperimentPlan::new(names, Vec::new());
        }
        let combos: usize = cards.iter().product();
        for idx in 0..combos {
            // mixed-radix decomposition of idx over factor cardinalities
            let mut rem = idx;
            let mut levels = Vec::with_capacity(self.factors.len());
            for (f, &card) in self.factors.iter().zip(&cards).rev() {
                levels.push(f.levels[rem % card].clone());
                rem /= card;
            }
            levels.reverse();
            // One shared tuple per combination: every replicate (and every
            // record the engine later emits for this cell) references it.
            let cell: Levels = levels.into();
            for rep in 0..self.replicates {
                rows.push(PlanRow { levels: cell.clone(), replicate: rep });
            }
        }
        ExperimentPlan::new(names, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::Level;

    #[test]
    fn cartesian_product_complete() {
        let plan = FullFactorial::new()
            .factor(Factor::new("a", vec![1i64, 2, 3]))
            .factor(Factor::new("b", vec!["x", "y"]))
            .build()
            .unwrap();
        assert_eq!(plan.len(), 6);
        // every (a, b) combination appears exactly once
        let mut seen = std::collections::HashSet::new();
        for row in plan.rows() {
            let key =
                (row.levels[0].as_int().unwrap(), row.levels[1].as_text().unwrap().to_owned());
            assert!(seen.insert(key), "duplicate combination");
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn replicates_multiply_rows() {
        let plan = FullFactorial::new()
            .factor(Factor::new("a", vec![1i64, 2]))
            .replicates(5)
            .build()
            .unwrap();
        assert_eq!(plan.len(), 10);
        // replicate indices 0..5 for each level
        for lvl in [1i64, 2] {
            let reps: Vec<u32> = plan
                .rows()
                .iter()
                .filter(|r| r.levels[0] == Level::Int(lvl))
                .map(|r| r.replicate)
                .collect();
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_factor_list_gives_single_empty_combo() {
        let plan = FullFactorial::new().replicates(3).build().unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan.rows()[0].levels.is_empty());
    }

    #[test]
    fn factor_with_no_levels_gives_empty_plan() {
        let plan = FullFactorial::new()
            .factor(Factor::new("a", Vec::<i64>::new()))
            .factor(Factor::new("b", vec![1i64]))
            .build()
            .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn size_predicts_build_len() {
        let ff = FullFactorial::new()
            .factor(Factor::new("a", vec![1i64, 2, 3, 4]))
            .factor(Factor::new("b", vec![1i64, 2, 3]))
            .replicates(7);
        assert_eq!(ff.size(), 84);
        assert_eq!(ff.build().unwrap().len(), 84);
    }

    #[test]
    fn zero_replicates_clamped_to_one() {
        let plan = FullFactorial::new()
            .factor(Factor::new("a", vec![1i64]))
            .replicates(0)
            .build()
            .unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn design_expands_then_orders() {
        let design = |order| Design {
            factors: vec![Factor::new("a", vec![3i64, 1, 2]), Factor::new("b", vec!["x", "y"])],
            replicates: 2,
            order,
        };
        let declared = design(Order::AsDeclared).expand().unwrap();
        let built = FullFactorial::new()
            .factor(Factor::new("a", vec![3i64, 1, 2]))
            .factor(Factor::new("b", vec!["x", "y"]))
            .replicates(2)
            .build()
            .unwrap();
        assert_eq!(declared, built);
        assert_eq!(design(Order::Sequential).expand().unwrap(), built.sequential());
        let mut shuffled = built.clone();
        shuffled.shuffle(9);
        assert_eq!(design(Order::Randomized(9)).expand().unwrap(), shuffled);
    }

    #[test]
    fn range_levels_include_the_end_and_reject_bad_bounds() {
        let ints = |v: Vec<Level>| v.iter().map(|l| l.as_int().unwrap()).collect::<Vec<_>>();
        assert_eq!(ints(range_levels(8, 24, 8).unwrap()), vec![8, 16, 24]);
        assert_eq!(ints(range_levels(1, 6, 4).unwrap()), vec![1, 5]);
        assert_eq!(ints(range_levels(-2, -2, 1).unwrap()), vec![-2]);
        assert!(range_levels(5, 1, 1).is_none());
        assert!(range_levels(1, 5, 0).is_none());
        assert!(range_levels(1, 5, -1).is_none());
    }

    #[test]
    fn doc_example_shape() {
        let plan = FullFactorial::new()
            .factor(Factor::new("size_kb", vec![1usize, 2, 4, 8]))
            .factor(Factor::new("stride", vec![1usize, 2]))
            .replicates(3)
            .build()
            .unwrap();
        assert_eq!(plan.factor_names(), &["size_kb".to_string(), "stride".to_string()]);
        assert_eq!(plan.len(), 24);
    }
}

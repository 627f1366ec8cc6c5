//! Property-based tests for the design crate.

use charm_design::doe::FullFactorial;
use charm_design::plan::PlanRow;
use charm_design::sampling;
use charm_design::Factor;
use proptest::prelude::*;

proptest! {
    #[test]
    fn full_factorial_size_is_product(
        card_a in 1usize..6, card_b in 1usize..6, reps in 1u32..5
    ) {
        let plan = FullFactorial::new()
            .factor(Factor::new("a", (0..card_a as i64).collect::<Vec<_>>()))
            .factor(Factor::new("b", (0..card_b as i64).collect::<Vec<_>>()))
            .replicates(reps)
            .build();
        prop_assert_eq!(plan.len(), card_a * card_b * reps as usize);
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>()) {
        let base = FullFactorial::new()
            .factor(Factor::new("s", (0..7i64).collect::<Vec<_>>()))
            .replicates(3)
            .build();
        let mut shuffled = base.clone();
        shuffled.shuffle(seed);
        let key = |r: &PlanRow| (format!("{:?}", r.levels), r.replicate);
        let mut a: Vec<_> = base.rows().iter().map(key).collect();
        let mut b: Vec<_> = shuffled.rows().iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn log_uniform_bounds_hold(a in 1u64..1000, span in 1u64..1_000_000, n in 1usize..100,
                               seed in any::<u64>()) {
        let b = a + span;
        let sizes = sampling::log_uniform_sizes(a, b, n, seed);
        prop_assert_eq!(sizes.len(), n);
        prop_assert!(sizes.iter().all(|&s| s >= a && s <= b));
    }

    #[test]
    fn linear_sizes_are_arithmetic(start in 0u64..100, step in 1u64..50, end in 0u64..2000) {
        let v = sampling::linear_sizes(start, step, end);
        for w in v.windows(2) {
            prop_assert_eq!(w[1] - w[0], step);
        }
        prop_assert!(v.iter().all(|&s| s <= end));
        if start <= end {
            prop_assert_eq!(v.first().copied(), Some(start));
        } else {
            prop_assert!(v.is_empty());
        }
    }

    #[test]
    fn sequential_is_deterministic_ordering(seed1 in any::<u64>(), seed2 in any::<u64>()) {
        let base = FullFactorial::new()
            .factor(Factor::new("x", (0..5i64).collect::<Vec<_>>()))
            .replicates(2)
            .build();
        let mut a = base.clone();
        let mut b = base;
        a.shuffle(seed1);
        b.shuffle(seed2);
        prop_assert_eq!(a.sequential(), b.sequential());
    }
}

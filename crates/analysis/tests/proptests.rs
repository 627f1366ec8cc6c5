//! Property-based tests of the analysis crate's core invariants.

use charm_analysis::descriptive::{self, Summary};
use charm_analysis::ecdf::Ecdf;
use charm_analysis::histogram::{BinRule, Histogram};
use charm_analysis::modes;
use charm_analysis::outliers::{self, Rule};
use charm_analysis::piecewise::PiecewiseLinear;
use charm_analysis::prefix::{naive_stretch_sse, PrefixOls};
use charm_analysis::regression;
use charm_analysis::segmented::{reference, segment, SegmentConfig};
use proptest::prelude::*;

/// Non-degenerate finite sample.
fn sample(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, min_len..64)
}

proptest! {
    #[test]
    fn mean_within_min_max(xs in sample(1)) {
        let m = descriptive::mean(&xs).unwrap();
        let lo = descriptive::min(&xs).unwrap();
        let hi = descriptive::max(&xs).unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn mean_invariant_under_permutation(mut xs in sample(2)) {
        let m1 = descriptive::mean(&xs).unwrap();
        xs.reverse();
        let m2 = descriptive::mean(&xs).unwrap();
        prop_assert!((m1 - m2).abs() <= 1e-9 * (1.0 + m1.abs()));
    }

    #[test]
    fn variance_nonnegative(xs in sample(2)) {
        prop_assert!(descriptive::variance(&xs).unwrap() >= 0.0);
    }

    #[test]
    fn variance_shift_invariant(xs in sample(2), c in -1e5..1e5f64) {
        let v1 = descriptive::variance(&xs).unwrap();
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let v2 = descriptive::variance(&shifted).unwrap();
        prop_assert!((v1 - v2).abs() <= 1e-6 * (1.0 + v1.abs() + c.abs()));
    }

    #[test]
    fn quantiles_monotone_in_p(xs in sample(1), p1 in 0.0..1.0f64, p2 in 0.0..1.0f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let qlo = descriptive::quantile(&xs, lo).unwrap();
        let qhi = descriptive::quantile(&xs, hi).unwrap();
        prop_assert!(qlo <= qhi + 1e-12);
    }

    #[test]
    fn quantile_bounded_by_extremes(xs in sample(1), p in 0.0..1.0f64) {
        let q = descriptive::quantile(&xs, p).unwrap();
        prop_assert!(q >= descriptive::min(&xs).unwrap() - 1e-12);
        prop_assert!(q <= descriptive::max(&xs).unwrap() + 1e-12);
    }

    #[test]
    fn selection_quantile_is_bit_identical_to_sorting(
        xs in sample(1),
        ties in prop::collection::vec(0u8..4, 1..64),
        p in 0.0..=1.0f64,
    ) {
        // Continuous values, then small integers (ties everywhere).
        for xs in [xs, ties.iter().map(|&k| f64::from(k) + 1.0).collect()] {
            let want = descriptive::quantile(&xs, p).unwrap();
            let got = descriptive::quantile_unsorted(&mut xs.clone(), p);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} p={}", xs, p);
        }
    }

    #[test]
    fn summary_ordering(xs in sample(1)) {
        let s = Summary::of(&xs).unwrap();
        prop_assert!(s.min <= s.q1 + 1e-12);
        prop_assert!(s.q1 <= s.median + 1e-12);
        prop_assert!(s.median <= s.q3 + 1e-12);
        prop_assert!(s.q3 <= s.max + 1e-12);
    }

    #[test]
    fn mad_nonnegative_and_scale_equivariant(xs in sample(2), k in 0.1..10.0f64) {
        let m = descriptive::mad(&xs).unwrap();
        prop_assert!(m >= 0.0);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let ms = descriptive::mad(&scaled).unwrap();
        prop_assert!((ms - k * m).abs() <= 1e-6 * (1.0 + ms.abs()));
    }

    #[test]
    fn ecdf_monotone(xs in sample(1), a in -1e6..1e6f64, b in -1e6..1e6f64) {
        let e = Ecdf::new(&xs).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(e.eval(lo) <= e.eval(hi));
        prop_assert!(e.eval(f64::NEG_INFINITY.max(-1e9)) >= 0.0);
        prop_assert!(e.eval(1e9) == 1.0);
    }

    #[test]
    fn histogram_counts_sum_to_n(xs in sample(1), bins in 1usize..32) {
        let h = Histogram::new(&xs, BinRule::Fixed(bins)).unwrap();
        prop_assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn ols_residuals_sum_to_zero(
        pairs in prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 3..40)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        // skip degenerate predictors
        prop_assume!(x.iter().any(|&v| (v - x[0]).abs() > 1e-6));
        let f = regression::ols(&x, &y).unwrap();
        let resid_sum: f64 = f.residuals(&x, &y).iter().sum();
        let scale = y.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!(resid_sum.abs() <= 1e-6 * scale, "sum={resid_sum}");
    }

    #[test]
    fn ols_perfect_line_recovery(a in -100.0..100.0f64, b in -100.0..100.0f64,
                                 n in 3usize..30) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| a + b * v).collect();
        let f = regression::ols(&x, &y).unwrap();
        prop_assert!((f.intercept - a).abs() < 1e-6 * (1.0 + a.abs()));
        prop_assert!((f.slope - b).abs() < 1e-6 * (1.0 + b.abs()));
    }

    #[test]
    fn piecewise_sse_not_worse_than_single(
        ys in prop::collection::vec(-1e3..1e3f64, 12..40)
    ) {
        let x: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let single = PiecewiseLinear::fit(&x, &ys, &[]).unwrap();
        let mid = x[ys.len() / 2] - 0.5;
        let split = PiecewiseLinear::fit(&x, &ys, &[mid]).unwrap();
        prop_assert!(split.sse() <= single.sse() + 1e-6 * (1.0 + single.sse()));
    }

    #[test]
    fn outlier_masks_have_input_length(xs in sample(5)) {
        for rule in [Rule::tukey(), Rule::mad(), Rule::three_sigma()] {
            let mask = outliers::flag(&xs, rule).unwrap();
            prop_assert_eq!(mask.len(), xs.len());
        }
    }

    #[test]
    fn partition_is_lossless(xs in sample(5)) {
        let (kept, out) = outliers::partition(&xs, Rule::tukey()).unwrap();
        prop_assert_eq!(kept.len() + out.len(), xs.len());
        // multiset equality via sorted concatenation
        let mut all: Vec<f64> = kept.into_iter().chain(out).collect();
        let mut orig = xs.clone();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(all, orig);
    }

    #[test]
    fn two_means_fraction_in_unit_interval(xs in sample(4)) {
        if let Ok(split) = modes::two_means(&xs) {
            prop_assert!(split.low_fraction > 0.0 && split.low_fraction < 1.0);
            prop_assert!(split.low_center <= split.high_center + 1e-9);
            prop_assert_eq!(split.low_mask.len(), xs.len());
        }
    }

    #[test]
    fn two_means_translation_equivariant(xs in sample(4), c in -1e4..1e4f64) {
        let s1 = modes::two_means(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let s2 = modes::two_means(&shifted);
        if let (Ok(a), Ok(b)) = (s1, s2) {
            let scale = 1.0 + a.threshold.abs() + c.abs();
            prop_assert!((a.threshold + c - b.threshold).abs() <= 1e-6 * scale);
        }
    }

    #[test]
    fn prefix_sse_matches_naive_refit(
        n in 16usize..64,
        slope in 1.0e-3..0.1f64,
        intercept in 0.0..500.0f64,
        noise in prop::collection::vec(-20.0..20.0f64, 64),
    ) {
        // Benchmark-scale stretch: geometric message sizes (bytes) and a
        // linear cost model (µs, ~ns/byte slopes) with bounded noise —
        // the regime segment() runs in. Stretches of ≥ 8 points keep the
        // noise-dominated SSE well above the conditioning floor of the
        // moment formula; 2-point stretches are an exact-zero fast path
        // covered by the unit tests.
        let x: Vec<f64> = (0..n).map(|i| 8.0 * (1.12f64).powi(i as i32)).collect();
        let y: Vec<f64> = x
            .iter()
            .zip(&noise)
            .map(|(&v, &e)| intercept + slope * v + e)
            .collect();
        let prefix = PrefixOls::new(&x, &y);
        for i in (0..n).step_by(3) {
            for j in ((i + 8)..=n).step_by(5) {
                let fast = prefix.sse(i, j);
                let slow = naive_stretch_sse(&x, &y, i, j);
                prop_assert!(
                    (fast - slow).abs() <= 1e-9 * slow.max(1.0),
                    "stretch [{}, {}): prefix {} vs naive {}", i, j, fast, slow
                );
            }
        }
    }

    #[test]
    fn segment_matches_reference_dp_bit_for_bit(
        mut steps in prop::collection::vec(0u32..40, 0..72),
        wide_x in any::<bool>(),
        noise in prop::collection::vec(-50.0..50.0f64, 72),
        y_kind in 0u8..3,
        slope in -0.5..0.5f64,
        max_breaks in 0usize..=6,
        min_points in 0usize..8,
        penalty_kind in 0u8..3,
        penalty_value in 0.0..200.0f64,
    ) {
        // Sorted x with frequent exact duplicates (stretches of equal x
        // have an infinite SSE), optionally at message-size magnitudes.
        // Already sorted, so segment()'s stable sort keeps the order
        // PrefixOls sees.
        steps.sort_unstable();
        let scale = if wide_x { 4096.0 } else { 1.0 };
        let x: Vec<f64> = steps.iter().map(|&s| 8.0 + f64::from(s) * scale).collect();
        // Constant y (every stretch's SSE is exactly 0), a noisy line that
        // jumps halfway, or small integers (candidates can tie exactly).
        let y: Vec<f64> = match y_kind {
            0 => vec![7.25; x.len()],
            1 => steps
                .iter()
                .zip(&x)
                .zip(&noise)
                .map(|((&s, &v), &e)| if s < 20 { 20.0 + slope * v } else { 900.0 - v } + e)
                .collect(),
            _ => noise[..x.len()].iter().map(|e| (e.abs() as u32 % 3) as f64).collect(),
        };
        // The derived BIC penalty, the segment_with_k_breaks path, or an
        // explicit one.
        let penalty = [None, Some(0.0), Some(penalty_value)][usize::from(penalty_kind)];
        let config = SegmentConfig { max_breaks, min_points_per_segment: min_points, penalty };
        let prefix = PrefixOls::new(&x, &y);
        let fast = segment(&x, &y, &config);
        let oracle = reference(&x, &y, &config, |i, j| prefix.sse(i, j));
        match (fast, oracle) {
            (Ok(fast), Ok(oracle)) => {
                prop_assert_eq!(fast.score.to_bits(), oracle.score.to_bits());
                prop_assert_eq!(fast.sse.to_bits(), oracle.sse.to_bits());
                prop_assert_eq!(&fast.breakpoints, &oracle.breakpoints);
                prop_assert_eq!(format!("{:?}", fast.model), format!("{:?}", oracle.model));
            }
            (fast, oracle) => prop_assert_eq!(fast.err(), oracle.err()),
        }
    }
}

/// A three-regime piecewise-linear curve over `0..n` with deterministic
/// hash noise: slope 2 up to 30 % of the range, 0.5 up to 70 %, then 1,
/// each regime offset so the curve jumps at both breaks.
fn piecewise_curve(n: usize) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y = x
        .iter()
        .map(|&v| {
            let f = v / n as f64;
            let base = if f < 0.3 {
                2.0 * v
            } else if f < 0.7 {
                0.6 * n as f64 + 0.5 * v
            } else {
                0.25 * n as f64 + v
            };
            base + ((v * 12.9898).sin() * 43758.5453).fract() * 8.0
        })
        .collect();
    (x, y)
}

/// The proptests above stay under 64 points; this runs the fast kernel
/// against the triple-loop oracle on a curve thousands of points long,
/// where the prefix columns' rounding has the most room to diverge.
#[test]
fn segment_matches_the_oracle_on_a_long_piecewise_curve() {
    let (x, y) = piecewise_curve(2_000);
    let config = SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: Some(500.0) };
    let fast = segment(&x, &y, &config).unwrap();
    let prefix = PrefixOls::new(&x, &y);
    let oracle = reference(&x, &y, &config, |i, j| prefix.sse(i, j)).unwrap();
    assert_eq!(fast.score.to_bits(), oracle.score.to_bits());
    assert_eq!(fast, oracle);
    assert_eq!(fast.breakpoints.len(), 2, "both regime changes found: {:?}", fast.breakpoints);
}

//! Descriptive statistics over raw measurement samples.
//!
//! These are the primitives the paper's methodology applies *offline*, after
//! all raw observations have been retained. Nothing here is computed
//! "on the fly" during measurement — that separation is the whole point.

use crate::error::{ensure_sample, AnalysisError};
use crate::Result;

/// Arithmetic mean of a sample.
pub fn mean(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased (n−1 denominator) sample variance.
pub fn variance(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    if xs.len() < 2 {
        return Err(AnalysisError::TooFewObservations { needed: 2, got: xs.len() });
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|v| (v - m) * (v - m)).sum();
    Ok(ss / (xs.len() - 1) as f64)
}

/// Sample standard deviation (square root of [`variance`]).
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    variance(xs).map(f64::sqrt)
}

/// Coefficient of variation: `sd / mean`.
///
/// Used throughout the paper's discussion as "relative variability"; the
/// medium-message-size regions of Figure 4 stand out precisely because
/// their CV is much larger than neighbouring regimes.
pub fn coeff_of_variation(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    if m == 0.0 {
        return Err(AnalysisError::InvalidParameter("mean is zero; CV undefined"));
    }
    Ok(std_dev(xs)? / m)
}

/// Geometric mean; all values must be strictly positive.
pub fn geometric_mean(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    if xs.iter().any(|&v| v <= 0.0) {
        return Err(AnalysisError::InvalidParameter("geometric mean needs positive values"));
    }
    let log_sum: f64 = xs.iter().map(|v| v.ln()).sum();
    Ok((log_sum / xs.len() as f64).exp())
}

/// Quantile estimator, R type-7 (the default of R's `quantile`, which the
/// paper's analysis scripts used): linear interpolation between order
/// statistics.
///
/// `p` must lie in `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> Result<f64> {
    ensure_sample(xs)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(AnalysisError::InvalidParameter("quantile p outside [0,1]"));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    Ok(quantile_sorted(&sorted, p))
}

/// Where the type-7 quantile `p` falls among `n ≥ 2` ascending order
/// statistics `x`: at `x[lo] + frac · (x[hi] − x[lo])`, with `hi` equal
/// to `lo` or `lo + 1`. Every quantile path (sorted, selected,
/// rank-counted) goes through this one formula, so they round alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Type7 {
    /// Index of the lower order statistic.
    pub(crate) lo: usize,
    /// Index of the upper order statistic.
    pub(crate) hi: usize,
    frac: f64,
}

impl Type7 {
    pub(crate) fn new(n: usize, p: f64) -> Self {
        let h = (n as f64 - 1.0) * p;
        let lo = h.floor() as usize;
        Type7 { lo, hi: h.ceil() as usize, frac: h - lo as f64 }
    }

    /// The quantile, given the `lo`-th and `hi`-th order statistics.
    pub(crate) fn interpolate(self, x_lo: f64, x_hi: f64) -> f64 {
        x_lo + self.frac * (x_hi - x_lo)
    }
}

/// Type-7 quantile over an already ascending-sorted slice (no allocation).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let t = Type7::new(n, p);
    t.interpolate(sorted[t.lo], sorted[t.hi])
}

/// Type-7 quantile of an unsorted slice, found by selection instead of
/// a full sort: the slice is reordered in place, and the result is
/// bit-identical to sorting it and calling [`quantile_sorted`]: values
/// that compare equal have equal bits (except `0.0` and `-0.0`), so it
/// does not matter which of them selection picks. `p` must lie in
/// `[0, 1]`.
pub fn quantile_unsorted(xs: &mut [f64], p: f64) -> f64 {
    debug_assert!(!xs.is_empty() && (0.0..=1.0).contains(&p));
    if xs.len() == 1 {
        return xs[0];
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("finite values compare");
    let t = Type7::new(xs.len(), p);
    let (_, &mut x_lo, above) = xs.select_nth_unstable_by(t.lo, cmp);
    let x_hi = if t.hi == t.lo {
        x_lo
    } else {
        *above.iter().min_by(|a, b| cmp(a, b)).expect("hi < n leaves an element above lo")
    };
    t.interpolate(x_lo, x_hi)
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Median absolute deviation, scaled by 1.4826 to be consistent with the
/// standard deviation under normality. A robust spread estimate used by the
/// MAD outlier rule.
pub fn mad(xs: &[f64]) -> Result<f64> {
    let med = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|v| (v - med).abs()).collect();
    Ok(1.4826 * median(&deviations)?)
}

/// Minimum of a sample.
pub fn min(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    Ok(xs.iter().cloned().fold(f64::INFINITY, f64::min))
}

/// Maximum of a sample.
pub fn max(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    Ok(xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
}

/// Standardized skewness (third standardized moment, bias-uncorrected).
pub fn skewness(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    if xs.len() < 3 {
        return Err(AnalysisError::TooFewObservations { needed: 3, got: xs.len() });
    }
    let m = mean(xs)?;
    let n = xs.len() as f64;
    let m2: f64 = xs.iter().map(|v| (v - m).powi(2)).sum::<f64>() / n;
    let m3: f64 = xs.iter().map(|v| (v - m).powi(3)).sum::<f64>() / n;
    if m2 == 0.0 {
        return Ok(0.0);
    }
    Ok(m3 / m2.powf(1.5))
}

/// Excess kurtosis (fourth standardized moment minus 3, bias-uncorrected).
///
/// Strongly *negative* excess kurtosis on a per-configuration sample is a
/// cheap flag for bimodality (cf. Figure 11): a balanced two-point mixture
/// has excess kurtosis approaching −2.
pub fn excess_kurtosis(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs)?;
    if xs.len() < 4 {
        return Err(AnalysisError::TooFewObservations { needed: 4, got: xs.len() });
    }
    let m = mean(xs)?;
    let n = xs.len() as f64;
    let m2: f64 = xs.iter().map(|v| (v - m).powi(2)).sum::<f64>() / n;
    let m4: f64 = xs.iter().map(|v| (v - m).powi(4)).sum::<f64>() / n;
    if m2 == 0.0 {
        return Ok(0.0);
    }
    Ok(m4 / (m2 * m2) - 3.0)
}

/// Five-number summary plus mean/sd/MAD — the per-cell record the analysis
/// stage attaches to every factor combination.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile (type-7).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (type-7).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`NaN` when `n < 2`).
    pub sd: f64,
    /// Scaled median absolute deviation.
    pub mad: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    pub fn of(xs: &[f64]) -> Result<Self> {
        ensure_sample(xs)?;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let sd = if xs.len() >= 2 { std_dev(xs)? } else { f64::NAN };
        Ok(Summary {
            n: xs.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(xs)?,
            sd,
            mad: mad(xs)?,
        })
    }

    /// Interquartile range `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Tukey boxplot whisker positions: `q1 − 1.5·IQR` and `q3 + 1.5·IQR`,
    /// clamped to the observed min/max as conventional boxplots do.
    pub fn whiskers(&self) -> (f64, f64) {
        let lo = (self.q1 - 1.5 * self.iqr()).max(self.min);
        let hi = (self.q3 + 1.5 * self.iqr()).min(self.max);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_of_constant_sample() {
        assert!((mean(&[3.0, 3.0, 3.0]).unwrap() - 3.0).abs() < EPS);
    }

    #[test]
    fn mean_matches_hand_computation() {
        assert!((mean(&[1.0, 2.0, 4.0]).unwrap() - 7.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn variance_hand_checked() {
        // sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, SS = 32, var = 32/7
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn variance_needs_two_points() {
        assert_eq!(variance(&[1.0]), Err(AnalysisError::TooFewObservations { needed: 2, got: 1 }));
    }

    #[test]
    fn std_dev_is_sqrt_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((std_dev(&xs).unwrap().powi(2) - variance(&xs).unwrap()).abs() < EPS);
    }

    #[test]
    fn quantile_type7_matches_r() {
        // R: quantile(c(1,2,3,4), probs=c(0,.25,.5,.75,1), type=7)
        //    -> 1.00 1.75 2.50 3.25 4.00
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < EPS);
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < EPS);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < EPS);
        assert!((quantile(&xs, 1.0).unwrap() - 4.0).abs() < EPS);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn selection_quantile_matches_the_sorted_path_bit_for_bit() {
        // Ties, odd and even lengths, and p at the ends and in between.
        let samples: [&[f64]; 4] =
            [&[4.0, 1.0, 3.0, 2.0], &[2.0, 2.0, 1.0, 2.0, 9.0], &[7.5], &[3.0, 3.0]];
        for xs in samples {
            let mut sorted = xs.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for p in [0.0, 0.025, 0.1, 0.5, 0.9, 0.975, 1.0] {
                let mut scratch = xs.to_vec();
                let got = quantile_unsorted(&mut scratch, p);
                assert_eq!(got.to_bits(), quantile_sorted(&sorted, p).to_bits(), "{xs:?} p={p}");
            }
        }
    }

    #[test]
    fn quantile_rejects_bad_p() {
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        assert!((median(&[5.0, 1.0, 3.0]).unwrap() - 3.0).abs() < EPS);
        assert!((median(&[1.0, 2.0, 3.0, 10.0]).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn mad_of_known_sample() {
        // {1,1,2,2,4,6,9}: median 2, |x-2| = {1,1,0,0,2,4,7}, median 1
        let xs = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert!((mad(&xs).unwrap() - 1.4826).abs() < 1e-9);
    }

    #[test]
    fn mad_robust_to_single_outlier() {
        let clean = [10.0, 11.0, 12.0, 13.0, 14.0];
        let dirty = [10.0, 11.0, 12.0, 13.0, 1400.0];
        let m_clean = mad(&clean).unwrap();
        let m_dirty = mad(&dirty).unwrap();
        // MAD moves a little (median shifts) but stays the same magnitude,
        // unlike sd which explodes.
        assert!(m_dirty < 3.0 * m_clean);
        assert!(std_dev(&dirty).unwrap() > 100.0 * std_dev(&clean).unwrap());
    }

    #[test]
    fn geometric_mean_hand_checked() {
        assert!((geometric_mean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!(geometric_mean(&[1.0, 0.0]).is_err());
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert!(coeff_of_variation(&[5.0, 5.0, 5.0]).unwrap().abs() < EPS);
    }

    #[test]
    fn skewness_sign() {
        // Right-skewed sample -> positive skewness.
        let right = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&right).unwrap() > 0.0);
        let left = [10.0, 10.0, 10.0, 10.0, 1.0];
        assert!(skewness(&left).unwrap() < 0.0);
        let sym = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&sym).unwrap().abs() < EPS);
    }

    #[test]
    fn kurtosis_of_two_point_mixture_is_negative() {
        // Balanced two-point mixture: excess kurtosis -> -2.
        let xs = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        assert!((excess_kurtosis(&xs).unwrap() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_consistency() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 5.0);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert!((s.mean - 5.0).abs() < EPS);
        let (lo, hi) = s.whiskers();
        assert!(lo >= s.min && hi <= s.max);
    }

    #[test]
    fn min_max_agree_with_sort() {
        let xs = [3.0, -1.0, 2.5];
        assert_eq!(min(&xs).unwrap(), -1.0);
        assert_eq!(max(&xs).unwrap(), 3.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(Summary::of(&[]).is_err());
    }
}

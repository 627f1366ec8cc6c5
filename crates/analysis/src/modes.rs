//! One-dimensional mode detection.
//!
//! Figure 11 of the paper shows bandwidth measurements with **two modes**
//! (a fast one and a ~5× slower one occurring in 20–25 % of runs, caused by
//! an interloper process under the real-time scheduling policy). "By
//! looking solely at mean bandwidth values and variance … the existence of
//! two modes is completely hidden." This module makes the modes visible:
//! a 1-D two-means split with a separation criterion decides whether a
//! sample is better described by one cluster or two.

use crate::error::{ensure_sample, AnalysisError};
use crate::Result;

/// Result of a two-mode analysis of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSplit {
    /// Center of the lower mode.
    pub low_center: f64,
    /// Center of the upper mode.
    pub high_center: f64,
    /// Threshold separating the modes.
    pub threshold: f64,
    /// Fraction of observations in the lower mode.
    pub low_fraction: f64,
    /// Separation score: distance between centers divided by the pooled
    /// within-mode standard deviation. Large (≳ 2) means well separated —
    /// but note a uniform sample already scores ≈ 3.5, so separation alone
    /// cannot establish bimodality; see [`ModeSplit::gap_ratio`].
    pub separation: f64,
    /// Width of the empty interval at the cut (distance between the two
    /// observations straddling the threshold) divided by the sample range.
    /// Unimodal samples have a tiny gap (≈ 1/n of the range); genuinely
    /// bimodal samples have a macroscopic one.
    pub gap_ratio: f64,
    /// Gap at the cut divided by the *median positive* gap between adjacent
    /// distinct observations. Robust to discrete-valued samples: uniform
    /// data (continuous or integer-stepped) scores ≈ 1, gapped mixtures
    /// score ≫ 1.
    pub gap_vs_typical: f64,
    /// Mask: `true` where the observation belongs to the lower mode.
    pub low_mask: Vec<bool>,
}

impl ModeSplit {
    /// Whether the split is strong enough to call the sample bimodal.
    ///
    /// Requires clear separation, a macroscopic empty gap between the
    /// clusters, and a non-trivial share in each mode (at least
    /// `min_fraction` in the smaller one). The gap requirement is what
    /// rejects uniform/Gaussian samples, whose optimal 2-means split is
    /// well separated but not *gapped*.
    pub fn is_bimodal(&self, min_separation: f64, min_fraction: f64) -> bool {
        let n = self.low_mask.len();
        let minority_count = self
            .low_mask
            .iter()
            .filter(|&&b| b)
            .count()
            .min(self.low_mask.iter().filter(|&&b| !b).count());
        let minority = self.low_fraction.min(1.0 - self.low_fraction);
        // Small samples produce spurious gaps (Gaussian tail spacings can
        // dwarf the median spacing even at n = 10): demand enough mass on
        // both sides before calling anything a mode.
        n >= 24
            && minority_count >= 4
            && self.separation >= min_separation
            && minority >= min_fraction
            && self.gap_ratio >= 0.05
            && self.gap_vs_typical >= 3.0
    }

    /// Ratio `high_center / low_center` (∞ when the low center is 0).
    pub fn center_ratio(&self) -> f64 {
        if self.low_center == 0.0 {
            f64::INFINITY
        } else {
            self.high_center / self.low_center
        }
    }
}

/// Splits a sample into two modes with 1-D k-means (k = 2, exact via sorted
/// threshold scan — for 1-D data the optimal 2-means partition is a
/// threshold, so we scan all n−1 thresholds and pick the minimum
/// within-cluster sum of squares).
pub fn two_means(xs: &[f64]) -> Result<ModeSplit> {
    ensure_sample(xs)?;
    if xs.len() < 4 {
        return Err(AnalysisError::TooFewObservations { needed: 4, got: xs.len() });
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let n = sorted.len();

    // Prefix sums for O(1) cluster statistics at each cut.
    let mut pref = Vec::with_capacity(n + 1);
    let mut pref2 = Vec::with_capacity(n + 1);
    pref.push(0.0);
    pref2.push(0.0);
    for &v in &sorted {
        pref.push(pref.last().unwrap() + v);
        pref2.push(pref2.last().unwrap() + v * v);
    }
    let wss = |a: usize, b: usize| -> f64 {
        // within-sum-of-squares of sorted[a..b]
        let m = (b - a) as f64;
        let s = pref[b] - pref[a];
        let s2 = pref2[b] - pref2[a];
        (s2 - s * s / m).max(0.0)
    };

    let mut best_cut = 1;
    let mut best = f64::INFINITY;
    for cut in 1..n {
        let total = wss(0, cut) + wss(cut, n);
        if total < best {
            best = total;
            best_cut = cut;
        }
    }

    let low_n = best_cut;
    let high_n = n - best_cut;
    let low_center = (pref[best_cut] - pref[0]) / low_n as f64;
    let high_center = (pref[n] - pref[best_cut]) / high_n as f64;
    let threshold = (sorted[best_cut - 1] + sorted[best_cut]) / 2.0;

    // Pooled within-mode sd.
    let pooled_var = (wss(0, best_cut) + wss(best_cut, n)) / (n as f64 - 2.0).max(1.0);
    let pooled_sd = pooled_var.sqrt();
    let separation = if pooled_sd == 0.0 {
        if high_center > low_center {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (high_center - low_center) / pooled_sd
    };

    let range = sorted[n - 1] - sorted[0];
    let cut_gap = sorted[best_cut] - sorted[best_cut - 1];
    let gap_ratio = if range == 0.0 { 0.0 } else { cut_gap / range };
    // Typical spacing: median positive gap *excluding the cut itself* —
    // a perfectly two-point sample has no other positive gaps, which
    // means "infinitely atypical", not "typical".
    let mut other_gaps: Vec<f64> = sorted
        .windows(2)
        .enumerate()
        .filter(|&(i, _)| i != best_cut - 1)
        .map(|(_, w)| w[1] - w[0])
        .filter(|&g| g > 0.0)
        .collect();
    let gap_vs_typical = if other_gaps.is_empty() {
        if cut_gap > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        other_gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        cut_gap / other_gaps[other_gaps.len() / 2]
    };

    let low_mask = xs.iter().map(|&v| v <= threshold).collect();
    Ok(ModeSplit {
        low_center,
        high_center,
        threshold,
        low_fraction: low_n as f64 / n as f64,
        separation,
        gap_ratio,
        gap_vs_typical,
        low_mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixture(low: f64, high: f64, n_low: usize, n_high: usize) -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..n_low {
            v.push(low + (i % 5) as f64 * 0.01 * low.max(1.0));
        }
        for i in 0..n_high {
            v.push(high + (i % 5) as f64 * 0.01 * high);
        }
        // interleave to ensure order independence
        let mut out = Vec::with_capacity(v.len());
        let (a, b) = v.split_at(n_low);
        let mut ai = a.iter();
        let mut bi = b.iter();
        loop {
            match (ai.next(), bi.next()) {
                (None, None) => break,
                (x, y) => {
                    if let Some(&x) = x {
                        out.push(x);
                    }
                    if let Some(&y) = y {
                        out.push(y);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn detects_figure11_style_mixture() {
        // low mode at ~1/5 the bandwidth, 25% of runs — exactly Fig 11.
        let xs = mixture(300.0, 1500.0, 10, 30);
        let split = two_means(&xs).unwrap();
        assert!(split.is_bimodal(2.0, 0.05));
        assert!((split.low_fraction - 0.25).abs() < 0.05);
        assert!((split.center_ratio() - 5.0).abs() < 0.5);
    }

    #[test]
    fn unimodal_sample_not_bimodal() {
        let xs: Vec<f64> = (0..40).map(|i| 100.0 + (i % 7) as f64).collect();
        assert!(!two_means(&xs).unwrap().is_bimodal(2.0, 0.05));
    }

    #[test]
    fn mask_agrees_with_threshold() {
        let xs = mixture(10.0, 100.0, 8, 8);
        let split = two_means(&xs).unwrap();
        for (&v, &m) in xs.iter().zip(&split.low_mask) {
            assert_eq!(m, v <= split.threshold);
        }
    }

    #[test]
    fn centers_ordered() {
        let xs = mixture(5.0, 50.0, 10, 10);
        let s = two_means(&xs).unwrap();
        assert!(s.low_center < s.threshold && s.threshold < s.high_center);
    }

    #[test]
    fn mean_and_sd_hide_what_modes_reveal() {
        // The pitfall demonstration as a test: two samples with (nearly)
        // equal mean/sd, one unimodal, one bimodal.
        let bimodal = mixture(0.0, 10.0, 20, 20);
        let unimodal: Vec<f64> = (0..40).map(|i| 5.0 + ((i % 21) as f64 - 10.0) / 2.0).collect();
        let m1 = crate::descriptive::mean(&bimodal).unwrap();
        let m2 = crate::descriptive::mean(&unimodal).unwrap();
        assert!((m1 - m2).abs() < 1.0, "means should be similar");
        assert!(two_means(&bimodal).unwrap().is_bimodal(2.0, 0.05));
        assert!(!two_means(&unimodal).unwrap().is_bimodal(2.0, 0.05));
    }

    #[test]
    fn constant_sample_is_unimodal() {
        let xs = [5.0; 10];
        let s = two_means(&xs).unwrap();
        assert!(!s.is_bimodal(2.0, 0.05));
    }

    #[test]
    fn order_independent() {
        let mut xs = mixture(1.0, 9.0, 12, 12);
        let s1 = two_means(&xs).unwrap();
        xs.reverse();
        let s2 = two_means(&xs).unwrap();
        assert!((s1.threshold - s2.threshold).abs() < 1e-12);
        assert!((s1.low_fraction - s2.low_fraction).abs() < 1e-12);
    }

    #[test]
    fn too_small_rejected() {
        assert!(two_means(&[1.0, 2.0, 3.0]).is_err());
    }
}

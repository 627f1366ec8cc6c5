//! Sequence-order diagnostics: is a series of measurements temporally
//! independent?
//!
//! Randomization guarantees that factor levels are independent of *time*
//! — but only the raw sequence can show whether time itself mattered.
//! Two classical checks:
//!
//! * [`autocorrelation`] — serial correlation at a given lag; a bursty
//!   perturbation (paper §III-1) leaves strong positive lag-1
//!   autocorrelation in the sequence-ordered residuals;
//! * [`runs_test`] — the Wald–Wolfowitz runs test around the median:
//!   temporally clustered slow phases (Figure 11) produce far fewer runs
//!   than an independent series would.

use crate::descriptive;
use crate::error::{ensure_sample, AnalysisError};
use crate::Result;

/// Sample autocorrelation of `xs` at `lag`.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Result<f64> {
    ensure_sample(xs)?;
    if lag == 0 {
        return Ok(1.0);
    }
    if xs.len() <= lag + 1 {
        return Err(AnalysisError::TooFewObservations { needed: lag + 2, got: xs.len() });
    }
    let mean = descriptive::mean(xs)?;
    let denom: f64 = xs.iter().map(|v| (v - mean) * (v - mean)).sum();
    if denom == 0.0 {
        return Ok(0.0);
    }
    let num: f64 = xs.windows(lag + 1).map(|w| (w[0] - mean) * (w[lag] - mean)).sum();
    Ok(num / denom)
}

/// Result of a Wald–Wolfowitz runs test around the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunsTest {
    /// Number of runs observed.
    pub runs: usize,
    /// Expected runs under independence.
    pub expected: f64,
    /// Normal-approximation z score (negative = fewer runs than expected
    /// = temporal clustering).
    pub z: f64,
}

/// Runs test of `xs` around its median. Values equal to the median are
/// dropped (the standard convention).
pub fn runs_test(xs: &[f64]) -> Result<RunsTest> {
    ensure_sample(xs)?;
    let med = descriptive::median(xs)?;
    let signs: Vec<bool> = xs.iter().filter(|&&v| v != med).map(|&v| v > med).collect();
    let n_plus = signs.iter().filter(|&&b| b).count() as f64;
    let n_minus = signs.len() as f64 - n_plus;
    if n_plus < 1.0 || n_minus < 1.0 {
        return Err(AnalysisError::TooFewObservations { needed: 2, got: signs.len() });
    }
    let runs = 1 + signs.windows(2).filter(|w| w[0] != w[1]).count();
    let n = n_plus + n_minus;
    let expected = 2.0 * n_plus * n_minus / n + 1.0;
    let var = (expected - 1.0) * (expected - 2.0) / (n - 1.0);
    let z = if var > 0.0 { (runs as f64 - expected) / var.sqrt() } else { 0.0 };
    Ok(RunsTest { runs, expected, z })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_noise(i: usize) -> f64 {
        (((i as f64) * 12.9898).sin() * 43758.5453).fract().abs()
    }

    #[test]
    fn lag_zero_is_one() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(autocorrelation(&xs, 0).unwrap(), 1.0);
    }

    #[test]
    fn independent_series_low_autocorr() {
        let xs: Vec<f64> = (0..500).map(hash_noise).collect();
        let r = autocorrelation(&xs, 1).unwrap();
        assert!(r.abs() < 0.15, "r = {r}");
    }

    #[test]
    fn bursty_series_high_autocorr() {
        // a long slow window inside an otherwise flat series
        let xs: Vec<f64> = (0..300)
            .map(|i| if (100..160).contains(&i) { 5.0 } else { 1.0 } + 0.01 * hash_noise(i))
            .collect();
        let r = autocorrelation(&xs, 1).unwrap();
        assert!(r > 0.8, "r = {r}");
    }

    #[test]
    fn alternating_series_negative_autocorr() {
        let xs: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!(autocorrelation(&xs, 1).unwrap() < -0.9);
    }

    #[test]
    fn runs_test_detects_clustering() {
        let mut xs = vec![1.0; 50];
        xs.extend(vec![10.0; 50]);
        let t = runs_test(&xs).unwrap();
        assert_eq!(t.runs, 2);
        assert!(t.z < -1.64, "z = {}", t.z);
    }

    #[test]
    fn runs_test_independent_not_clustered() {
        let xs: Vec<f64> = (0..300).map(hash_noise).collect();
        let t = runs_test(&xs).unwrap();
        assert!(t.z >= -1.64, "z = {}", t.z);
        // expected runs about n/2 + 1
        assert!((t.expected - 151.0).abs() < 10.0);
    }

    #[test]
    fn runs_test_alternating_has_many_runs() {
        let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { 10.0 }).collect();
        let t = runs_test(&xs).unwrap();
        assert_eq!(t.runs, 100);
        assert!(t.z > 1.64, "alternation is the opposite of clustering");
    }

    #[test]
    fn input_validation() {
        assert!(autocorrelation(&[], 1).is_err());
        assert!(autocorrelation(&[1.0, 2.0], 5).is_err());
        assert!(runs_test(&[5.0, 5.0, 5.0]).is_err(), "all values at the median");
    }
}

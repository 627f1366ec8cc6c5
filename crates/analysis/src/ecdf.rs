//! Empirical cumulative distribution functions.
//!
//! The Confidence tool (Settlemyer et al., cited in paper §II-B) argued for
//! reporting the full distribution users actually face instead of summary
//! statistics. An ECDF over retained raw observations is the cheapest way
//! to do that.

use crate::error::ensure_sample;
use crate::Result;

/// An empirical CDF built from a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of `xs`. Fails on empty or non-finite input.
    pub fn new(xs: &[f64]) -> Result<Self> {
        ensure_sample(xs)?;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Ecdf { sorted })
    }

    /// `F(x)` — the fraction of observations `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Generalized inverse `F⁻¹(p)`: the smallest observation `v` with
    /// `F(v) >= p`. `p` is clamped to `(0, 1]`.
    pub fn inverse(&self, p: f64) -> f64 {
        let p = p.clamp(f64::MIN_POSITIVE, 1.0);
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_step_behaviour() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_with_ties() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]).unwrap();
        assert!((e.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_is_generalized_quantile() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.26), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        assert_eq!(e.inverse(0.0), 10.0); // clamped
    }

    #[test]
    fn inverse_then_eval_covers_p() {
        let e = Ecdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        for i in 1..=10 {
            let p = i as f64 / 10.0;
            assert!(e.eval(e.inverse(p)) >= p - 1e-12);
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(Ecdf::new(&[]).is_err());
    }
}

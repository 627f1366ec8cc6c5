//! Ordinary and weighted least-squares on a single predictor.
//!
//! Network models of the LogP family are (piecewise) *affine in message
//! size*: `T(s) = intercept + slope·s`, where the intercept captures latency
//! or per-message overhead and the slope captures the per-byte gap `G` (the
//! inverse bandwidth). Simple OLS is therefore the workhorse of every model
//! instantiation in this repository.

use crate::error::{ensure_paired, AnalysisError};
use crate::Result;

/// A fitted line `y = intercept + slope·x` with fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Estimated intercept.
    pub intercept: f64,
    /// Estimated slope.
    pub slope: f64,
    /// Residual sum of squares.
    pub sse: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of observations used.
    pub n: usize,
    /// Standard error of the slope estimate (`NaN` when `n <= 2`).
    pub slope_se: f64,
    /// Standard error of the intercept estimate (`NaN` when `n <= 2`).
    pub intercept_se: f64,
}

impl LinearFit {
    /// Predicted response at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Residuals `y_i − ŷ_i` for the given data.
    pub fn residuals(&self, x: &[f64], y: &[f64]) -> Vec<f64> {
        x.iter().zip(y).map(|(&xi, &yi)| yi - self.predict(xi)).collect()
    }

    /// Root-mean-square error of the fit.
    pub fn rmse(&self) -> f64 {
        (self.sse / self.n as f64).sqrt()
    }
}

/// Fits `y = a + b·x` by ordinary least squares.
pub fn ols(x: &[f64], y: &[f64]) -> Result<LinearFit> {
    let w = vec![1.0; x.len()];
    weighted_ols(x, y, &w)
}

/// Fits `y = a + b·x` by weighted least squares with weights `w >= 0`.
pub(crate) fn weighted_ols(x: &[f64], y: &[f64], w: &[f64]) -> Result<LinearFit> {
    ensure_paired(x, y)?;
    if w.len() != x.len() {
        return Err(AnalysisError::LengthMismatch { x: x.len(), y: w.len() });
    }
    if x.len() < 2 {
        return Err(AnalysisError::TooFewObservations { needed: 2, got: x.len() });
    }
    if w.iter().any(|&wi| !wi.is_finite() || wi < 0.0) {
        return Err(AnalysisError::InvalidParameter("weights must be finite and >= 0"));
    }
    let sw: f64 = w.iter().sum();
    if sw <= 0.0 {
        return Err(AnalysisError::InvalidParameter("all weights zero"));
    }
    let mx: f64 = x.iter().zip(w).map(|(xi, wi)| wi * xi).sum::<f64>() / sw;
    let my: f64 = y.iter().zip(w).map(|(yi, wi)| wi * yi).sum::<f64>() / sw;
    let sxx: f64 = x.iter().zip(w).map(|(xi, wi)| wi * (xi - mx) * (xi - mx)).sum();
    if sxx == 0.0 {
        return Err(AnalysisError::DegeneratePredictor);
    }
    let sxy: f64 = x.iter().zip(y).zip(w).map(|((xi, yi), wi)| wi * (xi - mx) * (yi - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;

    let mut sse = 0.0;
    let mut syy = 0.0;
    for ((&xi, &yi), &wi) in x.iter().zip(y).zip(w) {
        let e = yi - (intercept + slope * xi);
        sse += wi * e * e;
        syy += wi * (yi - my) * (yi - my);
    }
    let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - sse / syy };
    let n = x.len();
    let (slope_se, intercept_se) = if n > 2 {
        let s2 = sse / (n as f64 - 2.0);
        ((s2 / sxx).sqrt(), (s2 * (1.0 / sw + mx * mx / sxx)).sqrt())
    } else {
        (f64::NAN, f64::NAN)
    };
    Ok(LinearFit { intercept, slope, sse, r_squared, n, slope_se, intercept_se })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn exact_line_recovered() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 2.5 + 1.5 * v).collect();
        let f = ols(&x, &y).unwrap();
        assert!((f.intercept - 2.5).abs() < EPS);
        assert!((f.slope - 1.5).abs() < EPS);
        assert!(f.sse < EPS);
        assert!((f.r_squared - 1.0).abs() < EPS);
    }

    #[test]
    fn hand_checked_fit() {
        // x = 1..5, y = {2, 4, 5, 4, 5}: slope = 0.6, intercept = 2.2
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 5.0, 4.0, 5.0];
        let f = ols(&x, &y).unwrap();
        assert!((f.slope - 0.6).abs() < EPS);
        assert!((f.intercept - 2.2).abs() < EPS);
    }

    #[test]
    fn residuals_orthogonal_to_predictor() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [1.2, 1.9, 3.4, 3.8, 5.5, 5.9];
        let f = ols(&x, &y).unwrap();
        let r = f.residuals(&x, &y);
        let dot: f64 = r.iter().zip(&x).map(|(ri, xi)| ri * xi).sum();
        let sum: f64 = r.iter().sum();
        assert!(dot.abs() < 1e-9, "residuals not orthogonal: {dot}");
        assert!(sum.abs() < 1e-9, "residuals do not sum to zero: {sum}");
    }

    #[test]
    fn degenerate_predictor_rejected() {
        assert_eq!(
            ols(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(AnalysisError::DegeneratePredictor)
        );
    }

    #[test]
    fn weighted_zero_weight_ignores_point() {
        // Fit ignores the wild third point when its weight is zero.
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 100.0];
        let f = weighted_ols(&x, &y, &[1.0, 1.0, 0.0]).unwrap();
        assert!((f.slope - 1.0).abs() < EPS);
        assert!(f.intercept.abs() < EPS);
    }

    #[test]
    fn weights_must_be_valid() {
        assert!(weighted_ols(&[0.0, 1.0], &[0.0, 1.0], &[1.0, -1.0]).is_err());
        assert!(weighted_ols(&[0.0, 1.0], &[0.0, 1.0], &[0.0, 0.0]).is_err());
    }

    #[test]
    fn prediction_interpolates() {
        let x = [0.0, 10.0];
        let y = [5.0, 25.0];
        let f = ols(&x, &y).unwrap();
        assert!((f.predict(5.0) - 15.0).abs() < EPS);
    }

    #[test]
    fn slope_se_shrinks_with_more_data() {
        // Same line + same noise pattern, more points -> smaller slope SE.
        let make = |n: usize| -> (Vec<f64>, Vec<f64>) {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let y: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, v)| 2.0 * v + if i % 2 == 0 { 0.5 } else { -0.5 })
                .collect();
            (x, y)
        };
        let (x1, y1) = make(8);
        let (x2, y2) = make(64);
        let f1 = ols(&x1, &y1).unwrap();
        let f2 = ols(&x2, &y2).unwrap();
        assert!(f2.slope_se < f1.slope_se);
    }

    #[test]
    fn r_squared_between_zero_and_one_for_noise() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [3.0, 1.0, 4.0, 1.0, 5.0];
        let f = ols(&x, &y).unwrap();
        assert!(f.r_squared >= 0.0 && f.r_squared <= 1.0);
    }
}

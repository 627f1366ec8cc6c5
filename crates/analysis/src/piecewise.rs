//! Piecewise-linear regression with analyst-provided breakpoints.
//!
//! Paper §V-A: "The breakpoints are manually provided by the analyst and a
//! piecewise linear regression is calculated for each of the three
//! operations." This module implements exactly that supervised procedure —
//! the analyst inspects the raw scatter, proposes breakpoints (protocol
//! switch candidates), and the fit plus its diagnostics let a human "check
//! the linearity assumption, if the breakpoints are coherent, and the
//! outcome of the regressions".

use crate::error::AnalysisError;
use crate::regression::{ols, LinearFit};
use crate::Result;

/// One fitted segment of a piecewise model, over `[lo, hi)` in predictor
/// space (the last segment is closed on the right).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Left edge of the segment's domain.
    pub lo: f64,
    /// Right edge of the segment's domain.
    pub hi: f64,
    /// The affine fit within the segment.
    pub fit: LinearFit,
}

/// A piecewise-linear model: independent affine fits between consecutive
/// breakpoints. Segments are *not* constrained to join continuously —
/// protocol switches in real MPI stacks genuinely jump (cf. the eager →
/// rendez-vous step of Figure 4), so forcing continuity would bias the fit.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    segments: Vec<Segment>,
}

impl PiecewiseLinear {
    /// Fits a piecewise model over `x`/`y` with the given interior
    /// `breakpoints` (ascending, strictly inside the data range). Each
    /// segment needs at least two distinct x values; a segment that has
    /// fewer fails with [`AnalysisError::Within`] naming its index, its
    /// bounds and its count of distinct x.
    pub fn fit(x: &[f64], y: &[f64], breakpoints: &[f64]) -> Result<Self> {
        crate::error::ensure_paired(x, y)?;
        if breakpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AnalysisError::InvalidParameter("breakpoints must be strictly ascending"));
        }
        let xmin = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let xmax = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut edges = Vec::with_capacity(breakpoints.len() + 2);
        edges.push(xmin);
        edges.extend_from_slice(breakpoints);
        edges.push(xmax);
        if edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AnalysisError::InvalidParameter(
                "breakpoints must lie strictly inside the data range",
            ));
        }

        // Fast path for x already ascending (the segmentation search and
        // most callers sort first): each segment is a contiguous slice
        // found by binary search, so the fit is O(n + s·log n) instead of
        // rescanning all n points for each of the s segments.
        if x.windows(2).all(|w| w[0] <= w[1]) {
            let mut segments = Vec::with_capacity(edges.len() - 1);
            for (i, w) in edges.windows(2).enumerate() {
                let (lo, hi) = (w[0], w[1]);
                let last = i == edges.len() - 2;
                let a = x.partition_point(|&xi| xi < lo);
                let b = if last { x.len() } else { x.partition_point(|&xi| xi < hi) };
                let fit = fit_segment(&x[a..b], &y[a..b])
                    .map_err(|e| segment_error(e, i, lo, hi, last, &x[a..b]))?;
                segments.push(Segment { lo, hi, fit });
            }
            return Ok(PiecewiseLinear { segments });
        }

        let mut segments = Vec::with_capacity(edges.len() - 1);
        for (i, w) in edges.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            let last = i == edges.len() - 2;
            let mut sx = Vec::new();
            let mut sy = Vec::new();
            for (&xi, &yi) in x.iter().zip(y) {
                let inside = if last { xi >= lo && xi <= hi } else { xi >= lo && xi < hi };
                if inside {
                    sx.push(xi);
                    sy.push(yi);
                }
            }
            let fit = fit_segment(&sx, &sy).map_err(|e| segment_error(e, i, lo, hi, last, &sx))?;
            segments.push(Segment { lo, hi, fit });
        }
        Ok(PiecewiseLinear { segments })
    }

    /// The fitted segments, left to right.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments (breakpoints + 1).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total residual sum of squares across all segments.
    pub fn sse(&self) -> f64 {
        self.segments.iter().map(|s| s.fit.sse).sum()
    }
}

/// The OLS fit of one segment's points (at least two of them).
fn fit_segment(x: &[f64], y: &[f64]) -> Result<LinearFit> {
    if x.len() < 2 {
        return Err(AnalysisError::TooFewObservations { needed: 2, got: x.len() });
    }
    ols(x, y)
}

/// `cause`, prefixed with segment `index`, its bounds (the last segment
/// is closed on the right) and how many distinct x values `x` holds.
fn segment_error(
    cause: AnalysisError,
    index: usize,
    lo: f64,
    hi: f64,
    last: bool,
    x: &[f64],
) -> AnalysisError {
    let mut distinct = x.to_vec();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let close = if last { ']' } else { ')' };
    cause.within(format!("segment {index} [{lo}, {hi}{close} with {} distinct x", distinct.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a two-regime dataset: slope 1 before x=10, slope 5 after,
    /// with a jump of 20 at the break.
    fn two_regime() -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let xi = i as f64;
            x.push(xi);
            y.push(if xi < 10.0 { xi } else { 20.0 + 5.0 * xi });
        }
        (x, y)
    }

    #[test]
    fn single_segment_equals_plain_ols() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let pw = PiecewiseLinear::fit(&x, &y, &[]).unwrap();
        assert_eq!(pw.num_segments(), 1);
        let f = ols(&x, &y).unwrap();
        assert!((pw.segments()[0].fit.slope - f.slope).abs() < 1e-12);
    }

    #[test]
    fn correct_break_gives_perfect_fit() {
        let (x, y) = two_regime();
        let pw = PiecewiseLinear::fit(&x, &y, &[10.0]).unwrap();
        assert!(pw.sse() < 1e-18);
        assert!((pw.segments()[0].fit.slope - 1.0).abs() < 1e-9);
        assert!((pw.segments()[1].fit.slope - 5.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_never_worse_than_single_line() {
        let (x, y) = two_regime();
        let single = PiecewiseLinear::fit(&x, &y, &[]).unwrap();
        let double = PiecewiseLinear::fit(&x, &y, &[10.0]).unwrap();
        assert!(double.sse() <= single.sse() + 1e-12);
    }

    #[test]
    fn sorted_fast_path_matches_general_scan() {
        let (x, y) = two_regime();
        let sorted = PiecewiseLinear::fit(&x, &y, &[10.0]).unwrap();
        // same data, deliberately out of order -> general scan path
        let mut xr = x.clone();
        let mut yr = y.clone();
        xr.reverse();
        yr.reverse();
        let scanned = PiecewiseLinear::fit(&xr, &yr, &[10.0]).unwrap();
        assert_eq!(sorted.num_segments(), scanned.num_segments());
        for (a, b) in sorted.segments().iter().zip(scanned.segments()) {
            assert!((a.fit.slope - b.fit.slope).abs() < 1e-12);
            assert!((a.fit.intercept - b.fit.intercept).abs() < 1e-12);
        }
    }

    #[test]
    fn unsorted_breakpoints_rejected() {
        let (x, y) = two_regime();
        assert!(PiecewiseLinear::fit(&x, &y, &[12.0, 4.0]).is_err());
    }

    #[test]
    fn breakpoints_outside_range_rejected() {
        let (x, y) = two_regime();
        assert!(PiecewiseLinear::fit(&x, &y, &[100.0]).is_err());
        assert!(PiecewiseLinear::fit(&x, &y, &[-5.0]).is_err());
    }

    #[test]
    fn segment_with_one_point_rejected() {
        let x = [0.0, 1.0, 2.0, 10.0];
        let y = [0.0, 1.0, 2.0, 10.0];
        // break at 9.0 leaves only one point on the right
        let err = PiecewiseLinear::fit(&x, &y, &[9.0]).unwrap_err();
        assert!(matches!(
            &err,
            AnalysisError::Within { cause, .. }
                if matches!(**cause, AnalysisError::TooFewObservations { needed: 2, got: 1 })
        ));
        assert_eq!(
            err.to_string(),
            "segment 1 [9, 10] with 1 distinct x: need at least 2 observations, got 1"
        );
    }

    #[test]
    fn failed_segment_is_named_on_both_paths() {
        // x = 5 three times inside [4, 6): one distinct x, no slope
        let x = [0.0, 1.0, 2.0, 5.0, 5.0, 5.0, 8.0, 9.0];
        let y = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let want = "segment 1 [4, 6) with 1 distinct x: all predictor values identical; \
                    slope undefined";
        let sorted = PiecewiseLinear::fit(&x, &y, &[4.0, 6.0]).unwrap_err();
        assert_eq!(sorted.to_string(), want);
        let (mut xr, mut yr) = (x.to_vec(), y.to_vec());
        xr.reverse();
        yr.reverse();
        let scanned = PiecewiseLinear::fit(&xr, &yr, &[4.0, 6.0]).unwrap_err();
        assert_eq!(scanned, sorted);
    }
}

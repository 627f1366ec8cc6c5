//! Incremental least squares over contiguous stretches via prefix sums.
//!
//! The free segmentation DP of [`crate::segmented`] evaluates the OLS
//! residual sum of squares of `O(n²)` candidate stretches `[i, j)`. A
//! naive refit costs `O(j − i)` per candidate, which makes the whole
//! search `O(n³)` — prohibitive on Figure-4-sized campaigns (thousands of
//! points). [`PrefixOls`] precomputes prefix sums of the (globally
//! centered) moments once in `O(n)` and then answers any stretch's SSE in
//! `O(1)`, giving an `O(n²)` search overall.
//!
//! Numerical care: the raw moments `Σx², Σxy` of benchmark data (message
//! sizes up to 2²², times in µs) overflow the comfortable precision range
//! of running sums. All sums are therefore taken over *globally centered*
//! coordinates `(x − x̄, y − ȳ)`, which keeps catastrophic cancellation
//! in the per-stretch second moments at bay; the reference-vs-prefix
//! property test in `tests/proptests.rs` pins the agreement to a relative
//! error of 1e-9.

use crate::regression::ols;

/// A Neumaier (improved Kahan) compensated accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct Compensated {
    sum: f64,
    comp: f64,
}

impl Compensated {
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        self.comp +=
            if self.sum.abs() >= v.abs() { (self.sum - t) + v } else { (v - t) + self.sum };
        self.sum = t;
    }
}

/// One compensated prefix-sum column, stored struct-of-arrays: entry
/// `k` is the Neumaier pair `(sum[k], comp[k])` after the first `k`
/// values. Separate `sum`/`comp` vectors let [`PrefixOls::sse_row`]
/// stream each half as a contiguous slice.
#[derive(Debug, Clone)]
struct Column {
    sum: Vec<f64>,
    comp: Vec<f64>,
}

impl Column {
    fn with_capacity(n: usize) -> Self {
        let mut col = Column { sum: Vec::with_capacity(n + 1), comp: Vec::with_capacity(n + 1) };
        col.push(Compensated::default());
        col
    }

    fn push(&mut self, acc: Compensated) {
        self.sum.push(acc.sum);
        self.comp.push(acc.comp);
    }

    /// Entry `j` and the `sum`/`comp` slices of the entries in `starts`:
    /// the operands of every `column[j] − column[i]` with `i` in `starts`.
    fn row(&self, starts: std::ops::Range<usize>, j: usize) -> (f64, f64, &[f64], &[f64]) {
        (self.sum[j], self.comp[j], &self.sum[starts.clone()], &self.comp[starts])
    }

    /// `column[j] − column[i]`, see [`diff`].
    #[inline(always)]
    fn diff(&self, i: usize, j: usize) -> f64 {
        diff(self.sum[j], self.comp[j], self.sum[i], self.comp[i])
    }
}

/// Prefix-sum tables over a sorted-by-x dataset answering "what is the
/// OLS SSE of the stretch `[i, j)`?" in constant time.
#[derive(Debug, Clone)]
pub struct PrefixOls {
    /// Global mean of x (centering offset).
    mean_x: f64,
    /// Global mean of y (centering offset).
    mean_y: f64,
    /// Prefix sums of centered x.
    px: Column,
    /// Prefix sums of centered y.
    py: Column,
    /// Prefix sums of centered x².
    pxx: Column,
    /// Prefix sums of centered x·y.
    pxy: Column,
    /// Prefix sums of centered y².
    pyy: Column,
}

/// Difference `b − a` of two compensated prefix entries, carried out in
/// the two-float representation: the principal sums subtract with little
/// cancellation error (they share magnitude), and the compensation terms
/// restore the bits a single rounded f64 per entry would lose.
#[inline(always)]
fn diff(b_sum: f64, b_comp: f64, a_sum: f64, a_comp: f64) -> f64 {
    (b_sum - a_sum) + (b_comp - a_comp)
}

/// Centered moments of one stretch of `m` points, from the prefix
/// differences of the five columns. This is the single formula behind
/// [`PrefixOls::sse`], [`PrefixOls::line`] and [`PrefixOls::sse_row`],
/// so the three cannot drift apart bit-wise.
#[derive(Clone, Copy)]
struct Moments {
    m: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    syy: f64,
}

impl Moments {
    #[inline(always)]
    fn new(m: f64, [sx, sy, dxx, dxy, dyy]: [f64; 5]) -> Self {
        Moments {
            m,
            sx,
            sy,
            sxx: dxx - sx * sx / m,
            sxy: dxy - sx * sy / m,
            syy: dyy - sy * sy / m,
        }
    }

    /// Residual sum of squares of a stretch of at least two points.
    /// Branch-free (every term is computed, then selected), so a loop over
    /// many stretches vectorizes.
    #[inline(always)]
    fn sse(&self, two_points: bool) -> f64 {
        let fit = (self.syy - self.sxy * self.sxy / self.sxx).max(0.0);
        // Two points with distinct x are fitted exactly; computing the
        // zero through the moment formula would instead leave
        // cancellation residue of the global moments' magnitude.
        let fit = if two_points { 0.0 } else { fit };
        // All x in the stretch are (numerically) equal: the naive fit
        // reports DegeneratePredictor.
        if self.sxx <= 0.0 {
            f64::INFINITY
        } else {
            fit
        }
    }
}

impl PrefixOls {
    /// Builds the tables in `O(n)`. `x` and `y` must be the same length;
    /// the stretch queries refer to indices of these slices (callers sort
    /// by x first when segmenting a response curve).
    ///
    /// # Panics
    /// Panics when `x` and `y` differ in length.
    pub fn new(x: &[f64], y: &[f64]) -> Self {
        assert_eq!(x.len(), y.len(), "paired data required");
        let n = x.len();
        let mean_x = if n == 0 { 0.0 } else { x.iter().sum::<f64>() / n as f64 };
        let mean_y = if n == 0 { 0.0 } else { y.iter().sum::<f64>() / n as f64 };
        // Neumaier-compensated running sums: the stored prefixes carry at
        // most one rounding each instead of accumulating error over n
        // additions, which matters because sse() subtracts prefixes of
        // nearly equal magnitude.
        let mut acc = [Compensated::default(); 5];
        let mut px = Column::with_capacity(n);
        let mut py = Column::with_capacity(n);
        let mut pxx = Column::with_capacity(n);
        let mut pxy = Column::with_capacity(n);
        let mut pyy = Column::with_capacity(n);
        for (&xi, &yi) in x.iter().zip(y) {
            let cx = xi - mean_x;
            let cy = yi - mean_y;
            acc[0].add(cx);
            acc[1].add(cy);
            acc[2].add(cx * cx);
            acc[3].add(cx * cy);
            acc[4].add(cy * cy);
            px.push(acc[0]);
            py.push(acc[1]);
            pxx.push(acc[2]);
            pxy.push(acc[3]);
            pyy.push(acc[4]);
        }
        PrefixOls { mean_x, mean_y, px, py, pxx, pxy, pyy }
    }

    /// Number of observations covered by the tables.
    pub fn len(&self) -> usize {
        self.px.sum.len() - 1
    }

    /// Whether the tables cover no observations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centered moments of the stretch `[i, j)` (caller checks bounds).
    #[inline(always)]
    fn moments(&self, i: usize, j: usize) -> Moments {
        Moments::new(
            (j - i) as f64,
            [
                self.px.diff(i, j),
                self.py.diff(i, j),
                self.pxx.diff(i, j),
                self.pxy.diff(i, j),
                self.pyy.diff(i, j),
            ],
        )
    }

    /// OLS residual sum of squares of the half-open stretch `[i, j)`,
    /// exactly like fitting `y = a + b·x` to `x[i..j]`, `y[i..j]` and
    /// summing squared residuals. Returns `f64::INFINITY` for degenerate
    /// stretches (fewer than two points, or all x equal), mirroring the
    /// naive refit's error path so DP search code can treat both
    /// implementations interchangeably.
    ///
    /// # Panics
    /// Panics when `i > j` or `j > len()`.
    pub fn sse(&self, i: usize, j: usize) -> f64 {
        assert!(i <= j && j <= self.len(), "stretch [{i}, {j}) out of bounds");
        if j - i < 2 {
            return f64::INFINITY;
        }
        self.moments(i, j).sse(j - i == 2)
    }

    /// Fills `out[t]` with `sse(start + t, j)`: the SSE of every stretch
    /// that ends at `j` and starts in `start..start + out.len()`. Same
    /// formula and bits as [`sse`](Self::sse), evaluated branch-free over
    /// contiguous column slices so the loop vectorizes.
    ///
    /// # Panics
    /// Panics when a stretch would hold fewer than two points
    /// (`start + out.len() + 1 > j`) or `j > len()`.
    pub(crate) fn sse_row(&self, start: usize, j: usize, out: &mut [f64]) {
        let end = start + out.len();
        assert!(end < j && j <= self.len(), "row [{start}..{end}, {j}) out of bounds");
        let len = out.len();
        let (xj, xjc, xs, xc) = self.px.row(start..end, j);
        let (yj, yjc, ys, yc) = self.py.row(start..end, j);
        let (xxj, xxjc, xxs, xxc) = self.pxx.row(start..end, j);
        let (xyj, xyjc, xys, xyc) = self.pxy.row(start..end, j);
        let (yyj, yyjc, yys, yyc) = self.pyy.row(start..end, j);
        for t in 0..len {
            let points = j - (start + t);
            let moments = Moments::new(
                points as f64,
                [
                    diff(xj, xjc, xs[t], xc[t]),
                    diff(yj, yjc, ys[t], yc[t]),
                    diff(xxj, xxjc, xxs[t], xxc[t]),
                    diff(xyj, xyjc, xys[t], xyc[t]),
                    diff(yyj, yyjc, yys[t], yyc[t]),
                ],
            );
            out[t] = moments.sse(points == 2);
        }
    }

    /// Slope and intercept (in the original, uncentered coordinates) of
    /// the OLS line over `[i, j)`, or `None` for degenerate stretches.
    pub fn line(&self, i: usize, j: usize) -> Option<(f64, f64)> {
        assert!(i <= j && j <= self.len(), "stretch [{i}, {j}) out of bounds");
        if j - i < 2 {
            return None;
        }
        let Moments { m, sx, sy, sxx, sxy, .. } = self.moments(i, j);
        if sxx <= 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        // centered intercept, then shift back to original coordinates
        let intercept_c = (sy - slope * sx) / m;
        let intercept = intercept_c + self.mean_y - slope * self.mean_x;
        Some((slope, intercept))
    }
}

/// Reference implementation: OLS SSE of `x[i..j]`, `y[i..j]` by a full
/// refit (`O(j − i)` per call). [`PrefixOls::sse`] must agree with this
/// to high relative precision; property tests and the old-vs-new
/// segmentation benchmark both call it.
pub fn naive_stretch_sse(x: &[f64], y: &[f64], i: usize, j: usize) -> f64 {
    match ols(&x[i..j], &y[i..j]) {
        Ok(f) => f.sse,
        Err(_) => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_close(a: f64, b: f64, scale: f64) -> bool {
        (a - b).abs() <= 1e-9 * scale.max(1.0)
    }

    #[test]
    fn matches_naive_on_smooth_curve() {
        let x: Vec<f64> = (0..120).map(|i| (i as f64) * 3.5 + 1.0).collect();
        let y: Vec<f64> =
            x.iter().map(|&v| 4.0 + 0.8 * v + ((v * 12.9898).sin() * 43758.5453).fract()).collect();
        let p = PrefixOls::new(&x, &y);
        for i in (0..100).step_by(7) {
            for j in ((i + 2)..=120).step_by(11) {
                let fast = p.sse(i, j);
                let slow = naive_stretch_sse(&x, &y, i, j);
                assert!(rel_close(fast, slow, slow), "[{i},{j}): {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn degenerate_stretches_are_infinite() {
        let x = [1.0, 1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0];
        let p = PrefixOls::new(&x, &y);
        assert_eq!(p.sse(0, 1), f64::INFINITY); // single point
        assert_eq!(p.sse(0, 3), f64::INFINITY); // constant x
        assert!(p.sse(0, 5).is_finite());
        assert_eq!(naive_stretch_sse(&x, &y, 0, 3), f64::INFINITY);
    }

    #[test]
    fn exact_line_has_zero_sse() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 - 2.0 * v).collect();
        let p = PrefixOls::new(&x, &y);
        assert!(p.sse(5, 45) < 1e-9);
        let (slope, intercept) = p.line(5, 45).unwrap();
        assert!((slope + 2.0).abs() < 1e-9);
        assert!((intercept - 3.0).abs() < 1e-9);
    }

    #[test]
    fn line_matches_ols_fit() {
        let x: Vec<f64> = (0..40).map(|i| 8.0 * (1.25f64).powi(i)).collect();
        let y: Vec<f64> =
            x.iter().enumerate().map(|(i, &v)| 20.0 + 0.003 * v + (i % 5) as f64).collect();
        let p = PrefixOls::new(&x, &y);
        let f = ols(&x[10..30], &y[10..30]).unwrap();
        let (slope, intercept) = p.line(10, 30).unwrap();
        assert!((slope - f.slope).abs() <= 1e-9 * f.slope.abs().max(1.0));
        assert!((intercept - f.intercept).abs() <= 1e-9 * f.intercept.abs().max(1.0));
    }

    #[test]
    fn survives_large_offsets() {
        // Deliberately ill-conditioned: a huge shared offset on x and a
        // near-perfect trend, so the stretch SSE (~1e2) is the residue of
        // moments of magnitude ~1e8 (condition number κ = Syy/SSE ≈ 1e6).
        // The moment formula's intrinsic f64 error is ~ε·κ relative, so
        // the bound here is wider than the 1e-9 that realistic
        // benchmark-scale data meets (see `matches_naive_on_smooth_curve`
        // and the property tests).
        let x: Vec<f64> = (0..200).map(|i| 1.0e6 + (i as f64) * 2.0e4).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 5.0e4 + 2.5e-3 * v + ((i % 7) as f64 - 3.0))
            .collect();
        let p = PrefixOls::new(&x, &y);
        for (i, j) in [(0usize, 200usize), (13, 57), (100, 180), (190, 200)] {
            let fast = p.sse(i, j);
            let slow = naive_stretch_sse(&x, &y, i, j);
            assert!((fast - slow).abs() <= 5e-8 * slow.max(1.0), "[{i},{j}): {fast} vs {slow}");
        }
    }

    #[test]
    fn sse_row_matches_sse_bit_for_bit() {
        // Runs of equal x (infinite stretches), 2-point stretches (the
        // exact-zero path) and a large offset on x (cancellation).
        let x: Vec<f64> = (0..48).map(|i| 1.0e6 + ((i / 3) as f64) * 512.0).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 3.0 + 1.0e-3 * v + ((i * 7919) % 13) as f64)
            .collect();
        let p = PrefixOls::new(&x, &y);
        let mut row = vec![0.0; x.len()];
        let mut infinite = 0;
        for j in 2..=x.len() {
            for start in 0..j - 1 {
                let out = &mut row[..j - 1 - start];
                p.sse_row(start, j, out);
                for (t, v) in out.iter().enumerate() {
                    let i = start + t;
                    assert_eq!(v.to_bits(), p.sse(i, j).to_bits(), "[{i}, {j}): row {v}");
                    infinite += usize::from(v.is_infinite());
                }
            }
        }
        assert!(infinite > 0, "the data must exercise the degenerate-x path");
    }

    #[test]
    fn empty_and_bounds() {
        let p = PrefixOls::new(&[], &[]);
        assert!(p.is_empty());
        let p2 = PrefixOls::new(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(p2.len(), 2);
        assert!(p2.sse(0, 2).is_finite());
    }
}

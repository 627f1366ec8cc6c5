//! LOESS — locally weighted linear regression smoothing.
//!
//! Figure 8 of the paper overlays "smoothed local regressions indicating
//! measurement trends" on the raw scatter. This is that smoother: for each
//! evaluation point, fit a weighted line over the `span` nearest neighbours
//! with tricube weights, and report the local prediction.

use crate::error::AnalysisError;
use crate::regression::weighted_ols;
use crate::Result;

/// LOESS smoother configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoessConfig {
    /// Fraction of the data used in each local fit, in `(0, 1]`.
    pub span: f64,
    /// Number of robustness iterations (0 = plain LOESS; 1–2 downweights
    /// outliers with bisquare weights, like R's `family = "symmetric"`).
    pub robustness_iters: usize,
}

impl Default for LoessConfig {
    fn default() -> Self {
        LoessConfig { span: 0.5, robustness_iters: 0 }
    }
}

fn tricube(u: f64) -> f64 {
    let a = 1.0 - u.abs().powi(3);
    if a <= 0.0 {
        0.0
    } else {
        a * a * a
    }
}

fn bisquare(u: f64) -> f64 {
    let a = 1.0 - u * u;
    if a <= 0.0 {
        0.0
    } else {
        a * a
    }
}

/// Smooths `(x, y)` with LOESS, evaluating at each `eval_x`.
///
/// Returns the smoothed values in the order of `eval_x`.
pub fn loess(x: &[f64], y: &[f64], eval_x: &[f64], config: &LoessConfig) -> Result<Vec<f64>> {
    let span = charm_trace::thread_span("analysis.loess");
    crate::error::ensure_paired(x, y)?;
    if !(0.0 < config.span && config.span <= 1.0) {
        return Err(AnalysisError::InvalidParameter("loess span must be in (0,1]"));
    }
    let n = x.len();
    let q = ((config.span * n as f64).ceil() as usize).clamp(3, n);
    if n < 3 {
        return Err(AnalysisError::TooFewObservations { needed: 3, got: n });
    }

    // Sort once by x for neighbour search.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite values compare"));
    let sx: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
    let sy: Vec<f64> = idx.iter().map(|&i| y[i]).collect();

    // Local fits computed, reported on the span.
    let mut evals = 0u64;

    // Robustness weights start at 1. Each iteration fits every data
    // point and reweights; the last weights feed only the evaluation.
    let mut rw = vec![1.0; n];
    let mut fitted = vec![0.0; n];
    for _ in 0..config.robustness_iters {
        evals += fit_at_data(&sx, &sy, &rw, q, &mut fitted)?;
        // Update robustness weights from residuals (bisquare of r/6·MAD).
        let resid: Vec<f64> = sy.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
        let mut abs_resid: Vec<f64> = resid.iter().map(|r| r.abs()).collect();
        abs_resid.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let s = abs_resid[abs_resid.len() / 2].max(f64::MIN_POSITIVE);
        for (w, r) in rw.iter_mut().zip(&resid) {
            *w = bisquare(r / (6.0 * s));
        }
        if rw.iter().all(|&w| w == 0.0) {
            rw.fill(1.0);
        }
    }

    evals += eval_x.len() as u64;
    let _span = span.arg("evals", evals);
    eval_x.iter().map(|&ex| local_fit(&sx, &sy, &rw, ex, q)).collect()
}

/// Fits the local line at every sorted data point into `fitted` and
/// returns how many fits it computed. [`local_fit`] depends only on
/// `x0`, so each run of bit-equal x (`to_bits`, which keeps `-0.0` and
/// `0.0` apart) shares one fit.
fn fit_at_data(sx: &[f64], sy: &[f64], rw: &[f64], q: usize, fitted: &mut [f64]) -> Result<u64> {
    let mut fits = 0;
    let mut start = 0;
    for run in sx.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
        let end = start + run.len();
        fitted[start..end].fill(local_fit(sx, sy, rw, run[0], q)?);
        fits += 1;
        start = end;
    }
    Ok(fits)
}

/// Weighted local linear fit at `x0` using the `q` nearest neighbours.
fn local_fit(sx: &[f64], sy: &[f64], rw: &[f64], x0: f64, q: usize) -> Result<f64> {
    let n = sx.len();
    // Find window of q nearest neighbours by x-distance (contiguous after
    // sorting). Start from the insertion point and expand.
    let pos = sx.partition_point(|&v| v < x0);
    let mut lo = pos.saturating_sub(1);
    let mut hi = pos.min(n - 1);
    // Expand [lo, hi] until it covers q points.
    while hi - lo + 1 < q {
        let extend_left = if lo == 0 {
            false
        } else if hi == n - 1 {
            true
        } else {
            (x0 - sx[lo - 1]).abs() <= (sx[hi + 1] - x0).abs()
        };
        if extend_left {
            lo -= 1;
        } else {
            hi += 1;
        }
    }
    let dmax =
        sx[lo..=hi].iter().map(|&v| (v - x0).abs()).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);

    let wx: Vec<f64> = (lo..=hi).map(|i| tricube((sx[i] - x0) / dmax) * rw[i]).collect();
    let xs = &sx[lo..=hi];
    let ys = &sy[lo..=hi];
    if wx.iter().filter(|&&w| w > 0.0).count() < 2 {
        // All weight collapsed (e.g. robustness killed everything): fall
        // back to the unweighted local mean.
        return Ok(ys.iter().sum::<f64>() / ys.len() as f64);
    }
    match weighted_ols(xs, ys, &wx) {
        Ok(f) => Ok(f.predict(x0)),
        Err(AnalysisError::DegeneratePredictor) => {
            // All x identical in window — weighted mean.
            let sw: f64 = wx.iter().sum();
            Ok(ys.iter().zip(&wx).map(|(y, w)| y * w).sum::<f64>() / sw)
        }
        Err(e) => Err(e),
    }
}

/// The smoother before it dropped the discarded last pass and shared a
/// fit across bit-equal x: one [`local_fit`] per point per pass. The
/// oracle for [`loess`]'s bit-identical output.
#[cfg(test)]
mod reference {
    use super::{bisquare, local_fit, LoessConfig};
    use crate::Result;

    pub fn loess(x: &[f64], y: &[f64], eval_x: &[f64], config: &LoessConfig) -> Result<Vec<f64>> {
        let n = x.len();
        let q = ((config.span * n as f64).ceil() as usize).clamp(3, n);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite values compare"));
        let sx: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
        let sy: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
        let mut rw = vec![1.0; n];
        for iter in 0..=config.robustness_iters {
            let mut fitted = vec![0.0; n];
            for i in 0..n {
                fitted[i] = local_fit(&sx, &sy, &rw, sx[i], q)?;
            }
            if iter == config.robustness_iters {
                break;
            }
            let resid: Vec<f64> = sy.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
            let mut abs_resid: Vec<f64> = resid.iter().map(|r| r.abs()).collect();
            abs_resid.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            let s = abs_resid[abs_resid.len() / 2].max(f64::MIN_POSITIVE);
            for (w, r) in rw.iter_mut().zip(&resid) {
                *w = bisquare(r / (6.0 * s));
            }
            if rw.iter().all(|&w| w == 0.0) {
                rw.fill(1.0);
            }
        }
        eval_x.iter().map(|&ex| local_fit(&sx, &sy, &rw, ex, q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `distinct` x levels (one pair of them `-0.0` and `0.0` when
    /// `signed_zero`), each replicated 1–4 times, in a shuffled order;
    /// y is a noisy line with an occasional wild outlier.
    fn replicated(seed: u64, distinct: usize, signed_zero: bool) -> (Vec<f64>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut levels: Vec<f64> = (0..distinct).map(|i| i as f64 * 1.5 - 3.0).collect();
        if signed_zero {
            levels[0] = -0.0;
            levels[1] = 0.0;
        }
        let mut pts = Vec::new();
        for &x in &levels {
            for _ in 0..rng.random_range(1..5usize) {
                let outlier = if rng.random_range(0..10u32) == 0 { 1e3 } else { 0.0 };
                pts.push((x, 2.0 + 0.5 * x + rng.random_range(-1.0..1.0) + outlier));
            }
        }
        for i in (1..pts.len()).rev() {
            pts.swap(i, rng.random_range(0..=i));
        }
        pts.into_iter().unzip()
    }

    fn bits(r: Result<Vec<f64>>) -> Result<Vec<u64>> {
        r.map(|v| v.iter().map(|f| f.to_bits()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn shared_fits_give_the_reference_bits(
            seed in any::<u64>(),
            distinct in 2usize..12,
            span in 0.05..1.0f64,
            robustness_iters in 0usize..4,
            signed_zero in any::<bool>(),
        ) {
            let (x, y) = replicated(seed, distinct, signed_zero);
            prop_assume!(x.len() >= 3);
            let mut eval = x.clone();
            eval.extend([-3.7, -0.0, 0.25, 1.0, 40.0]);
            let config = LoessConfig { span, robustness_iters };
            prop_assert_eq!(
                bits(loess(&x, &y, &eval, &config)),
                bits(reference::loess(&x, &y, &eval, &config))
            );
        }
    }

    #[test]
    fn zero_weight_windows_fall_back_like_the_reference() {
        // Distinct, evenly spaced x and q = 3: every interior window is
        // its centre plus two neighbours at tricube weight 0, so the fit
        // takes the collapsed-weight fallback; the spike zeroes its own
        // robustness weight as well.
        let x: Vec<f64> = (0..12).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 3.0 - v).collect();
        y[6] = 1e6;
        for robustness_iters in 0..4 {
            let config = LoessConfig { span: 0.2, robustness_iters };
            assert_eq!(
                bits(loess(&x, &y, &x, &config)),
                bits(reference::loess(&x, &y, &x, &config)),
                "robustness_iters {robustness_iters}"
            );
        }
    }

    #[test]
    fn exact_line_is_reproduced() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 1.0 + 2.0 * v).collect();
        let out = loess(&x, &y, &x, &LoessConfig::default()).unwrap();
        for (o, yi) in out.iter().zip(&y) {
            assert!((o - yi).abs() < 1e-8, "loess broke a perfect line: {o} vs {yi}");
        }
    }

    #[test]
    fn smooths_deterministic_jitter() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 5.0 + 0.1 * v + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = loess(&x, &y, &x, &LoessConfig { span: 0.3, robustness_iters: 0 }).unwrap();
        // Residual variance of the smooth vs the true trend must be far
        // below the jitter variance (1.0).
        let mse: f64 = out.iter().zip(&x).map(|(o, v)| (o - (5.0 + 0.1 * v)).powi(2)).sum::<f64>()
            / x.len() as f64;
        assert!(mse < 0.1, "mse = {mse}");
    }

    #[test]
    fn robust_iterations_shrug_off_outliers() {
        let x: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 10.0 + 0.5 * v).collect();
        y[30] = 1e4; // wild outlier
        let plain =
            loess(&x, &y, &[30.0], &LoessConfig { span: 0.4, robustness_iters: 0 }).unwrap();
        let robust =
            loess(&x, &y, &[30.0], &LoessConfig { span: 0.4, robustness_iters: 2 }).unwrap();
        let truth = 10.0 + 0.5 * 30.0;
        assert!((robust[0] - truth).abs() < (plain[0] - truth).abs() / 10.0);
    }

    #[test]
    fn evaluates_at_arbitrary_points() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let out = loess(&x, &y, &[5.5], &LoessConfig { span: 0.4, robustness_iters: 0 }).unwrap();
        // Local linear fit of a parabola at 5.5 should be near 30.25.
        assert!((out[0] - 30.25).abs() < 2.0);
    }

    #[test]
    fn bad_span_rejected() {
        let x = [0.0, 1.0, 2.0];
        assert!(loess(&x, &x, &x, &LoessConfig { span: 0.0, robustness_iters: 0 }).is_err());
        assert!(loess(&x, &x, &x, &LoessConfig { span: 1.5, robustness_iters: 0 }).is_err());
    }

    #[test]
    fn thread_profiler_times_loess_and_counts_its_fits() {
        let p = charm_trace::Profiler::enabled();
        p.install_thread("main");
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        loess(&x, &y, &[3.0, 7.0], &LoessConfig { span: 0.5, robustness_iters: 1 }).unwrap();
        charm_trace::Profiler::uninstall_thread();
        let spans = p.take();
        let [span] = spans.as_slice() else { panic!("one span: {spans:?}") };
        assert_eq!(span.name, "analysis.loess");
        // One robustness pass over the 40 distinct x plus the 2
        // requested evaluation points.
        assert_eq!(span.args, [("evals".to_string(), (40 + 2).to_string())]);
    }

    #[test]
    fn duplicate_x_values_ok() {
        // Replicated measurements at identical sizes are the common case.
        let x = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        let y = [9.0, 10.0, 11.0, 19.0, 20.0, 21.0, 29.0, 30.0, 31.0];
        let out = loess(&x, &y, &[2.0], &LoessConfig { span: 0.5, robustness_iters: 0 }).unwrap();
        assert!((out[0] - 20.0).abs() < 1.0);
    }
}

//! Free (unsupervised) optimal segmentation of a response curve.
//!
//! Paper §III-3 ("Impact of Preconceived Assumptions in the Analysis"):
//! Hoefler et al. reported a *single* protocol change >32 KB in Figure 3,
//! but "a new look to the data could indicate another break at 16 KBytes".
//! Fixing the number of breakpoints a priori can hide real behaviour.
//!
//! This module searches over breakpoint placements *without* a preconceived
//! count: a dynamic program over candidate breakpoints minimizes
//! `SSE + penalty·(#segments)`, a BIC-style criterion. It is the
//! "initial neutral look regarding the number of breakpoints" that the
//! caption of Figure 4 calls for.

use crate::error::AnalysisError;
use crate::piecewise::PiecewiseLinear;
use crate::prefix::PrefixOls;
use crate::Result;

/// Result of an optimal segmentation search.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    /// Chosen interior breakpoints (x-values), ascending.
    pub breakpoints: Vec<f64>,
    /// Total SSE of the selected piecewise fit.
    pub sse: f64,
    /// Penalized score that was minimized.
    pub score: f64,
    /// The fitted piecewise model.
    pub model: PiecewiseLinear,
}

/// Configuration for [`segment`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Maximum number of interior breakpoints considered.
    pub max_breaks: usize,
    /// Minimum number of observations per segment.
    pub min_points_per_segment: usize,
    /// Per-segment penalty added to the SSE. When `None`, a BIC-style
    /// penalty `sigma²·ln(n)·2` is derived from a robust noise estimate.
    pub penalty: Option<f64>,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: None }
    }
}

/// Sorts paired data by x and returns owned vectors.
fn sort_paired(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite values compare"));
    (idx.iter().map(|&i| x[i]).collect(), idx.iter().map(|&i| y[i]).collect())
}

/// Robust residual-variance estimate from **second** differences of y
/// (after sorting by x). Second differences cancel any locally-linear
/// trend, so the estimate reflects measurement noise rather than slope —
/// first differences would inflate σ on steep curves and make the free
/// search blind to subtle slope changes (exactly the Figure 3 hidden
/// break). For iid `N(0, σ²)` noise, `Δ²y ~ N(0, 6σ²)`, and
/// `median(|N(0,s²)|) = 0.6745 s`.
fn robust_noise_variance(y_sorted_by_x: &[f64]) -> f64 {
    if y_sorted_by_x.len() < 4 {
        return 1.0;
    }
    let mut dd: Vec<f64> =
        y_sorted_by_x.windows(3).map(|w| (w[2] - 2.0 * w[1] + w[0]).abs()).collect();
    dd.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let med = dd[dd.len() / 2];
    let sigma = med / (0.6745 * 6.0f64.sqrt());
    (sigma * sigma).max(f64::MIN_POSITIVE)
}

/// The validated search problem shared by [`segment`] and [`reference`]:
/// data sorted by x, the minimum segment length, the segment-count cap
/// and the per-segment penalty.
struct Problem {
    sx: Vec<f64>,
    sy: Vec<f64>,
    /// Minimum points per segment (at least 2).
    m: usize,
    /// Maximum segment count, clamped to `⌊n/m⌋`: deeper layers of the
    /// DP could only hold `inf`, so the tables are sized by the data
    /// rather than by the request.
    kmax: usize,
    penalty: f64,
}

impl Problem {
    fn new(x: &[f64], y: &[f64], config: &SegmentConfig) -> Result<Self> {
        crate::error::ensure_paired(x, y)?;
        if config.penalty.is_some_and(|p| !(p.is_finite() && p >= 0.0)) {
            return Err(AnalysisError::InvalidParameter("penalty must be finite and >= 0"));
        }
        let m = config.min_points_per_segment.max(2);
        if x.len() < m {
            return Err(AnalysisError::TooFewObservations { needed: m, got: x.len() });
        }
        let (sx, sy) = sort_paired(x, y);
        let n = sx.len();
        let penalty = config.penalty.unwrap_or_else(|| {
            // Floor the derived penalty above the numerical jitter of the
            // O(1) prefix-sum SSE (~machine epsilon of the total variation):
            // on numerically-exact data the noise estimate is 0 and sub-ulp
            // SSE differences must not buy extra segments.
            let my = sy.iter().sum::<f64>() / n as f64;
            let syy: f64 = sy.iter().map(|v| (v - my) * (v - my)).sum();
            let bic = 2.0 * robust_noise_variance(&sy) * (n as f64).ln() * 2.0;
            bic.max(64.0 * f64::EPSILON * syy)
        });
        let kmax = config.max_breaks.saturating_add(1).min(n / m);
        Ok(Problem { sx, sy, m, kmax, penalty })
    }

    /// Picks the segment count minimizing `cost(n, k) + penalty·k`,
    /// backtracks the split indices through `back(j, k)` and fits the
    /// chosen model.
    fn finish(
        self,
        cost: impl Fn(usize, usize) -> f64,
        back: impl Fn(usize, usize) -> usize,
    ) -> Result<Segmentation> {
        let Problem { sx, sy, m, kmax, penalty } = self;
        let n = sx.len();
        let inf = f64::INFINITY;
        let mut best_k = 1;
        let mut best_score = inf;
        for k in 1..=kmax {
            if cost(n, k) == inf {
                continue;
            }
            let score = cost(n, k) + penalty * k as f64;
            if score < best_score {
                best_score = score;
                best_k = k;
            }
        }
        if best_score == inf {
            return Err(AnalysisError::TooFewObservations { needed: m, got: n });
        }

        // Backtrack split indices.
        let mut splits = Vec::new();
        let mut j = n;
        for k in (1..=best_k).rev() {
            let i = back(j, k);
            if i > 0 {
                splits.push(i);
            }
            j = i;
        }
        splits.sort_unstable();

        // Convert split indices to x-breakpoints at midpoints.
        let breakpoints: Vec<f64> = splits.iter().map(|&i| (sx[i - 1] + sx[i]) / 2.0).collect();

        let model = PiecewiseLinear::fit(&sx, &sy, &breakpoints)?;
        let sse = model.sse();
        Ok(Segmentation { breakpoints, sse, score: best_score, model })
    }
}

/// Finds the optimal piecewise-linear segmentation of `(x, y)`.
///
/// A dynamic program over data indices chooses where segments end; segment
/// boundaries become x-breakpoints at the midpoint between the adjacent
/// observations. The number of segments is *free* up to
/// `config.max_breaks + 1`, chosen by penalized SSE.
///
/// The result is bit-identical to [`reference()`] with
/// [`PrefixOls::sse`] (DESIGN.md §19): the DP visits the same candidates
/// with the same arithmetic, but evaluates each stretch's SSE once for
/// all segment counts.
///
/// # Errors
/// `InvalidParameter` for a NaN, infinite or negative `penalty`;
/// `TooFewObservations` when no segmentation fits the data.
pub fn segment(x: &[f64], y: &[f64], config: &SegmentConfig) -> Result<Segmentation> {
    let span = charm_trace::thread_span("analysis.segment");
    let problem = Problem::new(x, y, config)?;
    let (n, m, kmax) = (problem.sx.len(), problem.m, problem.kmax);
    // Prefix-sum least squares: every candidate stretch's SSE in O(1)
    // after an O(n) build, instead of an O(j − i) OLS refit per
    // candidate. This is what makes the free search viable on
    // Figure-4-sized campaigns (the DP below touches O(n²·k) stretches).
    let prefix = PrefixOls::new(&problem.sx, &problem.sy);

    // cost[k][j] = min SSE of fitting y[0..j] with exactly k segments;
    // back[k][j] = split index i for the last segment y[i..j]. Both are
    // flat, entry (k, j) at k·(n+1) + j, so one segment count's costs
    // are a contiguous slice.
    let stride = n + 1;
    let mut cost = vec![f64::INFINITY; (kmax + 1) * stride];
    let mut back = vec![0usize; (kmax + 1) * stride];
    cost[0] = 0.0;
    // row[i] = SSE of the stretch y[i..j], shared by every segment count.
    let mut row = vec![0.0; n];
    let mut sse_evals = 0u64;
    for j in m..=n {
        let last = j - m; // the last segment y[i..j] needs i <= j − m
        let layers = kmax.min(j / m);
        // One segment only ever splits at 0 (see below).
        let row = &mut row[..if layers > 1 { last + 1 } else { 1 }];
        prefix.sse_row(0, j, row);
        sse_evals += row.len() as u64;
        for k in 1..=layers {
            // cost[0][i] is finite only at i = 0, so one segment has a
            // single candidate split.
            let (lo, hi) = if k == 1 { (0, 0) } else { ((k - 1) * m, last) };
            let prev = &cost[(k - 1) * stride + lo..=(k - 1) * stride + hi];
            if let Some((c, at)) = argmin_sum(prev, &row[lo..=hi]) {
                cost[k * stride + j] = c;
                back[k * stride + j] = lo + at;
            }
        }
    }
    let _span = span.arg("sse_evals", sse_evals);
    problem.finish(|j, k| cost[k * stride + j], |j, k| back[k * stride + j])
}

/// Lowest index `t` minimizing `prev[t] + sse[t]` and that minimum, or
/// `None` when no sum is below `inf`. Equal to the sequential scan that
/// starts from `inf` and takes a candidate only when it is strictly
/// smaller: each of the `LANES` lanes scans its indices in ascending
/// order with the same strict `<`, and the lanes are then merged by value,
/// with ties going to the lower index. Independent lanes let the loop
/// vectorize.
fn argmin_sum(prev: &[f64], sse: &[f64]) -> Option<(f64, usize)> {
    const LANES: usize = 4;
    debug_assert_eq!(prev.len(), sse.len());
    let mut best = [f64::INFINITY; LANES];
    let mut at = [usize::MAX; LANES];
    let (prev_chunks, sse_chunks) = (prev.chunks_exact(LANES), sse.chunks_exact(LANES));
    let tail = prev_chunks.len() * LANES;
    for (c, (p, s)) in prev_chunks.zip(sse_chunks).enumerate() {
        for l in 0..LANES {
            let v = p[l] + s[l];
            let smaller = v < best[l];
            best[l] = if smaller { v } else { best[l] };
            at[l] = if smaller { c * LANES + l } else { at[l] };
        }
    }
    // The tail's indices exceed every chunk index, so lane 0 still scans
    // in ascending order.
    for t in tail..prev.len() {
        let v = prev[t] + sse[t];
        if v < best[0] {
            best[0] = v;
            at[0] = t;
        }
    }
    let mut winner = 0;
    for l in 1..LANES {
        if best[l] < best[winner] || (best[l] == best[winner] && at[l] < at[winner]) {
            winner = l;
        }
    }
    (at[winner] != usize::MAX).then(|| (best[winner], at[winner]))
}

/// The DP of [`segment`] as a plain triple loop over segment count `k`,
/// end `j` and split `i`, calling `sse(i, j)` once per candidate: the
/// oracle the fast kernel is tested against. `sse` gets indices into the
/// data sorted by x (a stable sort, so already-sorted input keeps its
/// order); passing [`PrefixOls::sse`] over that data must reproduce
/// [`segment`] bit for bit, and [`crate::prefix::naive_stretch_sse`]
/// gives the refit-per-candidate search.
///
/// # Errors
/// As [`segment`].
pub fn reference(
    x: &[f64],
    y: &[f64],
    config: &SegmentConfig,
    mut sse: impl FnMut(usize, usize) -> f64,
) -> Result<Segmentation> {
    let problem = Problem::new(x, y, config)?;
    let (n, m, kmax) = (problem.sx.len(), problem.m, problem.kmax);
    // cost[j][k] = min penalized SSE of fitting y[0..j] with exactly k segments.
    // back[j][k] = split index i for the last segment y[i..j].
    let inf = f64::INFINITY;
    let mut cost = vec![vec![inf; kmax + 1]; n + 1];
    let mut back = vec![vec![0usize; kmax + 1]; n + 1];
    cost[0][0] = 0.0;

    #[allow(clippy::needless_range_loop)] // cost[j][k] and cost[i][k-1] both indexed
    for k in 1..=kmax {
        for j in (k * m)..=n {
            for i in ((k - 1) * m)..=(j - m) {
                if cost[i][k - 1] == inf {
                    continue;
                }
                let c = cost[i][k - 1] + sse(i, j);
                if c < cost[j][k] {
                    cost[j][k] = c;
                    back[j][k] = i;
                }
            }
        }
    }
    problem.finish(|j, k| cost[j][k], |j, k| back[j][k])
}

/// Exhaustively fits exactly `k` breakpoints (for small k) by running the
/// DP with a fixed segment count; used by the "preconceived assumption"
/// ablation to compare a forced single break against the free search.
pub fn segment_with_k_breaks(
    x: &[f64],
    y: &[f64],
    k_breaks: usize,
    min_points_per_segment: usize,
) -> Result<Segmentation> {
    let config = SegmentConfig {
        max_breaks: k_breaks,
        min_points_per_segment,
        // Huge penalty forces as few segments as possible... we instead want
        // exactly k+1 segments, so use zero penalty and filter below.
        penalty: Some(0.0),
    };
    // Re-run the DP but force the segment count by post-selection: zero
    // penalty makes more segments always (weakly) better, so the optimum
    // uses the full budget of k_breaks.
    let seg = segment(x, y, &config)?;
    if seg.breakpoints.len() != k_breaks {
        // Not enough data to place that many breaks.
        return Err(AnalysisError::TooFewObservations {
            needed: (k_breaks + 1) * min_points_per_segment.max(2),
            got: x.len(),
        });
    }
    Ok(seg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three-regime curve mimicking eager/detached/rendez-vous timing.
    fn three_regime(n_per: usize) -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let xi = i as f64;
            x.push(xi);
            y.push(2.0 + 0.5 * xi);
        }
        for i in 0..n_per {
            let xi = n_per as f64 + i as f64;
            x.push(xi);
            y.push(10.0 + 2.0 * xi);
        }
        for i in 0..n_per {
            let xi = 2.0 * n_per as f64 + i as f64;
            x.push(xi);
            y.push(100.0 + 6.0 * xi);
        }
        (x, y)
    }

    #[test]
    fn finds_two_breaks_in_three_regime_data() {
        let (x, y) = three_regime(20);
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert_eq!(seg.breakpoints.len(), 2, "breaks: {:?}", seg.breakpoints);
        assert!((seg.breakpoints[0] - 19.5).abs() < 3.0);
        assert!((seg.breakpoints[1] - 39.5).abs() < 3.0);
        assert!(seg.sse < 1e-12);
    }

    #[test]
    fn straight_line_yields_no_breaks() {
        let x: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 0.25 * v).collect();
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(seg.breakpoints.is_empty(), "spurious breaks: {:?}", seg.breakpoints);
    }

    #[test]
    fn noisy_line_yields_no_breaks() {
        // Deterministic uncorrelated "noise" (shader-style hash); a free
        // search with BIC penalty must not hallucinate breaks.
        let x: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| {
                let u = ((v * 12.9898).sin() * 43758.5453).fract().abs();
                5.0 + 0.5 * v + (u - 0.5)
            })
            .collect();
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(seg.breakpoints.len() <= 1, "too many breaks: {:?}", seg.breakpoints);
    }

    #[test]
    fn forcing_one_break_on_three_regimes_hides_the_second() {
        // The "preconceived assumption" pitfall: with k=1 the fit is much
        // worse than the free (k=2) segmentation.
        let (x, y) = three_regime(20);
        let forced = segment_with_k_breaks(&x, &y, 1, 5).unwrap();
        let free = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(forced.sse > 10.0 * (free.sse + 1.0));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let (mut x, mut y) = three_regime(15);
        // reverse the data; segmentation sorts internally
        x.reverse();
        y.reverse();
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert_eq!(seg.breakpoints.len(), 2);
    }

    #[test]
    fn respects_min_points_per_segment() {
        let (x, y) = three_regime(4);
        let cfg = SegmentConfig { max_breaks: 4, min_points_per_segment: 6, penalty: Some(0.0) };
        let seg = segment(&x, &y, &cfg).unwrap();
        // 12 points, min 6 per segment -> at most 2 segments
        assert!(seg.breakpoints.len() <= 1);
    }

    #[test]
    fn too_few_points_rejected() {
        assert!(segment(&[1.0, 2.0], &[1.0, 2.0], &SegmentConfig::default()).is_err());
    }

    #[test]
    fn k_breaks_exact_count_or_error() {
        let (x, y) = three_regime(20);
        let s = segment_with_k_breaks(&x, &y, 2, 5).unwrap();
        assert_eq!(s.breakpoints.len(), 2);
        assert!(segment_with_k_breaks(&x[..8], &y[..8], 3, 5).is_err());
    }

    #[test]
    fn hostile_penalty_is_rejected() {
        let (x, y) = three_regime(10);
        for penalty in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let cfg = SegmentConfig { penalty: Some(penalty), ..SegmentConfig::default() };
            assert!(
                matches!(segment(&x, &y, &cfg), Err(AnalysisError::InvalidParameter(_))),
                "penalty {penalty} accepted"
            );
            let oracle = reference(&x, &y, &cfg, |_, _| 0.0);
            assert!(matches!(oracle, Err(AnalysisError::InvalidParameter(_))));
        }
    }

    #[test]
    fn segment_count_is_clamped_to_the_data() {
        // 60 points at 5 per segment hold at most 12 segments; a request
        // for usize::MAX breaks must neither overflow nor size the tables
        // by the request, and must find the same optimum.
        let (x, y) = three_regime(20);
        for penalty in [None, Some(0.0)] {
            let huge = SegmentConfig { max_breaks: usize::MAX, min_points_per_segment: 5, penalty };
            let fits = SegmentConfig { max_breaks: 11, ..huge };
            let a = segment(&x, &y, &huge).unwrap();
            let b = segment(&x, &y, &fits).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn argmin_takes_the_lowest_index_among_equal_minima() {
        let inf = f64::INFINITY;
        assert_eq!(argmin_sum(&[], &[]), None);
        assert_eq!(argmin_sum(&[inf, 0.0], &[0.0, inf]), None);
        // equal minima in different lanes and in the tail
        let prev = [5.0, 1.0, 3.0, 1.0, 2.0, 1.0, 9.0, 0.0, 1.0];
        let sse = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 1.0];
        assert_eq!(argmin_sum(&prev, &sse), Some((2.0, 1)));
        assert_eq!(argmin_sum(&prev[2..], &sse[2..]), Some((2.0, 1)));
        assert_eq!(argmin_sum(&prev[6..], &sse[6..]), Some((2.0, 1)));
        assert_eq!(argmin_sum(&[f64::NAN, 4.0], &[0.0, 0.0]), Some((4.0, 1)));
    }

    #[test]
    fn the_segment_span_reports_search_effort() {
        let (x, y) = three_regime(20);
        let p = charm_trace::Profiler::enabled();
        p.install_thread("main");
        let with = segment(&x, &y, &SegmentConfig::default()).unwrap();
        charm_trace::Profiler::uninstall_thread();
        let spans = p.take();
        let [span] = spans.as_slice() else { panic!("one span: {spans:?}") };
        assert_eq!(span.name, "analysis.segment");
        let [(key, evals)] = span.args.as_slice() else { panic!("one arg: {span:?}") };
        // the free DP over 60 points touches far more than n stretches
        assert_eq!(key, "sse_evals");
        assert!(evals.parse::<u64>().unwrap() > 60, "{span:?}");
        // profiling must not change the result
        let without = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert_eq!(with.breakpoints, without.breakpoints);
        assert_eq!(with.sse.to_bits(), without.sse.to_bits());
    }
}

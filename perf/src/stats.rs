//! Order statistics for timings.

/// Samples that must lie beyond a percentile before it is reported: a
/// p90 needs at least 100 samples, a median at least 20.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `p`-quantile of `samples` (`0 < p < 1`), or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The plain median of a non-empty sample, for probes repeated only a
/// few times.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        let r = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("at least one repetition"))
}

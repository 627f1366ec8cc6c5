//! Changepoint detection: the online detectors opaque tools embed, and an
//! offline alternative.
//!
//! Paper §III describes how NetGauge checks "the mean least squares
//! deviation (lsq) between the previous point that started a new slope and
//! the latest measurement" and, when it changes by more than an
//! analyst-defined factor, "waits for five new measurements before
//! confirming the protocol change". That *online* heuristic is implemented
//! here faithfully ([`OnlineLsqDetector`]) so its failure modes can be
//! studied — a temporal perturbation during the run can masquerade as a
//! protocol change (§III-1).
//!
//! The offline [`binary_segmentation`] detector operates on retained raw
//! data after the campaign ends — the methodology's preferred route.

use crate::error::AnalysisError;
use crate::regression::ols;
use crate::Result;

/// Configuration of the NetGauge-style online detector.
#[derive(Debug, Clone, Copy)]
pub struct OnlineLsqConfig {
    /// Factor by which the mean lsq deviation must change to *suspect* a
    /// break (NetGauge's analyst-defined factor).
    pub factor: f64,
    /// Number of consecutive confirming measurements required before a
    /// suspected break is accepted (NetGauge uses 5).
    pub confirmations: usize,
    /// Minimum points in the current segment before deviation tests begin.
    pub warmup: usize,
    /// Absolute floor on relative deviation: a point only counts as
    /// deviating when `|err| > min_rel_deviation · |prediction|`. Keeps
    /// numerically-exact data (sse ≈ 0) from triggering on float noise.
    pub min_rel_deviation: f64,
}

impl Default for OnlineLsqConfig {
    fn default() -> Self {
        OnlineLsqConfig { factor: 4.0, confirmations: 5, warmup: 4, min_rel_deviation: 1e-3 }
    }
}

/// Streaming breakpoint detector in the style of NetGauge's protocol-change
/// heuristic. Feed measurements in the order taken; it reports break
/// positions as it becomes confident.
///
/// Points that deviate from the running segment's fit are *held out* in a
/// pending buffer; only when `confirmations` consecutive points deviate is
/// the break confirmed (this is the "waits for five new measurements"
/// rule). A lone anomaly is re-absorbed into the segment once a conforming
/// point arrives — but a sufficiently long temporal perturbation still
/// defeats the heuristic, which is the §III-1 pitfall.
#[derive(Debug, Clone)]
pub struct OnlineLsqDetector {
    config: OnlineLsqConfig,
    seg_x: Vec<f64>,
    seg_y: Vec<f64>,
    pending_x: Vec<f64>,
    pending_y: Vec<f64>,
}

impl OnlineLsqDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: OnlineLsqConfig) -> Self {
        OnlineLsqDetector {
            config,
            seg_x: Vec::new(),
            seg_y: Vec::new(),
            pending_x: Vec::new(),
            pending_y: Vec::new(),
        }
    }

    /// Mean squared deviation of the running segment's OLS fit, and the
    /// fit itself.
    fn segment_fit(&self) -> Option<(crate::regression::LinearFit, f64)> {
        if self.seg_x.len() < 3 {
            return None;
        }
        ols(&self.seg_x, &self.seg_y).ok().map(|f| {
            let mean_lsq = f.sse / self.seg_x.len() as f64;
            (f, mean_lsq)
        })
    }

    /// Feeds one measurement. Returns `Some(x)` when a break has just been
    /// confirmed at predictor value `x` (the start of the new regime).
    pub fn push(&mut self, x: f64, y: f64) -> Option<f64> {
        if self.seg_x.len() < self.config.warmup {
            self.seg_x.push(x);
            self.seg_y.push(y);
            return None;
        }
        let Some((fit, mean_lsq)) = self.segment_fit() else {
            self.seg_x.push(x);
            self.seg_y.push(y);
            return None;
        };
        let err = y - fit.predict(x);
        let deviates = err * err > self.config.factor * mean_lsq.max(f64::MIN_POSITIVE)
            && err.abs() > self.config.min_rel_deviation * fit.predict(x).abs();
        if deviates {
            self.pending_x.push(x);
            self.pending_y.push(y);
            if self.pending_x.len() >= self.config.confirmations {
                // Confirm: the new regime started at the first pending point.
                let bx = self.pending_x[0];
                self.seg_x = std::mem::take(&mut self.pending_x);
                self.seg_y = std::mem::take(&mut self.pending_y);
                return Some(bx);
            }
        } else {
            // Conforming point: any held-out anomalies were transient noise;
            // absorb everything into the running segment.
            self.seg_x.append(&mut self.pending_x);
            self.seg_y.append(&mut self.pending_y);
            self.seg_x.push(x);
            self.seg_y.push(y);
        }
        None
    }
}

/// Offline changepoint detection on segment means by binary segmentation.
///
/// Recursively finds the index whose split maximally reduces the total
/// squared error of piecewise-constant means, until no split improves the
/// penalized cost. Returns ascending split indices `i` meaning "a new
/// regime starts at position i".
pub fn binary_segmentation(y: &[f64], min_segment: usize, penalty: f64) -> Result<Vec<usize>> {
    let _span = charm_trace::thread_span("analysis.changepoint");
    crate::error::ensure_sample(y)?;
    if min_segment < 1 {
        return Err(AnalysisError::InvalidParameter("min_segment must be >= 1"));
    }
    if penalty < 0.0 {
        return Err(AnalysisError::InvalidParameter("penalty must be >= 0"));
    }
    // Build the moment prefix sums once; every recursion level reuses
    // them (rebuilding per level made deep segmentations O(n²) in the
    // build step alone).
    let mut pref = vec![0.0; y.len() + 1];
    let mut pref2 = vec![0.0; y.len() + 1];
    for (i, &v) in y.iter().enumerate() {
        pref[i + 1] = pref[i] + v;
        pref2[i + 1] = pref2[i] + v * v;
    }
    let mut splits = Vec::new();
    recurse(&pref, &pref2, 0, y.len(), min_segment, penalty, &mut splits);
    splits.sort_unstable();
    Ok(splits)
}

fn sse_constant(pref: &[f64], pref2: &[f64], a: usize, b: usize) -> f64 {
    let m = (b - a) as f64;
    let s = pref[b] - pref[a];
    let s2 = pref2[b] - pref2[a];
    (s2 - s * s / m).max(0.0)
}

fn recurse(
    pref: &[f64],
    pref2: &[f64],
    lo: usize,
    hi: usize,
    min_segment: usize,
    penalty: f64,
    splits: &mut Vec<usize>,
) {
    if hi - lo < 2 * min_segment {
        return;
    }
    let whole = sse_constant(pref, pref2, lo, hi);
    let mut best_gain = 0.0;
    let mut best_split = None;
    for s in (lo + min_segment)..=(hi - min_segment) {
        let gain = whole - sse_constant(pref, pref2, lo, s) - sse_constant(pref, pref2, s, hi);
        if gain > best_gain {
            best_gain = gain;
            best_split = Some(s);
        }
    }
    if let Some(s) = best_split {
        if best_gain > penalty {
            splits.push(s);
            recurse(pref, pref2, lo, s, min_segment, penalty, splits);
            recurse(pref, pref2, s, hi, min_segment, penalty, splits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_detector_finds_slope_change() {
        let mut det = OnlineLsqDetector::new(OnlineLsqConfig::default());
        let mut found = Vec::new();
        for i in 0..60 {
            let x = i as f64;
            let y = if x < 30.0 { 2.0 * x } else { 60.0 + 20.0 * (x - 30.0) };
            if let Some(b) = det.push(x, y) {
                found.push(b);
            }
        }
        assert_eq!(found.len(), 1, "breaks: {found:?}");
        assert!((found[0] - 30.0).abs() <= 3.0, "break at {}", found[0]);
    }

    #[test]
    fn online_detector_quiet_on_straight_line() {
        let mut det = OnlineLsqDetector::new(OnlineLsqConfig::default());
        for i in 0..200 {
            let x = i as f64;
            assert!(det.push(x, 5.0 + 0.3 * x).is_none());
        }
    }

    #[test]
    fn online_detector_fooled_by_temporal_burst() {
        // The §III-1 pitfall: a transient perturbation (not a protocol
        // change) triggers a confirmed break because the five confirmation
        // points all fall inside the burst.
        let mut det = OnlineLsqDetector::new(OnlineLsqConfig::default());
        let mut breaks = Vec::new();
        for i in 0..100 {
            let x = i as f64;
            let mut y = 1.0 * x;
            if (40..52).contains(&i) {
                y += 500.0; // external perturbation window
            }
            if let Some(b) = det.push(x, y) {
                breaks.push(b);
            }
        }
        assert!(!breaks.is_empty(), "the opaque online heuristic should be misled by the burst");
    }

    #[test]
    fn online_detector_survives_single_spike() {
        // A single anomalous point must NOT confirm a break (confirmation
        // streak resets).
        let mut det = OnlineLsqDetector::new(OnlineLsqConfig::default());
        let mut breaks = 0;
        for i in 0..100 {
            let x = i as f64;
            let y = if i == 50 { 1e4 } else { 2.0 * x };
            if det.push(x, y).is_some() {
                breaks += 1;
            }
        }
        // A lone spike permanently inflates the running lsq but the streak
        // logic requires persistence, so at most the spike window itself
        // can confirm; with a single point it cannot.
        assert_eq!(breaks, 0);
    }

    #[test]
    fn binseg_finds_single_mean_shift() {
        let mut y = vec![1.0; 40];
        y.extend(vec![10.0; 40]);
        let splits = binary_segmentation(&y, 5, 50.0).unwrap();
        assert_eq!(splits, vec![40]);
    }

    #[test]
    fn binseg_finds_two_shifts() {
        let mut y = vec![0.0; 30];
        y.extend(vec![5.0; 30]);
        y.extend(vec![-5.0; 30]);
        let splits = binary_segmentation(&y, 5, 50.0).unwrap();
        assert_eq!(splits, vec![30, 60]);
    }

    #[test]
    fn binseg_quiet_on_constant() {
        let y = vec![3.0; 50];
        assert!(binary_segmentation(&y, 5, 1.0).unwrap().is_empty());
    }

    #[test]
    fn binseg_penalty_suppresses_small_shifts() {
        let mut y = vec![1.0; 40];
        y.extend(vec![1.2; 40]); // tiny shift, total gain = 0.8
        let strict = binary_segmentation(&y, 5, 10.0).unwrap();
        assert!(strict.is_empty());
        let lax = binary_segmentation(&y, 5, 0.1).unwrap();
        assert_eq!(lax, vec![40]);
    }

    #[test]
    fn binseg_detects_temporal_window_in_sequence_order() {
        // Figure 11 right plot: plotting by *sequence order* reveals the
        // low-mode window as two changepoints.
        let mut y = vec![1500.0; 30];
        y.extend(vec![300.0; 10]);
        y.extend(vec![1500.0; 30]);
        let splits = binary_segmentation(&y, 4, 1000.0).unwrap();
        assert_eq!(splits, vec![30, 40]);
    }

    #[test]
    fn binseg_rejects_bad_params() {
        assert!(binary_segmentation(&[1.0, 2.0], 0, 1.0).is_err());
        assert!(binary_segmentation(&[1.0, 2.0], 1, -1.0).is_err());
    }
}

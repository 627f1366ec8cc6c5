//! Aggregated-only report types shared by the opaque tools.
//!
//! An [`AggregatedCell`] is all an opaque benchmark retains per
//! configuration: count, mean, and standard deviation, computed online
//! with Welford's algorithm. The raw observations are gone by the time
//! the tool prints — which is precisely the information loss the paper's
//! methodology eliminates.

/// Online mean/variance accumulator (Welford). The opaque tools use this
/// so that, like their originals, they never hold raw samples in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample standard deviation (NaN when `n < 2`).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// What an opaque tool reports for one configuration cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedCell {
    /// The independent variable (message size in bytes, or buffer size).
    pub x: u64,
    /// Observation count.
    pub n: u64,
    /// Mean of the measured quantity.
    pub mean: f64,
    /// Sample standard deviation (NaN when n < 2).
    pub std_dev: f64,
}

impl AggregatedCell {
    /// Builds a cell from an accumulator.
    pub(crate) fn from_welford(x: u64, w: &Welford) -> Self {
        AggregatedCell { x, n: w.count(), mean: w.mean(), std_dev: w.std_dev() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // sample variance = 32/7
        assert!((w.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_small_samples() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert!(w.std_dev().is_nan());
    }

    #[test]
    fn cell_from_welford() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(3.0);
        let c = AggregatedCell::from_welford(64, &w);
        assert_eq!(c.x, 64);
        assert_eq!(c.n, 2);
        assert_eq!(c.mean, 2.0);
        assert!((c.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}

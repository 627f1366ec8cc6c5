//! Virtual time.
//!
//! The substrate advances a monotone virtual clock instead of reading a
//! hardware timer, which makes every experiment campaign bit-reproducible
//! — the property the paper's methodology needs in order to distinguish
//! "real phenomenon" from "temporal artifact" after the fact.

/// A monotone virtual clock counting microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct VirtualClock {
    now_us: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub(crate) fn new() -> Self {
        VirtualClock { now_us: 0.0 }
    }

    /// Current virtual time in microseconds.
    pub(crate) fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Advances the clock by a non-negative duration (µs).
    ///
    /// # Panics
    /// Panics if `dt_us` is negative or non-finite — callers compute
    /// durations from model formulas, so a bad value is a logic error.
    pub(crate) fn advance_us(&mut self, dt_us: f64) {
        assert!(dt_us.is_finite() && dt_us >= 0.0, "bad clock advance: {dt_us}");
        self.now_us += dt_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_us(), 0.0);
        c.advance_us(1.5);
        c.advance_us(2.5);
        assert!((c.now_us() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_advance_ok() {
        let mut c = VirtualClock::new();
        c.advance_us(0.0);
        assert_eq!(c.now_us(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad clock advance")]
    fn negative_advance_panics() {
        VirtualClock::new().advance_us(-1.0);
    }

    #[test]
    #[should_panic(expected = "bad clock advance")]
    fn nan_advance_panics() {
        VirtualClock::new().advance_us(f64::NAN);
    }
}

//! Dynamic voltage and frequency scaling (DVFS) governors.
//!
//! Paper §IV-2: with the Linux `ondemand` governor, the `nloops` parameter
//! — which "should not have any influence on the final bandwidth" —
//! changes the measured bandwidth dramatically. Short kernels run at the
//! low idle frequency; long kernels ramp to the maximum; intermediate ones
//! land anywhere in between depending on where the governor's sampling
//! tick falls relative to the kernel's start, producing the multimodal
//! facets of Figure 10.
//!
//! The governor here is a faithful small model of that mechanism: a
//! free-running sampling tick in *virtual time*; at a tick with high
//! utilization it jumps to the maximum frequency (the real ondemand
//! policy's behaviour), and after an idle gap it falls back to the lowest.

/// Frequency governor policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorPolicy {
    /// Always the highest frequency.
    Performance,
    /// Always the lowest frequency.
    Powersave,
    /// Linux-style ondemand: jump to max when busy at a sampling tick,
    /// decay to min after idling.
    Ondemand {
        /// Sampling period (µs of virtual time).
        sample_period_us: f64,
    },
}

impl GovernorPolicy {}

/// A running governor over a set of frequency levels.
#[derive(Debug, Clone)]
pub struct Governor {
    policy: GovernorPolicy,
    /// Available frequencies in GHz, ascending.
    freqs_ghz: Vec<f64>,
    current: usize,
    /// Lifetime count of frequency changes (observability).
    transitions: u64,
}

/// Result of executing a burst of cycles under a governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Elapsed virtual time (µs).
    pub elapsed_us: f64,
    /// Fraction of *cycles* executed at the maximum frequency.
    pub max_freq_fraction: f64,
}

impl Governor {
    /// Creates a governor over ascending frequency levels (GHz).
    ///
    /// # Panics
    /// Panics when `freqs_ghz` is empty or not strictly ascending.
    pub fn new(policy: GovernorPolicy, freqs_ghz: Vec<f64>) -> Self {
        assert!(!freqs_ghz.is_empty(), "need at least one frequency");
        assert!(freqs_ghz.windows(2).all(|w| w[0] < w[1]), "frequencies must ascend");
        let current = match policy {
            GovernorPolicy::Performance => freqs_ghz.len() - 1,
            _ => 0,
        };
        Governor { policy, freqs_ghz, current, transitions: 0 }
    }

    /// Sets the current frequency level, counting actual changes.
    fn switch_to(&mut self, level: usize) {
        if self.current != level {
            self.current = level;
            self.transitions += 1;
        }
    }

    /// Number of frequency changes the governor has performed so far.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The policy in force.
    pub(crate) fn policy(&self) -> GovernorPolicy {
        self.policy
    }

    /// Maximum available frequency (GHz).
    pub(crate) fn max_ghz(&self) -> f64 {
        *self.freqs_ghz.last().expect("non-empty")
    }

    /// Minimum available frequency (GHz).
    pub(crate) fn min_ghz(&self) -> f64 {
        self.freqs_ghz[0]
    }

    /// Notifies the governor that the CPU idled from `idle_from_us` to
    /// `now_us`: ondemand decays to the minimum frequency if at least one
    /// sampling tick elapsed while idle.
    pub(crate) fn note_idle(&mut self, idle_from_us: f64, now_us: f64) {
        if let GovernorPolicy::Ondemand { sample_period_us } = self.policy {
            let first_tick_after = (idle_from_us / sample_period_us).floor() + 1.0;
            if first_tick_after * sample_period_us <= now_us {
                self.switch_to(0);
            }
        }
    }

    /// Executes `cycles` of busy work starting at virtual time
    /// `start_us`, advancing frequency at each sampling tick. Returns the
    /// elapsed time and the fraction of cycles run at max frequency.
    pub fn run_cycles(&mut self, cycles: f64, start_us: f64) -> RunOutcome {
        assert!(cycles >= 0.0 && cycles.is_finite(), "bad cycle count");
        match self.policy {
            GovernorPolicy::Performance => {
                self.switch_to(self.freqs_ghz.len() - 1);
                RunOutcome { elapsed_us: cycles / (self.max_ghz() * 1e3), max_freq_fraction: 1.0 }
            }
            GovernorPolicy::Powersave => {
                self.switch_to(0);
                let at_max = self.freqs_ghz.len() == 1;
                RunOutcome {
                    elapsed_us: cycles / (self.min_ghz() * 1e3),
                    max_freq_fraction: if at_max { 1.0 } else { 0.0 },
                }
            }
            GovernorPolicy::Ondemand { sample_period_us } => {
                let mut remaining = cycles;
                let mut now = start_us;
                let mut cycles_at_max = 0.0;
                let max_idx = self.freqs_ghz.len() - 1;
                // next free-running tick strictly after `now`
                let mut next_tick = ((now / sample_period_us).floor() + 1.0) * sample_period_us;
                while remaining > 0.0 {
                    let f_ghz = self.freqs_ghz[self.current];
                    let cycles_per_us = f_ghz * 1e3;
                    let until_tick_us = next_tick - now;
                    let cycles_until_tick = until_tick_us * cycles_per_us;
                    if remaining <= cycles_until_tick {
                        let dt = remaining / cycles_per_us;
                        if self.current == max_idx {
                            cycles_at_max += remaining;
                        }
                        now += dt;
                        remaining = 0.0;
                    } else {
                        if self.current == max_idx {
                            cycles_at_max += cycles_until_tick;
                        }
                        remaining -= cycles_until_tick;
                        now = next_tick;
                        next_tick += sample_period_us;
                        // Busy through a whole sampling interval: ondemand
                        // jumps straight to the maximum frequency.
                        self.switch_to(max_idx);
                    }
                }
                RunOutcome {
                    elapsed_us: now - start_us,
                    max_freq_fraction: if cycles > 0.0 { cycles_at_max / cycles } else { 1.0 },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i7_freqs() -> Vec<f64> {
        vec![1.6, 3.4]
    }

    #[test]
    fn performance_always_max() {
        let mut g = Governor::new(GovernorPolicy::Performance, i7_freqs());
        let out = g.run_cycles(3.4e6, 0.0);
        // 3.4e6 cycles at 3.4 GHz = 1000 µs
        assert!((out.elapsed_us - 1000.0).abs() < 1e-9);
        assert_eq!(out.max_freq_fraction, 1.0);
    }

    #[test]
    fn powersave_always_min() {
        let mut g = Governor::new(GovernorPolicy::Powersave, i7_freqs());
        let out = g.run_cycles(1.6e6, 0.0);
        assert!((out.elapsed_us - 1000.0).abs() < 1e-9);
        assert_eq!(out.max_freq_fraction, 0.0);
    }

    #[test]
    fn ondemand_short_run_stays_low() {
        let mut g =
            Governor::new(GovernorPolicy::Ondemand { sample_period_us: 1000.0 }, i7_freqs());
        // 16k cycles at 1.6 GHz = 10 µs << 1000 µs period
        let out = g.run_cycles(16_000.0, 0.0);
        assert!((out.elapsed_us - 10.0).abs() < 1e-9);
        assert_eq!(out.max_freq_fraction, 0.0);
    }

    #[test]
    fn ondemand_long_run_mostly_max() {
        let mut g =
            Governor::new(GovernorPolicy::Ondemand { sample_period_us: 1000.0 }, i7_freqs());
        // 100 periods worth of work
        let out = g.run_cycles(3.4e6 * 100.0, 0.0);
        assert!(out.max_freq_fraction > 0.95, "fraction = {}", out.max_freq_fraction);
    }

    #[test]
    fn ondemand_fraction_depends_on_phase() {
        // Identical work, different start phases -> different max-freq
        // fractions: the Figure 10 multimodality mechanism.
        let work = 1.6e6 * 1.5; // 1.5 low-freq periods of cycles
        let run = |start: f64| {
            let mut g =
                Governor::new(GovernorPolicy::Ondemand { sample_period_us: 1000.0 }, i7_freqs());
            g.run_cycles(work, start).max_freq_fraction
        };
        let fractions: Vec<f64> = (0..10).map(|i| run(i as f64 * 137.0)).collect();
        let distinct = {
            let mut v = fractions.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            v.len()
        };
        assert!(distinct >= 3, "fractions should vary with phase: {fractions:?}");
    }

    #[test]
    fn ondemand_decays_after_idle() {
        let mut g = Governor::new(GovernorPolicy::Ondemand { sample_period_us: 100.0 }, i7_freqs());
        g.run_cycles(3.4e6, 0.0); // ramps to max
        assert_eq!(g.freqs_ghz[g.current], 3.4);
        g.note_idle(10_000.0, 10_050.0); // idle < one period: stays hot
        assert_eq!(g.freqs_ghz[g.current], 3.4);
        g.note_idle(10_050.0, 10_400.0); // idle spans a tick: decays
        assert_eq!(g.freqs_ghz[g.current], 1.6);
    }

    #[test]
    fn elapsed_between_min_and_max_bounds() {
        let mut g = Governor::new(GovernorPolicy::Ondemand { sample_period_us: 500.0 }, i7_freqs());
        let cycles = 5e6;
        let out = g.run_cycles(cycles, 123.0);
        let t_fast = cycles / (3.4 * 1e3);
        let t_slow = cycles / (1.6 * 1e3);
        assert!(out.elapsed_us >= t_fast - 1e-9 && out.elapsed_us <= t_slow + 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_freqs_panic() {
        Governor::new(GovernorPolicy::Performance, vec![3.4, 1.6]);
    }

    #[test]
    fn transitions_count_actual_changes_only() {
        let mut g = Governor::new(GovernorPolicy::Performance, i7_freqs());
        g.run_cycles(1e6, 0.0);
        g.run_cycles(1e6, 2000.0);
        assert_eq!(g.transitions(), 0, "performance never leaves max");

        let mut g = Governor::new(GovernorPolicy::Ondemand { sample_period_us: 100.0 }, i7_freqs());
        assert_eq!(g.transitions(), 0);
        g.run_cycles(3.4e6, 0.0); // ramps low -> max: one transition
        assert_eq!(g.transitions(), 1);
        g.note_idle(10_050.0, 10_060.0); // idle < one tick: no decay
        assert_eq!(g.transitions(), 1);
        g.note_idle(10_060.0, 10_400.0); // decays max -> min
        assert_eq!(g.transitions(), 2);
        g.note_idle(10_400.0, 11_000.0); // already at min: no change
        assert_eq!(g.transitions(), 2);
    }
}

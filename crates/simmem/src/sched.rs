//! Operating-system scheduler models and the intruder process.
//!
//! Paper §IV-3: on the ARM Snowball, using the **real-time** scheduling
//! policy — expected to give better, more stable performance — instead
//! produced a second mode of execution ~5× slower in 20–25 % of the
//! measurements, temporally clustered (Figure 11, right plot). The cause:
//! "an external process running in parallel which is occasionally
//! scheduled to the same core when the real-time policy is activated".
//!
//! The model: an intruder process alternates ON/OFF phases in virtual
//! time. Under the default pinned policy the OS migrates it away (no
//! effect); under the RT policy it shares the pinned core and slows the
//! kernel by its duty weight.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Scheduling policy of the benchmark process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Pinned to a dedicated core, default priority (the well-behaved
    /// configuration).
    PinnedDefault,
    /// Pinned, real-time priority — the configuration that backfires.
    PinnedRealtime,
    /// Unpinned timeshare on a busy machine (the Figure 8 environment):
    /// migrations and preemptions add heavy wideband noise.
    TimeshareNoisy,
}

impl SchedPolicy {
    /// Parses the CSV name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pinned_default" => Some(SchedPolicy::PinnedDefault),
            "pinned_realtime" => Some(SchedPolicy::PinnedRealtime),
            "timeshare_noisy" => Some(SchedPolicy::TimeshareNoisy),
            _ => None,
        }
    }
}

/// Configuration of the intruder process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IntruderConfig {
    /// Mean OFF-phase duration (µs of virtual time).
    pub mean_off_us: f64,
    /// Mean ON-phase duration (µs).
    pub mean_on_us: f64,
    /// Slowdown factor while the intruder shares the core (≈ 5 in the
    /// paper's Figure 11).
    pub slowdown: f64,
}

impl IntruderConfig {
    /// The Figure 11 intruder: ~22 % duty cycle, 5× slowdown, phases long
    /// enough to span many consecutive measurements (tens of ms vs
    /// sub-ms measurement cadence).
    pub(crate) fn figure11() -> Self {
        IntruderConfig { mean_off_us: 120_000.0, mean_on_us: 35_000.0, slowdown: 5.0 }
    }
}

/// The scheduler model: tracks the intruder phase in virtual time and
/// tells the kernel how much it is being slowed right now.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    policy: SchedPolicy,
    intruder: IntruderConfig,
    rng: ChaCha8Rng,
    /// Virtual time at which the current intruder phase ends.
    phase_end_us: f64,
    intruder_on: bool,
}

impl Scheduler {
    /// Creates a scheduler with an intruder process, seeded.
    pub(crate) fn new(policy: SchedPolicy, intruder: IntruderConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Start OFF, with a random partial phase so campaigns don't all
        // begin at a phase boundary.
        let first: f64 = rng.random_range(0.0..1.0);
        Scheduler {
            policy,
            intruder,
            rng,
            phase_end_us: first * intruder.mean_off_us,
            intruder_on: false,
        }
    }

    /// The policy in force.
    pub(crate) fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// The intruder configuration in force.
    pub(crate) fn intruder(&self) -> IntruderConfig {
        self.intruder
    }

    /// Exponential deviate with the given mean.
    fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Advances the intruder phase machine to virtual time `now_us`.
    fn advance_to(&mut self, now_us: f64) {
        while now_us >= self.phase_end_us {
            self.intruder_on = !self.intruder_on;
            let mean =
                if self.intruder_on { self.intruder.mean_on_us } else { self.intruder.mean_off_us };
            self.phase_end_us += self.exp(mean);
        }
    }

    /// Whether the intruder is ON at virtual time `now_us` (advances the
    /// phase machine).
    pub(crate) fn intruder_on_at(&mut self, now_us: f64) -> bool {
        self.advance_to(now_us);
        self.intruder_on
    }

    /// Multiplier applied to a kernel run starting at `now_us`, and a
    /// per-run multiplicative jitter term the caller should also apply
    /// (`TimeshareNoisy` is noisy even without the intruder).
    ///
    /// Returns `(slowdown, extra_rel_noise)`.
    pub(crate) fn run_multiplier(&mut self, now_us: f64) -> (f64, f64) {
        let on = self.intruder_on_at(now_us);
        match self.policy {
            SchedPolicy::PinnedDefault => (1.0, 0.01),
            SchedPolicy::PinnedRealtime => {
                if on {
                    (self.intruder.slowdown, 0.03)
                } else {
                    (1.0, 0.005)
                }
            }
            SchedPolicy::TimeshareNoisy => {
                // Unpinned on a loaded box: the run shares the machine with
                // whatever else is going on; heavy, always-on jitter plus
                // occasional migration penalties.
                let migration: f64 = self.rng.random_range(0.0..1.0);
                let mult = if migration < 0.15 { 1.5 } else { 1.0 };
                (mult, 0.25)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Long-run fraction of time the intruder is running.
    fn duty_cycle(c: &IntruderConfig) -> f64 {
        c.mean_on_us / (c.mean_on_us + c.mean_off_us)
    }

    #[test]
    fn pinned_default_ignores_intruder() {
        let mut s = Scheduler::new(SchedPolicy::PinnedDefault, IntruderConfig::figure11(), 1);
        for i in 0..1000 {
            let (m, _) = s.run_multiplier(i as f64 * 10_000.0);
            assert_eq!(m, 1.0);
        }
    }

    #[test]
    fn realtime_slowed_at_duty_cycle_rate() {
        let cfg = IntruderConfig::figure11();
        let mut s = Scheduler::new(SchedPolicy::PinnedRealtime, cfg, 42);
        let n = 20_000;
        let slowed = (0..n).filter(|&i| s.run_multiplier(i as f64 * 5_000.0).0 > 1.0).count()
            as f64
            / n as f64;
        let duty = duty_cycle(&cfg);
        assert!(
            (slowed - duty).abs() < 0.08,
            "slowed fraction {slowed} far from duty cycle {duty}"
        );
    }

    #[test]
    fn slow_runs_temporally_clustered() {
        let mut s = Scheduler::new(SchedPolicy::PinnedRealtime, IntruderConfig::figure11(), 3);
        let slow: Vec<bool> =
            (0..20_000).map(|i| s.run_multiplier(i as f64 * 1_000.0).0 > 1.0).collect();
        // Mean run length of slow stretches must far exceed 1 (ON phases
        // span ~200 consecutive 5 ms measurements).
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &b in &slow {
            if b {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        assert!(!runs.is_empty(), "intruder never fired");
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(mean_run > 20.0, "mean slow-run length {mean_run}");
    }

    #[test]
    fn timeshare_noisier_than_pinned() {
        let mut s = Scheduler::new(SchedPolicy::TimeshareNoisy, IntruderConfig::figure11(), 5);
        let (_, noise) = s.run_multiplier(0.0);
        assert!(noise >= 0.2);
        let mut p = Scheduler::new(SchedPolicy::PinnedDefault, IntruderConfig::figure11(), 5);
        let (_, pn) = p.run_multiplier(0.0);
        assert!(pn <= 0.02);
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = |seed| {
            let mut s =
                Scheduler::new(SchedPolicy::PinnedRealtime, IntruderConfig::figure11(), seed);
            (0..200).map(|i| s.run_multiplier(i as f64 * 9_000.0).0).collect::<Vec<f64>>()
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn policy_names_roundtrip() {
        for (p, name) in [
            (SchedPolicy::PinnedDefault, "pinned_default"),
            (SchedPolicy::PinnedRealtime, "pinned_realtime"),
            (SchedPolicy::TimeshareNoisy, "timeshare_noisy"),
        ] {
            assert_eq!(SchedPolicy::parse(name), Some(p));
        }
    }
}

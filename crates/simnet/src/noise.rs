//! Noise processes perturbing the substrate's deterministic times.
//!
//! Three kinds, each corresponding to a phenomenon the paper documents:
//!
//! * **white noise** — per-measurement multiplicative jitter (OS and
//!   timer granularity); always present on real systems;
//! * **bursty temporal perturbation** (§III-1) — a two-state Gilbert
//!   process: the system is occasionally in a degraded state for a
//!   contiguous stretch of measurements ("external activity in a poorly
//!   isolated system"), inflating every measurement taken during the
//!   burst. Measured *sequentially*, the burst masquerades as a
//!   size-dependent effect; randomized designs expose it;
//! * **per-size anomalies** (§III-2) — specific sizes behave differently
//!   ("some values, such as 1024 … may have special behavior coded into
//!   the network layers"), which power-of-two ladders hit or miss
//!   systematically.
//!
//! # Counter-based randomness
//!
//! Every random draw is a pure function of `(stream_seed, measurement
//! index, salt)`: the model hashes the triple and feeds the result
//! through Box–Muller. Nothing about the value of measurement *i*
//! depends on how many draws earlier measurements consumed, so a
//! campaign can be split across shards at any boundary and still produce
//! bit-identical values (see the determinism contract in `DESIGN.md`).
//! The burst process keeps its Gilbert *state* chain — temporal
//! clustering is the whole point — but each transition consumes exactly
//! one counter-derived uniform, so the state at index `i` is likewise a
//! pure function of `(stream_seed, i)`.

/// splitmix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a decorrelated 64-bit value from `(stream_seed, index, salt)`.
/// Two finalizer rounds so that adjacent indices land far apart.
#[inline]
pub(crate) fn derive_u64(stream_seed: u64, index: u64, salt: u64) -> u64 {
    let z = stream_seed
        ^ salt.rotate_left(24)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    mix64(mix64(z).wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Uniform in the half-open interval `(0, 1]` — safe to feed to `ln`.
#[inline]
pub(crate) fn unit_open01(bits: u64) -> f64 {
    ((bits >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard normal deviate derived purely from `(stream_seed, index,
/// salt)` — the counter-based analogue of [`standard_normal`].
#[inline]
pub(crate) fn normal_at(stream_seed: u64, index: u64, salt: u64) -> f64 {
    let u1 = unit_open01(derive_u64(stream_seed, index, salt));
    let u2 = unit_open01(derive_u64(stream_seed, index, salt ^ 0xA5A5_A5A5_5A5A_5A5A));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Salt for the white-noise draw of each measurement.
const WHITE_SALT: u64 = 0x57E1_7E00_0000_0001;
/// Salt for the burst-transition draw of each measurement.
const BURST_SALT: u64 = 0xB025_7000_0000_0002;

/// Two-state Gilbert burst process over the *sequence* of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Probability of entering a burst at each measurement while quiet.
    pub enter_prob: f64,
    /// Probability of leaving the burst at each measurement while bursting.
    pub exit_prob: f64,
    /// Multiplier applied to measurements taken during a burst (e.g. 5.0
    /// slows everything 5×; the Figure 11 interloper is ≈ 5×).
    pub slowdown: f64,
    /// Additive extra delay during a burst (µs).
    pub extra_us: f64,
}

impl BurstConfig {
    /// A disabled burst process.
    pub fn off() -> Self {
        BurstConfig { enter_prob: 0.0, exit_prob: 1.0, slowdown: 1.0, extra_us: 0.0 }
    }
}

/// Full noise model: white jitter + burst process + size anomalies.
///
/// Draws are counter-based (see the module docs): the perturbation of
/// measurement `i` depends only on `(stream_seed, i)` and the call's
/// arguments, never on the call history. [`NoiseModel::perturb`] keeps a
/// running index for sequential use; `NoiseModel::perturb_at` addresses
/// an explicit index (what the parallel campaign runner uses).
#[derive(Debug, Clone)]
pub struct NoiseModel {
    stream_seed: u64,
    /// Relative sd of baseline white noise (applied on top of any
    /// regime-specific noise the caller supplies).
    pub white_rel: f64,
    /// Burst process configuration.
    pub burst: BurstConfig,
    /// Sizes with anomalous behaviour and the multiplier applied to them
    /// (e.g. `(1024, 0.6)` = the 1024-byte fast path is 40 % cheaper).
    pub size_anomalies: Vec<(u64, f64)>,
    /// Global multiplier on all *relative* noise (both this model's white
    /// term and any regime-specific term the caller passes). `silent()`
    /// sets it to zero so tests get fully deterministic times.
    pub noise_scale: f64,
    /// Next index used by the sequential [`NoiseModel::perturb`] API.
    next_index: u64,
    /// Number of burst transitions already applied: `in_burst` is the
    /// Gilbert state after consuming draws for indices `0..burst_pos`.
    burst_pos: u64,
    in_burst: bool,
}

impl NoiseModel {
    /// Creates a noise model with the given seed.
    pub fn new(seed: u64, white_rel: f64, burst: BurstConfig) -> Self {
        NoiseModel {
            stream_seed: seed,
            white_rel,
            burst,
            size_anomalies: Vec::new(),
            noise_scale: 1.0,
            next_index: 0,
            burst_pos: 0,
            in_burst: false,
        }
    }

    /// A silent model: no white noise, no bursts, and any regime-specific
    /// relative noise the caller passes is muted too — fully
    /// deterministic times for tests and ground-truth probes.
    pub fn silent(seed: u64) -> Self {
        let mut m = NoiseModel::new(seed, 0.0, BurstConfig::off());
        m.noise_scale = 0.0;
        m
    }

    /// Registers a per-size anomaly multiplier.
    pub fn with_anomaly(mut self, size: u64, multiplier: f64) -> Self {
        self.size_anomalies.push((size, multiplier));
        self
    }

    /// The seed identifying this model's random stream.
    pub(crate) fn stream_seed(&self) -> u64 {
        self.stream_seed
    }

    /// A fresh model with identical configuration whose draws come from
    /// `stream_seed`'s stream, positioned at index 0. Passing the same
    /// seed reproduces this model's stream exactly.
    pub(crate) fn fork(&self, stream_seed: u64) -> Self {
        NoiseModel {
            stream_seed,
            white_rel: self.white_rel,
            burst: self.burst,
            size_anomalies: self.size_anomalies.clone(),
            noise_scale: self.noise_scale,
            next_index: 0,
            burst_pos: 0,
            in_burst: false,
        }
    }

    /// Repositions the sequential cursor: the next [`NoiseModel::perturb`]
    /// call perturbs measurement `index`.
    pub(crate) fn skip_to(&mut self, index: u64) {
        self.next_index = index;
    }

    /// Gilbert state at measurement `index`: replays counter-derived
    /// transitions from the last cached position (O(1) when indices are
    /// consumed sequentially; restarts from 0 on a backward jump).
    fn burst_at(&mut self, index: u64) -> bool {
        if self.burst.enter_prob <= 0.0 {
            return false;
        }
        if index + 1 < self.burst_pos {
            self.burst_pos = 0;
            self.in_burst = false;
        }
        while self.burst_pos <= index {
            let p = unit_open01(derive_u64(self.stream_seed, self.burst_pos, BURST_SALT));
            if self.in_burst {
                if p < self.burst.exit_prob {
                    self.in_burst = false;
                }
            } else if p < self.burst.enter_prob {
                self.in_burst = true;
            }
            self.burst_pos += 1;
        }
        self.in_burst
    }

    /// Perturbs a deterministic duration `base_us` for a message of
    /// `size` bytes at the sequential cursor, with `extra_rel` additional
    /// relative noise from the active protocol regime. Advances the
    /// cursor.
    pub fn perturb(&mut self, base_us: f64, size: u64, extra_rel: f64) -> f64 {
        let index = self.next_index;
        self.next_index = index + 1;
        self.perturb_at(index, base_us, size, extra_rel)
    }

    /// Perturbs measurement `index` explicitly. The result is a pure
    /// function of `(stream_seed, index, base_us, size, extra_rel)` and
    /// the model configuration — independent of call order.
    pub(crate) fn perturb_at(
        &mut self,
        index: u64,
        base_us: f64,
        size: u64,
        extra_rel: f64,
    ) -> f64 {
        let bursting = self.burst_at(index);
        let mut t = base_us;
        // Size anomaly first (it is a property of the deterministic path).
        for &(s, m) in &self.size_anomalies {
            if s == size {
                t *= m;
            }
        }
        // Multiplicative white + regime noise, truncated to keep times
        // positive (a timer never reports negative durations).
        let rel =
            (self.white_rel * self.white_rel + extra_rel * extra_rel).sqrt() * self.noise_scale;
        if rel > 0.0 {
            let z = normal_at(self.stream_seed, index, WHITE_SALT);
            t *= (1.0 + rel * z).max(0.05);
        }
        // Burst effect last (the interloper delays whatever happens).
        if bursting {
            t = t * self.burst.slowdown + self.burst.extra_us;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_model_is_identity() {
        let mut n = NoiseModel::silent(1);
        for s in [0u64, 1, 1024, 1 << 20] {
            assert_eq!(n.perturb(42.0, s, 0.0), 42.0);
        }
    }

    #[test]
    fn white_noise_centered_and_bounded_spread() {
        let mut n = NoiseModel::new(7, 0.05, BurstConfig::off());
        let xs: Vec<f64> = (0..4000).map(|_| n.perturb(100.0, 8, 0.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean = {mean}");
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        assert!((sd - 5.0).abs() < 1.0, "sd = {sd}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn regime_noise_adds_in_quadrature() {
        let mut a = NoiseModel::new(3, 0.03, BurstConfig::off());
        let mut b = NoiseModel::new(3, 0.03, BurstConfig::off());
        let xa: Vec<f64> = (0..4000).map(|_| a.perturb(100.0, 8, 0.0)).collect();
        let xb: Vec<f64> = (0..4000).map(|_| b.perturb(100.0, 8, 0.04)).collect();
        let sd = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!((sd(&xa) - 3.0).abs() < 0.6);
        assert!((sd(&xb) - 5.0).abs() < 0.8); // sqrt(9+16) = 5
    }

    #[test]
    fn anomaly_applies_to_exact_size_only() {
        let mut n = NoiseModel::silent(1).with_anomaly(1024, 0.5);
        assert_eq!(n.perturb(100.0, 1024, 0.0), 50.0);
        assert_eq!(n.perturb(100.0, 1023, 0.0), 100.0);
        assert_eq!(n.perturb(100.0, 1025, 0.0), 100.0);
    }

    #[test]
    fn burst_duty_cycle_matches_theory() {
        let burst = BurstConfig { enter_prob: 0.02, exit_prob: 0.08, slowdown: 5.0, extra_us: 0.0 };
        let mut n = NoiseModel::new(11, 0.0, burst);
        let xs: Vec<f64> = (0..20_000).map(|_| n.perturb(100.0, 8, 0.0)).collect();
        let slowed = xs.iter().filter(|&&x| x > 300.0).count() as f64 / xs.len() as f64;
        assert!((slowed - 0.2).abs() < 0.04, "burst fraction = {slowed}");
    }

    #[test]
    fn bursts_are_temporally_clustered() {
        // Runs of consecutive slow measurements should be much longer than
        // under independent sampling with the same duty cycle.
        let burst = BurstConfig { enter_prob: 0.01, exit_prob: 0.05, slowdown: 5.0, extra_us: 0.0 };
        let mut n = NoiseModel::new(5, 0.0, burst);
        let slow: Vec<bool> = (0..30_000).map(|_| n.perturb(1.0, 8, 0.0) > 3.0).collect();
        // Mean run length of `true` stretches ≈ 1/exit_prob = 20.
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &s in &slow {
            if s {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        assert!(!runs.is_empty());
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(mean_run > 10.0, "mean run = {mean_run}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = |seed| {
            let mut n = NoiseModel::new(
                seed,
                0.05,
                BurstConfig { enter_prob: 0.01, exit_prob: 0.1, slowdown: 3.0, extra_us: 1.0 },
            );
            (0..100).map(|i| n.perturb(10.0, i, 0.01)).collect::<Vec<f64>>()
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }

    #[test]
    fn perturb_at_is_order_independent() {
        let cfg = BurstConfig { enter_prob: 0.02, exit_prob: 0.1, slowdown: 4.0, extra_us: 2.0 };
        let mut fwd = NoiseModel::new(21, 0.05, cfg).with_anomaly(64, 0.5);
        let sequential: Vec<f64> =
            (0..500).map(|i| fwd.perturb_at(i, 10.0, i % 128, 0.02)).collect();
        // Same indices visited in reverse on a forked model: identical values.
        let mut rev = fwd.fork(21);
        for i in (0..500).rev() {
            let v = rev.perturb_at(i, 10.0, i % 128, 0.02);
            assert_eq!(v, sequential[i as usize], "index {i}");
        }
    }

    #[test]
    fn skip_to_matches_explicit_index() {
        let cfg = BurstConfig { enter_prob: 0.05, exit_prob: 0.2, slowdown: 3.0, extra_us: 0.0 };
        let mut a = NoiseModel::new(8, 0.03, cfg);
        let full: Vec<f64> = (0..100).map(|_| a.perturb(5.0, 32, 0.01)).collect();
        let mut b = a.fork(8);
        b.skip_to(60);
        for (i, &expect) in full.iter().enumerate().skip(60) {
            assert_eq!(b.perturb(5.0, 32, 0.01), expect, "index {i}");
        }
    }

    #[test]
    fn fork_preserves_configuration() {
        let base = NoiseModel::new(1, 0.07, BurstConfig::off()).with_anomaly(256, 0.9);
        let f = base.fork(99);
        assert_eq!(f.white_rel, 0.07);
        assert_eq!(f.size_anomalies, vec![(256, 0.9)]);
        assert_eq!(f.stream_seed(), 99);
        assert_ne!(base.stream_seed(), f.stream_seed());
    }
}

//! Piecewise protocol model: eager / detached / rendez-vous regimes.
//!
//! Paper §II-B distinguishes "three synchronization protocols: eager
//! (totally asynchronous), rendez-vous (fully synchronized), and detached
//! (an intermediate behavior)", and notes that "different values for the
//! previous parameters may be used depending on the range in which the
//! message size falls" (piecewise modeling). Real MPI stacks switch
//! protocol at size thresholds; each regime here carries its own LogGP
//! parameter set plus a relative noise level, giving the heteroscedastic
//! bands visible in Figure 4.

use crate::params::LogGpParams;

/// Synchronization mode of a point-to-point transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProtocolMode {
    /// Totally asynchronous: the message is shipped immediately; small
    /// messages only.
    Eager,
    /// Intermediate: the payload is staged through bounce buffers.
    Detached,
    /// Fully synchronized: a control round-trip precedes the payload.
    Rendezvous,
}

impl ProtocolMode {
    /// Short lowercase name (CSV-friendly).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ProtocolMode::Eager => "eager",
            ProtocolMode::Detached => "detached",
            ProtocolMode::Rendezvous => "rendezvous",
        }
    }
}

/// One regime of the piecewise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Regime {
    /// Mode label of this regime.
    pub mode: ProtocolMode,
    /// LogGP parameters in force within the regime.
    pub params: LogGpParams,
    /// Relative (multiplicative) noise standard deviation applied to
    /// overhead measurements in this regime — models the higher
    /// variability of the detached band in Figure 4.
    pub send_noise_rel: f64,
    /// Relative noise on receive overheads (Figure 4 shows send and
    /// receive variability patterns differ).
    pub recv_noise_rel: f64,
    /// Relative noise on round-trip (ping-pong) measurements.
    pub rtt_noise_rel: f64,
}

/// A piecewise protocol model: regimes switched by message-size thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseProtocol {
    /// Ascending size thresholds; `thresholds[i]` is the first size that
    /// belongs to `regimes[i + 1]`.
    thresholds: Vec<u64>,
    regimes: Vec<Regime>,
}

impl PiecewiseProtocol {
    /// Builds a model from regimes and the thresholds between them.
    ///
    /// # Panics
    /// Panics unless `regimes.len() == thresholds.len() + 1` and thresholds
    /// ascend — the model is constructed from static presets, so violations
    /// are programmer errors.
    pub(crate) fn new(regimes: Vec<Regime>, thresholds: Vec<u64>) -> Self {
        assert_eq!(regimes.len(), thresholds.len() + 1, "regime/threshold arity");
        assert!(thresholds.windows(2).all(|w| w[0] < w[1]), "thresholds must ascend");
        assert!(!regimes.is_empty(), "need at least one regime");
        PiecewiseProtocol { thresholds, regimes }
    }

    /// The regime governing messages of `size` bytes.
    pub(crate) fn regime(&self, size: u64) -> &Regime {
        let idx = self.thresholds.partition_point(|&t| size >= t);
        &self.regimes[idx]
    }

    /// The protocol-switch thresholds (ascending).
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// Deterministic (noise-free) ping-pong round-trip time for `size`
    /// bytes: two one-way transfers, plus an extra control round-trip
    /// (`2·(L + o_s + o_r)` with zero payload) when the regime is
    /// rendez-vous.
    pub(crate) fn pingpong_rtt(&self, size: u64) -> f64 {
        let r = self.regime(size);
        let one_way = r.params.one_way(size);
        let sync = match r.mode {
            ProtocolMode::Rendezvous => {
                2.0 * (r.params.latency_us + r.params.send_overhead_us + r.params.recv_overhead_us)
            }
            ProtocolMode::Detached => {
                // One extra buffer copy on each side, folded into per-byte
                // receive cost: approximate as half a latency.
                r.params.latency_us
            }
            ProtocolMode::Eager => 0.0,
        };
        2.0 * one_way + sync
    }

    /// Deterministic send software overhead for `size` bytes.
    pub(crate) fn send_overhead(&self, size: u64) -> f64 {
        self.regime(size).params.send_overhead(size)
    }

    /// Deterministic receive software overhead for `size` bytes.
    pub(crate) fn recv_overhead(&self, size: u64) -> f64 {
        self.regime(size).params.recv_overhead(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(scale: f64) -> LogGpParams {
        LogGpParams {
            latency_us: 10.0 * scale,
            send_overhead_us: 1.0 * scale,
            send_overhead_per_byte: 0.001 * scale,
            recv_overhead_us: 1.5 * scale,
            recv_overhead_per_byte: 0.001 * scale,
            gap_us: 0.5,
            gap_per_byte: 0.01 * scale,
        }
    }

    fn regime(mode: ProtocolMode, scale: f64) -> Regime {
        Regime {
            mode,
            params: params(scale),
            send_noise_rel: 0.02,
            recv_noise_rel: 0.02,
            rtt_noise_rel: 0.02,
        }
    }

    fn three_mode() -> PiecewiseProtocol {
        // Same wire parameters in every regime: protocol switches then show
        // up purely as synchronization jumps.
        PiecewiseProtocol::new(
            vec![
                regime(ProtocolMode::Eager, 1.0),
                regime(ProtocolMode::Detached, 1.0),
                regime(ProtocolMode::Rendezvous, 1.0),
            ],
            vec![1024, 65536],
        )
    }

    #[test]
    fn regime_selection_by_threshold() {
        let p = three_mode();
        assert_eq!(p.regime(0).mode, ProtocolMode::Eager);
        assert_eq!(p.regime(1023).mode, ProtocolMode::Eager);
        assert_eq!(p.regime(1024).mode, ProtocolMode::Detached);
        assert_eq!(p.regime(65535).mode, ProtocolMode::Detached);
        assert_eq!(p.regime(65536).mode, ProtocolMode::Rendezvous);
        assert_eq!(p.regime(u64::MAX).mode, ProtocolMode::Rendezvous);
    }

    #[test]
    fn rendezvous_pays_sync_roundtrip() {
        let p = three_mode();
        // Compare a rendezvous RTT against what the same params would give
        // eagerly: difference must be the 2(L + o_s + o_r) control trip.
        let r = p.regime(100_000);
        let expected_sync =
            2.0 * (r.params.latency_us + r.params.send_overhead_us + r.params.recv_overhead_us);
        let rtt = p.pingpong_rtt(100_000);
        let plain = 2.0 * r.params.one_way(100_000);
        assert!((rtt - plain - expected_sync).abs() < 1e-9);
    }

    #[test]
    fn rtt_monotone_within_regime() {
        let p = three_mode();
        let mut prev = 0.0;
        for s in (0..1024).step_by(64) {
            let t = p.pingpong_rtt(s);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn protocol_switch_creates_discontinuity() {
        let p = three_mode();
        let before = p.pingpong_rtt(65535);
        let after = p.pingpong_rtt(65536);
        // Rendezvous adds a sync round-trip: a visible jump.
        assert!(after > before + 10.0, "no jump: {before} -> {after}");
    }

    #[test]
    fn uniform_model_has_no_thresholds() {
        let u = PiecewiseProtocol::new(vec![regime(ProtocolMode::Eager, 1.0)], vec![]);
        assert!(u.thresholds().is_empty());
        assert_eq!(u.regime(10).mode, ProtocolMode::Eager);
        assert_eq!(u.regime(u64::MAX).mode, ProtocolMode::Eager);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        PiecewiseProtocol::new(vec![regime(ProtocolMode::Eager, 1.0)], vec![100]);
    }

    #[test]
    fn mode_names() {
        assert_eq!(ProtocolMode::Eager.name(), "eager");
        assert_eq!(ProtocolMode::Detached.name(), "detached");
        assert_eq!(ProtocolMode::Rendezvous.name(), "rendezvous");
    }
}

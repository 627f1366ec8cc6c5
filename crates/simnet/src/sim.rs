//! The network simulator: protocol model + noise + virtual clock.

use crate::clock::VirtualClock;
use crate::noise::NoiseModel;
use crate::protocol::{PiecewiseProtocol, ProtocolMode};
use charm_obs::{Observation, Recorder};

/// The three measurable network operations of the methodology (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetOp {
    /// Asynchronous send; elapsed time = send software overhead.
    AsyncSend,
    /// Blocking receive of an already-arrived message; elapsed time =
    /// receive software overhead.
    BlockingRecv,
    /// Ping-pong round trip.
    PingPong,
}

impl NetOp {
    /// CSV-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            NetOp::AsyncSend => "async_send",
            NetOp::BlockingRecv => "blocking_recv",
            NetOp::PingPong => "ping_pong",
        }
    }

    /// Parses the CSV name back.
    pub fn parse(s: &str) -> Option<NetOp> {
        match s {
            "async_send" => Some(NetOp::AsyncSend),
            "blocking_recv" => Some(NetOp::BlockingRecv),
            "ping_pong" => Some(NetOp::PingPong),
            _ => None,
        }
    }
}

/// A virtual-time network endpoint pair under a piecewise protocol model.
///
/// Each measurement advances the virtual clock by the (noisy) operation
/// duration plus a small inter-measurement overhead, so temporal noise
/// processes interact with measurement *order* exactly as on a real system.
#[derive(Debug, Clone)]
pub struct NetworkSim {
    protocol: PiecewiseProtocol,
    noise: NoiseModel,
    clock: VirtualClock,
    /// Fixed virtual cost between consecutive measurements (loop overhead,
    /// timer reads); µs.
    pub inter_measurement_us: f64,
    measurements_taken: u64,
    recorder: Recorder,
}

impl NetworkSim {
    /// Creates a simulator from a protocol model and noise model.
    pub(crate) fn new(protocol: PiecewiseProtocol, noise: NoiseModel) -> Self {
        NetworkSim {
            protocol,
            noise,
            clock: VirtualClock::new(),
            inter_measurement_us: 1.0,
            measurements_taken: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Switches observability on: protocol-regime counters and one
    /// `"measure"` event per operation (ring capacity `event_capacity`).
    /// Recording never touches the noise stream or the virtual clock, so
    /// measurement values are unchanged.
    pub fn enable_observability(&mut self, event_capacity: usize) {
        self.recorder = Recorder::enabled(event_capacity);
    }

    /// Drains everything observed so far (counters, events, drop count).
    pub fn take_observation(&mut self) -> Observation {
        self.recorder.take()
    }

    /// The protocol model in force.
    pub fn protocol(&self) -> &PiecewiseProtocol {
        &self.protocol
    }

    /// Replaces the noise model (e.g. to enable a burst process on a
    /// preset platform).
    pub fn set_noise(&mut self, noise: NoiseModel) {
        self.noise = noise;
    }

    /// Virtual time elapsed so far (µs).
    pub fn now_us(&self) -> f64 {
        self.clock.now_us()
    }

    /// Performs one measured operation and returns its duration (µs).
    ///
    /// The duration of the `i`-th measurement is a pure function of
    /// `(op, size, stream seed, i)` — noise draws are counter-based (see
    /// [`NoiseModel`]) — so a campaign split across forked simulators
    /// reproduces the sequential values exactly.
    pub fn measure(&mut self, op: NetOp, size: u64) -> f64 {
        let regime = *self.protocol.regime(size);
        let (base, rel) = match op {
            NetOp::AsyncSend => (regime.params.send_overhead(size), regime.send_noise_rel),
            NetOp::BlockingRecv => (regime.params.recv_overhead(size), regime.recv_noise_rel),
            NetOp::PingPong => (self.protocol.pingpong_rtt(size), regime.rtt_noise_rel),
        };
        let t = self.noise.perturb_at(self.measurements_taken, base, size, rel);
        if self.recorder.is_enabled() {
            self.recorder.count("simnet.measurements", 1);
            let regime_key = match regime.mode {
                ProtocolMode::Eager => "simnet.regime.eager",
                ProtocolMode::Detached => "simnet.regime.detached",
                ProtocolMode::Rendezvous => "simnet.regime.rendezvous",
            };
            self.recorder.count(regime_key, 1);
            self.recorder.event(
                self.measurements_taken,
                "measure",
                self.clock.now_us(),
                vec![
                    ("mode".to_string(), regime.mode.name().to_string()),
                    ("op".to_string(), op.name().to_string()),
                    ("size".to_string(), size.to_string()),
                ],
            );
        }
        self.clock.advance_us(t + self.inter_measurement_us);
        self.measurements_taken += 1;
        t
    }

    /// A fresh simulator on the same protocol and noise configuration,
    /// drawing from `stream_seed`'s random stream, with clock and
    /// measurement counter reset. Forking with the parent's own
    /// [`NoiseModel::stream_seed`] reproduces its measurement values.
    pub fn fork(&self, stream_seed: u64) -> Self {
        NetworkSim {
            protocol: self.protocol.clone(),
            noise: self.noise.fork(stream_seed),
            clock: VirtualClock::new(),
            inter_measurement_us: self.inter_measurement_us,
            measurements_taken: 0,
            recorder: self.recorder.fork(),
        }
    }

    /// The seed identifying this simulator's noise stream.
    pub fn stream_seed(&self) -> u64 {
        self.noise.stream_seed()
    }

    /// Jumps the measurement counter to `index` without advancing the
    /// clock: the next [`NetworkSim::measure`] produces the value the
    /// sequential run would produce for measurement `index`.
    pub fn skip_to(&mut self, index: u64) {
        self.measurements_taken = index;
        self.noise.skip_to(index);
    }

    /// Deterministic (noise-free) duration the model assigns to an
    /// operation — the ground truth a calibration should recover.
    pub fn true_time(&self, op: NetOp, size: u64) -> f64 {
        match op {
            NetOp::AsyncSend => self.protocol.send_overhead(size),
            NetOp::BlockingRecv => self.protocol.recv_overhead(size),
            NetOp::PingPong => self.protocol.pingpong_rtt(size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{BurstConfig, NoiseModel};
    use crate::params::LogGpParams;
    use crate::protocol::Regime;

    fn quiet_sim() -> NetworkSim {
        let regime = Regime {
            mode: ProtocolMode::Eager,
            params: LogGpParams {
                latency_us: 20.0,
                send_overhead_us: 2.0,
                send_overhead_per_byte: 0.001,
                recv_overhead_us: 3.0,
                recv_overhead_per_byte: 0.001,
                gap_us: 0.5,
                gap_per_byte: 0.01,
            },
            send_noise_rel: 0.0,
            recv_noise_rel: 0.0,
            rtt_noise_rel: 0.0,
        };
        NetworkSim::new(PiecewiseProtocol::new(vec![regime], vec![]), NoiseModel::silent(1))
    }

    #[test]
    fn quiet_measurements_equal_true_time() {
        let mut sim = quiet_sim();
        for op in [NetOp::AsyncSend, NetOp::BlockingRecv, NetOp::PingPong] {
            for size in [0u64, 64, 4096] {
                let expect = sim.true_time(op, size);
                assert_eq!(sim.measure(op, size), expect);
            }
        }
    }

    #[test]
    fn clock_advances_with_each_measurement() {
        let mut sim = quiet_sim();
        let t0 = sim.now_us();
        let d = sim.measure(NetOp::PingPong, 1000);
        assert!((sim.now_us() - t0 - d - sim.inter_measurement_us).abs() < 1e-9);
        assert_eq!(sim.measurements_taken, 1);
    }

    #[test]
    fn op_names_roundtrip() {
        for op in [NetOp::AsyncSend, NetOp::BlockingRecv, NetOp::PingPong] {
            assert_eq!(NetOp::parse(op.name()), Some(op));
        }
        assert_eq!(NetOp::parse("bogus"), None);
    }

    #[test]
    fn noisy_sim_is_deterministic_per_seed() {
        let mk = |seed: u64| {
            let mut sim = quiet_sim();
            sim.noise = NoiseModel::new(seed, 0.05, BurstConfig::off());
            (0..50).map(|i| sim.measure(NetOp::PingPong, 64 * i)).collect::<Vec<f64>>()
        };
        assert_eq!(mk(4), mk(4));
        assert_ne!(mk(4), mk(5));
    }

    #[test]
    fn forked_shards_reproduce_sequential_values() {
        let mut sim = quiet_sim();
        sim.noise = NoiseModel::new(
            13,
            0.05,
            BurstConfig { enter_prob: 0.02, exit_prob: 0.1, slowdown: 4.0, extra_us: 5.0 },
        );
        let sizes: Vec<u64> = (0..200).map(|i| 64 * (i % 17) + 8).collect();
        let sequential: Vec<f64> = sizes.iter().map(|&s| sim.measure(NetOp::PingPong, s)).collect();
        // Split in two shards forked from the parent's own stream.
        for (lo, hi) in [(0usize, 120usize), (120, 200)] {
            let mut shard = sim.fork(sim.stream_seed());
            shard.skip_to(lo as u64);
            for i in lo..hi {
                assert_eq!(
                    shard.measure(NetOp::PingPong, sizes[i]),
                    sequential[i],
                    "measurement {i}"
                );
            }
        }
    }

    #[test]
    fn send_overhead_cheaper_than_rtt() {
        let mut sim = quiet_sim();
        for size in [1u64, 1000, 100_000] {
            assert!(sim.measure(NetOp::AsyncSend, size) < sim.measure(NetOp::PingPong, size));
        }
    }

    #[test]
    fn observability_never_changes_measurements() {
        let mk = |observe: bool| {
            let mut sim = quiet_sim();
            sim.noise = NoiseModel::new(21, 0.05, BurstConfig::off());
            if observe {
                sim.enable_observability(256);
            }
            (0..60).map(|i| sim.measure(NetOp::PingPong, 64 * (i % 13))).collect::<Vec<f64>>()
        };
        let plain = mk(false);
        let observed = mk(true);
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn regime_counters_and_events_track_measurements() {
        let mut sim = quiet_sim();
        sim.enable_observability(16);
        for i in 0..10u64 {
            sim.measure(NetOp::PingPong, 64 * i);
        }
        let obs = sim.take_observation();
        assert_eq!(obs.counters.get("simnet.measurements"), 10);
        // the quiet_sim protocol is uniformly eager
        assert_eq!(obs.counters.get("simnet.regime.eager"), 10);
        assert_eq!(obs.events.len(), 10);
        assert_eq!(obs.events[3].seq, 3);
        assert_eq!(obs.events[3].attr("mode"), Some("eager"));
        assert_eq!(obs.events[3].attr("op"), Some("ping_pong"));
        // forked shards carry an empty recorder with the same enablement
        let mut fork = sim.fork(sim.stream_seed());
        assert!(fork.recorder.is_enabled());
        assert!(fork.take_observation().counters.is_empty());
    }
}

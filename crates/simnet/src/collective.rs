//! Collective operations modelled over the point-to-point substrate.
//!
//! PMB (and SkaMPI, and every MPI benchmark suite) measures collectives;
//! LogP-family papers model them as trees of point-to-point messages.
//! The substrate composes its own piecewise protocol model the same way:
//! a binomial tree of sends for broadcast/reduce, a recursive-doubling
//! exchange for allreduce and barrier. Collective times therefore inherit
//! every point-to-point behaviour — protocol switches, size anomalies,
//! noise regimes — instead of being parameterized separately.

use crate::sim::NetworkSim;

/// Collective operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// One-to-all broadcast (binomial tree).
    Broadcast,
    /// All-to-one reduction (binomial tree, inverted).
    Reduce,
    /// All-reduce (recursive doubling).
    AllReduce,
    /// Barrier (zero-byte recursive doubling).
    Barrier,
}

impl Collective {
    /// Number of sequential communication rounds on `p` processes.
    pub(crate) fn rounds(self, p: u32) -> u32 {
        if p <= 1 {
            return 0;
        }
        let lg = 32 - (p - 1).leading_zeros(); // ceil(log2 p)
        match self {
            // tree depth for one-to-all / all-to-one
            Collective::Broadcast | Collective::Reduce => lg,
            // recursive doubling: lg rounds
            Collective::AllReduce | Collective::Barrier => lg,
        }
    }
}

/// Measures one collective of `size` bytes across `procs` processes.
///
/// The critical path is `rounds` sequential one-way transfers; each round
/// is measured on the substrate (so noise and protocol regimes apply per
/// round). `AllReduce` pays the payload in every round; `Barrier` moves
/// zero bytes.
pub fn measure_collective(sim: &mut NetworkSim, op: Collective, size: u64, procs: u32) -> f64 {
    let rounds = op.rounds(procs);
    let payload = match op {
        Collective::Barrier => 0,
        _ => size,
    };
    let mut total = 0.0;
    for _ in 0..rounds {
        // a round on the critical path = one one-way transfer; measured as
        // half a ping-pong so regime noise and anomalies apply
        total += sim.measure(crate::sim::NetOp::PingPong, payload) / 2.0;
    }
    total
}

/// Deterministic (noise-free) collective time under the protocol model.
pub fn true_collective_time(sim: &NetworkSim, op: Collective, size: u64, procs: u32) -> f64 {
    let rounds = op.rounds(procs);
    let payload = match op {
        Collective::Barrier => 0,
        _ => size,
    };
    rounds as f64 * sim.true_time(crate::sim::NetOp::PingPong, payload) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::presets;

    #[test]
    fn rounds_are_log2() {
        assert_eq!(Collective::Broadcast.rounds(1), 0);
        assert_eq!(Collective::Broadcast.rounds(2), 1);
        assert_eq!(Collective::Broadcast.rounds(8), 3);
        assert_eq!(Collective::Broadcast.rounds(9), 4);
        assert_eq!(Collective::AllReduce.rounds(16), 4);
    }

    #[test]
    fn collective_time_scales_logarithmically_in_procs() {
        let mut sim = presets::myrinet_gm(1);
        sim.set_noise(NoiseModel::silent(0));
        let t8 = true_collective_time(&sim, Collective::Broadcast, 4096, 8);
        let t64 = true_collective_time(&sim, Collective::Broadcast, 4096, 64);
        assert!((t64 / t8 - 2.0).abs() < 1e-9, "log2 64 / log2 8 = 2");
        let measured = measure_collective(&mut sim, Collective::Broadcast, 4096, 8);
        assert!((measured - t8).abs() < 1e-9);
    }

    #[test]
    fn barrier_is_size_independent() {
        let sim = presets::myrinet_gm(2);
        let a = true_collective_time(&sim, Collective::Barrier, 0, 16);
        let b = true_collective_time(&sim, Collective::Barrier, 1 << 20, 16);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn collectives_inherit_protocol_switches() {
        // the rendezvous jump shows up in broadcast time too
        let mut sim = presets::openmpi_fig3(3);
        sim.set_noise(NoiseModel::silent(0));
        let before = true_collective_time(&sim, Collective::Broadcast, 32 * 1024 - 1, 8);
        let after = true_collective_time(&sim, Collective::Broadcast, 32 * 1024, 8);
        assert!(after > before * 1.05, "{before} -> {after}");
    }

    #[test]
    fn single_process_is_free() {
        let mut sim = presets::taurus_openmpi_tcp(4);
        assert_eq!(measure_collective(&mut sim, Collective::AllReduce, 4096, 1), 0.0);
    }
}

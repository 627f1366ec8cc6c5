//! PMaC-style convolution: application signature × machine signature →
//! predicted run time (paper Figure 1).
//!
//! "Computational and communication capabilities are first considered
//! separately … The processor usage of each block may be obtained through
//! an instrumented execution … The performance of the processor is
//! measured independently by a benchmark … and both series of values are
//! convolved … Likewise, MPI operations are traced and the network
//! parameters are benchmarked and later convolved."
//!
//! The application signature is deliberately machine-independent: compute
//! blocks carry bytes touched and working-set size; communication events
//! carry operation and message size. The machine signature is the pair of
//! instantiated models from [`crate::models`]. The same app convolved
//! with differently-instantiated machine signatures is how we quantify
//! the damage opaque calibration does (the `convolution` bench).

use crate::models::{MemoryModel, NetworkModel};
use charm_simnet::NetOp;

/// One sequential compute block of the traced application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeBlock {
    /// Bytes the block reads/writes in total.
    pub bytes_touched: f64,
    /// Its working-set size (bytes) — decides the serving cache level.
    pub working_set_bytes: u64,
    /// Repetitions of this block.
    pub repeat: u32,
}

/// One traced communication event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// The MPI-level operation.
    pub op: NetOp,
    /// Message size (bytes).
    pub size: u64,
    /// Repetitions of this event.
    pub repeat: u32,
}

/// A machine-independent application signature (the MetaSim/MPIDtrace
/// output of Figure 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppSignature {
    /// Sequential compute blocks.
    pub compute: Vec<ComputeBlock>,
    /// Communication events.
    pub comm: Vec<CommEvent>,
}

impl AppSignature {
    /// An empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a compute block.
    pub fn block(mut self, bytes_touched: f64, working_set_bytes: u64, repeat: u32) -> Self {
        self.compute.push(ComputeBlock { bytes_touched, working_set_bytes, repeat });
        self
    }

    /// Adds a communication event.
    pub fn message(mut self, op: NetOp, size: u64, repeat: u32) -> Self {
        self.comm.push(CommEvent { op, size, repeat });
        self
    }
}

/// The machine signature: the two instantiated models.
#[derive(Debug, Clone)]
pub struct MachineSignature {
    /// Memory plateaus.
    pub memory: MemoryModel,
    /// Piecewise network model.
    pub network: NetworkModel,
}

/// Predicted execution breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Time in compute/memory (µs).
    pub memory_us: f64,
    /// Time in communication (µs).
    pub network_us: f64,
}

impl Prediction {
    /// Total predicted time (µs).
    pub fn total_us(&self) -> f64 {
        self.memory_us + self.network_us
    }
}

/// Convolves an application signature with a machine signature.
pub fn convolve(app: &AppSignature, machine: &MachineSignature) -> Prediction {
    let memory_us: f64 = app
        .compute
        .iter()
        .map(|b| b.repeat as f64 * machine.memory.predict_us(b.bytes_touched, b.working_set_bytes))
        .sum();
    let network_us: f64 =
        app.comm.iter().map(|e| e.repeat as f64 * machine.network.predict(e.op, e.size)).sum();
    Prediction { memory_us, network_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::loggp::NetworkModel;
    use crate::models::memory::{MemoryModel, Plateau};
    use charm_design::doe::FullFactorial;
    use charm_design::sampling;
    use charm_design::Factor;
    use charm_engine::target::NetworkTarget;
    use charm_simnet::noise::NoiseModel;
    use charm_simnet::presets;

    fn toy_memory() -> MemoryModel {
        MemoryModel {
            plateaus: vec![
                Plateau { capacity_bytes: 32 * 1024, bandwidth_mbps: 20_000.0 },
                Plateau { capacity_bytes: 1 << 20, bandwidth_mbps: 8_000.0 },
            ],
            dram_bandwidth_mbps: 2_000.0,
        }
    }

    fn taurus_model() -> NetworkModel {
        let sizes: Vec<i64> =
            sampling::log_uniform_sizes(8, 1 << 20, 50, 1).into_iter().map(|s| s as i64).collect();
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
            .factor(Factor::new("size", sizes))
            .replicates(3)
            .build();
        plan.shuffle(1);
        let mut sim = presets::taurus_openmpi_tcp(1);
        sim.set_noise(NoiseModel::silent(0));
        let mut target = NetworkTarget::new("taurus", sim);
        let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(1).run().unwrap().data;
        NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap()
    }

    #[test]
    fn compute_time_uses_working_set_level() {
        let machine = MachineSignature { memory: toy_memory(), network: taurus_model() };
        // 1 MB touched in-L1 vs from DRAM: 10x bandwidth ratio
        let fast = AppSignature::new().block(1e6, 16 * 1024, 1);
        let slow = AppSignature::new().block(1e6, 8 << 20, 1);
        let pf = convolve(&fast, &machine);
        let ps = convolve(&slow, &machine);
        assert!((pf.memory_us - 1e6 / 20_000.0).abs() < 1e-9);
        assert!((ps.memory_us - 1e6 / 2_000.0).abs() < 1e-9);
        assert_eq!(pf.network_us, 0.0);
    }

    #[test]
    fn repeats_scale_linearly() {
        let machine = MachineSignature { memory: toy_memory(), network: taurus_model() };
        let once = AppSignature::new().block(5e5, 1000, 1).message(NetOp::PingPong, 4096, 1);
        let ten = AppSignature::new().block(5e5, 1000, 10).message(NetOp::PingPong, 4096, 10);
        let p1 = convolve(&once, &machine);
        let p10 = convolve(&ten, &machine);
        assert!((p10.total_us() / p1.total_us() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn network_part_matches_model_prediction() {
        let machine = MachineSignature { memory: toy_memory(), network: taurus_model() };
        let app = AppSignature::new().message(NetOp::AsyncSend, 10_000, 3);
        let p = convolve(&app, &machine);
        let expected = 3.0 * machine.network.predict(NetOp::AsyncSend, 10_000);
        assert!((p.network_us - expected).abs() < 1e-9);
        assert_eq!(p.memory_us, 0.0);
    }

    #[test]
    fn end_to_end_prediction_close_to_substrate_truth() {
        // Predict a message-heavy app and compare against the substrate's
        // deterministic times: the convolution error should be small when
        // the model was instantiated with correct breakpoints.
        let machine = MachineSignature { memory: toy_memory(), network: taurus_model() };
        let sim = presets::taurus_openmpi_tcp(0);
        let sizes = [1000u64, 20_000, 60_000, 300_000];
        let app = sizes.iter().fold(AppSignature::new(), |a, &s| a.message(NetOp::PingPong, s, 2));
        let predicted = convolve(&app, &machine).network_us;
        let truth: f64 = sizes.iter().map(|&s| 2.0 * sim.true_time(NetOp::PingPong, s)).sum();
        let rel = (predicted - truth).abs() / truth;
        assert!(rel < 0.1, "convolved {predicted} vs truth {truth}");
    }

    #[test]
    fn total_is_sum_of_parts() {
        let p = Prediction { memory_us: 2.0, network_us: 3.0 };
        assert_eq!(p.total_us(), 5.0);
    }
}

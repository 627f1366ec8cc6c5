//! Roofline model (paper §II-C: "Roofline estimations are the simplest
//! way to estimate memory access performance").
//!
//! `attainable GFLOP/s = min(peak_flops, peak_bandwidth × intensity)` —
//! instantiated from a STREAM-style peak-bandwidth probe plus the
//! machine's nominal peak FLOP rate, and used to classify kernels as
//! memory- or compute-bound.

/// A machine's roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak floating-point rate (GFLOP/s).
    pub peak_gflops: f64,
    /// Peak sustained memory bandwidth (GB/s).
    pub peak_bandwidth_gbps: f64,
}

/// How a kernel is bound under a roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Limited by memory bandwidth.
    Memory,
    /// Limited by peak compute.
    Compute,
}

impl Roofline {
    /// Builds a roofline from a measured peak bandwidth (MB/s) and a peak
    /// FLOP rate.
    ///
    /// # Panics
    /// Panics on non-positive inputs (these come from benchmarks that
    /// return positive rates by construction).
    pub fn new(peak_gflops: f64, peak_bandwidth_mbps: f64) -> Self {
        assert!(peak_gflops > 0.0 && peak_bandwidth_mbps > 0.0, "rates must be positive");
        Roofline { peak_gflops, peak_bandwidth_gbps: peak_bandwidth_mbps / 1000.0 }
    }

    /// The ridge point: the arithmetic intensity (FLOP/byte) at which the
    /// two ceilings meet.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_gflops / self.peak_bandwidth_gbps
    }

    /// Attainable performance (GFLOP/s) at arithmetic intensity
    /// `flops_per_byte`.
    pub fn attainable_gflops(&self, flops_per_byte: f64) -> f64 {
        (self.peak_bandwidth_gbps * flops_per_byte).min(self.peak_gflops)
    }

    /// Which ceiling binds a kernel with the given intensity.
    pub fn bound(&self, flops_per_byte: f64) -> Bound {
        if flops_per_byte < self.ridge_intensity() {
            Bound::Memory
        } else {
            Bound::Compute
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rl() -> Roofline {
        // 100 GFLOP/s, 20 GB/s -> ridge at 5 FLOP/B
        Roofline::new(100.0, 20_000.0)
    }

    #[test]
    fn ridge_point() {
        assert!((rl().ridge_intensity() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn attainable_piecewise() {
        let r = rl();
        // memory-bound region: linear in intensity
        assert!((r.attainable_gflops(1.0) - 20.0).abs() < 1e-12);
        assert!((r.attainable_gflops(2.5) - 50.0).abs() < 1e-12);
        // compute-bound region: flat
        assert!((r.attainable_gflops(10.0) - 100.0).abs() < 1e-12);
        assert!((r.attainable_gflops(100.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn bound_classification() {
        let r = rl();
        assert_eq!(r.bound(0.1), Bound::Memory);
        assert_eq!(r.bound(50.0), Bound::Compute);
    }

    #[test]
    fn from_stream_probe() {
        // instantiate from the STREAM-style opaque probe on the Opteron
        use charm_opaque::stream::{peak_bandwidth_mbps, StreamConfig};
        use charm_simmem::dvfs::GovernorPolicy;
        use charm_simmem::machine::{CpuSpec, MachineSim};
        use charm_simmem::paging::AllocPolicy;
        use charm_simmem::sched::SchedPolicy;
        let mut m = MachineSim::new(
            CpuSpec::opteron(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::MallocPerSize,
            1,
        );
        let peak = peak_bandwidth_mbps(
            &mut m,
            &StreamConfig { buffer_bytes: 8 << 20, trials: 3, nloops: 5 },
        );
        let r = Roofline::new(2.8 * 2.0, peak); // 2 flops/cycle nominal
        assert!(r.ridge_intensity() > 0.0);
        // a stride-1 sum kernel: 1 FLOP per 4 bytes = 0.25 FLOP/B ->
        // memory bound on any sane machine
        assert_eq!(r.bound(0.25), Bound::Memory);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        Roofline::new(0.0, 100.0);
    }
}

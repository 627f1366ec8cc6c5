//! The Figure 6 memory-access kernel: configuration and results.
//!
//! ```text
//! MultiMAPS(size, stride, nloops) {
//!     allocate buffer[size];
//!     timer_start();
//!     for rep in (1..nloops)
//!         for i in (0..size/stride)
//!             access buffer[stride*i];   // s = s + buffer[stride*i]
//!     timer_stop();
//!     bandwidth = (naccesses * sizeof(elements)) / elapsed_time;
//! }
//! ```
//!
//! [`KernelConfig`] captures the kernel's controllable inputs, which are
//! exactly the leaves of the Figure 13 factor diagram that belong to the
//! kernel itself (size, stride, cycles/nloops, element type, unrolling);
//! the remaining factors (governor, scheduler, allocation technique,
//! pinning) live on [`crate::machine::MachineSim`].

use crate::compiler::{CodegenConfig, ElementWidth};

/// One kernel invocation's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Buffer size in bytes.
    pub buffer_bytes: u64,
    /// Stride in *elements* (the Figure 6 loop multiplies the index by
    /// this).
    pub stride_elems: u64,
    /// Element width and unrolling.
    pub codegen: CodegenConfig,
    /// Number of passes over the buffer.
    pub nloops: u64,
}

impl KernelConfig {
    /// The paper's baseline configuration: `int` elements, rolled loop,
    /// stride 1.
    pub fn baseline(buffer_bytes: u64, nloops: u64) -> Self {
        KernelConfig {
            buffer_bytes,
            stride_elems: 1,
            codegen: CodegenConfig::new(ElementWidth::W32, false),
            nloops,
        }
    }

    /// Same configuration with another stride.
    pub fn with_stride(mut self, stride_elems: u64) -> Self {
        self.stride_elems = stride_elems;
        self
    }

    /// Number of accesses one pass performs.
    pub(crate) fn accesses_per_pass(&self) -> u64 {
        (self.buffer_bytes / self.codegen.width.bytes()) / self.stride_elems
    }
}

/// One kernel measurement as the engine records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelResult {
    /// Elapsed virtual time of the timed region (µs).
    pub elapsed_us: f64,
    /// Measured bandwidth (MB/s), per the Figure 6 formula.
    pub bandwidth_mbps: f64,
    /// Fraction of cycles the governor ran at maximum frequency
    /// (diagnostic — a real benchmark cannot see this, which is rather
    /// the paper's point).
    pub max_freq_fraction: f64,
    /// Whether the intruder process shared the core during this run
    /// (diagnostic, same caveat).
    pub intruded: bool,
    /// Virtual start time of the run (µs).
    pub start_us: f64,
    /// 0-based sequence number of this measurement on its machine.
    pub sequence: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::GovernorPolicy;
    use crate::machine::{CpuSpec, MachineSim};
    use crate::paging::AllocPolicy;
    use crate::sched::SchedPolicy;

    fn with_codegen(config: KernelConfig, codegen: CodegenConfig) -> KernelConfig {
        KernelConfig { codegen, ..config }
    }

    fn quiet_machine(spec: CpuSpec, seed: u64) -> MachineSim {
        MachineSim::new(
            spec,
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::MallocPerSize,
            seed,
        )
    }

    #[test]
    fn config_access_counts() {
        let c = KernelConfig::baseline(8192, 3).with_stride(2);
        assert_eq!(c.accesses_per_pass(), 1024);
    }

    #[test]
    fn bandwidth_positive_and_finite() {
        let mut m = quiet_machine(CpuSpec::opteron(), 1);
        for size_kb in [1u64, 16, 64, 256, 2048] {
            let r = m.run_kernel(&KernelConfig::baseline(size_kb * 1024, 8));
            assert!(r.bandwidth_mbps.is_finite() && r.bandwidth_mbps > 0.0);
            assert!(r.elapsed_us > 0.0);
        }
    }

    #[test]
    fn l1_resident_faster_than_dram_resident() {
        let mut m = quiet_machine(CpuSpec::opteron(), 2);
        let small = m.run_kernel(&KernelConfig::baseline(16 * 1024, 50));
        let huge = m.run_kernel(&KernelConfig::baseline(8 * 1024 * 1024, 50));
        assert!(
            small.bandwidth_mbps > 3.0 * huge.bandwidth_mbps,
            "L1 {} vs DRAM {}",
            small.bandwidth_mbps,
            huge.bandwidth_mbps
        );
    }

    #[test]
    fn three_plateaus_on_opteron() {
        // Figure 7's shape: distinct L1 / L2 / DRAM bandwidth levels.
        let m = quiet_machine(CpuSpec::opteron(), 3);
        let bw = |kb: u64| {
            m.ideal_bandwidth_mbps(&KernelConfig::baseline(kb * 1024, 2000).with_stride(2), 2.8)
        };
        let l1 = bw(32); // fits 64K L1
        let l2 = bw(512); // fits 1M L2
        let dram = bw(4096); // exceeds L2
        assert!(l1 > 1.5 * l2, "L1 {l1} vs L2 {l2}");
        assert!(l2 > 1.5 * dram, "L2 {l2} vs DRAM {dram}");
    }

    #[test]
    fn stride_halves_bandwidth_beyond_l1() {
        // Figure 7: strides matter once the array exceeds L1 — bandwidth
        // drops by ~2 per stride doubling — but not inside L1.
        let m = quiet_machine(CpuSpec::opteron(), 4);
        let bw = |kb: u64, stride: u64| {
            m.ideal_bandwidth_mbps(
                &KernelConfig::baseline(kb * 1024, 2000).with_stride(stride),
                2.8,
            )
        };
        // inside L1: stride has no effect
        let in2 = bw(32, 2);
        let in4 = bw(32, 4);
        assert!((in2 / in4 - 1.0).abs() < 0.05, "inside L1: {in2} vs {in4}");
        // beyond L2 (DRAM): stride 4 about half of stride 2
        let out2 = bw(4096, 2);
        let out4 = bw(4096, 4);
        let ratio = out2 / out4;
        assert!((1.6..=2.4).contains(&ratio), "beyond L1 ratio {ratio}");
    }

    #[test]
    fn wider_elements_raise_bandwidth() {
        // Figure 9: element width ~doubles bandwidth (same byte count).
        let m = quiet_machine(CpuSpec::core_i7_2600(), 5);
        let bw = |w: ElementWidth| {
            m.ideal_bandwidth_mbps(
                &with_codegen(
                    KernelConfig::baseline(16 * 1024, 2000),
                    CodegenConfig::new(w, false),
                ),
                3.4,
            )
        };
        let w32 = bw(ElementWidth::W32);
        let w64 = bw(ElementWidth::W64);
        assert!((w64 / w32 - 2.0).abs() < 0.1, "{w32} vs {w64}");
    }

    #[test]
    fn i7_256bit_unroll_anomaly() {
        // Figure 9's surprise: the widest vector + unroll is *slower* than
        // without unrolling on the i7.
        let m = quiet_machine(CpuSpec::core_i7_2600(), 6);
        let bw = |unroll: bool| {
            m.ideal_bandwidth_mbps(
                &with_codegen(
                    KernelConfig::baseline(16 * 1024, 2000),
                    CodegenConfig::new(ElementWidth::W256, unroll),
                ),
                3.4,
            )
        };
        assert!(bw(true) < 0.5 * bw(false), "anomaly missing: {} vs {}", bw(true), bw(false));
    }

    #[test]
    fn no_l1_drop_when_issue_bound() {
        // Figure 9: with narrow (4 B) rolled accesses the L1->L2 boundary
        // is nearly invisible; with wide unrolled accesses it is large.
        let m = quiet_machine(CpuSpec::core_i7_2600(), 7);
        let ratio = |cg: CodegenConfig| {
            let inside = m.ideal_bandwidth_mbps(
                &with_codegen(KernelConfig::baseline(16 * 1024, 2000), cg),
                3.4,
            );
            let outside = m.ideal_bandwidth_mbps(
                &with_codegen(KernelConfig::baseline(128 * 1024, 2000), cg),
                3.4,
            );
            inside / outside
        };
        let narrow = ratio(CodegenConfig::new(ElementWidth::W32, false));
        let wide = ratio(CodegenConfig::new(ElementWidth::W256, false));
        assert!(narrow < 1.15, "narrow config should show almost no drop: {narrow}");
        assert!(wide > 1.5, "wide config should drop hard: {wide}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = quiet_machine(CpuSpec::arm_snowball(), seed);
            (0..20)
                .map(|i| m.run_kernel(&KernelConfig::baseline(((i % 10) + 1) * 4096, 5)).elapsed_us)
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut m = quiet_machine(CpuSpec::opteron(), 8);
        for i in 0..5 {
            let r = m.run_kernel(&KernelConfig::baseline(4096, 2));
            assert_eq!(r.sequence, i);
        }
    }

    #[test]
    #[should_panic(expected = "nloops")]
    fn zero_loops_rejected() {
        let mut m = quiet_machine(CpuSpec::opteron(), 9);
        m.run_kernel(&KernelConfig::baseline(4096, 0));
    }
}

//! Parameter sets of the LogP model family.
//!
//! Paper §II-B: in LogP, `o` is the software overhead, `L` the minimal
//! transmission delay, and `g` the gap between messages; LogGP adds `G`,
//! the gap per *byte* for long messages (inverse bandwidth); PLogP makes
//! the overheads functions of the message size. The substrate is
//! parameterized with LogGP plus affine per-byte overheads, which is
//! expressive enough to instantiate any of the family from measurements.

/// LogGP-style parameters with affine, direction-specific software
/// overheads (µs and µs/byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGpParams {
    /// Network latency `L` (µs).
    pub latency_us: f64,
    /// Fixed send software overhead `o_s` (µs).
    pub send_overhead_us: f64,
    /// Per-byte send overhead (µs/B) — the CPU cost of buffering/copying.
    pub send_overhead_per_byte: f64,
    /// Fixed receive software overhead `o_r` (µs).
    pub recv_overhead_us: f64,
    /// Per-byte receive overhead (µs/B).
    pub recv_overhead_per_byte: f64,
    /// Gap per message `g` (µs) — minimum spacing between injections.
    pub gap_us: f64,
    /// Gap per byte `G` (µs/B) — inverse wire bandwidth.
    pub gap_per_byte: f64,
}

impl LogGpParams {
    /// Deterministic (noise-free) send software overhead for `size` bytes.
    pub(crate) fn send_overhead(&self, size: u64) -> f64 {
        self.send_overhead_us + self.send_overhead_per_byte * size as f64
    }

    /// Deterministic receive software overhead for `size` bytes.
    pub(crate) fn recv_overhead(&self, size: u64) -> f64 {
        self.recv_overhead_us + self.recv_overhead_per_byte * size as f64
    }

    /// Deterministic one-way transfer time of a single message under
    /// LogGP: `o_s + (s−1)·G + L + o_r` (the conventional formula, with
    /// per-byte overheads folded into the o's).
    pub(crate) fn one_way(&self, size: u64) -> f64 {
        let wire_bytes = size.saturating_sub(1) as f64;
        self.send_overhead(size)
            + wire_bytes * self.gap_per_byte
            + self.latency_us
            + self.recv_overhead(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogGpParams {
        LogGpParams {
            latency_us: 10.0,
            send_overhead_us: 2.0,
            send_overhead_per_byte: 0.001,
            recv_overhead_us: 3.0,
            recv_overhead_per_byte: 0.002,
            gap_us: 1.0,
            gap_per_byte: 0.01,
        }
    }

    #[test]
    fn overheads_are_affine() {
        let p = sample();
        assert!((p.send_overhead(0) - 2.0).abs() < 1e-12);
        assert!((p.send_overhead(1000) - 3.0).abs() < 1e-12);
        assert!((p.recv_overhead(500) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn one_way_hand_checked() {
        let p = sample();
        // size 101: o_s = 2.101, wire = 100*0.01 = 1.0, L = 10, o_r = 3.202
        let t = p.one_way(101);
        assert!((t - (2.101 + 1.0 + 10.0 + 3.202)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn one_way_monotone_in_size() {
        let p = sample();
        let mut prev = 0.0;
        for s in [0u64, 1, 2, 10, 100, 10_000, 1_000_000] {
            let t = p.one_way(s);
            assert!(t >= prev);
            prev = t;
        }
    }
}

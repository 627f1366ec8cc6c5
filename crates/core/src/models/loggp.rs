//! Piecewise LogGP network-model instantiation — the supervised analysis
//! of paper §V-A.
//!
//! "The breakpoints are manually provided by the analyst and a piecewise
//! linear regression is calculated for each of the three operations. The
//! send and receive software overhead are measured using the blocking
//! receive and the asynchronous send, latency and bandwidth are obtained
//! using the ping-pong measurements. Plots are generated so a human can
//! check the linearity assumption, if the breakpoints are coherent, and
//! the outcome of the regressions."

use charm_analysis::piecewise::PiecewiseLinear;
use charm_analysis::AnalysisError;
use charm_engine::record::Campaign;
use charm_simnet::NetOp;

/// One regime of an instantiated network model.
#[derive(Debug, Clone)]
pub struct ModelSegment {
    /// Size range `[from, to]` in bytes this segment covers.
    pub from: u64,
    /// Upper edge (inclusive).
    pub to: u64,
    /// Send overhead `o_s(s) = a + b·s`: `(a, b)`.
    pub send_overhead: (f64, f64),
    /// Receive overhead `o_r(s) = a + b·s`: `(a, b)`.
    pub recv_overhead: (f64, f64),
    /// Round-trip `rtt(s) = a + b·s`: `(a, b)`.
    pub rtt: (f64, f64),
    /// Derived latency `L = rtt(0)/2 − o_s(0) − o_r(0)` (µs, clamped ≥ 0).
    pub latency_us: f64,
    /// Derived wire gap per byte `G = rtt'/2 − o_s' − o_r'` (µs/B,
    /// clamped ≥ 0).
    pub gap_per_byte: f64,
    /// R² of the RTT regression in this segment — the "check the
    /// linearity assumption" diagnostic. Beware: R² collapses on narrow
    /// segments even when the fit is excellent relative to the signal;
    /// prefer [`ModelSegment::rtt_rel_rmse`] for a quality gate.
    pub rtt_r_squared: f64,
    /// RMSE of the RTT fit divided by the segment's mean RTT — a
    /// scale-free fit-quality measure.
    pub rtt_rel_rmse: f64,
}

impl ModelSegment {
    /// Effective asymptotic bandwidth in MB/s within this regime.
    pub fn bandwidth_mbps(&self) -> f64 {
        if self.gap_per_byte <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.gap_per_byte
        }
    }
}

/// A piecewise network model instantiated from raw campaign data.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Segments in ascending size order.
    pub segments: Vec<ModelSegment>,
    /// The analyst-provided breakpoints that produced them.
    pub breakpoints: Vec<u64>,
}

impl NetworkModel {
    /// Instantiates the model from a campaign holding the three
    /// operations (factors `op`, `size`), with analyst-provided
    /// `breakpoints` (bytes, ascending, strictly inside the size range).
    /// A failed segment fit is reported under its op's name, e.g.
    /// `async_send: segment 1 [32768, 131072) with 0 distinct x: …`.
    pub fn fit(campaign: &Campaign, breakpoints: &[u64]) -> Result<Self, AnalysisError> {
        let per_op = |op: NetOp| -> Result<(Vec<f64>, Vec<f64>), AnalysisError> {
            let sub = campaign.filtered("op", |l| l.as_text() == Some(op.name()));
            sub.paired("size").ok_or(AnalysisError::InvalidParameter("size factor missing"))
        };
        let (sx, sy) = per_op(NetOp::AsyncSend)?;
        let (rx, ry) = per_op(NetOp::BlockingRecv)?;
        let (px, py) = per_op(NetOp::PingPong)?;
        let bps: Vec<f64> = breakpoints.iter().map(|&b| b as f64).collect();

        let fit_op = |op: NetOp, x: &[f64], y: &[f64]| {
            PiecewiseLinear::fit(x, y, &bps).map_err(|e| e.within(op.name()))
        };
        let send_fit = fit_op(NetOp::AsyncSend, &sx, &sy)?;
        let recv_fit = fit_op(NetOp::BlockingRecv, &rx, &ry)?;
        let rtt_fit = fit_op(NetOp::PingPong, &px, &py)?;

        let mut segments = Vec::new();
        for i in 0..rtt_fit.num_segments() {
            let s = &send_fit.segments()[i];
            let r = &recv_fit.segments()[i];
            let p = &rtt_fit.segments()[i];
            let latency_us = (p.fit.intercept / 2.0 - s.fit.intercept - r.fit.intercept).max(0.0);
            let gap_per_byte = (p.fit.slope / 2.0 - s.fit.slope - r.fit.slope).max(0.0);
            // scale-free fit quality: RMSE over the segment's mean RTT
            let last = i == rtt_fit.num_segments() - 1;
            let seg_y: Vec<f64> = px
                .iter()
                .zip(&py)
                .filter(|&(&x, _)| x >= p.lo && (x < p.hi || (last && x <= p.hi)))
                .map(|(_, &y)| y)
                .collect();
            let mean_y = seg_y.iter().sum::<f64>() / seg_y.len().max(1) as f64;
            let rtt_rel_rmse = if mean_y > 0.0 { p.fit.rmse() / mean_y } else { f64::NAN };
            segments.push(ModelSegment {
                from: p.lo.max(0.0) as u64,
                to: p.hi as u64,
                send_overhead: (s.fit.intercept, s.fit.slope),
                recv_overhead: (r.fit.intercept, r.fit.slope),
                rtt: (p.fit.intercept, p.fit.slope),
                latency_us,
                gap_per_byte,
                rtt_r_squared: p.fit.r_squared,
                rtt_rel_rmse,
            });
        }
        Ok(NetworkModel { segments, breakpoints: breakpoints.to_vec() })
    }

    /// The segment covering `size` bytes.
    pub(crate) fn segment_for(&self, size: u64) -> &ModelSegment {
        let idx = self.breakpoints.partition_point(|&b| size >= b);
        &self.segments[idx.min(self.segments.len() - 1)]
    }

    /// Predicted duration of an operation at `size` bytes (µs).
    pub fn predict(&self, op: NetOp, size: u64) -> f64 {
        let seg = self.segment_for(size);
        let (a, b) = match op {
            NetOp::AsyncSend => seg.send_overhead,
            NetOp::BlockingRecv => seg.recv_overhead,
            NetOp::PingPong => seg.rtt,
        };
        a + b * size as f64
    }

    /// Predicted one-way message time under the LogGP reading:
    /// `o_s(s) + L + s·G + o_r(s)`.
    pub(crate) fn predict_one_way(&self, size: u64) -> f64 {
        let seg = self.segment_for(size);
        let s = size as f64;
        seg.send_overhead.0
            + seg.send_overhead.1 * s
            + seg.latency_us
            + seg.gap_per_byte * s
            + seg.recv_overhead.0
            + seg.recv_overhead.1 * s
    }

    /// Worst per-segment relative RMSE — the scale-free quality gate.
    pub fn max_rel_rmse(&self) -> f64 {
        self.segments.iter().map(|s| s.rtt_rel_rmse).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::sampling;
    use charm_design::Factor;
    use charm_engine::target::NetworkTarget;
    use charm_simnet::noise::NoiseModel;
    use charm_simnet::presets;

    /// Worst per-segment RTT R² — the model's overall linearity grade.
    fn min_r_squared(model: &NetworkModel) -> f64 {
        model.segments.iter().map(|s| s.rtt_r_squared).fold(f64::INFINITY, f64::min)
    }

    /// White-box campaign over the Taurus preset with log-uniform sizes.
    fn taurus_campaign(seed: u64, silent: bool) -> Campaign {
        let sizes: Vec<i64> = sampling::log_uniform_sizes(8, 1 << 20, 60, seed)
            .into_iter()
            .map(|s| s as i64)
            .collect();
        let mut plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
            .factor(Factor::new("size", sizes))
            .replicates(5)
            .build();
        plan.shuffle(seed);
        let mut sim = presets::taurus_openmpi_tcp(seed);
        if silent {
            sim.set_noise(NoiseModel::silent(0));
        }
        let mut target = NetworkTarget::new("taurus", sim);
        charm_engine::Campaign::new(&plan, &mut target).seed(seed).run().unwrap().data
    }

    #[test]
    fn recovers_taurus_parameters_with_true_breakpoints() {
        let campaign = taurus_campaign(1, true);
        let model = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap();
        assert_eq!(model.segments.len(), 3);
        // Eager segment ground truth: L = 25, G = 0.0011.
        let eager = model.segment_for(1000);
        assert!((eager.latency_us - 25.0).abs() < 3.0, "L = {}", eager.latency_us);
        assert!((eager.gap_per_byte - 0.0011).abs() < 0.0004, "G = {}", eager.gap_per_byte);
        // Rendezvous: send overhead intercept near 8.
        let rdv = model.segment_for(1 << 20);
        assert!((rdv.send_overhead.0 - 8.0).abs() < 3.0);
        // Good linearity everywhere on silent data.
        assert!(min_r_squared(&model) > 0.99);
    }

    #[test]
    fn prediction_matches_truth_within_noise() {
        let campaign = taurus_campaign(2, false);
        let model = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap();
        let sim = presets::taurus_openmpi_tcp(0);
        for &size in &[500u64, 10_000, 60_000, 500_000] {
            let truth = sim.true_time(NetOp::PingPong, size);
            let pred = model.predict(NetOp::PingPong, size);
            let rel = (pred - truth).abs() / truth;
            assert!(rel < 0.15, "size {size}: pred {pred} vs truth {truth}");
        }
    }

    #[test]
    fn wrong_breakpoints_degrade_linearity() {
        let campaign = taurus_campaign(3, true);
        let good = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap();
        let none = NetworkModel::fit(&campaign, &[]).unwrap();
        assert!(
            min_r_squared(&none) < min_r_squared(&good),
            "ignoring protocol changes must hurt the fit: {} vs {}",
            min_r_squared(&none),
            min_r_squared(&good)
        );
    }

    #[test]
    fn segment_lookup_uses_breakpoints() {
        let campaign = taurus_campaign(4, true);
        let model = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap();
        assert!((model.segment_for(1000).from) < 32 * 1024);
        assert_eq!(
            model.segment_for(40 * 1024).rtt.0,
            model.segments[1].rtt.0,
            "40K lies in the detached segment"
        );
    }

    #[test]
    fn bandwidth_derived_from_gap() {
        let campaign = taurus_campaign(5, true);
        let model = NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024]).unwrap();
        let rdv = model.segment_for(1 << 20);
        // ground truth: G = 0.0008 -> 1250 MB/s
        assert!((rdv.bandwidth_mbps() - 1250.0).abs() < 300.0, "{}", rdv.bandwidth_mbps());
    }
}

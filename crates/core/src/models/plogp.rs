//! PLogP ("parameterized LogP") model instantiation.
//!
//! Paper §II-B: PLogP (Kielmann et al.) makes the software overheads and
//! the gap *functions of the message size* instead of piecewise-affine
//! constants: `os(m)`, `or(m)`, `g(m)`, plus a scalar latency `L`. This
//! module instantiates those function tables from a white-box campaign as
//! monotone size-indexed lookup tables with linear interpolation —
//! model-agnostic instantiation being exactly what raw retention buys
//! ("NetGauge provides a way to explicitly output all the necessary
//! parameters to instantiate the LogGP and PLogP models").

use charm_analysis::descriptive;
use charm_analysis::AnalysisError;
use charm_engine::record::Campaign;
use charm_simnet::NetOp;

/// A size-indexed function table with linear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeFunction {
    /// `(size bytes, value µs)` knots, ascending in size.
    knots: Vec<(f64, f64)>,
}

impl SizeFunction {
    /// Builds a table from per-size medians of a campaign subset.
    fn from_pairs(mut pairs: Vec<(f64, f64)>) -> Result<Self, AnalysisError> {
        if pairs.len() < 2 {
            return Err(AnalysisError::TooFewObservations { needed: 2, got: pairs.len() });
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sizes"));
        pairs.dedup_by(|a, b| a.0 == b.0);
        Ok(SizeFunction { knots: pairs })
    }

    /// The knots of the table.
    pub(crate) fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }

    /// Evaluates the function at `size`, interpolating linearly between
    /// knots and clamping outside the measured range.
    pub(crate) fn eval(&self, size: u64) -> f64 {
        let x = size as f64;
        let first = self.knots[0];
        let last = self.knots[self.knots.len() - 1];
        if x <= first.0 {
            return first.1;
        }
        if x >= last.0 {
            return last.1;
        }
        let idx = self.knots.partition_point(|&(kx, _)| kx <= x);
        let (x0, y0) = self.knots[idx - 1];
        let (x1, y1) = self.knots[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

/// An instantiated PLogP model.
#[derive(Debug, Clone, PartialEq)]
pub struct PLogPModel {
    /// End-to-end latency `L` (µs), estimated at the smallest size.
    pub latency_us: f64,
    /// Send overhead function `os(m)`.
    pub os: SizeFunction,
    /// Receive overhead function `or(m)`.
    pub or: SizeFunction,
    /// Gap function `g(m)` (µs): time per message of size m in a steady
    /// stream — derived here from half the ping-pong RTT.
    pub g: SizeFunction,
}

impl PLogPModel {
    /// Instantiates the model from a campaign with factors `op` and
    /// `size` (the same campaigns `NetworkModel::fit` consumes).
    pub(crate) fn fit(campaign: &Campaign) -> Result<Self, AnalysisError> {
        let table = |op: NetOp| -> Result<Vec<(f64, f64)>, AnalysisError> {
            let sub = campaign.filtered("op", |l| l.as_text() == Some(op.name()));
            let groups = sub.group_by(&["size"]);
            if groups.is_empty() {
                return Err(AnalysisError::EmptyInput);
            }
            groups
                .into_iter()
                .map(|(key, values)| {
                    let size = key[0]
                        .as_float()
                        .ok_or(AnalysisError::InvalidParameter("size not numeric"))?;
                    Ok((size, descriptive::median(&values)?))
                })
                .collect()
        };
        let os = SizeFunction::from_pairs(table(NetOp::AsyncSend)?)?;
        let or = SizeFunction::from_pairs(table(NetOp::BlockingRecv)?)?;
        let rtt_pairs = table(NetOp::PingPong)?;
        let g = SizeFunction::from_pairs(rtt_pairs.iter().map(|&(s, t)| (s, t / 2.0)).collect())?;
        // L = g(m0) − os(m0) − or(m0) at the smallest measured size: for
        // tiny messages the one-way time is os + L + or.
        let m0 = g.knots()[0].0 as u64;
        let latency_us = (g.eval(m0) - os.eval(m0) - or.eval(m0)).max(0.0);
        Ok(PLogPModel { latency_us, os, or, g })
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

    fn campaign(seed: u64, silent: bool) -> Campaign {
        let sizes: Vec<i64> = sampling::log_uniform_sizes(8, 1 << 20, 70, seed)
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
    fn tables_interpolate_the_truth() {
        let model = PLogPModel::fit(&campaign(1, true)).unwrap();
        let sim = presets::taurus_openmpi_tcp(0);
        for size in [100u64, 5_000, 60_000, 800_000] {
            let truth = sim.true_time(charm_simnet::NetOp::PingPong, size) / 2.0;
            let pred = model.g.eval(size);
            let rel = (pred - truth).abs() / truth;
            assert!(rel < 0.15, "size {size}: {pred} vs {truth}");
        }
    }

    #[test]
    fn overhead_functions_grow_with_size() {
        let model = PLogPModel::fit(&campaign(2, true)).unwrap();
        assert!(model.os.eval(100_000) > model.os.eval(100));
        assert!(model.or.eval(100_000) > model.or.eval(100));
    }

    #[test]
    fn captures_nonlinearity_a_single_line_cannot() {
        // The protocol switch at 32K bends g(m); the table follows it,
        // a global line does not.
        let c = campaign(3, true);
        let model = PLogPModel::fit(&c).unwrap();
        let sub = c.filtered("op", |l| l.as_text() == Some("ping_pong"));
        let (xs, ys) = sub.paired("size").unwrap();
        let line = charm_analysis::regression::ols(&xs, &ys).unwrap();
        let sim = presets::taurus_openmpi_tcp(0);
        let mut table_err = 0.0;
        let mut line_err = 0.0;
        for size in [2_000u64, 40_000, 200_000, 900_000] {
            let truth = sim.true_time(charm_simnet::NetOp::PingPong, size);
            table_err += ((2.0 * model.g.eval(size) - truth) / truth).abs();
            line_err += ((line.predict(size as f64) - truth) / truth).abs();
        }
        assert!(table_err < line_err, "table {table_err} vs line {line_err}");
    }

    #[test]
    fn eval_clamps_outside_range() {
        let f = SizeFunction::from_pairs(vec![(10.0, 1.0), (20.0, 2.0)]).unwrap();
        assert_eq!(f.eval(0), 1.0);
        assert_eq!(f.eval(100), 2.0);
        assert!((f.eval(15) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn latency_estimate_close_to_truth_on_silent_data() {
        let model = PLogPModel::fit(&campaign(4, true)).unwrap();
        // Taurus eager truth: L = 25 µs
        assert!((model.latency_us - 25.0).abs() < 8.0, "L = {}", model.latency_us);
    }

    #[test]
    fn noisy_campaign_still_fits() {
        let model = PLogPModel::fit(&campaign(5, false)).unwrap();
        assert!(model.latency_us >= 0.0);
        assert!(model.g.knots().len() > 30);
    }
}

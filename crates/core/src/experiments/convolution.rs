//! The Figure 1 use-case, closed end to end: convolve application
//! signatures with machine signatures and compare the predictions against
//! substrate ground truth — once with a **white-box-instantiated** model
//! (randomized log-uniform sizes, correct breakpoints) and once with an
//! **opaque-instantiated** one (power-of-two grid, single-segment fit —
//! what a tool that never questioned its grid or its "no protocol
//! changes" default would produce).
//!
//! This quantifies the paper's warning that "simplistic approaches can
//! lead to severely biased measurements that make simulation predictions
//! unreliable".

use crate::convolution::{convolve, AppSignature, MachineSignature};
use crate::error::CharmError;
use crate::models::memory::{MemoryModel, Plateau};
use crate::models::NetworkModel;
use charm_design::doe::FullFactorial;
use charm_design::sampling;
use charm_design::Factor;
use charm_engine::target::NetworkTarget;
use charm_simnet::{presets, NetOp, NetworkSim};

/// Prediction quality of one model flavour on one application.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application label.
    pub app: String,
    /// Ground-truth network time on the substrate (µs).
    pub truth_us: f64,
    /// White-box model prediction (µs).
    pub whitebox_us: f64,
    /// Opaque model prediction (µs).
    pub opaque_us: f64,
}

impl AppResult {
    /// Relative error of the white-box prediction.
    pub(crate) fn whitebox_error(&self) -> f64 {
        (self.whitebox_us - self.truth_us).abs() / self.truth_us
    }

    /// Relative error of the opaque prediction.
    pub(crate) fn opaque_error(&self) -> f64 {
        (self.opaque_us - self.truth_us).abs() / self.truth_us
    }
}

/// The experiment's dataset.
#[derive(Debug, Clone)]
pub struct ConvolutionStudy {
    /// One row per synthetic application.
    pub results: Vec<AppResult>,
}

/// Instantiates the white-box network model (the §V-A procedure).
fn whitebox_model(seed: u64) -> Result<NetworkModel, CharmError> {
    let sizes: Vec<i64> =
        sampling::log_uniform_sizes(8, 1 << 21, 80, seed).into_iter().map(|s| s as i64).collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(6)
        .build();
    plan.shuffle(seed);
    let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let campaign = charm_engine::Campaign::new(&plan, &mut target).seed(seed).run()?.data;
    Ok(NetworkModel::fit(&campaign, &[32 * 1024, 128 * 1024])?)
}

/// Instantiates the opaque model: power-of-two grid, sequential order,
/// one segment (no protocol awareness).
fn opaque_model(seed: u64) -> Result<NetworkModel, CharmError> {
    let sizes: Vec<i64> =
        sampling::power_of_two_sizes(21, false).into_iter().map(|s| s as i64).collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(6)
        .build();
    // sequential order, as the opaque loop of Figure 2 does
    let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let campaign = charm_engine::Campaign::new(&plan, &mut target).run()?.data;
    Ok(NetworkModel::fit(&campaign, &[])?)
}

/// A flat memory model so the study isolates the network side.
fn flat_memory() -> MemoryModel {
    MemoryModel {
        plateaus: vec![Plateau { capacity_bytes: u64::MAX, bandwidth_mbps: 10_000.0 }],
        dram_bandwidth_mbps: 10_000.0,
    }
}

/// The synthetic applications: message-size mixes the paper's intro
/// motivates (halo exchanges, mid-size pipelines, bulk transfers).
pub(crate) fn applications() -> Vec<(String, AppSignature)> {
    vec![
        (
            "halo-exchange (many small)".into(),
            AppSignature::new().message(NetOp::PingPong, 700, 400).message(
                NetOp::AsyncSend,
                1500,
                400,
            ),
        ),
        (
            "pipeline (medium, detached band)".into(),
            AppSignature::new().message(NetOp::PingPong, 50_000, 60).message(
                NetOp::BlockingRecv,
                80_000,
                60,
            ),
        ),
        (
            "bulk-io (large, rendez-vous)".into(),
            AppSignature::new().message(NetOp::PingPong, 1 << 20, 12),
        ),
        (
            "mixed (all regimes)".into(),
            AppSignature::new()
                .message(NetOp::AsyncSend, 900, 150)
                .message(NetOp::PingPong, 60_000, 40)
                .message(NetOp::PingPong, 512 * 1024, 8),
        ),
    ]
}

/// Ground truth: the substrate's deterministic times.
fn truth(sim: &NetworkSim, app: &AppSignature) -> f64 {
    app.comm.iter().map(|e| e.repeat as f64 * sim.true_time(e.op, e.size)).sum()
}

/// Runs the study.
///
/// # Panics
///
/// When a model fit fails, as the white-box one does at some seeds
/// (`try_run` returns that as an error instead).
pub fn run(seed: u64) -> ConvolutionStudy {
    try_run(seed).unwrap_or_else(|e| panic!("convolution (seed {seed}): {e}"))
}

/// Runs the study, returning a failed measurement or model fit as an
/// error.
pub(crate) fn try_run(seed: u64) -> Result<ConvolutionStudy, CharmError> {
    let white = MachineSignature { memory: flat_memory(), network: whitebox_model(seed)? };
    let opaque = MachineSignature { memory: flat_memory(), network: opaque_model(seed)? };
    let sim = presets::taurus_openmpi_tcp(0);

    let results = applications()
        .into_iter()
        .map(|(app_name, app)| AppResult {
            app: app_name,
            truth_us: truth(&sim, &app),
            whitebox_us: convolve(&app, &white).network_us,
            opaque_us: convolve(&app, &opaque).network_us,
        })
        .collect();
    Ok(ConvolutionStudy { results })
}

impl ConvolutionStudy {
    /// CSV rows: `app,truth_us,whitebox_us,opaque_us,whitebox_err,opaque_err`.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    r.app.clone(),
                    r.truth_us.to_string(),
                    r.whitebox_us.to_string(),
                    r.opaque_us.to_string(),
                    r.whitebox_error().to_string(),
                    r.opaque_error().to_string(),
                ]
            })
            .collect();
        super::plot::csv(
            &["app", "truth_us", "whitebox_us", "opaque_us", "whitebox_rel_err", "opaque_rel_err"],
            &rows,
        )
    }

    /// Terminal report.
    pub(crate) fn report(&self) -> String {
        let mut out = String::from(
            "Convolution study — prediction error by model instantiation flavour\n  app                                truth(ms)  whitebox err  opaque err\n",
        );
        for r in &self.results {
            out.push_str(&format!(
                "  {:<34} {:>8.1}  {:>11.1}%  {:>9.1}%\n",
                r.app,
                r.truth_us / 1000.0,
                100.0 * r.whitebox_error(),
                100.0 * r.opaque_error()
            ));
        }
        out.push_str("opaque calibration (power-of-two grid, one segment) degrades prediction wherever\nprotocol regimes matter; the white-box model tracks all three regimes\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitebox_beats_opaque_overall() {
        let study = run(1);
        let wb: f64 = study.results.iter().map(AppResult::whitebox_error).sum::<f64>() / 4.0;
        let op: f64 = study.results.iter().map(AppResult::opaque_error).sum::<f64>() / 4.0;
        assert!(wb < op, "white-box mean error {wb} should beat opaque {op}");
        assert!(wb < 0.10, "white-box error should be small: {wb}");
    }

    #[test]
    fn whitebox_accurate_on_every_app() {
        let study = run(2);
        for r in &study.results {
            assert!(r.whitebox_error() < 0.15, "{}: white-box err {}", r.app, r.whitebox_error());
        }
    }

    #[test]
    fn opaque_worst_where_regimes_matter() {
        let study = run(3);
        let by_name = |needle: &str| {
            study.results.iter().find(|r| r.app.contains(needle)).expect("app present")
        };
        // the medium-size app straddles the detached regime the
        // single-segment fit cannot represent
        let medium = by_name("pipeline");
        assert!(
            medium.opaque_error() > medium.whitebox_error(),
            "opaque should lose on the detached band"
        );
    }

    #[test]
    fn artifacts_render() {
        let study = run(4);
        assert!(study.to_csv().lines().count() == 5);
        assert!(study.report().contains("opaque err"));
    }
}

//! Figure 4 — "Network modeling of the Grid'5000 Taurus cluster": send
//! overhead, receive overhead, and latency/bandwidth as functions of the
//! message size, measured with the full white-box methodology (randomized
//! log-uniform sizes, raw retention) and fitted piecewise with
//! analyst-provided breakpoints.
//!
//! The figure's second message is the heteroscedasticity: the receive
//! operation for medium sizes "has a much higher variability than for
//! other message sizes", and because sizes were randomized "we can safely
//! conclude that this variability is a real phenomenon and not an
//! artifact resulting from temporal perturbation". The driver reports the
//! per-regime coefficient of variation for each operation to make that
//! band visible.

use crate::error::CharmError;
use crate::models::NetworkModel;
use crate::pipeline::Study;
use crate::spec::ResolvedBenchmark;
use charm_analysis::{descriptive, AnalysisError};
use charm_engine::record::Campaign;
use charm_engine::registry::{self, ResolvedTarget};
use charm_simnet::NetOp;

/// The Figure 4 design, `benchmarks/fig04.toml`: randomized log-uniform
/// sizes of the three operations on the Taurus preset, and the
/// analyst-provided breakpoints of the fit.
pub(crate) const SPEC: &str = include_str!("../../../../benchmarks/fig04.toml");

/// Per-(operation, regime) variability cell.
#[derive(Debug, Clone)]
pub struct VariabilityCell {
    /// Operation name.
    pub op: String,
    /// Regime index (0 = eager, 1 = detached, 2 = rendez-vous).
    pub regime: usize,
    /// Coefficient of variation of the *residuals relative to the fit*
    /// within the regime.
    pub cv: f64,
}

/// The Figure 4 dataset.
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// The raw campaign (kept whole — that is the methodology).
    pub campaign: Campaign,
    /// The fitted piecewise model.
    pub model: NetworkModel,
    /// Variability per operation and regime.
    pub variability: Vec<VariabilityCell>,
    /// The analyst-provided breakpoints used.
    pub breakpoints: Vec<u64>,
}

/// Runs the embedded `benchmarks/fig04.toml` spec with `n_sizes` log-uniform sizes × `reps` replicates.
///
/// # Panics
///
/// When the fit fails: a regime that draws too few distinct sizes
/// (`from_spec` returns that as an error instead).
pub fn run(seed: u64, n_sizes: usize, reps: u32) -> Fig04 {
    let params = [
        ("n_sizes".to_string(), n_sizes.to_string()),
        ("replicates".to_string(), reps.to_string()),
    ];
    from_spec(SPEC, seed, &params).unwrap_or_else(|e| panic!("fig04 (seed {seed}): {e}"))
}

/// Resolves a Figure 4 spec (normally [`SPEC`]) at `seed` with `params`
/// overrides, runs its campaign on the registry-resolved network target
/// (one shard through the sharded builder, so the raw CSV carries the
/// `# shards` / `# batches` / `# shard_clock_offsets` header), then fits
/// the piecewise model at the spec's `analysis.breakpoints` and the
/// per-regime variability table.
pub(crate) fn from_spec(
    text: &str,
    seed: u64,
    params: &[(String, String)],
) -> Result<Fig04, CharmError> {
    let r = super::resolve(text, seed, params)?;
    let breakpoints = ResolvedBenchmark::u64_array(&r.analysis, "breakpoints")?;
    let target = match registry::resolve(&r.target, seed)? {
        ResolvedTarget::Network(t) => t,
        other => {
            return Err(super::spec_error(format_args!(
                "fig04 needs a network target, spec gave {other:?}"
            )))
        }
    };
    fit(Study::prepared(r.plan, r.order_seed).run_sharded(&*target, 1)?, breakpoints)
}

fn fit(campaign: Campaign, breakpoints: Vec<u64>) -> Result<Fig04, CharmError> {
    let model = NetworkModel::fit(&campaign, &breakpoints)?;

    // per-op, per-regime residual CV
    let mut variability = Vec::new();
    for op in [NetOp::AsyncSend, NetOp::BlockingRecv, NetOp::PingPong] {
        let sub = campaign.filtered("op", |l| l.as_text() == Some(op.name()));
        let (xs, ys) =
            sub.paired("size").ok_or(AnalysisError::InvalidParameter("size factor missing"))?;
        for regime in 0..=breakpoints.len() {
            let (lo, hi) = regime_range(&breakpoints, regime);
            let rel_resid: Vec<f64> = xs
                .iter()
                .zip(&ys)
                .filter(|&(&x, _)| x >= lo && x < hi)
                .map(|(&x, &y)| y / model.predict(op, x as u64))
                .collect();
            if rel_resid.len() >= 3 {
                let cv = descriptive::std_dev(&rel_resid).unwrap_or(0.0)
                    / descriptive::mean(&rel_resid).unwrap_or(1.0);
                variability.push(VariabilityCell { op: op.name().into(), regime, cv });
            }
        }
    }
    Ok(Fig04 { campaign, model, variability, breakpoints })
}

fn regime_range(breakpoints: &[u64], regime: usize) -> (f64, f64) {
    let lo = if regime == 0 { 0.0 } else { breakpoints[regime - 1] as f64 };
    let hi = breakpoints.get(regime).map(|&b| b as f64).unwrap_or(f64::INFINITY);
    (lo, hi)
}

impl Fig04 {
    /// The raw campaign as CSV (the reproducibility artifact).
    pub fn raw_csv(&self) -> String {
        self.campaign.to_csv()
    }

    /// Model and variability summary as CSV:
    /// `op,regime,from,to,intercept_us,slope_us_per_b,cv`.
    pub fn summary_csv(&self) -> String {
        let mut rows = Vec::new();
        for cell in &self.variability {
            let seg = &self.model.segments[cell.regime];
            let (a, b) = match cell.op.as_str() {
                "async_send" => seg.send_overhead,
                "blocking_recv" => seg.recv_overhead,
                _ => seg.rtt,
            };
            rows.push(vec![
                cell.op.clone(),
                cell.regime.to_string(),
                seg.from.to_string(),
                seg.to.to_string(),
                a.to_string(),
                b.to_string(),
                cell.cv.to_string(),
            ]);
        }
        super::plot::csv(
            &["op", "regime", "from_bytes", "to_bytes", "intercept_us", "slope_us_per_b", "cv"],
            &rows,
        )
    }

    /// Terminal report: three panels + the variability table.
    pub(crate) fn report(&self) -> String {
        let mut out =
            String::from("Figure 4 — Taurus network modeling (randomized log-uniform sizes)\n");
        for op in ["async_send", "blocking_recv", "ping_pong"] {
            let sub = self.campaign.filtered("op", |l| l.as_text() == Some(op));
            let (xs, ys) = sub.paired("size").expect("numeric size");
            let pts: Vec<(f64, f64)> =
                xs.iter().zip(&ys).map(|(&x, &y)| (x, y.max(1e-3).log10())).collect();
            out.push_str(&format!("\n[{op}]  (y = log10 µs, x = log10 bytes)\n"));
            out.push_str(&super::plot::scatter_logx(&[(&pts, '·')], 70, 12));
        }
        out.push_str("\nper-regime relative variability (CV):\n  op              regime0  regime1  regime2\n");
        for op in ["async_send", "blocking_recv", "ping_pong"] {
            let cells: Vec<String> = (0..3)
                .map(|r| {
                    self.variability
                        .iter()
                        .find(|c| c.op == op && c.regime == r)
                        .map(|c| format!("{:.3}", c.cv))
                        .unwrap_or_else(|| "  -  ".into())
                })
                .collect();
            out.push_str(&format!("  {op:<15} {}\n", cells.join("    ")));
        }
        out.push_str("the detached regime (regime1) carries the high-variability band, strongest on receive\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_recv_variability_band_present() {
        let fig = run(1, 60, 10);
        let cv = |op: &str, regime: usize| {
            fig.variability
                .iter()
                .find(|c| c.op == op && c.regime == regime)
                .map(|c| c.cv)
                .unwrap_or(0.0)
        };
        // Figure 4's signature: recv in the detached band is far noisier
        // than recv in the eager band, and noisier than send there too.
        assert!(
            cv("blocking_recv", 1) > 2.0 * cv("blocking_recv", 0),
            "recv band missing: {} vs {}",
            cv("blocking_recv", 1),
            cv("blocking_recv", 0)
        );
        assert!(cv("blocking_recv", 1) > cv("async_send", 1));
        // send has its own, weaker band
        assert!(cv("async_send", 1) > cv("async_send", 0));
    }

    #[test]
    fn model_parameters_plausible() {
        let fig = run(2, 60, 8);
        let eager = &fig.model.segments[0];
        assert!((eager.latency_us - 25.0).abs() < 6.0, "L = {}", eager.latency_us);
        let rdv = &fig.model.segments[2];
        assert!(rdv.bandwidth_mbps() > 500.0 && rdv.bandwidth_mbps() < 3000.0);
    }

    #[test]
    fn artifacts_render() {
        let fig = run(3, 40, 5);
        assert!(fig.raw_csv().contains("# order: randomized"));
        assert!(fig.summary_csv().contains("blocking_recv"));
        let rep = fig.report();
        assert!(rep.contains("ping_pong"));
        assert!(rep.contains("CV"));
    }
}

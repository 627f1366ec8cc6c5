//! Figure 7 — the canonical MultiMAPS picture on the Opteron: bandwidth
//! plateaus at L1 / L2 / DRAM, and strides halving the bandwidth once the
//! array no longer fits in L1.
//!
//! This is the *well-behaved* case the authors initially expected to
//! replicate everywhere: controlled machine, performance governor,
//! dedicated core. The driver runs the actual MultiMAPS-style tool from
//! `charm-opaque` (the phenomenon predates the methodology).

use crate::error::CharmError;
use crate::spec::ResolvedBenchmark;
use charm_opaque::multimaps::{self, MultimapsConfig};

/// The Figure 7 design, `benchmarks/fig07.toml`: the controlled Opteron,
/// strides {2, 4, 8} over a 1.5x page-aligned size ladder from 4 KiB to
/// 6.5 MiB, and the MultiMAPS loop count.
pub(crate) const SPEC: &str = include_str!("../../../../benchmarks/fig07.toml");

/// One `(stride, size, mean bandwidth)` row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Stride in elements.
    pub stride: u64,
    /// Buffer size (bytes).
    pub size_bytes: u64,
    /// Mean bandwidth (MB/s).
    pub bandwidth_mbps: f64,
}

/// The Figure 7 dataset.
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// All rows, stride-major.
    pub rows: Vec<Row>,
    /// The Opteron's cache capacities, for the plateau annotations.
    pub l1_bytes: u64,
    /// L2 capacity.
    pub l2_bytes: u64,
}

/// Runs the embedded `benchmarks/fig07.toml` spec with `reps`
/// repetitions per point.
pub fn run(seed: u64, reps: u32) -> Fig07 {
    from_spec(SPEC, seed, &[("repetitions".to_string(), reps.to_string())])
        .unwrap_or_else(|e| panic!("fig07 (seed {seed}): {e}"))
}

/// Resolves a Figure 7 spec (normally [`SPEC`]) at `seed` with `params`
/// overrides and runs the `multimaps` tool over its `size_bytes` ×
/// `stride` factors on the registry-resolved machine. The
/// cache-capacity annotations come from the machine's own CPU spec.
pub(crate) fn from_spec(
    text: &str,
    seed: u64,
    params: &[(String, String)],
) -> Result<Fig07, CharmError> {
    let r = super::resolve(text, seed, params)?;
    let cfg = MultimapsConfig {
        sizes: r.int_levels("size_bytes")?,
        strides: r.int_levels("stride")?,
        nloops: ResolvedBenchmark::u64_value(&r.tool, "nloops")?,
        repetitions: r.replicates,
    };
    let mut target = super::memory_target(&r, seed, "fig07")?;
    let machine = target.machine_mut();
    let l1 = machine.spec().levels[0].size_bytes;
    let l2 = machine.spec().levels[1].size_bytes;
    let rows = multimaps::run(machine, &cfg)
        .into_iter()
        .map(|r| Row { stride: r.stride, size_bytes: r.cell.x, bandwidth_mbps: r.cell.mean })
        .collect();
    Ok(Fig07 { rows, l1_bytes: l1, l2_bytes: l2 })
}

impl Fig07 {
    /// Mean bandwidth of the rows within `(lo, hi]` for one stride.
    pub(crate) fn band_mean(&self, stride: u64, lo: u64, hi: u64) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.stride == stride && r.size_bytes > lo && r.size_bytes <= hi)
            .map(|r| r.bandwidth_mbps)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }

    /// CSV rows: `stride,size_bytes,bandwidth_mbps`.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![r.stride.to_string(), r.size_bytes.to_string(), r.bandwidth_mbps.to_string()]
            })
            .collect();
        super::plot::csv(&["stride", "size_bytes", "bandwidth_mbps"], &rows)
    }

    /// Terminal report with plateau summary.
    pub(crate) fn report(&self) -> String {
        let mut out =
            String::from("Figure 7 — MultiMAPS on the Opteron (2=stride2, 4=stride4, 8=stride8)\n");
        let per_stride: Vec<(Vec<(f64, f64)>, char)> = [2u64, 4, 8]
            .iter()
            .zip(['2', '4', '8'])
            .map(|(&st, g)| {
                (
                    self.rows
                        .iter()
                        .filter(|r| r.stride == st)
                        .map(|r| (r.size_bytes as f64, r.bandwidth_mbps))
                        .collect(),
                    g,
                )
            })
            .collect();
        let views: Vec<(&[(f64, f64)], char)> =
            per_stride.iter().map(|(v, g)| (v.as_slice(), *g)).collect();
        out.push_str(&super::plot::scatter_logx(&views, 70, 16));
        out.push_str(&format!(
            "plateaus (stride 2): L1 {:.0} MB/s | L2 {:.0} MB/s | DRAM {:.0} MB/s\n",
            self.band_mean(2, 0, self.l1_bytes),
            self.band_mean(2, self.l1_bytes, self.l2_bytes),
            self.band_mean(2, self.l2_bytes, u64::MAX),
        ));
        out.push_str(&format!(
            "beyond L1, stride 4 / stride 2 bandwidth ratio: {:.2} (paper: ~0.5)\n",
            self.band_mean(4, self.l2_bytes, u64::MAX) / self.band_mean(2, self.l2_bytes, u64::MAX)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateaus_decrease_in_order() {
        let fig = run(1, 5);
        let l1 = fig.band_mean(2, 0, fig.l1_bytes);
        let l2 = fig.band_mean(2, fig.l1_bytes, fig.l2_bytes);
        let dram = fig.band_mean(2, fig.l2_bytes, u64::MAX);
        assert!(l1 > 1.4 * l2, "L1 {l1} vs L2 {l2}");
        assert!(l2 > 1.4 * dram, "L2 {l2} vs DRAM {dram}");
    }

    #[test]
    fn stride_halves_beyond_l1_not_inside() {
        let fig = run(2, 5);
        let inside = fig.band_mean(2, 0, fig.l1_bytes) / fig.band_mean(4, 0, fig.l1_bytes);
        assert!((0.85..=1.15).contains(&inside), "inside L1 ratio {inside}");
        let beyond =
            fig.band_mean(2, fig.l2_bytes, u64::MAX) / fig.band_mean(4, fig.l2_bytes, u64::MAX);
        assert!((1.6..=2.4).contains(&beyond), "beyond L1 ratio {beyond}");
    }

    #[test]
    fn artifacts_render() {
        let fig = run(3, 3);
        assert!(fig.to_csv().lines().count() > 30);
        let rep = fig.report();
        assert!(rep.contains("plateaus"));
    }
}

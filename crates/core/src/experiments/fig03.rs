//! Figure 3 — "Time as a function of message size for different
//! communication libraries" (originally from Hoefler et al.), plus the
//! §III-3 lesson: the published analysis reported a single break above
//! 32 KB while a neutral look finds the additional 16 KB slope change.
//!
//! The driver measures both platform presets, then fits the RTT curve of
//! the OpenMPI-like platform twice: once with a *forced single break*
//! (the preconceived assumption) and once with a free segmentation.

use charm_analysis::segmented::{segment, segment_with_k_breaks, SegmentConfig};
use charm_simnet::noise::NoiseModel;
use charm_simnet::{presets, NetOp, NetworkSim};

/// One measured series of the figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Platform label as in the figure legend.
    pub label: String,
    /// Which curve: `"o"` (overhead) or `"G*s+g"` (transfer time).
    pub curve: String,
    /// `(size bytes, mean time µs)` points.
    pub points: Vec<(f64, f64)>,
}

/// The full Figure 3 dataset plus the breakpoint analysis.
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// All four series (2 platforms × 2 curves).
    pub series: Vec<Series>,
    /// Breaks found when the analyst forces exactly one break (the
    /// published reading).
    pub forced_one_break: Vec<f64>,
    /// Breaks found by the free segmentation (the neutral look).
    pub free_breaks: Vec<f64>,
}

fn sweep(sim: &mut NetworkSim, op: NetOp, reps: u32) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut size = 256u64;
    while size <= 64 * 1024 {
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += sim.measure(op, size);
        }
        out.push((size as f64, acc / reps as f64));
        size += 1024;
    }
    out
}

/// Runs the experiment.
pub fn run(seed: u64) -> Fig03 {
    let mut series = Vec::new();
    let mut openmpi_rtt: Vec<(f64, f64)> = Vec::new();
    for (label, mk) in [
        ("Open MPI", presets::openmpi_fig3 as fn(u64) -> NetworkSim),
        ("Myrinet/GM", presets::myrinet_gm as fn(u64) -> NetworkSim),
    ] {
        let mut sim = mk(seed);
        // keep the figure clean, as the original: low noise
        sim.set_noise(NoiseModel::new(seed, 0.003, charm_simnet::noise::BurstConfig::off()));
        let rtt = sweep(&mut sim, NetOp::PingPong, 12);
        let ov = sweep(&mut sim, NetOp::AsyncSend, 12);
        if label == "Open MPI" {
            openmpi_rtt = rtt.clone();
        }
        series.push(Series { label: label.into(), curve: "G*s+g".into(), points: rtt });
        series.push(Series { label: label.into(), curve: "o".into(), points: ov });
    }

    let xs: Vec<f64> = openmpi_rtt.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = openmpi_rtt.iter().map(|p| p.1).collect();
    let forced = segment_with_k_breaks(&xs, &ys, 1, 5).map(|s| s.breakpoints).unwrap_or_default();
    let free = segment(
        &xs,
        &ys,
        &SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: None },
    )
    .map(|s| s.breakpoints)
    .unwrap_or_default();

    Fig03 { series, forced_one_break: forced, free_breaks: free }
}

impl Fig03 {
    /// CSV rows: `platform,curve,size,time_us`.
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.series {
            for &(x, y) in &s.points {
                rows.push(vec![s.label.clone(), s.curve.clone(), x.to_string(), y.to_string()]);
            }
        }
        super::plot::csv(&["platform", "curve", "size_bytes", "time_us"], &rows)
    }

    /// Terminal rendering: the scatter plus the breakpoint comparison.
    pub(crate) fn report(&self) -> String {
        let glyphs = ['o', '.', 'x', ','];
        let views: Vec<(&[(f64, f64)], char)> =
            self.series.iter().zip(glyphs).map(|(s, g)| (s.points.as_slice(), g)).collect();
        let mut out = String::from("Figure 3 — time vs message size (o=OpenMPI rtt, .=OpenMPI o, x=Myrinet rtt, ,=Myrinet o)\n");
        out.push_str(&super::plot::scatter(&views, 70, 18));
        out.push_str(&format!(
            "forced single break (published reading): {:?}\nfree segmentation (neutral look):        {:?}\n",
            self.forced_one_break, self.free_breaks
        ));
        out.push_str(
            "the free search exposes the additional ~16 KiB slope change the forced fit hides\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn myrinet_beats_openmpi_everywhere() {
        let fig = run(1);
        let find = |label: &str, curve: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label && s.curve == curve)
                .expect("series present")
        };
        let om = find("Open MPI", "G*s+g");
        let my = find("Myrinet/GM", "G*s+g");
        for (a, b) in om.points.iter().zip(&my.points) {
            assert!(b.1 < a.1, "Myrinet should win at {}", a.0);
        }
    }

    #[test]
    fn free_search_finds_the_hidden_break() {
        let fig = run(2);
        // forced fit: one break near 32K
        assert_eq!(fig.forced_one_break.len(), 1);
        // free fit: two breaks, one near 16K and one near 32K
        assert!(fig.free_breaks.len() >= 2, "free breaks: {:?}", fig.free_breaks);
        assert!(
            fig.free_breaks.iter().any(|&b| (b - 16384.0).abs() < 4096.0),
            "hidden 16K break not exposed: {:?}",
            fig.free_breaks
        );
        assert!(
            fig.free_breaks.iter().any(|&b| (b - 32768.0).abs() < 4096.0),
            "32K break missing: {:?}",
            fig.free_breaks
        );
    }

    #[test]
    fn artifacts_render() {
        let fig = run(3);
        let csv = fig.to_csv();
        assert!(csv.starts_with("platform,curve,size_bytes,time_us\n"));
        assert!(csv.lines().count() > 100);
        assert!(fig.report().contains("Figure 3"));
    }
}

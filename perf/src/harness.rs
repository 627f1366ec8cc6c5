//! What every workload shares: configuration, repeated set-up, the
//! timed phase, and turning measurements into the result line.

use crate::calib::Speed;
use crate::metrics::{self, E2E, PER_LAYER};
use crate::output::{Metric, Output};
use crate::spans::{self, Layer, Tracer};
use crate::stats;
use crate::sys;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed the committed reference digests were made with.
pub const DEFAULT_SEED: u64 = 20170529;

/// Ops a run completes at least, so that its p90 has ten samples
/// beyond it (see [`stats::percentile`]).
pub const MIN_OPS: usize = 100;

/// How long a timed phase may run past its length to reach [`MIN_OPS`].
const OVERRUN_S: f64 = 60.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Workload sizes. [`Sizes::full`] is the benchmark; [`Sizes::tiny`]
/// keeps the self-tests fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    /// mem-sweep: distinct buffer sizes and replicates per campaign.
    pub mem: (usize, usize),
    /// net-archive: distinct message sizes and replicates per campaign
    /// (three operations each).
    pub net: (usize, usize),
    /// serve-mix: sizes and replicates of a fresh DSL job (two ops).
    pub serve_net: (usize, usize),
    /// serve-mix: sizes and replicates of a fresh spec job.
    pub serve_mem: (usize, usize),
    /// serve-mix: jobs archived at set-up for dedupe and replay.
    pub serve_fleet: usize,
    /// reproduce: archived runs in the fleet report.
    pub fleet_runs: usize,
    /// reproduce: sizes and replicates of each fleet run (three ops).
    pub fleet: (usize, usize),
    /// reproduce: points of the free segmentation.
    pub segment_points: usize,
    /// reproduce: the figure experiments' replicate counts at full size
    /// (`all_figures`) rather than reduced.
    pub full_figures: bool,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            mem: (40, 500),
            net: (40, 250),
            serve_net: (20, 5),
            serve_mem: (15, 20),
            serve_fleet: 8,
            fleet_runs: 8,
            fleet: (40, 20),
            segment_points: 4000,
            full_figures: true,
        }
    }

    /// Sizes for the self-tests: every code path, little work.
    pub fn tiny() -> Sizes {
        Sizes {
            mem: (4, 6),
            net: (4, 4),
            serve_net: (3, 2),
            serve_mem: (3, 2),
            serve_fleet: 2,
            fleet_runs: 3,
            fleet: (4, 3),
            segment_points: 60,
            full_figures: false,
        }
    }
}

/// What to do with the reference digest in `perf/expected/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// Compare the outputs' digest with `<dir>/<workload>.sha256`.
    Check(PathBuf),
    /// Write the outputs' digest to `<dir>/<workload>.sha256`.
    Write(PathBuf),
    /// Neither: inputs other than the reference ones (another seed or
    /// size), checked structurally only.
    Skip,
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The seed all inputs derive from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// A directory the run may fill and that is removed afterwards.
    pub scratch: PathBuf,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// Reference digest handling.
    pub expected: Expected,
}

/// A workload's result plus the per-layer metrics it reported as 0
/// because it bypasses their layer.
#[derive(Debug, Clone)]
pub struct Report {
    /// The result line.
    pub output: Output,
    /// Names of per-layer metrics filled with 0.
    pub bypassed: Vec<&'static str>,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpTime {
    /// Wall time as measured.
    pub ms: f64,
    pub traced: bool,
    /// Index in [`Measured::host`] of the sample taken right after the op.
    pub sample: usize,
}

/// Host samples on each side of an op that its correction uses: the
/// median of 7 follows slowdowns lasting a second or more and ignores a
/// single disturbed sample.
const HOST_WINDOW: usize = 3;

impl OpTime {
    /// The op's time on the reference host at its usual speed.
    fn corrected_ms(&self, host: &[f64]) -> f64 {
        let lo = self.sample.saturating_sub(HOST_WINDOW);
        let hi = (self.sample + HOST_WINDOW).min(host.len() - 1);
        self.ms / stats::median(&host[lo..=hi])
    }
}

/// The timed phase's clock.
pub(crate) struct Phase {
    pub epoch: Instant,
    seconds: f64,
}

/// What a finished timed phase took.
pub(crate) struct PhaseEnd {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
}

impl Phase {
    pub fn start(cfg: &Config) -> Phase {
        Phase { epoch: Instant::now(), seconds: cfg.seconds }
    }

    /// Whether to stop after `done` completed ops: the phase has run
    /// its length and holds enough ops, or has overrun by [`OVERRUN_S`].
    pub fn over(&self, done: usize) -> bool {
        let elapsed = self.epoch.elapsed().as_secs_f64();
        (elapsed >= self.seconds && done >= MIN_OPS) || elapsed >= self.seconds + OVERRUN_S
    }

    pub fn end(self) -> Result<PhaseEnd, String> {
        Ok(PhaseEnd {
            wall_s: self.epoch.elapsed().as_secs_f64(),
            peak_rss_mb: sys::peak_rss_mb()?,
        })
    }
}

/// Sets up [`SETUPS`] times in fresh directories under the scratch
/// directory, tearing all but the last down; returns the last state and
/// every set-up's wall time, corrected for the host's speed.
pub(crate) fn repeated_setup<S>(
    cfg: &Config,
    speed: Speed,
    mut setup: impl FnMut(&Path) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut k = 0;
    loop {
        let dir = cfg.scratch.join(format!("setup{k}"));
        let before = speed.sample();
        let started = Instant::now();
        let state = setup(&dir)?;
        let secs = started.elapsed().as_secs_f64();
        times.push(secs * 2.0 / (before + speed.sample()));
        k += 1;
        if k == SETUPS {
            return Ok((state, times));
        }
        drop(state);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
}

/// Everything a workload measured, for [`finish`].
pub(crate) struct Measured {
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpTime>,
    /// Host slowdown samples (see [`Speed::sample`]): one before the
    /// first op, then one after each attempted op.
    pub host: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub phase: PhaseEnd,
    pub tracers: Vec<Tracer>,
    /// The layers this workload's spans reach.
    pub span_layers: &'static [Layer],
    /// Per-layer metrics from probes and the workload itself.
    pub layer: Vec<(&'static str, f64)>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Digest of the outputs, for the reference file.
    pub digest: String,
}

/// Builds the result line. End-to-end metrics are computed from all
/// ops, corrected for the host's speed; the traced run reports
/// per-layer metrics as measured, filling those of layers the workload
/// bypasses with 0.
pub(crate) fn finish(workload: &str, cfg: &Config, mut m: Measured) -> Result<Report, String> {
    if m.ops.is_empty() {
        return Err("no op completed".into());
    }
    m.failures.extend(expected(workload, &cfg.expected, &m.digest)?);
    for f in &m.failures {
        eprintln!("{workload}: check failed: {f}");
    }
    let completed = m.ops.len() as f64;
    let mut values: Vec<(&str, f64)> = Vec::new();
    let mut bypassed = Vec::new();
    if !cfg.trace {
        let ms: Vec<f64> = m.ops.iter().map(|o| o.corrected_ms(&m.host)).collect();
        let host = stats::median(&m.host);
        let tail = |p: f64| {
            stats::percentile(&ms, p).ok_or_else(|| {
                format!(
                    "{} ops leave fewer than {} beyond p{}",
                    ms.len(),
                    stats::MIN_TAIL,
                    p * 100.0
                )
            })
        };
        values.push(("setup_s", stats::median(&m.setup_s)));
        values.push(("op_p50_ms", tail(0.5)?));
        values.push(("op_p90_ms", tail(0.9)?));
        // The phase's wall time with each op's share corrected like its
        // latency and the time between ops by the median slowdown.
        let measured_s = m.ops.iter().map(|o| o.ms).sum::<f64>() / 1e3;
        let corrected_s = ms.iter().sum::<f64>() / 1e3;
        let wall = corrected_s + (m.phase.wall_s - measured_s) / host;
        values.push(("ops_per_s", completed / wall));
        values.push(("peak_rss_mb", m.phase.peak_rss_mb));
        eprintln!("{workload}: host slowdown {host:.3} (median; 1 = nominal)");
    } else {
        // Corrected times, so that the host's drift between the two
        // halves does not pass for tracing overhead.
        let of = |traced: bool| -> Vec<f64> {
            m.ops.iter().filter(|o| o.traced == traced).map(|o| o.corrected_ms(&m.host)).collect()
        };
        let (traced, untraced) = (of(true), of(false));
        if traced.is_empty() || untraced.is_empty() {
            return Err("the traced run needs traced and untraced ops".into());
        }
        let mut totals = std::collections::BTreeMap::new();
        let mut op_ns = 0u64;
        for t in &m.tracers {
            for (layer, ns) in spans::self_times(t.spans()) {
                *totals.entry(layer).or_insert(0u64) += ns;
            }
            op_ns += t.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns).sum::<u64>();
        }
        for layer in m.span_layers {
            let ns = totals.get(layer).copied().unwrap_or(0);
            let name = PER_LAYER
                .iter()
                .find(|d| d.name.strip_suffix(".self_ms_per_op") == Some(layer.name()))
                .map(|d| d.name)
                .ok_or_else(|| format!("no self-time metric for layer {}", layer.name()))?;
            values.push((name, ns as f64 / 1e6 / traced.len() as f64));
        }
        let unattributed = totals.get(&Layer::Bench).copied().unwrap_or(0) as f64;
        values.push(("trace.unattributed_frac", unattributed / op_ns.max(1) as f64));
        // Means, not medians: ops alternate between the two groups, and
        // reproduce's steps differ a hundredfold in length.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        values.push(("trace.overhead_frac", mean(&traced) / mean(&untraced) - 1.0));
        values.extend(m.layer.iter().copied());
        if let Some(path) = &cfg.trace_out {
            let wall: Vec<_> = m.tracers.iter().flat_map(|t| t.wall_spans()).collect();
            std::fs::write(path, charm_trace::chrome::export(&wall, &[]))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("{workload}: wrote trace {}", path.display());
        }
        for d in PER_LAYER {
            if !values.iter().any(|(n, _)| *n == d.name) {
                values.push((d.name, 0.0));
                bypassed.push(d.name);
            }
        }
    }
    let declared: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        E2E.iter().map(|d| d.name).collect()
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for name in declared {
        let hits: Vec<f64> = values.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect();
        let [value] = hits[..] else {
            return Err(format!("metric {name} reported {} times", hits.len()));
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let unit = metrics::unit_of(name).expect("declared metric has a unit");
        metrics.push(Metric { name: name.to_string(), value, unit: unit.to_string() });
    }
    if let Some((extra, _)) = values.iter().find(|(n, _)| !metrics.iter().any(|m| m.name == *n)) {
        return Err(format!("metric {extra} is not declared"));
    }
    let output = Output {
        correct: m.failures.is_empty(),
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics,
    };
    Ok(Report { output, bypassed })
}

/// Compares or writes the reference digest; returns failed checks.
fn expected(workload: &str, mode: &Expected, digest: &str) -> Result<Vec<String>, String> {
    match mode {
        Expected::Skip => Ok(Vec::new()),
        Expected::Write(dir) => {
            let path = dir.join(format!("{workload}.sha256"));
            std::fs::write(&path, format!("{digest}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("{workload}: wrote {}", path.display());
            Ok(Vec::new())
        }
        Expected::Check(dir) => {
            let path = dir.join(format!("{workload}.sha256"));
            let want = match std::fs::read_to_string(&path) {
                Ok(w) => w,
                Err(e) => return Ok(vec![format!("cannot read {}: {e}", path.display())]),
            };
            if want.trim_end_matches('\n') == digest {
                Ok(Vec::new())
            } else {
                Ok(vec![format!(
                    "outputs digest {digest} differs from {} ({})",
                    path.display(),
                    want.trim()
                )])
            }
        }
    }
}

/// SHA-256 over a sequence of parts, each length-prefixed.
pub(crate) fn digest_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h = charm_store::digest::Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    charm_store::digest::hex(&h.finalize())
}

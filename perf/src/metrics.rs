//! The declared workloads and metrics. `BENCHMARK.json` at the
//! repository root mirrors these tables; the self-tests compare the two
//! so the file and the code cannot drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of charm waits for or pays.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric, reported by the traced run only.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name, prefixed by the layer (crate) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

/// The workloads, each with the reason it is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "mem-sweep",
        "simmem does most of the work and every row misses the profile cache; record and store do little",
    ),
    (
        "net-archive",
        "simnet is cheap so engine, record and store dominate: checkpoint, put_run, digest-verified get",
    ),
    (
        "serve-mix",
        "closed loop of 2 clients mixing fresh DSL and spec jobs, dedupe hits and result replays",
    ),
    (
        "reproduce",
        "figure experiments, a fleet report and a 4000-point segmentation; analysis and core dominate",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2eMetric {
    E2eMetric { name, unit, better, bound }
}

/// End-to-end metrics, reported by every workload when tracing is off.
/// An *op* is one unit of work of the workload: one archived campaign
/// (mem-sweep, net-archive), one submission (serve-mix), or one artifact
/// refresh (reproduce).
pub const E2E: &[E2eMetric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// The figure and table experiments the reproduce workload refreshes,
/// in `all_figures` order; each has a `core.<name>_ms` metric.
pub const EXPERIMENTS: [&str; 11] = [
    "table05",
    "fig03",
    "fig04",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "convolution",
];

/// Per-layer metrics, reported by every workload when tracing is on. A
/// workload that bypasses a layer reports its metrics as 0.
pub const PER_LAYER: &[LayerMetric] = &[
    // Span self time per op, one per layer the spans can reach.
    layer("design.self_ms_per_op", "ms", Better::Lower),
    layer("simmem.self_ms_per_op", "ms", Better::Lower),
    layer("simnet.self_ms_per_op", "ms", Better::Lower),
    layer("engine.self_ms_per_op", "ms", Better::Lower),
    layer("store.self_ms_per_op", "ms", Better::Lower),
    layer("analysis.self_ms_per_op", "ms", Better::Lower),
    layer("core.self_ms_per_op", "ms", Better::Lower),
    layer("serve.self_ms_per_op", "ms", Better::Lower),
    // Layer probes on the workload's own plans.
    layer("design.compile_us", "us", Better::Lower),
    layer("simmem.measure_ns_per_row", "ns", Better::Lower),
    layer("simmem.profile_cache.hit_rate", "ratio", Better::Higher),
    layer("simmem.profile_cache.misses", "count", Better::Lower),
    layer("simnet.measure_ns_per_row", "ns", Better::Lower),
    layer("engine.run_ns_per_row", "ns", Better::Lower),
    layer("engine.overhead_ns_per_row", "ns", Better::Lower),
    layer("engine.shard2_speedup", "x", Better::Higher),
    layer("engine.cpu_util", "ratio", Better::Higher),
    layer("engine.scheduler.batches", "count", Better::Lower),
    layer("engine.scheduler.steals", "count", Better::Lower),
    layer("engine.scheduler.splits", "count", Better::Lower),
    layer("record.to_csv_ns_per_row", "ns", Better::Lower),
    layer("record.csv_bytes_per_row", "B", Better::Lower),
    layer("store.checkpoint_ns_per_row", "ns", Better::Lower),
    layer("store.put_run_ms", "ms", Better::Lower),
    layer("store.bytes_written_per_row", "B", Better::Lower),
    layer("store.get_ms", "ms", Better::Lower),
    layer("analysis.segment_ms", "ms", Better::Lower),
    layer("analysis.report_ms", "ms", Better::Lower),
    layer("core.table05_ms", "ms", Better::Lower),
    layer("core.fig03_ms", "ms", Better::Lower),
    layer("core.fig04_ms", "ms", Better::Lower),
    layer("core.fig07_ms", "ms", Better::Lower),
    layer("core.fig08_ms", "ms", Better::Lower),
    layer("core.fig09_ms", "ms", Better::Lower),
    layer("core.fig10_ms", "ms", Better::Lower),
    layer("core.fig11_ms", "ms", Better::Lower),
    layer("core.fig12_ms", "ms", Better::Lower),
    layer("core.fig13_ms", "ms", Better::Lower),
    layer("core.convolution_ms", "ms", Better::Lower),
    // Client-side phases of a serve submission, split by where the
    // records came from, plus the service's own counters.
    layer("serve.admit_ms_p50.engine", "ms", Better::Lower),
    layer("serve.admit_ms_p50.archive", "ms", Better::Lower),
    layer("serve.admit_ms_p50.result", "ms", Better::Lower),
    layer("serve.start_ms_p50.engine", "ms", Better::Lower),
    layer("serve.start_ms_p50.archive", "ms", Better::Lower),
    layer("serve.start_ms_p50.result", "ms", Better::Lower),
    layer("serve.stream_ms_p50.engine", "ms", Better::Lower),
    layer("serve.stream_ms_p50.archive", "ms", Better::Lower),
    layer("serve.stream_ms_p50.result", "ms", Better::Lower),
    layer("serve.dedup_hits", "count", Better::Higher),
    layer("serve.jobs_executed", "count", Better::Lower),
    layer("serve.rejected", "count", Better::Lower),
    // The trace itself.
    layer("trace.overhead_frac", "ratio", Better::Lower),
    layer("trace.unattributed_frac", "ratio", Better::Lower),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit declared for a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

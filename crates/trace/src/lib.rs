//! Engine self-profiling for the charm workspace.
//!
//! `charm_obs` made the *simulated systems* observable: counters and
//! provenance events on the **virtual** clock, retained next to every
//! measurement. This crate turns the lens on the reproduction engine
//! itself: where does **wall-clock** time go across plan expansion,
//! shard execution, record merge, and the analysis passes? Without that,
//! a perf regression in the campaign engine or the prefix-SSE fast paths
//! ships silently — exactly the un-instrumented-measuring-tool pitfall
//! the methodology warns about.
//!
//! Two pieces:
//!
//! * [`Profiler`] — a hierarchical wall-clock span recorder threaded
//!   through the engine (`Campaign::profiler`) and installable per
//!   thread for code with no profiler parameter (the analysis passes);
//! * [`chrome`] — a Chrome/Perfetto `trace.json` exporter that renders
//!   the **two clock domains as separate process tracks**: wall-time
//!   engine spans and virtual-time experiment events re-exported from a
//!   [`charm_obs::CampaignReport`].
//!
//! The end-to-end perf numbers live in the `perf/` benchmark, which
//! times charm through its public APIs and CI gates with paired
//! parent/change runs (`bench_engine_gate`).
//!
//! # Design rules (same as `charm_obs`)
//!
//! - **Zero cost when disabled.** A disabled [`Profiler`] is a `None`;
//!   every entry point returns after one branch and allocates nothing.
//! - **Never touch the measurement path.** The profiler only reads the
//!   host monotonic clock — never virtual clocks, never RNG streams —
//!   so campaign records are bit-identical with profiling on or off
//!   (asserted in the engine's tests).
//! - **Wall time is honest and therefore not deterministic.** Profiler
//!   spans never enter provenance reports or any artifact that analysis
//!   branches on; they are diagnostics for the engine's operators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod chrome;

/// One completed wall-clock interval, relative to its profiler's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallSpan {
    /// Track (timeline lane) the span belongs to — `"main"`, `"engine"`,
    /// `"shard3"`, … Spans on one track come from one thread, so they
    /// nest by stack discipline.
    pub track: String,
    /// Span name, dot-namespaced like counter keys
    /// (`"engine.execute"`, `"analysis.segment"`).
    pub name: String,
    /// Start offset from the profiler's epoch (ns).
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
    /// Free-form string attributes, in insertion order.
    pub args: Vec<(String, String)>,
}

impl WallSpan {
    /// End offset from the profiler's epoch (ns).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<WallSpan>>,
}

/// A shareable wall-clock span recorder.
///
/// Cloning is cheap (an `Arc`); clones record into the same buffer, so
/// the engine can hand one profiler to every shard thread. Disabled by
/// default — construct with [`Profiler::enabled`] to record.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl Profiler {
    /// A profiler that ignores everything (the default).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// A live profiler whose epoch is *now*.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(Inner { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })),
        }
    }

    /// Whether spans are being recorded. Callers must guard any
    /// allocating argument construction (`format!` names, attribute
    /// strings) behind this, so the disabled path stays allocation-free.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds elapsed since the profiler's epoch (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Opens a span on `track`; it is recorded when the guard drops.
    /// Nesting comes for free: guards on one thread close in LIFO order,
    /// so spans on a track contain the spans opened inside them.
    pub fn span_on(&self, track: &str, name: &str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard {
                inner: None,
                track: String::new(),
                name: String::new(),
                start: None,
                args: Vec::new(),
            },
            Some(inner) => SpanGuard {
                inner: Some(Arc::clone(inner)),
                track: track.to_string(),
                name: name.to_string(),
                start: Some(Instant::now()),
                args: Vec::new(),
            },
        }
    }

    /// Opens a span on the default `"main"` track.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_on("main", name)
    }

    /// Records an already-measured span (for code that timed an interval
    /// itself, e.g. a shard thread reporting its busy time).
    pub fn record(&self, span: WallSpan) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().expect("profiler lock").push(span);
        }
    }

    /// Drains every recorded span, sorted by `(track, start, -end)` so
    /// each track reads in timeline order with outer spans first. The
    /// profiler stays live (if it was) with its original epoch.
    pub fn take(&self) -> Vec<WallSpan> {
        let mut spans = match &self.inner {
            None => Vec::new(),
            Some(inner) => std::mem::take(&mut *inner.spans.lock().expect("profiler lock")),
        };
        spans.sort_by(|a, b| {
            (&a.track, a.start_ns, std::cmp::Reverse(a.end_ns())).cmp(&(
                &b.track,
                b.start_ns,
                std::cmp::Reverse(b.end_ns()),
            ))
        });
        spans
    }

    /// Installs this profiler as the current thread's ambient profiler,
    /// with `track` as the track [`thread_span`] records on. Code with
    /// no profiler parameter (the analysis passes, the engine's builder
    /// default) picks it up from here; installing a disabled profiler
    /// is the same as uninstalling.
    pub fn install_thread(&self, track: &str) {
        THREAD_PROFILER.with(|t| {
            *t.borrow_mut() = (self.clone(), track.to_string());
        });
    }

    /// Removes the current thread's ambient profiler.
    pub fn uninstall_thread() {
        THREAD_PROFILER.with(|t| {
            *t.borrow_mut() = (Profiler::disabled(), String::new());
        });
    }
}

thread_local! {
    static THREAD_PROFILER: RefCell<(Profiler, String)> =
        RefCell::new((Profiler::disabled(), String::new()));
}

/// The current thread's ambient profiler (disabled if none installed).
pub fn thread_profiler() -> Profiler {
    THREAD_PROFILER.with(|t| t.borrow().0.clone())
}

/// Opens a span on the current thread's ambient profiler, on the track
/// named at [`Profiler::install_thread`] time. One TLS read plus one
/// branch when no profiler is installed — cheap enough for the analysis
/// entry points to call unconditionally.
pub fn thread_span(name: &str) -> SpanGuard {
    THREAD_PROFILER.with(|t| {
        let (profiler, track) = &*t.borrow();
        profiler.span_on(track, name)
    })
}

/// An open span: records a [`WallSpan`] into its profiler when dropped.
/// A guard from a disabled profiler holds nothing and records nothing.
#[must_use = "the span is measured until the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    track: String,
    name: String,
    start: Option<Instant>,
    args: Vec<(String, String)>,
}

impl SpanGuard {
    /// Whether dropping this guard will record a span.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a string attribute (no-op on a disabled guard).
    pub fn arg(mut self, key: &str, value: impl ToString) -> Self {
        if self.inner.is_some() {
            self.args.push((key.to_string(), value.to_string()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (self.inner.take(), self.start.take()) else {
            return;
        };
        let end = Instant::now();
        let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        inner.spans.lock().expect("profiler lock").push(WallSpan {
            track: std::mem::take(&mut self.track),
            name: std::mem::take(&mut self.name),
            start_ns,
            dur_ns,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// One line of a per-name profile summary: how often a span name fired
/// and how much wall time it accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryLine {
    /// Track the spans ran on.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Number of spans with this `(track, name)`.
    pub count: u64,
    /// Total wall time (ns) across them.
    pub total_ns: u64,
}

/// Aggregates spans into per-`(track, name)` totals, sorted by total
/// wall time descending (ties broken by track/name for determinism).
pub fn summarize(spans: &[WallSpan]) -> Vec<SummaryLine> {
    let mut totals: std::collections::BTreeMap<(&str, &str), (u64, u64)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let e = totals.entry((s.track.as_str(), s.name.as_str())).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    let mut lines: Vec<SummaryLine> = totals
        .into_iter()
        .map(|((track, name), (count, total_ns))| SummaryLine {
            track: track.to_string(),
            name: name.to_string(),
            count,
            total_ns,
        })
        .collect();
    lines.sort_by(|a, b| {
        b.total_ns.cmp(&a.total_ns).then_with(|| (&a.track, &a.name).cmp(&(&b.track, &b.name)))
    });
    lines
}

/// Renders a summary as an aligned ASCII table (for `--profile` output).
pub fn render_summary(lines: &[SummaryLine]) -> String {
    let total: u64 = lines.iter().map(|l| l.total_ns).sum();
    let mut out = String::from(
        "track            span                              count   total ms      %\n",
    );
    for l in lines {
        let pct = if total == 0 { 0.0 } else { 100.0 * l.total_ns as f64 / total as f64 };
        out.push_str(&format!(
            "{:<16} {:<32} {:>6} {:>10.2} {:>6.1}\n",
            l.track,
            l.name,
            l.count,
            l.total_ns as f64 / 1e6,
            pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        {
            let g = p.span("x").arg("k", "v");
            assert!(!g.is_recording());
        }
        p.record(WallSpan {
            track: "t".into(),
            name: "n".into(),
            start_ns: 0,
            dur_ns: 1,
            args: vec![],
        });
        assert!(p.take().is_empty());
        assert_eq!(p.elapsed_ns(), 0);
    }

    #[test]
    fn guard_records_on_drop_with_args() {
        let p = Profiler::enabled();
        {
            let _g = p.span_on("engine", "engine.execute").arg("rows", 42);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = p.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, "engine");
        assert_eq!(spans[0].name, "engine.execute");
        assert!(spans[0].dur_ns >= 1_000_000, "slept 1ms, got {}ns", spans[0].dur_ns);
        assert_eq!(spans[0].args, vec![("rows".to_string(), "42".to_string())]);
    }

    #[test]
    fn nested_guards_nest_in_time() {
        let p = Profiler::enabled();
        {
            let _outer = p.span("outer");
            let _inner = p.span("inner");
        }
        let spans = p.take();
        assert_eq!(spans.len(), 2);
        // sorted outer-first at equal track
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
    }

    #[test]
    fn take_sorts_by_track_then_start_then_outermost() {
        let p = Profiler::enabled();
        let mk = |track: &str, name: &str, start_ns: u64, dur_ns: u64| WallSpan {
            track: track.into(),
            name: name.into(),
            start_ns,
            dur_ns,
            args: vec![],
        };
        p.record(mk("b", "late", 50, 10));
        p.record(mk("a", "inner", 10, 5));
        p.record(mk("a", "outer", 10, 30));
        p.record(mk("b", "early", 0, 10));
        let names: Vec<String> = p.take().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer", "inner", "early", "late"]);
    }

    #[test]
    fn clones_share_a_buffer() {
        let p = Profiler::enabled();
        let q = p.clone();
        drop(q.span("from_clone"));
        std::thread::scope(|s| {
            let r = p.clone();
            s.spawn(move || drop(r.span_on("shard0", "from_thread")));
        });
        let spans = p.take();
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn thread_install_take_roundtrip() {
        assert!(!thread_profiler().is_enabled());
        {
            let _g = thread_span("ignored"); // no ambient profiler: no-op
        }
        let p = Profiler::enabled();
        p.install_thread("main");
        assert!(thread_profiler().is_enabled());
        drop(thread_span("analysis.segment"));
        Profiler::uninstall_thread();
        assert!(!thread_profiler().is_enabled());
        let spans = p.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, "main");
        assert_eq!(spans[0].name, "analysis.segment");
    }

    #[test]
    fn installed_disabled_profiler_is_uninstalled() {
        Profiler::disabled().install_thread("main");
        assert!(!thread_profiler().is_enabled());
        assert!(!thread_span("x").is_recording());
    }

    #[test]
    fn summarize_aggregates_and_ranks() {
        let mk = |name: &str, dur_ns: u64| WallSpan {
            track: "main".into(),
            name: name.into(),
            start_ns: 0,
            dur_ns,
            args: vec![],
        };
        let lines = summarize(&[mk("a", 10), mk("b", 100), mk("a", 15)]);
        assert_eq!(lines.len(), 2);
        assert_eq!((lines[0].name.as_str(), lines[0].count, lines[0].total_ns), ("b", 1, 100));
        assert_eq!((lines[1].name.as_str(), lines[1].count, lines[1].total_ns), ("a", 2, 25));
        let table = render_summary(&lines);
        assert!(table.contains("b"));
        assert!(table.lines().count() == 3);
    }
}

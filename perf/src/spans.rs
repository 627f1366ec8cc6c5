//! Wall-clock spans recorded by the benchmark around its calls into
//! charm's public functions, kept in memory and written at exit as a
//! Chrome trace through `charm_trace::chrome`.
//!
//! Each span has a name, a layer, a start, a duration, a parent and the
//! op it belongs to. A layer's *self time* is the time its spans cover
//! minus the time their children cover. Spans of the `bench` layer are
//! the benchmark's own code between calls: their self time is the
//! unattributed share.
//!
//! Work that runs on the engine's worker threads (simulator
//! measurements, checkpoint flushes) cannot be bracketed from the
//! calling thread. It is timed per call by the wrappers in
//! `crate::timed` and recorded as an *aggregate* child of the
//! `engine.run` span: its thread time divided by the worker count,
//! i.e. its share of the parallel region's wall time.

use charm_trace::WallSpan;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers spans are charged to, named after charm's crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code.
    Bench,
    /// `charm-design`: plan compilation.
    Design,
    /// `charm-simmem`: the memory simulator.
    Simmem,
    /// `charm-simnet`: the network simulator.
    Simnet,
    /// `charm-engine`: campaign scheduling, record build, merge.
    Engine,
    /// `charm-store`: checkpoints, archive, verified reads.
    Store,
    /// `charm-analysis` (and the store's fleet report built on it).
    Analysis,
    /// `charm-core`: the figure experiments.
    Core,
    /// `charm-serve`: the service, seen from its clients.
    Serve,
}

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Design => "design",
            Layer::Simmem => "simmem",
            Layer::Simnet => "simnet",
            Layer::Engine => "engine",
            Layer::Store => "store",
            Layer::Analysis => "analysis",
            Layer::Core => "core",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`engine.run`, `core.fig04`, …).
    pub name: String,
    /// Layer its self time is charged to.
    pub layer: Layer,
    /// The op it belongs to.
    pub op: u64,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Whether this is an aggregate of work on other threads.
    pub aggregate: bool,
}

/// A per-thread span recorder. A tracer that is off records nothing, so
/// untraced ops pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    track: String,
    on: bool,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for one thread (`track`), timing from `epoch`.
    pub fn new(epoch: Instant, track: &str) -> Tracer {
        Tracer {
            epoch,
            track: track.to_string(),
            on: false,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether the current op is being traced.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts op `op`, traced or not, with its root `bench` span.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.op = op;
        self.on = traced;
        self.enter("op", Layer::Bench);
    }

    /// Ends the current op.
    pub fn end_op(&mut self) {
        self.exit();
        debug_assert!(self.stack.is_empty(), "unbalanced spans");
        self.on = false;
    }

    /// Opens a child span of the innermost open span.
    pub fn enter(&mut self, name: &str, layer: Layer) {
        if !self.on {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op: self.op,
            start_ns,
            dur_ns: 0,
            parent: self.stack.last().copied(),
            aggregate: false,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("exit without enter");
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx].dur_ns = now.saturating_sub(self.spans[idx].start_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(name, layer);
        let r = f();
        self.exit();
        r
    }

    /// Records a child of the innermost open span that was timed by the
    /// caller, for phases only an event loop can delimit.
    pub fn interval(&mut self, name: &str, layer: Layer, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op: self.op,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            parent: self.stack.last().copied(),
            aggregate: false,
        });
    }

    /// Records an aggregate child of the innermost open span: `dur_ns`
    /// of work done on other threads, placed at the parent's start.
    pub fn aggregate(&mut self, name: &str, layer: Layer, dur_ns: u64) {
        if !self.on {
            return;
        }
        let parent = *self.stack.last().expect("aggregate outside a span");
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op: self.op,
            start_ns: self.spans[parent].start_ns,
            dur_ns,
            parent: Some(parent),
            aggregate: true,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Converts the spans for the Chrome exporter. Aggregate children
    /// overlap their siblings, so they get a lane of their own.
    pub fn wall_spans(&self) -> Vec<WallSpan> {
        self.spans
            .iter()
            .map(|s| {
                let track =
                    if s.aggregate { format!("{}.agg", self.track) } else { self.track.clone() };
                let mut args = vec![
                    ("op".to_string(), s.op.to_string()),
                    ("layer".to_string(), s.layer.name().to_string()),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), self.spans[p].name.clone()));
                }
                WallSpan {
                    track,
                    name: s.name.clone(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                    args,
                }
            })
            .collect()
    }
}

/// Self time per layer (ns) over `spans`, `bench` included. Aggregate
/// children can in principle overshoot their parent by timer jitter;
/// self time is clamped at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.layer).or_insert(0) += s.dur_ns.saturating_sub(c);
    }
    out
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e6).collect()
}

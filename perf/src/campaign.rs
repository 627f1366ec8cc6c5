//! `mem-sweep` and `net-archive`: one op is one archived campaign, as a
//! spec- or DSL-driven `run_campaign --store` process does it — compile
//! the plan, build a fresh target (so profile caches start empty), run
//! it on two shards, archive it, and (net-archive) read it back.
//!
//! * mem-sweep: a `charm-spec/1` memory sweep on the opteron with
//!   `pooled_random_offset` placement, sizes from 16 KiB to 16 MiB. The
//!   simulator does most of the work and every row misses the profile
//!   cache; the record and store layers do little.
//! * net-archive: a DSL network campaign on taurus, checkpointed through
//!   a `Store::session`, archived with `put_run`, read back with `get`.
//!   The simulator is cheap, so the engine, CSV records and the store
//!   (segments, SHA-256, write then verified read) dominate.
//!
//! Iteration `i` derives its plan and target seed from the run seed and
//! `i`. Outputs: the archived `records.csv` of the first
//! [`DIGEST_OPS`] iterations, and on every seed the structural checks
//! that iteration 0's records equal a one-shard run's and that every
//! archived run reads back equal to what was measured.

use crate::calib::Speed;
use crate::harness::{self, finish, repeated_setup, Config, Measured, OpTime, Phase, Report};
use crate::plans::{
    build, derive, mem_spec, net_dsl, run_built, run_sharded, Built, Compiled, PlanText, SHARDS,
};
use crate::probes::{layer_probes, ProbePlans};
use crate::spans::{Layer, Tracer};
use crate::timed::{TimedSink, TimedTarget};
use charm_engine::checkpoint::CheckpointSink;
use charm_engine::{CampaignData, CampaignRun, RawRecord};
use charm_store::{CampaignKey, RunId, Store};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Iterations whose archived records enter the reference digest.
const DIGEST_OPS: u64 = 4;

/// Input stream ids (see [`derive`]).
const ITER_STREAM: u64 = 1;
const WARMUP: u64 = u64::MAX;

/// Which of the two campaign workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Mem,
    Net,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Mem => "mem-sweep",
            Kind::Net => "net-archive",
        }
    }

    fn sim(self) -> (Layer, &'static str, &'static str) {
        match self {
            Kind::Mem => (Layer::Simmem, "simmem.build", "simmem.measure"),
            Kind::Net => (Layer::Simnet, "simnet.build", "simnet.measure"),
        }
    }
}

fn input(cfg: &Config, kind: Kind, i: u64) -> PlanText {
    let seed = derive(cfg.seed, ITER_STREAM, i);
    match kind {
        Kind::Mem => {
            let (sizes, reps) = cfg.sizes.mem;
            mem_spec(seed, "pooled_random_offset", sizes, reps)
        }
        Kind::Net => {
            let (sizes, reps) = cfg.sizes.net;
            net_dsl(seed, seed, &["async_send", "blocking_recv", "ping_pong"], sizes, reps)
        }
    }
}

struct Archived {
    id: RunId,
    rows: usize,
    data: CampaignData,
    read_back: Option<CampaignData>,
}

/// The sharded run, through the timing wrappers when the op is traced.
fn engine_run(
    tr: &mut Tracer,
    kind: Kind,
    c: &Compiled,
    built: Built,
    sink: Option<&dyn CheckpointSink>,
) -> Result<CampaignRun, String> {
    if !tr.is_on() {
        return run_built(c, built, SHARDS, sink);
    }
    let measure_ns = Arc::new(AtomicU64::new(0));
    let timed_sink = sink.map(TimedSink::new);
    let sink = timed_sink.as_ref().map(|s| s as &dyn CheckpointSink);
    let run = match built {
        Built::Mem(t) => run_sharded(
            &c.plan,
            TimedTarget::new(*t, Arc::clone(&measure_ns)),
            c.order_seed,
            SHARDS,
            sink,
        ),
        Built::Net(t) => run_sharded(
            &c.plan,
            TimedTarget::new(*t, Arc::clone(&measure_ns)),
            c.order_seed,
            SHARDS,
            sink,
        ),
    };
    // Worker-thread time becomes wall time at the effective worker count.
    let workers = run
        .as_ref()
        .ok()
        .and_then(|r| r.data.metadata.get("shards"))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    let (layer, _, measure) = kind.sim();
    tr.aggregate(measure, layer, measure_ns.load(Ordering::Relaxed) / workers);
    if let Some(s) = &timed_sink {
        tr.aggregate("store.checkpoint", Layer::Store, s.total_ns() / workers);
    }
    run
}

/// One op: compile, build, run, archive, (net-archive) read back.
fn iteration(
    store: &Store,
    kind: Kind,
    input: &PlanText,
    tr: &mut Tracer,
) -> Result<Archived, String> {
    let c = tr.span("design.compile", Layer::Design, || input.compile())?;
    let (sim_layer, build_name, _) = kind.sim();
    let built = tr.span(build_name, sim_layer, || build(&c.target, input.seed))?;
    let key = tr.span("store.key", Layer::Store, || {
        CampaignKey::of(&c.plan, &built.identity(), Some(input.seed), SHARDS as u64)
    });
    let session = match kind {
        Kind::Mem => None,
        Kind::Net => Some(
            tr.span("store.session", Layer::Store, || {
                store.session(&c.plan, &key.target, key.seed, key.shards)
            })
            .map_err(|e| e.to_string())?,
        ),
    };
    tr.enter("engine.run", Layer::Engine);
    let run = engine_run(tr, kind, &c, built, session.as_ref().map(|s| s as &dyn CheckpointSink));
    tr.exit();
    let run = run?;
    let id = tr
        .span("store.put_run", Layer::Store, || {
            store.put_run(&key, &c.label, "charm_perf", &run.data, None)
        })
        .map_err(|e| e.to_string())?;
    let read_back = match kind {
        Kind::Mem => None,
        Kind::Net => Some(
            tr.span("store.get", Layer::Store, || store.get(&id)).map_err(|e| e.to_string())?.data,
        ),
    };
    Ok(Archived { id, rows: c.plan.len(), data: run.data, read_back })
}

fn run_dir(store: &Store, id: &RunId) -> std::path::PathBuf {
    store.root().join("runs").join(id.as_str())
}

/// Records equal up to `start_us`, which sharded runs rebuild from
/// per-batch clock offsets with float rounding.
fn same_measurements(a: &[RawRecord], b: &[RawRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.levels == y.levels
                && x.replicate == y.replicate
                && x.sequence == y.sequence
                && x.value.to_bits() == y.value.to_bits()
        })
}

pub(crate) fn run(cfg: &Config, kind: Kind) -> Result<Report, String> {
    let name = kind.name();
    let (store, setup_s) = repeated_setup(cfg, Speed::Corrected, |dir| {
        let store = Store::open(dir.join("store")).map_err(|e| e.to_string())?;
        let mut off = Tracer::new(Instant::now(), "setup");
        off.begin_op(WARMUP, false);
        let warm = iteration(&store, kind, &input(cfg, kind, WARMUP), &mut off);
        off.end_op();
        std::fs::remove_dir_all(run_dir(&store, &warm?.id)).map_err(|e| e.to_string())?;
        Ok(store)
    })?;

    let phase = Phase::start(cfg);
    let mut tr = Tracer::new(phase.epoch, "main");
    let mut ops = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<CampaignData> = None;
    let mut host = vec![Speed::Corrected.sample()];
    while !phase.over(ops.len()) {
        let i = attempted;
        attempted += 1;
        let traced = cfg.trace && i % 2 == 1;
        let inp = input(cfg, kind, i);
        let started = Instant::now();
        tr.begin_op(i, traced);
        let result = iteration(&store, kind, &inp, &mut tr);
        tr.end_op();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        host.push(Speed::Corrected.sample());
        let op = OpTime { ms, traced, sample: host.len() - 1 };
        let a = match result {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{name}: iteration {i} failed: {e}");
                failed += 1;
                continue;
            }
        };
        ops.push(op);
        // Output checks and clean-up, outside the op's time.
        if a.data.records.len() != a.rows {
            failures.push(format!(
                "iteration {i}: {} records for {} plan rows",
                a.data.records.len(),
                a.rows
            ));
        }
        if a.read_back.as_ref().is_some_and(|r| r.records != a.data.records) {
            failures.push(format!("iteration {i}: archived records read back differently"));
        }
        let dir = run_dir(&store, &a.id);
        if i < DIGEST_OPS {
            let csv = std::fs::read(dir.join("records.csv")).map_err(|e| e.to_string())?;
            if csv != a.data.to_csv().as_bytes() {
                failures.push(format!("iteration {i}: archived records.csv differs from the run"));
            }
            digests.push(charm_store::digest::sha256_hex(&csv));
        }
        if i == 0 {
            first = Some(a.data);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let phase = phase.end()?;

    // Structural check on any seed: iteration 0 on one shard.
    let inp0 = input(cfg, kind, 0);
    let c0 = inp0.compile()?;
    let single = run_built(&c0, build(&c0.target, inp0.seed)?, 1, None)?;
    match &first {
        Some(sharded) if same_measurements(&sharded.records, &single.data.records) => {}
        Some(_) => failures.push("iteration 0: 2-shard records differ from the 1-shard run".into()),
        None => failures.push("iteration 0 did not complete".into()),
    }

    let layer = if cfg.trace {
        let plans = ProbePlans {
            main: &inp0,
            mem: (kind == Kind::Mem).then_some(&inp0),
            net: (kind == Kind::Net).then_some(&inp0),
        };
        layer_probes(&cfg.scratch.join("probes"), &plans)?
    } else {
        Vec::new()
    };
    let digest = harness::digest_parts(digests.iter().map(|d| d.as_bytes()));
    let span_layers: &'static [Layer] = match kind {
        Kind::Mem => &[Layer::Design, Layer::Simmem, Layer::Engine, Layer::Store],
        Kind::Net => &[Layer::Design, Layer::Simnet, Layer::Engine, Layer::Store],
    };
    finish(
        name,
        cfg,
        Measured {
            setup_s,
            ops,
            host,
            attempted,
            failed,
            phase,
            tracers: vec![tr],
            span_layers,
            layer,
            failures,
            digest,
        },
    )
}

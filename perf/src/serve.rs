//! `serve-mix`: an in-process `charm_serve::Server` (2 workers, quotas
//! high enough that nothing is refused) under a closed loop of 2
//! clients on 2 connections, each sending its next submission only
//! after the previous one's terminal event. One op is one submission.
//!
//! Every block of 10 submissions holds, in a seeded order: 5 fresh
//! 200-row network DSL jobs, 2 fresh 300-row memory spec jobs with
//! `malloc_per_size` placement (the profile-cache hit path), 2 exact
//! resubmissions of jobs archived at set-up (dedupe: streamed from the
//! archive), and 1 `result` replay of an archived run. Both the DSL and
//! the spec submission paths, and store writes and reads, all flow.
//!
//! Checks: every streamed CSV is byte-identical to `Store::get` of its
//! run ID, and every terminal event's source matches the submission's
//! kind (engine, archive, archive).
//!
//! Each submission mostly waits: about 40 ms between `accepted` and the
//! first record, whatever the source. Its times therefore do not scale
//! with the host's speed and are reported as measured.

use crate::calib::Speed;
use crate::harness::{self, finish, repeated_setup, Config, Measured, OpTime, Phase, Report};
use crate::plans::{derive, mem_spec, mix, net_dsl, PlanText, Syntax, SHARDS};
use crate::probes::{layer_probes, ProbePlans};
use crate::spans::{Layer, Tracer};
use crate::stats::median;
use charm_serve::protocol::{Event, PlanKind, Request, Source};
use charm_serve::{Client, Server, ServerConfig};
use charm_store::{RunId, Store};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

const CLIENTS: usize = 2;
/// Submissions whose streams enter the reference digest.
const DIGEST_OPS: u64 = 40;

const FRESH_STREAM: u64 = 2;
const PICK_STREAM: u64 = 3;
const FLEET_STREAM: u64 = 4;
const ORDER_STREAM: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FreshDsl,
    FreshSpec,
    Resubmit,
    Replay,
}

impl Kind {
    /// Where the records must come from, as the per-layer metrics name it.
    fn source(self) -> &'static str {
        match self {
            Kind::FreshDsl | Kind::FreshSpec => "engine",
            Kind::Resubmit => "archive",
            Kind::Replay => "result",
        }
    }
}

const BLOCK: [Kind; 10] = [
    Kind::FreshDsl,
    Kind::FreshDsl,
    Kind::FreshDsl,
    Kind::FreshDsl,
    Kind::FreshDsl,
    Kind::FreshSpec,
    Kind::FreshSpec,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Replay,
];

/// The kind of submission `i`: position `i % 10` of its block's seeded
/// permutation of [`BLOCK`].
fn kind_of(seed: u64, i: u64) -> Kind {
    let mut order = BLOCK;
    let mut r = derive(seed, ORDER_STREAM, i / 10);
    for k in (1..order.len()).rev() {
        r = mix(r);
        order.swap(k, (r % (k as u64 + 1)) as usize);
    }
    order[(i % 10) as usize]
}

fn dsl_job(cfg: &Config, seed: u64) -> PlanText {
    let (sizes, reps) = cfg.sizes.serve_net;
    net_dsl(seed, seed, &["ping_pong", "async_send"], sizes, reps)
}

fn spec_job(cfg: &Config, seed: u64) -> PlanText {
    let (sizes, reps) = cfg.sizes.serve_mem;
    mem_spec(seed, "malloc_per_size", sizes, reps)
}

fn submit(p: &PlanText) -> Request {
    let (kind, platform) = match p.syntax {
        Syntax::Dsl(platform) => (PlanKind::Dsl, platform),
        Syntax::Spec => (PlanKind::Spec, ""),
    };
    Request::Submit {
        kind,
        plan: p.text.clone(),
        platform: platform.to_string(),
        seed: p.seed,
        shards: SHARDS as u64,
        observe: false,
    }
}

/// The jobs archived at set-up: half DSL, half spec.
fn fleet(cfg: &Config) -> Vec<PlanText> {
    (0..cfg.sizes.serve_fleet as u64)
        .map(|j| {
            let seed = derive(cfg.seed, FLEET_STREAM, j);
            if j % 2 == 0 {
                dsl_job(cfg, seed)
            } else {
                spec_job(cfg, seed)
            }
        })
        .collect()
}

/// A completed submission as the client saw it.
struct Served {
    run_id: String,
    source: Source,
    records: u64,
    rows: u64,
    /// The streamed CSV (header and rows), until [`Served::digest`]
    /// replaces it with its SHA-256 so that memory stays flat.
    body: String,
    admit: f64,
    start: f64,
    stream: f64,
}

impl Served {
    fn digest(mut self) -> Served {
        self.body = charm_store::digest::sha256_hex(self.body.as_bytes());
        self
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Sends one request and reads its stream to the terminal event,
/// timestamping each phase: admission (send → `accepted`), start
/// (`accepted` → first record; the service writes `head` at admission,
/// so the first record marks when results begin: queue wait plus engine
/// or archive start) and stream (first record → terminal).
fn serve_one(client: &mut Client, request: &Request, tr: &mut Tracer) -> Result<Served, String> {
    let t0 = Instant::now();
    client.send(request)?;
    let (run_id, source) = match client.read_event()? {
        Event::Accepted { run_id, source, .. } => (run_id, source),
        other => return Err(format!("not admitted: {other:?}")),
    };
    let accepted = Instant::now();
    let mut body = String::new();
    let mut rows = 0u64;
    let mut first: Option<Instant> = None;
    let (records, done_source) = loop {
        match client.read_event()? {
            Event::Head { columns, .. } => {
                body.push_str(&columns);
                body.push('\n');
            }
            Event::Record { row, .. } => {
                first.get_or_insert_with(Instant::now);
                rows += 1;
                body.push_str(&row);
                body.push('\n');
            }
            Event::Counter { .. } => {}
            Event::Done { records, source, .. } => break (records, source),
            other => return Err(format!("stream ended with {other:?}")),
        }
    };
    let end = Instant::now();
    let first = first.unwrap_or(end);
    tr.interval("serve.admit", Layer::Serve, t0, accepted);
    tr.interval("serve.start", Layer::Serve, accepted, first);
    tr.interval("serve.stream", Layer::Serve, first, end);
    if done_source != source {
        return Err(format!("accepted as {source} but done as {done_source}"));
    }
    Ok(Served {
        run_id,
        source,
        records,
        rows,
        body,
        admit: ms(t0, accepted),
        start: ms(accepted, first),
        stream: ms(first, end),
    })
}

struct State {
    server: Server,
    store_dir: PathBuf,
    fleet: Vec<(PlanText, String)>,
}

fn setup(cfg: &Config, dir: &std::path::Path) -> Result<State, String> {
    let store_dir = dir.join("store");
    let config = ServerConfig {
        store_dir: store_dir.clone(),
        workers: 2,
        queue: 16,
        tenant_max_jobs: 16,
        tenant_max_rows: u64::MAX / 4,
        tenant_window_secs: 60,
    };
    let server = Server::start("127.0.0.1:0", config)?;
    let mut client = Client::connect(&server.addr().to_string(), "setup")?;
    let mut off = Tracer::new(Instant::now(), "setup");
    let mut archived = Vec::new();
    for p in fleet(cfg) {
        let served = serve_one(&mut client, &submit(&p), &mut off)?;
        if served.source != Source::Engine {
            return Err(format!("fleet job served from {}", served.source));
        }
        archived.push((p, served.run_id));
    }
    Ok(State { server, store_dir, fleet: archived })
}

fn counters(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    Ok(client.status()?.0.into_iter().collect())
}

/// What one closed-loop client did.
#[derive(Default)]
struct ClientLog {
    done: Vec<(u64, Kind, Served, OpTime)>,
    failed: u64,
}

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let (state, setup_s) = repeated_setup(cfg, Speed::Raw, |dir| setup(cfg, dir))?;
    let addr = state.server.addr().to_string();
    let mut admin = Client::connect(&addr, "admin")?;
    let before = counters(&mut admin)?;
    let request_of = |i: u64, kind: Kind| -> Request {
        let pick = derive(cfg.seed, PICK_STREAM, i) as usize % state.fleet.len();
        match kind {
            Kind::FreshDsl => submit(&dsl_job(cfg, derive(cfg.seed, FRESH_STREAM, i))),
            Kind::FreshSpec => submit(&spec_job(cfg, derive(cfg.seed, FRESH_STREAM, i))),
            Kind::Resubmit => submit(&state.fleet[pick].0),
            Kind::Replay => Request::Result { run_id: state.fleet[pick].1.clone() },
        }
    };

    let phase = Phase::start(cfg);
    let next = AtomicU64::new(0);
    let done = AtomicUsize::new(0);
    let mut logs: Vec<(Tracer, ClientLog)> = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (phase, next, done, addr, request_of) =
                    (&phase, &next, &done, &addr, &request_of);
                scope.spawn(move || -> Result<(Tracer, ClientLog), String> {
                    let mut client = Client::connect(addr, &format!("perf-{c}"))?;
                    let mut tr = Tracer::new(phase.epoch, &format!("client{c}"));
                    let mut log = ClientLog::default();
                    while !phase.over(done.load(Ordering::SeqCst)) {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let kind = kind_of(cfg.seed, i);
                        let request = request_of(i, kind);
                        let traced = cfg.trace && i % 2 == 1;
                        let started = Instant::now();
                        tr.begin_op(i, traced);
                        let result = serve_one(&mut client, &request, &mut tr);
                        tr.end_op();
                        let ms = started.elapsed().as_secs_f64() * 1e3;
                        let op = OpTime { ms, traced, sample: 0 };
                        match result {
                            Ok(served) => {
                                done.fetch_add(1, Ordering::SeqCst);
                                log.done.push((i, kind, served.digest(), op));
                            }
                            Err(e) => {
                                eprintln!("serve-mix: submission {i} failed: {e}");
                                log.failed += 1;
                            }
                        }
                    }
                    Ok((tr, log))
                })
            })
            .collect();
        for h in handles {
            logs.push(h.join().map_err(|_| "client thread panicked".to_string())??);
        }
        Ok(())
    })?;
    let phase = phase.end()?;
    let after = counters(&mut admin)?;
    drop(admin);
    let State { server, store_dir, fleet } = state;
    server.shutdown();

    let mut served: Vec<(u64, Kind, Served, OpTime)> = Vec::new();
    let mut tracers = Vec::new();
    let mut failed = 0;
    for (tr, log) in logs {
        tracers.push(tr);
        failed += log.failed;
        served.extend(log.done);
    }
    served.sort_by_key(|(i, ..)| *i);
    let attempted = next.load(Ordering::SeqCst);

    // Checks: stream ≡ archive, and the source each kind must have.
    let store = Store::open(&store_dir).map_err(|e| e.to_string())?;
    let mut archived: BTreeMap<String, String> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut digest_lines = Vec::new();
    for (i, kind, s, _) in &served {
        let want = match kind {
            Kind::FreshDsl | Kind::FreshSpec => Source::Engine,
            Kind::Resubmit | Kind::Replay => Source::Archive,
        };
        if s.source != want {
            failures.push(format!("submission {i} ({kind:?}) served from {}", s.source));
        }
        if s.records != s.rows {
            failures.push(format!(
                "submission {i}: done says {} records, {} streamed",
                s.records, s.rows
            ));
        }
        if matches!(kind, Kind::Resubmit | Kind::Replay)
            && !fleet.iter().any(|(_, id)| *id == s.run_id)
        {
            failures.push(format!("submission {i}: {} is not an archived fleet run", s.run_id));
        }
        if !archived.contains_key(&s.run_id) {
            let id = RunId::parse(&s.run_id).map_err(|e| e.to_string())?;
            let run = store.get(&id).map_err(|e| format!("run {}: {e}", s.run_id))?;
            let mut body = charm_engine::record::csv_header(&run.data.factor_names);
            body.push('\n');
            for r in &run.data.records {
                r.write_csv_row(&mut body).map_err(|e| e.to_string())?;
                body.push('\n');
            }
            archived.insert(s.run_id.clone(), charm_store::digest::sha256_hex(body.as_bytes()));
        }
        if archived[&s.run_id] != s.body {
            failures.push(format!("submission {i}: streamed CSV differs from the archived run"));
        }
        if *i < DIGEST_OPS {
            digest_lines.push(format!(
                "{i} {} {} {} {}",
                kind.source(),
                s.run_id,
                s.source,
                s.body
            ));
        }
    }

    let layer = if cfg.trace {
        let mut layer = Vec::new();
        for source in ["engine", "archive", "result"] {
            let of = |f: fn(&Served) -> f64| -> Result<f64, String> {
                let xs: Vec<f64> = served
                    .iter()
                    .filter(|(_, k, ..)| k.source() == source)
                    .map(|(_, _, s, _)| f(s))
                    .collect();
                if xs.is_empty() {
                    return Err(format!("no {source} submissions completed"));
                }
                Ok(median(&xs))
            };
            let (admit, start, stream) = (of(|s| s.admit)?, of(|s| s.start)?, of(|s| s.stream)?);
            layer.push((phase_name("admit", source), admit));
            layer.push((phase_name("start", source), start));
            layer.push((phase_name("stream", source), stream));
        }
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
        };
        let rejected: u64 =
            after.keys().filter(|k| k.starts_with("serve.rejected.")).map(|k| delta(k)).sum();
        layer.push(("serve.dedup_hits", delta("serve.dedup_hits") as f64));
        layer.push(("serve.jobs_executed", delta("serve.jobs_executed") as f64));
        layer.push(("serve.rejected", rejected as f64));
        let main = dsl_job(cfg, derive(cfg.seed, FRESH_STREAM, 0));
        let mem = spec_job(cfg, derive(cfg.seed, FRESH_STREAM, 1));
        let plans = ProbePlans { main: &main, mem: Some(&mem), net: Some(&main) };
        layer.extend(layer_probes(&cfg.scratch.join("probes"), &plans)?);
        layer
    } else {
        Vec::new()
    };
    let digest = harness::digest_parts(digest_lines.iter().map(|l| l.as_bytes()));
    let ops = served.iter().map(|(.., op)| *op).collect();
    finish(
        "serve-mix",
        cfg,
        Measured {
            setup_s,
            ops,
            host: vec![Speed::Raw.sample()],
            attempted,
            failed,
            phase,
            tracers,
            span_layers: &[Layer::Serve],
            layer,
            failures,
            digest,
        },
    )
}

/// The declared name of a serve phase metric.
fn phase_name(phase: &str, source: &str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == format!("serve.{phase}_ms_p50.{source}"))
        .expect("serve phase metrics are declared")
}

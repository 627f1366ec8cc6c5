//! The campaign service: TCP accept loop, admission control, worker
//! pool, and the per-connection protocol driver.
//!
//! Threading model (deliberately async-free):
//!
//! * one **accept** thread hands each connection to its own thread;
//! * each **connection** thread parses requests, runs admission, and —
//!   for admitted submissions — drains the job's event channel onto the
//!   socket until the terminal event;
//! * a fixed pool of **worker** threads pops jobs off a bounded queue
//!   and executes them with the work-stealing `ShardedCampaign` engine,
//!   streaming the engine's merged batches through
//!   [`crate::stream::StreamSink`].
//!
//! Admission order for a submission: compile → dedupe (an archived
//! identical campaign streams straight from the store, zero engine
//! work) → per-tenant row budget → per-tenant job cap → queue capacity.
//! Every refusal is a typed `rejected` response; the connection stays
//! open. A request line longer than [`MAX_REQUEST_LINE`] is the one
//! exception: it is answered with `error` and the connection closes.
//!
//! Cancellation is cooperative: `cancel` fires the job's
//! [`CancelToken`]; queued jobs die at pop, running jobs stop at the
//! engine's next batch-claim boundary, leaving only whole checkpoint
//! segments — which is why a cancelled job's resubmission resumes
//! instead of restarting.

use crate::metrics::{Metrics, Quotas};
use crate::protocol::{Event, PlanKind, RejectReason, Request, Source, PROTOCOL};
use crate::stream::StreamSink;
use crate::submit::{self, Prepared};
use charm_design::ExperimentPlan;
use charm_engine::record::csv_header;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_engine::{Campaign, CampaignRun, CancelToken, ParallelTarget, TargetError};
use charm_obs::Observer;
use charm_store::{CampaignKey, CheckpointSession, RunId, Store, StoreError};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request line the daemon buffers, terminator excluded: the
/// same 1 MiB bound as a `charm-klv/1` frame value. A client that never
/// sends a newline therefore cannot grow the daemon's memory.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// While draining a refused client's input before closing, the daemon
/// reads at most [`DRAIN_BYTES`] and waits at most this long per read.
const DRAIN_IDLE: Duration = Duration::from_secs(2);
const DRAIN_BYTES: u64 = 8 << 20;

/// Server tunables. `Default` is sized for tests and small hosts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of the backing campaign store.
    pub store_dir: PathBuf,
    /// Worker threads executing campaigns.
    pub workers: usize,
    /// Maximum jobs waiting in the admission queue (running jobs do
    /// not count). Full queue ⇒ `rejected: queue_full`.
    pub queue: usize,
    /// Per-tenant cap on concurrently queued + running jobs.
    pub tenant_max_jobs: u64,
    /// Per-tenant plan-row budget per window.
    pub tenant_max_rows: u64,
    /// The row-budget window, in seconds.
    pub tenant_window_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            store_dir: PathBuf::from("store"),
            workers: 2,
            queue: 16,
            tenant_max_jobs: 4,
            tenant_max_rows: 50_000_000,
            tenant_window_secs: 60,
        }
    }
}

impl ServerConfig {
    fn quotas(&self) -> Quotas {
        Quotas {
            max_jobs: self.tenant_max_jobs,
            max_rows: self.tenant_max_rows,
            window: Duration::from_secs(self.tenant_window_secs),
        }
    }
}

/// One admitted unit of work, queued for a worker.
struct Job {
    id: String,
    tenant: String,
    plan: ExperimentPlan,
    target: TargetSpec,
    shuffle_seed: Option<u64>,
    seed: u64,
    shards: u64,
    observe: bool,
    resume: bool,
    session: CheckpointSession,
    cancel: CancelToken,
    tx: Sender<Event>,
}

/// Bounded FIFO job queue with blocking pop and stop signal.
struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
}

struct QueueInner {
    // Boxed: jobs are half a KiB and move through try_push/pop/stop by
    // value; one allocation at admission beats copying them around.
    jobs: VecDeque<Box<Job>>,
    stopped: bool,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner { jobs: VecDeque::new(), stopped: false }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Enqueues unless the queue is at capacity; the check and the push
    /// are one critical section, so capacity can never be oversubscribed
    /// by racing admissions.
    fn try_push(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.stopped || inner.jobs.len() >= self.cap {
            return Err(job);
        }
        inner.jobs.push_back(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue stops (`None`).
    fn pop(&self) -> Option<Box<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.stopped {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    fn stop(&self) -> Vec<Job> {
        let mut inner = self.inner.lock().unwrap();
        inner.stopped = true;
        self.cv.notify_all();
        inner.jobs.drain(..).map(|j| *j).collect()
    }
}

/// Lifecycle registry of known jobs, for `cancel` and bookkeeping.
#[derive(Default)]
struct JobTable {
    inner: Mutex<BTreeMap<String, JobHandle>>,
}

struct JobHandle {
    cancel: CancelToken,
    finished: bool,
}

impl JobTable {
    fn register(&self, id: &str, cancel: CancelToken) {
        self.inner.lock().unwrap().insert(id.to_string(), JobHandle { cancel, finished: false });
    }

    /// Marks a job finished; `false` when it was already finished or
    /// is unknown.
    fn finish(&self, id: &str) -> bool {
        match self.inner.lock().expect("job table lock").get_mut(id) {
            Some(h) => !std::mem::replace(&mut h.finished, true),
            None => false,
        }
    }

    /// Unregisters a job whose admission was rolled back.
    fn remove(&self, id: &str) {
        self.inner.lock().unwrap().remove(id);
    }

    /// Fires the job's token; returns the `cancel_ok` state string.
    fn cancel(&self, id: &str) -> &'static str {
        match self.inner.lock().unwrap().get(id) {
            Some(h) if h.finished => "finished",
            Some(h) => {
                h.cancel.cancel();
                "cancelled"
            }
            None => "unknown",
        }
    }

    fn cancel_all(&self) {
        for h in self.inner.lock().unwrap().values() {
            h.cancel.cancel();
        }
    }
}

struct Shared {
    store: Store,
    config: ServerConfig,
    metrics: Metrics,
    queue: JobQueue,
    jobs: JobTable,
    stopping: AtomicBool,
    next_job: AtomicU64,
}

/// A running campaign service. Dropping (or [`Server::shutdown`]) stops
/// the accept loop and the worker pool, cancelling running jobs.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`), opens the store, and starts
    /// the accept loop and worker pool.
    pub fn start(addr: &str, config: ServerConfig) -> Result<Server, String> {
        let store = Store::open(&config.store_dir).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let shared = Arc::new(Shared {
            store,
            queue: JobQueue::new(config.queue.max(1)),
            config,
            metrics: Metrics::new(),
            jobs: JobTable::default(),
            stopping: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || work(&shared, execute_job))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // Connection threads are detached: they end when
                    // their client hangs up.
                    std::thread::spawn(move || connection(&shared, stream));
                }
            })
        };
        Ok(Server { addr: local, shared, accept: Some(accept), workers })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service metrics (tests assert on counters through this).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Blocks forever serving requests (the daemon's main thread).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, cancels every known job, drains the queue, and
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.jobs.cancel_all();
        for job in self.shared.queue.stop() {
            let _ = job.tx.send(Event::Failed {
                job: job.id,
                reason: "error".into(),
                detail: "server shutting down".into(),
            });
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes one event line; `false` means the client is gone.
fn send(writer: &mut TcpStream, event: &Event) -> bool {
    let mut line = event.render();
    line.push('\n');
    writer.write_all(line.as_bytes()).is_ok()
}

/// Reads the next request line, at most [`MAX_REQUEST_LINE`] bytes.
/// `None` ends the connection: at end of stream, on an I/O error or a
/// line that is not UTF-8, and after answering an over-long line with
/// an `error` event.
fn next_request(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', &mut buf).ok()? == 0 {
        return None;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE {
        let detail = format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing");
        send(writer, &Event::Error { detail });
        // Closing a socket with unread input resets it, and the reset
        // can drop the error still in the send queue: half-close, then
        // discard input until the client hangs up or goes quiet.
        let _ = writer.shutdown(Shutdown::Write);
        let _ = reader.get_ref().set_read_timeout(Some(DRAIN_IDLE));
        let _ = std::io::copy(&mut reader.by_ref().take(DRAIN_BYTES), &mut std::io::sink());
        return None;
    }
    String::from_utf8(buf).ok()
}

fn connection(shared: &Shared, stream: TcpStream) {
    shared.metrics.bump("serve.connections", 1);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);

    // Versioned handshake first: anything else on the first line is a
    // protocol error and the connection closes.
    let Some(first) = next_request(&mut reader, &mut writer) else { return };
    let tenant = match Request::parse(&first) {
        Ok(Request::Hello { proto, tenant }) if proto == PROTOCOL => {
            let hello = Event::Hello {
                proto: PROTOCOL.to_string(),
                server: concat!("charm-serve ", env!("CARGO_PKG_VERSION")).to_string(),
            };
            if !send(&mut writer, &hello) {
                return;
            }
            tenant
        }
        Ok(Request::Hello { proto, .. }) => {
            send(
                &mut writer,
                &Event::Error {
                    detail: format!("unsupported protocol {proto:?} (this is {PROTOCOL})"),
                },
            );
            return;
        }
        _ => {
            send(
                &mut writer,
                &Event::Error { detail: format!("expected a {PROTOCOL} hello first") },
            );
            return;
        }
    };

    while let Some(line) = next_request(&mut reader, &mut writer) {
        if line.trim().is_empty() {
            continue;
        }
        let keep_going = match Request::parse(&line) {
            Err(e) => send(&mut writer, &Event::Error { detail: e }),
            Ok(Request::Hello { .. }) => {
                send(&mut writer, &Event::Error { detail: "connection already greeted".into() })
            }
            Ok(Request::Status) => {
                let (mut counters, tenants) = shared.metrics.snapshot();
                counters.push(("serve.queue_depth".to_string(), shared.queue.len() as u64));
                counters.sort();
                send(&mut writer, &Event::Status { counters, tenants })
            }
            Ok(Request::Cancel { job }) => {
                let state = shared.jobs.cancel(&job);
                if state == "cancelled" {
                    shared.metrics.bump("serve.cancel_requests", 1);
                }
                send(&mut writer, &Event::CancelOk { job, state: state.to_string() })
            }
            Ok(Request::Result { run_id }) => match RunId::parse(&run_id) {
                Ok(id) => {
                    let job = next_job_id(shared);
                    stream_archive(shared, &mut writer, &job, &id, true)
                }
                Err(e) => send(&mut writer, &Event::Error { detail: e.to_string() }),
            },
            Ok(Request::Submit { kind, plan, platform, seed, shards, observe }) => handle_submit(
                shared,
                &mut writer,
                &tenant,
                kind,
                &plan,
                &platform,
                seed,
                shards,
                observe,
            ),
        };
        if !keep_going {
            break;
        }
    }
}

fn next_job_id(shared: &Shared) -> String {
    format!("j{}", shared.next_job.fetch_add(1, Ordering::SeqCst))
}

fn reject(
    shared: &Shared,
    writer: &mut TcpStream,
    tenant: &str,
    reason: RejectReason,
    detail: String,
) -> bool {
    shared.metrics.reject(tenant, reason);
    send(writer, &Event::Rejected { reason, detail })
}

/// The full admission path for one submission. Returns `false` when the
/// client hung up.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Shared,
    writer: &mut TcpStream,
    tenant: &str,
    kind: PlanKind,
    plan_text: &str,
    platform: &str,
    seed: u64,
    shards: u64,
    observe: bool,
) -> bool {
    shared.metrics.bump("serve.submissions", 1);
    let Prepared { plan, target, target_id, shuffle_seed } =
        match submit::prepare(kind, plan_text, platform, seed, shared.config.tenant_max_rows) {
            Ok(p) => p,
            Err((reason, detail)) => return reject(shared, writer, tenant, reason, detail),
        };
    let key = CampaignKey::of(&plan, &target_id, Some(seed), shards);
    let run_id = key.run_id();

    // Dedupe: an archived run for this exact (plan, target, seed,
    // shards) streams from the store — no quota charge, no queue slot,
    // no engine work.
    match shared.store.manifest(&run_id) {
        Ok(manifest) if key.matches(&manifest) => {
            shared.metrics.bump("serve.dedup_hits", 1);
            let job = next_job_id(shared);
            return stream_archive(shared, writer, &job, &run_id, false);
        }
        Ok(_) => {
            // A truncated-hash collision: the directory archives a
            // different campaign. Refuse rather than re-derive.
            return reject(
                shared,
                writer,
                tenant,
                RejectReason::BadPlan,
                format!("run id {run_id} collides with a different archived campaign"),
            );
        }
        Err(StoreError::NotFound { .. }) => {}
        Err(e) => {
            return send(writer, &Event::Error { detail: format!("store error: {e}") });
        }
    }

    // Quotas, then the bounded queue; a lost race to the queue rolls
    // the quota charge back.
    let rows = plan.len() as u64;
    if let Err(reason) = shared.metrics.try_admit(tenant, rows, &shared.config.quotas()) {
        let detail = match reason {
            RejectReason::QuotaJobs => format!(
                "tenant {tenant:?} already runs {} concurrent job(s)",
                shared.config.tenant_max_jobs
            ),
            _ => format!(
                "tenant {tenant:?} exceeded {} plan rows per {}s window",
                shared.config.tenant_max_rows, shared.config.tenant_window_secs
            ),
        };
        return reject(shared, writer, tenant, reason, detail);
    }

    // The checkpoint session tells a resume from a fresh run and is the
    // sink the engine streams through. Opening it also guards against
    // truncated-ID collisions in the checkpoint trail.
    let session = match shared.store.session(&plan, &target_id, Some(seed), shards) {
        Ok(s) => s,
        Err(e) => {
            shared.metrics.rollback_admit(tenant);
            return send(writer, &Event::Error { detail: format!("store error: {e}") });
        }
    };
    // Observed runs never resume: checkpoints retain records, not
    // counter streams, so the engine measures every batch of them.
    let resume = !observe && session.has_segments();

    let job_id = next_job_id(shared);
    let cancel = CancelToken::new();
    let (tx, rx) = channel();
    let job = Box::new(Job {
        id: job_id.clone(),
        tenant: tenant.to_string(),
        plan,
        target,
        shuffle_seed,
        seed,
        shards,
        observe,
        resume,
        session,
        cancel: cancel.clone(),
        tx,
    });
    let columns = csv_header(job.plan.factor_names());
    shared.jobs.register(&job_id, cancel);
    if let Err(job) = shared.queue.try_push(job) {
        shared.jobs.remove(&job_id);
        shared.metrics.rollback_admit(tenant);
        drop(job);
        return reject(
            shared,
            writer,
            tenant,
            RejectReason::QueueFull,
            format!("admission queue is at capacity ({})", shared.config.queue),
        );
    }
    let source = if resume { Source::Resume } else { Source::Engine };
    let accepted =
        Event::Accepted { job: job_id.clone(), run_id: run_id.to_string(), source, rows };
    let mut connected =
        send(writer, &accepted) && send(writer, &Event::Head { job: job_id, columns });
    // Relay the worker's stream until the terminal event. A gone client
    // stops the writes but not the drain: the campaign still completes
    // and archives — disconnect is not cancellation.
    for event in rx.iter() {
        let terminal = matches!(event, Event::Done { .. } | Event::Failed { .. });
        if connected && !send(writer, &event) {
            connected = false;
        }
        if terminal && connected {
            break;
        }
    }
    connected
}

/// Streams an archived run: `accepted` (for submissions and result
/// requests alike), `head`, every record row, the archived counters,
/// `done` tagged `archive`. Returns `false` when the client hung up.
fn stream_archive(
    shared: &Shared,
    writer: &mut TcpStream,
    job: &str,
    run_id: &RunId,
    is_result_request: bool,
) -> bool {
    let stored = match shared.store.get(run_id) {
        Ok(s) => s,
        Err(e) => {
            let detail = if is_result_request {
                format!("cannot load run {run_id}: {e}")
            } else {
                format!("archived run {run_id} failed verification: {e}")
            };
            return send(writer, &Event::Error { detail });
        }
    };
    let records = stored.data.records.len() as u64;
    shared.metrics.bump("serve.archive_rows", records);
    let accepted = Event::Accepted {
        job: job.to_string(),
        run_id: run_id.to_string(),
        source: Source::Archive,
        rows: records,
    };
    if !send(writer, &accepted) {
        return false;
    }
    let head = Event::Head { job: job.to_string(), columns: csv_header(&stored.data.factor_names) };
    if !send(writer, &head) {
        return false;
    }
    for r in &stored.data.records {
        if !send(writer, &Event::Record { job: job.to_string(), row: r.csv_row() }) {
            return false;
        }
    }
    if let Some(report) = &stored.report {
        for (key, value) in report.counters.iter() {
            let counter = Event::Counter { job: job.to_string(), key: key.to_string(), value };
            if !send(writer, &counter) {
                return false;
            }
        }
    }
    send(
        writer,
        &Event::Done {
            job: job.to_string(),
            run_id: run_id.to_string(),
            records,
            source: Source::Archive,
        },
    )
}

/// A worker thread: pops jobs until the queue stops and runs each
/// through `run`. A panic under one job fails that job, not the
/// worker: the client gets a terminal `failed` event, the tenant's slot
/// is released and the next job runs on the same thread.
fn work(shared: &Shared, run: impl Fn(&Shared, Job)) {
    while let Some(job) = shared.queue.pop() {
        let (id, tenant, tx) = (job.id.clone(), job.tenant.clone(), job.tx.clone());
        let Err(panic) = catch_unwind(AssertUnwindSafe(|| run(shared, *job))) else { continue };
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string payload");
        shared.metrics.bump("serve.jobs_failed", 1);
        finish(shared, &id, &tenant);
        let _ = tx.send(Event::Failed {
            job: id,
            reason: "error".into(),
            detail: format!("job panicked: {message}"),
        });
    }
}

/// Worker-side execution of an admitted job.
fn execute_job(shared: &Shared, job: Job) {
    // A job cancelled while queued dies here, before any engine work.
    if job.cancel.is_cancelled() {
        finish(shared, &job.id, &job.tenant);
        let _ = job.tx.send(Event::Failed {
            job: job.id.clone(),
            reason: "cancelled".into(),
            detail: "cancelled while queued".into(),
        });
        return;
    }
    shared.metrics.bump("serve.jobs_executed", 1);
    if job.resume {
        shared.metrics.bump("serve.jobs_resumed", 1);
    }
    let sink = StreamSink::new(&job.session, &job.id, job.tx.clone());
    let result = match registry::resolve(&job.target, job.seed) {
        Ok(ResolvedTarget::Network(t)) => run_sharded(&job, *t, &sink),
        Ok(ResolvedTarget::Memory(t)) => run_sharded(&job, *t, &sink),
        Ok(ResolvedTarget::External(_)) => {
            Err(TargetError::Protocol { detail: "external target admitted".into() })
        }
        Err(e) => Err(e),
    };
    let streamed = sink.streamed();
    match result {
        Ok(run) => {
            let archived = shared.store.put_run(
                job.session.key(),
                &job.target.label(),
                "charm_serve_d",
                &run.data,
                run.report.as_ref(),
            );
            finish(shared, &job.id, &job.tenant);
            match archived {
                Ok(id) => {
                    shared.metrics.bump("serve.engine_rows", run.data.records.len() as u64);
                    if let Some(report) = &run.report {
                        for (key, value) in report.counters.iter() {
                            let _ = job.tx.send(Event::Counter {
                                job: job.id.clone(),
                                key: key.to_string(),
                                value,
                            });
                        }
                    }
                    let source = if job.resume { Source::Resume } else { Source::Engine };
                    let _ = job.tx.send(Event::Done {
                        job: job.id.clone(),
                        run_id: id.to_string(),
                        records: streamed,
                        source,
                    });
                }
                Err(e) => {
                    shared.metrics.bump("serve.jobs_failed", 1);
                    let _ = job.tx.send(Event::Failed {
                        job: job.id.clone(),
                        reason: "error".into(),
                        detail: format!("archive failed: {e}"),
                    });
                }
            }
        }
        Err(TargetError::Cancelled) => {
            shared.metrics.bump("serve.jobs_cancelled", 1);
            finish(shared, &job.id, &job.tenant);
            let _ = job.tx.send(Event::Failed {
                job: job.id.clone(),
                reason: "cancelled".into(),
                detail: format!("stopped after {streamed} streamed row(s); segments retained"),
            });
        }
        Err(e) => {
            shared.metrics.bump("serve.jobs_failed", 1);
            finish(shared, &job.id, &job.tenant);
            let _ = job.tx.send(Event::Failed {
                job: job.id.clone(),
                reason: "error".into(),
                detail: e.to_string(),
            });
        }
    }
}

/// Marks a job finished and releases its tenant's slot, once: a panic
/// after the job already finished releases nothing more.
fn finish(shared: &Shared, id: &str, tenant: &str) {
    if shared.jobs.finish(id) {
        shared.metrics.job_finished(tenant);
    }
}

/// Runs one job's campaign on the work-stealing engine, streaming
/// through `sink`. The engine takes the requested shard count
/// literally, so the run's geometry — and therefore its metadata and
/// run ID — is exactly what the submission asked for.
fn run_sharded<T: ParallelTarget>(
    job: &Job,
    target: T,
    sink: &StreamSink<'_>,
) -> Result<CampaignRun, TargetError> {
    let mut sharded = Campaign::new(&job.plan, target)
        .shards(job.shards as usize)
        .seed(job.shuffle_seed)
        .cancel_token(job.cancel.clone())
        .store(sink);
    if job.observe {
        sharded = sharded.observer(Observer::default());
    }
    sharded.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::Receiver;

    const DSL: &str = "factor op in [ping_pong]\nfactor size in [64, 1024]\nreplicates 2\n";

    fn shared(dir: &std::path::Path) -> Shared {
        let config =
            ServerConfig { store_dir: dir.to_path_buf(), workers: 1, ..Default::default() };
        Shared {
            store: Store::open(dir).unwrap(),
            queue: JobQueue::new(config.queue),
            config,
            metrics: Metrics::new(),
            jobs: JobTable::default(),
            stopping: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
        }
    }

    /// Admits and queues a job for tenant `t` the way `handle_submit`
    /// does; returns its ID and event stream.
    fn admit(shared: &Shared, seed: u64) -> (String, Receiver<Event>) {
        let Prepared { plan, target, target_id, shuffle_seed } =
            submit::prepare(PlanKind::Dsl, DSL, "taurus", seed, u64::MAX).unwrap();
        shared.metrics.try_admit("t", plan.len() as u64, &shared.config.quotas()).unwrap();
        let session = shared.store.session(&plan, &target_id, Some(seed), 1).unwrap();
        let id = next_job_id(shared);
        let cancel = CancelToken::new();
        let (tx, rx) = channel();
        shared.jobs.register(&id, cancel.clone());
        let job = Job {
            id: id.clone(),
            tenant: "t".into(),
            plan,
            target,
            shuffle_seed,
            seed,
            shards: 1,
            observe: false,
            resume: false,
            session,
            cancel,
            tx,
        };
        assert!(shared.queue.try_push(Box::new(job)).is_ok());
        (id, rx)
    }

    #[test]
    fn a_panicking_job_fails_alone_and_its_worker_runs_the_next() {
        let dir = std::env::temp_dir().join(format!("charm_serve_panic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = shared(&dir);
        let (first, first_rx) = admit(&shared, 1);
        let (second, second_rx) = admit(&shared, 2);
        // A job's events up to its terminal one; none once its senders
        // are gone or after a generous wait.
        let events = |rx: &Receiver<Event>| {
            let mut out = Vec::new();
            while let Ok(e) = rx.recv_timeout(Duration::from_secs(20)) {
                let terminal = matches!(e, Event::Done { .. } | Event::Failed { .. });
                out.push(e);
                if terminal {
                    break;
                }
            }
            out
        };
        let (first_events, second_events, worker) = std::thread::scope(|s| {
            // One worker runs both jobs; the first one's body panics.
            let worker = s.spawn(|| {
                work(&shared, |shared, job| {
                    if job.id == first {
                        panic!("injected fault");
                    }
                    execute_job(shared, job)
                })
            });
            let (first_events, second_events) = (events(&first_rx), events(&second_rx));
            shared.queue.stop();
            (first_events, second_events, worker.join())
        });
        assert!(worker.is_ok(), "the worker outlives the panic");
        assert_eq!(
            first_events,
            [Event::Failed {
                job: first.clone(),
                reason: "error".into(),
                detail: "job panicked: injected fault".into(),
            }]
        );
        assert!(
            matches!(second_events.last(), Some(Event::Done { job, records: 4, .. }) if *job == second),
            "{second_events:?}"
        );
        assert_eq!(shared.metrics.get("serve.jobs_failed"), 1);
        assert_eq!(shared.metrics.get("serve.jobs_executed"), 1);
        let (_, tenants) = shared.metrics.snapshot();
        let active = tenants[0].1.iter().find(|(k, _)| k == "active").map(|(_, v)| *v);
        assert_eq!((tenants[0].0.as_str(), active), ("t", Some(0)), "both slots released");
        assert_eq!(shared.jobs.cancel(&first), "finished");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

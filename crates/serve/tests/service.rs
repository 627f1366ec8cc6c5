//! End-to-end contracts of the campaign service: versioned handshake,
//! archive-backed dedupe (byte-identical to direct engine runs),
//! admission control (queue capacity and tenant quotas), cooperative
//! cancellation, and checkpoint-backed resume.
//!
//! Timing-sensitive scenarios (cancel a *running* job, fill the queue
//! while workers are busy) retry with geometrically growing plans
//! instead of assuming any particular engine speed — the suite must
//! pass on a single loaded core and on a fast idle machine alike.

use charm_serve::protocol::{Event, PlanKind, RejectReason, Source};
use charm_serve::{Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let p = std::env::temp_dir().join(format!("charm_serve_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> (Scratch, Server, String) {
    let scratch = Scratch::new(tag);
    let mut config = ServerConfig { store_dir: scratch.path().to_path_buf(), ..Default::default() };
    tweak(&mut config);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr().to_string();
    (scratch, server, addr)
}

const SMALL_PLAN: &str = "factor op in [ping_pong]\nfactor size in [64, 1024]\nreplicates 5\n";

/// A plan sized to still be running when a racing probe lands; grows 4×
/// per retry attempt.
fn big_plan(attempt: u32) -> String {
    let replicates = 20u64 << (2 * attempt);
    format!(
        "factor op in [ping_pong, async_send]\n\
         factor size loguniform 64..1048576 count 30 seed 3\n\
         replicates {replicates}\norder randomized 9\n"
    )
}

/// Runs the same campaign directly on the engine, exactly as the
/// service schedules it (the shared DSL lowering, requested shards
/// taken literally), returning the full `records.csv` text.
fn direct_csv(plan_text: &str, platform: &str, seed: u64, shards: u64) -> String {
    let bench = charm_core::spec::ResolvedBenchmark::from_dsl(plan_text, platform).unwrap();
    let run = match charm_engine::registry::resolve(&bench.target, seed).unwrap() {
        charm_engine::ResolvedTarget::Network(t) => charm_engine::Campaign::new(&bench.plan, *t)
            .shards(shards as usize)
            .seed(bench.order_seed)
            .run()
            .unwrap(),
        other => panic!("unexpected target {other:?}"),
    };
    run.data.to_csv()
}

/// Strips the `# key: value` metadata comments off a `records.csv`,
/// leaving header + data rows — the part a stream carries.
fn data_rows(csv: &str) -> String {
    csv.lines().filter(|l| !l.starts_with('#')).fold(String::new(), |mut acc, l| {
        acc.push_str(l);
        acc.push('\n');
        acc
    })
}

#[test]
fn handshake_is_versioned() {
    use std::io::{BufRead, BufReader, Write};
    let (_scratch, server, addr) = start("hello", |_| {});
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"{\"type\": \"hello\", \"proto\": \"charm-serve/999\", \"tenant\": \"x\"}\n")
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
    match Event::parse(line.trim_end()).unwrap() {
        Event::Error { detail } => assert!(detail.contains("charm-serve/1"), "{detail}"),
        other => panic!("expected error, got {other:?}"),
    }
    // A well-versioned hello on a fresh connection succeeds.
    let _ = Client::connect(&addr, "x").unwrap();
    server.shutdown();
}

#[test]
fn dedupe_serves_identical_submissions_from_the_archive() {
    let (_scratch, server, addr) = start("dedupe", |_| {});
    let mut c = Client::connect(&addr, "t1").unwrap();

    let first = c.run(PlanKind::Dsl, SMALL_PLAN, "taurus", 5, 3, false).unwrap().unwrap();
    let Event::Done { run_id: id1, source: Source::Engine, .. } = &first.terminal else {
        panic!("first submission should run on the engine: {:?}", first.terminal);
    };

    // Identical resubmission: archive-tagged, byte-identical rows, zero
    // additional engine work.
    let second = c.run(PlanKind::Dsl, SMALL_PLAN, "taurus", 5, 3, false).unwrap().unwrap();
    let Event::Done { run_id: id2, source: Source::Archive, .. } = &second.terminal else {
        panic!("identical resubmission should hit the archive: {:?}", second.terminal);
    };
    assert_eq!(id1, id2);
    assert_eq!(first.head, second.head);
    assert_eq!(first.rows, second.rows, "archive must replay the exact bytes");
    assert!(matches!(&second.accepted, Event::Accepted { source: Source::Archive, .. }));
    assert_eq!(server.metrics().get("serve.dedup_hits"), 1);
    assert_eq!(server.metrics().get("serve.jobs_executed"), 1, "no engine work on the hit");

    // The streamed rows equal a direct engine run of the same campaign.
    let direct = direct_csv(SMALL_PLAN, "taurus", 5, 3);
    assert_eq!(first.to_csv(), data_rows(&direct), "serve ≡ run_campaign, byte for byte");

    // A drifted plan (one more replicate) is a different campaign and
    // runs on the engine again.
    let drifted = SMALL_PLAN.replace("replicates 5", "replicates 6");
    let third = c.run(PlanKind::Dsl, &drifted, "taurus", 5, 3, false).unwrap().unwrap();
    match &third.terminal {
        Event::Done { run_id, source: Source::Engine, .. } => assert_ne!(run_id, id1),
        other => panic!("drifted plan should re-run: {other:?}"),
    }
    assert_eq!(server.metrics().get("serve.jobs_executed"), 2);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_queue_full() {
    let (_scratch, server, addr) = start("queue", |c| {
        c.workers = 1;
        c.queue = 1;
        c.tenant_max_jobs = 10;
    });
    let mut canceller = Client::connect(&addr, "side").unwrap();
    let mut saw_full = false;
    'attempts: for attempt in 0..4 {
        let plan = big_plan(attempt);
        let mut streams = Vec::new();
        // Distinct tenants sidestep per-tenant quotas; with one busy
        // worker and one queue slot, the third concurrent submission
        // must bounce — unless the jobs finished too fast (retry with a
        // 4× bigger plan).
        for n in 0..3 {
            let mut c = Client::connect(&addr, &format!("q{n}")).unwrap();
            let seed = 10_000 + 100 * attempt as u64 + n;
            match c.submit(PlanKind::Dsl, &plan, "taurus", seed, 2, false).unwrap() {
                accepted @ Event::Accepted { .. } => streams.push((c, accepted)),
                Event::Rejected { reason: RejectReason::QueueFull, .. } => {
                    saw_full = true;
                }
                other => panic!("unexpected submit answer: {other:?}"),
            }
        }
        for (mut c, accepted) in streams {
            if let Event::Accepted { job, .. } = &accepted {
                let _ = canceller.cancel(job).unwrap();
            }
            c.drain(accepted).unwrap();
        }
        if saw_full {
            break 'attempts;
        }
    }
    assert!(saw_full, "a third concurrent submission never saw queue_full");
    assert!(server.metrics().get("serve.rejected.queue_full") >= 1);
    server.shutdown();
}

#[test]
fn tenant_quotas_reject_jobs_and_rows() {
    // Concurrency quota: one job per tenant.
    let (_scratch, server, addr) = start("quota_jobs", |c| {
        c.workers = 1;
        c.queue = 8;
        c.tenant_max_jobs = 1;
    });
    let mut a = Client::connect(&addr, "acme").unwrap();
    let mut b = Client::connect(&addr, "acme").unwrap();
    let mut side = Client::connect(&addr, "side").unwrap();
    let mut proved = false;
    for attempt in 0..4 {
        let plan = big_plan(attempt);
        let accepted = match a
            .submit(PlanKind::Dsl, &plan, "taurus", 20_000 + attempt as u64, 2, false)
            .unwrap()
        {
            accepted @ Event::Accepted { .. } => accepted,
            other => panic!("first job should be admitted: {other:?}"),
        };
        let verdict =
            b.submit(PlanKind::Dsl, &plan, "taurus", 30_000 + attempt as u64, 2, false).unwrap();
        if let Event::Accepted { job, .. } = &accepted {
            let _ = side.cancel(job).unwrap();
        }
        a.drain(accepted).unwrap();
        match verdict {
            Event::Rejected { reason: RejectReason::QuotaJobs, .. } => {
                proved = true;
                break;
            }
            Event::Accepted { .. } => {
                // The first job finished before the second landed; drain
                // and retry with a bigger plan.
                b.drain(verdict).unwrap();
            }
            other => panic!("unexpected second-submission answer: {other:?}"),
        }
    }
    assert!(proved, "a concurrent same-tenant job never saw quota_jobs");
    assert!(server.metrics().get("serve.rejected.quota_jobs") >= 1);
    server.shutdown();

    // Row-volume quota: a plan bigger than the whole window budget is
    // rejected outright (deterministic, no racing needed).
    let (_scratch2, server2, addr2) = start("quota_rows", |c| {
        c.tenant_max_rows = 8;
    });
    let mut c = Client::connect(&addr2, "acme").unwrap();
    match c.run(PlanKind::Dsl, SMALL_PLAN, "taurus", 1, 1, false).unwrap() {
        Err(Event::Rejected { reason: RejectReason::QuotaRows, .. }) => {}
        other => panic!("10-row plan against an 8-row budget should bounce: {other:?}"),
    }
    assert_eq!(server2.metrics().get("serve.rejected.quota_rows"), 1);
    server2.shutdown();
}

#[test]
fn cancel_leaves_segments_and_resume_matches_a_direct_run() {
    let (scratch, server, addr) = start("resume", |c| {
        c.workers = 1;
    });
    let plan_seed = 4242u64;
    let shards = 4u64;
    let mut cancelled_plan: Option<String> = None;
    let mut run_id = String::new();
    for attempt in 0..4 {
        let plan = big_plan(attempt);
        let mut a = Client::connect(&addr, "t1").unwrap();
        let mut side = Client::connect(&addr, "side").unwrap();
        let accepted =
            match a.submit(PlanKind::Dsl, &plan, "taurus", plan_seed, shards, false).unwrap() {
                accepted @ Event::Accepted { .. } => accepted,
                other => panic!("submission should be admitted: {other:?}"),
            };
        let Event::Accepted { job, run_id: id, .. } = accepted.clone() else { unreachable!() };
        // Wait for at least one checkpoint segment to land, then cancel:
        // that guarantees the retry has something to resume from.
        let checkpoints = scratch.path().join("runs").join(&id).join("checkpoints");
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut have_segment = false;
        while Instant::now() < deadline {
            let n = std::fs::read_dir(&checkpoints)
                .map(|d| {
                    d.filter_map(|e| e.ok())
                        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
                        .count()
                })
                .unwrap_or(0);
            if n >= 1 {
                have_segment = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = side.cancel(&job).unwrap();
        let drained = a.drain(accepted).unwrap();
        match &drained.terminal {
            Event::Failed { reason, .. } if reason == "cancelled" && have_segment => {
                // Cancelled mid-run with segments on disk and no
                // manifest — exactly the resumable state.
                assert!(!scratch.path().join("runs").join(&id).join("manifest.json").exists());
                cancelled_plan = Some(plan);
                run_id = id;
                break;
            }
            _ => continue, // finished before the cancel landed; bigger plan
        }
    }
    let plan = cancelled_plan.expect("never managed to cancel a running job mid-campaign");

    // The identical resubmission resumes from the segments...
    let mut c = Client::connect(&addr, "t1").unwrap();
    let resumed = match c.run(PlanKind::Dsl, &plan, "taurus", plan_seed, shards, false).unwrap() {
        Ok(d) => d,
        Err(e) => panic!("resubmission rejected: {e:?}"),
    };
    match &resumed.accepted {
        Event::Accepted { source: Source::Resume, .. } => {}
        other => panic!("resubmission should be resume-tagged: {other:?}"),
    }
    let Event::Done { source: Source::Resume, .. } = &resumed.terminal else {
        panic!("resumed job should complete: {:?}", resumed.terminal);
    };
    assert_eq!(server.metrics().get("serve.jobs_resumed"), 1);

    // ...and the archived result is byte-identical to an uninterrupted
    // direct engine run — interruption must not perturb the record.
    let archived =
        std::fs::read_to_string(scratch.path().join("runs").join(&run_id).join("records.csv"))
            .unwrap();
    assert_eq!(archived, direct_csv(&plan, "taurus", plan_seed, shards));
    assert_eq!(resumed.to_csv(), data_rows(&archived), "stream equals the archive");
    server.shutdown();
}

#[test]
fn status_and_result_replay() {
    let (_scratch, server, addr) = start("status", |_| {});
    let mut c = Client::connect(&addr, "t9").unwrap();
    let first = c.run(PlanKind::Dsl, SMALL_PLAN, "myrinet", 2, 2, false).unwrap().unwrap();
    let Event::Done { run_id, .. } = &first.terminal else { panic!() };

    let (counters, tenants) = c.status().unwrap();
    let get = |k: &str| counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert_eq!(get("serve.accepted"), Some(1));
    assert_eq!(get("serve.jobs_executed"), Some(1));
    assert!(get("serve.queue_depth").is_some());
    assert!(tenants.iter().any(|(t, _)| t == "t9"));

    // `result` replays an archived run by ID on demand.
    let replay = c.result(run_id).unwrap().unwrap();
    assert_eq!(replay.rows, first.rows);
    assert!(matches!(&replay.terminal, Event::Done { source: Source::Archive, .. }));

    // An unknown (well-formed) ID is a request-level error and the
    // connection survives it.
    match c.result(&"deadbeef".repeat(4)).unwrap() {
        Err(Event::Error { detail }) => assert!(detail.contains("deadbeef"), "{detail}"),
        other => panic!("expected an error event: {other:?}"),
    }
    let _ = c.status().unwrap();
    server.shutdown();
}

#[test]
fn observed_jobs_stream_counters_after_records() {
    let (_scratch, server, addr) = start("observe", |_| {});
    let mut c = Client::connect(&addr, "t1").unwrap();
    let d = c.run(PlanKind::Dsl, SMALL_PLAN, "taurus", 3, 2, true).unwrap().unwrap();
    assert!(matches!(&d.terminal, Event::Done { source: Source::Engine, .. }));
    assert!(!d.counters.is_empty(), "observed run should stream campaign counters");
    // The spec path works end to end too (spec carries its own target).
    let spec = "[benchmark]\nname = \"svc\"\n\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
                [factors.op]\nlevels = [\"ping_pong\"]\n\n\
                [factors.size]\nlevels = [64, 1024]\n\n[design]\nreplicates = 2\norder = \"randomized\"\norder_seed = 5\n";
    let d2 = c.run(PlanKind::Spec, spec, "", 11, 2, false).unwrap().unwrap();
    assert!(matches!(&d2.terminal, Event::Done { .. }));
    server.shutdown();
}

#[test]
fn a_buffer_larger_than_the_page_pool_fails_its_job_and_the_worker_serves_on() {
    let (_scratch, server, addr) = start("over_pool", |c| c.workers = 1);
    let mut c = Client::connect(&addr, "t1").unwrap();
    // the arm's page pool is 2 MiB
    let over = "factor size_bytes in [4194304]\nreplicates 4\n";
    let failed = c.run(PlanKind::Dsl, over, "arm", 3, 2, false).unwrap().unwrap();
    match &failed.terminal {
        Event::Failed { reason, detail, .. } => {
            assert_eq!(reason, "error");
            assert!(detail.contains("\"size_bytes\"") && detail.contains("page pool"), "{detail}");
        }
        other => panic!("an oversized buffer should fail its job: {other:?}"),
    }
    // The one worker survived it: the next job runs to completion.
    let fits = "factor size_bytes in [4096, 65536]\nreplicates 2\n";
    let done = c.run(PlanKind::Dsl, fits, "arm", 3, 2, false).unwrap().unwrap();
    assert!(matches!(&done.terminal, Event::Done { source: Source::Engine, .. }), "{done:?}");
    assert_eq!(done.rows.len(), 4);
    assert_eq!(server.metrics().get("serve.jobs_failed"), 1);
    server.shutdown();
}

#[test]
fn a_design_no_memory_could_hold_is_refused_on_its_row_count_and_the_daemon_serves_on() {
    // 10^6 · 10^6 · 10^3 = 10^15 rows: expanding them would abort the
    // daemon, so admission has to refuse the design from its level
    // counts alone. The test builds no plan itself.
    let (_scratch, server, addr) = start("huge_design", |_| {});
    let mut c = Client::connect(&addr, "t1").unwrap();
    let huge = "factor a from 1 to 1000000 step 1\nfactor b from 1 to 1000000 step 1\n\
                replicates 1000\n";
    match c.run(PlanKind::Dsl, huge, "taurus", 5, 1, false).unwrap() {
        Err(Event::Rejected { reason: RejectReason::QuotaRows, detail }) => {
            assert!(detail.contains("1000000000000000 rows"), "{detail}");
        }
        other => panic!("a 10^15-row design should bounce at admission: {other:?}"),
    }
    assert_eq!(server.metrics().get("serve.rejected.quota_rows"), 1);
    let done = c.run(PlanKind::Dsl, SMALL_PLAN, "taurus", 5, 1, false).unwrap().unwrap();
    assert!(matches!(&done.terminal, Event::Done { source: Source::Engine, .. }), "{done:?}");
    server.shutdown();
}

#[test]
fn a_spec_level_a_csv_row_cannot_carry_is_refused_at_admission() {
    let (_scratch, server, addr) = start("csv_level", |_| {});
    let mut c = Client::connect(&addr, "t1").unwrap();
    let spec = "[benchmark]\nname = \"svc\"\n\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
                [factors.op]\nlevels = [\"ping_pong\"]\n\n[factors.tag]\nlevels = [\"a,b\", \"c\"]\n\n\
                [factors.size]\nlevels = [64, 1024]\n";
    match c.run(PlanKind::Spec, spec, "", 11, 2, false).unwrap() {
        Err(Event::Rejected { reason: RejectReason::BadPlan, detail }) => {
            assert!(detail.contains(r#"[factors.tag] level "a,b" contains ','"#), "{detail}");
        }
        other => panic!("a level with a comma should bounce at admission: {other:?}"),
    }
    assert_eq!(server.metrics().get("serve.jobs_executed"), 0);
    server.shutdown();
}

#[test]
fn a_spec_asking_more_unique_sizes_than_its_range_holds_is_rejected_and_the_next_job_runs() {
    let (_scratch, server, addr) = start("unique_count", |_| {});
    let mut c = Client::connect(&addr, "t1").unwrap();
    let spec = |count: u32| {
        format!(
            "[benchmark]\nname = \"svc\"\n\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
             [factors.op]\nlevels = [\"ping_pong\"]\n\n[factors.size]\ngenerator = \"loguniform_unique\"\n\
             min = 8\nmax = 16\ncount = {count}\nseed = 1\n"
        )
    };
    match c.run(PlanKind::Spec, &spec(100), "", 11, 1, false).unwrap() {
        Err(Event::Rejected { reason: RejectReason::BadPlan, detail }) => {
            assert!(detail.contains("[factors.size]"), "{detail}");
        }
        other => panic!("an impossible size count should bounce at admission: {other:?}"),
    }
    // The same connection serves on: a count the range holds completes.
    let done = c.run(PlanKind::Spec, &spec(9), "", 11, 1, false).unwrap().unwrap();
    assert!(matches!(&done.terminal, Event::Done { source: Source::Engine, .. }), "{done:?}");
    assert_eq!(done.rows.len(), 9);
    server.shutdown();
}

#[test]
fn an_unbounded_request_line_is_refused_and_the_connection_closed() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (_scratch, server, addr) = start("longline", |_| {});
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(b"{\"type\": \"hello\", \"proto\": \"charm-serve/1\", \"tenant\": \"x\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(Event::parse(line.trim_end()).unwrap(), Event::Hello { .. }), "{line}");

    // 2 MiB and never a newline, written from a thread so this one can
    // read the refusal while the flood is still going.
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..32 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Event::parse(line.trim_end()).unwrap() {
        Event::Error { detail } => assert!(detail.contains("1048576"), "{detail}"),
        other => panic!("expected an error event, got {other:?}"),
    }
    // Then the daemon hangs up cleanly: it drains the rest of the
    // flood, so the close is an end of stream, not a reset.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing may follow the error");
    flood.join().unwrap();

    // The daemon itself is unharmed.
    let mut c = Client::connect(&addr, "y").unwrap();
    let _ = c.status().unwrap();
    server.shutdown();
}

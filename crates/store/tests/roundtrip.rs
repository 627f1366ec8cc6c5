//! Store round-trips: archive → verify → reload, tamper detection,
//! dedupe/collision behavior (including target separation and drifted
//! re-archives), gc, and checkpoint/resume through a real on-disk
//! store.

use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::Factor;
use charm_engine::target::NetworkTarget;
use charm_engine::CheckpointSink;
use charm_engine::{Campaign, CampaignData};
use charm_obs::Observer;
use charm_simnet::presets;
use charm_store::{CheckpointSession, RunId, Store, StoreError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory per test, no tempfile dependency.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir()
        .join(format!("charm-store-roundtrip-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Target identity used by tests that don't care about its value; the
/// target-separation tests below derive real identities instead.
const TARGET: &str = "taurus#test00000000";

/// The campaign key most tests archive under.
fn key_of(plan: &ExperimentPlan, seed: u64, shards: u64) -> charm_store::CampaignKey {
    charm_store::CampaignKey::of(plan, TARGET, Some(seed), shards)
}

fn plan_of(seed: u64) -> ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
        .factor(Factor::new("size", vec![64i64, 4096, 65536]))
        .replicates(3)
        .build();
    plan.shuffle(seed);
    plan
}

// Checkpoint filenames carry the batch geometry; tests compute it with
// `charm_engine::batch_bounds` instead of hardcoding it.
fn batches_of(plan: &ExperimentPlan, shards: usize) -> usize {
    charm_engine::batch_bounds(plan.len(), charm_engine::effective_workers(plan.len(), shards))
        .len()
}

fn run_campaign(plan: &ExperimentPlan, seed: u64, shards: usize) -> CampaignData {
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    Campaign::new(plan, target).shards(shards).seed(seed).run().unwrap().data
}

#[test]
fn put_then_get_returns_equal_campaign() {
    let dir = scratch("putget");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(7);
    let data = run_campaign(&plan, 7, 2);
    let id = store.put_run(&key_of(&plan, 7, 2), "bench", "test putget", &data, None).unwrap();
    let back = store.get(&id).unwrap();
    assert_eq!(back.data, data);
    assert_eq!(back.manifest.seed, Some(7));
    assert_eq!(back.manifest.shards, 2);
    assert_eq!(back.manifest.cli_args, "test putget");
    assert!(back.manifest.artifact("records.csv").is_some());
    assert!(back.report.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observed_run_archives_and_reloads_its_report() {
    let dir = scratch("report");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(3);
    let target = NetworkTarget::new("m", presets::myrinet_gm(3));
    let run = Campaign::new(&plan, target).seed(3).observer(Observer::default()).run().unwrap();
    let report = run.report.expect("observer attached");
    let id = store.put_run(&key_of(&plan, 3, 1), "bench", "", &run.data, Some(&report)).unwrap();
    let back = store.get(&id).unwrap();
    assert!(back.manifest.artifact("report.jsonl").is_some());
    let back_report = back.report.expect("report archived");
    assert_eq!(back_report.counters, report.counters);
    assert_eq!(back_report.events.len(), report.events.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn identical_campaign_dedupes_to_one_run() {
    let dir = scratch("dedupe");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(11);
    let data = run_campaign(&plan, 11, 3);
    let a = store.put_run(&key_of(&plan, 11, 3), "bench", "", &data, None).unwrap();
    let b = store.put_run(&key_of(&plan, 11, 3), "bench", "", &data, None).unwrap();
    assert_eq!(a, b);
    assert_eq!(store.list().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_seed_or_shards_lands_on_different_runs() {
    let dir = scratch("distinct");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(5);
    let data = run_campaign(&plan, 5, 2);
    let a = store.put_run(&key_of(&plan, 5, 2), "bench", "", &data, None).unwrap();
    let b = store.put_run(&key_of(&plan, 6, 2), "bench", "", &data, None).unwrap();
    let c = store.put_run(&key_of(&plan, 5, 4), "bench", "", &data, None).unwrap();
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_ne!(b, c);
    assert_eq!(store.list().unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipping_one_byte_is_caught_on_get() {
    let dir = scratch("tamper");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(13);
    let data = run_campaign(&plan, 13, 2);
    let id = store.put_run(&key_of(&plan, 13, 2), "bench", "", &data, None).unwrap();
    let records = dir.join("runs").join(id.as_str()).join("records.csv");
    let mut bytes = std::fs::read(&records).unwrap();
    // Flip one byte in the middle of the data section.
    let pos = bytes.len() / 2;
    bytes[pos] ^= 0x01;
    std::fs::write(&records, &bytes).unwrap();
    match store.get(&id) {
        Err(StoreError::Tampered { artifact, .. }) => assert_eq!(artifact, "records.csv"),
        other => panic!("expected Tampered, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Archives a 2-shard campaign checkpointed through a session and
/// returns the run ID and its directory.
fn checkpointed_archive(store: &Store, dir: &std::path::Path, seed: u64) -> (RunId, PathBuf) {
    let plan = plan_of(seed);
    let session = store.session(&plan, TARGET, Some(seed), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let data =
        Campaign::new(&plan, target).shards(2).seed(seed).store(&session).run().unwrap().data;
    let id = store.put_run(&key_of(&plan, seed, 2), "bench", "", &data, None).unwrap();
    let run = dir.join("runs").join(id.as_str());
    (id, run)
}

/// Overwrites the byte at the middle of `path` with `0xFF`, which no
/// UTF-8 text contains.
fn write_ff_at_middle(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let pos = bytes.len() / 2;
    bytes[pos] = 0xFF;
    std::fs::write(path, &bytes).unwrap();
}

fn segment_of(dir: &std::path::Path, session: &CheckpointSession, b: usize, n: usize) -> PathBuf {
    dir.join("runs")
        .join(session.run_id().as_str())
        .join("checkpoints")
        .join(format!("shard-{b}-of-{n}.csv"))
}

fn tampered_artifact(store: &Store, id: &RunId) -> String {
    match store.get(id) {
        Err(StoreError::Tampered { artifact, .. }) => artifact,
        other => panic!("expected Tampered, got {other:?}"),
    }
}

#[test]
fn a_byte_that_breaks_utf8_is_tampering_not_io() {
    let dir = scratch("utf8");
    let store = Store::open(&dir).unwrap();
    let (id, run) = checkpointed_archive(&store, &dir, 29);
    write_ff_at_middle(&run.join("records.csv"));
    assert_eq!(tampered_artifact(&store, &id), "records.csv");

    // An interrupted run has no manifest: the digest stamped into the
    // segment is what catches the byte, before anything is decoded.
    let plan = plan_of(31);
    let session = store.session(&plan, TARGET, Some(31), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(31));
    Campaign::new(&plan, target).shards(2).seed(31).store(&session).run().unwrap();
    let nbatches = batches_of(&plan, 2);
    let segment = segment_of(&dir, &session, 0, nbatches);
    let mut bytes = std::fs::read(&segment).unwrap();
    let in_last_row = bytes.len() - 2;
    bytes[in_last_row] = 0xFF;
    std::fs::write(&segment, &bytes).unwrap();
    let err = session.load_shard(0, nbatches).unwrap_err();
    assert!(err.0.contains("digest"), "{}", err.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn get_reports_tampering_before_parse_errors_and_missing_records() {
    let dir = scratch("order");
    let store = Store::open(&dir).unwrap();

    // Tampered *and* unparseable: the digest check wins over the parse.
    let plan = plan_of(37);
    let data = run_campaign(&plan, 37, 2);
    let id = store.put_run(&key_of(&plan, 37, 2), "bench", "", &data, None).unwrap();
    let records = dir.join("runs").join(id.as_str()).join("records.csv");
    std::fs::write(&records, "no,header\nat,all\n").unwrap();
    assert_eq!(tampered_artifact(&store, &id), "records.csv");

    // A manifest that lists no records.csv is still corrupt.
    let plan = plan_of(41);
    let data = run_campaign(&plan, 41, 2);
    let id = store.put_run(&key_of(&plan, 41, 2), "bench", "", &data, None).unwrap();
    let manifest_path = dir.join("runs").join(id.as_str()).join("manifest.json");
    let mut manifest = store.manifest(&id).unwrap();
    manifest.artifacts.retain(|a| a.name != "records.csv");
    std::fs::write(&manifest_path, manifest.to_json()).unwrap();
    match store.get(&id) {
        Err(StoreError::Corrupt { message, .. }) => assert!(message.contains("records.csv")),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // A tampered report is still Tampered, even with valid records.
    let plan = plan_of(43);
    let target = NetworkTarget::new("m", presets::myrinet_gm(43));
    let run = Campaign::new(&plan, target).seed(43).observer(Observer::default()).run().unwrap();
    let report = run.report.expect("observer attached");
    let id = store.put_run(&key_of(&plan, 43, 1), "bench", "", &run.data, Some(&report)).unwrap();
    let report_path = dir.join("runs").join(id.as_str()).join("report.jsonl");
    let mut bytes = std::fs::read(&report_path).unwrap();
    let pos = bytes.len() / 2;
    bytes[pos] ^= 0x01; // still ASCII, so only the digest can object
    std::fs::write(&report_path, &bytes).unwrap();
    assert_eq!(tampered_artifact(&store, &id), "report.jsonl");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edited_manifest_triple_is_a_collision_not_a_merge() {
    let dir = scratch("collision");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(17);
    let data = run_campaign(&plan, 17, 2);
    let id = store.put_run(&key_of(&plan, 17, 2), "bench", "", &data, None).unwrap();
    // Simulate a truncated-ID collision: the stored manifest describes a
    // different campaign than the one arriving at this run ID.
    let manifest_path = dir.join("runs").join(id.as_str()).join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    std::fs::write(&manifest_path, text.replace("\"seed\": \"17\"", "\"seed\": \"99\"")).unwrap();
    match store.put_run(&key_of(&plan, 17, 2), "bench", "", &data, None) {
        Err(StoreError::Collision { .. }) => {}
        other => panic!("expected Collision, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_run_id_is_not_found() {
    let dir = scratch("missing");
    let store = Store::open(&dir).unwrap();
    let id = RunId::parse("00000000000000000000000000000000").unwrap();
    assert!(matches!(store.get(&id), Err(StoreError::NotFound { .. })));
    assert!(RunId::parse("not-a-run-id").is_err());
    assert!(RunId::parse("ABCDEF00000000000000000000000000").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_through_real_store_resumes_bit_identical() {
    let dir = scratch("resume");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(23);
    let fresh = run_campaign(&plan, 23, 3);

    // Archive a checkpointed run, then kill one shard's segment as if
    // the campaign had died before finishing it.
    let session = store.session(&plan, TARGET, Some(23), 3).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(23));
    Campaign::new(&plan, target).shards(3).seed(23).store(&session).run().unwrap();
    let segment = dir
        .join("runs")
        .join(session.run_id().as_str())
        .join("checkpoints")
        .join(format!("shard-1-of-{}.csv", batches_of(&plan, 3)));
    assert!(segment.is_file(), "campaign flushed batch segments");
    std::fs::remove_file(&segment).unwrap();

    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(23));
    let resumed =
        Campaign::new(&plan, target).shards(3).seed(23).store(&session).run().unwrap().data;
    // Byte-identical CSVs: the strongest form of "same campaign".
    assert_eq!(fresh.to_csv(), resumed.to_csv());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_purges_spent_checkpoints_but_keeps_resumable_runs() {
    let dir = scratch("gc");
    let store = Store::open(&dir).unwrap();

    // Finalized run with checkpoints: put_run deletes the spent segments.
    let plan = plan_of(29);
    let session = store.session(&plan, TARGET, Some(29), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(29));
    let data = Campaign::new(&plan, target).shards(2).seed(29).store(&session).run().unwrap().data;
    let finalized = store.put_run(&key_of(&plan, 29, 2), "bench", "", &data, None).unwrap();
    assert!(!dir.join("runs").join(finalized.as_str()).join("checkpoints").exists());

    // Interrupted run: checkpoints only, no manifest — must survive gc.
    let plan2 = plan_of(31);
    let session2 = store.session(&plan2, TARGET, Some(31), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(31));
    Campaign::new(&plan2, target).shards(2).seed(31).store(&session2).run().unwrap();
    let interrupted_dir = dir.join("runs").join(session2.run_id().as_str());

    let report = store.gc().unwrap();
    assert_eq!(report.removed_segments, 0, "the finalized run has none left to remove");
    assert_eq!(report.reclaimed_bytes, 0);
    assert!(
        interrupted_dir
            .join("checkpoints")
            .join(format!("shard-0-of-{}.csv", batches_of(&plan2, 2)))
            .is_file(),
        "interrupted run keeps its only copy of the work"
    );
    // The finalized run still loads and verifies cleanly after the purge.
    let back = store.get(&finalized).unwrap();
    assert_eq!(back.data, data);
    assert!(back.manifest.artifacts.iter().all(|a| !a.name.starts_with("checkpoints/")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_session_still_running_when_its_campaign_is_finalized_archives_as_a_dedupe() {
    let dir = scratch("race");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(61);
    let run = |session: &CheckpointSession| {
        let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(61));
        Campaign::new(&plan, target).shards(2).seed(61).store(session).run().unwrap().data
    };
    // Two jobs of one campaign open their sessions; A finishes first.
    let a = store.session(&plan, TARGET, Some(61), 2).unwrap();
    let b = store.session(&plan, TARGET, Some(61), 2).unwrap();
    let data = run(&a);
    let id = store.put_run(&key_of(&plan, 61, 2), "bench", "", &data, None).unwrap();
    let run_dir = dir.join("runs").join(id.as_str());
    assert!(!run_dir.join("checkpoints").exists(), "put_run deleted the spent trail");

    // B saves its segments after A's finalize, then archives the same
    // bytes: a verified dedupe onto A's run.
    let again = run(&b);
    assert!(b.has_segments(), "B's saves recreated checkpoints/");
    assert_eq!(store.put_run(&key_of(&plan, 61, 2), "bench", "", &again, None).unwrap(), id);

    // gc takes B's strays and leaves the manifest as it was written.
    let manifest = std::fs::read(run_dir.join("manifest.json")).unwrap();
    let report = store.gc().unwrap();
    assert_eq!(report.removed_segments, batches_of(&plan, 2));
    assert!(!run_dir.join("checkpoints").exists());
    assert_eq!(std::fs::read(run_dir.join("manifest.json")).unwrap(), manifest);
    assert_eq!(store.get(&id).unwrap().data, data);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_never_rewrites_a_manifest_that_pins_segments() {
    let dir = scratch("legacy");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(67);
    let session = store.session(&plan, TARGET, Some(67), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(67));
    let data = Campaign::new(&plan, target).shards(2).seed(67).store(&session).run().unwrap().data;
    let nbatches = batches_of(&plan, 2);
    let segments: Vec<(String, Vec<u8>)> = (0..nbatches)
        .map(|b| {
            let path = segment_of(&dir, &session, b, nbatches);
            (format!("checkpoints/shard-{b}-of-{nbatches}.csv"), std::fs::read(path).unwrap())
        })
        .collect();
    let id = store.put_run(&key_of(&plan, 67, 2), "bench", "", &data, None).unwrap();

    // An older store version's layout: the segments stayed and the
    // manifest lists the first of them beside records.csv.
    let run_dir = dir.join("runs").join(id.as_str());
    std::fs::create_dir_all(run_dir.join("checkpoints")).unwrap();
    for (name, bytes) in &segments {
        std::fs::write(run_dir.join(name), bytes).unwrap();
    }
    let mut manifest = store.manifest(&id).unwrap();
    let (name, bytes) = &segments[0];
    manifest.artifacts.push(charm_store::Artifact {
        name: name.clone(),
        bytes: bytes.len() as u64,
        sha256: charm_store::digest::sha256_hex(bytes),
    });
    manifest.artifacts.sort_by(|a, b| a.name.cmp(&b.name));
    let legacy = manifest.to_json();
    std::fs::write(run_dir.join("manifest.json"), &legacy).unwrap();

    let report = store.gc().unwrap();
    assert_eq!(report.removed_segments, nbatches - 1, "only the segments it does not list");
    assert_eq!(std::fs::read_to_string(run_dir.join("manifest.json")).unwrap(), legacy);
    assert!(run_dir.join(name).is_file());
    let back = store.get(&id).unwrap();
    assert_eq!(back.data, data);
    assert!(back.manifest.artifact(name).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_plan_different_platform_lands_on_different_runs() {
    let dir = scratch("targets");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(41);

    // Same plan, seed and shard count against two platforms: two
    // different campaigns, two different run directories.
    let taurus = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(41));
    let myrinet = NetworkTarget::new("myrinet", presets::myrinet_gm(41));
    let id_taurus = charm_store::target_identity(&taurus);
    let id_myrinet = charm_store::target_identity(&myrinet);
    assert_ne!(id_taurus, id_myrinet);

    let data_taurus = Campaign::new(&plan, taurus).shards(2).seed(41).run().unwrap().data;
    let data_myrinet = Campaign::new(&plan, myrinet).shards(2).seed(41).run().unwrap().data;
    let a = store
        .put_run(
            &charm_store::CampaignKey::of(&plan, &id_taurus, Some(41), 2),
            "bench",
            "",
            &data_taurus,
            None,
        )
        .unwrap();
    let b = store
        .put_run(
            &charm_store::CampaignKey::of(&plan, &id_myrinet, Some(41), 2),
            "bench",
            "",
            &data_myrinet,
            None,
        )
        .unwrap();
    assert_ne!(a, b, "target identity must separate run IDs");
    assert_eq!(store.list().unwrap().len(), 2);
    assert_eq!(store.get(&a).unwrap().data, data_taurus);
    assert_eq!(store.get(&b).unwrap().data, data_myrinet);
    assert_eq!(store.get(&a).unwrap().manifest.target, id_taurus);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedupe_never_discards_drifted_records() {
    let dir = scratch("drifted");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(43);
    let data = run_campaign(&plan, 43, 2);
    let id = store.put_run(&key_of(&plan, 43, 2), "bench", "", &data, None).unwrap();

    // Same key, different record bytes (as an engine change would
    // produce): must surface as a collision, not return Ok while the
    // new data is silently thrown away.
    let target = NetworkTarget::new("m", presets::myrinet_gm(43));
    let drifted = Campaign::new(&plan, target).shards(2).seed(43).run().unwrap().data;
    assert_ne!(data.to_csv(), drifted.to_csv());
    match store.put_run(&key_of(&plan, 43, 2), "bench", "", &drifted, None) {
        Err(StoreError::Collision { stored, incoming, .. }) => {
            assert!(stored.contains("records sha256"), "{stored}");
            assert_ne!(stored, incoming);
        }
        other => panic!("expected Collision, got {other:?}"),
    }
    // The archive still holds the original bytes, unmodified.
    assert_eq!(store.get(&id).unwrap().data, data);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_platform_segment_is_rejected_on_resume() {
    let dir = scratch("foreign");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(47);

    // Checkpoint a run under target identity A.
    let session_a = store.session(&plan, "taurus#aaaaaaaaaaaa", Some(47), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(47));
    Campaign::new(&plan, target).shards(2).seed(47).store(&session_a).run().unwrap();

    // Hand-move its segments into the directory a different platform's
    // campaign addresses (what a truncated-ID collision would look
    // like), then try to resume as that other platform.
    let session_b = store.session(&plan, "myrinet#bbbbbbbbbbbb", Some(47), 2).unwrap();
    let runs = dir.join("runs");
    let nbatches = batches_of(&plan, 2);
    for batch in 0..nbatches {
        let name = format!("shard-{batch}-of-{nbatches}.csv");
        std::fs::copy(
            runs.join(session_a.run_id().as_str()).join("checkpoints").join(&name),
            runs.join(session_b.run_id().as_str()).join("checkpoints").join(&name),
        )
        .unwrap();
    }
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(47));
    let err = Campaign::new(&plan, target).shards(2).seed(47).store(&session_b).run().unwrap_err();
    assert!(err.to_string().contains("different target"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_segment_value_is_rejected_on_resume() {
    let dir = scratch("segtamper");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(53);
    let session = store.session(&plan, TARGET, Some(53), 2).unwrap();
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(53));
    Campaign::new(&plan, target).shards(2).seed(53).store(&session).run().unwrap();

    // Hand-edit one measured value in a segment: still a parseable CSV,
    // but the records no longer match the digest stamped at save time.
    let segment = dir
        .join("runs")
        .join(session.run_id().as_str())
        .join("checkpoints")
        .join(format!("shard-0-of-{}.csv", batches_of(&plan, 2)));
    let text = std::fs::read_to_string(&segment).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.last_mut().unwrap();
    let flipped = if last.ends_with('1') { "2" } else { "1" };
    last.replace_range(last.len() - 1.., flipped);
    std::fs::write(&segment, lines.join("\n") + "\n").unwrap();

    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(53));
    let err = Campaign::new(&plan, target).shards(2).seed(53).store(&session).run().unwrap_err();
    assert!(err.to_string().contains("digest"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_keeps_in_flight_sessions_and_removes_true_debris() {
    let dir = scratch("debris");
    let store = Store::open(&dir).unwrap();

    // An in-flight session: checkpoints/ exists but no shard has
    // finished yet. A concurrent gc must not delete it — the session
    // will write here the moment its first shard lands.
    let plan = plan_of(59);
    let session = store.session(&plan, TARGET, Some(59), 2).unwrap();
    let live = dir.join("runs").join(session.run_id().as_str());
    assert!(live.join("checkpoints").is_dir());

    // True debris: a run directory with neither manifest nor
    // checkpoints/ (e.g. a crash before the session dir was set up).
    let debris = dir.join("runs").join("00000000000000000000000000000001");
    std::fs::create_dir_all(&debris).unwrap();

    let report = store.gc().unwrap();
    assert_eq!(report.removed_dirs, 1, "only the debris directory");
    assert!(!debris.exists());
    assert!(live.join("checkpoints").is_dir(), "live session survived gc");

    // The session still works after gc: the campaign can checkpoint
    // and resume through it.
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(59));
    Campaign::new(&plan, target).shards(2).seed(59).store(&session).run().unwrap();
    assert!(live
        .join("checkpoints")
        .join(format!("shard-0-of-{}.csv", batches_of(&plan, 2)))
        .is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// Sink wrapper that fires a `CancelToken` once the wrapped session has
/// saved `after` segments — a deterministic "operator cancelled the job
/// mid-campaign" for the tests below.
struct CancelAfter<'s> {
    inner: &'s charm_store::CheckpointSession,
    token: charm_engine::CancelToken,
    after: usize,
    saves: AtomicUsize,
}

impl charm_engine::CheckpointSink for CancelAfter<'_> {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &charm_engine::ShardCheckpoint,
    ) -> Result<(), charm_engine::CheckpointError> {
        self.inner.save_shard(shard, shards, checkpoint)?;
        if self.saves.fetch_add(1, Ordering::SeqCst) + 1 >= self.after {
            self.token.cancel();
        }
        Ok(())
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<charm_engine::ShardCheckpoint>, charm_engine::CheckpointError> {
        self.inner.load_shard(shard, shards)
    }
}

#[test]
fn cancelled_campaign_leaves_segments_but_no_manifest_and_resumes() {
    let dir = scratch("cancel");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(43);
    let fresh = run_campaign(&plan, 43, 4);

    let session = store.session(&plan, TARGET, Some(43), 4).unwrap();
    assert!(!session.has_segments(), "fresh session starts with no segments");
    let token = charm_engine::CancelToken::new();
    let cancelling =
        CancelAfter { inner: &session, token: token.clone(), after: 1, saves: AtomicUsize::new(0) };
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(43));
    let err = Campaign::new(&plan, target)
        .shards(4)
        .seed(43)
        .store(&cancelling)
        .cancel_token(token)
        .run()
        .unwrap_err();
    assert!(matches!(err, charm_engine::TargetError::Cancelled), "got {err}");

    // The run directory holds only whole, resumable checkpoint segments
    // — no manifest, no records.csv: the store never saw a "finished"
    // campaign.
    let run_dir = dir.join("runs").join(session.run_id().as_str());
    assert!(!run_dir.join("manifest.json").exists(), "cancelled run must not be finalized");
    assert!(!run_dir.join("records.csv").exists());
    assert!(session.has_segments(), "the paid-for batches were retained");
    let segments = std::fs::read_dir(run_dir.join("checkpoints"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .count();
    // Cancellation stopped the claim loop, so a strict subset of the
    // batch geometry ran (trigger + at most one in-flight batch per
    // worker).
    assert!((1..=5).contains(&segments), "expected a strict subset, got {segments} segments");

    // A restarted service resumes off those segments and archives a
    // campaign byte-identical to an uninterrupted run.
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(43));
    let resumed =
        Campaign::new(&plan, target).shards(4).seed(43).store(&session).run().unwrap().data;
    assert_eq!(fresh.to_csv(), resumed.to_csv());
    let id = store.put_run(&key_of(&plan, 43, 4), "bench", "", &resumed, None).unwrap();
    assert_eq!(&id, session.run_id());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn select_filters_by_host_class() {
    let dir = scratch("hostq");
    let store = Store::open(&dir).unwrap();
    let plan = plan_of(47);
    let data = run_campaign(&plan, 47, 2);
    store.put_run(&key_of(&plan, 47, 2), "bench", "", &data, None).unwrap();

    // Every run archived by this process carries this machine's facts.
    let here = charm_store::manifest::MachineFacts::current().host_class();
    let query = charm_store::RunQuery { host: Some(here.clone()), ..Default::default() };
    assert_eq!(store.select(&query).unwrap().len(), 1);
    assert_eq!(store.select(&charm_store::RunQuery::default().on_current_host()).unwrap().len(), 1);
    let elsewhere = charm_store::RunQuery { host: Some("plan9/512c".into()), ..Default::default() };
    assert!(store.select(&elsewhere).unwrap().is_empty());
    // Host filters compose with the other fields.
    let both = charm_store::RunQuery {
        host: Some(here),
        benchmark: Some("bench".into()),
        ..Default::default()
    };
    assert_eq!(store.select(&both).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

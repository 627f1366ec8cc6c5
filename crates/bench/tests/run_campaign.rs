//! `run_campaign` end to end: a DSL plan and its spec twin are one
//! campaign, rerunning an interrupted stored campaign resumes it,
//! platform names resolve to the targets they always did, and bad
//! platforms are usage errors.

mod common;

use charm_design::ExperimentPlan;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_engine::target::{MemoryTarget, NetworkTarget, Target};
use charm_engine::Campaign;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;
use charm_store::target_identity;
use common::Scratch;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// CI's store-smoke plan, verbatim.
const SMOKE_PLAN: &str = "factor op in [ping_pong, async_send]
factor size loguniform 64..65536 count 12 seed 7
replicates 4
order randomized 42
";

fn run_campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_campaign")).args(args).output().unwrap()
}

fn archived_id(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run_campaign failed: {stdout}\n{stderr}");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("archived run "))
        .unwrap_or_else(|| panic!("no archived run in {stdout}"))
        .to_string()
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn a_dsl_plan_and_its_spec_twin_archive_as_one_run() {
    let dir = Scratch::new("twin");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/campaign_smoke.toml");
    let store = dir.join("store");
    let flags = ["--seed", "5", "--shards", "3"];
    let (out_dsl, out_spec) = (dir.join("dsl"), dir.join("spec"));

    let mut args = vec![plan.as_str(), "taurus", "--store", path(&store), "--out", path(&out_dsl)];
    args.extend(flags);
    let dsl_id = archived_id(&run_campaign(&args));
    let mut args = vec!["--benchmark", spec, "--store", path(&store), "--out", path(&out_spec)];
    args.extend(flags);
    // The second archive of the same run ID succeeds: same bytes.
    let spec_id = archived_id(&run_campaign(&args));
    assert_eq!(dsl_id, spec_id);

    let read = |p: PathBuf| std::fs::read_to_string(p).unwrap();
    let records = read(store.join("runs").join(&dsl_id).join("records.csv"));
    assert_eq!(read(out_dsl.join("campaign_taurus.csv")), records);
    assert_eq!(read(out_spec.join("campaign_taurus.csv")), records);
    let header: Vec<&str> = records.lines().take_while(|l| l.starts_with('#')).collect();
    assert!(header.contains(&"# order: randomized"), "{header:?}");
    assert!(header.contains(&"# shuffle_seed: 42"), "{header:?}");
}

#[test]
fn an_unwritable_csv_exits_3_before_archiving() {
    let dir = Scratch::new("unwritable");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let file = dir.write("occupied", "");
    let store = dir.join("store");
    let out = run_campaign(&[&plan, "taurus", "--store", path(&store), "--out", &file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains(&format!("cannot write {file}: ")) && !stderr.contains("panicked"));
    // The shard checkpoints stay for a rerun to replay; no run is
    // archived.
    let archived = charm_store::Store::open(&store).unwrap().list().unwrap();
    assert!(archived.is_empty(), "{archived:?}");
}

/// The checkpoint segments of the single interrupted run in `store`:
/// the smoke plan on 3 shards, archived into an unwritable `--out` so
/// it exits after every batch checkpointed and before the archive.
fn interrupted_run(dir: &Scratch, plan: &str, store: &Path) -> Vec<PathBuf> {
    let file = dir.write("occupied", "");
    let out =
        run_campaign(&[plan, "taurus", "--shards", "3", "--store", path(store), "--out", &file]);
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let runs: Vec<_> =
        std::fs::read_dir(store.join("runs")).unwrap().map(|e| e.unwrap().path()).collect();
    let [run] = runs.as_slice() else { panic!("one run directory, got {runs:?}") };
    let mut segments: Vec<PathBuf> =
        std::fs::read_dir(run.join("checkpoints")).unwrap().map(|e| e.unwrap().path()).collect();
    segments.sort();
    assert_eq!(segments.len(), 15, "the smoke geometry checkpoints 15 batches");
    segments
}

#[test]
fn rerunning_an_interrupted_stored_campaign_resumes_it() {
    let dir = Scratch::new("rerun");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let store = dir.join("store");
    // Interrupt the campaign with some batches never stored.
    let segments = interrupted_run(&dir, &plan, &store);
    for segment in segments.iter().step_by(2) {
        std::fs::remove_file(segment).unwrap();
    }
    let kept = segments.len() / 2;

    let reference = dir.join("reference");
    let fresh = run_campaign(&[&plan, "taurus", "--shards", "3", "--out", path(&reference)]);
    assert!(fresh.status.success());
    let stored = |out: &Path| {
        run_campaign(&[
            &plan,
            "taurus",
            "--shards",
            "3",
            "--store",
            path(&store),
            "--out",
            path(out),
        ])
    };
    let rerun_out = dir.join("rerun");
    let rerun = stored(&rerun_out);
    let id = archived_id(&rerun);
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(stdout.contains(&format!("replayed {kept} of 15 batches")), "{stdout}");
    assert!(kept >= 1);

    // Same bytes as a campaign that was never stored or interrupted,
    // in the CSV and in the archive.
    let read = |p: PathBuf| std::fs::read(p).unwrap();
    let expected = read(reference.join("campaign_taurus.csv"));
    assert!(read(rerun_out.join("campaign_taurus.csv")) == expected);
    assert!(read(store.join("runs").join(&id).join("records.csv")) == expected);
    // A finalized run keeps no segments: the next rerun replays none
    // and lands on the same archive.
    let again = stored(&dir.join("again"));
    assert_eq!(archived_id(&again), id);
    assert!(String::from_utf8_lossy(&again.stdout).contains("replayed 0 of 15 batches"));
}

#[test]
fn a_tampered_segment_fails_the_rerun_naming_its_path() {
    let dir = Scratch::new("tamper");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let store = dir.join("store");
    let segments = interrupted_run(&dir, &plan, &store);
    // Flip one digit of the last record of one segment.
    let victim = &segments[4];
    let mut bytes = std::fs::read(victim).unwrap();
    let digit = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
    bytes[digit] = if bytes[digit] == b'7' { b'8' } else { b'7' };
    std::fs::write(victim, &bytes).unwrap();

    let out = dir.join("out");
    let rerun = run_campaign(&[
        &plan,
        "taurus",
        "--shards",
        "3",
        "--store",
        path(&store),
        "--out",
        path(&out),
    ]);
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert_eq!(rerun.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains(path(victim)) && stderr.contains("digest"), "{stderr}");
    // Fail closed: the segment was neither re-measured nor overwritten,
    // and nothing was written or archived.
    assert!(std::fs::read(victim).unwrap() == bytes);
    assert!(!out.exists());
    let archived = charm_store::Store::open(&store).unwrap().list().unwrap();
    assert!(archived.is_empty(), "{archived:?}");
}

#[test]
fn resume_is_not_a_flag() {
    // Resuming is rerunning the same command; no flag asks for it, so
    // the old resume flag is unknown: usage, exit 2, nothing run.
    let dir = Scratch::new("noflag");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let (store, out) = (dir.join("store"), dir.join("out"));
    let flag = concat!("--", "resume");
    let id = "0123456789abcdef0123456789abcdef";
    let result =
        run_campaign(&[&plan, "taurus", "--store", path(&store), flag, id, "--out", path(&out)]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    assert!(!out.exists() && !store.exists(), "{stderr}");
}

#[test]
fn the_requested_shards_are_the_shards_that_ran() {
    // CI's store smoke geometry: 96 rows on 3 workers carve 15 batches,
    // and the run ID that names the archive hashes that same count.
    let dir = Scratch::new("shards");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let (store, out) = (dir.join("store"), dir.join("out"));
    let args =
        [plan.as_str(), "taurus", "--shards", "3", "--store", path(&store), "--out", path(&out)];
    let id = archived_id(&run_campaign(&args));

    let read =
        |name: &str| std::fs::read_to_string(store.join("runs").join(&id).join(name)).unwrap();
    let manifest = charm_store::Manifest::from_json(&read("manifest.json")).unwrap();
    let records = read("records.csv");
    let header: Vec<&str> = records.lines().take_while(|l| l.starts_with('#')).collect();
    assert_eq!(manifest.shards, 3);
    assert!(header.contains(&"# shards: 3"), "{header:?}");
    assert!(header.contains(&"# batches: 15"), "{header:?}");
    // The same command is the same campaign: same ID, same bytes.
    assert_eq!(archived_id(&run_campaign(&args)), id);
}

#[test]
fn the_environment_sets_neither_the_seed_nor_the_output_directory() {
    // Only `--seed` and `--out` set either: CHARM_SEED and
    // CHARM_RESULTS_DIR in the environment move no byte and no path.
    let dir = Scratch::new("env");
    let plan = dir.write("smoke_plan.dsl", SMOKE_PLAN);
    let (store, elsewhere) = (dir.join("store"), dir.join("elsewhere"));
    let run = |extra: &[&str], env: &[(&str, &str)]| {
        let output = Command::new(env!("CARGO_BIN_EXE_run_campaign"))
            .args([plan.as_str(), "taurus", "--store", path(&store)])
            .args(extra)
            .envs(env.iter().copied())
            .current_dir(&dir.0)
            .output()
            .unwrap();
        archived_id(&output)
    };
    let knobs = [("CHARM_SEED", "5"), ("CHARM_RESULTS_DIR", path(&elsewhere))];
    let clean = run(&["--out", path(&dir.join("clean"))], &[]);
    assert_eq!(run(&["--out", path(&dir.join("knobs"))], &knobs), clean);
    // Without --out the CSV goes to results/ at the workspace root; a
    // temp directory has none above it, so results/ lands beside it.
    assert_eq!(run(&[], &knobs), clean);
    for out in ["clean", "knobs", "results"] {
        assert!(dir.join(out).join("campaign_taurus.csv").is_file(), "nothing in {out}");
    }
    assert!(!elsewhere.exists(), "wrote under CHARM_RESULTS_DIR");
    // The clean run archived the manifest: its environment is the
    // caller's, with no variable the CLI set itself.
    let json = std::fs::read_to_string(store.join("runs").join(&clean).join("manifest.json"));
    let manifest = charm_store::Manifest::from_json(&json.unwrap()).unwrap();
    assert!(manifest.machine.unwrap().env.keys().all(|k| k != "CHARM_RESULTS_DIR"));
}

#[test]
fn bad_platforms_and_usage_exit_2() {
    let dir = Scratch::new("usage");
    let plan = dir.write("plan.dsl", SMOKE_PLAN);
    // 65536^4 = 2^64 rows: one more than usize holds on 64-bit hosts
    let huge = ["a", "b", "c", "d"].map(|f| format!("factor {f} from 1 to 65536 step 1\n"));
    let huge = dir.write("huge.dsl", &huge.concat());
    let out = dir.join("out");
    for args in [
        vec![plan.as_str(), "plan9", "--out", path(&out)],
        vec![plan.as_str(), "--out", path(&out)],
        vec![path(&dir.join("missing.dsl")), "taurus", "--out", path(&out)],
        vec![huge.as_str(), "taurus", "--out", path(&out)],
    ] {
        let result = run_campaign(&args);
        assert_eq!(result.status.code(), Some(2), "{args:?}");
    }
    let stderr = String::from_utf8(run_campaign(&[&plan, "plan9"]).stderr).unwrap();
    assert!(stderr.contains("\"plan9\""), "{stderr}");
    let stderr = String::from_utf8(run_campaign(&[&plan]).stderr).unwrap();
    assert!(
        stderr.contains("platforms: taurus myrinet openmpi opteron pentium4 i7 arm"),
        "{stderr}"
    );
}

#[test]
fn a_buffer_larger_than_the_page_pool_exits_3_naming_size_bytes() {
    let dir = Scratch::new("over_pool");
    // the arm pool is 2 MiB
    let plan = dir.write("over.dsl", "factor size_bytes in [4194304]\nreplicates 6\n");
    let out = dir.join("out");
    let result = run_campaign(&[&plan, "arm", "--shards", "4", "--out", path(&out)]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("\"size_bytes\"") && stderr.contains("page pool"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_spec_level_a_csv_row_cannot_carry_exits_2_before_measuring() {
    let dir = Scratch::new("csv_level");
    let spec = dir.write(
        "tag.toml",
        "[benchmark]\nname = \"tag\"\n\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
         [factors.op]\nlevels = [\"ping_pong\"]\n\n[factors.tag]\nlevels = [\"a,b\", \"c\"]\n\n\
         [factors.size]\nlevels = [128, 1024]\n",
    );
    let (store, out) = (dir.join("store"), dir.join("out"));
    let result =
        run_campaign(&["--benchmark", &spec, "--store", path(&store), "--out", path(&out)]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(r#"[factors.tag] level "a,b" contains ','"#), "{stderr}");
    // Nothing was measured, written or archived.
    assert!(!out.exists() && !store.join("runs").exists(), "{stderr}");
}

#[test]
fn more_unique_sizes_than_the_range_holds_exit_2_naming_the_factor() {
    let dir = Scratch::new("unique_count");
    let spec = dir.write(
        "sizes.toml",
        "[benchmark]\nname = \"sizes\"\n\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
         [factors.op]\nlevels = [\"ping_pong\"]\n\n[factors.size]\ngenerator = \"loguniform_unique\"\n\
         min = 8\nmax = 16\ncount = 100\nseed = 1\n",
    );
    let out = dir.join("out");
    let result = run_campaign(&["--benchmark", &spec, "--out", path(&out)]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("[factors.size]") && !stderr.contains("panicked"), "{stderr}");
    assert!(!out.exists(), "{stderr}");
}

#[test]
fn external_engines_refuse_shards() {
    let dir = Scratch::new("external");
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/external_smoke.toml");
    let out = dir.join("out");
    // The refusal comes before the engine is spawned, so the demo
    // engine need not be built.
    let sharded = run_campaign(&["--benchmark", spec, "--shards", "2", "--out", path(&out)]);
    assert_eq!(sharded.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&sharded.stderr);
    assert!(stderr.contains("sequential-only"), "{stderr}");
}

/// A target's store identity and the CSV of a short campaign on it:
/// what a run ID and an archive pin. The identity leaves out the
/// memory policies; the measured values do not.
fn fingerprint<T: Target>(plan: &ExperimentPlan, target: T) -> (String, String) {
    let identity = target_identity(&target);
    (identity, Campaign::new(plan, target).run().unwrap().data.to_csv())
}

fn plan_for(platform: &str) -> ExperimentPlan {
    let text = if registry::network_presets().contains(&platform) {
        "factor op in [ping_pong, async_send]\nfactor size in [64, 70000]\nreplicates 2\n"
    } else {
        "factor size_bytes in [4096, 262144]\nreplicates 2\n"
    };
    charm_design::dsl::compile(text).unwrap()
}

/// `run_campaign`'s DSL-mode target construction before it resolved
/// platforms through the registry, kept verbatim as the oracle: its
/// target identities are folded into every run ID archived so far.
fn hand_built(platform_name: &str, seed: u64) -> Option<(String, String)> {
    fn machine(spec: CpuSpec, seed: u64) -> MachineSim {
        MachineSim::new(
            spec,
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        )
    }
    let plan = plan_for(platform_name);
    let net = |name: &'static str, sim| fingerprint(&plan, NetworkTarget::new(name, sim));
    let mem =
        |name: &str, spec, seed| fingerprint(&plan, MemoryTarget::new(name, machine(spec, seed)));
    Some(match platform_name {
        "taurus" => net("taurus", presets::taurus_openmpi_tcp(seed)),
        "myrinet" => net("myrinet", presets::myrinet_gm(seed)),
        "openmpi" => net("openmpi", presets::openmpi_fig3(seed)),
        "opteron" => mem("opteron", CpuSpec::opteron(), seed),
        "pentium4" => mem("pentium4", CpuSpec::pentium4(), seed),
        "i7" => mem("i7", CpuSpec::core_i7_2600(), seed),
        "arm" => mem("arm", CpuSpec::arm_snowball(), seed),
        _ => return None,
    })
}

#[test]
fn platform_specs_keep_the_hand_built_targets() {
    let names = [registry::network_presets(), registry::memory_cpus()].concat();
    assert_eq!(names, ["taurus", "myrinet", "openmpi", "opteron", "pentium4", "i7", "arm"]);
    for seed in [0, 5, 20_170_529] {
        for &name in &names {
            let spec = TargetSpec::platform(name).unwrap();
            let plan = plan_for(name);
            let lowered = match registry::resolve(&spec, seed).unwrap() {
                ResolvedTarget::Network(t) => fingerprint(&plan, *t),
                ResolvedTarget::Memory(t) => fingerprint(&plan, *t),
                other => panic!("{name} resolved to {other:?}"),
            };
            assert_eq!(Some(lowered), hand_built(name, seed), "{name} at seed {seed}");
        }
    }
}

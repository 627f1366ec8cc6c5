//! `run_campaign` end to end: a DSL plan and its spec twin are one
//! campaign, platform names resolve to the targets they always did, and
//! bad platforms are usage errors.

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
    Command::new(env!("CARGO_BIN_EXE_run_campaign"))
        .args(args)
        .env_remove("CHARM_SEED")
        .env_remove("CHARM_SHARDS")
        .env_remove("CHARM_RESULTS_DIR")
        .output()
        .unwrap()
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
    let flags = ["--seed", "5", "--shards", "3", "--min-rows-per-shard", "1"];
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
fn bad_platforms_and_usage_exit_2() {
    let dir = Scratch::new("usage");
    let plan = dir.write("plan.dsl", SMOKE_PLAN);
    let out = dir.join("out");
    for args in [
        vec![plan.as_str(), "plan9", "--out", path(&out)],
        vec![plan.as_str(), "--out", path(&out)],
        vec![path(&dir.join("missing.dsl")), "taurus", "--out", path(&out)],
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
fn external_engines_refuse_shards_and_resume() {
    let dir = Scratch::new("external");
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/external_smoke.toml");
    let out = dir.join("out");
    // Both refusals come before the engine is spawned, so the demo
    // engine need not be built.
    let sharded = run_campaign(&["--benchmark", spec, "--shards", "2", "--out", path(&out)]);
    assert_eq!(sharded.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&sharded.stderr);
    assert!(stderr.contains("sequential-only"), "{stderr}");
    let resumed = run_campaign(&["--benchmark", spec, "--resume", "0123", "--out", path(&out)]);
    assert_eq!(resumed.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("--resume does not apply"), "{stderr}");
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

//! Run a campaign and write the raw campaign CSV — from a declarative
//! benchmark spec (`--benchmark`), or from the legacy experiment DSL.
//!
//! ```text
//! run_campaign --benchmark SPEC.toml [--param NAME=VALUE]... [flags]
//! run_campaign <plan.dsl> <platform> [flags]
//!
//! flags: [--seed N] [--shards N] [--out DIR] [--obs-jsonl]
//!        [--store DIR]
//! platforms: the registry's network presets and CPUs
//!            (taurus | myrinet | openmpi | opteron | pentium4 | i7 | arm)
//! ```
//!
//! **Spec mode** (`--benchmark`, DESIGN.md §15): the TOML file declares
//! factors, replicates, ordering, and a `[target]` the registry
//! resolves — a simulated network/memory platform, or `model =
//! "external"`: a benchmark *engine subprocess* speaking the KLV
//! protocol (bring your own benchmark). External engines run the
//! sequential campaign path (a subprocess cannot be forked), and their
//! `runner.*` frame/restart/timeout counters land in the `--obs-jsonl`
//! report.
//!
//! **DSL mode** lowers the plan file through
//! `ResolvedBenchmark::from_dsl` into the same resolved benchmark a
//! spec produces, with the platform name standing for
//! `TargetSpec::platform` (default policies and label). From there both
//! modes run one body, so a DSL plan and its spec twin record the same
//! `# order` / `# shuffle_seed` header lines and archive under the same
//! run ID with identical `records.csv` bytes. Network plans need
//! factors `op` and `size`; memory plans need `size_bytes` (plus
//! optional `stride`, `width`, `unroll`, `nloops`).
//!
//! Exit codes: `2` — bad spec/usage (TOML or DSL parse error, unknown
//! target or platform name, contradictory flags); `3` — target or
//! protocol error (KLV timeout, malformed frame, I/O, an artifact it
//! cannot write); `4` — the engine subprocess exited nonzero or died
//! (captured stderr is in the message).
//!
//! `--shards N` fans the campaign out over N forks of the target (all
//! in-process platforms are shard-invariant, so the measured values are
//! identical to a sequential run — see DESIGN.md on the determinism
//! contract). The default is 1, never the host's core count: the shard
//! count is part of the run ID and of the `# shards` / `# batches`
//! header, so the command line alone decides both. The engine clamps
//! it only to the plan's rows. `--obs-jsonl` also writes the
//! campaign's counters and provenance events next to the CSV.
//!
//! `--store DIR` archives the campaign into a `charm_store` store:
//! finished batches are flushed as checkpoint segments while the run is
//! still going, and the final records + manifest are archived under a
//! run ID derived from `(plan, target, seed, shards)` (printed as
//! `archived run <id>`). Resuming an interrupted run is rerunning the
//! same command: the campaign derives the same run ID, replays every
//! segment the store holds for it and measures only the missing
//! batches, so the records are bit-identical to an uninterrupted run
//! (printed as `replayed K of N batches`). A segment is replayed only
//! after its geometry, plan, target and digest checks pass; one that
//! fails them exits 3 and is never re-measured. An
//! `--obs-jsonl` run measures every batch, since segments retain
//! records, not counter streams. (External engines archive the
//! finished run but have no shard checkpoints: they replay nothing.)

use charm_bench::cli::{CommonArgs, Reads};
use charm_bench::profile::Session;
use charm_bench::specload;
use charm_core::spec::ResolvedBenchmark;
use charm_engine::registry::{self, ExternalEngineSpec, ResolvedTarget};
use charm_engine::{Campaign, CampaignRun, ParallelTarget};
use charm_obs::Observer;
use charm_runner::ExternalTarget;
use charm_store::CampaignKey;
use std::path::Path;
use std::process::ExitCode;

const USAGE_POSITIONAL: &str = "<plan.dsl> <platform>";

/// Lowers either front end — `--benchmark SPEC.toml`, or
/// `<plan.dsl> <platform>` — into one resolved benchmark.
fn lower(args: &CommonArgs) -> Result<ResolvedBenchmark, ExitCode> {
    if let Some(path) = &args.benchmark {
        return specload::load(path, args.seed, &args.params);
    }
    let [path, platform] = args.rest.as_slice() else {
        eprintln!(
            "usage: run_campaign <plan.dsl> <platform> [--seed N] [--shards N] [--out DIR] \
             [--obs-jsonl]\n       run_campaign --benchmark SPEC.toml [--param NAME=VALUE]..."
        );
        let platforms = [registry::network_presets(), registry::memory_cpus()].concat();
        eprintln!("platforms: {}", platforms.join(" "));
        return Err(ExitCode::from(specload::EXIT_BAD_SPEC));
    };
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(specload::EXIT_BAD_SPEC)
    })?;
    ResolvedBenchmark::from_dsl(&text, platform).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(specload::EXIT_BAD_SPEC)
    })
}

/// Writes the campaign CSV and, when observed, its JSONL report.
fn write_outputs(out: Option<&Path>, label: &str, run: &CampaignRun) -> std::io::Result<()> {
    charm_bench::write_artifact(out, &format!("campaign_{label}.csv"), &run.data.to_csv())?;
    if let Some(report) = &run.report {
        let jsonl = report.to_jsonl();
        charm_bench::write_artifact(out, &format!("campaign_{label}_obs.jsonl"), &jsonl)?;
    }
    Ok(())
}

/// Writes the artifacts and then archives the run under `archive`'s
/// key; shared by every target. An artifact it cannot write exits 3
/// before anything is archived.
fn finish_run(
    args: &CommonArgs,
    session: Session,
    bench: &ResolvedBenchmark,
    archive: Option<(&charm_store::Store, &CampaignKey)>,
    run: &CampaignRun,
) -> ExitCode {
    let label = bench.target.label();
    if let Err(e) = write_outputs(args.out.as_deref(), &label, run) {
        return charm_bench::exit_status(Err(e));
    }
    if let Some(report) = &run.report {
        session.attach_virtual(&label, report);
    }
    if let Some((store, key)) = archive {
        let batches = run.data.metadata.get("batches").map_or("1", String::as_str);
        println!("replayed {} of {batches} batches", run.replayed_batches);
        let cli_args: Vec<String> = std::env::args().collect();
        match store.put_run(key, &label, &cli_args.join(" "), &run.data, run.report.as_ref()) {
            Ok(id) => println!("archived run {id}"),
            Err(e) => {
                eprintln!("archive failed: {e}");
                return ExitCode::from(specload::EXIT_TARGET);
            }
        }
    }
    println!("{} raw measurements retained", run.data.records.len());
    charm_bench::exit_status(session.finish())
}

fn open_store(args: &CommonArgs) -> Result<Option<charm_store::Store>, ExitCode> {
    match &args.store {
        Some(dir) => charm_store::Store::open(dir).map(Some).map_err(|e| {
            eprintln!("cannot open store: {e}");
            ExitCode::from(specload::EXIT_TARGET)
        }),
        None => Ok(None),
    }
}

/// An external engine: sequential, archived without shard checkpoints.
fn run_external(
    args: &CommonArgs,
    session: Session,
    bench: &ResolvedBenchmark,
    spec: ExternalEngineSpec,
) -> ExitCode {
    if args.shards.is_some_and(|n| n > 1) {
        eprintln!(
            "external engines are sequential-only (a subprocess cannot be forked); drop --shards"
        );
        return ExitCode::from(specload::EXIT_BAD_SPEC);
    }
    let engine = match ExternalTarget::spawn(spec) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot start engine: {e}");
            return specload::exit_for(&e);
        }
    };
    let archive = match open_store(args) {
        Ok(store) => store.map(|store| {
            let target_id = charm_store::target_identity(&engine);
            (store, CampaignKey::of(&bench.plan, &target_id, Some(args.seed), 1))
        }),
        Err(code) => return code,
    };
    let mut campaign = Campaign::new(&bench.plan, engine).seed(bench.order_seed);
    if args.obs_jsonl {
        campaign = campaign.observer(Observer::default());
    }
    match campaign.run() {
        Ok(run) => {
            finish_run(args, session, bench, archive.as_ref().map(|(s, key)| (s, key)), &run)
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            specload::exit_for(&e)
        }
    }
}

/// An in-process simulator: the sharded path, checkpointing (and
/// replaying stored checkpoints) when archiving.
fn run_sharded<T: ParallelTarget>(
    args: &CommonArgs,
    session: Session,
    bench: &ResolvedBenchmark,
    target: T,
) -> ExitCode {
    let plan = &bench.plan;
    let shards = args.shards.unwrap_or(1);
    // Open the campaign store (and its checkpoint session for this
    // run's identity) before executing, so shards flush as they finish.
    let store_ctx = match open_store(args) {
        Ok(Some(store)) => {
            // The target's identity folds into the run ID, so the same
            // plan against two platforms can never share a run directory.
            let target_id = charm_store::target_identity(&target);
            let checkpoint = match store.session(plan, &target_id, Some(args.seed), shards as u64) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open checkpoint session: {e}");
                    return ExitCode::from(specload::EXIT_TARGET);
                }
            };
            Some((store, checkpoint))
        }
        Ok(None) => None,
        Err(code) => return code,
    };

    let mut campaign = Campaign::new(plan, target).shards(shards).seed(bench.order_seed);
    if let Some((_, checkpoint)) = &store_ctx {
        campaign = campaign.store(checkpoint);
    }
    if args.obs_jsonl {
        campaign = campaign.observer(Observer::default());
    }
    match campaign.run() {
        Ok(run) => {
            let archive = store_ctx.as_ref().map(|(store, checkpoint)| (store, checkpoint.key()));
            finish_run(args, session, bench, archive, &run)
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            specload::exit_for(&e)
        }
    }
}

fn main() -> ExitCode {
    let args = CommonArgs::parse(USAGE_POSITIONAL, Reads::ALL);
    let session = Session::from_args(&args);
    let bench = match lower(&args) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let target = match registry::resolve(&bench.target, args.seed) {
        Ok(t) => t,
        Err(e) => return specload::bad_spec(e),
    };
    let plan = &bench.plan;
    println!("benchmark {}: {} rows, factors {:?}", bench.name, plan.len(), plan.factor_names());
    match target {
        ResolvedTarget::External(spec) => run_external(&args, session, &bench, spec),
        ResolvedTarget::Network(t) => run_sharded(&args, session, &bench, *t),
        ResolvedTarget::Memory(t) => run_sharded(&args, session, &bench, *t),
    }
}

//! Layer probes: after the traced timed phase, each layer's public entry
//! points are timed alone on the workload's own plans, with the medians
//! of a few repetitions. They give the per-row and per-call numbers the
//! spans cannot separate, e.g. the simulator inside `Campaign::run`, or
//! CSV rendering inside `Store::put_run`.

use crate::plans::{build, run_built, Built, Compiled, PlanText, SHARDS};
use crate::stats::{median, median_time};
use crate::sys;
use charm_engine::target::{Assignment, Target};
use charm_engine::{Campaign, CampaignData, ParallelTarget};
use charm_obs::Observer;
use charm_store::{CampaignKey, Store};
use std::path::Path;
use std::time::Instant;

const REPS: usize = 3;
const UTIL_WINDOW_S: f64 = 0.5;

/// The plans a workload's probes run on: `main` for the engine, record
/// and store probes, `mem` and `net` for the simulator probes.
pub(crate) struct ProbePlans<'a> {
    pub main: &'a PlanText,
    pub mem: Option<&'a PlanText>,
    pub net: Option<&'a PlanText>,
}

/// Seconds for one sequential `Target::measure` loop over the plan on a
/// fresh target, and that target (for its cache statistics).
fn measure_loop(c: &Compiled, seed: u64) -> Result<(f64, Built), String> {
    fn rows<T: Target>(c: &Compiled, t: &mut T) -> Result<f64, String> {
        let started = Instant::now();
        for row in c.plan.rows() {
            t.measure(&Assignment::new(&c.plan, row)).map_err(|e| e.to_string())?;
        }
        Ok(started.elapsed().as_secs_f64())
    }
    let mut built = build(&c.target, seed)?;
    let secs = match &mut built {
        Built::Mem(t) => rows(c, t.as_mut())?,
        Built::Net(t) => rows(c, t.as_mut())?,
    };
    Ok((secs, built))
}

/// Median measure-loop seconds over [`REPS`] fresh targets, plus the
/// first target.
fn measure_median(c: &Compiled, seed: u64) -> Result<(f64, Built), String> {
    let (secs, first) = measure_loop(c, seed)?;
    let mut times = vec![secs];
    for _ in 1..REPS {
        times.push(measure_loop(c, seed)?.0);
    }
    Ok((median(&times), first))
}

fn observed_diagnostics(c: &Compiled, seed: u64) -> Result<charm_obs::Counters, String> {
    fn run<T: ParallelTarget>(c: &Compiled, t: T) -> Result<charm_obs::Counters, String> {
        let run = Campaign::new(&c.plan, t)
            .shards(SHARDS)
            .seed(c.order_seed)
            .observer(Observer::default())
            .run()
            .map_err(|e| e.to_string())?;
        Ok(run.report.expect("observer attached").diagnostics)
    }
    match build(&c.target, seed)? {
        Built::Mem(t) => run(c, *t),
        Built::Net(t) => run(c, *t),
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry.map_err(|e| e.to_string())?.metadata().map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Runs every probe that applies to `plans`; scratch files go under
/// `dir`.
pub(crate) fn layer_probes(
    dir: &Path,
    plans: &ProbePlans<'_>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let main = plans.main;
    let (compile_s, compiled) = median_time(5, || main.compile());
    let c = compiled?;
    out.push(("design.compile_us", compile_s * 1e6));

    if let Some(p) = plans.mem {
        let mc = p.compile()?;
        let (secs, built) = measure_median(&mc, p.seed)?;
        let Built::Mem(machine) = built else {
            return Err("memory probe plan built a network target".into());
        };
        let (hits, misses) = machine.machine().profile_cache_stats();
        out.push(("simmem.measure_ns_per_row", secs * 1e9 / mc.plan.len() as f64));
        out.push(("simmem.profile_cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64));
        out.push(("simmem.profile_cache.misses", misses as f64));
    }
    if let Some(p) = plans.net {
        let nc = p.compile()?;
        let (secs, _) = measure_median(&nc, p.seed)?;
        out.push(("simnet.measure_ns_per_row", secs * 1e9 / nc.plan.len() as f64));
    }

    // Engine: the measure loop, a single-worker run and a sharded run,
    // all without a store and interleaved, so that the differences and
    // ratios between them do not pick up the host's drift.
    let rows = c.plan.len() as f64;
    let seed = main.seed;
    let run = |shards: usize| -> Result<(f64, CampaignData), String> {
        let built = build(&c.target, seed)?;
        let started = Instant::now();
        let run = run_built(&c, built, shards, None)?;
        Ok((started.elapsed().as_secs_f64(), run.data))
    };
    let (mut measure, mut single, mut sharded) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        measure.push(measure_loop(&c, seed)?.0);
        single.push(run(1)?.0);
        sharded.push(run(SHARDS)?.0);
    }
    let (measure_s, single_s, sharded_s) = (median(&measure), median(&single), median(&sharded));
    // Utilization over sharded runs lasting at least UTIL_WINDOW_S, so
    // that the CPU clock's 10 ms ticks resolve small plans.
    let cpu0 = sys::cpu_seconds()?;
    let wall0 = Instant::now();
    let mut data = run(SHARDS)?.1;
    while wall0.elapsed().as_secs_f64() < UTIL_WINDOW_S {
        data = run(SHARDS)?.1;
    }
    let util = (sys::cpu_seconds()? - cpu0) / (wall0.elapsed().as_secs_f64() * SHARDS as f64);
    out.push(("engine.run_ns_per_row", sharded_s * 1e9 / rows));
    out.push(("engine.overhead_ns_per_row", (single_s - measure_s) * 1e9 / rows));
    out.push(("engine.shard2_speedup", single_s / sharded_s));
    out.push(("engine.cpu_util", util));
    let diag = observed_diagnostics(&c, seed)?;
    out.push(("engine.scheduler.batches", diag.get("engine.scheduler.batches") as f64));
    out.push(("engine.scheduler.steals", diag.get("engine.scheduler.steals") as f64));
    out.push(("engine.scheduler.splits", diag.get("engine.scheduler.splits") as f64));

    // Record: the campaign CSV every archive and stream is made of.
    let (csv_s, csv) = median_time(REPS, || data.to_csv());
    out.push(("record.to_csv_ns_per_row", csv_s * 1e9 / rows));
    out.push(("record.csv_bytes_per_row", csv.len() as f64 / rows));

    // Store: checkpointed runs against the plain sharded run, then the
    // archive write and the verified read, each into a fresh store.
    let target_id = build(&c.target, seed)?.identity();
    let key = CampaignKey::of(&c.plan, &target_id, Some(seed), SHARDS as u64);
    let mut checkpointed = Vec::with_capacity(REPS);
    let mut put = Vec::with_capacity(REPS);
    let mut stored = None;
    for k in 0..REPS {
        let store = Store::open(dir.join(format!("probe{k}"))).map_err(|e| e.to_string())?;
        let session = store
            .session(&c.plan, &target_id, Some(seed), SHARDS as u64)
            .map_err(|e| e.to_string())?;
        let built = build(&c.target, seed)?;
        let started = Instant::now();
        run_built(&c, built, SHARDS, Some(&session))?;
        checkpointed.push(started.elapsed().as_secs_f64());
        let fresh =
            Store::open(dir.join(format!("probe{k}-archive"))).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let id =
            fresh.put_run(&key, &c.label, "charm_perf", &data, None).map_err(|e| e.to_string())?;
        put.push(started.elapsed().as_secs_f64());
        stored = Some((fresh, id));
    }
    let (store, id) = stored.expect("at least one repetition");
    out.push(("store.checkpoint_ns_per_row", (median(&checkpointed) - sharded_s) * 1e9 / rows));
    out.push(("store.put_run_ms", median(&put) * 1e3));
    let written = dir_bytes(&store.root().join("runs").join(id.as_str()))?;
    out.push(("store.bytes_written_per_row", written as f64 / rows));
    let (get_s, got) = median_time(REPS, || store.get(&id));
    got.map_err(|e| e.to_string())?;
    out.push(("store.get_ms", get_s * 1e3));
    Ok(out)
}

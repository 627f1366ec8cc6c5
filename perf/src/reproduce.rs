//! `reproduce`: refreshing the paper's artifacts. One op is one
//! artifact refresh, a command a user waits on; one cycle runs them all
//! in order:
//!
//! 1. every `charm_core::experiments::*::run` figure and table
//!    experiment at the paper's seed, rendered to its CSVs as
//!    `all_figures` writes them;
//! 2. the fleet report: `build_report` over the archived fleet runs,
//!    rendered to markdown as `store_report` prints it;
//! 3. a free `segment()` on the raw (size, latency) points of one
//!    archived run.
//!
//! The analysis and core layers do the work: the report's paired
//! bootstraps, the O(n²·k) segmentation dynamic program and the figure
//! fits. The serve layer and the campaign archive path are bypassed.
//!
//! The figure experiments run with `CHARM_SHARDS=1`: without that pin
//! `Study::auto_shards` gives the larger campaigns one shard per core,
//! which changes the `# batches` metadata of `fig04_raw.csv` with the
//! host. The run seed varies the fleet runs and the segmentation's
//! points. Checks: every cycle's outputs are byte-identical to the first
//! cycle's; at the reference seed they match `perf/expected/`.

use crate::calib::Speed;
use crate::harness::{
    self, finish, repeated_setup, Config, Measured, OpTime, Phase, Report, DEFAULT_SEED,
};
use crate::metrics::{EXPERIMENTS, PER_LAYER};
use crate::plans::{build, derive, net_dsl, run_built, PlanText, Syntax, SHARDS};
use crate::probes::{layer_probes, ProbePlans};
use crate::spans::{durations_ms, Layer, Tracer};
use crate::stats::{median, median_time};
use charm_analysis::segmented::{segment, SegmentConfig};
use charm_analysis::speedup::SpeedupConfig;
use charm_core::experiments as ex;
use charm_store::{build_report, CampaignKey, MachineFacts, RunId, RunQuery, Store};
use std::time::Instant;

const FLEET_STREAM: u64 = 6;
const SEGMENT_STREAM: u64 = 7;
const SIZES_STREAM: u64 = 8;
const FLEET_LABEL: &str = "fleet";

#[derive(Debug, Clone, Copy)]
enum Step {
    Experiment(&'static str),
    Report,
    Segment,
}

fn cycle() -> Vec<Step> {
    let mut steps: Vec<Step> = EXPERIMENTS.iter().map(|&e| Step::Experiment(e)).collect();
    steps.push(Step::Report);
    steps.push(Step::Segment);
    steps
}

/// Runs one experiment at the seed the paper's artifacts are published
/// with, and renders its CSVs. `full` uses the replicate counts
/// `all_figures` uses, otherwise those of `all_figures --quick`.
///
/// The run seed does not reach the experiments: `convolution::run`
/// panics on a degenerate fit for some seeds (9 is one).
fn experiment(name: &str, full: bool) -> Vec<(&'static str, String)> {
    let seed = DEFAULT_SEED;
    let q = |full_n: u32, quick_n: u32| if full { full_n } else { quick_n };
    match name {
        "table05" => vec![("table05.csv", ex::table05::run().to_csv())],
        "fig03" => vec![("fig03.csv", ex::fig03::run(seed).to_csv())],
        "fig04" => {
            let f = ex::fig04::run(seed, if full { 100 } else { 30 }, 20);
            vec![("fig04_raw.csv", f.raw_csv()), ("fig04_model.csv", f.summary_csv())]
        }
        "fig07" => vec![("fig07.csv", ex::fig07::run(seed, q(10, 4)).to_csv())],
        "fig08" => {
            let f = ex::fig08::run(seed, q(42, 10));
            vec![("fig08_raw.csv", f.raw_csv()), ("fig08_trends.csv", f.trend_csv())]
        }
        "fig09" => vec![("fig09.csv", ex::fig09::run(seed, q(10, 4)).to_csv())],
        "fig10" => vec![("fig10.csv", ex::fig10::run(seed, q(42, 10)).to_csv())],
        "fig11" => vec![("fig11_raw.csv", ex::fig11::run(seed).raw_csv())],
        "fig12" => vec![("fig12.csv", ex::fig12::run(seed).to_csv())],
        "fig13" => vec![("fig13.csv", ex::fig13::run().to_csv())],
        "convolution" => vec![("convolution.csv", ex::convolution::run(seed).to_csv())],
        other => unreachable!("unknown experiment {other}"),
    }
}

fn segment_source(cfg: &Config) -> PlanText {
    let seed = derive(cfg.seed, SEGMENT_STREAM, 0);
    let text = format!(
        "[benchmark]\nname = \"segment-source\"\n\n\
         [target]\nmodel = \"network\"\npreset = \"taurus\"\n\n\
         [factors.op]\nlevels = [\"ping_pong\"]\n\n\
         [factors.size]\ngenerator = \"loguniform_unique\"\nmin = 8\nmax = 4_194_304\n\
         count = {}\nseed = {seed}\n\n\
         [design]\nreplicates = 1\norder = \"randomized\"\norder_seed = {seed}\n",
        cfg.sizes.segment_points
    );
    PlanText { syntax: Syntax::Spec, text, seed }
}

fn fleet_plan(cfg: &Config, j: u64) -> PlanText {
    let (sizes, reps) = cfg.sizes.fleet;
    let sizes_seed = derive(cfg.seed, SIZES_STREAM, 0);
    let ops = ["async_send", "blocking_recv", "ping_pong"];
    net_dsl(derive(cfg.seed, FLEET_STREAM, j), sizes_seed, &ops, sizes, reps)
}

fn archive(store: &Store, p: &PlanText, label: &str) -> Result<RunId, String> {
    let c = p.compile()?;
    let built = build(&c.target, p.seed)?;
    let key = CampaignKey::of(&c.plan, &built.identity(), Some(p.seed), SHARDS as u64);
    let run = run_built(&c, built, SHARDS, None)?;
    store.put_run(&key, label, "charm_perf", &run.data, None).map_err(|e| e.to_string())
}

struct State {
    store: Store,
    fleet: Vec<RunId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

fn setup(cfg: &Config, dir: &std::path::Path) -> Result<State, String> {
    let store = Store::open(dir.join("store")).map_err(|e| e.to_string())?;
    let fleet = (0..cfg.sizes.fleet_runs as u64)
        .map(|j| archive(&store, &fleet_plan(cfg, j), FLEET_LABEL))
        .collect::<Result<Vec<_>, _>>()?;
    let source = archive(&store, &segment_source(cfg), "segment-source")?;
    let data = store.get(&source).map_err(|e| e.to_string())?.data;
    let size = data.factor_index("size").ok_or("segment source has no size factor")?;
    let xs = data
        .records
        .iter()
        .map(|r| r.levels[size].as_int().map(|s| s as f64).ok_or("non-integer size"))
        .collect::<Result<Vec<f64>, _>>()?;
    let ys = data.records.iter().map(|r| r.value).collect();
    let state = State { store, fleet, xs, ys };
    // Warm-up: one untimed cycle.
    let mut off = Tracer::new(Instant::now(), "setup");
    for step in cycle() {
        run_step(cfg, &state, step, &mut off)?;
    }
    Ok(state)
}

fn run_step(
    cfg: &Config,
    st: &State,
    step: Step,
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, String)>, String> {
    match step {
        Step::Experiment(name) => Ok(tr.span(&format!("core.{name}"), Layer::Core, || {
            experiment(name, cfg.sizes.full_figures)
        })),
        Step::Report => {
            let query = RunQuery { benchmark: Some(FLEET_LABEL.into()), ..RunQuery::default() };
            let md = tr.span("analysis.report", Layer::Analysis, || {
                build_report(&st.store, &query, &SpeedupConfig::default())
                    .map(|r| r.render_markdown())
            });
            // The host class names this machine's core count; the
            // reference digest must not.
            let host = MachineFacts::current().host_class();
            Ok(vec![("report.md", md.map_err(|e| e.to_string())?.replace(&host, "<host>"))])
        }
        Step::Segment => {
            let config = SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: None };
            let seg =
                tr.span("analysis.segment", Layer::Analysis, || segment(&st.xs, &st.ys, &config));
            Ok(vec![(
                "segment.breakpoints",
                format!("{:?}", seg.map_err(|e| e.to_string())?.breakpoints),
            )])
        }
    }
}

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    // Before any thread starts: the engine reads this when the figure
    // experiments size their campaigns.
    std::env::set_var("CHARM_SHARDS", "1");
    let (state, setup_s) = repeated_setup(cfg, Speed::Corrected, |dir| setup(cfg, dir))?;
    let steps = cycle();
    let phase = Phase::start(cfg);
    let mut tr = Tracer::new(phase.epoch, "main");
    let mut ops = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut first_digest: Option<String> = None;
    let mut cycles = 0u64;
    let mut host = vec![Speed::Corrected.sample()];
    while !phase.over(ops.len()) {
        let traced = cfg.trace && cycles % 2 == 1;
        let mut outputs: Vec<(&'static str, String)> = Vec::new();
        for &step in &steps {
            let i = attempted;
            attempted += 1;
            let started = Instant::now();
            tr.begin_op(i, traced);
            let result = run_step(cfg, &state, step, &mut tr);
            tr.end_op();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            host.push(Speed::Corrected.sample());
            let op = OpTime { ms, traced, sample: host.len() - 1 };
            match result {
                Ok(out) => {
                    ops.push(op);
                    outputs.extend(out);
                }
                Err(e) => {
                    eprintln!("reproduce: {step:?} failed: {e}");
                    failed += 1;
                }
            }
        }
        let digest = harness::digest_parts(
            outputs.iter().flat_map(|(name, text)| [name.as_bytes(), text.as_bytes()]),
        );
        match &first_digest {
            None => first_digest = Some(digest),
            Some(first) if *first != digest => {
                failures.push(format!("cycle {cycles}: outputs differ from cycle 0"))
            }
            Some(_) => {}
        }
        cycles += 1;
    }
    let phase = phase.end()?;

    let layer = if cfg.trace {
        let spans = tr.spans();
        let mut layer = Vec::new();
        let med = |name: &str| -> Result<f64, String> {
            let xs = durations_ms(spans, name);
            if xs.is_empty() {
                return Err(format!("no traced {name} span"));
            }
            Ok(median(&xs))
        };
        for name in EXPERIMENTS {
            let metric = PER_LAYER
                .iter()
                .map(|m| m.name)
                .find(|m| m.strip_prefix("core.").and_then(|m| m.strip_suffix("_ms")) == Some(name))
                .ok_or_else(|| format!("no metric for experiment {name}"))?;
            layer.push((metric, med(&format!("core.{name}"))?));
        }
        // build_report loads every fleet run with a verified get; the
        // report metric is the rest of its time.
        let (loads_s, loaded) = median_time(3, || -> Result<(), String> {
            for id in &state.fleet {
                state.store.get(id).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        loaded?;
        layer.push(("analysis.report_ms", med("analysis.report")? - loads_s * 1e3));
        layer.push(("analysis.segment_ms", med("analysis.segment")?));
        let main = fleet_plan(cfg, 0);
        let plans = ProbePlans { main: &main, mem: None, net: Some(&main) };
        layer.extend(layer_probes(&cfg.scratch.join("probes"), &plans)?);
        layer
    } else {
        Vec::new()
    };
    finish(
        "reproduce",
        cfg,
        Measured {
            setup_s,
            ops,
            host,
            attempted,
            failed,
            phase,
            tracers: vec![tr],
            span_layers: &[Layer::Analysis, Layer::Core],
            layer,
            failures,
            digest: first_digest.unwrap_or_default(),
        },
    )
}

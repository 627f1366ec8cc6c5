//! Fleet report: ranked cross-run comparisons with paired-bootstrap
//! speedup intervals.
//!
//! The paper's closing lesson is that a benchmark number without its
//! distribution — and a comparison without its uncertainty — misleads.
//! This module looks *across* the archive: finalized runs are grouped
//! by comparison key (target identity × benchmark label × host class),
//! ranked by an orientation-aware median score, and every non-best run
//! is compared against the group's best with the Touati-style paired
//! bootstrap of [`charm_analysis::speedup`], yielding a confidence
//! interval and a `faster`/`slower`/`indistinguishable` verdict rather
//! than a bare point ratio.
//!
//! Determinism contract (DESIGN.md §16): rendering the same store twice
//! yields byte-identical markdown and CSV. All ordering is derived from
//! sorted keys, every float prints with fixed precision, and each
//! comparison's bootstrap seed is derived from *content* (the base seed
//! and the two run IDs, which are themselves content-addressed) — never
//! from enumeration order, so re-archiving the same runs in any order
//! reproduces the same report. The bootstraps themselves fan out over
//! cells inside [`compare_cells`], whose streams depend only on
//! `(seed, cell, replicate)`, so the report is byte-identical at any
//! core count.

use crate::diff::cells_of;
use crate::manifest::{seed_str, MachineFacts, Manifest};
use crate::store::{RunId, RunQuery, Store, StoreError, StoredRun};
use charm_analysis::descriptive;
use charm_analysis::speedup::{
    compare_cells, CellSpeedup, Direction, PairedCell, SpeedupCi, SpeedupConfig, Verdict,
};
use std::collections::BTreeMap;

/// The comparison key a group of runs shares: same measured target,
/// same benchmark label, same host class. Comparing across any of
/// these would be the apples-to-oranges mistake the paper warns about.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Target identity (`platform#digest`).
    pub target: String,
    /// Benchmark label from the manifest (empty for pre-v3 archives).
    pub benchmark: String,
    /// Host class (`os/Nc`), or `unknown` for pre-v3 archives.
    pub host: String,
}

/// How a ranked run relates to its group's best run.
#[derive(Debug, Clone, PartialEq)]
pub enum VsBest {
    /// This *is* the best run; there is nothing to compare against.
    Best,
    /// A paired-bootstrap comparison over the cells shared with the
    /// best run (best as baseline, this run as candidate — a benefit
    /// ratio above 1.0 would mean this run beats the nominal best).
    Ci {
        /// Combined interval on the geometric mean of per-cell benefit
        /// ratios.
        ci: SpeedupCi,
        /// Verdict of that interval.
        verdict: Verdict,
        /// Design cells the comparison actually used (shared between
        /// both runs with ≥ 2 positive measurements on each side).
        shared_cells: usize,
        /// The shared cells whose own interval sits entirely below 1.0
        /// — the cells that *drove* a `slower` verdict, sorted by cell
        /// name. A combined interval can clear 1.0 while only a few
        /// cells regressed; this pins the blame to specific designs
        /// instead of leaving an aggregate accusation.
        slower_cells: Vec<CellSpeedup>,
    },
    /// No usable shared cells — the runs measure disjoint designs (or
    /// degenerate samples) and no statistical claim is possible.
    Incomparable,
}

/// One run's row in a group's ranking table.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedRun {
    /// 1-based rank within the group (1 = best).
    pub rank: usize,
    /// Full run ID.
    pub run_id: String,
    /// The run's shuffle seed.
    pub seed: Option<u64>,
    /// The run's shard count.
    pub shards: u64,
    /// Design cells the run measured.
    pub cells: usize,
    /// Orientation-free score: geometric mean of per-cell medians (in
    /// the group's value unit). Under lower-is-better small is good;
    /// under higher-is-better large is good.
    pub score: f64,
    /// The statistical comparison against the group's best run.
    pub vs_best: VsBest,
}

/// One comparison group's ranked table.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The shared comparison key.
    pub key: GroupKey,
    /// Value orientation, derived from the runs' `value_unit`.
    pub direction: Direction,
    /// The measured unit (e.g. `us`, `MB/s`).
    pub unit: String,
    /// Runs, best first; ties broken by run ID.
    pub runs: Vec<RankedRun>,
}

/// The whole fleet report: every group the query matched.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Groups, sorted by key.
    pub groups: Vec<GroupReport>,
    /// The bootstrap knobs the report was built with.
    pub config: SpeedupConfig,
    /// Total runs covered.
    pub runs: usize,
}

/// FNV-1a of a string — the content salt that makes comparison seeds
/// independent of enumeration order (run IDs are content-addressed, so
/// hashing them keeps the whole report a pure function of the store).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Orientation of a value unit: wall times shrink when things improve,
/// rates grow. Unknown units conservatively read as lower-is-better
/// (the engine's default unit is `us`).
pub(crate) fn direction_of_unit(unit: &str) -> Direction {
    if unit.ends_with("/s") {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    }
}

fn host_of(machine: Option<&MachineFacts>) -> String {
    machine.map(MachineFacts::host_class).unwrap_or_else(|| "unknown".to_string())
}

/// A cell is statistically usable when both sides hold ≥ 2 strictly
/// positive finite measurements (the speedup test's precondition).
fn usable(xs: &[f64]) -> bool {
    xs.len() >= 2 && xs.iter().all(|&v| v.is_finite() && v > 0.0)
}

/// Geometric mean of per-cell medians over the usable cells; NaN when
/// no cell qualifies (such a run ranks last and compares incomparable).
fn median_score(cells: &BTreeMap<String, Vec<f64>>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for values in cells.values() {
        if !usable(values) {
            continue;
        }
        let med = descriptive::median(values).unwrap_or(f64::NAN);
        if med.is_finite() && med > 0.0 {
            log_sum += med.ln();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

struct LoadedRun {
    manifest: Manifest,
    cells: BTreeMap<String, Vec<f64>>,
    unit: String,
    score: f64,
}

fn load(store: &Store, manifest: Manifest) -> Result<LoadedRun, StoreError> {
    let id = RunId::parse(&manifest.run_id)?;
    let run: StoredRun = store.get(&id)?;
    let cells = cells_of(&run);
    let unit = run.data.metadata.get("value_unit").cloned().unwrap_or_else(|| "us".to_string());
    let score = median_score(&cells);
    Ok(LoadedRun { manifest, cells, unit, score })
}

/// Best-first ordering: orientation-aware on score, NaN scores last,
/// ties broken by run ID so the ranking is total and deterministic.
fn rank_order(direction: Direction, a: &LoadedRun, b: &LoadedRun) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let key = |r: &LoadedRun| -> (bool, f64) {
        let s = match direction {
            Direction::LowerIsBetter => r.score,
            Direction::HigherIsBetter => -r.score,
        };
        (r.score.is_nan(), s)
    };
    let (na, sa) = key(a);
    let (nb, sb) = key(b);
    na.cmp(&nb)
        .then(sa.partial_cmp(&sb).unwrap_or(Ordering::Equal))
        .then_with(|| a.manifest.run_id.cmp(&b.manifest.run_id))
}

/// The paired comparison of `run` against `best` over their shared
/// usable cells. The bootstrap seed folds in both run IDs so the
/// result is a pure function of store content.
fn versus_best(
    best: &LoadedRun,
    run: &LoadedRun,
    direction: Direction,
    cfg: &SpeedupConfig,
) -> Result<VsBest, StoreError> {
    let mut paired = Vec::new();
    for (name, baseline) in &best.cells {
        let Some(candidate) = run.cells.get(name) else { continue };
        if usable(baseline) && usable(candidate) {
            paired.push(PairedCell {
                name: name.clone(),
                baseline: baseline.clone(),
                candidate: candidate.clone(),
            });
        }
    }
    if paired.is_empty() {
        return Ok(VsBest::Incomparable);
    }
    let derived = SpeedupConfig {
        seed: cfg.seed ^ fnv1a(&best.manifest.run_id) ^ fnv1a(&run.manifest.run_id).rotate_left(17),
        ..*cfg
    };
    // Only usable cells reach the test and the config was validated up
    // front, so an error here is a bug worth surfacing, not a row.
    let cmp = compare_cells(&paired, direction, &derived)
        .map_err(|e| StoreError::Analysis { message: e.to_string() })?;
    // Keep only the decisively-regressed cells; `cmp.cells` is already
    // sorted by name, so the drill-down inherits the determinism
    // contract for free.
    let slower_cells = cmp.cells.into_iter().filter(|c| c.verdict == Verdict::Slower).collect();
    Ok(VsBest::Ci {
        ci: cmp.combined,
        verdict: cmp.verdict,
        shared_cells: paired.len(),
        slower_cells,
    })
}

/// Builds the fleet report over every finalized run matching `query`.
///
/// Every selected run is fully digest-verified on load ([`Store::get`]);
/// a tampered archive fails the report rather than silently skewing it.
/// An invalid `cfg` fails with [`StoreError::Analysis`] before any run
/// is loaded, instead of rendering a table of `incomparable` rows.
pub fn build_report(
    store: &Store,
    query: &RunQuery,
    cfg: &SpeedupConfig,
) -> Result<FleetReport, StoreError> {
    cfg.validate().map_err(|e| StoreError::Analysis { message: e.to_string() })?;
    let manifests = store.select(query)?;
    let runs = manifests.len();
    let mut groups: BTreeMap<GroupKey, Vec<LoadedRun>> = BTreeMap::new();
    for manifest in manifests {
        let key = GroupKey {
            target: manifest.target.clone(),
            benchmark: manifest.benchmark.clone(),
            host: host_of(manifest.machine.as_ref()),
        };
        groups.entry(key).or_default().push(load(store, manifest)?);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, mut members) in groups {
        // The unit (and thus orientation) must be shared to compare;
        // take it from the lexicographically first run so the choice is
        // content-derived, not enumeration-derived.
        members.sort_by(|a, b| a.manifest.run_id.cmp(&b.manifest.run_id));
        let unit = members[0].unit.clone();
        let direction = direction_of_unit(&unit);
        members.sort_by(|a, b| rank_order(direction, a, b));
        let best = &members[0];
        let mut ranked = Vec::with_capacity(members.len());
        for (i, run) in members.iter().enumerate() {
            let vs_best = if i == 0 {
                VsBest::Best
            } else if run.unit != unit {
                VsBest::Incomparable
            } else {
                versus_best(best, run, direction, cfg)?
            };
            ranked.push(RankedRun {
                rank: i + 1,
                run_id: run.manifest.run_id.clone(),
                seed: run.manifest.seed,
                shards: run.manifest.shards,
                cells: run.cells.len(),
                score: run.score,
                vs_best,
            });
        }
        out.push(GroupReport { key, direction, unit, runs: ranked });
    }
    Ok(FleetReport { groups: out, config: *cfg, runs })
}

fn fmt_f(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{v:.6}")
    }
}

impl FleetReport {
    /// Deterministic markdown rendering: one ranked table per group,
    /// with CI columns and verdicts. Byte-identical for the same store.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# charm fleet report\n\n");
        out.push_str(&format!(
            "{} runs in {} groups · level {:.0}% · {} bootstrap reps · seed {}\n",
            self.runs,
            self.groups.len(),
            self.config.level * 100.0,
            self.config.reps,
            self.config.seed
        ));
        for g in &self.groups {
            let bench =
                if g.key.benchmark.is_empty() { "(unlabeled)" } else { g.key.benchmark.as_str() };
            out.push_str(&format!(
                "\n## target {} · benchmark {} · host {}\n\n",
                g.key.target, bench, g.key.host
            ));
            out.push_str(&format!(
                "direction: {} ({})\n\n",
                match g.direction {
                    Direction::LowerIsBetter => "lower-is-better",
                    Direction::HigherIsBetter => "higher-is-better",
                },
                g.unit
            ));
            out.push_str(
                "| rank | run | seed | shards | cells | score | vs best | CI lo | CI hi | verdict |\n",
            );
            out.push_str("|---:|---|---:|---:|---:|---:|---:|---:|---:|---|\n");
            for r in &g.runs {
                let (ratio, lo, hi, verdict) = match &r.vs_best {
                    VsBest::Best => ("—".to_string(), "—".to_string(), "—".to_string(), "best"),
                    VsBest::Ci { ci, verdict, .. } => {
                        (fmt_f(ci.estimate), fmt_f(ci.lo), fmt_f(ci.hi), verdict.as_str())
                    }
                    VsBest::Incomparable => {
                        ("—".to_string(), "—".to_string(), "—".to_string(), "incomparable")
                    }
                };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                    r.rank,
                    &r.run_id[..12.min(r.run_id.len())],
                    seed_str(r.seed),
                    r.shards,
                    r.cells,
                    fmt_f(r.score),
                    ratio,
                    lo,
                    hi,
                    verdict
                ));
            }
            // Per-cell drill-down: every `slower` run names the design
            // cells whose own interval sits below 1.0 — an aggregate
            // verdict without the offending cells would send the reader
            // back to the raw CSVs the report exists to summarize.
            for r in &g.runs {
                let VsBest::Ci { verdict: Verdict::Slower, slower_cells, shared_cells, .. } =
                    &r.vs_best
                else {
                    continue;
                };
                out.push_str(&format!(
                    "\n**{}** is slower — {} of {} shared cell(s) drove it:\n\n",
                    &r.run_id[..12.min(r.run_id.len())],
                    slower_cells.len(),
                    shared_cells
                ));
                if slower_cells.is_empty() {
                    // Possible: each cell individually straddles 1.0 but
                    // the combined interval (tighter, pooled) does not.
                    out.push_str(
                        "- (no single cell is decisive; the combined interval alone is)\n",
                    );
                }
                for c in slower_cells {
                    out.push_str(&format!(
                        "- `{}`: ratio {} [{}, {}] (n={}/{})\n",
                        c.name,
                        fmt_f(c.ci.estimate),
                        fmt_f(c.ci.lo),
                        fmt_f(c.ci.hi),
                        c.n_baseline,
                        c.n_candidate
                    ));
                }
            }
        }
        out
    }

    /// Deterministic CSV rendering — the machine-readable twin of the
    /// markdown table, written next to it by `store_report --out`.
    ///
    /// Schema (one header line, then one row per ranked run):
    /// `target,benchmark,host,rank,run_id,seed,shards,cells,shared_cells,score,ratio_vs_best,ci_lo,ci_hi,level,verdict`.
    /// Comparison columns are empty for `best`/`incomparable` rows.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(CSV_HEADER);
        out.push('\n');
        for g in &self.groups {
            for r in &g.runs {
                let (shared, ratio, lo, hi, level, verdict) = match &r.vs_best {
                    VsBest::Best => (
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        "best",
                    ),
                    VsBest::Ci { ci, verdict, shared_cells, .. } => (
                        shared_cells.to_string(),
                        fmt_f(ci.estimate),
                        fmt_f(ci.lo),
                        fmt_f(ci.hi),
                        fmt_f(ci.level),
                        verdict.as_str(),
                    ),
                    VsBest::Incomparable => (
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        "incomparable",
                    ),
                };
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    g.key.target,
                    g.key.benchmark,
                    g.key.host,
                    r.rank,
                    r.run_id,
                    seed_str(r.seed),
                    r.shards,
                    r.cells,
                    shared,
                    fmt_f(r.score),
                    ratio,
                    lo,
                    hi,
                    level,
                    verdict
                ));
            }
        }
        out
    }
}

/// The CSV schema's header line (without trailing newline).
pub const CSV_HEADER: &str =
    "target,benchmark,host,rank,run_id,seed,shards,cells,shared_cells,score,ratio_vs_best,ci_lo,ci_hi,level,verdict";

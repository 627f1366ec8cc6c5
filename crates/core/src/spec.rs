//! Declarative benchmark specs: the "what to measure" artifact.
//!
//! The paper's methodology separates experiment *design* from the
//! *engine* that executes it; this module separates both from the
//! benchmark *definition*. A benchmark is a TOML file in `benchmarks/`
//! declaring its factors and levels, replicates, randomization, target
//! platform, and analysis hints — no Rust. The harness parses the file
//! with [`BenchmarkSpec::parse`], substitutes parameters, and
//! [`BenchmarkSpec::resolve`]s it into an
//! [`ExperimentPlan`] plus a [`TargetSpec`] for
//! `charm_engine::registry::resolve` — which is how the fig04, fig07
//! and pchase experiments embed their committed specs instead of
//! building plans in Rust, and how an external KLV engine gets measured
//! under the exact same randomized design as the in-process simulators
//! (DESIGN.md §15).
//!
//! The experiment DSL is a second front end of the same representation:
//! [`ResolvedBenchmark::from_dsl`] lowers a DSL plan and a platform name
//! into a [`ResolvedBenchmark`] through the same expansion
//! (`charm_design::doe::Design::expand`), so everything downstream —
//! `run_campaign`, `charm-serve`, the store — has one submission path.
//!
//! # Spec schema (charm-spec/1)
//!
//! ```toml
//! [benchmark]
//! name = "fig04"                      # required
//! description = "..."                 # optional
//!
//! [target]                            # required
//! model = "network"                   # network | memory | external
//! preset = "taurus"                   # network: preset name
//! # memory:   cpu = "opteron" [governor/sched/alloc/label = "..."]
//! # external: program = "path" [args = [...]] [timeout_ms = N]
//!
//! [params]                            # optional, CLI-overridable
//! n_sizes = 100
//!
//! [factors.op]                        # declaration order = column order
//! levels = ["async_send", "ping_pong"]
//!
//! [factors.size]
//! generator = "loguniform_unique"     # range | loguniform | loguniform_unique
//! min = 8
//! max = 4_194_304
//! count = "$n_sizes"                  # `$name` pulls from [params]; `$seed`
//! seed = "$seed"                      # is built in (the harness --seed)
//!
//! [design]
//! replicates = 20
//! order = "randomized"                # randomized | sequential | as_declared
//! # order_seed = "$seed"              # default
//!
//! [analysis]                          # free-form hints for the analysis stage
//! breakpoints = [32_768, 131_072]
//!
//! [tool]                              # free-form config for opaque-tool drivers
//! ```
//!
//! Parameter substitution is exact-match only: a string value that *is*
//! `"$name"` becomes the parameter's (typed) value; `$` elsewhere in a
//! string is literal. Unknown `$name`s and overrides of undeclared
//! parameters are errors — a typo must not silently run the default.

pub mod toml;

use crate::spec::toml::{Item, Table, Value};
use charm_design::doe::{self, Design, Order};
use charm_design::dsl;
use charm_design::factors::{Factor, Level};
use charm_design::plan::ExperimentPlan;
use charm_design::sampling;
use charm_engine::registry::TargetSpec;
use std::collections::BTreeMap;
use std::fmt;

/// A spec parse/resolution error.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// What went wrong, with enough context to fix the spec file.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<toml::TomlError> for SpecError {
    fn from(e: toml::TomlError) -> Self {
        SpecError { message: e.to_string() }
    }
}

fn err(message: impl Into<String>) -> SpecError {
    SpecError { message: message.into() }
}

/// A parsed (but not yet resolved) benchmark spec file.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    root: Table,
    /// The benchmark's name (`[benchmark] name`).
    pub name: String,
    /// Optional description.
    pub description: Option<String>,
}

impl BenchmarkSpec {
    /// Parses a spec document and validates its fixed structure
    /// (parameter values stay unsubstituted until [`Self::resolve`]).
    pub fn parse(text: &str) -> Result<BenchmarkSpec, SpecError> {
        let root = toml::parse(text)?;
        let benchmark = root
            .table("benchmark")
            .ok_or_else(|| err("spec lacks the [benchmark] table (with `name = \"...\"`)"))?;
        let name = benchmark
            .value("name")
            .and_then(Value::as_str)
            .ok_or_else(|| err("[benchmark] needs `name = \"...\"`"))?
            .to_string();
        let description =
            benchmark.value("description").and_then(Value::as_str).map(str::to_string);
        if root.table("target").is_none() {
            return Err(err("spec lacks the [target] table (with `model = \"...\"`)"));
        }
        let factors =
            root.table("factors").ok_or_else(|| err("spec lacks [factors.<name>] tables"))?;
        if factors.subtable_names().is_empty() {
            return Err(err("[factors] declares no factors"));
        }
        Ok(BenchmarkSpec { root, name, description })
    }

    /// Substitutes parameters and resolves the spec into a runnable
    /// description: the experiment plan (factors expanded, replicates
    /// applied, order applied) plus the declarative target.
    ///
    /// `overrides` are CLI `--param name=value` pairs; each must name a
    /// parameter declared in `[params]`. `seed` is the harness seed,
    /// available as `$seed`.
    pub fn resolve(
        &self,
        seed: u64,
        overrides: &[(String, String)],
    ) -> Result<ResolvedBenchmark, SpecError> {
        self.resolve_unexpanded(seed, overrides)?.expand()
    }

    /// [`Self::resolve`] up to, but not including, the expansion of the
    /// design into plan rows.
    pub fn resolve_unexpanded(
        &self,
        seed: u64,
        overrides: &[(String, String)],
    ) -> Result<UnexpandedBenchmark, SpecError> {
        let params = self.final_params(seed, overrides)?;
        let target = parse_target(&substitute_table(
            self.root.table("target").expect("validated in parse"),
            &params,
        )?)?;
        let factors_table =
            substitute_table(self.root.table("factors").expect("validated in parse"), &params)?;
        let mut factors = Vec::new();
        for name in factors_table.subtable_names() {
            let t = factors_table.table(name).expect("just listed");
            factors.push(parse_factor(name, t)?);
        }

        let design = match self.root.table("design") {
            Some(t) => substitute_table(t, &params)?,
            None => Table::default(),
        };
        for (key, _) in design.values() {
            if !matches!(key, "replicates" | "order" | "order_seed") {
                return Err(err(format!(
                    "[design] has unknown key {key:?} (expected replicates/order/order_seed)"
                )));
            }
        }
        let replicates = match design.value("replicates") {
            None => 1,
            Some(v) => {
                let n =
                    v.as_int().filter(|&n| n >= 1 && n <= u32::MAX as i64).ok_or_else(|| {
                        err(format!(
                            "[design] replicates must be a positive integer, got {}",
                            v.render()
                        ))
                    })?;
                n as u32
            }
        };
        let order_seed = match design.value("order_seed") {
            None => seed,
            Some(v) => {
                v.as_int().ok_or_else(|| err("[design] order_seed must be an integer"))? as u64
            }
        };
        let order = match design.value("order").map(|v| v.as_str().unwrap_or("")) {
            None | Some("as_declared") => Order::AsDeclared,
            Some("sequential") => Order::Sequential,
            Some("randomized") => Order::Randomized(order_seed),
            Some(other) => {
                return Err(err(format!(
                    "[design] order {other:?} is not randomized/sequential/as_declared"
                )))
            }
        };

        let analysis = match self.root.table("analysis") {
            Some(t) => substitute_table(t, &params)?,
            None => Table::default(),
        };
        let tool = match self.root.table("tool") {
            Some(t) => substitute_table(t, &params)?,
            None => Table::default(),
        };

        Ok(UnexpandedBenchmark {
            name: self.name.clone(),
            target,
            design: Design { factors, replicates, order },
            params: params.iter().map(|(k, v)| (k.clone(), v.render())).collect(),
            analysis,
            tool,
        })
    }

    /// Declared defaults + CLI overrides + the builtin `seed`.
    fn final_params(
        &self,
        seed: u64,
        overrides: &[(String, String)],
    ) -> Result<BTreeMap<String, Value>, SpecError> {
        let mut params: BTreeMap<String, Value> = BTreeMap::new();
        if let Some(t) = self.root.table("params") {
            for (k, v) in t.values() {
                if k == "seed" {
                    return Err(err(
                        "[params] must not declare `seed` (it is built in; set it with --seed)",
                    ));
                }
                params.insert(k.to_string(), v.clone());
            }
        }
        for (k, v) in overrides {
            if !params.contains_key(k) {
                let declared: Vec<String> = params.keys().cloned().collect();
                return Err(err(format!(
                    "--param {k}={v} does not match a declared parameter \
                     (declared: {})",
                    if declared.is_empty() { "none".to_string() } else { declared.join(", ") }
                )));
            }
            params.insert(k.clone(), parse_override(v));
        }
        params.insert("seed".to_string(), Value::Int(seed as i64));
        Ok(params)
    }
}

/// CLI override values arrive as bare strings; give them the narrowest
/// type that round-trips, mirroring `Level::parse`.
fn parse_override(v: &str) -> Value {
    match v {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(n) = v.parse::<i64>() {
        return Value::Int(n);
    }
    if let Ok(f) = v.parse::<f64>() {
        if f.is_finite() {
            return Value::Float(f);
        }
    }
    Value::Str(v.to_string())
}

/// A fully resolved, runnable benchmark description.
#[derive(Debug, Clone)]
pub struct ResolvedBenchmark {
    /// Benchmark name (for artifact naming and metadata).
    pub name: String,
    /// Declarative target, for `charm_engine::registry::resolve`.
    pub target: TargetSpec,
    /// The expanded factors, in declaration order (opaque-tool drivers
    /// read their sweeps from here rather than from the plan rows).
    pub factors: Vec<Factor>,
    /// The experiment plan, with replicates and ordering applied.
    pub plan: ExperimentPlan,
    /// The shuffle seed when `order = "randomized"` (recorded in
    /// campaign metadata, exactly like `Study::randomized`).
    pub order_seed: Option<u64>,
    /// Replicates per factor combination.
    pub replicates: u32,
    /// Final parameter values after overrides, rendered (provenance).
    pub params: Vec<(String, String)>,
    /// Resolved `[analysis]` hints (empty table when absent).
    pub analysis: Table,
    /// Resolved `[tool]` config for opaque-tool drivers (empty when
    /// absent).
    pub tool: Table,
}

/// A resolved benchmark whose design is not yet expanded into plan
/// rows: what a caller bounds the row count of (see
/// [`UnexpandedBenchmark::rows`]) before the rows are allocated.
#[derive(Debug, Clone)]
pub struct UnexpandedBenchmark {
    name: String,
    target: TargetSpec,
    design: Design,
    params: Vec<(String, String)>,
    analysis: Table,
    tool: Table,
}

impl UnexpandedBenchmark {
    /// Lowers a DSL plan (`charm_design::dsl`) run on the named platform
    /// into the same representation [`BenchmarkSpec::resolve_unexpanded`]
    /// produces, so both front ends share one submission path downstream.
    /// The benchmark is named after the platform, `order randomized N`
    /// records `order_seed = Some(N)`, and the target is
    /// [`TargetSpec::platform`] with its default policies and label (no
    /// params, empty `[analysis]` and `[tool]`).
    pub fn from_dsl(text: &str, platform: &str) -> Result<UnexpandedBenchmark, SpecError> {
        let design = dsl::parse(text).map_err(|e| err(format!("DSL error: {e}")))?;
        let target = TargetSpec::platform(platform).map_err(|e| err(e.to_string()))?;
        Ok(UnexpandedBenchmark {
            name: platform.to_string(),
            target,
            design,
            params: Vec::new(),
            analysis: Table::default(),
            tool: Table::default(),
        })
    }

    /// The number of plan rows [`Self::expand`] builds, or `None` when it
    /// overflows `usize`; counted without building any.
    pub fn rows(&self) -> Option<usize> {
        self.design.rows()
    }

    /// The one expansion both front ends end in: builds the plan and
    /// records the design's replicates and shuffle seed.
    pub fn expand(self) -> Result<ResolvedBenchmark, SpecError> {
        let UnexpandedBenchmark { name, target, design, params, analysis, tool } = self;
        let plan = design.expand().map_err(|e| err(format!("factor expansion failed: {e}")))?;
        Ok(ResolvedBenchmark {
            name,
            target,
            order_seed: match design.order {
                Order::Randomized(seed) => Some(seed),
                Order::AsDeclared | Order::Sequential => None,
            },
            replicates: design.replicates,
            factors: design.factors,
            plan,
            params,
            analysis,
            tool,
        })
    }
}

impl ResolvedBenchmark {
    /// [`UnexpandedBenchmark::from_dsl`], expanded.
    pub fn from_dsl(text: &str, platform: &str) -> Result<ResolvedBenchmark, SpecError> {
        UnexpandedBenchmark::from_dsl(text, platform)?.expand()
    }

    /// An `[analysis]` or `[tool]` integer array (e.g. breakpoints),
    /// validated as non-negative.
    pub(crate) fn u64_array(table: &Table, key: &str) -> Result<Vec<u64>, SpecError> {
        let v = table.value(key).ok_or_else(|| err(format!("spec lacks array {key:?}")))?;
        v.as_array()
            .map(|items| {
                items
                    .iter()
                    .map(|i| {
                        i.as_int().filter(|&n| n >= 0).map(|n| n as u64).ok_or_else(|| {
                            err(format!("{key:?} has non-integer entry {}", i.render()))
                        })
                    })
                    .collect()
            })
            .ok_or_else(|| err(format!("{key:?} must be an array")))?
    }

    /// A required integer from `[tool]`-style tables.
    pub(crate) fn u64_value(table: &Table, key: &str) -> Result<u64, SpecError> {
        table
            .value(key)
            .and_then(Value::as_int)
            .filter(|&n| n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| err(format!("spec lacks non-negative integer {key:?}")))
    }

    /// The non-negative integer levels of factor `name`, for opaque-tool
    /// drivers that read their sweeps from the spec's factors.
    pub(crate) fn int_levels(&self, name: &str) -> Result<Vec<u64>, SpecError> {
        self.levels(name, "non-integer", |l| l.as_int().filter(|&n| n >= 0).map(|n| n as u64))
    }

    /// The text levels of factor `name`, in declaration order.
    pub(crate) fn text_levels(&self, name: &str) -> Result<Vec<String>, SpecError> {
        self.levels(name, "non-text", |l| l.as_text().map(str::to_string))
    }

    fn levels<T>(
        &self,
        name: &str,
        kind: &str,
        get: impl Fn(&Level) -> Option<T>,
    ) -> Result<Vec<T>, SpecError> {
        let f = self
            .factors
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| err(format!("spec lacks factor {name:?}")))?;
        f.levels
            .iter()
            .map(|l| get(l).ok_or_else(|| err(format!("factor {name:?} has a {kind} level"))))
            .collect()
    }
}

/// Substitutes `$name` string values from `params` through a table,
/// recursively.
fn substitute_table(table: &Table, params: &BTreeMap<String, Value>) -> Result<Table, SpecError> {
    let mut out = Table::default();
    for (key, item) in table.entries() {
        let item = match item {
            Item::Table(t) => Item::Table(substitute_table(t, params)?),
            Item::Value { value, line } => {
                Item::Value { value: substitute_value(value, params)?, line: *line }
            }
        };
        out.push(key.clone(), item);
    }
    Ok(out)
}

fn substitute_value(value: &Value, params: &BTreeMap<String, Value>) -> Result<Value, SpecError> {
    match value {
        Value::Str(s) => match s.strip_prefix('$') {
            Some(name) => params
                .get(name)
                .cloned()
                .ok_or_else(|| err(format!("unknown parameter ${name} (declare it in [params])"))),
            None => Ok(value.clone()),
        },
        Value::Array(items) => {
            let out: Result<Vec<Value>, SpecError> =
                items.iter().map(|v| substitute_value(v, params)).collect();
            Ok(Value::Array(out?))
        }
        other => Ok(other.clone()),
    }
}

/// Parses a (substituted) `[target]` table into a [`TargetSpec`].
fn parse_target(t: &Table) -> Result<TargetSpec, SpecError> {
    let model = t
        .value("model")
        .and_then(Value::as_str)
        .ok_or_else(|| err("[target] needs `model = \"network\" | \"memory\" | \"external\"`"))?;
    let opt_str = |key: &str| -> Result<Option<String>, SpecError> {
        match t.value(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| err(format!("[target] {key} must be a string"))),
        }
    };
    let known = |keys: &[&str]| -> Result<(), SpecError> {
        for (k, _) in t.values() {
            if k != "model" && !keys.contains(&k) {
                return Err(err(format!(
                    "[target] model \"{model}\" has unknown key {k:?} (expected {})",
                    keys.join("/")
                )));
            }
        }
        Ok(())
    };
    match model {
        "network" => {
            known(&["preset", "label"])?;
            let preset = opt_str("preset")?
                .ok_or_else(|| err("[target] model \"network\" needs `preset = \"...\"`"))?;
            Ok(TargetSpec::Network { preset, label: opt_str("label")? })
        }
        "memory" => {
            known(&["cpu", "governor", "sched", "alloc", "label"])?;
            let cpu = opt_str("cpu")?
                .ok_or_else(|| err("[target] model \"memory\" needs `cpu = \"...\"`"))?;
            Ok(TargetSpec::Memory {
                cpu,
                governor: opt_str("governor")?,
                sched: opt_str("sched")?,
                alloc: opt_str("alloc")?,
                label: opt_str("label")?,
            })
        }
        "external" => {
            known(&["program", "args", "timeout_ms", "label"])?;
            let program = opt_str("program")?
                .ok_or_else(|| err("[target] model \"external\" needs `program = \"...\"`"))?;
            let args = match t.value("args") {
                None => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| err("[target] args must be an array"))?
                    .iter()
                    .map(|a| match a {
                        // numeric args are fine — engines see strings anyway
                        Value::Str(s) => Ok(s.clone()),
                        Value::Int(n) => Ok(n.to_string()),
                        Value::Float(f) => Ok(f.to_string()),
                        other => Err(err(format!(
                            "[target] args entry {} must be a string",
                            other.render()
                        ))),
                    })
                    .collect::<Result<Vec<String>, SpecError>>()?,
            };
            let timeout_ms = match t.value("timeout_ms") {
                None => None,
                Some(v) => Some(
                    v.as_int()
                        .filter(|&n| n > 0)
                        .map(|n| n as u64)
                        .ok_or_else(|| err("[target] timeout_ms must be a positive integer"))?,
                ),
            };
            Ok(TargetSpec::External { program, args, timeout_ms, label: opt_str("label")? })
        }
        other => Err(err(format!(
            "[target] model {other:?} is not \"network\", \"memory\", or \"external\""
        ))),
    }
}

/// Parses one (substituted) `[factors.<name>]` table.
fn parse_factor(name: &str, t: &Table) -> Result<Factor, SpecError> {
    if let Some(v) = t.value("levels") {
        for (k, _) in t.values() {
            if k != "levels" {
                return Err(err(format!(
                    "[factors.{name}] mixes `levels` with {k:?} — explicit levels take no other keys"
                )));
            }
        }
        let items =
            v.as_array().ok_or_else(|| err(format!("[factors.{name}] levels must be an array")))?;
        if items.is_empty() {
            return Err(err(format!("[factors.{name}] has an empty level list")));
        }
        let levels: Vec<Level> = items.iter().map(value_to_level).collect();
        for level in &levels {
            if let Level::Text(text) = level {
                if let Some(c) = text.chars().find(|c| matches!(c, ',' | '\n' | '\r')) {
                    return Err(err(format!(
                        "[factors.{name}] level {text:?} contains {c:?}, which a CSV record \
                         row cannot carry"
                    )));
                }
            }
        }
        return Ok(Factor { name: name.to_string(), levels });
    }
    let generator = t.value("generator").and_then(Value::as_str).ok_or_else(|| {
        err(format!("[factors.{name}] needs `levels = [...]` or `generator = \"...\"`"))
    })?;
    let get_int = |key: &str| -> Result<i64, SpecError> {
        t.value(key).and_then(Value::as_int).ok_or_else(|| {
            err(format!("[factors.{name}] generator {generator:?} needs integer `{key}`"))
        })
    };
    match generator {
        "range" => {
            let levels = doe::range_levels(get_int("from")?, get_int("to")?, get_int("step")?)
                .ok_or_else(|| {
                    err(format!("[factors.{name}] range needs from <= to and step > 0"))
                })?;
            Ok(Factor { name: name.to_string(), levels })
        }
        "loguniform" | "loguniform_unique" => {
            let (min, max, count, gseed) =
                (get_int("min")?, get_int("max")?, get_int("count")?, get_int("seed")?);
            if min <= 0 || min > max || count <= 0 {
                return Err(err(format!(
                    "[factors.{name}] loguniform needs 0 < min <= max and count > 0"
                )));
            }
            if generator == "loguniform_unique" && count > max - min + 1 {
                return Err(err(format!(
                    "[factors.{name}] loguniform_unique range [{min}, {max}] cannot hold \
                     {count} distinct sizes"
                )));
            }
            let sizes = if generator == "loguniform_unique" {
                sampling::log_uniform_sizes_unique(
                    min as u64,
                    max as u64,
                    count as usize,
                    gseed as u64,
                )
            } else {
                sampling::log_uniform_sizes(min as u64, max as u64, count as usize, gseed as u64)
            };
            let levels = sizes.into_iter().map(|s| Level::Int(s as i64)).collect();
            Ok(Factor { name: name.to_string(), levels })
        }
        other => Err(err(format!(
            "[factors.{name}] generator {other:?} is not range/loguniform/loguniform_unique"
        ))),
    }
}

/// TOML values are typed, so the mapping onto design levels is direct
/// (no `Level::parse` guessing: `"true"` the string stays text).
fn value_to_level(v: &Value) -> Level {
    match v {
        Value::Int(n) => Level::Int(*n),
        Value::Float(f) => Level::Float(*f),
        Value::Bool(b) => Level::Flag(*b),
        Value::Str(s) => Level::Text(s.clone()),
        Value::Array(_) => Level::Text(v.render()), // rejected upstream in practice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[benchmark]
name = \"mini\"

[target]
model = \"network\"
preset = \"taurus\"

[factors.op]
levels = [\"a\", \"b\"]

[factors.size]
generator = \"range\"
from = 8
to = 24
step = 8

[design]
replicates = 2
order = \"randomized\"
";

    #[test]
    fn minimal_spec_resolves_to_a_shuffled_plan() {
        let spec = BenchmarkSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "mini");
        let r = spec.resolve(42, &[]).unwrap();
        assert_eq!(r.plan.factor_names(), ["op", "size"]);
        // 2 ops x 3 sizes x 2 replicates
        assert_eq!(r.plan.rows().len(), 12);
        assert_eq!(r.order_seed, Some(42));
        assert_eq!(r.replicates, 2);
        match &r.target {
            TargetSpec::Network { preset, label } => {
                assert_eq!(preset, "taurus");
                assert!(label.is_none());
            }
            other => panic!("wrong target {other:?}"),
        }
        // the shuffle is the same one Study::randomized would apply
        let resequenced = spec.resolve(43, &[]).unwrap();
        assert_ne!(
            r.plan.rows().first().map(|row| row.levels.clone()),
            resequenced.plan.rows().first().map(|row| row.levels.clone()),
        );
        // determinism: same seed, same plan
        let again = spec.resolve(42, &[]).unwrap();
        assert_eq!(r.plan.rows(), again.plan.rows());
    }

    #[test]
    fn params_substitute_and_overrides_apply() {
        let spec = BenchmarkSpec::parse(
            "[benchmark]\nname = \"p\"\n\
             [target]\nmodel = \"memory\"\ncpu = \"$cpu\"\n\
             [params]\ncpu = \"opteron\"\nn = 3\n\
             [factors.x]\ngenerator = \"loguniform_unique\"\nmin = 8\nmax = 65_536\ncount = \"$n\"\nseed = \"$seed\"\n",
        )
        .unwrap();
        let r = spec.resolve(7, &[]).unwrap();
        assert_eq!(
            r.params,
            vec![
                ("cpu".to_string(), "\"opteron\"".to_string()),
                ("n".to_string(), "3".to_string()),
                ("seed".to_string(), "7".to_string())
            ]
        );
        assert!(matches!(&r.target, TargetSpec::Memory { cpu, .. } if cpu == "opteron"));
        assert_eq!(r.plan.rows().len(), 3);
        // sizes come from the same sampler the figures use
        let expected = sampling::log_uniform_sizes_unique(8, 65_536, 3, 7);
        let got: Vec<i64> =
            r.plan.rows().iter().map(|row| row.levels[0].as_int().unwrap()).collect();
        assert_eq!(got, expected.iter().map(|&s| s as i64).collect::<Vec<i64>>());

        let r2 = spec.resolve(7, &[("n".to_string(), "5".to_string())]).unwrap();
        assert_eq!(r2.plan.rows().len(), 5);
        assert!(r2.params.contains(&("n".to_string(), "5".to_string())));

        let e = spec.resolve(7, &[("typo".to_string(), "1".to_string())]).unwrap_err();
        assert!(e.message.contains("typo"), "{e}");
        assert!(e.message.contains("cpu, n"), "{e}");
    }

    #[test]
    fn a_unique_size_count_its_range_cannot_hold_is_a_spec_error() {
        let spec = |count: u32| {
            BenchmarkSpec::parse(&format!(
                "[benchmark]\nname = \"u\"\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\
                 [factors.size]\ngenerator = \"loguniform_unique\"\nmin = 8\nmax = 16\n\
                 count = {count}\nseed = 1\n"
            ))
            .unwrap()
        };
        // [8, 16] holds exactly 9 distinct sizes
        let full = spec(9).resolve(1, &[]).unwrap();
        let mut sizes: Vec<i64> =
            full.plan.rows().iter().map(|r| r.levels[0].as_int().unwrap()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, (8..=16).collect::<Vec<i64>>());
        let e = spec(10).resolve(1, &[]).unwrap_err();
        assert!(e.message.contains("[factors.size]"), "{e}");
        assert!(e.message.contains("[8, 16] cannot hold 10 distinct sizes"), "{e}");
    }

    #[test]
    fn external_target_and_tool_tables() {
        let spec = BenchmarkSpec::parse(
            "[benchmark]\nname = \"ext\"\n\
             [target]\nmodel = \"external\"\nprogram = \"./engine\"\nargs = [\"--seed\", 9]\ntimeout_ms = 500\n\
             [factors.size]\nlevels = [64, 128]\n\
             [analysis]\nbreakpoints = [32_768, 131_072]\n\
             [tool]\nnloops = 600\n",
        )
        .unwrap();
        let r = spec.resolve(1, &[]).unwrap();
        match &r.target {
            TargetSpec::External { program, args, timeout_ms, label } => {
                assert_eq!(program, "./engine");
                assert_eq!(args, &["--seed".to_string(), "9".to_string()]);
                assert_eq!(*timeout_ms, Some(500));
                assert!(label.is_none());
            }
            other => panic!("wrong target {other:?}"),
        }
        assert_eq!(
            ResolvedBenchmark::u64_array(&r.analysis, "breakpoints").unwrap(),
            vec![32_768, 131_072]
        );
        assert_eq!(ResolvedBenchmark::u64_value(&r.tool, "nloops").unwrap(), 600);
        // no [design] table: one replicate, declared order
        assert_eq!(r.plan.rows().len(), 2);
        assert_eq!(r.order_seed, None);
    }

    #[test]
    fn factor_levels_read_as_typed_sweeps() {
        let r = BenchmarkSpec::parse(MINIMAL).unwrap().resolve(1, &[]).unwrap();
        assert_eq!(r.int_levels("size").unwrap(), vec![8, 16, 24]);
        assert_eq!(r.text_levels("op").unwrap(), vec!["a", "b"]);
        let missing = r.int_levels("stride").unwrap_err();
        assert!(missing.message.contains("lacks factor \"stride\""), "{missing}");
        let wrong = r.int_levels("op").unwrap_err();
        assert!(wrong.message.contains("non-integer"), "{wrong}");
        assert!(r.text_levels("size").unwrap_err().message.contains("non-text"));
    }

    #[test]
    fn levels_keep_their_toml_types() {
        let spec = BenchmarkSpec::parse(
            "[benchmark]\nname = \"t\"\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\
             [factors.mix]\nlevels = [1, 2.5, \"eager\", true]\n",
        )
        .unwrap();
        let r = spec.resolve(0, &[]).unwrap();
        let got: Vec<Level> = r.plan.rows().iter().map(|row| row.levels[0].clone()).collect();
        assert_eq!(
            got,
            vec![Level::Int(1), Level::Float(2.5), Level::Text("eager".into()), Level::Flag(true)]
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (src, needle) in [
            ("x = 1\n", "[benchmark]"),
            ("[benchmark]\nname = \"x\"\n", "[target]"),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"network\"\npreset = \"t\"\n",
                "[factors",
            ),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"quantum\"\n[factors.a]\nlevels = [1]\n",
                "quantum",
            ),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"network\"\npreset = \"t\"\nbogus = 1\n[factors.a]\nlevels = [1]\n",
                "unknown key \"bogus\"",
            ),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"network\"\npreset = \"t\"\n[factors.a]\nlevels = []\n",
                "empty level list",
            ),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"network\"\npreset = \"t\"\n[factors.a]\ngenerator = \"fancy\"\n",
                "fancy",
            ),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"network\"\npreset = \"t\"\n[factors.a]\nlevels = [1]\n[design]\norder = \"alphabetical\"\n",
                "alphabetical",
            ),
            (
                "[benchmark]\nname = \"x\"\n[target]\nmodel = \"network\"\npreset = \"t\"\n[factors.a]\nlevels = [\"$gone\"]\n",
                "unknown parameter $gone",
            ),
            (
                "[benchmark]\nname = \"x\"\n[params]\nseed = 1\n[target]\nmodel = \"network\"\npreset = \"t\"\n[factors.a]\nlevels = [1]\n",
                "must not declare `seed`",
            ),
        ] {
            let e = BenchmarkSpec::parse(src).and_then(|s| s.resolve(0, &[])).unwrap_err();
            assert!(e.message.contains(needle), "{src:?} gave: {e}");
        }
        // toml-level errors surface with line numbers
        let e = BenchmarkSpec::parse("[benchmark\n").unwrap_err();
        assert!(e.message.contains("line 1"), "{e}");
    }

    #[test]
    fn text_levels_a_csv_row_cannot_carry_are_rejected() {
        let spec = |levels: &str| {
            format!(
                "[benchmark]\nname = \"x\"\n[params]\ntag = \"ok\"\n\
                 [target]\nmodel = \"network\"\npreset = \"taurus\"\n\
                 [factors.tag]\nlevels = {levels}\n"
            )
        };
        for (levels, shown) in
            [(r#"["a,b", "c"]"#, r#""a,b""#), (r#"["c", "line\nbreak"]"#, r#""line\nbreak""#)]
        {
            let e = BenchmarkSpec::parse(&spec(levels)).unwrap().resolve(0, &[]).unwrap_err();
            assert!(e.message.contains("[factors.tag] level ") && e.message.contains(shown), "{e}");
            assert!(e.message.contains("cannot carry"), "{e}");
        }
        // A parameter substituted into a level is checked after substitution.
        let parsed = BenchmarkSpec::parse(&spec(r#"["$tag"]"#)).unwrap();
        assert!(parsed.resolve(0, &[]).is_ok());
        let e = parsed.resolve(0, &[("tag".into(), "x,y".into())]).unwrap_err();
        assert!(e.message.contains(r#"level "x,y" contains ','"#), "{e}");
        let e = parsed.resolve(0, &[("tag".into(), "cr\rhere".into())]).unwrap_err();
        assert!(e.message.contains(r#"level "cr\rhere" contains '\r'"#), "{e}");
    }

    #[test]
    fn a_design_whose_row_count_overflows_usize_is_refused() {
        // 65536^4 = 2^64 rows: one more than usize holds on 64-bit hosts
        let factors = ["a", "b", "c", "d"]
            .map(|f| {
                format!("[factors.{f}]\ngenerator = \"range\"\nfrom = 1\nto = 65536\nstep = 1\n")
            })
            .concat();
        let spec = BenchmarkSpec::parse(&format!(
            "[benchmark]\nname = \"huge\"\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n{factors}"
        ))
        .unwrap();
        let e = spec.resolve(0, &[]).unwrap_err();
        assert!(
            e.message.starts_with("factor expansion failed: ") && e.message.contains("rows"),
            "{e}"
        );
    }

    #[test]
    fn dsl_lowers_into_the_same_representation() {
        let r = ResolvedBenchmark::from_dsl(
            "factor op in [a, b]\nfactor size from 8 to 24 step 8\nreplicates 2\norder randomized 42\n",
            "taurus",
        )
        .unwrap();
        let twin = BenchmarkSpec::parse(MINIMAL).unwrap().resolve(42, &[]).unwrap();
        assert_eq!(r.plan, twin.plan);
        assert_eq!(r.factors, twin.factors);
        assert_eq!((r.replicates, r.order_seed), (2, Some(42)));
        assert_eq!(r.target, twin.target);
        assert_eq!(r.name, "taurus");
        assert!(r.params.is_empty() && r.analysis.values().next().is_none());

        let dsl = "factor x in [2, 1]\norder sequential\n";
        let sequential = ResolvedBenchmark::from_dsl(dsl, "i7").unwrap();
        assert_eq!(sequential.order_seed, None);
        assert!(matches!(&sequential.target, TargetSpec::Memory { cpu, .. } if cpu == "i7"));

        let e = ResolvedBenchmark::from_dsl("factor x in [1]\nbogus\n", "taurus").unwrap_err();
        assert_eq!(e.message, "DSL error: line 2: unknown statement \"bogus\"");
        let e = ResolvedBenchmark::from_dsl("factor x in [1]\n", "plan9").unwrap_err();
        assert!(e.message.contains("\"plan9\"") && e.message.contains("pentium4"), "{e}");
    }

    #[test]
    fn dollar_is_literal_unless_exact_prefix_form() {
        let spec = BenchmarkSpec::parse(
            "[benchmark]\nname = \"d\"\n[target]\nmodel = \"network\"\npreset = \"taurus\"\n\
             [factors.a]\nlevels = [\"cost is 5$ total\"]\n",
        )
        .unwrap();
        let r = spec.resolve(0, &[]).unwrap();
        assert_eq!(r.plan.rows()[0].levels[0], Level::Text("cost is 5$ total".into()));
    }
}

//! The engine's perf trajectory: a schema-versioned `BENCH_engine.json`
//! plus the regression gate CI runs against the committed baseline.
//!
//! "Towards a Statistical Methodology to Evaluate Program Speedups"
//! (Touati et al., see PAPERS.md) argues that speedup claims need
//! statistically gated measurement — of the measuring tool as much as of
//! the system under test. [`EngineBench`] is that record for the charm
//! engine: every stage's **median-of-N** wall time (medians, not minima,
//! so a single lucky run cannot mask a regression), shard speedups and
//! utilization, records/sec, profile-cache hit rates, work-stealing
//! scheduler tallies, and the analysis-pass timings — one report, one
//! tag ([`SCHEMA`]). `bench_campaign_summary` emits it; [`compare`] and
//! [`absolute_failures`] are the gate.
//!
//! Metric-name conventions drive the gate:
//!
//! * `*_s` — seconds, lower is better; gated.
//! * `*_per_sec` — throughput, higher is better; gated.
//! * everything else (e.g. `*_utilization`) — informational only.
//!
//! Tiny absolute times are noise-dominated, so timings where both sides
//! sit under the floor are never flagged. The same reasoning extends to
//! throughput: a `X.*_per_sec` metric whose sibling `X.sequential_s`
//! sits under the floor on both sides was derived from a sub-floor
//! timing and is downgraded to informational too.

use charm_obs::json;
use std::collections::BTreeMap;
use std::fmt;

/// The schema tag of the engine perf report (`BENCH_engine.json`), the
/// only tag [`EngineBench::from_json`] accepts.
pub const SCHEMA: &str = "charm-bench-engine/1";

/// Minimum memory-campaign speedup at 4 shards required of a candidate
/// that ran on ≥ 4 cores (see [`absolute_failures`]).
pub const SHARD4_MIN_SPEEDUP: f64 = 2.5;

/// Minimum shard-pool utilization at 4 shards required of a candidate
/// that ran on ≥ 4 cores (see [`absolute_failures`]).
pub const SHARD4_MIN_UTILIZATION: f64 = 0.8;

/// Default relative regression threshold: fail when a gated metric is
/// more than 25 % worse than the baseline.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Default absolute floor (seconds) under which `*_s` timings are too
/// noise-dominated to gate.
pub const DEFAULT_FLOOR_S: f64 = 0.005;

/// One engine benchmark report, always tagged [`SCHEMA`]: the
/// measurement configuration that produced it plus a flat map of named
/// metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineBench {
    /// The configuration knobs the numbers depend on (`rows`, `quick`,
    /// `shards`, `repeats`, …). [`compare`] refuses to gate reports with
    /// different configurations — comparing a 6000-row run against a
    /// 900-row baseline would be exactly the apples-to-oranges pitfall
    /// the paper catalogues.
    pub config: BTreeMap<String, String>,
    /// Dot-namespaced metric values (`engine.net.sequential_s`, …).
    pub metrics: BTreeMap<String, f64>,
}

impl EngineBench {
    /// An empty report.
    pub fn new() -> Self {
        EngineBench::default()
    }

    /// Sets a configuration knob (chainable).
    pub fn config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.insert(key.to_string(), value.to_string());
        self
    }

    /// Sets a metric (chainable). Non-finite values are stored as 0,
    /// matching the JSONL convention.
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_string(), if value.is_finite() { value } else { 0.0 });
        self
    }

    /// Serializes the report: stable key order, one field per line, so
    /// the committed baseline diffs cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::string(SCHEMA)));
        out.push_str("  \"config\": {\n");
        for (i, (k, v)) in self.config.iter().enumerate() {
            let comma = if i + 1 < self.config.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{comma}\n", json::string(k), json::string(v)));
        }
        out.push_str("  },\n");
        out.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{comma}\n", json::string(k), json::number(*v)));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report, rejecting any tag but [`SCHEMA`] so a gate never
    /// silently compares incompatible trajectories. The error
    /// distinguishes [`ParseError::SchemaMismatch`] (a report from an
    /// incompatible writer — regenerate it) from
    /// [`ParseError::Malformed`] (not a report at all), so callers can
    /// exit differently for each.
    pub fn from_json(text: &str) -> Result<EngineBench, ParseError> {
        let obj = json::parse_object(text).map_err(ParseError::Malformed)?;
        match obj.get_str("schema") {
            Some(SCHEMA) => {}
            found => return Err(ParseError::SchemaMismatch { found: found.map(str::to_string) }),
        }
        let mut bench = EngineBench::new();
        match obj.get("config") {
            Some(json::Value::Map(m)) => {
                for (k, v) in m {
                    match v {
                        json::Value::Str(s) => {
                            bench.config.insert(k.clone(), s.clone());
                        }
                        _ => {
                            return Err(ParseError::Malformed(format!(
                                "config {k:?} is not a string"
                            )))
                        }
                    }
                }
            }
            _ => return Err(ParseError::Malformed("missing \"config\" object".to_string())),
        }
        match obj.get("metrics") {
            Some(json::Value::Map(m)) => {
                for (k, v) in m {
                    match v {
                        json::Value::Num(raw) => {
                            let x = raw
                                .parse::<f64>()
                                .map_err(|e| ParseError::Malformed(format!("metric {k:?}: {e}")))?;
                            bench.metrics.insert(k.clone(), x);
                        }
                        _ => {
                            return Err(ParseError::Malformed(format!(
                                "metric {k:?} is not a number"
                            )))
                        }
                    }
                }
            }
            _ => return Err(ParseError::Malformed("missing \"metrics\" object".to_string())),
        }
        Ok(bench)
    }
}

/// Why a report failed [`EngineBench::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The text is a JSON object but carries an unknown (or no) schema
    /// tag: a report from an incompatible writer version, not corrupt
    /// data. The fix is regenerating the report, not editing it.
    SchemaMismatch {
        /// The schema tag found, if any.
        found: Option<String>,
    },
    /// The text is not a well-formed report at all.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::SchemaMismatch { found: Some(other) } => {
                write!(f, "unsupported schema {other:?} (this gate reads {SCHEMA:?})")
            }
            ParseError::SchemaMismatch { found: None } => {
                write!(f, "missing \"schema\" tag (this gate reads {SCHEMA:?})")
            }
            ParseError::Malformed(why) => write!(f, "malformed report: {why}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// How the gate judged one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// Within threshold (or improved).
    Ok,
    /// Worse than baseline by more than the threshold.
    Regressed,
    /// Not gated: informational metric, under the noise floor, or
    /// missing from one side.
    Informational,
}

/// One metric's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` if the metric is new).
    pub baseline: Option<f64>,
    /// Candidate value (`None` if the metric disappeared).
    pub candidate: Option<f64>,
    /// candidate ÷ baseline (`None` when either side is missing or the
    /// baseline is 0).
    pub ratio: Option<f64>,
    /// The verdict.
    pub judgement: Judgement,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:>12.6}"),
            None => format!("{:>12}", "-"),
        };
        let ratio = match self.ratio {
            Some(r) => format!("{r:>6.2}x"),
            None => format!("{:>7}", "-"),
        };
        let verdict = match self.judgement {
            Judgement::Ok => "ok",
            Judgement::Regressed => "REGRESSED",
            Judgement::Informational => "info",
        };
        write!(
            f,
            "{:<34} {} {} {ratio}  {verdict}",
            self.metric,
            fmt_opt(self.baseline),
            fmt_opt(self.candidate)
        )
    }
}

/// A configuration mismatch that makes two reports incomparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateError(pub String);

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regression gate cannot compare reports: {}", self.0)
    }
}

impl std::error::Error for GateError {}

/// Whether a metric's value is tied to the machine's core count rather
/// than the code: per-shard timings/utilizations and the scheduler's
/// own diagnostics. When baseline and candidate ran on machines with
/// different `cores`, these compare apples to oranges and are
/// downgraded to informational.
fn core_bound(name: &str) -> bool {
    name.contains("shard") || name.starts_with("engine.scheduler.")
}

/// Compares `candidate` against `baseline` metric by metric.
///
/// `threshold` is the relative slack (0.25 = fail at >25 % worse);
/// `floor_s` is the absolute floor below which `*_s` timings are not
/// gated. Returns every comparison (for the report table); the run
/// regressed iff any [`Judgement::Regressed`] is present. Errs when the
/// configurations differ — regenerate the baseline instead of comparing
/// different experiments.
///
/// Core-awareness: when the two reports' `cores` metrics differ (the
/// baseline was generated on a different machine shape), every
/// core-bound metric — names containing `shard` or under
/// `engine.scheduler.` — is downgraded to informational, because shard
/// speedups on a 1-core runner say nothing about a 4-core baseline.
pub fn compare(
    candidate: &EngineBench,
    baseline: &EngineBench,
    threshold: f64,
    floor_s: f64,
) -> Result<Vec<Comparison>, GateError> {
    if candidate.config != baseline.config {
        let keys: std::collections::BTreeSet<&String> =
            candidate.config.keys().chain(baseline.config.keys()).collect();
        let diffs: Vec<String> = keys
            .into_iter()
            .filter(|k| candidate.config.get(*k) != baseline.config.get(*k))
            .map(|k| {
                format!(
                    "{k}: baseline {:?} vs candidate {:?}",
                    baseline.config.get(k),
                    candidate.config.get(k)
                )
            })
            .collect();
        return Err(GateError(format!("config mismatch ({})", diffs.join(", "))));
    }
    let names: std::collections::BTreeSet<&String> =
        candidate.metrics.keys().chain(baseline.metrics.keys()).collect();
    // A throughput metric inherits the floor of the timing it came from:
    // `X.records_per_sec` is `rows ÷ X.sequential_s`, so when that
    // timing is under the floor on both sides the rate is noise too.
    let rate_is_sub_floor = |name: &str| -> bool {
        let Some(prefix) = name.rfind('.').map(|i| &name[..i]) else {
            return false;
        };
        let sibling = format!("{prefix}.sequential_s");
        match (baseline.metrics.get(&sibling), candidate.metrics.get(&sibling)) {
            (Some(&b), Some(&c)) => b < floor_s && c < floor_s,
            _ => false,
        }
    };
    let cores_differ = baseline.metrics.get("cores") != candidate.metrics.get("cores");
    let mut out = Vec::new();
    for name in names {
        let base = baseline.metrics.get(name).copied();
        let cand = candidate.metrics.get(name).copied();
        let ratio = match (base, cand) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        };
        let judgement = if cores_differ && core_bound(name) {
            Judgement::Informational
        } else {
            match (base, cand, ratio) {
                (Some(b), Some(c), Some(r)) if name.ends_with("_s") => {
                    if b < floor_s && c < floor_s {
                        Judgement::Informational // both under the noise floor
                    } else if r > 1.0 + threshold {
                        Judgement::Regressed
                    } else {
                        Judgement::Ok
                    }
                }
                (Some(_), Some(_), Some(r)) if name.ends_with("_per_sec") => {
                    if rate_is_sub_floor(name) {
                        Judgement::Informational
                    } else if r < 1.0 / (1.0 + threshold) {
                        Judgement::Regressed
                    } else {
                        Judgement::Ok
                    }
                }
                _ => Judgement::Informational,
            }
        };
        out.push(Comparison {
            metric: name.clone(),
            baseline: base,
            candidate: cand,
            ratio,
            judgement,
        });
    }
    Ok(out)
}

/// Whether any comparison regressed.
pub fn regressed(comparisons: &[Comparison]) -> bool {
    comparisons.iter().any(|c| c.judgement == Judgement::Regressed)
}

/// Core-aware absolute requirements on a candidate report, independent
/// of any baseline: on a machine with ≥ 4 cores, the work-stealing
/// scheduler must deliver at least [`SHARD4_MIN_SPEEDUP`] on the memory
/// campaign at 4 shards with at least [`SHARD4_MIN_UTILIZATION`]
/// shard-pool utilization. On narrower runners (CI frequently has 2
/// cores) the speedup is physically unattainable and the checks are
/// skipped — the `cores` metric in the report records why. Quick-mode
/// reports (`config.quick = "true"`) are also exempt: a sub-millisecond
/// smoke campaign is dominated by thread spawn/join overhead and says
/// nothing about scheduler throughput.
///
/// Returns one message per violated requirement; empty = pass.
pub fn absolute_failures(candidate: &EngineBench) -> Vec<String> {
    let cores = candidate.metrics.get("cores").copied().unwrap_or(1.0);
    if cores < 4.0 || candidate.config.get("quick").map(String::as_str) == Some("true") {
        return Vec::new();
    }
    let mut failures = Vec::new();
    let mut require = |metric: &str, min: f64| {
        if let Some(&v) = candidate.metrics.get(metric) {
            if v < min {
                failures.push(format!("{metric} = {v:.3} < required {min} (cores = {cores})"));
            }
        }
    };
    require("engine.mem.shard4_speedup", SHARD4_MIN_SPEEDUP);
    require("engine.mem.shard4_utilization", SHARD4_MIN_UTILIZATION);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineBench {
        EngineBench::new()
            .config("rows", 900)
            .config("quick", true)
            .metric("engine.net.sequential_s", 0.120)
            .metric("engine.net.records_per_sec", 7500.0)
            .metric("engine.net.shard2_utilization", 0.95)
            .metric("analysis.segment_s", 0.030)
            .metric("analysis.tiny_s", 0.0001)
    }

    #[test]
    fn json_round_trips() {
        let b = sample();
        let text = b.to_json();
        let parsed = EngineBench::from_json(&text).expect("parse");
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json(), text, "serialize→parse→serialize must be identical");
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(matches!(EngineBench::from_json("junk"), Err(ParseError::Malformed(_))));
        assert_eq!(
            EngineBench::from_json("{\"schema\":\"other/9\",\"config\":{},\"metrics\":{}}"),
            Err(ParseError::SchemaMismatch { found: Some("other/9".to_string()) })
        );
        assert_eq!(
            EngineBench::from_json("{\"config\":{},\"metrics\":{}}"),
            Err(ParseError::SchemaMismatch { found: None })
        );
        // The retired campaign summary shares the format but not the tag.
        assert_eq!(
            EngineBench::from_json(
                "{\"schema\":\"charm-bench-campaign/1\",\"config\":{},\"metrics\":{}}"
            ),
            Err(ParseError::SchemaMismatch { found: Some("charm-bench-campaign/1".to_string()) })
        );
        let schema = json::string(SCHEMA);
        assert!(matches!(
            EngineBench::from_json(&format!("{{\"schema\":{schema},\"metrics\":{{}}}}")),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            EngineBench::from_json(&format!(
                "{{\"schema\":{schema},\"config\":{{}},\"metrics\":{{\"k\":\"str\"}}}}"
            )),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn parse_errors_name_the_expected_schema() {
        let e = EngineBench::from_json("{\"schema\":\"other/9\",\"config\":{},\"metrics\":{}}")
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("other/9") && msg.contains(SCHEMA), "{msg}");
        let e = EngineBench::from_json("{\"config\":{},\"metrics\":{}}").unwrap_err();
        assert!(e.to_string().contains(SCHEMA));
    }

    #[test]
    fn identical_reports_pass() {
        let b = sample();
        let cmp = compare(&b, &b, DEFAULT_THRESHOLD, DEFAULT_FLOOR_S).expect("comparable");
        assert!(!regressed(&cmp));
        assert!(cmp.iter().all(|c| c.judgement != Judgement::Regressed));
    }

    #[test]
    fn slow_timing_regresses_fast_timing_passes() {
        let base = sample();
        let slow = sample().metric("engine.net.sequential_s", 0.120 * 1.30);
        let cmp = compare(&slow, &base, 0.25, DEFAULT_FLOOR_S).unwrap();
        assert!(regressed(&cmp));
        let fast = sample().metric("engine.net.sequential_s", 0.120 * 1.20);
        assert!(!regressed(&compare(&fast, &base, 0.25, DEFAULT_FLOOR_S).unwrap()));
        let improved = sample().metric("engine.net.sequential_s", 0.05);
        assert!(!regressed(&compare(&improved, &base, 0.25, DEFAULT_FLOOR_S).unwrap()));
    }

    #[test]
    fn throughput_gates_in_the_other_direction() {
        let base = sample();
        let worse = sample().metric("engine.net.records_per_sec", 7500.0 / 1.30);
        assert!(regressed(&compare(&worse, &base, 0.25, DEFAULT_FLOOR_S).unwrap()));
        let better = sample().metric("engine.net.records_per_sec", 9000.0);
        assert!(!regressed(&compare(&better, &base, 0.25, DEFAULT_FLOOR_S).unwrap()));
    }

    #[test]
    fn sub_floor_timings_and_info_metrics_never_gate() {
        let base = sample();
        // 3x slower but both sides under the 5 ms floor: noise, not signal
        let noisy = sample().metric("analysis.tiny_s", 0.0003);
        let cmp = compare(&noisy, &base, 0.25, DEFAULT_FLOOR_S).unwrap();
        assert!(!regressed(&cmp));
        // utilization is informational even when it collapses
        let lazy = sample().metric("engine.net.shard2_utilization", 0.10);
        assert!(!regressed(&compare(&lazy, &base, 0.25, DEFAULT_FLOOR_S).unwrap()));
    }

    #[test]
    fn rates_derived_from_sub_floor_timings_do_not_gate() {
        // engine.tiny.sequential_s under the floor on both sides: its
        // throughput sibling is noise and must not gate, however bad.
        let base = sample()
            .metric("engine.tiny.sequential_s", 0.0002)
            .metric("engine.tiny.records_per_sec", 100_000.0);
        let cand = sample()
            .metric("engine.tiny.sequential_s", 0.0004)
            .metric("engine.tiny.records_per_sec", 50_000.0);
        assert!(!regressed(&compare(&cand, &base, 0.25, DEFAULT_FLOOR_S).unwrap()));
        // but a rate whose timing is above the floor still gates
        let slow = sample().metric("engine.net.records_per_sec", 7500.0 / 1.3);
        let mut with_timing = sample().metric("engine.net.records_per_sec", 7500.0);
        with_timing.metrics.insert("engine.net.sequential_s".into(), 0.120);
        assert!(regressed(&compare(&slow, &with_timing, 0.25, DEFAULT_FLOOR_S).unwrap()));
    }

    #[test]
    fn new_and_vanished_metrics_are_informational() {
        let base = sample();
        let cand = sample().metric("engine.brand_new_s", 9.9);
        let mut missing = sample();
        missing.metrics.remove("analysis.segment_s");
        for c in [cand, missing] {
            let cmp = compare(&c, &base, 0.25, DEFAULT_FLOOR_S).unwrap();
            assert!(!regressed(&cmp));
        }
    }

    #[test]
    fn config_mismatch_is_an_error() {
        let base = sample();
        let other = sample().config("rows", 6000);
        let err = compare(&other, &base, 0.25, DEFAULT_FLOOR_S).unwrap_err();
        assert!(err.to_string().contains("rows"));
    }

    #[test]
    fn core_bound_metrics_downgrade_when_cores_differ() {
        let base = sample().metric("cores", 4.0).metric("engine.net.shard4_s", 0.030);
        // Same code, narrower machine: shard timing collapses but must
        // not gate; the machine-independent sequential timing still does.
        let narrow = sample()
            .metric("cores", 1.0)
            .metric("engine.net.shard4_s", 0.120)
            .metric("engine.net.sequential_s", 0.120 * 1.5);
        let cmp = compare(&narrow, &base, 0.25, DEFAULT_FLOOR_S).unwrap();
        let shard = cmp.iter().find(|c| c.metric == "engine.net.shard4_s").unwrap();
        assert_eq!(shard.judgement, Judgement::Informational);
        let seq = cmp.iter().find(|c| c.metric == "engine.net.sequential_s").unwrap();
        assert_eq!(seq.judgement, Judgement::Regressed);
        // Same cores on both sides: the shard timing gates again.
        let same = sample().metric("cores", 4.0).metric("engine.net.shard4_s", 0.060);
        let cmp = compare(&same, &base, 0.25, DEFAULT_FLOOR_S).unwrap();
        let shard = cmp.iter().find(|c| c.metric == "engine.net.shard4_s").unwrap();
        assert_eq!(shard.judgement, Judgement::Regressed);
    }

    #[test]
    fn absolute_requirements_apply_only_on_wide_machines() {
        // 1-core runner: a 1.0x "speedup" is expected, not a failure.
        let narrow = sample()
            .metric("cores", 1.0)
            .metric("engine.mem.shard4_speedup", 1.0)
            .metric("engine.mem.shard4_utilization", 0.2);
        assert!(absolute_failures(&narrow).is_empty());
        // 4-core runner delivering the contract: pass.
        let good = sample()
            .config("quick", false)
            .metric("cores", 4.0)
            .metric("engine.mem.shard4_speedup", 3.1)
            .metric("engine.mem.shard4_utilization", 0.93);
        assert!(absolute_failures(&good).is_empty());
        // 4-core runner falling short on both: two failures, each naming
        // its metric.
        let bad = sample()
            .config("quick", false)
            .metric("cores", 8.0)
            .metric("engine.mem.shard4_speedup", 1.4)
            .metric("engine.mem.shard4_utilization", 0.5);
        let failures = absolute_failures(&bad);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("engine.mem.shard4_speedup"));
        assert!(failures[1].contains("engine.mem.shard4_utilization"));
        // The same shortfall in a quick-mode smoke is exempt: the plan
        // is too small for thread overhead to amortize.
        let quick_bad = sample()
            .metric("cores", 8.0)
            .metric("engine.mem.shard4_speedup", 1.4)
            .metric("engine.mem.shard4_utilization", 0.5);
        assert!(absolute_failures(&quick_bad).is_empty());
        // Reports without the metrics (e.g. a network-only report) make
        // no absolute claims.
        let silent = sample().config("quick", false).metric("cores", 8.0);
        assert!(absolute_failures(&silent).is_empty());
    }

    #[test]
    fn comparison_renders_a_table_line() {
        let base = sample();
        let slow = sample().metric("analysis.segment_s", 1.0);
        let cmp = compare(&slow, &base, 0.25, DEFAULT_FLOOR_S).unwrap();
        let line = cmp.iter().find(|c| c.metric == "analysis.segment_s").unwrap().to_string();
        assert!(line.contains("REGRESSED"), "{line}");
    }
}

//! The benchmark's own tests: the percentile rule, the name grammar,
//! the result line's round trip, agreement with `BENCHMARK.json`, and a
//! tiny run of every workload emitting exactly the declared metrics.

use charm_perf::metrics::{valid_name, E2E, PER_LAYER, WORKLOADS};
use charm_perf::output::{Json, Metric, Output};
use charm_perf::stats::{percentile, MIN_TAIL};
use charm_perf::{run_workload, Config, Expected, Sizes};
use std::collections::BTreeSet;
use std::path::PathBuf;

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.9), Some(90.0));
    assert_eq!(percentile(&xs, 0.5), Some(50.0));
    assert_eq!(percentile(&xs[..99], 0.9), None, "99 samples leave 9 beyond p90");
    assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
    assert_eq!(percentile(&xs[..19], 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
    // order does not matter
    let mut rev = xs.clone();
    rev.reverse();
    assert_eq!(percentile(&rev, 0.9), Some(90.0));
    assert_eq!(MIN_TAIL, 10);
}

#[test]
fn names_follow_the_grammar() {
    for ok in ["a", "op_p50_ms", "engine.scheduler.steals", "serve.admit_ms_p50.engine", "9x-y"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", ".lead", "_lead", "-lead", "sp ace", "uni/t", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad}");
    }
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(E2E.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is declared twice");
    }
}

#[test]
fn result_line_round_trips() {
    let out = Output {
        correct: true,
        attempted: 131,
        failed: 2,
        metrics: vec![
            Metric { name: "op_p50_ms".into(), value: 131.20000000000002, unit: "ms".into() },
            Metric { name: "ops_per_s".into(), value: 7.62, unit: "1/s".into() },
            Metric { name: "tiny".into(), value: 1.5e-9, unit: "ratio".into() },
            Metric { name: "zero".into(), value: 0.0, unit: "count".into() },
        ],
    };
    let line = out.render();
    assert!(!line.contains('\n'));
    assert_eq!(Output::parse(&line).unwrap(), out);
    for bad in [
        "",
        "{",
        "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
        "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} trailing",
    ] {
        assert!(Output::parse(bad).is_err(), "{bad}");
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: {other:?}"),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(w.keys(), ["name", "why"]);
        assert_eq!((text(w, "name"), text(w, "why")), (*name, *why));
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), E2E.len());
    for (j, m) in e2e.iter().zip(E2E) {
        assert_eq!(j.keys(), ["name", "unit", "better", "bound"]);
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.as_str());
        assert_eq!(j.get("bound"), Some(&Json::Num(m.bound)));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let layers = entries(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(j.keys(), ["name", "unit", "better"]);
        assert_eq!(
            (text(j, "name"), text(j, "unit"), text(j, "better")),
            (m.name, m.unit, m.better.as_str())
        );
    }
    let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    assert!(E2E.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
}

fn tiny(trace: bool, tag: &str) -> Config {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{tag}"));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    Config {
        seed: 5,
        seconds: 0.05,
        trace,
        sizes: Sizes::tiny(),
        trace_out: trace.then(|| scratch.join("trace.json")),
        scratch,
        expected: Expected::Skip,
    }
}

/// One test, not four: the reproduce workload sets `CHARM_SHARDS` for
/// the whole process, so the workloads must not run concurrently.
#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let mut measured: BTreeSet<&str> = BTreeSet::new();
    for (name, _) in WORKLOADS {
        let cfg = tiny(false, name);
        let plain = run_workload(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        assert!(plain.output.correct, "{name}: output checks failed");
        assert!(plain.output.attempted >= 1);
        assert_eq!(plain.output.failed, 0, "{name}");
        let got: Vec<&str> = plain.output.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{name}: end-to-end metrics");
        for m in &plain.output.metrics {
            assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
        let line = plain.output.render();
        assert_eq!(Output::parse(&line).unwrap(), plain.output);

        let cfg = tiny(true, &format!("{name}-traced"));
        let traced = run_workload(name, &cfg).unwrap_or_else(|e| panic!("{name} traced: {e}"));
        assert!(traced.output.correct, "{name} traced: output checks failed");
        let got: Vec<&str> = traced.output.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{name}: per-layer metrics");
        for m in &traced.output.metrics {
            if !traced.bypassed.contains(&m.name.as_str()) {
                measured.insert(PER_LAYER.iter().find(|d| d.name == m.name).unwrap().name);
            }
        }
        let trace = std::fs::read_to_string(cfg.trace_out.as_ref().unwrap()).unwrap();
        assert!(Json::parse(&trace).is_ok(), "{name}: trace file is JSON");
        let _ = std::fs::remove_dir_all(&cfg.scratch);
    }
    let never: Vec<&str> =
        PER_LAYER.iter().map(|m| m.name).filter(|n| !measured.contains(n)).collect();
    assert!(never.is_empty(), "no workload measures {never:?}");
}

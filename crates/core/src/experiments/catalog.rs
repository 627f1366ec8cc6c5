//! The one list of reproduction experiments.
//!
//! One entry per table/figure (and per extension experiment), carrying
//! its identifiers, the paper reference, the regenerator binary, the
//! headline claim, the artifacts it writes and the function that runs
//! it. `all_figures` iterates this table and every per-figure binary
//! runs its entry through the same `charm_bench` driver, so the binaries
//! and the refresh path cannot drift apart.

use super::{
    convolution, fig03, fig04, fig07, fig08, fig09, fig10, fig11, fig12, fig13, pchase, table05,
};
use crate::error::CharmError;
use charm_obs::CampaignReport;

/// The spec a spec-driven entry runs: `text` replaces its embedded
/// design (`--benchmark PATH`) and `params` override that design's
/// `[params]` (`--param NAME=VALUE`). The default runs the embedded spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecArgs {
    /// Replacement spec text, when given.
    pub text: Option<String>,
    /// `[params]` overrides, in order.
    pub params: Vec<(String, String)>,
}

impl SpecArgs {
    /// The overrides after `--quick`'s `(name, value)`, if any: the later
    /// value wins, so an explicit `--param` of the same name overrides it.
    fn params(&self, quick: Option<(&str, &str)>) -> Vec<(String, String)> {
        let quick = quick.map(|(k, v)| (k.to_string(), v.to_string()));
        quick.into_iter().chain(self.params.iter().cloned()).collect()
    }
}

/// What one run of an entry produced.
#[derive(Debug, Clone)]
pub struct Outputs {
    /// The CSV artifacts, `(file name, body)`, in write order.
    pub artifacts: Vec<(&'static str, String)>,
    /// The terminal report.
    pub report: String,
    /// The virtual-time campaign report of an observed run (fig10,
    /// fig11): its CSVs are stamped `observed`, and `--obs-jsonl`
    /// exports it.
    pub observed: Option<CampaignReport>,
}

impl Outputs {
    fn new(report: String, artifacts: Vec<(&'static str, String)>) -> Outputs {
        Outputs { artifacts, report, observed: None }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Experiment id (e.g. `"fig07"`).
    pub id: &'static str,
    /// What the paper calls it.
    pub paper_ref: &'static str,
    /// The `charm-bench` binary that regenerates it (and the
    /// `generator` its artifacts are stamped with).
    pub binary: &'static str,
    /// One-sentence headline claim being reproduced.
    pub claim: &'static str,
    /// Artifacts written into `results/`, in write order.
    pub artifacts: &'static [&'static str],
    /// Whether the run reads the seed (its artifacts are then stamped
    /// with it).
    pub seeded: bool,
    /// Whether the design is an embedded `benchmarks/*.toml` spec; only
    /// these entries read `--benchmark` and `--param`.
    pub spec: bool,
    /// Runs the experiment: `(seed, quick, spec) → outputs`. `quick`
    /// shrinks the expensive designs for smoke runs; `spec` matters only
    /// to entries with an embedded spec.
    pub run: fn(u64, bool, &SpecArgs) -> Result<Outputs, CharmError>,
}

/// The full catalog, paper order first, extensions last.
pub fn catalog() -> &'static [Entry] {
    &CATALOG
}

static CATALOG: [Entry; 12] = [
    Entry {
        id: "fig03",
        paper_ref: "Figure 3 / §III-3",
        binary: "fig03",
        claim: "forcing one breakpoint hides the 16 KiB slope change a free segmentation exposes",
        artifacts: &["fig03.csv"],
        seeded: true,
        spec: false,
        run: |seed, _, _| {
            let f = fig03::run(seed);
            Ok(Outputs::new(f.report(), vec![("fig03.csv", f.to_csv())]))
        },
    },
    Entry {
        id: "fig04",
        paper_ref: "Figure 4 / §III",
        binary: "fig04",
        claim: "randomized log-uniform sizes expose per-regime variability bands, strongest on detached receive",
        artifacts: &["fig04_raw.csv", "fig04_model.csv"],
        seeded: true,
        spec: true,
        run: |seed, quick, spec| {
            let text = spec.text.as_deref().unwrap_or(fig04::SPEC);
            let f = fig04::from_spec(text, seed, &spec.params(quick.then_some(("n_sizes", "30"))))?;
            Ok(Outputs::new(
                f.report(),
                vec![("fig04_raw.csv", f.raw_csv()), ("fig04_model.csv", f.summary_csv())],
            ))
        },
    },
    Entry {
        id: "table05",
        paper_ref: "Figure 5",
        binary: "table05",
        claim: "the four CPUs under study",
        artifacts: &["table05.csv"],
        seeded: false,
        spec: false,
        run: |_, _, _| {
            let t = table05::run();
            Ok(Outputs::new(t.report(), vec![("table05.csv", t.to_csv())]))
        },
    },
    Entry {
        id: "fig07",
        paper_ref: "Figure 7 / §IV",
        binary: "fig07",
        claim: "MultiMAPS plateaus at L1/L2/DRAM; strides halve bandwidth beyond L1",
        artifacts: &["fig07.csv"],
        seeded: true,
        spec: true,
        run: |seed, quick, spec| {
            let text = spec.text.as_deref().unwrap_or(fig07::SPEC);
            let params = spec.params(quick.then_some(("repetitions", "4")));
            let f = fig07::from_spec(text, seed, &params)?;
            Ok(Outputs::new(f.report(), vec![("fig07.csv", f.to_csv())]))
        },
    },
    Entry {
        id: "fig08",
        paper_ref: "Figure 8 / §IV",
        binary: "fig08",
        claim: "an uncontrolled environment buries the stride effect in noise",
        artifacts: &["fig08_raw.csv", "fig08_trends.csv"],
        seeded: true,
        spec: false,
        run: |seed, quick, _| {
            let f = fig08::run(seed, if quick { 10 } else { 42 });
            Ok(Outputs::new(
                f.report(),
                vec![("fig08_raw.csv", f.raw_csv()), ("fig08_trends.csv", f.trend_csv())],
            ))
        },
    },
    Entry {
        id: "fig09",
        paper_ref: "Figure 9 / §IV-1",
        binary: "fig09",
        claim: "element width and unrolling scale bandwidth; the 256-bit+unroll anomaly; no L1 drop until issue-bound",
        artifacts: &["fig09.csv"],
        seeded: true,
        spec: false,
        run: |seed, quick, _| {
            let f = fig09::run(seed, if quick { 4 } else { 10 });
            Ok(Outputs::new(f.report(), vec![("fig09.csv", f.to_csv())]))
        },
    },
    Entry {
        id: "fig10",
        paper_ref: "Figure 10 / §IV-2",
        binary: "fig10",
        claim: "the ondemand governor makes nloops — a 'neutral' parameter — decide the measured bandwidth",
        artifacts: &["fig10.csv"],
        seeded: true,
        spec: false,
        run: |seed, quick, _| {
            let f = fig10::run(seed, if quick { 10 } else { 42 });
            Ok(Outputs {
                observed: Some(f.report.clone()),
                ..Outputs::new(f.report(), vec![("fig10.csv", f.to_csv())])
            })
        },
    },
    Entry {
        id: "fig11",
        paper_ref: "Figure 11 / §IV-3",
        binary: "fig11",
        claim: "RT scheduling produces a 5x-slower temporal mode that mean±sd reporting hides",
        artifacts: &["fig11_raw.csv"],
        seeded: true,
        spec: false,
        run: |seed, _, _| {
            let f = fig11::run(seed);
            Ok(Outputs {
                observed: Some(f.report.clone()),
                ..Outputs::new(f.report(), vec![("fig11_raw.csv", f.raw_csv())])
            })
        },
    },
    Entry {
        id: "fig12",
        paper_ref: "Figure 12 / §IV-4",
        binary: "fig12",
        claim: "physical-page reuse freezes each run while the drop point wanders across runs",
        artifacts: &["fig12.csv"],
        seeded: true,
        spec: false,
        run: |seed, _, _| {
            let f = fig12::run(seed);
            Ok(Outputs::new(f.report(), vec![("fig12.csv", f.to_csv())]))
        },
    },
    Entry {
        id: "fig13",
        paper_ref: "Figure 13 / §V-B",
        binary: "fig13",
        claim: "the influential-factor diagram",
        artifacts: &["fig13.csv"],
        seeded: false,
        spec: false,
        run: |_, _, _| {
            let f = fig13::run();
            Ok(Outputs::new(f.report(), vec![("fig13.csv", f.to_csv())]))
        },
    },
    Entry {
        id: "convolution",
        paper_ref: "Figure 1 (context)",
        binary: "convolution",
        claim: "opaque calibration degrades convolution predictions by up to ~50%",
        artifacts: &["convolution.csv"],
        seeded: true,
        spec: false,
        run: |seed, _, _| {
            let s = convolution::run(seed);
            Ok(Outputs::new(s.report(), vec![("convolution.csv", s.to_csv())]))
        },
    },
    Entry {
        id: "pchase",
        paper_ref: "§II-C (extension)",
        binary: "pchase_interference",
        claim: "multi-core interference: cache-resident work scales, DRAM-bound work saturates",
        artifacts: &["pchase_interference.csv"],
        seeded: true,
        spec: true,
        run: |seed, _, spec| {
            let text = spec.text.as_deref().unwrap_or(pchase::SPEC);
            let p = pchase::from_spec(text, seed, &spec.params)?;
            Ok(Outputs::new(p.report(), vec![("pchase_interference.csv", p.to_csv())]))
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_entry_has_artifacts_and_unique_id() {
        let mut seen = HashSet::new();
        for e in catalog() {
            assert!(!e.artifacts.is_empty(), "{} has no artifacts", e.id);
            let names: HashSet<&str> =
                [e.id, e.binary].into_iter().chain(e.artifacts.iter().copied()).collect();
            for name in names {
                assert!(seen.insert(name), "{name} is claimed by two entries");
            }
        }
    }
}

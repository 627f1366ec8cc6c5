//! The committed bytes: every artifact in `results/` that a library call
//! produces is regenerated in-process at the default seed and compared
//! with the committed file byte for byte. A drift names the file and the
//! first line that differs. Regenerating `results/` stays a deliberate
//! act: this test never rewrites a reference.

use charm::core::experiments::catalog::{catalog, SpecArgs};
use charm::core::spec::ResolvedBenchmark;
use charm::engine::registry::{self, ResolvedTarget};
use charm::engine::Campaign;
use charm_bench::DEFAULT_SEED;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// `text` against `results/<name>`: `Err` names the file and the first
/// line that differs.
fn compare(name: &str, text: &str) -> Result<(), String> {
    let path = results().join(name);
    let committed = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
    if committed == text {
        return Ok(());
    }
    let (mut old, mut new) = (committed.lines(), text.lines());
    for line in 1.. {
        match (old.next(), new.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => break,
            (a, b) => {
                let show =
                    |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
                return Err(format!(
                    "{name}: line {line} differs\n  committed:   {}\n  regenerated: {}",
                    show(a),
                    show(b)
                ));
            }
        }
    }
    Err(format!("{name}: same lines, different line endings"))
}

#[test]
fn every_catalog_artifact_matches_its_committed_bytes() {
    let mut drifts = Vec::new();
    let mut compared = BTreeSet::new();
    for e in catalog() {
        let out = (e.run)(DEFAULT_SEED, false, &SpecArgs::default())
            .unwrap_or_else(|err| panic!("{}: {err}", e.id));
        let artifacts = charm_bench::figures::stamped(e, DEFAULT_SEED, &out);
        let names: Vec<&str> = artifacts.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, e.artifacts, "{} writes the artifacts it declares", e.id);
        for (name, text) in &artifacts {
            compared.insert(name.to_string());
            if let Err(drift) = compare(name, text) {
                drifts.push(drift);
            }
        }
    }
    assert!(drifts.is_empty(), "{}", drifts.join("\n"));
    // Every committed CSV but the campaign below comes from the catalog.
    let committed: BTreeSet<String> = std::fs::read_dir(results())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv") && name != "campaign_taurus.csv")
        .collect();
    assert_eq!(compared, committed);
}

/// README's `run_campaign` plan, as CI regenerates
/// `results/campaign_taurus.csv` from it: DSL mode, one shard.
const README_PLAN: &str = "factor op in [ping_pong, async_send]
factor size loguniform 64..1048576 count 40 seed 7
replicates 10
order randomized 42
";

#[test]
fn the_readme_campaign_matches_its_committed_bytes() {
    let bench = ResolvedBenchmark::from_dsl(README_PLAN, "taurus").unwrap();
    let Ok(ResolvedTarget::Network(target)) = registry::resolve(&bench.target, DEFAULT_SEED) else {
        panic!("taurus resolves to a network target");
    };
    let run = Campaign::new(&bench.plan, *target).shards(1).seed(bench.order_seed).run().unwrap();
    if let Err(drift) = compare("campaign_taurus.csv", &run.data.to_csv()) {
        panic!("{drift}");
    }
}

//! Criterion benchmarks of the columnar record pipeline: CSV
//! serialization (the zero-allocation `write_csv_row` path), parsing
//! with per-cell interning, and `group_by` over interned cells. These
//! are the per-record costs the campaign hot path pays after the
//! measurement itself. The `store_6000` group times the archive calls
//! built on them: `Store::put_run` into a fresh store and the
//! digest-verified `Store::get` of that run. `perf/`'s traced runs
//! report the same costs per layer (`record.to_csv_ns_per_row`,
//! `store.put_run_ms`, `store.get_ms`) and end to end.

use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::{sampling, Factor};
use charm_engine::record::Campaign;
use charm_engine::target::{NetworkTarget, ParallelTarget};
use charm_simnet::presets;
use charm_store::{CampaignKey, Store};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SEED: u64 = 20170529;

/// The Figure-4-shaped campaign of `campaign.rs`: 3 ops × 40 unique
/// sizes × 50 replicates = 6000 rows, randomized.
fn network_plan() -> ExperimentPlan {
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(8, 1 << 22, 40, SEED)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["async_send", "blocking_recv", "ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(50)
        .build();
    plan.shuffle(SEED);
    plan
}

fn campaign_data() -> Campaign {
    let plan = network_plan();
    let base = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(SEED));
    charm_engine::Campaign::new(&plan, base.fork(base.stream_seed())).seed(SEED).run().unwrap().data
}

fn record_pipeline(c: &mut Criterion) {
    let data = campaign_data();
    let csv = data.to_csv();

    let mut g = c.benchmark_group("records_6000");
    g.sample_size(20);
    // Serialization: one growing buffer, no per-row String.
    g.bench_function("to_csv", |b| b.iter(|| black_box(data.to_csv())));
    // One-row formatting into a reused scratch buffer — the unit the
    // checkpoint flush and the serve stream tee pay per record.
    g.bench_function("write_csv_row", |b| {
        let mut row = String::new();
        b.iter(|| {
            for r in &data.records {
                row.clear();
                r.write_csv_row(&mut row).expect("writing to a String cannot fail");
                black_box(row.len());
            }
        })
    });
    // Parsing splits off the four fixed columns and interns each cell
    // by its field text, so a parsed campaign is as columnar as a fresh
    // one.
    g.bench_function("from_csv", |b| b.iter(|| black_box(Campaign::from_csv(&csv).unwrap())));
    // Grouping resolves each record's cell by interned identity
    // (pointer), not by cloning its level vector into a map key.
    g.bench_function("group_by", |b| b.iter(|| black_box(data.group_by(&["op", "size"]))));
    g.finish();
}

/// The archive round trip of the same campaign: `put_run` renders,
/// hashes and writes `records.csv` plus a manifest; `get` re-hashes it
/// while a scoped worker parses it back.
fn store_calls(c: &mut Criterion) {
    let plan = network_plan();
    let data = campaign_data();
    let key = CampaignKey::of(&plan, "taurus#bench", Some(SEED), 1);
    let root = std::env::temp_dir().join(format!("charm-bench-store-{}", std::process::id()));
    let mut fresh = 0u32;

    let mut g = c.benchmark_group("store_6000");
    g.sample_size(20);
    // Each iteration archives into a new store directory, so no call is
    // a dedupe hit; opening the store is part of the time.
    g.bench_function("put_run", |b| {
        b.iter(|| {
            fresh += 1;
            let store = Store::open(root.join(format!("put-{fresh}"))).unwrap();
            black_box(store.put_run(&key, "records_6000", "", &data, None).unwrap())
        })
    });
    let store = Store::open(root.join("get")).unwrap();
    let id = store.put_run(&key, "records_6000", "", &data, None).unwrap();
    g.bench_function("get", |b| b.iter(|| black_box(store.get(&id).unwrap())));
    g.finish();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(benches, record_pipeline, store_calls);
criterion_main!(benches);

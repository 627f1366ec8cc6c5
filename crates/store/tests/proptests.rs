//! Property tests for the acceptance criteria of the campaign store:
//!
//! * resume after killing **any strict subset** of shard checkpoints
//!   reproduces the uninterrupted run bit for bit, over arbitrary
//!   plans, seeds and shard counts (DESIGN.md §9's determinism
//!   contract, made durable);
//! * a self-diff is clean;
//! * a seed-changed rerun of the same design reports metadata drift.

use charm_design::doe::FullFactorial;
use charm_design::plan::ExperimentPlan;
use charm_design::{Factor, Level};
use charm_engine::target::NetworkTarget;
use charm_engine::{Campaign, CampaignData};
use charm_simnet::presets;
use charm_store::digest::sha256_hex;
use charm_store::{CampaignKey, Store};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("charm-store-prop-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All proptest campaigns run the same preset, so a fixed identity is
/// the honest one — target separation is covered by the roundtrip
/// tests.
const TARGET: &str = "m#prop00000000";

fn plan_of(sizes: &[i64], reps: u32, seed: u64) -> ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
        .factor(Factor::new("size", sizes.to_vec()))
        .replicates(reps)
        .build();
    plan.shuffle(seed);
    plan
}

fn run(plan: &ExperimentPlan, seed: u64, shards: usize) -> CampaignData {
    let target = NetworkTarget::new("m", presets::myrinet_gm(seed));
    Campaign::new(plan, target).shards(shards).seed(seed).run().unwrap().data
}

fn distinct_sizes(raw: &[i64]) -> Vec<i64> {
    let set: std::collections::BTreeSet<i64> = raw.iter().copied().collect();
    set.into_iter().collect()
}

/// A shuffled plan with text, integer, float (from arbitrary bit
/// patterns) and flag factors; at the top of the test's ranges its CSV
/// spans several of the store's 64 KiB hash chunks.
fn varied_plan(sizes: &[i64], float_bits: &[u64], reps: u32, seed: u64) -> ExperimentPlan {
    let mut floats: Vec<Level> = Vec::new();
    for &bits in float_bits {
        let f = f64::from_bits(bits);
        let level = Level::Float(if f.is_finite() { f } else { bits as f64 });
        if !floats.contains(&level) {
            floats.push(level);
        }
    }
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong", "async send", "ünï"]))
        .factor(Factor::new("size", sizes.to_vec()))
        .factor(Factor { name: "scale".into(), levels: floats })
        .factor(Factor::new("pinned", vec![true, false]))
        .replicates(reps)
        .build();
    plan.shuffle(seed);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A campaign's plan hash is the SHA-256 of `ExperimentPlan::to_csv`,
    /// although `CampaignKey::of` never renders that text whole.
    #[test]
    fn plan_hash_is_the_sha256_of_the_plan_csv(
        sizes in prop::collection::vec(i64::MIN..i64::MAX, 1..30),
        float_bits in prop::collection::vec(any::<u64>(), 1..4),
        reps in 1u32..30,
        seed in any::<u64>(),
    ) {
        let plan = varied_plan(&distinct_sizes(&sizes), &float_bits, reps, seed);
        let key = CampaignKey::of(&plan, TARGET, Some(seed), 1);
        prop_assert_eq!(key.plan_hash, sha256_hex(plan.to_csv().as_bytes()));
    }

    #[test]
    fn resume_after_killing_any_strict_subset_is_bit_identical(
        sizes in prop::collection::vec(1i64..1_000_000, 2..5),
        reps in 1u32..3,
        seed in any::<u64>(),
        shards in 2usize..6,
        kill_bits in any::<u64>(),
    ) {
        let plan = plan_of(&distinct_sizes(&sizes), reps, seed);
        let shards = shards.min(plan.len());
        let fresh = run(&plan, seed, shards);

        // The scheduler checkpoints dynamically claimed *batches*, not
        // worker shards — segments on disk are keyed by batch geometry.
        let workers = charm_engine::effective_workers(plan.len(), shards);
        let nbatches = charm_engine::batch_bounds(plan.len(), workers).len();

        let dir = scratch("resume");
        let store = Store::open(&dir).unwrap();
        let session = store.session(&plan, TARGET, Some(seed), shards as u64).unwrap();
        let target = NetworkTarget::new("m", presets::myrinet_gm(seed));
        Campaign::new(&plan, target)
            .shards(shards)
            .seed(seed)
            .store(&session)
            .run()
            .unwrap();

        // Kill a strict subset of the batch checkpoints (never all of
        // them — that is just a fresh run; possibly none — a rerun
        // with nothing to measure).
        let mask = kill_bits % ((1u64 << nbatches) - 1);
        let checkpoints =
            dir.join("runs").join(session.run_id().as_str()).join("checkpoints");
        for b in 0..nbatches {
            if mask & (1 << b) != 0 {
                std::fs::remove_file(
                    checkpoints.join(format!("shard-{b}-of-{nbatches}.csv")),
                )
                .unwrap();
            }
        }

        let target = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let resumed = Campaign::new(&plan, target)
            .shards(shards)
            .seed(seed)
            .store(&session)
            .run()
            .unwrap()
            .data;
        prop_assert_eq!(fresh.to_csv(), resumed.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_diff_reports_zero_deltas(
        sizes in prop::collection::vec(1i64..1_000_000, 2..5),
        reps in 1u32..3,
        seed in any::<u64>(),
        shards in 1usize..4,
    ) {
        let plan = plan_of(&distinct_sizes(&sizes), reps, seed);
        let shards = shards.min(plan.len());
        let data = run(&plan, seed, shards);
        let dir = scratch("selfdiff");
        let store = Store::open(&dir).unwrap();
        let id = store
            .put_run(&charm_store::CampaignKey::of(&plan, TARGET, Some(seed), shards as u64), "bench", "", &data, None)
            .unwrap();
        let diff = store.diff(&id, &id).unwrap();
        prop_assert!(diff.is_clean(), "self-diff dirty:\n{}", diff.render());
        prop_assert!(!diff.cells.is_empty());
        prop_assert!(diff.cells.iter().all(|c| c.count_a == c.count_b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seed_changed_rerun_reports_metadata_drift(
        sizes in prop::collection::vec(1i64..1_000_000, 2..5),
        reps in 1u32..3,
        seed in any::<u64>(),
    ) {
        let seed2 = seed.wrapping_add(1);
        let plan_a = plan_of(&distinct_sizes(&sizes), reps, seed);
        let plan_b = plan_of(&distinct_sizes(&sizes), reps, seed2);
        let dir = scratch("drift");
        let store = Store::open(&dir).unwrap();
        let a = store
            .put_run(&charm_store::CampaignKey::of(&plan_a, TARGET, Some(seed), 1), "bench", "", &run(&plan_a, seed, 1), None)
            .unwrap();
        let b = store
            .put_run(&charm_store::CampaignKey::of(&plan_b, TARGET, Some(seed2), 1), "bench", "", &run(&plan_b, seed2, 1), None)
            .unwrap();
        let diff = store.diff(&a, &b).unwrap();
        prop_assert!(!diff.is_clean());
        prop_assert!(
            diff.metadata_drift.iter().any(|d| d.key == "store.seed"),
            "drift keys: {:?}",
            diff.metadata_drift.iter().map(|d| &d.key).collect::<Vec<_>>()
        );
        // Same design, so the cells align 1:1 even though values moved.
        prop_assert!(diff.cells.iter().all(|c| c.count_a == c.count_b));
        std::fs::remove_dir_all(&dir).ok();
    }
}

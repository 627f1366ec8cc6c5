//! Property tests of the parallel campaign engine's determinism
//! contract: for a shard-invariant target, running the same randomized
//! plan with any shard count yields the same record multiset as the
//! sequential runner, and every downstream analysis (here: segmented
//! regression breakpoints) is therefore shard-count independent.

use charm::analysis::descriptive::median;
use charm::analysis::segmented::{segment, SegmentConfig};
use charm::core::pipeline::Study;
use charm::design::doe::FullFactorial;
use charm::design::{sampling, Factor};
use charm::engine::record::Campaign;
use charm::engine::target::NetworkTarget;
use charm::simnet::presets;
use proptest::prelude::*;

/// Order-insensitive fingerprint of a campaign's scientific content:
/// the multiset of `(levels, replicate, value)` triples. Timestamps are
/// excluded on purpose — they are shard-local clocks shifted onto a
/// common timeline and only reproduce the sequential ones up to float
/// rounding of the offsets.
fn record_multiset(campaign: &Campaign) -> Vec<(String, u32, u64)> {
    let mut keys: Vec<(String, u32, u64)> = campaign
        .records
        .iter()
        .map(|r| (format!("{:?}", r.levels), r.replicate, r.value.to_bits()))
        .collect();
    keys.sort();
    keys
}

/// The methodology's canonical response curve: per-size median duration.
fn response_curve(campaign: &Campaign) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (levels, values) in campaign.group_by(&["size"]) {
        xs.push(levels[0].as_float().unwrap());
        ys.push(median(&values).unwrap());
    }
    (xs, ys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharding_preserves_records_and_breakpoints(seed in 0..10_000u64) {
        // A Figure-4-shaped campaign, kept small enough for a property
        // test: one operation over unique log-spaced sizes, replicated.
        let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(8, 1 << 21, 24, seed)
            .into_iter()
            .map(|s| s as i64)
            .collect();
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["blocking_recv"]))
            .factor(Factor::new("size", sizes))
            .replicates(5)
            .build();
        let study = Study::new(plan).randomized(seed);

        let mut sequential_target =
            NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
        let sequential = study.run(&mut sequential_target).unwrap();
        let reference_multiset = record_multiset(&sequential);
        let (sx, sy) = response_curve(&sequential);
        let reference = segment(&sx, &sy, &SegmentConfig::default()).unwrap();

        let base = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
        for shards in [1usize, 2, 3, 7] {
            let sharded = study.run_sharded(&base, shards).unwrap();
            prop_assert_eq!(
                &record_multiset(&sharded),
                &reference_multiset,
                "record multiset changed at {} shards",
                shards
            );
            // Same records in canonical sequence order => identical
            // input to the analysis layer => bit-identical breakpoints.
            let (px, py) = response_curve(&sharded);
            let seg = segment(&px, &py, &SegmentConfig::default()).unwrap();
            prop_assert_eq!(
                &seg.breakpoints,
                &reference.breakpoints,
                "breakpoints changed at {} shards",
                shards
            );
        }
    }
}

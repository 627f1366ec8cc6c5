//! Bit-identity of the bootstrap kernel against the sort-based oracle.
//!
//! `charm_analysis::speedup` reads each resample's median by counting
//! drawn ranks and picks percentiles by selection. This file keeps the
//! straightforward implementation — sort every resample, sort the
//! ratios — as a test-local oracle and checks that both produce the
//! same bits for every estimate, bound, verdict and count. The stream
//! derivation (`mix`, `name_salt`, `rep_seed`) is re-declared here
//! because it is part of the determinism contract (DESIGN.md §16), not
//! of the library's API.

use charm_analysis::descriptive::quantile_sorted;
use charm_analysis::speedup::{
    compare_cells, speedup_ci, CellSpeedup, Direction, PairedCell, SpeedupCi, SpeedupComparison,
    SpeedupConfig, Verdict,
};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_salt(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn rep_seed(seed: u64, salt: u64, rep: u64) -> u64 {
    mix(seed ^ mix(salt) ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23))
}

fn median_of(buf: &mut [f64]) -> f64 {
    buf.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    quantile_sorted(buf, 0.5)
}

fn cell_ratios(cell: &PairedCell, direction: Direction, cfg: &SpeedupConfig) -> Vec<f64> {
    let salt = name_salt(&cell.name);
    let mut base_buf = vec![0.0; cell.baseline.len()];
    let mut cand_buf = vec![0.0; cell.candidate.len()];
    (0..cfg.reps as u64)
        .map(|rep| {
            let mut rng = ChaCha8Rng::seed_from_u64(rep_seed(cfg.seed, salt, rep));
            for slot in base_buf.iter_mut() {
                *slot = cell.baseline[rng.random_range(0..cell.baseline.len())];
            }
            for slot in cand_buf.iter_mut() {
                *slot = cell.candidate[rng.random_range(0..cell.candidate.len())];
            }
            direction.benefit_ratio(median_of(&mut base_buf), median_of(&mut cand_buf))
        })
        .collect()
}

fn percentile_ci(mut ratios: Vec<f64>, estimate: f64, level: f64) -> SpeedupCi {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios compare"));
    let alpha = (1.0 - level) / 2.0;
    SpeedupCi {
        estimate,
        lo: quantile_sorted(&ratios, alpha),
        hi: quantile_sorted(&ratios, 1.0 - alpha),
        level,
    }
}

fn oracle_speedup_ci(cell: &PairedCell, direction: Direction, cfg: &SpeedupConfig) -> SpeedupCi {
    let estimate = direction.benefit_ratio(
        median_of(&mut cell.baseline.clone()),
        median_of(&mut cell.candidate.clone()),
    );
    percentile_ci(cell_ratios(cell, direction, cfg), estimate, cfg.level)
}

/// The sequential, sort-based `compare_cells` (inputs pre-validated).
fn oracle_compare_cells(
    cells: &[PairedCell],
    direction: Direction,
    cfg: &SpeedupConfig,
) -> SpeedupComparison {
    let mut sorted: Vec<&PairedCell> = cells.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let per_cell: Vec<Vec<f64>> = sorted.iter().map(|c| cell_ratios(c, direction, cfg)).collect();
    let mut out_cells = Vec::with_capacity(sorted.len());
    let mut log_sum = 0.0;
    for (c, ratios) in sorted.iter().zip(&per_cell) {
        let estimate = direction
            .benefit_ratio(median_of(&mut c.baseline.clone()), median_of(&mut c.candidate.clone()));
        log_sum += estimate.ln();
        let ci = percentile_ci(ratios.clone(), estimate, cfg.level);
        out_cells.push(CellSpeedup {
            name: c.name.clone(),
            n_baseline: c.baseline.len(),
            n_candidate: c.candidate.len(),
            verdict: Verdict::of(&ci),
            ci,
        });
    }
    let k = sorted.len() as f64;
    let combined_ratios: Vec<f64> = (0..cfg.reps)
        .map(|rep| {
            let s: f64 = per_cell.iter().map(|r| r[rep].ln()).sum();
            (s / k).exp()
        })
        .collect();
    let combined = percentile_ci(combined_ratios, (log_sum / k).exp(), cfg.level);
    SpeedupComparison { verdict: Verdict::of(&combined), combined, cells: out_cells }
}

fn same_bits(a: &SpeedupCi, b: &SpeedupCi) -> bool {
    [(a.estimate, b.estimate), (a.lo, b.lo), (a.hi, b.hi), (a.level, b.level)]
        .iter()
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_same(got: &SpeedupComparison, want: &SpeedupComparison) -> TestCaseResult {
    prop_assert!(
        same_bits(&got.combined, &want.combined),
        "{:?} vs {:?}",
        got.combined,
        want.combined
    );
    prop_assert_eq!(got.verdict, want.verdict);
    prop_assert_eq!(got.cells.len(), want.cells.len());
    for (g, w) in got.cells.iter().zip(&want.cells) {
        prop_assert!(same_bits(&g.ci, &w.ci), "cell {}: {:?} vs {:?}", w.name, g.ci, w.ci);
        prop_assert_eq!(&g.name, &w.name);
        prop_assert_eq!((g.n_baseline, g.n_candidate), (w.n_baseline, w.n_candidate));
        prop_assert_eq!(g.verdict, w.verdict);
    }
    Ok(())
}

/// One side of a cell: 2–64 draws of `(small integer, scale)`.
fn side() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((1u32..6, 0.5f64..2.0), 2..65)
}

/// Small integers alone (many ties) or scaled into distinct values.
fn values(draws: &[(u32, f64)], ties: bool) -> Vec<f64> {
    draws.iter().map(|&(k, u)| if ties { f64::from(k) } else { f64::from(k) * u }).collect()
}

fn direction(higher: bool) -> Direction {
    if higher {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compare_cells_matches_the_sort_based_oracle_bit_for_bit(
        raw in prop::collection::vec((side(), side(), any::<bool>()), 1..41),
        higher in any::<bool>(),
        reps in 10usize..301,
        level in 0.5f64..0.99,
        seed in any::<u64>(),
    ) {
        // Names are a permutation of the indices, so the kernel's sort
        // by name is exercised too.
        let cells: Vec<PairedCell> = raw
            .iter()
            .enumerate()
            .map(|(i, (b, c, ties))| PairedCell {
                name: format!("op=x,size={}", (i * 37) % 41),
                baseline: values(b, *ties),
                candidate: values(c, *ties),
            })
            .collect();
        let cfg = SpeedupConfig { reps, level, seed };
        let direction = direction(higher);
        let got = compare_cells(&cells, direction, &cfg).unwrap();
        assert_same(&got, &oracle_compare_cells(&cells, direction, &cfg))?;
    }

    #[test]
    fn speedup_ci_matches_the_sort_based_oracle_bit_for_bit(
        b in side(),
        c in side(),
        ties in any::<bool>(),
        higher in any::<bool>(),
        (reps, level, seed) in (10usize..301, 0.5f64..0.99, any::<u64>()),
    ) {
        let cell = PairedCell {
            name: format!("cell{seed}"),
            baseline: values(&b, ties),
            candidate: values(&c, ties),
        };
        let cfg = SpeedupConfig { reps, level, seed };
        let direction = direction(higher);
        let got = speedup_ci(&cell.name, &cell.baseline, &cell.candidate, direction, &cfg).unwrap();
        let want = oracle_speedup_ci(&cell, direction, &cfg);
        prop_assert!(same_bits(&got, &want), "{got:?} vs {want:?}");
        prop_assert_eq!(Verdict::of(&got), Verdict::of(&want));
    }
}

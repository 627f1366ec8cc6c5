//! `RawRecord::write_csv_row` renders floats with its own shortest
//! round-trip writer; std's `{}` is the oracle. Every value goes
//! through the public row writer three times — as a `Float` level, as
//! `start_us` and (negated) as `value` — and the row must equal the
//! `format!`-built one byte for byte.

use charm_design::factors::Level;
use charm_engine::RawRecord;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Exactly representable: its shortest candidates …567.2 and …567.3
/// are equidistant, and std prints the upper one.
#[allow(clippy::excessive_precision)]
const TIE: f64 = 981446413237567.25;

fn row_of(v: f64) -> RawRecord {
    RawRecord {
        levels: vec![Level::Float(v), Level::Text("x".into())].into(),
        replicate: 3,
        sequence: 17,
        start_us: v,
        value: -v,
    }
}

/// The row for `v`, or both renderings when they differ.
fn check(v: f64) -> Result<(), String> {
    let got = row_of(v).csv_row();
    let want = format!("{v},x,3,17,{v},{}", -v);
    if got == want {
        Ok(())
    } else {
        Err(format!("{v:e} (bits {:#018x}): got {got:?}, std {want:?}", v.to_bits()))
    }
}

fn check_all(values: impl IntoIterator<Item = f64>) {
    let mut failures = Vec::new();
    let mut n = 0usize;
    for v in values {
        n += 1;
        if let Err(e) = check(v) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{} of {n} values differ from std:\n{}", failures.len(), {
        failures.truncate(20);
        failures.join("\n")
    });
}

/// The double `k` ulps away from `v` (same sign, bit-pattern step).
fn ulps(v: f64, k: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + k) as u64)
}

/// Doubles with exactly `k` fractional bits or fewer, in the binade
/// whose ulp is 2^-k: their decimal expansions end in 5 at digit k, so
/// dropping that digit leaves two equidistant shortest candidates
/// whenever the rounding interval is wide enough to hold both (e.g.
/// 981446413237567.25 → `…567.2` or `…567.3`). std keeps the upper one.
fn exact_ties(rng: &mut ChaCha8Rng, per_binade: usize) -> Vec<f64> {
    let mut out = vec![TIE];
    for k in 1..=8u32 {
        let (lo, hi) = (1u64 << (52 - k), 1u64 << (53 - k));
        for _ in 0..per_binade {
            let int = rng.random_range(lo..hi - 1) as f64;
            for j in 0..1u32 << k {
                out.push(int + j as f64 / (1u64 << k) as f64);
            }
        }
    }
    out
}

/// Every power of 2 and of 10 a double can hold, each ±3 ulps.
fn powers() -> Vec<f64> {
    let mut out = Vec::new();
    let mut centres: Vec<f64> = (-1074..=1023).map(|e| 2f64.powi(e)).collect();
    centres.extend((-323..=308).map(|e| format!("1e{e}").parse::<f64>().unwrap()));
    for c in centres {
        out.extend((-3..=3).map(|k| ulps(c, k)).filter(|v| v.is_finite() && *v > 0.0));
    }
    out
}

/// Integers up to 2^53: the first 100,000, every 2^k ± 3, and a random
/// sample of the rest.
fn integers(rng: &mut ChaCha8Rng, sample: usize) -> Vec<f64> {
    let mut out: Vec<f64> = (0..100_000u64).map(|n| n as f64).collect();
    for k in 0..=53u32 {
        out.extend((-3..=3i64).map(|d| ((1i64 << k) + d).max(0) as f64));
    }
    out.extend((0..sample).map(|_| rng.random_range(0..=1u64 << 53) as f64));
    out
}

/// Values at the edges of the representable range, including one per
/// branch that leaves the fast path.
fn specials() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits((1 << 52) - 1), // largest subnormal
        f64::from_bits(1),             // smallest subnormal
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,  // a layout longer than the stack buffer: 301 digits
        1e-30,  // a layout longer than the stack buffer: 30 zeros
        1e21,   // the longest integral layout that still fits
        1.5e-7, // a short one below one
    ]
}

/// Doubles drawn two ways: any bit pattern at all (mostly far outside
/// the fast window), and a random mantissa under an exponent in
/// 2^-123 .. 2^127, where CSV values live.
fn random_doubles(rng: &mut ChaCha8Rng) -> impl Iterator<Item = f64> + '_ {
    std::iter::from_fn(move || {
        let bits = rng.next_u64();
        Some(if bits & 1 == 0 {
            f64::from_bits(bits)
        } else {
            let exp = rng.random_range(900u64..1150);
            f64::from_bits(exp << 52 | bits >> 12)
        })
    })
}

#[test]
fn exact_ties_round_up_like_std() {
    assert_eq!(row_of(TIE).csv_row().split(',').next(), Some("981446413237567.3"));
    check_all(exact_ties(&mut ChaCha8Rng::seed_from_u64(1), 4));
}

#[test]
fn powers_of_two_and_ten_match_std() {
    check_all(powers());
}

#[test]
fn integers_up_to_2_pow_53_match_std() {
    check_all(integers(&mut ChaCha8Rng::seed_from_u64(2), 10_000));
}

#[test]
fn specials_and_fallbacks_match_std() {
    check_all(specials());
}

#[test]
fn random_doubles_match_std() {
    check_all(random_doubles(&mut ChaCha8Rng::seed_from_u64(3)).take(50_000));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_bit_pattern_matches_std(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assert!(check(v).is_ok(), "{}", check(v).unwrap_err());
    }
}

/// The release-mode sweep: 10^7 random doubles plus the edge classes
/// at full size. Run it with
/// `cargo test --release -p charm-engine -- --ignored`.
#[test]
#[ignore = "release-mode sweep; run with --release -- --ignored"]
fn ten_million_doubles_match_std() {
    let mut rng = ChaCha8Rng::seed_from_u64(20180618);
    check_all(random_doubles(&mut rng).take(10_000_000));
    check_all(exact_ties(&mut rng, 1_000));
    check_all(powers());
    check_all(integers(&mut rng, 1_000_000));
    check_all(specials());
}

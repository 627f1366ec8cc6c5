//! Message-size sampling distributions.
//!
//! Paper §III-2 ("Impact of Message Sizes in the Network Modeling"): sizes
//! in powers of two "may miss the real behavior of the network software
//! stack" — e.g. 1024 may be special-cased — and linear ladders inherit a
//! bias from the chosen start and step. The methodology instead draws
//! sizes from a log-uniform distribution (paper Eq. 1):
//!
//! ```text
//! size = 10^X,  X ~ Uniform(log10 a, log10 b)
//! ```
//!
//! The log-uniform generators live here beside the two biased grids they
//! replace (powers of two, linear ladders), so `ablation_sizegrids` can
//! compare them on the same substrate.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Draws `n` message sizes from the paper's Eq. 1 distribution over
/// `[a, b]` bytes (inclusive). Deterministic given `seed`.
///
/// # Panics
/// Panics if `a == 0`, `a > b` — caller bug, not data-dependent.
pub fn log_uniform_sizes(a: u64, b: u64, n: usize, seed: u64) -> Vec<u64> {
    assert!(a > 0, "log-uniform lower bound must be positive");
    assert!(a <= b, "bounds must be ordered");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (la, lb) = ((a as f64).log10(), (b as f64).log10());
    (0..n)
        .map(|_| {
            let x: f64 = rng.random_range(la..=lb);
            (10f64.powf(x).round() as u64).clamp(a, b)
        })
        .collect()
}

/// Like [`log_uniform_sizes`], but the returned sizes are pairwise
/// distinct (draws that collide after rounding are rejected and redrawn).
///
/// Use this whenever the sizes become *factor levels*: duplicate levels
/// make a full-factorial design contain identical rows, which silently
/// merges cells in any downstream per-level analysis (two "replicate
/// groups" of the same size collapse into one oversized group).
///
/// # Panics
/// Panics if `a == 0`, `a > b`, or the integer range `[a, b]` holds fewer
/// than `n` values — caller bug, not data-dependent.
pub fn log_uniform_sizes_unique(a: u64, b: u64, n: usize, seed: u64) -> Vec<u64> {
    assert!(a > 0, "log-uniform lower bound must be positive");
    assert!(a <= b, "bounds must be ordered");
    assert!(
        (b - a).checked_add(1).is_none_or(|span| span as u128 >= n as u128),
        "range [{a}, {b}] cannot hold {n} distinct sizes"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (la, lb) = ((a as f64).log10(), (b as f64).log10());
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let x: f64 = rng.random_range(la..=lb);
        let s = (10f64.powf(x).round() as u64).clamp(a, b);
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// The biased ladder opaque tools use: powers of two from `1` up to and
/// including `2^max_pow` (with an optional leading `0`-byte probe, as the
/// Figure 2 pseudo-code does: `0, 1, 2, 4, …, 2^16`).
pub fn power_of_two_sizes(max_pow: u32, include_zero: bool) -> Vec<u64> {
    let mut v = Vec::with_capacity(max_pow as usize + 2);
    if include_zero {
        v.push(0);
    }
    for p in 0..=max_pow {
        v.push(1u64 << p);
    }
    v
}

/// The other biased ladder: linear increments `start, start+step, …`
/// up to and including `end` (NetGauge-style).
pub fn linear_sizes(start: u64, step: u64, end: u64) -> Vec<u64> {
    assert!(step > 0, "step must be positive");
    let mut v = Vec::new();
    let mut s = start;
    while s <= end {
        v.push(s);
        s += step;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_uniform_within_bounds() {
        let sizes = log_uniform_sizes(1, 4_194_304, 500, 3);
        assert_eq!(sizes.len(), 500);
        assert!(sizes.iter().all(|&s| (1..=4_194_304).contains(&s)));
    }

    #[test]
    fn log_uniform_is_log_spread() {
        // Roughly equal mass per decade across [1, 10^6].
        let sizes = log_uniform_sizes(1, 1_000_000, 6000, 42);
        let mut per_decade = [0usize; 6];
        for &s in &sizes {
            let d = (s as f64).log10().floor().min(5.0) as usize;
            per_decade[d] += 1;
        }
        for (d, &c) in per_decade.iter().enumerate() {
            assert!(
                (600..=1400).contains(&c),
                "decade {d} has {c} of 6000 draws — not log-uniform"
            );
        }
    }

    #[test]
    fn log_uniform_deterministic() {
        assert_eq!(log_uniform_sizes(16, 65536, 50, 9), log_uniform_sizes(16, 65536, 50, 9));
        assert_ne!(log_uniform_sizes(16, 65536, 50, 9), log_uniform_sizes(16, 65536, 50, 10));
    }

    #[test]
    fn log_uniform_hits_nonpowers() {
        // The whole point: sizes are not confined to powers of two.
        let sizes = log_uniform_sizes(1, 65536, 200, 1);
        let non_pow2 = sizes.iter().filter(|&&s| s & (s - 1) != 0).count();
        assert!(non_pow2 > 150, "only {non_pow2} non-powers of two in 200 draws");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_uniform_rejects_zero_lower() {
        log_uniform_sizes(0, 10, 1, 0);
    }

    #[test]
    fn powers_of_two_match_figure2() {
        let v = power_of_two_sizes(16, true);
        assert_eq!(v[0], 0);
        assert_eq!(v[1], 1);
        assert_eq!(*v.last().unwrap(), 65536);
        assert_eq!(v.len(), 18);
        let w = power_of_two_sizes(4, false);
        assert_eq!(w, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn linear_ladder() {
        assert_eq!(linear_sizes(0, 4, 16), vec![0, 4, 8, 12, 16]);
        assert_eq!(linear_sizes(5, 10, 9), vec![5]);
        assert_eq!(linear_sizes(10, 1, 9), Vec::<u64>::new());
    }
}

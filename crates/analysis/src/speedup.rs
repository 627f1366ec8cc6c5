//! Statistically sound speedup tests: paired bootstrap confidence
//! intervals on **median ratios**.
//!
//! "Towards a Statistical Methodology to Evaluate Program Speedups"
//! (Touati et al., PAPERS.md) catalogues how speedup claims go wrong:
//! means of means, single lucky runs, and point ratios with no
//! uncertainty. The sound procedure pairs the two systems **per
//! benchmark cell**, compares medians (robust against the bimodal and
//! heavy-tailed distributions the paper's figures are full of), and
//! quantifies the uncertainty of the ratio by bootstrap — never
//! declaring one system faster unless the whole confidence interval
//! clears 1.0.
//!
//! This module is the statistical core of the fleet report
//! (`charm_store::report` / the `store_report` bin):
//!
//! * [`speedup_ci`] — two samples → a bootstrap CI on their benefit
//!   ratio of medians;
//! * [`compare_cells`] — many aligned design cells → per-cell CIs plus
//!   a combined interval on the geometric mean of the per-cell ratios;
//! * [`Verdict`] — `Faster` / `Slower` / `Indistinguishable`, decided
//!   by whether the interval excludes 1.0.
//!
//! Determinism contract (DESIGN.md §16): every bootstrap stream is
//! derived from `(seed, cell name, replicate)` with a splitmix-style
//! finalizer, so results are bit-identical across runs, independent of
//! the order cells are supplied in, and independent of how many other
//! cells participate. The same store always yields the same report.

use crate::descriptive::{quantile_unsorted, Type7};
use crate::error::AnalysisError;
use crate::Result;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which direction of the measured value means "better": wall times
/// (`us`) shrink when a system improves, throughputs (`MB/s`) grow.
/// The *benefit ratio* below folds the direction in so that, either
/// way, a ratio above 1.0 means the candidate is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values are better (latencies, wall times).
    LowerIsBetter,
    /// Larger values are better (throughputs, rates).
    HigherIsBetter,
}

impl Direction {
    /// The benefit ratio of two medians under this direction: > 1.0
    /// means the candidate improves on the baseline.
    pub fn benefit_ratio(self, baseline_median: f64, candidate_median: f64) -> f64 {
        match self {
            Direction::LowerIsBetter => baseline_median / candidate_median,
            Direction::HigherIsBetter => candidate_median / baseline_median,
        }
    }
}

/// The most bootstrap replicates a [`SpeedupConfig`] may ask for.
/// [`compare_cells`] holds every cell's replicates at once, so its
/// memory is cells × reps × 8 B: 800 MB for 1,000 cells at this cap.
pub const MAX_REPS: usize = 100_000;

/// Knobs of the paired bootstrap. The defaults match the `store_report`
/// CLI defaults so the committed reports and ad-hoc runs agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupConfig {
    /// Bootstrap replicates (10 to [`MAX_REPS`]; ≥ 1000 recommended for
    /// stable interval endpoints).
    pub reps: usize,
    /// Confidence level in `(0, 1)`.
    pub level: f64,
    /// Base RNG seed; every derived stream folds it in.
    pub seed: u64,
}

impl Default for SpeedupConfig {
    fn default() -> Self {
        SpeedupConfig { reps: 1000, level: 0.95, seed: 20170529 }
    }
}

impl SpeedupConfig {
    /// Checks the knobs: `reps` in `10..=MAX_REPS`, `level` in `(0, 1)`.
    /// Every test in this module calls it first; callers that do other
    /// work before testing (loading a whole store, say) call it up
    /// front to fail before that work.
    pub fn validate(&self) -> Result<()> {
        if self.reps < 10 {
            return Err(AnalysisError::InvalidParameter("bootstrap needs >= 10 reps"));
        }
        if self.reps > MAX_REPS {
            return Err(AnalysisError::InvalidParameter("bootstrap reps above MAX_REPS (100000)"));
        }
        if !(0.0 < self.level && self.level < 1.0) {
            return Err(AnalysisError::InvalidParameter("confidence level must be in (0,1)"));
        }
        Ok(())
    }
}

/// A bootstrap confidence interval on a benefit ratio of medians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupCi {
    /// Point estimate: the benefit ratio of the original samples'
    /// medians (geometric mean of per-cell ratios for combined
    /// intervals).
    pub estimate: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level used.
    pub level: f64,
}

impl SpeedupCi {
    /// Whether the interval contains the "no difference" ratio 1.0.
    pub fn contains_unity(&self) -> bool {
        self.lo <= 1.0 && 1.0 <= self.hi
    }
}

/// The statistical verdict of a comparison: only an interval that
/// clears 1.0 entirely supports a direction claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The whole interval is above 1.0: statistically faster (better).
    Faster,
    /// The whole interval is below 1.0: statistically slower (worse).
    Slower,
    /// The interval straddles 1.0: the data does not support a claim.
    Indistinguishable,
}

impl Verdict {
    /// Decides the verdict from an interval.
    pub fn of(ci: &SpeedupCi) -> Verdict {
        if ci.lo > 1.0 {
            Verdict::Faster
        } else if ci.hi < 1.0 {
            Verdict::Slower
        } else {
            Verdict::Indistinguishable
        }
    }

    /// Stable lowercase rendering (used by the CSV report schema).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Faster => "faster",
            Verdict::Slower => "slower",
            Verdict::Indistinguishable => "indistinguishable",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One design cell's two aligned samples: the same factor-level tuple
/// measured by the baseline run and by the candidate run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedCell {
    /// The cell key (rendered factor levels); also salts the cell's
    /// derived RNG streams, which is what makes the comparison
    /// invariant under cell supply order.
    pub name: String,
    /// Baseline measurements (all strictly positive).
    pub baseline: Vec<f64>,
    /// Candidate measurements (all strictly positive).
    pub candidate: Vec<f64>,
}

/// One cell's comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpeedup {
    /// The cell key.
    pub name: String,
    /// Baseline sample size.
    pub n_baseline: usize,
    /// Candidate sample size.
    pub n_candidate: usize,
    /// The cell's benefit-ratio interval.
    pub ci: SpeedupCi,
    /// The cell's verdict.
    pub verdict: Verdict,
}

/// The full paired comparison: per-cell intervals plus the combined
/// interval on the geometric mean of per-cell benefit ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupComparison {
    /// Per-cell results, sorted by cell name.
    pub cells: Vec<CellSpeedup>,
    /// Interval on the geometric mean of per-cell benefit ratios —
    /// every bootstrap replicate resamples *all* cells and recombines,
    /// so between-cell structure is preserved (the "paired" in paired
    /// bootstrap).
    pub combined: SpeedupCi,
    /// Verdict of the combined interval.
    pub verdict: Verdict,
}

/// Splitmix64-style finalizer used to derive independent streams.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the cell name: the salt that decouples a cell's streams
/// from its position in the input.
fn name_salt(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The seed of replicate `rep`'s stream for the cell salted by `salt`.
fn rep_seed(seed: u64, salt: u64, rep: u64) -> u64 {
    mix(seed ^ mix(salt) ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23))
}

/// One side of a cell, prepared once for resampling by rank counting.
///
/// A resample draws `n` indices with replacement, and its ascending
/// order is `sorted[r]` over the multiset of the drawn indices' ranks.
/// Counting how often each rank was drawn and walking the counts in
/// rank order finds the median's two order statistics without sorting
/// anything. They are the very floats a sort would have put there:
/// values that tie are equal `f64`s, because validation rules out NaN
/// and non-positive values (so no `0.0`/`-0.0` pair exists).
struct RankedSample {
    /// The sample, ascending.
    sorted: Vec<f64>,
    /// `rank[i]`: where the sample's `i`-th value sits in `sorted`.
    rank: Vec<usize>,
    /// The median's position among `n` order statistics.
    median_at: Type7,
}

impl RankedSample {
    fn new(xs: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite values compare"));
        let mut rank = vec![0; xs.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        RankedSample {
            sorted: order.iter().map(|&i| xs[i]).collect(),
            rank,
            median_at: Type7::new(xs.len(), 0.5),
        }
    }

    /// The sample's own median (what `quantile_sorted(sorted, 0.5)`
    /// returns).
    fn median(&self) -> f64 {
        let t = self.median_at;
        t.interpolate(self.sorted[t.lo], self.sorted[t.hi])
    }

    /// The median of one resample: draws `n` times `random_range(0..n)`
    /// from `rng`, tallying ranks in `counts` (`n` long, scratch).
    fn resample_median(&self, rng: &mut ChaCha8Rng, counts: &mut [u32]) -> f64 {
        let n = self.sorted.len();
        counts.fill(0);
        for _ in 0..n {
            counts[self.rank[rng.random_range(0..n)]] += 1;
        }
        // The `lo`-th order statistic is the first rank whose running
        // count passes `lo`; `hi` is `lo` or `lo + 1`, so it is either
        // the same rank or the next one drawn.
        let (lo, hi) = (self.median_at.lo, self.median_at.hi);
        let mut r = 0;
        let mut seen = counts[0] as usize;
        while seen <= lo {
            r += 1;
            seen += counts[r] as usize;
        }
        let x_lo = self.sorted[r];
        let x_hi = if seen > hi {
            x_lo
        } else {
            r += 1;
            while counts[r] == 0 {
                r += 1;
            }
            self.sorted[r]
        };
        self.median_at.interpolate(x_lo, x_hi)
    }
}

fn validate_sample(name: &str, side: &str, xs: &[f64]) -> Result<()> {
    if xs.len() < 2 {
        return Err(AnalysisError::TooFewObservations { needed: 2, got: xs.len() });
    }
    if xs.iter().any(|&v| !v.is_finite() || v <= 0.0) {
        let _ = (name, side);
        return Err(AnalysisError::InvalidParameter(
            "speedup tests need strictly positive finite measurements",
        ));
    }
    Ok(())
}

/// One cell's point estimate (the benefit ratio of the two samples'
/// medians) and its `reps` bootstrap benefit ratios. Each replicate
/// draws both resamples from one derived stream (baseline first,
/// candidate second), so a cell's ratios depend only on
/// `(seed, name, rep)`.
fn cell_ratios(
    name: &str,
    baseline: &[f64],
    candidate: &[f64],
    direction: Direction,
    cfg: &SpeedupConfig,
) -> (f64, Vec<f64>) {
    let salt = name_salt(name);
    let (base, cand) = (RankedSample::new(baseline), RankedSample::new(candidate));
    let mut base_counts = vec![0; baseline.len()];
    let mut cand_counts = vec![0; candidate.len()];
    let ratios = (0..cfg.reps as u64)
        .map(|rep| {
            let mut rng = ChaCha8Rng::seed_from_u64(rep_seed(cfg.seed, salt, rep));
            let b = base.resample_median(&mut rng, &mut base_counts);
            let c = cand.resample_median(&mut rng, &mut cand_counts);
            direction.benefit_ratio(b, c)
        })
        .collect();
    (direction.benefit_ratio(base.median(), cand.median()), ratios)
}

/// The percentile interval of `ratios` (reordered in place).
fn percentile_ci(ratios: &mut [f64], estimate: f64, level: f64) -> SpeedupCi {
    let alpha = (1.0 - level) / 2.0;
    SpeedupCi {
        estimate,
        lo: quantile_unsorted(ratios, alpha),
        hi: quantile_unsorted(ratios, 1.0 - alpha),
        level,
    }
}

/// Maps `f` over `0..n` on up to `workers` scoped threads. Workers
/// claim indices off an atomic counter and results are put back in
/// index order, so the output equals the sequential map whenever
/// `f(i)` depends only on `i`.
fn fan_out<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the index publishes no data; results
                        // come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("compare_cells worker panicked")).collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, v)| v).collect()
}

/// Bootstrap CI on the benefit ratio of medians of two samples (one
/// cell). `name` salts the derived RNG streams; pass the design-cell
/// key so the same cell always draws the same streams.
pub fn speedup_ci(
    name: &str,
    baseline: &[f64],
    candidate: &[f64],
    direction: Direction,
    cfg: &SpeedupConfig,
) -> Result<SpeedupCi> {
    cfg.validate()?;
    validate_sample(name, "baseline", baseline)?;
    validate_sample(name, "candidate", candidate)?;
    let (estimate, mut ratios) = cell_ratios(name, baseline, candidate, direction, cfg);
    Ok(percentile_ci(&mut ratios, estimate, cfg.level))
}

/// Paired comparison over many aligned design cells.
///
/// Every cell needs ≥ 2 strictly positive measurements on both sides
/// (callers filter unmatched or degenerate cells *before* the test and
/// report them — silently dropping data is exactly the opaque-benchmark
/// pitfall this repo exists to avoid). Returns per-cell intervals plus
/// the combined interval on the geometric mean of per-cell ratios;
/// results are independent of the order of `cells`.
///
/// Cells are bootstrapped in parallel, one worker per available core.
/// Each cell's streams depend only on `(seed, name, rep)`, so which
/// worker computes a cell never shows in the result.
pub fn compare_cells(
    cells: &[PairedCell],
    direction: Direction,
    cfg: &SpeedupConfig,
) -> Result<SpeedupComparison> {
    cfg.validate()?;
    if cells.is_empty() {
        return Err(AnalysisError::TooFewObservations { needed: 1, got: 0 });
    }
    for c in cells {
        validate_sample(&c.name, "baseline", &c.baseline)?;
        validate_sample(&c.name, "candidate", &c.candidate)?;
    }
    let mut sorted: Vec<&PairedCell> = cells.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));

    // Per cell: its interval, plus its `reps` bootstrap ratios for the
    // combined interval below.
    let workers = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    let per_cell: Vec<(CellSpeedup, Vec<f64>)> = fan_out(sorted.len(), workers, |i| {
        let c = sorted[i];
        let (estimate, ratios) = cell_ratios(&c.name, &c.baseline, &c.candidate, direction, cfg);
        let ci = percentile_ci(&mut ratios.clone(), estimate, cfg.level);
        let cell = CellSpeedup {
            name: c.name.clone(),
            n_baseline: c.baseline.len(),
            n_candidate: c.candidate.len(),
            verdict: Verdict::of(&ci),
            ci,
        };
        (cell, ratios)
    });
    let log_sum = per_cell.iter().fold(0.0, |acc, (c, _)| acc + c.ci.estimate.ln());

    // Combined: replicate r recombines every cell's r-th ratio by
    // geometric mean, preserving the pairing across cells.
    let k = sorted.len() as f64;
    let mut combined_ratios: Vec<f64> = (0..cfg.reps)
        .map(|rep| {
            let s: f64 = per_cell.iter().map(|(_, r)| r[rep].ln()).sum();
            (s / k).exp()
        })
        .collect();
    let combined = percentile_ci(&mut combined_ratios, (log_sum / k).exp(), cfg.level);
    Ok(SpeedupComparison {
        verdict: Verdict::of(&combined),
        combined,
        cells: per_cell.into_iter().map(|(c, _)| c).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::quantile_sorted;

    fn cell(name: &str, baseline: &[f64], candidate: &[f64]) -> PairedCell {
        PairedCell {
            name: name.to_string(),
            baseline: baseline.to_vec(),
            candidate: candidate.to_vec(),
        }
    }

    fn cfg(seed: u64) -> SpeedupConfig {
        SpeedupConfig { reps: 400, level: 0.95, seed }
    }

    /// A mildly noisy sample around `center` (deterministic).
    fn noisy(center: f64, n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let z = mix(salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                center * (1.0 + 0.05 * ((z % 2001) as f64 - 1000.0) / 1000.0)
            })
            .collect()
    }

    #[test]
    fn identical_samples_are_indistinguishable_with_unity_ci() {
        let xs = noisy(100.0, 20, 3);
        let ci = speedup_ci("c", &xs, &xs, Direction::LowerIsBetter, &cfg(1)).unwrap();
        assert_eq!(ci.estimate, 1.0);
        assert!(ci.contains_unity(), "{ci:?}");
        assert_eq!(Verdict::of(&ci), Verdict::Indistinguishable);
    }

    #[test]
    fn clear_speedup_is_declared_faster_in_both_directions() {
        let slow = noisy(100.0, 25, 1);
        let fast: Vec<f64> = slow.iter().map(|v| v / 2.0).collect();
        // lower-is-better: candidate halves the latency
        let ci = speedup_ci("c", &slow, &fast, Direction::LowerIsBetter, &cfg(2)).unwrap();
        assert_eq!(Verdict::of(&ci), Verdict::Faster, "{ci:?}");
        assert!((ci.estimate - 2.0).abs() < 0.2);
        // and the reverse comparison is slower
        let ci = speedup_ci("c", &fast, &slow, Direction::LowerIsBetter, &cfg(2)).unwrap();
        assert_eq!(Verdict::of(&ci), Verdict::Slower, "{ci:?}");
        // higher-is-better flips the ratio
        let ci = speedup_ci("c", &slow, &fast, Direction::HigherIsBetter, &cfg(2)).unwrap();
        assert_eq!(Verdict::of(&ci), Verdict::Slower, "{ci:?}");
    }

    #[test]
    fn deterministic_given_seed_and_sensitive_to_it() {
        let a = noisy(50.0, 15, 7);
        let b = noisy(52.0, 15, 8);
        let x = speedup_ci("c", &a, &b, Direction::LowerIsBetter, &cfg(9)).unwrap();
        let y = speedup_ci("c", &a, &b, Direction::LowerIsBetter, &cfg(9)).unwrap();
        assert_eq!(x, y);
        let z = speedup_ci("c", &a, &b, Direction::LowerIsBetter, &cfg(10)).unwrap();
        assert!(x.lo != z.lo || x.hi != z.hi);
    }

    #[test]
    fn cell_order_does_not_change_the_comparison() {
        let cells = vec![
            cell("a", &noisy(10.0, 12, 1), &noisy(9.0, 12, 2)),
            cell("b", &noisy(20.0, 12, 3), &noisy(21.0, 12, 4)),
            cell("c", &noisy(30.0, 12, 5), &noisy(28.0, 12, 6)),
        ];
        let fwd = compare_cells(&cells, Direction::LowerIsBetter, &cfg(5)).unwrap();
        let mut rev = cells.clone();
        rev.reverse();
        let bwd = compare_cells(&rev, Direction::LowerIsBetter, &cfg(5)).unwrap();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn adding_an_unrelated_cell_leaves_other_cells_intervals_alone() {
        let a = cell("a", &noisy(10.0, 12, 1), &noisy(9.0, 12, 2));
        let b = cell("b", &noisy(20.0, 12, 3), &noisy(21.0, 12, 4));
        let just_a =
            compare_cells(std::slice::from_ref(&a), Direction::LowerIsBetter, &cfg(5)).unwrap();
        let both = compare_cells(&[a, b], Direction::LowerIsBetter, &cfg(5)).unwrap();
        assert_eq!(just_a.cells[0], both.cells[0]);
    }

    #[test]
    fn combined_interval_tracks_uniform_cell_speedup() {
        let cells: Vec<PairedCell> = (0..4)
            .map(|i| {
                let base = noisy(100.0 * (i + 1) as f64, 20, i as u64);
                let cand: Vec<f64> = base.iter().map(|v| v / 1.5).collect();
                cell(&format!("cell{i}"), &base, &cand)
            })
            .collect();
        let cmp = compare_cells(&cells, Direction::LowerIsBetter, &cfg(11)).unwrap();
        assert_eq!(cmp.verdict, Verdict::Faster);
        assert!((cmp.combined.estimate - 1.5).abs() < 0.1, "{:?}", cmp.combined);
        assert!(cmp.cells.iter().all(|c| c.verdict == Verdict::Faster));
    }

    #[test]
    fn rejects_degenerate_input() {
        let ok = noisy(10.0, 12, 1);
        let cfg = cfg(1);
        assert!(speedup_ci("c", &[1.0], &ok, Direction::LowerIsBetter, &cfg).is_err());
        assert!(speedup_ci("c", &ok, &[1.0, -2.0], Direction::LowerIsBetter, &cfg).is_err());
        assert!(speedup_ci("c", &ok, &[1.0, 0.0], Direction::LowerIsBetter, &cfg).is_err());
        assert!(compare_cells(&[], Direction::LowerIsBetter, &cfg).is_err());
        let bad = SpeedupConfig { reps: 5, ..cfg };
        assert!(speedup_ci("c", &ok, &ok, Direction::LowerIsBetter, &bad).is_err());
        let bad = SpeedupConfig { level: 1.5, ..cfg };
        assert!(speedup_ci("c", &ok, &ok, Direction::LowerIsBetter, &bad).is_err());
    }

    #[test]
    fn validate_bounds_reps_and_level() {
        let ok = SpeedupConfig::default();
        assert!(ok.validate().is_ok());
        assert!(SpeedupConfig { reps: 10, ..ok }.validate().is_ok());
        assert!(SpeedupConfig { reps: MAX_REPS, ..ok }.validate().is_ok());
        let over = SpeedupConfig { reps: MAX_REPS + 1, ..ok }.validate().unwrap_err();
        assert!(over.to_string().contains(&MAX_REPS.to_string()), "{over}");
        for bad in [
            SpeedupConfig { reps: 9, ..ok },
            SpeedupConfig { reps: MAX_REPS + 1, ..ok },
            SpeedupConfig { reps: usize::MAX, ..ok },
            SpeedupConfig { level: 0.0, ..ok },
            SpeedupConfig { level: 1.0, ..ok },
            SpeedupConfig { level: f64::NAN, ..ok },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
            let cells = [cell("a", &[1.0, 2.0], &[1.0, 2.0])];
            assert!(compare_cells(&cells, Direction::LowerIsBetter, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn cell_fan_out_is_invariant_under_the_worker_count() {
        let cells: Vec<PairedCell> = (0..7)
            .map(|i| cell(&format!("c{i}"), &noisy(10.0, 9 + i, i as u64), &noisy(11.0, 12, 50)))
            .collect();
        let cfg = cfg(3);
        let matrix = |workers| {
            fan_out(cells.len(), workers, |i| {
                let c = &cells[i];
                cell_ratios(&c.name, &c.baseline, &c.candidate, Direction::LowerIsBetter, &cfg)
            })
        };
        let sequential = matrix(1);
        assert_eq!(sequential.len(), cells.len());
        for workers in [2, 3, cells.len() + 1] {
            assert_eq!(matrix(workers), sequential, "{workers} workers");
        }
    }

    #[test]
    fn rank_counted_median_of_the_sample_itself_matches_sorting() {
        for xs in [vec![3.0, 1.0, 2.0], vec![4.0, 4.0, 1.0, 9.0], noisy(5.0, 20, 4)] {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let ranked = RankedSample::new(&xs);
            assert_eq!(ranked.sorted, sorted);
            assert_eq!(ranked.median().to_bits(), quantile_sorted(&sorted, 0.5).to_bits());
        }
    }

    #[test]
    fn verdict_renders_stable_strings() {
        assert_eq!(Verdict::Faster.as_str(), "faster");
        assert_eq!(Verdict::Slower.as_str(), "slower");
        assert_eq!(Verdict::Indistinguishable.as_str(), "indistinguishable");
    }
}

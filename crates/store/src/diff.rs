//! Cross-run diffing: align two archived runs by design cell.
//!
//! The Measure–Explain–Test–Improve loop (PAPERS.md, Scherer) needs
//! "today's run vs yesterday's" as a first-class operation. A
//! [`RunDiff`] compares two archived runs on three axes:
//!
//! * **metadata drift** — manifest-level identity (`store.seed`,
//!   `store.shards`, `store.plan_hash`, `store.target`,
//!   `store.versions`) plus every
//!   campaign metadata key, reported wherever the two runs disagree;
//! * **cell alignment** — records grouped by the full factor-level
//!   tuple; cells present in only one run are reported with a zero
//!   count on the other side;
//! * **summary shifts** — per-cell record counts, means and medians
//!   (via `charm_analysis`), plus a bit-exactness flag: a cell is
//!   `identical` only when both runs hold the same number of records
//!   with bit-for-bit equal values in the same order.
//!
//! A self-diff is clean by construction; a seed-changed rerun of the
//! same plan shows `store.seed` (and `shuffle_seed`) drift even when
//! the value distributions barely move.

use crate::store::{RunId, Store, StoreError, StoredRun};
use charm_analysis::descriptive;
use std::collections::BTreeMap;

/// One design cell's comparison across the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// The cell, rendered `factor=level,factor=level,…`.
    pub cell: String,
    /// Record count in run A (0 when the cell is absent there).
    pub count_a: usize,
    /// Record count in run B.
    pub count_b: usize,
    /// Mean value in run A (NaN when absent).
    pub mean_a: f64,
    /// Mean value in run B (NaN when absent).
    pub mean_b: f64,
    /// Median value in run A (NaN when absent).
    pub median_a: f64,
    /// Median value in run B (NaN when absent).
    pub median_b: f64,
    /// Counts equal and every value bit-for-bit identical, in order.
    pub identical: bool,
}

impl CellDiff {
    /// Absolute mean shift `mean_b - mean_a` (NaN when either side is
    /// absent).
    pub(crate) fn mean_shift(&self) -> f64 {
        self.mean_b - self.mean_a
    }

    /// Relative mean shift as a percentage of the baseline (run A)
    /// mean: `100 · (mean_b − mean_a) / mean_a`.
    ///
    /// `None` when there is no baseline to divide by — the cell is
    /// absent on either side, or the baseline mean is zero or
    /// non-finite. Callers must render that case explicitly (the CLI
    /// prints `no baseline`) instead of letting a NaN/∞ leak into
    /// reports.
    pub(crate) fn percent_shift(&self) -> Option<f64> {
        if self.count_a == 0 || self.count_b == 0 {
            return None;
        }
        if self.mean_a == 0.0 || !self.mean_a.is_finite() || !self.mean_b.is_finite() {
            return None;
        }
        Some(100.0 * (self.mean_b - self.mean_a) / self.mean_a)
    }
}

/// One metadata key the two runs disagree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataDrift {
    /// The key (`store.`-prefixed for manifest-level identity).
    pub key: String,
    /// Run A's value, or `<absent>`.
    pub a: String,
    /// Run B's value, or `<absent>`.
    pub b: String,
}

/// The full comparison of two archived runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Left-hand run.
    pub run_a: RunId,
    /// Right-hand run.
    pub run_b: RunId,
    /// Keys where the runs' identity or environment disagree.
    pub metadata_drift: Vec<MetadataDrift>,
    /// Per-cell comparisons, sorted by cell key, covering the union of
    /// both runs' cells.
    pub cells: Vec<CellDiff>,
}

impl RunDiff {
    /// No drift and every cell bit-identical: the runs archive the
    /// same measurements.
    pub fn is_clean(&self) -> bool {
        self.metadata_drift.is_empty() && self.cells.iter().all(|c| c.identical)
    }

    /// Cells that differ (not bit-identical).
    pub(crate) fn changed_cells(&self) -> impl Iterator<Item = &CellDiff> {
        self.cells.iter().filter(|c| !c.identical)
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("diff {} .. {}\n", self.run_a, self.run_b));
        if self.is_clean() {
            out.push_str(&format!(
                "clean: {} cells bit-identical, no metadata drift\n",
                self.cells.len()
            ));
            return out;
        }
        for d in &self.metadata_drift {
            out.push_str(&format!("  drift {}: {} -> {}\n", d.key, d.a, d.b));
        }
        let changed: Vec<&CellDiff> = self.changed_cells().collect();
        let identical = self.cells.len() - changed.len();
        out.push_str(&format!(
            "  cells: {} compared, {} identical, {} changed\n",
            self.cells.len(),
            identical,
            changed.len()
        ));
        for c in &changed {
            if c.count_a == 0 || c.count_b == 0 {
                out.push_str(&format!(
                    "  cell {} only in run {} ({} records)\n",
                    c.cell,
                    if c.count_a == 0 { "B" } else { "A" },
                    c.count_a.max(c.count_b)
                ));
            } else {
                let relative = match c.percent_shift() {
                    Some(pct) => format!("{pct:+.2}%"),
                    None => "no baseline".to_string(),
                };
                out.push_str(&format!(
                    "  cell {}: n {} -> {}, mean {:.6} -> {:.6} (shift {:+.6}, {relative}), \
                     median {:.6} -> {:.6}\n",
                    c.cell,
                    c.count_a,
                    c.count_b,
                    c.mean_a,
                    c.mean_b,
                    c.mean_shift(),
                    c.median_a,
                    c.median_b
                ));
            }
        }
        out
    }
}

impl Store {
    /// Diffs two archived runs (both are digest-verified on load).
    pub fn diff(&self, a: &RunId, b: &RunId) -> Result<RunDiff, StoreError> {
        let run_a = self.get(a)?;
        let run_b = self.get(b)?;
        Ok(diff_runs(&run_a, &run_b))
    }
}

/// Diffs two already-loaded runs (exposed for tests and tooling that
/// holds `StoredRun`s anyway).
pub(crate) fn diff_runs(a: &StoredRun, b: &StoredRun) -> RunDiff {
    RunDiff {
        run_a: a.id.clone(),
        run_b: b.id.clone(),
        metadata_drift: metadata_drift(a, b),
        cells: cell_diffs(a, b),
    }
}

fn metadata_drift(a: &StoredRun, b: &StoredRun) -> Vec<MetadataDrift> {
    let mut left: BTreeMap<String, String> = BTreeMap::new();
    let mut right: BTreeMap<String, String> = BTreeMap::new();
    for (map, run) in [(&mut left, a), (&mut right, b)] {
        map.insert("store.plan_hash".into(), run.manifest.plan_hash.clone());
        map.insert("store.target".into(), run.manifest.target.clone());
        map.insert("store.seed".into(), crate::manifest::seed_str(run.manifest.seed));
        map.insert("store.shards".into(), run.manifest.shards.to_string());
        map.insert("store.versions".into(), run.manifest.versions.clone());
        for (k, v) in &run.data.metadata {
            map.insert(k.clone(), v.clone());
        }
    }
    let keys: std::collections::BTreeSet<&String> = left.keys().chain(right.keys()).collect();
    let absent = "<absent>".to_string();
    keys.into_iter()
        .filter_map(|key| {
            let va = left.get(key).unwrap_or(&absent);
            let vb = right.get(key).unwrap_or(&absent);
            (va != vb).then(|| MetadataDrift { key: key.clone(), a: va.clone(), b: vb.clone() })
        })
        .collect()
}

/// Groups a run's record values by the full factor-level tuple,
/// preserving record order within each cell. Shared with the fleet
/// report, whose paired comparisons align runs on exactly these keys.
pub(crate) fn cells_of(run: &StoredRun) -> BTreeMap<String, Vec<f64>> {
    let names = &run.data.factor_names;
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &run.data.records {
        let key = names
            .iter()
            .zip(&r.levels)
            .map(|(n, l)| format!("{n}={l}"))
            .collect::<Vec<_>>()
            .join(",");
        out.entry(key).or_default().push(r.value);
    }
    out
}

fn cell_diffs(a: &StoredRun, b: &StoredRun) -> Vec<CellDiff> {
    let cells_a = cells_of(a);
    let cells_b = cells_of(b);
    let empty: Vec<f64> = Vec::new();
    let keys: std::collections::BTreeSet<&String> = cells_a.keys().chain(cells_b.keys()).collect();
    keys.into_iter()
        .map(|key| {
            let va = cells_a.get(key).unwrap_or(&empty);
            let vb = cells_b.get(key).unwrap_or(&empty);
            let identical =
                va.len() == vb.len() && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits());
            let stat = |f: fn(&[f64]) -> Result<f64, charm_analysis::AnalysisError>, xs: &[f64]| {
                f(xs).unwrap_or(f64::NAN)
            };
            CellDiff {
                cell: key.clone(),
                count_a: va.len(),
                count_b: vb.len(),
                mean_a: stat(descriptive::mean, va),
                mean_b: stat(descriptive::mean, vb),
                median_a: stat(descriptive::median, va),
                median_b: stat(descriptive::median, vb),
                identical,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(count_a: usize, count_b: usize, mean_a: f64, mean_b: f64) -> CellDiff {
        CellDiff {
            cell: "op=ping_pong,size=64".to_string(),
            count_a,
            count_b,
            mean_a,
            mean_b,
            median_a: mean_a,
            median_b: mean_b,
            identical: false,
        }
    }

    #[test]
    fn percent_shift_guards_absent_and_zero_baselines() {
        assert_eq!(cell(5, 5, 100.0, 125.0).percent_shift(), Some(25.0));
        assert_eq!(cell(5, 5, 100.0, 80.0).percent_shift(), Some(-20.0));
        // Absent on either side: a one-sided cell has no shift.
        assert_eq!(cell(0, 5, f64::NAN, 80.0).percent_shift(), None);
        assert_eq!(cell(5, 0, 100.0, f64::NAN).percent_shift(), None);
        // Zero or non-finite baseline mean: nothing to divide by.
        assert_eq!(cell(5, 5, 0.0, 80.0).percent_shift(), None);
        assert_eq!(cell(5, 5, f64::INFINITY, 80.0).percent_shift(), None);
        assert_eq!(cell(5, 5, 100.0, f64::NAN).percent_shift(), None);
    }

    #[test]
    fn render_reports_no_baseline_instead_of_nan() {
        let diff = RunDiff {
            run_a: RunId::parse("00000000000000000000000000000001").unwrap(),
            run_b: RunId::parse("00000000000000000000000000000002").unwrap(),
            metadata_drift: Vec::new(),
            cells: vec![cell(5, 5, 0.0, 80.0), cell(5, 5, 100.0, 125.0)],
        };
        let rendered = diff.render();
        assert!(rendered.contains("no baseline"), "{rendered}");
        assert!(rendered.contains("+25.00%"), "{rendered}");
        assert!(!rendered.to_lowercase().contains("nan%"), "{rendered}");
    }
}

//! Confidence-style variability characterization.
//!
//! Paper §II-B on the Confidence tool (Settlemyer et al.): "many sources
//! of performance variability can be found in modern HPC systems … and
//! [the tool focuses] on reporting the variability that users may
//! actually face and which is hidden by common benchmarks. Such
//! information about variability could be used for simulation purposes
//! provided its dependence on message size is properly characterized."
//!
//! This module computes per-cell empirical quantile bands over retained
//! raw data ([`VariabilityProfile`]) and names the cells whose band is
//! wide (`VariabilityProfile::volatile_cells`).

use charm_analysis::descriptive::Summary;
use charm_analysis::ecdf::Ecdf;
use charm_analysis::AnalysisError;
use charm_engine::record::Campaign;

/// Variability of one cell (one size, usually).
#[derive(Debug, Clone)]
pub struct CellVariability {
    /// Cell key rendered (typically the size).
    pub x: f64,
    /// Five-number summary.
    pub summary: Summary,
    /// Empirical 5th and 95th percentiles — the band a user "actually
    /// faces".
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Relative dispersion: `(p95 − p05) / median`.
    pub relative_band: f64,
}

/// A campaign's variability profile along one numeric factor.
#[derive(Debug, Clone)]
pub struct VariabilityProfile {
    /// Per-cell variability, ascending in `x`.
    pub cells: Vec<CellVariability>,
}

impl VariabilityProfile {
    /// Builds the profile of `campaign` along numeric factor `factor`.
    pub(crate) fn build(campaign: &Campaign, factor: &str) -> Result<Self, AnalysisError> {
        let groups = campaign.group_by(&[factor]);
        if groups.is_empty() {
            return Err(AnalysisError::EmptyInput);
        }
        let mut cells = Vec::with_capacity(groups.len());
        for (key, values) in groups {
            let x =
                key[0].as_float().ok_or(AnalysisError::InvalidParameter("factor not numeric"))?;
            let summary = Summary::of(&values)?;
            let ecdf = Ecdf::new(&values)?;
            let p05 = ecdf.inverse(0.05);
            let p95 = ecdf.inverse(0.95);
            let relative_band =
                if summary.median != 0.0 { (p95 - p05) / summary.median } else { 0.0 };
            cells.push(CellVariability { x, summary, p05, p95, relative_band });
        }
        cells.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("finite factor"));
        Ok(VariabilityProfile { cells })
    }

    /// Cells whose relative band exceeds `threshold` — the sizes a user
    /// should expect to be unpredictable on this platform.
    pub(crate) fn volatile_cells(&self, threshold: f64) -> Vec<&CellVariability> {
        self.cells.iter().filter(|c| c.relative_band > threshold).collect()
    }

    /// Mean relative band across all cells.
    pub(crate) fn mean_relative_band(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().map(|c| c.relative_band).sum::<f64>() / self.cells.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Study;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_engine::target::NetworkTarget;
    use charm_simnet::presets;

    fn taurus_campaign(seed: u64) -> Campaign {
        // sizes spanning eager and detached regimes
        let sizes: Vec<i64> = vec![1000, 4000, 16_000, 40_000, 64_000, 100_000, 200_000, 1 << 20];
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["blocking_recv"]))
            .factor(Factor::new("size", sizes))
            .replicates(40)
            .build();
        let mut target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
        Study::new(plan).randomized(seed).run(&mut target).unwrap()
    }

    #[test]
    fn detached_band_shows_as_volatile_cells() {
        let profile = VariabilityProfile::build(&taurus_campaign(1), "size").unwrap();
        let volatile = profile.volatile_cells(0.5);
        assert!(!volatile.is_empty(), "detached recv band should be volatile");
        // all volatile cells sit in the detached regime (32K..128K)
        for c in &volatile {
            assert!(
                (32_768.0..131_072.0).contains(&c.x),
                "volatile cell at {} outside the detached band",
                c.x
            );
        }
    }

    #[test]
    fn bands_are_ordered() {
        let profile = VariabilityProfile::build(&taurus_campaign(2), "size").unwrap();
        for c in &profile.cells {
            assert!(c.p05 <= c.summary.median);
            assert!(c.summary.median <= c.p95);
            assert!(c.relative_band >= 0.0);
        }
    }

    #[test]
    fn mean_band_is_positive() {
        let profile = VariabilityProfile::build(&taurus_campaign(6), "size").unwrap();
        assert!(profile.mean_relative_band() > 0.0);
    }
}

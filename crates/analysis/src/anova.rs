//! Fixed-effects analysis of variance for factor screening.
//!
//! The Figure 13 diagram answers "which factors influence the response?"
//! — Design-of-Experiments methodology (Montgomery, the paper's [24])
//! answers it quantitatively with ANOVA. Given a replicated design's raw
//! records grouped by a factor's levels, one-way ANOVA partitions the
//! total variance into between-level and within-level parts; the effect
//! size η² (eta squared) says how much of the response the factor
//! explains. Ranking factors by η² reproduces the diagram from data.

use crate::error::AnalysisError;
use crate::Result;

/// One-way fixed-effects ANOVA result.
#[derive(Debug, Clone, PartialEq)]
pub struct OneWayAnova {
    /// Number of groups (factor levels).
    pub groups: usize,
    /// Total observations.
    pub n: usize,
    /// Between-group sum of squares.
    pub ss_between: f64,
    /// Within-group sum of squares.
    pub ss_within: f64,
    /// F statistic (`NaN` when within-group variance is zero).
    pub f_statistic: f64,
    /// Effect size η² = SS_between / SS_total, in `[0, 1]`.
    pub eta_squared: f64,
}

/// Computes one-way ANOVA over groups of observations.
///
/// Needs at least two groups, each non-empty, and at least one group with
/// two observations.
pub fn one_way(groups: &[Vec<f64>]) -> Result<OneWayAnova> {
    if groups.len() < 2 {
        return Err(AnalysisError::TooFewObservations { needed: 2, got: groups.len() });
    }
    if groups.iter().any(|g| g.is_empty()) {
        return Err(AnalysisError::EmptyInput);
    }
    for g in groups {
        crate::error::ensure_finite(g)?;
    }
    let n: usize = groups.iter().map(Vec::len).sum();
    if n <= groups.len() {
        return Err(AnalysisError::TooFewObservations { needed: groups.len() + 1, got: n });
    }
    let grand_mean: f64 = groups.iter().flat_map(|g| g.iter()).sum::<f64>() / n as f64;

    let mut ss_between = 0.0;
    let mut ss_within = 0.0;
    for g in groups {
        let m = g.iter().sum::<f64>() / g.len() as f64;
        ss_between += g.len() as f64 * (m - grand_mean) * (m - grand_mean);
        ss_within += g.iter().map(|v| (v - m) * (v - m)).sum::<f64>();
    }
    let df_b = (groups.len() - 1) as f64;
    let df_w = (n - groups.len()) as f64;
    let ms_between = ss_between / df_b;
    let ms_within = ss_within / df_w;
    let f_statistic = if ms_within > 0.0 { ms_between / ms_within } else { f64::INFINITY };
    let ss_total = ss_between + ss_within;
    let eta_squared = if ss_total > 0.0 { ss_between / ss_total } else { 0.0 };
    Ok(OneWayAnova { groups: groups.len(), n, ss_between, ss_within, f_statistic, eta_squared })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_groups_no_effect() {
        let g = vec![vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]];
        let a = one_way(&g).unwrap();
        assert!(a.eta_squared < 1e-12);
        assert!(a.f_statistic < 1e-9);
    }

    #[test]
    fn separated_groups_full_effect() {
        let g = vec![vec![1.0, 1.0, 1.0], vec![10.0, 10.0, 10.0]];
        let a = one_way(&g).unwrap();
        assert_eq!(a.eta_squared, 1.0);
        assert!(a.f_statistic.is_infinite());
    }

    #[test]
    fn hand_checked_f() {
        // groups {1,2,3}, {2,3,4}: grand mean 2.5
        // ss_between = 3*(2-2.5)^2 + 3*(3-2.5)^2 = 1.5
        // ss_within = 2 + 2 = 4; df = 1, 4 -> F = 1.5 / 1.0 = 1.5
        let g = vec![vec![1.0, 2.0, 3.0], vec![2.0, 3.0, 4.0]];
        let a = one_way(&g).unwrap();
        assert!((a.ss_between - 1.5).abs() < 1e-12);
        assert!((a.ss_within - 4.0).abs() < 1e-12);
        assert!((a.f_statistic - 1.5).abs() < 1e-12);
        assert!((a.eta_squared - 1.5 / 5.5).abs() < 1e-12);
        assert_eq!((a.groups, a.n), (2, 6));
    }

    #[test]
    fn strong_effect_detected() {
        let g = vec![
            vec![10.0, 10.5, 9.5, 10.2],
            vec![20.0, 20.5, 19.5, 20.2],
            vec![30.0, 30.5, 29.5, 30.2],
        ];
        let a = one_way(&g).unwrap();
        assert!(a.eta_squared > 0.99);
        assert!(a.f_statistic > 4.0);
    }

    #[test]
    fn unbalanced_groups_ok() {
        let g = vec![vec![1.0, 2.0], vec![1.5, 2.5, 3.5, 4.5, 5.5]];
        let a = one_way(&g).unwrap();
        assert_eq!(a.n, 7);
        assert!(a.eta_squared >= 0.0 && a.eta_squared <= 1.0);
    }

    #[test]
    fn input_validation() {
        assert!(one_way(&[vec![1.0, 2.0]]).is_err());
        assert!(one_way(&[vec![1.0], vec![]]).is_err());
        assert!(one_way(&[vec![1.0], vec![2.0]]).is_err()); // no residual df
        assert!(one_way(&[vec![1.0, f64::NAN], vec![2.0]]).is_err());
    }
}

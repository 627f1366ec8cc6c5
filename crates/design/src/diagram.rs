//! Cause-and-effect (Ishikawa / fishbone) factor diagrams.
//!
//! Figure 13 of the paper organizes the "influential factors to be
//! carefully managed during experiments" into a modified cause-and-effect
//! diagram: categories (Experiment plan, Operating system, Memory
//! allocation, Architecture, Compilation, Kernel) each carrying the
//! factors discovered the hard way. This module captures the diagram as
//! data, renders it as text, and ships the paper's instance so the bench
//! binary for Figure 13 can print it.

use std::fmt;

/// One category branch of the diagram with its factor leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// Category name (e.g. "Operating system").
    pub category: String,
    /// Factors under this category.
    pub factors: Vec<String>,
}

/// A cause-and-effect diagram: branches pointing at one effect.
#[derive(Debug, Clone, PartialEq)]
pub struct CauseEffectDiagram {
    /// The response/effect being explained (e.g. "Bandwidth").
    pub effect: String,
    /// Category branches.
    pub branches: Vec<Branch>,
}

impl CauseEffectDiagram {
    /// Creates an empty diagram for `effect`.
    pub(crate) fn new<S: Into<String>>(effect: S) -> Self {
        CauseEffectDiagram { effect: effect.into(), branches: Vec::new() }
    }

    /// Adds a category branch.
    pub(crate) fn branch<S: Into<String>>(mut self, category: S, factors: &[&str]) -> Self {
        self.branches.push(Branch {
            category: category.into(),
            factors: factors.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Total number of factor leaves.
    pub fn factor_count(&self) -> usize {
        self.branches.iter().map(|b| b.factors.len()).sum()
    }

    /// The paper's Figure 13 instance: every factor that turned out to
    /// influence the memory benchmark's measured bandwidth.
    pub fn figure13() -> Self {
        CauseEffectDiagram::new("Bandwidth")
            .branch(
                "Experiment plan",
                &["Sequence order", "Repetitions", "Size", "Stride", "Cycles"],
            )
            .branch(
                "Operating system",
                &["Scheduling priority", "CPU frequency", "Core pinning", "Dedication"],
            )
            .branch("Memory allocation", &["Allocation technique", "Element type"])
            .branch("Architecture", &["Intel", "ARM"])
            .branch("Compilation", &["Optimization", "Loop unrolling"])
            .branch("Kernel", &["Time"])
    }
}

impl fmt::Display for CauseEffectDiagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Effect: {}", self.effect)?;
        for b in &self.branches {
            writeln!(f, "├─ {}", b.category)?;
            for (i, factor) in b.factors.iter().enumerate() {
                let tee = if i + 1 == b.factors.len() { "└─" } else { "├─" };
                writeln!(f, "│   {tee} {factor}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contains_factor(d: &CauseEffectDiagram, factor: &str) -> bool {
        d.branches.iter().any(|b| b.factors.iter().any(|f| f == factor))
    }

    #[test]
    fn figure13_has_all_paper_factors() {
        let d = CauseEffectDiagram::figure13();
        assert_eq!(d.effect, "Bandwidth");
        assert_eq!(d.branches.len(), 6);
        for factor in [
            "Sequence order",
            "Repetitions",
            "Size",
            "Stride",
            "Scheduling priority",
            "CPU frequency",
            "Core pinning",
            "Dedication",
            "Allocation technique",
            "Element type",
            "Optimization",
            "Loop unrolling",
        ] {
            assert!(contains_factor(&d, factor), "missing {factor}");
        }
        assert_eq!(d.factor_count(), 16);
    }

    #[test]
    fn builder_and_queries() {
        let d = CauseEffectDiagram::new("Latency").branch("Net", &["MTU", "Driver"]);
        assert!(contains_factor(&d, "MTU"));
        assert!(!contains_factor(&d, "DVFS"));
        assert_eq!(d.factor_count(), 2);
    }

    #[test]
    fn render_contains_structure() {
        let text = CauseEffectDiagram::figure13().to_string();
        assert!(text.contains("Effect: Bandwidth"));
        assert!(text.contains("├─ Operating system"));
        assert!(text.contains("└─ Dedication"));
    }
}

//! Figure 13 — the cause-and-effect diagram of "influential factors to be
//! carefully managed during experiments".

use charm_design::diagram::CauseEffectDiagram;

/// The Figure 13 dataset (it *is* the diagram).
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// The diagram instance.
    pub diagram: CauseEffectDiagram,
}

/// Builds the paper's diagram.
pub fn run() -> Fig13 {
    Fig13 { diagram: CauseEffectDiagram::figure13() }
}

impl Fig13 {
    /// CSV: `category,factor`.
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for b in &self.diagram.branches {
            for f in &b.factors {
                rows.push(vec![b.category.clone(), f.clone()]);
            }
        }
        super::plot::csv(&["category", "factor"], &rows)
    }

    /// Terminal rendering.
    pub(crate) fn report(&self) -> String {
        format!(
            "Figure 13 — influential factors to be carefully managed during experiments\n{}",
            self.diagram
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagram_complete() {
        let fig = run();
        assert_eq!(fig.diagram.factor_count(), 16);
        assert!(fig.to_csv().contains("Operating system,CPU frequency"));
        assert!(fig.report().contains("Effect: Bandwidth"));
    }
}

//! Figure 5 — the table of CPU characteristics used in the study.

use charm_simmem::machine::CpuSpec;

/// The table as data.
#[derive(Debug, Clone)]
pub struct Table05 {
    /// One spec per row, in the paper's order.
    pub cpus: Vec<CpuSpec>,
}

/// Builds the table from the presets.
pub fn run() -> Table05 {
    Table05 { cpus: CpuSpec::all() }
}

impl Table05 {
    /// CSV: `name,frequency_ghz,cores,word_bits,l1,l2,l3`.
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for c in &self.cpus {
            let lvl = |i: usize| {
                c.levels
                    .get(i)
                    .map(|l| format!("{}KB {}-way", l.size_bytes / 1024, l.assoc))
                    .unwrap_or_else(|| "-".into())
            };
            rows.push(vec![
                c.name.to_string(),
                c.freqs_ghz.last().copied().unwrap_or(0.0).to_string(),
                c.cores.to_string(),
                c.word_bits.to_string(),
                lvl(0),
                lvl(1),
                lvl(2),
            ]);
        }
        super::plot::csv(
            &["processor", "frequency_ghz", "cores", "word_bits", "l1", "l2", "l3"],
            &rows,
        )
    }

    /// Terminal rendering.
    pub(crate) fn report(&self) -> String {
        let mut out =
            String::from("Figure 5 — technical characteristics of the CPUs used in this study\n");
        for c in &self.cpus {
            out.push_str(&c.table_row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows_in_paper_order() {
        let t = run();
        assert_eq!(t.cpus.len(), 4);
        assert!(t.cpus[0].name.contains("Opteron"));
        assert!(t.cpus[1].name.contains("Pentium"));
        assert!(t.cpus[2].name.contains("i7-2600"));
        assert!(t.cpus[3].name.contains("ARM"));
    }

    #[test]
    fn csv_and_report_render() {
        let t = run();
        let csv = t.to_csv();
        assert!(csv.contains("64KB 2-way")); // opteron L1
        assert!(csv.contains("8192KB 16-way")); // i7 L3
        assert!(t.report().contains("Figure 5"));
    }
}

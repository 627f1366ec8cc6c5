//! Compiler / code-generation model: element width, loop unrolling and
//! their effect on the issue cost per memory access.
//!
//! Paper §IV-1: the measured bandwidth depends strongly on how the
//! seemingly trivial `s += buffer[stride*i]` loop is compiled —
//!
//! * widening the element type from `int` (4 B) to `long long int` (8 B)
//!   halves the number of accesses for the same byte count, "resulting in
//!   a higher bandwidth"; manual vectorization (128-/256-bit elements)
//!   continues the trend, "only a bit mitigated";
//! * loop unrolling breaks the dependency chain on the accumulator and
//!   lets the core issue close to one load per cycle;
//! * the combination 256-bit + unrolling was anomalously *slow* on the
//!   i7-2600 ("instead of the expected highest values, the actual results
//!   are extremely low. We did not fully investigate the reasons");
//!
//! The model assigns each `(width, unroll)` pair a cost in cycles per
//! access; machine presets may override entries (the i7 anomaly).

use std::collections::HashMap;

/// Element width of the kernel's array type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementWidth {
    /// 4-byte `int`.
    W32,
    /// 8-byte `long long int`.
    W64,
    /// 16-byte vector (2 × long long).
    W128,
    /// 32-byte vector (4 × double).
    W256,
}

impl ElementWidth {
    /// Size in bytes.
    pub(crate) fn bytes(self) -> u64 {
        match self {
            ElementWidth::W32 => 4,
            ElementWidth::W64 => 8,
            ElementWidth::W128 => 16,
            ElementWidth::W256 => 32,
        }
    }

    /// All widths, narrowest first.
    pub fn all() -> [ElementWidth; 4] {
        [ElementWidth::W32, ElementWidth::W64, ElementWidth::W128, ElementWidth::W256]
    }

    /// CSV-friendly name, matching the paper's Figure 9 facet labels.
    pub fn name(self) -> &'static str {
        match self {
            ElementWidth::W32 => "32b_int",
            ElementWidth::W64 => "64b_long_long",
            ElementWidth::W128 => "128b_2xll",
            ElementWidth::W256 => "256b_4xdouble",
        }
    }

    /// Parses the CSV name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "32b_int" => Some(ElementWidth::W32),
            "64b_long_long" => Some(ElementWidth::W64),
            "128b_2xll" => Some(ElementWidth::W128),
            "256b_4xdouble" => Some(ElementWidth::W256),
            _ => None,
        }
    }
}

/// Code-generation configuration of a kernel build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodegenConfig {
    /// Element width of the buffer's type.
    pub width: ElementWidth,
    /// Whether the loop is (manually) unrolled.
    pub unroll: bool,
}

impl CodegenConfig {
    /// Convenience constructor.
    pub fn new(width: ElementWidth, unroll: bool) -> Self {
        CodegenConfig { width, unroll }
    }
}

/// Cost model: cycles the core needs per array access, before any cache
/// miss penalties.
#[derive(Debug, Clone)]
pub struct IssueModel {
    /// Cycles per access for a rolled (dependency-chained) loop.
    pub rolled_cycles_per_access: f64,
    /// Cycles per access when unrolling breaks the chain.
    pub unrolled_cycles_per_access: f64,
    /// Per-(width, unroll) overrides, e.g. the i7's 256-bit + unroll
    /// anomaly. Values replace the computed cost entirely.
    pub overrides: HashMap<CodegenConfig, f64>,
}

impl IssueModel {
    /// A generic out-of-order core: 2 cycles per access rolled (accumulator
    /// dependency chain), 1 cycle unrolled (load throughput bound).
    pub(crate) fn generic_ooo() -> Self {
        IssueModel {
            rolled_cycles_per_access: 2.0,
            unrolled_cycles_per_access: 1.0,
            overrides: HashMap::new(),
        }
    }

    /// Adds an override for one configuration.
    pub(crate) fn with_override(mut self, cfg: CodegenConfig, cycles: f64) -> Self {
        self.overrides.insert(cfg, cycles);
        self
    }

    /// Cycles per access for a configuration.
    pub(crate) fn cycles_per_access(&self, cfg: CodegenConfig) -> f64 {
        if let Some(&c) = self.overrides.get(&cfg) {
            return c;
        }
        if cfg.unroll {
            self.unrolled_cycles_per_access
        } else {
            self.rolled_cycles_per_access
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peak (all-hits) bytes per cycle: `width / cycles_per_access`.
    fn peak_bytes_per_cycle(m: &IssueModel, cfg: CodegenConfig) -> f64 {
        cfg.width.bytes() as f64 / m.cycles_per_access(cfg)
    }

    #[test]
    fn widths_and_names() {
        assert_eq!(ElementWidth::W32.bytes(), 4);
        assert_eq!(ElementWidth::W256.bytes(), 32);
        for w in ElementWidth::all() {
            assert_eq!(ElementWidth::parse(w.name()), Some(w));
        }
        assert_eq!(ElementWidth::parse("nope"), None);
    }

    #[test]
    fn unroll_reduces_cycles() {
        let m = IssueModel::generic_ooo();
        let rolled = m.cycles_per_access(CodegenConfig::new(ElementWidth::W64, false));
        let unrolled = m.cycles_per_access(CodegenConfig::new(ElementWidth::W64, true));
        assert!(unrolled < rolled);
    }

    #[test]
    fn wider_elements_double_peak_bandwidth() {
        let m = IssueModel::generic_ooo();
        let widths = ElementWidth::all();
        for pair in widths.windows(2) {
            let narrow = peak_bytes_per_cycle(&m, CodegenConfig::new(pair[0], true));
            let wide = peak_bytes_per_cycle(&m, CodegenConfig::new(pair[1], true));
            assert!((wide / narrow - 2.0).abs() < 1e-12, "{pair:?}");
        }
    }

    #[test]
    fn override_wins() {
        let anomaly = CodegenConfig::new(ElementWidth::W256, true);
        let m = IssueModel::generic_ooo().with_override(anomaly, 12.0);
        assert_eq!(m.cycles_per_access(anomaly), 12.0);
        // and only that entry
        assert_eq!(m.cycles_per_access(CodegenConfig::new(ElementWidth::W256, false)), 2.0);
        // the anomaly makes the "best" config the slowest — the paper's
        // surprise
        let best_expected = peak_bytes_per_cycle(&m, CodegenConfig::new(ElementWidth::W128, true));
        let anomalous = peak_bytes_per_cycle(&m, anomaly);
        assert!(anomalous < best_expected);
    }
}

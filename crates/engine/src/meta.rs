//! Environment metadata capture.
//!
//! "Reports … a lot of meta-data about the measurements and the
//! environment (machine information, operating system and compiler
//! versions, compilation command, benchmark parameters, network
//! configuration, etc.). Beyond increasing the chances for reproducing
//! the experiments, these meta-data support better results
//! interpretation" (paper §V). In this reproduction the "environment" is
//! the simulator configuration plus the plan and seeds — exactly the
//! inputs needed to replay a campaign bit-identically.

use std::collections::BTreeMap;

/// Builder for a campaign's metadata block.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetadataBuilder {
    entries: BTreeMap<String, String>,
}

impl MetadataBuilder {
    /// Empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one entry (overwrites an existing key).
    pub(crate) fn set(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Self {
        self.entries.insert(key.into(), value.to_string());
        self
    }

    /// Adds the engine's own identity entries.
    pub(crate) fn with_engine_info(self) -> Self {
        self.set("engine", "charm-engine").set("engine_version", env!("CARGO_PKG_VERSION"))
    }

    /// Adds campaign-level entries: plan size, seed, randomization state.
    pub(crate) fn with_campaign_info(self, plan_rows: usize, shuffle_seed: Option<u64>) -> Self {
        let s = self.set("plan_rows", plan_rows);
        match shuffle_seed {
            Some(seed) => s.set("order", "randomized").set("shuffle_seed", seed),
            None => s.set("order", "sequential"),
        }
    }

    /// Merges target-provided entries.
    pub(crate) fn with_target_info(mut self, entries: &[(String, String)]) -> Self {
        for (k, v) in entries {
            self.entries.insert(k.clone(), v.clone());
        }
        self
    }

    /// Finalizes the map.
    pub(crate) fn build(self) -> BTreeMap<String, String> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_everything() {
        let md = MetadataBuilder::new()
            .with_engine_info()
            .with_campaign_info(120, Some(42))
            .with_target_info(&[("platform".into(), "taurus".into())])
            .set("note", "unit test")
            .build();
        assert_eq!(md["engine"], "charm-engine");
        assert_eq!(md["plan_rows"], "120");
        assert_eq!(md["order"], "randomized");
        assert_eq!(md["shuffle_seed"], "42");
        assert_eq!(md["platform"], "taurus");
        assert_eq!(md["note"], "unit test");
    }

    #[test]
    fn sequential_campaigns_have_no_seed() {
        let md = MetadataBuilder::new().with_campaign_info(10, None).build();
        assert_eq!(md["order"], "sequential");
        assert!(!md.contains_key("shuffle_seed"));
    }

    #[test]
    fn later_set_overwrites() {
        let md = MetadataBuilder::new().set("k", "a").set("k", "b").build();
        assert_eq!(md["k"], "b");
    }
}

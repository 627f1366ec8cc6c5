//! Stamped CSV artifacts: every CSV `all_figures` writes carries `# key:
//! value` comment lines naming what produced it (`generator`, `seed`,
//! `observed`), the same format the campaign CSVs use, so every results
//! file is self-describing and `CampaignData::from_csv`-style readers
//! pick the stamps up as metadata. [`artifact`] builds them.
//!
//! Keys the body already carries (campaign CSVs embed their own
//! metadata block) are never stamped twice; the body's value wins.
//!
//! ```
//! let text = charm_bench::csvout::artifact()
//!     .meta("generator", "fig00")
//!     .meta("seed", 42u64)
//!     .observed(false)
//!     .stamped("x,y\n1,2\n");
//! assert_eq!(text, "# generator: fig00\n# seed: 42\nx,y\n1,2\n");
//! ```

use charm_engine::record::write_metadata;
use std::collections::BTreeSet;

/// A CSV artifact's metadata stamps, being assembled.
#[derive(Debug, Clone, Default)]
pub struct CsvArtifact {
    meta: Vec<(String, String)>,
}

/// Starts a stamped CSV artifact with no stamps yet.
pub fn artifact() -> CsvArtifact {
    CsvArtifact::default()
}

impl CsvArtifact {
    /// Adds a `# key: value` stamp (skipped if the body already carries
    /// the key).
    pub fn meta(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Stamps `# observed: true` — the marker campaign CSVs carry when
    /// an observer was attached — only when `observed` is set, matching
    /// the engine's convention of omitting the key entirely otherwise.
    pub fn observed(self, observed: bool) -> Self {
        if observed {
            self.meta("observed", "true")
        } else {
            self
        }
    }

    /// The stamped text: metadata comment lines, then the body.
    pub fn stamped(&self, body: &str) -> String {
        let present = existing_keys(body);
        let mut out = String::new();
        let fresh = self.meta.iter().filter(|(k, _)| !present.contains(k.as_str()));
        write_metadata(&mut out, fresh.map(|(k, v)| (k, v)));
        out.push_str(body);
        out
    }
}

/// Metadata keys already present in the body's leading `# key: value`
/// comment block.
fn existing_keys(body: &str) -> BTreeSet<&str> {
    let mut keys = BTreeSet::new();
    for line in body.lines() {
        match line.strip_prefix('#') {
            Some(rest) => {
                if let Some((k, _)) = rest.split_once(':') {
                    keys.insert(k.trim());
                }
            }
            None => break,
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_precede_body_in_insertion_order() {
        let text = artifact().meta("generator", "t").meta("seed", 7).stamped("a,b\n1,2\n");
        assert_eq!(text, "# generator: t\n# seed: 7\na,b\n1,2\n");
    }

    #[test]
    fn body_keys_are_never_duplicated() {
        let body = "# observed: true\n# seed: 99\na,b\n";
        let text = artifact().meta("seed", 7).observed(true).meta("generator", "t").stamped(body);
        assert_eq!(text, "# generator: t\n# observed: true\n# seed: 99\na,b\n");
    }

    #[test]
    fn observed_false_adds_nothing() {
        let text = artifact().observed(false).stamped("a\n1\n");
        assert_eq!(text, "a\n1\n");
    }

    #[test]
    fn stamped_artifact_still_parses_as_campaign_metadata() {
        let body = "op,replicate,sequence,start_us,value\nping_pong,0,0,0,1.5\n";
        let text = artifact().meta("generator", "t").meta("seed", 3).stamped(body);
        let campaign = charm_engine::CampaignData::from_csv(&text).unwrap();
        assert_eq!(campaign.metadata["generator"], "t");
        assert_eq!(campaign.metadata["seed"], "3");
        assert_eq!(campaign.records.len(), 1);
    }
}

//! Shared CSV artifact writing for the regenerator binaries.
//!
//! Every fig*/table* binary used to call `write_artifact` with a bare
//! CSV body, so metadata headers drifted: only `fig11_raw.csv` carried
//! the `# observed: true` marker (inherited from its campaign
//! metadata), and no figure recorded which binary or seed produced it.
//! [`artifact`] centralizes the convention: artifacts are stamped with
//! `# key: value` comment lines — the same format the campaign CSVs
//! use, so every results file is self-describing and
//! `CampaignData::from_csv`-style readers pick the stamps up as
//! metadata.
//!
//! Keys the body already carries (campaign CSVs embed their own
//! metadata block) are never stamped twice; the body's value wins.
//!
//! ```
//! let text = charm_bench::csvout::artifact("fig00.csv")
//!     .meta("generator", "fig00")
//!     .meta("seed", 42u64)
//!     .observed(false)
//!     .stamped("x,y\n1,2\n");
//! assert_eq!(text, "# generator: fig00\n# seed: 42\nx,y\n1,2\n");
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A CSV artifact being assembled: name plus metadata stamps.
#[derive(Debug, Clone)]
pub struct CsvArtifact {
    name: String,
    meta: Vec<(String, String)>,
}

/// Starts a stamped CSV artifact named `name` (relative to the results
/// directory).
pub fn artifact(name: &str) -> CsvArtifact {
    CsvArtifact { name: name.to_string(), meta: Vec::new() }
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

    /// The stamped text: metadata comment lines, then the body. Pure
    /// (no I/O); [`CsvArtifact::write`] is the effectful wrapper.
    pub fn stamped(&self, body: &str) -> String {
        let present = existing_keys(body);
        let mut out = String::new();
        for (k, v) in &self.meta {
            if !present.contains(k.as_str()) {
                out.push_str(&format!("# {k}: {v}\n"));
            }
        }
        out.push_str(body);
        out
    }

    /// Writes the stamped artifact into the results directory (`out` is
    /// the `--out` flag) and reports its path (via
    /// [`crate::write_artifact`]).
    pub fn write(self, out: Option<&Path>, body: &str) -> std::io::Result<PathBuf> {
        let text = self.stamped(body);
        crate::write_artifact(out, &self.name, &text)
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
        let text = artifact("t.csv").meta("generator", "t").meta("seed", 7).stamped("a,b\n1,2\n");
        assert_eq!(text, "# generator: t\n# seed: 7\na,b\n1,2\n");
    }

    #[test]
    fn body_keys_are_never_duplicated() {
        let body = "# observed: true\n# seed: 99\na,b\n";
        let text =
            artifact("t.csv").meta("seed", 7).observed(true).meta("generator", "t").stamped(body);
        assert_eq!(text, "# generator: t\n# observed: true\n# seed: 99\na,b\n");
    }

    #[test]
    fn observed_false_adds_nothing() {
        let text = artifact("t.csv").observed(false).stamped("a\n1\n");
        assert_eq!(text, "a\n1\n");
    }

    #[test]
    fn stamped_artifact_still_parses_as_campaign_metadata() {
        let body = "op,replicate,sequence,start_us,value\nping_pong,0,0,0,1.5\n";
        let text = artifact("t.csv").meta("generator", "t").meta("seed", 3).stamped(body);
        let campaign = charm_engine::CampaignData::from_csv(&text).unwrap();
        assert_eq!(campaign.metadata["generator"], "t");
        assert_eq!(campaign.metadata["seed"], "3");
        assert_eq!(campaign.records.len(), 1);
    }
}

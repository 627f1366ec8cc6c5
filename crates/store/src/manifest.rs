//! The run manifest: everything needed to trust and reproduce a run.
//!
//! The paper's methodology demands that raw data survive *with its full
//! experimental context* (§III): a results file whose plan, seed and
//! engine version are unknown cannot be re-analyzed or challenged. A
//! [`Manifest`] is that context, written atomically next to the raw
//! records:
//!
//! * identity — the run ID and the `(plan_hash, target, seed, shards)`
//!   quadruple it derives from, so a manifest can be checked against the
//!   campaign that claims it;
//! * provenance — crate version, the CLI invocation that produced the
//!   run, the benchmark label, and the **machine facts** of the host
//!   that measured it (logical cores, OS, `CHARM_*` environment
//!   variables) so fleet reports can group runs by host class;
//! * integrity — per-artifact byte counts and SHA-256 digests over
//!   every file in the run directory, so any later read can prove the
//!   bytes are the ones archived.
//!
//! Serialization uses the workspace's restricted JSON dialect
//! ([`charm_obs::json`]: strings, numbers and maps only — no arrays),
//! which is why `artifacts` serializes as an object keyed by artifact
//! name rather than a list.
//!
//! Format history: v3 added `benchmark` and `machine`; v2 manifests
//! (written before this PR) still parse — their benchmark is empty and
//! their machine facts are absent ([`Manifest::machine`] is `None`).
//! New manifests are always written as v3.

use charm_obs::json::{self, Value};
use std::collections::BTreeMap;

/// Format marker written into every manifest; bumped on breaking
/// layout changes so old readers fail loudly instead of misparsing.
pub(crate) const MANIFEST_FORMAT: &str = "charm-store-manifest/3";

/// The previous format, still accepted by [`Manifest::from_json`]: v2
/// manifests predate machine facts and the benchmark label.
pub(crate) const MANIFEST_FORMAT_V2: &str = "charm-store-manifest/2";

/// Digest record for one archived file, path relative to the run
/// directory (e.g. `records.csv`, `checkpoints/shard-0-of-4.csv`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Run-directory-relative path, `/`-separated.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Lowercase hex SHA-256 of the file contents.
    pub sha256: String,
}

/// Facts about the machine that executed an archived run, recorded so
/// cross-run reports can group hosts into comparable classes — a
/// 1-core CI runner's shard speedups say nothing about a 16-core
/// workstation's. The `CHARM_*` environment variables are kept as
/// provenance only: no charm binary reads one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineFacts {
    /// Logical core count visible to the process.
    pub cores: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Every `CHARM_*` environment variable set when the run was
    /// archived (sorted).
    pub env: BTreeMap<String, String>,
}

impl MachineFacts {
    /// Captures the current process's machine facts.
    pub fn current() -> MachineFacts {
        MachineFacts {
            cores: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            env: std::env::vars().filter(|(k, _)| k.starts_with("CHARM_")).collect(),
        }
    }

    /// The host-class key reports group by: `os/<cores>c`.
    pub fn host_class(&self) -> String {
        format!("{}/{}c", self.os, self.cores)
    }
}

/// The manifest for one archived run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The run's content-derived ID (32 hex chars).
    pub run_id: String,
    /// SHA-256 of the experiment plan's CSV rendering.
    pub plan_hash: String,
    /// Identity of the measured target: platform name plus a digest of
    /// its introspected metadata (see `charm_store::target_identity`).
    pub target: String,
    /// The campaign's shuffle/stream seed, if one was set.
    pub seed: Option<u64>,
    /// Shard count the campaign ran (or will run) with.
    pub shards: u64,
    /// Benchmark label the run was archived under (the spec's
    /// `[benchmark].name`, or the campaign label in DSL mode). Empty
    /// for runs archived by pre-v3 writers.
    pub benchmark: String,
    /// Machine facts of the archiving host; `None` for v2 manifests,
    /// which predate them.
    pub machine: Option<MachineFacts>,
    /// Producing crate and version, e.g. `charm-store 0.1.0`.
    pub versions: String,
    /// The CLI invocation that produced the run (space-joined argv);
    /// empty when the run was archived programmatically.
    pub cli_args: String,
    /// Per-artifact digests, sorted by name.
    pub artifacts: Vec<Artifact>,
}

impl Manifest {
    /// Renders the manifest as pretty-printed JSON (restricted dialect).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {},\n", json::string(MANIFEST_FORMAT)));
        out.push_str(&format!("  \"run_id\": {},\n", json::string(&self.run_id)));
        out.push_str(&format!("  \"plan_hash\": {},\n", json::string(&self.plan_hash)));
        out.push_str(&format!("  \"target\": {},\n", json::string(&self.target)));
        out.push_str(&format!("  \"seed\": {},\n", json::string(&seed_str(self.seed))));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"benchmark\": {},\n", json::string(&self.benchmark)));
        if let Some(m) = &self.machine {
            out.push_str(&format!(
                "  \"machine\": {{ \"cores\": {}, \"os\": {}, \"env\": {{",
                m.cores,
                json::string(&m.os)
            ));
            for (i, (k, v)) in m.env.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(" {}: {}", json::string(k), json::string(v)));
            }
            if !m.env.is_empty() {
                out.push(' ');
            }
            out.push_str("} },\n");
        }
        out.push_str(&format!("  \"versions\": {},\n", json::string(&self.versions)));
        out.push_str(&format!("  \"cli_args\": {},\n", json::string(&self.cli_args)));
        out.push_str("  \"artifacts\": {");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{ \"bytes\": {}, \"sha256\": {} }}",
                json::string(&a.name),
                a.bytes,
                json::string(&a.sha256)
            ));
        }
        if !self.artifacts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a manifest back from its JSON rendering.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let obj = json::parse_object(text)?;
        let format = obj.get_str("format").ok_or("manifest missing \"format\"")?;
        if format != MANIFEST_FORMAT && format != MANIFEST_FORMAT_V2 {
            return Err(format!(
                "manifest format {format:?} is not the supported {MANIFEST_FORMAT:?} \
                 (or the legacy {MANIFEST_FORMAT_V2:?})"
            ));
        }
        let field = |key: &str| {
            obj.get_str(key).map(str::to_string).ok_or(format!("manifest missing {key:?}"))
        };
        let seed = parse_seed(&field("seed")?)?;
        let shards = obj.get_u64("shards").ok_or("manifest missing numeric \"shards\"")?;
        // v2 manifests predate the benchmark label and machine facts;
        // read them as "unknown" rather than refusing the whole archive.
        let benchmark = obj.get_str("benchmark").unwrap_or_default().to_string();
        let machine = match obj.get("machine") {
            Some(Value::Map(fields)) => {
                let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let cores = match get("cores") {
                    Some(Value::Num(raw)) => raw
                        .parse::<u64>()
                        .map_err(|_| "machine facts have a bad core count".to_string())?,
                    _ => return Err("machine facts missing \"cores\"".to_string()),
                };
                let os = match get("os") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err("machine facts missing \"os\"".to_string()),
                };
                let mut env = BTreeMap::new();
                match get("env") {
                    Some(Value::Map(entries)) => {
                        for (k, v) in entries {
                            match v {
                                Value::Str(s) => {
                                    env.insert(k.clone(), s.clone());
                                }
                                _ => {
                                    return Err(format!("machine env {k:?} is not a string"));
                                }
                            }
                        }
                    }
                    Some(_) => return Err("machine \"env\" is not an object".to_string()),
                    None => return Err("machine facts missing \"env\"".to_string()),
                }
                Some(MachineFacts { cores, os, env })
            }
            Some(_) => return Err("\"machine\" is not an object".to_string()),
            None => None,
        };
        let mut artifacts = Vec::new();
        match obj.get("artifacts") {
            Some(Value::Map(entries)) => {
                for (name, value) in entries {
                    let Value::Map(fields) = value else {
                        return Err(format!("artifact {name:?} is not an object"));
                    };
                    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    let bytes = match get("bytes") {
                        Some(Value::Num(raw)) => raw
                            .parse::<u64>()
                            .map_err(|_| format!("artifact {name:?} has bad byte count"))?,
                        _ => return Err(format!("artifact {name:?} missing \"bytes\"")),
                    };
                    let sha256 = match get("sha256") {
                        Some(Value::Str(s)) => s.clone(),
                        _ => return Err(format!("artifact {name:?} missing \"sha256\"")),
                    };
                    artifacts.push(Artifact { name: name.clone(), bytes, sha256 });
                }
            }
            Some(_) => return Err("\"artifacts\" is not an object".to_string()),
            None => return Err("manifest missing \"artifacts\"".to_string()),
        }
        artifacts.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Manifest {
            run_id: field("run_id")?,
            plan_hash: field("plan_hash")?,
            target: field("target")?,
            seed,
            shards,
            benchmark,
            machine,
            versions: field("versions")?,
            cli_args: field("cli_args")?,
            artifacts,
        })
    }

    /// The artifact entry for `name`, if archived.
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.name == name)
    }
}

/// Renders an optional seed the way manifests store it.
pub fn seed_str(seed: Option<u64>) -> String {
    match seed {
        Some(s) => s.to_string(),
        None => "none".to_string(),
    }
}

fn parse_seed(raw: &str) -> Result<Option<u64>, String> {
    if raw == "none" {
        return Ok(None);
    }
    raw.parse::<u64>().map(Some).map_err(|_| format!("bad seed {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            run_id: "0123456789abcdef0123456789abcdef".into(),
            plan_hash: "ff".repeat(32),
            target: "taurus#0011aabbccdd".into(),
            seed: Some(20170529),
            shards: 4,
            benchmark: "fig04".into(),
            machine: Some(MachineFacts {
                cores: 4,
                os: "linux".into(),
                env: [("CHARM_SEED".to_string(), "5".to_string())].into_iter().collect(),
            }),
            versions: "charm-store 0.1.0".into(),
            cli_args: "run_campaign plan.dsl net --store results/store".into(),
            artifacts: vec![
                Artifact {
                    name: "checkpoints/shard-0-of-4.csv".into(),
                    bytes: 77,
                    sha256: "aa".repeat(32),
                },
                Artifact { name: "records.csv".into(), bytes: 1234, sha256: "bb".repeat(32) },
            ],
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let m = sample();
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn seedless_manifest_roundtrips() {
        let m = Manifest { seed: None, artifacts: Vec::new(), ..sample() };
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.seed, None);
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_without_target_is_rejected() {
        let json = sample().to_json();
        let text: Vec<&str> = json.lines().filter(|l| !l.contains("\"target\"")).collect();
        let err = Manifest::from_json(&text.join("\n")).unwrap_err();
        assert!(err.contains("target"), "{err}");
    }

    #[test]
    fn unknown_format_is_rejected() {
        let text = sample().to_json().replace(MANIFEST_FORMAT, "charm-store-manifest/99");
        let err = Manifest::from_json(&text).unwrap_err();
        assert!(err.contains("charm-store-manifest/99"), "{err}");
    }

    #[test]
    fn v2_manifest_without_machine_facts_still_parses() {
        // A v2 manifest as the previous writer emitted it: no benchmark,
        // no machine block. Archives written before the bump must stay
        // readable.
        let m = sample();
        let v2 = m
            .to_json()
            .replace(MANIFEST_FORMAT, MANIFEST_FORMAT_V2)
            .lines()
            .filter(|l| !l.contains("\"benchmark\"") && !l.contains("\"machine\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = Manifest::from_json(&v2).unwrap();
        assert_eq!(back.benchmark, "");
        assert_eq!(back.machine, None);
        assert_eq!(back.run_id, m.run_id);
        assert_eq!(back.artifacts, m.artifacts);
    }

    #[test]
    fn machine_facts_roundtrip_and_render_a_host_class() {
        let m = sample();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        let facts = back.machine.as_ref().unwrap();
        assert_eq!(facts.cores, 4);
        assert_eq!(facts.os, "linux");
        assert_eq!(facts.env.get("CHARM_SEED").map(String::as_str), Some("5"));
        assert_eq!(facts.host_class(), "linux/4c");
        // empty env still round-trips
        let bare = Manifest {
            machine: Some(MachineFacts { cores: 1, os: "linux".into(), env: BTreeMap::new() }),
            ..sample()
        };
        assert_eq!(Manifest::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn current_machine_facts_are_plausible() {
        let facts = MachineFacts::current();
        assert!(facts.cores >= 1);
        assert!(!facts.os.is_empty());
        assert!(facts.env.keys().all(|k| k.starts_with("CHARM_")));
    }

    #[test]
    fn missing_artifacts_key_is_rejected() {
        let err = Manifest::from_json("{\"format\": \"charm-store-manifest/1\"}").unwrap_err();
        assert!(err.contains("format") || err.contains("missing"), "{err}");
    }
}

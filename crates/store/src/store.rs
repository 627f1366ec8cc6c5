//! The campaign store: content-addressed run directories on disk.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/runs/<run_id>/manifest.json                  (finalized runs)
//! <root>/runs/<run_id>/records.csv                    (raw records)
//! <root>/runs/<run_id>/report.jsonl                   (optional obs report)
//! <root>/runs/<run_id>/checkpoints/shard-B-of-K.csv   (resume segments)
//! ```
//!
//! Run IDs derive from `(plan_hash, target, seed, shards)`, so
//! re-archiving the identical campaign lands on the same directory
//! (dedupe) while any change to the plan, measured target, seed or
//! shard count moves to a fresh one. The ID is a truncated hash; the
//! manifest stores the full quadruple, and both [`Store::put_run`] and
//! [`Store::get`] cross-check it so a truncated collision (or a
//! hand-moved directory) surfaces as an explicit
//! [`StoreError::Collision`], never as silently merged data.
//!
//! Every write is atomic (temp file + rename in the same directory), so
//! a crash mid-write leaves either the old content or debris that is
//! never loadable — a half-written checkpoint cannot poison a resume.

use crate::digest::sha256_hex;
use crate::manifest::{seed_str, Artifact, MachineFacts, Manifest};
use charm_design::ExperimentPlan;
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::{CampaignData, RawRecord, Target};
use charm_obs::CampaignReport;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// A run's content-derived identity: 32 lowercase hex characters
/// (the first 16 bytes of the derivation hash).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(String);

impl RunId {
    /// Validates and wraps a textual run ID (as printed by the CLI).
    pub fn parse(raw: &str) -> Result<RunId, StoreError> {
        let ok = raw.len() == 32 && raw.chars().all(|c| c.is_ascii_hexdigit() && !c.is_uppercase());
        if ok {
            Ok(RunId(raw.to_string()))
        } else {
            Err(StoreError::Corrupt {
                path: raw.to_string(),
                message: "run IDs are 32 lowercase hex characters".to_string(),
            })
        }
    }

    /// The ID as printed (32 hex chars).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The `(plan_hash, target, seed, shards)` quadruple a run ID derives
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignKey {
    /// SHA-256 of the plan's CSV rendering.
    pub plan_hash: String,
    /// Identity of the measured target (see [`target_identity`]). The
    /// same plan run against two platforms is two different campaigns
    /// and must never share a run directory.
    pub target: String,
    /// Shuffle/stream seed, if set.
    pub seed: Option<u64>,
    /// Shard count.
    pub shards: u64,
}

impl CampaignKey {
    /// Derives the key for a plan about to run against `target` with
    /// `seed` and `shards`.
    pub fn of(plan: &ExperimentPlan, target: &str, seed: Option<u64>, shards: u64) -> CampaignKey {
        CampaignKey {
            plan_hash: sha256_hex(plan.to_csv().as_bytes()),
            target: target.to_string(),
            seed,
            shards,
        }
    }

    /// The content-derived run ID for this key.
    pub fn run_id(&self) -> RunId {
        let preimage = format!(
            "charm-run\n{}\n{}\n{}\n{}",
            self.plan_hash,
            self.target,
            seed_str(self.seed),
            self.shards
        );
        RunId(sha256_hex(preimage.as_bytes())[..32].to_string())
    }

    /// Whether `manifest` records exactly this campaign identity — the
    /// guard against truncated-run-ID collisions, and what a service
    /// checks before serving an archived run as a dedupe hit.
    pub fn matches(&self, manifest: &Manifest) -> bool {
        manifest.plan_hash == self.plan_hash
            && manifest.target == self.target
            && manifest.seed == self.seed
            && manifest.shards == self.shards
    }
}

/// The identity string the store uses for a target: its platform name
/// plus a truncated digest of its introspected metadata, so two presets
/// that share a name (or one preset reconfigured) still derive
/// different run IDs. Deterministic across processes for
/// deterministically configured targets — the property resume relies
/// on to re-derive an interrupted run's ID from the same CLI arguments.
pub fn target_identity<T: Target + ?Sized>(target: &T) -> String {
    let mut rendered = String::new();
    for (k, v) in target.metadata() {
        rendered.push_str(&k);
        rendered.push('=');
        rendered.push_str(&v);
        rendered.push('\n');
    }
    format!("{}#{}", target.name(), &sha256_hex(rendered.as_bytes())[..12])
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error text.
        message: String,
    },
    /// A stored file failed to parse or failed an internal consistency
    /// check.
    Corrupt {
        /// Path (or identifier) involved.
        path: String,
        /// What failed.
        message: String,
    },
    /// The directory for a run ID holds a *different* campaign — a
    /// truncated-hash collision or a hand-edited archive. Never merged
    /// silently.
    Collision {
        /// The contested run ID.
        run_id: String,
        /// The stored campaign's triple, rendered.
        stored: String,
        /// The incoming campaign's triple, rendered.
        incoming: String,
    },
    /// An archived artifact's bytes no longer match the manifest digest.
    Tampered {
        /// The run holding the artifact.
        run_id: String,
        /// Artifact name (run-directory-relative).
        artifact: String,
        /// Digest recorded in the manifest.
        expected: String,
        /// Digest of the bytes on disk.
        actual: String,
    },
    /// No finalized run with this ID exists in the store.
    NotFound {
        /// The missing run ID.
        run_id: String,
    },
    /// The fleet report's speedup test rejected its input, e.g. a
    /// `SpeedupConfig` with too few replicates or a level outside
    /// `(0, 1)`.
    Analysis {
        /// The analysis error, rendered.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store I/O error at {path}: {message}"),
            StoreError::Corrupt { path, message } => {
                write!(f, "store corruption at {path}: {message}")
            }
            StoreError::Collision { run_id, stored, incoming } => write!(
                f,
                "run {run_id} already archives a different campaign \
                 (stored {stored}, incoming {incoming})"
            ),
            StoreError::Tampered { run_id, artifact, expected, actual } => write!(
                f,
                "run {run_id} artifact {artifact} was modified after archiving \
                 (manifest sha256 {expected}, on-disk {actual})"
            ),
            StoreError::NotFound { run_id } => write!(f, "no archived run {run_id}"),
            StoreError::Analysis { message } => {
                write!(f, "speedup test rejected its input: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Writes `contents` atomically: temp file in the same directory, then
/// rename. Readers never observe a half-written file. The temp name is
/// unique per process and per call, so concurrent writers targeting the
/// same path — e.g. two service workers archiving the identical
/// campaign — cannot interleave inside one temp file; last rename wins
/// whole.
fn write_atomic(path: &Path, contents: &str) -> Result<(), StoreError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(format!(".tmp.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// A fully verified archived run, as returned by [`Store::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// The run's ID.
    pub id: RunId,
    /// Its manifest.
    pub manifest: Manifest,
    /// The raw records, parsed back.
    pub data: CampaignData,
    /// The observability report, when one was archived.
    pub report: Option<CampaignReport>,
}

/// What [`Store::gc`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Checkpoint segments deleted from finalized runs.
    pub removed_segments: usize,
    /// Bytes those segments occupied.
    pub reclaimed_bytes: u64,
    /// Empty debris directories removed.
    pub removed_dirs: usize,
}

/// A filter over archived runs, for [`Store::select`]. Every field is
/// optional; an empty query matches every finalized run.
///
/// `plan_hash` and `target` match by *prefix*, so the truncated hashes
/// the CLI prints (and the bare platform name of a target identity)
/// are usable query keys as-is. `benchmark` and `host` match exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunQuery {
    /// Prefix of the plan hash (full 64-hex or any truncation).
    pub plan_hash: Option<String>,
    /// Prefix of the target identity (e.g. a platform name like
    /// `taurus`, or the full `name#digest` string).
    pub target: Option<String>,
    /// Exact benchmark label (as recorded by [`Store::put_run`]).
    /// Pre-v3 manifests record the empty label.
    pub benchmark: Option<String>,
    /// Exact machine-facts host class (see
    /// [`MachineFacts::host_class`], e.g. `linux/4c`). Pre-v3 manifests
    /// carry no machine facts and match only the literal `unknown` —
    /// the class the CLI prints for them. A long-running service uses
    /// this to scope queries to runs measured on the machine it serves
    /// from.
    pub host: Option<String>,
}

impl RunQuery {
    /// Scopes the query to the host class of the *current* machine, so
    /// the daemon and the report tooling can ask "what has this box
    /// measured?" without recomputing the class by hand.
    pub fn on_current_host(mut self) -> RunQuery {
        self.host = Some(MachineFacts::current().host_class());
        self
    }

    /// Does `manifest` satisfy every set filter?
    pub fn matches(&self, manifest: &Manifest) -> bool {
        self.plan_hash.as_ref().is_none_or(|p| manifest.plan_hash.starts_with(p.as_str()))
            && self.target.as_ref().is_none_or(|t| manifest.target.starts_with(t.as_str()))
            && self.benchmark.as_ref().is_none_or(|b| manifest.benchmark == *b)
            && self.host.as_ref().is_none_or(|h| {
                manifest.machine.as_ref().map_or_else(|| "unknown".to_string(), |m| m.host_class())
                    == *h
            })
    }
}

/// A content-addressed archive of campaign runs rooted at a directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = dir.as_ref().to_path_buf();
        let runs = root.join("runs");
        fs::create_dir_all(&runs).map_err(|e| io_err(&runs, e))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn run_dir(&self, id: &RunId) -> PathBuf {
        self.root.join("runs").join(id.as_str())
    }

    /// Opens a checkpoint session for a campaign about to run: the
    /// sink to pass to `Campaign::store`, bound to the run directory
    /// this campaign's `(plan, target, seed, shards)` quadruple
    /// addresses. `target` is the measured platform's identity string
    /// (see [`target_identity`]).
    pub fn session(
        &self,
        plan: &ExperimentPlan,
        target: &str,
        seed: Option<u64>,
        shards: u64,
    ) -> Result<CheckpointSession, StoreError> {
        let key = CampaignKey::of(plan, target, seed, shards);
        let id = key.run_id();
        let dir = self.run_dir(&id);
        // Guard against a truncated-ID collision before any write.
        if let Some(manifest) = self.try_manifest(&id)? {
            if !key.matches(&manifest) {
                return Err(collision(&id, &manifest, &key));
            }
        }
        let checkpoints = dir.join("checkpoints");
        fs::create_dir_all(&checkpoints).map_err(|e| io_err(&checkpoints, e))?;
        Ok(CheckpointSession { dir, key, run_id: id, factor_names: plan.factor_names().to_vec() })
    }

    /// Archives a finished campaign under `key` (see [`CampaignKey::of`]),
    /// returning its run ID. Re-archiving the identical campaign (same
    /// key *and* same record bytes) is a no-op returning the same ID; a
    /// different campaign addressing the same ID — including one whose
    /// key matches but whose records drifted, e.g. after an engine
    /// change — is a [`StoreError::Collision`], never silently
    /// discarded.
    ///
    /// `benchmark` is the benchmark label the run is filed under (the
    /// spec's `[benchmark].name`, or the campaign label in DSL mode);
    /// fleet reports group by it. The archiving host's machine facts
    /// (logical cores, OS, `CHARM_*` overrides) are captured into the
    /// manifest at this point.
    pub fn put_run(
        &self,
        key: &CampaignKey,
        benchmark: &str,
        cli_args: &str,
        data: &CampaignData,
        report: Option<&CampaignReport>,
    ) -> Result<RunId, StoreError> {
        let id = key.run_id();
        let dir = self.run_dir(&id);
        let records_csv = data.to_csv();
        if let Some(manifest) = self.try_manifest(&id)? {
            if !key.matches(&manifest) {
                return Err(collision(&id, &manifest, key));
            }
            // Same identity: only a true dedupe (identical record
            // bytes) may short-circuit. The caller must never be told
            // "archived" while its data is quietly thrown away.
            let incoming = sha256_hex(records_csv.as_bytes());
            return match manifest.artifact("records.csv") {
                Some(a) if a.sha256 == incoming => Ok(id),
                Some(a) => Err(StoreError::Collision {
                    run_id: id.to_string(),
                    stored: format!("records sha256 {}", &a.sha256[..12]),
                    incoming: format!("records sha256 {}", &incoming[..12]),
                }),
                None => Err(StoreError::Corrupt {
                    path: dir.display().to_string(),
                    message: "manifest lists no records.csv".to_string(),
                }),
            };
        }
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mut artifacts = Vec::new();
        write_atomic(&dir.join("records.csv"), &records_csv)?;
        artifacts.push(artifact("records.csv", &records_csv));
        if let Some(report) = report {
            let jsonl = report.to_jsonl();
            write_atomic(&dir.join("report.jsonl"), &jsonl)?;
            artifacts.push(artifact("report.jsonl", &jsonl));
        }
        // Fold in any checkpoint segments left by the session, so the
        // manifest pins the resume trail too.
        let checkpoints = dir.join("checkpoints");
        if checkpoints.is_dir() {
            let mut names: Vec<String> = fs::read_dir(&checkpoints)
                .map_err(|e| io_err(&checkpoints, e))?
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.ends_with(".csv"))
                .collect();
            names.sort();
            for name in names {
                let path = checkpoints.join(&name);
                let contents = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
                artifacts.push(artifact(&format!("checkpoints/{name}"), &contents));
            }
        }
        artifacts.sort_by(|a, b| a.name.cmp(&b.name));
        let manifest = Manifest {
            run_id: id.as_str().to_string(),
            plan_hash: key.plan_hash.clone(),
            target: key.target.clone(),
            seed: key.seed,
            shards: key.shards,
            benchmark: benchmark.to_string(),
            machine: Some(MachineFacts::current()),
            versions: format!("charm-store {}", env!("CARGO_PKG_VERSION")),
            cli_args: cli_args.to_string(),
            artifacts,
        };
        write_atomic(&dir.join("manifest.json"), &manifest.to_json())?;
        Ok(id)
    }

    fn try_manifest(&self, id: &RunId) -> Result<Option<Manifest>, StoreError> {
        let path = self.run_dir(id).join("manifest.json");
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let manifest = Manifest::from_json(&text)
            .map_err(|message| StoreError::Corrupt { path: path.display().to_string(), message })?;
        if manifest.run_id != id.as_str() {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                message: format!(
                    "manifest claims run {} but lives under {}",
                    manifest.run_id,
                    id.as_str()
                ),
            });
        }
        Ok(Some(manifest))
    }

    /// The manifest of a finalized run.
    pub fn manifest(&self, id: &RunId) -> Result<Manifest, StoreError> {
        self.try_manifest(id)?.ok_or_else(|| StoreError::NotFound { run_id: id.to_string() })
    }

    /// Loads a finalized run, verifying *every* archived artifact's
    /// digest against the manifest before returning anything. One
    /// flipped byte anywhere in the run directory is a
    /// [`StoreError::Tampered`].
    pub fn get(&self, id: &RunId) -> Result<StoredRun, StoreError> {
        let manifest = self.manifest(id)?;
        let dir = self.run_dir(id);
        let mut records_csv = None;
        let mut report_jsonl = None;
        for a in &manifest.artifacts {
            let path = dir.join(&a.name);
            let contents = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
            let actual = sha256_hex(contents.as_bytes());
            if actual != a.sha256 {
                return Err(StoreError::Tampered {
                    run_id: id.to_string(),
                    artifact: a.name.clone(),
                    expected: a.sha256.clone(),
                    actual,
                });
            }
            match a.name.as_str() {
                "records.csv" => records_csv = Some(contents),
                "report.jsonl" => report_jsonl = Some(contents),
                _ => {}
            }
        }
        let records_csv = records_csv.ok_or_else(|| StoreError::Corrupt {
            path: dir.display().to_string(),
            message: "manifest lists no records.csv".to_string(),
        })?;
        let data = CampaignData::from_csv(&records_csv).map_err(|e| StoreError::Corrupt {
            path: dir.join("records.csv").display().to_string(),
            message: e.to_string(),
        })?;
        let report = match report_jsonl {
            Some(text) => {
                Some(CampaignReport::from_jsonl(&text).map_err(|e| StoreError::Corrupt {
                    path: dir.join("report.jsonl").display().to_string(),
                    message: e.to_string(),
                })?)
            }
            None => None,
        };
        Ok(StoredRun { id: id.clone(), manifest, data, report })
    }

    /// Manifests of all finalized runs, sorted by run ID. Interrupted
    /// runs (checkpoints but no manifest yet) are not listed — they are
    /// resumable, not readable.
    pub fn list(&self) -> Result<Vec<Manifest>, StoreError> {
        let runs = self.root.join("runs");
        let mut out = Vec::new();
        for entry in fs::read_dir(&runs).map_err(|e| io_err(&runs, e))? {
            let entry = entry.map_err(|e| io_err(&runs, e))?;
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if let Ok(id) = RunId::parse(&name) {
                if let Some(manifest) = self.try_manifest(&id)? {
                    out.push(manifest);
                }
            }
        }
        out.sort_by(|a, b| a.run_id.cmp(&b.run_id));
        Ok(out)
    }

    /// Manifests of finalized runs matching `query`, sorted by run ID.
    /// The empty query selects everything [`Store::list`] returns.
    pub fn select(&self, query: &RunQuery) -> Result<Vec<Manifest>, StoreError> {
        let mut out = self.list()?;
        out.retain(|m| query.matches(m));
        Ok(out)
    }

    /// Reclaims space: deletes checkpoint segments of finalized runs
    /// (the records are archived; the resume trail is spent) and prunes
    /// debris directories that hold neither a manifest nor a
    /// checkpoints/ dir. Interrupted runs keep their checkpoints — they
    /// are the only copy of that work — and in-flight sessions (an
    /// empty checkpoints/ dir, no shard finished yet) are left alone.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let runs = self.root.join("runs");
        let mut report = GcReport::default();
        for entry in fs::read_dir(&runs).map_err(|e| io_err(&runs, e))? {
            let entry = entry.map_err(|e| io_err(&runs, e))?;
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let finalized = dir.join("manifest.json").exists();
            let checkpoints = dir.join("checkpoints");
            if finalized && checkpoints.is_dir() {
                for seg in fs::read_dir(&checkpoints).map_err(|e| io_err(&checkpoints, e))? {
                    let seg = seg.map_err(|e| io_err(&checkpoints, e))?;
                    let path = seg.path();
                    if path.is_file() {
                        let bytes = path.metadata().map(|m| m.len()).unwrap_or(0);
                        fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                        report.removed_segments += 1;
                        report.reclaimed_bytes += bytes;
                    }
                }
                let _ = fs::remove_dir(&checkpoints); // only if now empty
                                                      // A finalized run's manifest may pin checkpoint
                                                      // artifacts; rewrite it without them so get() still
                                                      // verifies cleanly after the purge.
                if let Ok(name) = entry.file_name().into_string() {
                    if let Ok(id) = RunId::parse(&name) {
                        if let Some(mut manifest) = self.try_manifest(&id)? {
                            manifest.artifacts.retain(|a| !a.name.starts_with("checkpoints/"));
                            write_atomic(&dir.join("manifest.json"), &manifest.to_json())?;
                        }
                    }
                }
            } else if !finalized && !checkpoints.is_dir() {
                // Debris: no manifest and no checkpoints/ dir at all.
                // A live session creates checkpoints/ before its first
                // shard lands, so a directory that *has* one — even an
                // empty one — may be an in-flight campaign and is left
                // alone; deleting it out from under the session would
                // abort the campaign at its next shard flush.
                let _ = fs::remove_dir_all(&dir);
                report.removed_dirs += 1;
            }
        }
        Ok(report)
    }
}

fn artifact(name: &str, contents: &str) -> Artifact {
    Artifact {
        name: name.to_string(),
        bytes: contents.len() as u64,
        sha256: sha256_hex(contents.as_bytes()),
    }
}

fn collision(id: &RunId, stored: &Manifest, incoming: &CampaignKey) -> StoreError {
    let render = |plan_hash: &str, target: &str, seed: Option<u64>, shards: u64| {
        format!(
            "(plan {}, target {target}, seed {}, shards {shards})",
            &plan_hash[..12.min(plan_hash.len())],
            seed_str(seed)
        )
    };
    StoreError::Collision {
        run_id: id.to_string(),
        stored: render(&stored.plan_hash, &stored.target, stored.seed, stored.shards),
        incoming: render(&incoming.plan_hash, &incoming.target, incoming.seed, incoming.shards),
    }
}

/// Digest of a segment's measurement body: the campaign-CSV rendering
/// of its records (header + rows, no metadata comments). Stamped into
/// the segment at save time and recomputed from the parsed records at
/// load time, so a flipped value in a checkpoint is caught even though
/// interrupted runs have no manifest to verify against yet.
fn records_digest(factor_names: &[String], records: &[RawRecord]) -> String {
    let mut body = charm_engine::record::csv_header(factor_names);
    body.push('\n');
    for r in records {
        r.write_csv_row(&mut body).expect("writing to a String cannot fail");
        body.push('\n');
    }
    sha256_hex(body.as_bytes())
}

/// The checkpoint sink for one campaign's run directory: what
/// `Campaign::store` writes through and `Campaign::resume` reads from.
/// Segments are mini campaign CSVs carrying their own provenance
/// (`plan_hash`, target identity, geometry, shard clock, records
/// digest) so a stale, foreign or tampered segment is rejected rather
/// than replayed.
#[derive(Debug)]
pub struct CheckpointSession {
    dir: PathBuf,
    key: CampaignKey,
    run_id: RunId,
    factor_names: Vec<String>,
}

impl CheckpointSession {
    /// The run ID this session's campaign addresses.
    pub fn run_id(&self) -> &RunId {
        &self.run_id
    }

    /// Whether this run directory holds any checkpoint segments — i.e.
    /// an earlier campaign for the same key was interrupted mid-run. A
    /// restarted service uses this to decide whether a submission should
    /// resume (`Campaign::resume`) instead of starting from row zero.
    pub fn has_segments(&self) -> bool {
        let checkpoints = self.dir.join("checkpoints");
        fs::read_dir(&checkpoints).ok().is_some_and(|entries| {
            entries
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        })
    }

    fn segment_path(&self, shard: usize, shards: usize) -> PathBuf {
        self.dir.join("checkpoints").join(format!("shard-{shard}-of-{shards}.csv"))
    }
}

impl CheckpointSink for CheckpointSession {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        let mut metadata = BTreeMap::new();
        metadata.insert("checkpoint_shard".to_string(), shard.to_string());
        metadata.insert("checkpoint_shards".to_string(), shards.to_string());
        metadata.insert("checkpoint_plan_hash".to_string(), self.key.plan_hash.clone());
        metadata.insert("checkpoint_target".to_string(), self.key.target.clone());
        metadata.insert(
            "checkpoint_records_sha256".to_string(),
            records_digest(&self.factor_names, &checkpoint.records),
        );
        metadata.insert("checkpoint_elapsed_us".to_string(), format!("{}", checkpoint.elapsed_us));
        let segment = CampaignData {
            metadata,
            factor_names: self.factor_names.clone(),
            records: checkpoint.records.clone(),
        };
        let path = self.segment_path(shard, shards);
        write_atomic(&path, &segment.to_csv()).map_err(|e| CheckpointError(e.to_string()))
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        let path = self.segment_path(shard, shards);
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)
            .map_err(|e| CheckpointError(format!("{}: {e}", path.display())))?;
        let segment = CampaignData::from_csv(&text)
            .map_err(|e| CheckpointError(format!("{}: {e}", path.display())))?;
        let meta = |key: &str| {
            segment
                .metadata
                .get(key)
                .cloned()
                .ok_or_else(|| CheckpointError(format!("{}: missing {key}", path.display())))
        };
        if meta("checkpoint_plan_hash")? != self.key.plan_hash {
            return Err(CheckpointError(format!(
                "{}: segment belongs to a different plan",
                path.display()
            )));
        }
        if meta("checkpoint_target")? != self.key.target {
            return Err(CheckpointError(format!(
                "{}: segment belongs to a different target (segment {}, campaign {})",
                path.display(),
                segment.metadata.get("checkpoint_target").map(String::as_str).unwrap_or("?"),
                self.key.target
            )));
        }
        if meta("checkpoint_shard")? != shard.to_string()
            || meta("checkpoint_shards")? != shards.to_string()
        {
            return Err(CheckpointError(format!(
                "{}: segment geometry does not match shard {shard} of {shards}",
                path.display()
            )));
        }
        if segment.factor_names != self.factor_names {
            return Err(CheckpointError(format!(
                "{}: segment factor columns do not match the plan",
                path.display()
            )));
        }
        let expected = meta("checkpoint_records_sha256")?;
        let actual = records_digest(&self.factor_names, &segment.records);
        if expected != actual {
            return Err(CheckpointError(format!(
                "{}: segment records do not match their recorded digest \
                 (saved {expected}, on-disk {actual}) — modified after save",
                path.display()
            )));
        }
        let elapsed_us: f64 = meta("checkpoint_elapsed_us")?
            .parse()
            .map_err(|_| CheckpointError(format!("{}: bad elapsed_us", path.display())))?;
        let records: Vec<RawRecord> = segment.records;
        Ok(Some(ShardCheckpoint { records, elapsed_us }))
    }
}

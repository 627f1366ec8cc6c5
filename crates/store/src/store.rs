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
//! Checkpoint segments exist only until the run is finalized: once
//! [`Store::put_run`] has written the manifest, the records live in
//! `records.csv` alone and `checkpoints/` is deleted, so each record
//! byte is archived, hashed on write and hashed on read once.
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

use crate::digest::{hex, sha256_hex, Sha256};
use crate::manifest::{seed_str, Artifact, MachineFacts, Manifest};
use charm_design::ExperimentPlan;
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::record::{write_csv, write_metadata};
use charm_engine::{CampaignData, RawRecord, Target};
use charm_obs::CampaignReport;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
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

fn corrupt(path: &Path, e: impl fmt::Display) -> StoreError {
    StoreError::Corrupt { path: path.display().to_string(), message: e.to_string() }
}

/// The temp file an atomic write of `path` goes through: in the same
/// directory, and unique per process and per call, so concurrent writers
/// targeting the same path — e.g. two service workers archiving the
/// identical campaign — cannot interleave inside one temp file; last
/// rename wins whole.
fn temp_path(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(format!(".tmp.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    path.with_file_name(tmp_name)
}

/// Renames `tmp` onto `path` once `written` succeeded. On any error it
/// removes `tmp` and renames nothing, so readers never observe a
/// half-written file.
fn commit<T>(tmp: &Path, path: &Path, written: Result<T, StoreError>) -> Result<T, StoreError> {
    let done = written.and_then(|v| fs::rename(tmp, path).map(|()| v).map_err(|e| io_err(path, e)));
    if done.is_err() {
        let _ = fs::remove_file(tmp);
    }
    done
}

/// Writes `contents` atomically: a [`temp_path`] file, then rename.
fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), StoreError> {
    let tmp = temp_path(path);
    let written = fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e));
    commit(&tmp, path, written)
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
    pub(crate) fn matches(&self, manifest: &Manifest) -> bool {
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
    /// (logical cores, OS, `CHARM_*` variables) are captured into the
    /// manifest at this point.
    ///
    /// A new run ends up holding `records.csv`, the optional
    /// `report.jsonl` and, written last, a `manifest.json` listing
    /// exactly those; then the session's `checkpoints/` is deleted. A
    /// concurrent session of the same campaign recreates it on its next
    /// segment, and [`Store::gc`] reclaims what it leaves there.
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
        if let Some(manifest) = self.try_manifest(&id)? {
            if !key.matches(&manifest) {
                return Err(collision(&id, &manifest, key));
            }
            // Same identity: only a true dedupe (identical record
            // bytes) may short-circuit. The caller must never be told
            // "archived" while its data is quietly thrown away.
            let incoming = records_digest(data, CHUNK_BYTES);
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
        let mut artifacts = vec![write_records(&dir.join("records.csv"), data, CHUNK_BYTES)?];
        if let Some(report) = report {
            let jsonl = report.to_jsonl();
            write_atomic(&dir.join("report.jsonl"), jsonl.as_bytes())?;
            artifacts.push(artifact("report.jsonl", jsonl.as_bytes()));
        }
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
        write_atomic(&dir.join("manifest.json"), manifest.to_json().as_bytes())?;
        // The resume trail is spent. A segment a concurrent session of
        // this campaign lands meanwhile keeps the directory; gc takes it.
        let checkpoints = dir.join("checkpoints");
        use std::io::ErrorKind::{DirectoryNotEmpty, NotFound};
        match fs::remove_dir_all(&checkpoints) {
            Ok(()) => Ok(id),
            Err(e) if matches!(e.kind(), NotFound | DirectoryNotEmpty) => Ok(id),
            Err(e) => Err(io_err(&checkpoints, e)),
        }
    }

    fn try_manifest(&self, id: &RunId) -> Result<Option<Manifest>, StoreError> {
        let path = self.run_dir(id).join("manifest.json");
        if !path.exists() {
            return Ok(None);
        }
        let manifest = read_manifest(&path)?;
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
    /// [`StoreError::Tampered`] naming the artifact — digests are taken
    /// over the raw bytes, and text is decoded only once they match.
    ///
    /// The calling thread checks the digests in manifest order while one
    /// scoped worker parses `records.csv`; the worker's result is used
    /// only after every digest has matched, so a tampered file is
    /// reported as `Tampered` even when it no longer parses. The overlap
    /// needs a second core; on one core the work is the same.
    pub fn get(&self, id: &RunId) -> Result<StoredRun, StoreError> {
        let manifest = self.manifest(id)?;
        let dir = self.run_dir(id);
        let records_path = dir.join("records.csv");
        let records = manifest
            .artifact("records.csv")
            .map(|_| fs::read(&records_path).map_err(|e| io_err(&records_path, e)));
        let (verified, parsed) = std::thread::scope(|s| {
            let parsed = match &records {
                Some(Ok(bytes)) => Some(s.spawn(|| parse_records(&records_path, bytes))),
                _ => None,
            };
            (verify_artifacts(id, &dir, &manifest, records.as_ref()), parsed.map(joined))
        });
        let report_jsonl = verified?;
        let data = parsed.ok_or_else(|| StoreError::Corrupt {
            path: dir.display().to_string(),
            message: "manifest lists no records.csv".to_string(),
        })??;
        let report = match report_jsonl {
            Some(bytes) => {
                let path = dir.join("report.jsonl");
                let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(&path, e))?;
                Some(CampaignReport::from_jsonl(text).map_err(|e| corrupt(&path, e))?)
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

    /// Reclaims space: deletes the checkpoint segments of finalized runs
    /// that their manifest does not list (strays a concurrent session of
    /// an already archived campaign left behind) and prunes debris
    /// directories that hold neither a manifest nor a checkpoints/ dir.
    /// It never rewrites a manifest, so a segment an older manifest pins
    /// stays and that run still verifies. Interrupted runs keep their
    /// checkpoints — they are the only copy of that work — and in-flight
    /// sessions (an empty checkpoints/ dir, no shard finished yet) are
    /// left alone.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let runs = self.root.join("runs");
        let mut report = GcReport::default();
        for entry in fs::read_dir(&runs).map_err(|e| io_err(&runs, e))? {
            let entry = entry.map_err(|e| io_err(&runs, e))?;
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let manifest_path = dir.join("manifest.json");
            let finalized = manifest_path.exists();
            let checkpoints = dir.join("checkpoints");
            if finalized && checkpoints.is_dir() {
                let manifest = read_manifest(&manifest_path)?;
                for seg in fs::read_dir(&checkpoints).map_err(|e| io_err(&checkpoints, e))? {
                    let seg = seg.map_err(|e| io_err(&checkpoints, e))?;
                    let path = seg.path();
                    let name = format!("checkpoints/{}", seg.file_name().to_string_lossy());
                    if path.is_file() && manifest.artifact(&name).is_none() {
                        let bytes = path.metadata().map(|m| m.len()).unwrap_or(0);
                        fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                        report.removed_segments += 1;
                        report.reclaimed_bytes += bytes;
                    }
                }
                let _ = fs::remove_dir(&checkpoints); // only if now empty
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

fn read_manifest(path: &Path) -> Result<Manifest, StoreError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    Manifest::from_json(&text)
        .map_err(|message| StoreError::Corrupt { path: path.display().to_string(), message })
}

fn artifact(name: &str, contents: &[u8]) -> Artifact {
    Artifact { name: name.to_string(), bytes: contents.len() as u64, sha256: sha256_hex(contents) }
}

/// About how many bytes of `records.csv` each rendered chunk holds.
const CHUNK_BYTES: usize = 64 * 1024;

/// Chunks rendered but not yet hashed and written: bounds what
/// `write_records` holds in memory to a few chunks.
const CHUNKS_IN_FLIGHT: usize = 4;

/// The SHA-256 of `data`'s `records.csv`, rendered chunk by chunk and
/// never written or held whole.
fn records_digest(data: &CampaignData, chunk: usize) -> String {
    let mut hasher = Sha256::new();
    write_csv(&data.metadata, &data.factor_names, &data.records, chunk, |c| {
        hasher.update(c.as_bytes());
        true
    });
    hex(&hasher.finalize())
}

/// Writes `data`'s `records.csv` to `path` atomically and returns its
/// manifest entry. This thread renders chunks of about `chunk` bytes
/// (see [`write_csv`]) into a bounded channel; one scoped worker hashes
/// each and appends it to the temp file, so rendering overlaps hashing
/// and writing on a second core and the whole CSV is never held in
/// memory.
fn write_records(path: &Path, data: &CampaignData, chunk: usize) -> Result<Artifact, StoreError> {
    let tmp = temp_path(path);
    let written = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<String>(CHUNKS_IN_FLIGHT);
        let tmp = &tmp;
        let worker = s.spawn(move || {
            let mut file = fs::File::create(tmp).map_err(|e| io_err(tmp, e))?;
            let (mut hasher, mut bytes) = (Sha256::new(), 0u64);
            for c in rx {
                hasher.update(c.as_bytes());
                file.write_all(c.as_bytes()).map_err(|e| io_err(tmp, e))?;
                bytes += c.len() as u64;
            }
            Ok(Artifact { name: "records.csv".to_string(), bytes, sha256: hex(&hasher.finalize()) })
        });
        // A send fails only once the worker has stopped on an error,
        // which its join below returns.
        write_csv(&data.metadata, &data.factor_names, &data.records, chunk, |c| tx.send(c).is_ok());
        drop(tx);
        joined(worker)
    });
    commit(&tmp, path, written)
}

/// The result of a scoped worker, re-raising its panic on this thread.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Checks every artifact of `manifest` against its digest, in manifest
/// order, and returns the verified `report.jsonl` bytes if one is
/// listed. `records` is `records.csv` as already read (its read error
/// surfaces at its place in that order).
fn verify_artifacts(
    id: &RunId,
    dir: &Path,
    manifest: &Manifest,
    records: Option<&Result<Vec<u8>, StoreError>>,
) -> Result<Option<Vec<u8>>, StoreError> {
    let mut report = None;
    for a in &manifest.artifacts {
        let path = dir.join(&a.name);
        let read;
        let bytes = match (a.name.as_str(), records) {
            ("records.csv", Some(records)) => records.as_ref().map_err(Clone::clone)?,
            _ => {
                read = fs::read(&path).map_err(|e| io_err(&path, e))?;
                &read
            }
        };
        let actual = sha256_hex(bytes);
        if actual != a.sha256 {
            return Err(StoreError::Tampered {
                run_id: id.to_string(),
                artifact: a.name.clone(),
                expected: a.sha256.clone(),
                actual,
            });
        }
        if a.name == "report.jsonl" {
            report = Some(bytes.to_vec());
        }
    }
    Ok(report)
}

/// Decodes and parses the bytes of an archived `records.csv`.
fn parse_records(path: &Path, bytes: &[u8]) -> Result<CampaignData, StoreError> {
    let text = std::str::from_utf8(bytes).map_err(|e| corrupt(path, e))?;
    CampaignData::from_csv(text).map_err(|e| corrupt(path, e))
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

/// The checkpoint sink for one campaign's run directory: what
/// `Campaign::store` writes segments through and replays them from.
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
    /// The key this session's campaign archives under: pass it to
    /// [`Store::put_run`] once the campaign finished.
    pub fn key(&self) -> &CampaignKey {
        &self.key
    }

    /// The run ID this session's campaign addresses.
    pub fn run_id(&self) -> &RunId {
        &self.run_id
    }

    /// Whether this run directory holds any checkpoint segments — i.e.
    /// an earlier campaign for the same key was interrupted mid-run, so
    /// running it again replays them. A service uses this to announce a
    /// submission as a resume before the run starts.
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
        // A segment's measurement body is the campaign-CSV rendering of
        // its records (header + rows, no metadata). Its digest is stamped
        // into the segment at save time and recomputed over the body's
        // bytes on disk at load time, so a flipped value in a checkpoint
        // is caught even though interrupted runs have no manifest to
        // verify against yet. Rendered once: the sorted `# k: v` lines
        // followed by the same body are what `write_csv` would write for
        // the whole segment.
        let mut body = String::new();
        write_csv(None::<(&str, &str)>, &self.factor_names, &checkpoint.records, usize::MAX, |b| {
            body = b;
            true
        });
        let mut metadata = BTreeMap::new();
        metadata.insert("checkpoint_shard", shard.to_string());
        metadata.insert("checkpoint_shards", shards.to_string());
        metadata.insert("checkpoint_plan_hash", self.key.plan_hash.clone());
        metadata.insert("checkpoint_target", self.key.target.clone());
        metadata.insert("checkpoint_records_sha256", sha256_hex(body.as_bytes()));
        metadata.insert("checkpoint_elapsed_us", format!("{}", checkpoint.elapsed_us));
        let mut segment = String::with_capacity(body.len() + 512);
        write_metadata(&mut segment, &metadata);
        segment.push_str(&body);
        let path = self.segment_path(shard, shards);
        write_atomic(&path, segment.as_bytes())
            .or_else(|_| {
                // A concurrent `put_run` of this campaign finalized the
                // run and deleted checkpoints/ under this session (and
                // another worker may have recreated it since): make sure
                // it exists and retry once. gc reclaims the stray.
                let checkpoints = self.dir.join("checkpoints");
                fs::create_dir_all(&checkpoints).map_err(|e| io_err(&checkpoints, e))?;
                write_atomic(&path, segment.as_bytes())
            })
            .map_err(|e| CheckpointError(e.to_string()))
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        let path = self.segment_path(shard, shards);
        // NotFound also covers a segment a concurrent `put_run` of this
        // campaign deleted after finalizing it: that batch re-runs.
        let fail = |message: String| CheckpointError(format!("{}: {message}", path.display()));
        let bytes = match fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            read => read.map_err(|e| fail(e.to_string()))?,
        };
        // The body (header + rows) follows the `# k: v` lines. Its raw
        // bytes are checked against the digest stamped at save time
        // before any of it is decoded, so a byte that breaks UTF-8 is
        // tampering here too, as in `Store::get`.
        let mut body_at = 0;
        while bytes[body_at..].starts_with(b"#") {
            let line = &bytes[body_at..];
            body_at += line.iter().position(|&b| b == b'\n').map_or(line.len(), |n| n + 1);
        }
        let head = std::str::from_utf8(&bytes[..body_at]).map_err(|e| fail(e.to_string()))?;
        let expected = head
            .lines()
            .find_map(|l| l.strip_prefix("# checkpoint_records_sha256: "))
            .ok_or_else(|| fail("missing checkpoint_records_sha256".to_string()))?;
        let actual = sha256_hex(&bytes[body_at..]);
        if expected != actual {
            return Err(fail(format!(
                "segment records do not match their recorded digest \
                 (saved {expected}, on-disk {actual}) — modified after save"
            )));
        }
        let text = std::str::from_utf8(&bytes).map_err(|e| fail(e.to_string()))?;
        let segment = CampaignData::from_csv(text).map_err(|e| fail(e.to_string()))?;
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
        let elapsed_us: f64 = meta("checkpoint_elapsed_us")?
            .parse()
            .map_err(|_| CheckpointError(format!("{}: bad elapsed_us", path.display())))?;
        let records: Vec<RawRecord> = segment.records;
        Ok(Some(ShardCheckpoint { records, elapsed_us }))
    }
}

/// The two-pass segment rendering [`CheckpointSession::save_shard`]
/// replaced, kept as its oracle: the body rendered once for the digest
/// and again, with a clone of the records, by `CampaignData::to_csv`.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn segment(
        key: &CampaignKey,
        factor_names: &[String],
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> String {
        let mut body = charm_engine::record::csv_header(factor_names);
        body.push('\n');
        for r in &checkpoint.records {
            r.write_csv_row(&mut body).expect("writing to a String cannot fail");
            body.push('\n');
        }
        let mut metadata = BTreeMap::new();
        metadata.insert("checkpoint_shard".to_string(), shard.to_string());
        metadata.insert("checkpoint_shards".to_string(), shards.to_string());
        metadata.insert("checkpoint_plan_hash".to_string(), key.plan_hash.clone());
        metadata.insert("checkpoint_target".to_string(), key.target.clone());
        metadata.insert("checkpoint_records_sha256".to_string(), sha256_hex(body.as_bytes()));
        metadata.insert("checkpoint_elapsed_us".to_string(), format!("{}", checkpoint.elapsed_us));
        CampaignData {
            metadata,
            factor_names: factor_names.to_vec(),
            records: checkpoint.records.clone(),
        }
        .to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch() -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("charm-store-unit-{}-{n}", std::process::id()))
    }

    /// `n_factors` of the four level kinds (Text, Int, Float, Flag),
    /// starting at kind `first`, `reps` replicates, shuffled.
    fn plan(n_factors: usize, first: usize, reps: u32, seed: u64) -> ExperimentPlan {
        let kinds = [
            Factor::new("op", vec!["ping_pong", "async send"]),
            Factor::new("size", vec![64i64, -4096]),
            Factor::new("ratio", vec![0.5f64, 2.0]),
            Factor::new("pinned", vec![true, false]),
        ];
        let mut doe = FullFactorial::new().replicates(reps);
        for i in 0..n_factors {
            doe = doe.factor(kinds[(first + i) % kinds.len()].clone());
        }
        let mut plan = doe.build();
        plan.shuffle(seed);
        plan
    }

    /// One record per plan row, cycling through `values`.
    fn records_of(plan: &ExperimentPlan, values: &[f64], interned: bool) -> Vec<RawRecord> {
        plan.rows()
            .iter()
            .enumerate()
            .map(|(i, row)| RawRecord {
                levels: if interned { row.levels.clone() } else { row.levels.to_vec().into() },
                replicate: row.replicate,
                sequence: i as u64,
                start_us: i as f64 * 1.25,
                value: values[i % values.len()],
            })
            .collect()
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_failed_records_write_renames_nothing_and_leaves_no_temp_file() {
        let dir = scratch();
        // A directory where records.csv should go: the temp file is
        // written in full, then the rename fails.
        fs::create_dir_all(dir.join("records.csv").join("occupied")).unwrap();
        let plan = plan(2, 0, 2, 5);
        let data = CampaignData {
            metadata: BTreeMap::new(),
            factor_names: plan.factor_names().to_vec(),
            records: records_of(&plan, &[1.5], true),
        };
        let err = write_records(&dir.join("records.csv"), &data, 7).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
        assert_eq!(names_in(&dir), ["records.csv"]);
        assert_eq!(names_in(&dir.join("records.csv")), ["occupied"]);
        fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn segments_are_the_two_pass_rendering_and_still_verify(
            (n_factors, first, reps) in (0usize..4, 0usize..4, 1u32..4),
            seed in any::<u64>(),
            values in prop::collection::vec(-1e6f64..1e6, 1..8),
            elapsed_us in 0.0f64..1e9,
            interned in any::<bool>(),
        ) {
            let plan = plan(n_factors, first, reps, seed);
            let records = records_of(&plan, &values, interned);
            let checkpoint = ShardCheckpoint { records, elapsed_us };
            let dir = scratch();
            let store = Store::open(&dir).unwrap();
            let session = store.session(&plan, "t#0", Some(seed), 2).unwrap();
            session.save_shard(1, 3, &checkpoint).unwrap();
            let path = session.segment_path(1, 3);
            let written = fs::read_to_string(&path).unwrap();
            let oracle =
                reference::segment(&session.key, plan.factor_names(), 1, 3, &checkpoint);
            prop_assert_eq!(&written, &oracle);
            let loaded = session.load_shard(1, 3).unwrap().expect("segment saved");
            let rows = |rs: &[RawRecord]| rs.iter().map(RawRecord::csv_row).collect::<Vec<_>>();
            prop_assert_eq!(rows(&loaded.records), rows(&checkpoint.records));
            prop_assert_eq!(loaded.elapsed_us, elapsed_us);

            // A flipped value still parses but no longer matches its digest.
            if let Some(last) = checkpoint.records.last() {
                let row = last.csv_row();
                let (head, _) = row.rsplit_once(',').unwrap();
                let flipped = format!("{head},{}", last.value + 1.0);
                let tail = written.rfind(&row).unwrap();
                let mut edited = written.clone();
                edited.replace_range(tail..tail + row.len(), &flipped);
                fs::write(&path, edited).unwrap();
                let err = session.load_shard(1, 3).unwrap_err();
                prop_assert!(err.0.contains("digest"), "{}", err.0);
            }
            fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn chunked_records_are_to_csv_at_every_chunk_size(
            (n_factors, first, reps) in (0usize..4, 0usize..4, 1u32..4),
            seed in any::<u64>(),
            values in prop::collection::vec(-1e6f64..1e6, 1..8),
            n_metadata in 0usize..4,
            interned in any::<bool>(),
        ) {
            let plan = plan(n_factors, first, reps, seed);
            let metadata =
                (0..n_metadata).map(|i| (format!("key{i}"), format!("v {}", seed >> i))).collect();
            let data = CampaignData {
                metadata,
                factor_names: plan.factor_names().to_vec(),
                records: records_of(&plan, &values, interned),
            };
            let csv = data.to_csv();
            let digest = sha256_hex(csv.as_bytes());
            let dir = scratch();
            fs::create_dir_all(&dir).unwrap();
            for chunk in [1, 7, 64, CHUNK_BYTES] {
                let path = dir.join("records.csv");
                let written = write_records(&path, &data, chunk).unwrap();
                prop_assert_eq!(fs::read(&path).unwrap(), csv.as_bytes());
                prop_assert_eq!(&written.sha256, &digest);
                prop_assert_eq!(written.bytes, csv.len() as u64);
                prop_assert_eq!(records_digest(&data, chunk), digest.clone());
                prop_assert_eq!(names_in(&dir), ["records.csv"]);
            }

            // Through the store: the manifest pins the same digest, the
            // run holds nothing else, and a re-archive is a dedupe.
            let store = Store::open(dir.join("store")).unwrap();
            let key = CampaignKey::of(&plan, "t#0", Some(seed), 2);
            let id = store.put_run(&key, "bench", "", &data, None).unwrap();
            let manifest = store.manifest(&id).unwrap();
            prop_assert_eq!(&manifest.artifact("records.csv").unwrap().sha256, &digest);
            prop_assert_eq!(manifest.artifacts.len(), 1);
            prop_assert_eq!(names_in(&store.run_dir(&id)), ["manifest.json", "records.csv"]);
            prop_assert_eq!(store.put_run(&key, "bench", "", &data, None).unwrap(), id);
            fs::remove_dir_all(&dir).ok();
        }
    }
}

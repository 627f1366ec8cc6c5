//! # charm-bench
//!
//! The benchmark harness: `all_figures [ENTRY …]` runs the entries of
//! `charm_core::experiments::catalog` (the paper's tables and figures,
//! the extension experiments and the ablations DESIGN.md §5 calls for),
//! writing each one's CSVs into `results/` and printing its report,
//! through the one [`figures`] driver; `run_campaign` runs DSL plans and
//! declarative specs ([`specload`]); and the store and perf-gate tools.
//!
//! Run e.g. `cargo run -p charm-bench --release --bin all_figures -- fig07`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod csvout;
pub mod figures;
pub mod profile;
pub mod specload;

use charm_store::Store;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Resolves the results directory (created on demand): `out` (the
/// `--out` flag) when given, else `results/` next to the workspace root.
/// The error names the directory.
pub(crate) fn results_dir(out: Option<&Path>) -> io::Result<PathBuf> {
    let dir = match out {
        Some(dir) => dir.to_path_buf(),
        // walk up from the current directory to find the workspace root
        None => {
            let mut p = std::env::current_dir()?;
            loop {
                if p.join("Cargo.toml").exists() && p.join("crates").exists() {
                    break p.join("results");
                }
                if !p.pop() {
                    break PathBuf::from("results");
                }
            }
        }
    };
    fs::create_dir_all(&dir).map_err(|e| cannot_write(&dir, e))?;
    Ok(dir)
}

/// Writes an artifact file into the results directory (`out`, the
/// `--out` flag, when given, else the workspace `results/`; created on
/// demand) and reports its path on stdout. The error names the path that could not be written.
pub fn write_artifact(out: Option<&Path>, name: &str, contents: &str) -> io::Result<PathBuf> {
    let path = results_dir(out)?.join(name);
    fs::write(&path, contents).map_err(|e| cannot_write(&path, e))?;
    println!("wrote {}", path.display());
    Ok(path)
}

/// `e`, reworded as `cannot write <path>: <e>`.
pub(crate) fn cannot_write(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
}

/// The exit status once a binary's artifacts are written: success, or
/// [`specload::EXIT_TARGET`] with the error (which names the path) on
/// stderr.
pub fn exit_status(written: io::Result<()>) -> ExitCode {
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(specload::EXIT_TARGET)
        }
    }
}

/// Opens the campaign store at `dir` for a read-only tool (`store_ls`,
/// `store_diff`, `store_report`). Unlike [`Store::open`], which creates
/// the store, a directory without `runs/` is refused, so a mistyped
/// path creates nothing. On failure the reason is on stderr and the
/// error is the tools' usage/store exit code, 2.
pub fn open_existing_store(dir: impl AsRef<Path>) -> Result<Store, ExitCode> {
    let dir = dir.as_ref();
    let opened = if dir.join("runs").is_dir() {
        Store::open(dir).map_err(|e| e.to_string())
    } else {
        Err(format!("{}: not a campaign store (no runs/ directory)", dir.display()))
    };
    opened.map_err(|e| {
        eprintln!("cannot open store: {e}");
        ExitCode::from(2)
    })
}

/// The seed every regenerator uses unless `--seed` is given.
pub const DEFAULT_SEED: u64 = 20170529;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let d = results_dir(None).unwrap();
        assert!(d.exists());
    }

    #[test]
    fn artifact_roundtrip_under_out() {
        let dir = std::env::temp_dir().join(format!("charm_bench_artifact_{}", std::process::id()));
        let p = write_artifact(Some(&dir), "selftest.txt", "hello").unwrap();
        assert_eq!(p, dir.join("selftest.txt"));
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello");
        fs::remove_dir_all(dir).ok();
    }
}

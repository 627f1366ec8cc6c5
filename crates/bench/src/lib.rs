//! # charm-bench
//!
//! The benchmark harness: one binary per entry of
//! `charm_core::experiments::catalog` (regenerating the corresponding
//! rows/series into `results/` and printing an ASCII report), each a
//! shim over the one [`figures`] driver that `all_figures` also runs;
//! `run_campaign` for DSL plans and declarative specs ([`specload`]);
//! the store and perf-gate tools; Criterion microbenchmarks of the
//! substrates and the analysis kernels; and the ablation binaries
//! DESIGN.md §5 calls for.
//!
//! Run e.g. `cargo run -p charm-bench --release --bin fig07`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod csvout;
pub mod figures;
pub mod profile;
pub mod specload;

use std::fs;
use std::path::{Path, PathBuf};

/// Resolves the `results/` directory (created on demand) next to the
/// workspace root, honouring `CHARM_RESULTS_DIR` when set.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CHARM_RESULTS_DIR").map(PathBuf::from).unwrap_or_else(|_| {
        // walk up from the executable's cwd to find the workspace root
        let mut p = std::env::current_dir().expect("cwd");
        loop {
            if p.join("Cargo.toml").exists() && p.join("crates").exists() {
                return p.join("results");
            }
            if !p.pop() {
                return PathBuf::from("results");
            }
        }
    });
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes an artifact file and reports its path on stdout.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// Reads back an artifact (used by tests).
pub fn read_artifact(path: &Path) -> String {
    fs::read_to_string(path).expect("read artifact")
}

/// The seed every regenerator uses by default; override with `CHARM_SEED`.
pub fn default_seed() -> u64 {
    std::env::var("CHARM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(20170529)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn artifact_roundtrip() {
        let p = write_artifact("selftest.txt", "hello");
        assert_eq!(read_artifact(&p), "hello");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn seed_default() {
        assert_eq!(default_seed(), 20170529);
    }
}

//! The read-only store tools refuse a path that is not a store: each
//! exits 2 with `cannot open store: …` and creates nothing there.

mod common;

use common::Scratch;
use std::process::Command;

/// A well-formed run ID, so `store_diff` gets as far as opening the store.
const RUN: &str = "0123456789abcdef0123456789abcdef";

/// A store path for each tool, with the arguments after it.
const TOOLS: [(&str, &str, &[&str]); 4] = [
    ("ls", env!("CARGO_BIN_EXE_store_ls"), &[]),
    ("ls_gc", env!("CARGO_BIN_EXE_store_ls"), &["--gc"]),
    ("diff", env!("CARGO_BIN_EXE_store_diff"), &[RUN, RUN]),
    ("report", env!("CARGO_BIN_EXE_store_report"), &[]),
];

#[test]
fn a_mistyped_store_path_exits_2_and_is_not_created() {
    let dir = Scratch::new("typo");
    for (tag, bin, rest) in TOOLS {
        let typo = dir.join(&format!("typo_store_{tag}"));
        let out = Command::new(bin).arg(&typo).args(rest).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(stderr.starts_with("cannot open store: "), "{tag}: {stderr}");
        assert!(!typo.exists(), "{tag} created {}", typo.display());
    }
}

#[test]
fn a_plain_directory_or_file_is_not_a_store() {
    let dir = Scratch::new("not_a_store");
    std::fs::create_dir(dir.join("plain")).unwrap();
    let file = dir.write("file", "");
    for path in [dir.join("plain"), file.into()] {
        for (tag, bin, rest) in TOOLS {
            let out = Command::new(bin).arg(&path).args(rest).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{tag} {}: {stderr}", path.display());
            assert!(!path.join("runs").exists(), "{tag} created runs/ in {}", path.display());
        }
    }
    assert_eq!(std::fs::read_to_string(dir.join("file")).unwrap(), "", "a tool wrote the file");
}

#[test]
fn an_empty_store_still_lists() {
    let dir = Scratch::new("empty");
    std::fs::create_dir(dir.join("runs")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_store_ls")).arg(&dir.0).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "no archived runs\n");
}

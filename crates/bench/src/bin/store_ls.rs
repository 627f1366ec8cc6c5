//! List the runs archived in a campaign store.
//!
//! ```text
//! store_ls <store_dir> [--gc] [--json] [--host CLASS]
//! ```
//!
//! One line per finalized run: run ID, target identity, seed, shard
//! count, benchmark label, host class (machine facts), artifact count
//! and total archived bytes, and the recorded CLI invocation.
//! With `--gc`, first reclaims stray checkpoint segments (those of
//! finalized runs that their manifest does not list — interrupted runs
//! keep theirs, they are the only copy of that work) and reports what
//! was removed. No manifest is rewritten.
//!
//! `--host CLASS` keeps only runs recorded on that host class (e.g.
//! `linux/4c`, or `current` for the machine running the command);
//! pre-v3 manifests carry no machine facts and match only `unknown`.
//!
//! With `--json`, emits one JSON object per run (JSONL, restricted
//! dialect of `charm_obs::json`) instead of the human-formatted table,
//! so external tooling and the CI smoke steps stop scraping columns.
//! Machine facts appear as a nested object when the manifest records
//! them (format v3+); pre-v3 manifests simply omit the field.
//!
//! A path that is not a store (no `runs/` directory) exits 2 and is
//! left as it was, `--gc` or not.

use charm_obs::json;
use charm_store::manifest::seed_str;
use charm_store::{MachineFacts, Manifest, RunQuery};
use std::process::ExitCode;

/// One run as a JSONL record.
fn json_line(m: &Manifest) -> String {
    let bytes: u64 = m.artifacts.iter().map(|a| a.bytes).sum();
    let mut fields = vec![
        format!("\"run_id\": {}", json::string(&m.run_id)),
        format!("\"target\": {}", json::string(&m.target)),
        format!("\"seed\": {}", json::string(&seed_str(m.seed))),
        format!("\"shards\": {}", m.shards),
        format!("\"benchmark\": {}", json::string(&m.benchmark)),
    ];
    if let Some(machine) = &m.machine {
        let env = machine
            .env
            .iter()
            .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
            .collect::<Vec<_>>()
            .join(", ");
        fields.push(format!(
            "\"machine\": {{\"cores\": {}, \"os\": {}, \"env\": {{{env}}}}}",
            machine.cores,
            json::string(&machine.os)
        ));
    }
    fields.push(format!("\"artifacts\": {}", m.artifacts.len()));
    fields.push(format!("\"bytes\": {bytes}"));
    fields.push(format!("\"cli_args\": {}", json::string(&m.cli_args)));
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let gc = args.iter().any(|a| a == "--gc");
    let as_json = args.iter().any(|a| a == "--json");
    let mut host: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--host") {
        if i + 1 >= args.len() {
            eprintln!("--host needs a value");
            return ExitCode::from(2);
        }
        host = Some(args.remove(i + 1));
        args.remove(i);
    }
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let known = |a: &&String| a.starts_with("--") && a.as_str() != "--gc" && a.as_str() != "--json";
    if positional.len() != 1 || args.iter().any(|a| known(&a)) {
        eprintln!("usage: store_ls <store_dir> [--gc] [--json] [--host CLASS]");
        return ExitCode::from(2);
    }
    let query = RunQuery {
        host: host.map(|h| if h == "current" { MachineFacts::current().host_class() } else { h }),
        ..Default::default()
    };
    let store = match charm_bench::open_existing_store(positional[0]) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if gc {
        match store.gc() {
            Ok(r) => {
                let line = format!(
                    "gc: removed {} checkpoint segment(s) ({} bytes), {} debris dir(s)",
                    r.removed_segments, r.reclaimed_bytes, r.removed_dirs
                );
                // In JSON mode keep stdout machine-readable.
                if as_json {
                    eprintln!("{line}");
                } else {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("gc failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let manifests = match store.select(&query) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot list store: {e}");
            return ExitCode::from(2);
        }
    };
    if as_json {
        for m in &manifests {
            println!("{}", json_line(m));
        }
        return ExitCode::SUCCESS;
    }
    if manifests.is_empty() {
        println!("no archived runs");
        return ExitCode::SUCCESS;
    }
    for m in &manifests {
        let bytes: u64 = m.artifacts.iter().map(|a| a.bytes).sum();
        let bench = if m.benchmark.is_empty() { "-" } else { m.benchmark.as_str() };
        let host = m.machine.as_ref().map(|f| f.host_class()).unwrap_or_else(|| "unknown".into());
        println!(
            "{}  {:20}  seed {:>10}  shards {:>2}  bench {:10}  host {:10}  \
             {} artifact(s), {} bytes  {}",
            m.run_id,
            m.target,
            seed_str(m.seed),
            m.shards,
            bench,
            host,
            m.artifacts.len(),
            bytes,
            m.cli_args
        );
    }
    println!("{} archived run(s)", manifests.len());
    ExitCode::SUCCESS
}

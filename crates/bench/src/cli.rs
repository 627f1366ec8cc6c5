//! Uniform command-line handling for the regenerator binaries.
//!
//! Every binary in `src/bin/` reads the shared flags:
//!
//! * `--seed N` — RNG seed (default 20170529);
//! * `--out DIR` — results directory (default `results/` at the
//!   workspace root);
//! * `--obs-jsonl` — also write observability reports (counters +
//!   provenance events, JSON Lines) next to the CSV artifacts;
//! * `--quick` — reduced plan sizes for smoke runs (CI uses this);
//! * `--profile` — print a wall-clock self-profile of the engine and
//!   analysis passes when the run finishes;
//! * `--trace-out PATH` — write a Chrome/Perfetto `trace.json` rendering
//!   wall-time engine spans and virtual-time experiment events as two
//!   separate process tracks (see `charm_trace::chrome`);
//! * `--help` — print usage.
//!
//! Positional arguments land in [`CommonArgs::rest`]: `run_campaign`'s
//! plan and platform, `all_figures`'s entry ids. Two groups only some
//! binaries read ([`Reads`]); a binary given a flag it does not read
//! exits 2 with its usage instead of ignoring it:
//!
//! * campaign flags, read by `run_campaign` only: `--shards N` runs the
//!   campaign on N worker threads (default 1; clamped only to the plan's
//!   rows, and part of the run ID); `--store DIR` archives the campaign
//!   into a `charm_store` store, flushing shard checkpoints as they
//!   complete and replaying the ones an interrupted run of the same
//!   campaign left there;
//! * spec flags, read by `run_campaign`, and by `all_figures` when
//!   exactly one of the spec entries `fig04`, `fig07` and
//!   `pchase_interference` is selected: `--benchmark PATH` runs a
//!   declarative spec (DESIGN.md §15) instead of the built-in one;
//!   `--param NAME=VALUE` overrides one of its `[params]` (repeatable).
//!
//! The command line is the only input: no environment variable sets a
//! flag's value.

use std::path::PathBuf;

/// The flags shared by all regenerator binaries, parsed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    /// RNG seed (`--seed N`).
    pub seed: u64,
    /// Results directory (`--out DIR`), when given.
    pub out: Option<PathBuf>,
    /// Campaign worker count (`--shards N`), when given.
    pub shards: Option<usize>,
    /// Whether to write observability JSONL artifacts (`--obs-jsonl`).
    pub obs_jsonl: bool,
    /// Whether to shrink plans for a smoke run (`--quick`).
    pub quick: bool,
    /// Whether to print the wall-clock self-profile (`--profile`).
    pub profile: bool,
    /// Where to write the dual-clock Chrome/Perfetto trace
    /// (`--trace-out PATH`), when given.
    pub trace_out: Option<String>,
    /// Campaign store directory (`--store DIR`), when given.
    pub store: Option<String>,
    /// Benchmark spec file (`--benchmark PATH`), when given.
    pub benchmark: Option<String>,
    /// Spec parameter overrides (`--param NAME=VALUE`, repeatable).
    pub params: Vec<(String, String)>,
    /// Positional arguments, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Parses `std::env::args()` for a binary that reads the shared
    /// flags plus the groups in `reads`, and exits with the usage text
    /// (listing only the flags the binary reads) on `--help`, a
    /// malformed flag, or a flag the binary does not read.
    /// `extra_usage` documents the positional arguments (empty when the
    /// binary takes none).
    pub fn parse(extra_usage: &str, reads: Reads) -> CommonArgs {
        match Self::try_parse(std::env::args().skip(1), crate::DEFAULT_SEED) {
            Ok(args) => match args.unread(reads) {
                Some(flag) => {
                    refuse(&format!("{} does not read {flag}", bin()), extra_usage, reads)
                }
                None => args,
            },
            Err(Exit::Help) => {
                println!("{}", usage(&bin(), extra_usage, reads));
                std::process::exit(0);
            }
            Err(Exit::Error) => refuse("", extra_usage, reads),
        }
    }

    /// The first flag given that a binary reading only `reads` (beyond
    /// the shared flags) would ignore.
    fn unread(&self, reads: Reads) -> Option<&'static str> {
        [
            ("--shards", self.shards.is_some()),
            ("--store", self.store.is_some()),
            ("--benchmark", self.benchmark.is_some()),
            ("--param", !self.params.is_empty()),
        ]
        .into_iter()
        .find(|&(flag, given)| given && !reads.reads(flag))
        .map(|(flag, _)| flag)
    }

    /// Pure parser: returns the parsed args, or an [`Exit`] reason when
    /// usage should be printed instead. Split out for tests.
    pub(crate) fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_seed: u64,
    ) -> Result<CommonArgs, Exit> {
        let mut args = CommonArgs { seed: default_seed, ..CommonArgs::default() };
        let mut argv = argv.into_iter();
        while let Some(a) = argv.next() {
            match a.as_str() {
                "--seed" => args.seed = value_of("--seed", argv.next())?,
                "--shards" => args.shards = Some(positive("--shards", argv.next())?),
                "--out" => args.out = Some(text_of("--out", "a directory", argv.next())?.into()),
                "--obs-jsonl" => args.obs_jsonl = true,
                "--quick" => args.quick = true,
                "--profile" => args.profile = true,
                "--trace-out" => {
                    args.trace_out = Some(text_of("--trace-out", "a file path", argv.next())?)
                }
                "--store" => args.store = Some(text_of("--store", "a directory", argv.next())?),
                "--benchmark" => {
                    args.benchmark = Some(text_of("--benchmark", "a spec file path", argv.next())?)
                }
                "--param" => {
                    match argv.next().as_deref().and_then(|kv| {
                        kv.split_once('=').map(|(k, v)| (k.to_string(), v.to_string()))
                    }) {
                        Some((k, v)) if !k.is_empty() => args.params.push((k, v)),
                        _ => {
                            eprintln!("--param needs NAME=VALUE");
                            return Err(Exit::Error);
                        }
                    }
                }
                "--help" | "-h" => return Err(Exit::Help),
                flag if flag.starts_with("--") => {
                    eprintln!("unknown flag {flag}");
                    return Err(Exit::Error);
                }
                _ => args.rest.push(a),
            }
        }
        Ok(args)
    }
}

/// The running binary's name as invoked.
fn bin() -> String {
    std::env::args().next().unwrap_or_else(|| "bin".into())
}

/// Exits 2 with `complaint` (when not empty) and the usage of a binary
/// that reads `reads` on stderr: what a binary does with a command line
/// it will not run.
pub fn refuse(complaint: &str, extra_usage: &str, reads: Reads) -> ! {
    if !complaint.is_empty() {
        eprintln!("{complaint}");
    }
    eprintln!("{}", usage(&bin(), extra_usage, reads));
    std::process::exit(2)
}

/// Why parsing stopped: the user asked for usage, or a flag was
/// malformed (usage goes to stderr, exit code 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// `--help` / `-h` was given.
    Help,
    /// A flag was unknown or had a bad value.
    Error,
}

/// The flag groups a binary reads beyond the shared flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    /// `--shards` and `--store`.
    pub campaign: bool,
    /// `--benchmark` and `--param`.
    pub spec: bool,
}

impl Reads {
    /// Every flag (`run_campaign`).
    pub const ALL: Reads = Reads { campaign: true, spec: true };

    /// Whether the binary reads `flag`.
    fn reads(self, flag: &str) -> bool {
        match flag {
            "--shards" | "--store" => self.campaign,
            "--benchmark" | "--param" => self.spec,
            _ => true,
        }
    }
}

fn value_of<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, Exit> {
    match v.and_then(|s| s.parse().ok()) {
        Some(n) => Ok(n),
        None => {
            eprintln!("{flag} needs a numeric value");
            Err(Exit::Error)
        }
    }
}

fn positive(flag: &str, v: Option<String>) -> Result<usize, Exit> {
    match value_of(flag, v)? {
        0 => {
            eprintln!("{flag} needs a positive integer");
            Err(Exit::Error)
        }
        n => Ok(n),
    }
}

fn text_of(flag: &str, what: &str, v: Option<String>) -> Result<String, Exit> {
    v.ok_or_else(|| {
        eprintln!("{flag} needs {what}");
        Exit::Error
    })
}

/// Every flag's synopsis and help text.
const FLAGS: [(&str, &str); 10] = [
    ("--seed N", "RNG seed (default 20170529)"),
    ("--shards N", "campaign worker threads (default 1; part of the run ID)"),
    ("--out DIR", "results directory (default results/ at the workspace root)"),
    ("--obs-jsonl", "also write observability reports as JSON Lines"),
    ("--quick", "reduced plans for smoke runs"),
    ("--profile", "print a wall-clock self-profile on exit"),
    ("--trace-out PATH", "write a dual-clock Chrome/Perfetto trace.json"),
    ("--store DIR", "archive the campaign into a store (a rerun resumes from its checkpoints)"),
    ("--benchmark SPEC.toml", "run from a declarative benchmark spec (DESIGN.md par. 15)"),
    ("--param NAME=VALUE", "override a [params] entry of the spec (repeatable)"),
];

fn usage(bin: &str, extra: &str, reads: Reads) -> String {
    let flags: Vec<_> =
        FLAGS.iter().filter(|(syn, _)| reads.reads(syn.split(' ').next().unwrap())).collect();
    let positional = if extra.is_empty() { String::new() } else { format!(" {extra}") };
    let mut out = format!("usage: {bin}{positional}");
    for chunk in flags.chunks(4) {
        let line: Vec<String> = chunk.iter().map(|(syn, _)| format!("[{syn}]")).collect();
        out.push_str(&format!("\n    {}", line.join(" ")));
    }
    out.push('\n');
    for (syn, help) in &flags {
        out.push_str(&format!("\n{syn:<24}{help}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let args = CommonArgs::try_parse(argv(&[]), 7).unwrap();
        assert_eq!(args, CommonArgs { seed: 7, ..CommonArgs::default() });
    }

    #[test]
    fn all_flags_and_positionals() {
        let args = CommonArgs::try_parse(
            argv(&[
                "plan.dsl",
                "--seed",
                "42",
                "--shards",
                "4",
                "--out",
                "/tmp/r",
                "--obs-jsonl",
                "--quick",
                "--profile",
                "--trace-out",
                "/tmp/trace.json",
                "--store",
                "/tmp/store",
                "--benchmark",
                "benchmarks/fig04.toml",
                "--param",
                "n_sizes=30",
                "--param",
                "preset=myrinet",
                "taurus",
            ]),
            7,
        )
        .unwrap();
        assert_eq!(args.seed, 42);
        assert_eq!(args.shards, Some(4));
        assert!(args.obs_jsonl);
        assert!(args.quick);
        assert!(args.profile);
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/trace.json"));
        assert_eq!(args.store.as_deref(), Some("/tmp/store"));
        assert_eq!(args.benchmark.as_deref(), Some("benchmarks/fig04.toml"));
        assert_eq!(
            args.params,
            vec![
                ("n_sizes".to_string(), "30".to_string()),
                ("preset".to_string(), "myrinet".to_string())
            ]
        );
        assert_eq!(args.rest, argv(&["plan.dsl", "taurus"]));
        assert_eq!(args.out.as_deref(), Some(std::path::Path::new("/tmp/r")));
    }

    #[test]
    fn malformed_flags_ask_for_usage() {
        assert_eq!(CommonArgs::try_parse(argv(&["--seed"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--seed", "abc"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--shards", "0"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--trace-out"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--store"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--benchmark"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--param"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--param", "novalue"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--param", "=v"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--bogus"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--help"]), 1), Err(Exit::Help));
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage("run_campaign", "PLAN PLATFORM", Reads::ALL);
        for flag in [
            "--seed",
            "--shards",
            "--out",
            "--obs-jsonl",
            "--quick",
            "--profile",
            "--trace-out",
            "--store",
            "--benchmark",
            "--param",
        ] {
            assert!(u.contains(flag), "{flag} missing from usage");
        }
    }
}

//! Uniform command-line handling for the regenerator binaries.
//!
//! Every binary in `src/bin/` reads the shared flags:
//!
//! * `--seed N` — RNG seed (default [`crate::default_seed`], i.e. the
//!   `CHARM_SEED` environment variable or the built-in constant);
//! * `--shards N` — shard count for the shard-invariant experiments;
//!   exported as `CHARM_SHARDS` so `Study::auto_shards` picks it up
//!   everywhere downstream;
//! * `--out DIR` — results directory; exported as `CHARM_RESULTS_DIR`
//!   so [`crate::results_dir`] honours it;
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
//! Two groups only some binaries read ([`Reads`]); a binary given a
//! flag it does not read exits 2 with its usage instead of ignoring it:
//!
//! * campaign flags, read by `run_campaign` only: `--store DIR` archives
//!   the campaign into a `charm_store` store, flushing shard checkpoints
//!   as they complete; `--resume RUN_ID` replays the finished shards of
//!   an interrupted stored run; `--min-rows-per-shard N` overrides the
//!   worker floor ([`charm_engine::DEFAULT_MIN_ROWS_PER_SHARD`]; `1`
//!   takes `--shards` literally); positional arguments land in
//!   [`CommonArgs::rest`];
//! * spec flags, read by `run_campaign`, `fig04`, `fig07` and
//!   `pchase_interference`: `--benchmark PATH` runs a declarative spec
//!   (DESIGN.md §15) instead of the built-in one; `--param NAME=VALUE`
//!   overrides one of its `[params]` (repeatable).

/// The flags shared by all regenerator binaries, parsed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonArgs {
    /// RNG seed (`--seed N`).
    pub seed: u64,
    /// Shard count override (`--shards N`), when given.
    pub shards: Option<usize>,
    /// Worker-floor override (`--min-rows-per-shard N`), when given.
    pub min_rows_per_shard: Option<usize>,
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
    /// Run ID to resume (`--resume RUN_ID`), when given.
    pub resume: Option<String>,
    /// Benchmark spec file (`--benchmark PATH`), when given.
    pub benchmark: Option<String>,
    /// Spec parameter overrides (`--param NAME=VALUE`, repeatable).
    pub params: Vec<(String, String)>,
    /// Positional arguments, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Parses `std::env::args()` for a binary that reads the shared
    /// flags plus the groups in `reads`, applies the environment side
    /// effects (`CHARM_SHARDS`, `CHARM_RESULTS_DIR`), and exits with the
    /// usage text (listing only the flags the binary reads) on `--help`,
    /// a malformed flag, or a flag the binary does not read.
    /// `extra_usage` documents the positional arguments (empty when the
    /// binary takes none).
    pub fn parse(extra_usage: &str, reads: Reads) -> CommonArgs {
        let bin = std::env::args().next().unwrap_or_else(|| "bin".into());
        let parsed = Self::try_parse(std::env::args().skip(1), crate::default_seed());
        match parsed.and_then(|(args, out)| match args.unread(reads) {
            Some(flag) => {
                eprintln!("{bin} does not read {flag}");
                Err(Exit::Error)
            }
            None => Ok((args, out)),
        }) {
            Ok((args, out_dir)) => {
                if let Some(n) = args.shards {
                    std::env::set_var("CHARM_SHARDS", n.to_string());
                }
                if let Some(dir) = out_dir {
                    std::env::set_var("CHARM_RESULTS_DIR", dir);
                }
                args
            }
            Err(Exit::Help) => {
                println!("{}", usage(&bin, extra_usage, reads));
                std::process::exit(0);
            }
            Err(Exit::Error) => {
                eprintln!("{}", usage(&bin, extra_usage, reads));
                std::process::exit(2);
            }
        }
    }

    /// The first flag given that a binary reading only `reads` (beyond
    /// the shared flags) would ignore.
    fn unread(&self, reads: Reads) -> Option<&'static str> {
        [
            ("--store", self.store.is_some()),
            ("--resume", self.resume.is_some()),
            ("--min-rows-per-shard", self.min_rows_per_shard.is_some()),
            ("positional arguments", !self.rest.is_empty()),
            ("--benchmark", self.benchmark.is_some()),
            ("--param", !self.params.is_empty()),
        ]
        .into_iter()
        .find(|&(flag, given)| given && !reads.reads(flag))
        .map(|(flag, _)| flag)
    }

    /// Pure parser (no environment side effects): returns the parsed
    /// args and the `--out` value, or an [`Exit`] reason when usage
    /// should be printed instead. Split out for tests.
    pub fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_seed: u64,
    ) -> Result<(CommonArgs, Option<String>), Exit> {
        let mut args = CommonArgs { seed: default_seed, ..CommonArgs::default() };
        let mut out_dir = None;
        let mut argv = argv.into_iter();
        while let Some(a) = argv.next() {
            match a.as_str() {
                "--seed" => args.seed = value_of("--seed", argv.next())?,
                "--shards" => args.shards = Some(positive("--shards", argv.next())?),
                "--min-rows-per-shard" => {
                    args.min_rows_per_shard = Some(positive("--min-rows-per-shard", argv.next())?)
                }
                "--out" => out_dir = Some(text_of("--out", "a directory", argv.next())?),
                "--obs-jsonl" => args.obs_jsonl = true,
                "--quick" => args.quick = true,
                "--profile" => args.profile = true,
                "--trace-out" => {
                    args.trace_out = Some(text_of("--trace-out", "a file path", argv.next())?)
                }
                "--store" => args.store = Some(text_of("--store", "a directory", argv.next())?),
                "--resume" => args.resume = Some(text_of("--resume", "a run ID", argv.next())?),
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
        Ok((args, out_dir))
    }
}

/// Why parsing stopped: the user asked for usage, or a flag was
/// malformed (usage goes to stderr, exit code 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// `--help` / `-h` was given.
    Help,
    /// A flag was unknown or had a bad value.
    Error,
}

/// The flag groups a binary reads beyond the shared flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    /// `--store`, `--resume`, `--min-rows-per-shard` and positional
    /// arguments.
    pub campaign: bool,
    /// `--benchmark` and `--param`.
    pub spec: bool,
}

impl Reads {
    /// Every flag (`run_campaign`).
    pub const ALL: Reads = Reads { campaign: true, spec: true };
    /// The shared flags only.
    pub const SHARED: Reads = Reads { campaign: false, spec: false };

    /// Whether the binary reads `flag` (or takes positional arguments).
    fn reads(self, flag: &str) -> bool {
        match flag {
            "--store" | "--resume" | "--min-rows-per-shard" | "positional arguments" => {
                self.campaign
            }
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
const FLAGS: [(&str, &str); 12] = [
    ("--seed N", "RNG seed (default CHARM_SEED or 20170529)"),
    ("--shards N", "shard count for shard-invariant campaigns (sets CHARM_SHARDS)"),
    ("--min-rows-per-shard N", "worker floor: at most one worker per N plan rows (1 = off)"),
    ("--out DIR", "results directory (sets CHARM_RESULTS_DIR)"),
    ("--obs-jsonl", "also write observability reports as JSON Lines"),
    ("--quick", "reduced plans for smoke runs"),
    ("--profile", "print a wall-clock self-profile on exit"),
    ("--trace-out PATH", "write a dual-clock Chrome/Perfetto trace.json"),
    ("--store DIR", "archive the campaign (with shard checkpoints) into a store"),
    ("--resume RUN_ID", "resume an interrupted stored run (requires --store)"),
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
        let (args, out) = CommonArgs::try_parse(argv(&[]), 7).unwrap();
        assert_eq!(args, CommonArgs { seed: 7, ..CommonArgs::default() });
        assert_eq!(out, None);
    }

    #[test]
    fn all_flags_and_positionals() {
        let (args, out) = CommonArgs::try_parse(
            argv(&[
                "plan.dsl",
                "--seed",
                "42",
                "--shards",
                "4",
                "--min-rows-per-shard",
                "1",
                "--out",
                "/tmp/r",
                "--obs-jsonl",
                "--quick",
                "--profile",
                "--trace-out",
                "/tmp/trace.json",
                "--store",
                "/tmp/store",
                "--resume",
                "0123456789abcdef0123456789abcdef",
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
        assert_eq!(args.min_rows_per_shard, Some(1));
        assert!(args.obs_jsonl);
        assert!(args.quick);
        assert!(args.profile);
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/trace.json"));
        assert_eq!(args.store.as_deref(), Some("/tmp/store"));
        assert_eq!(args.resume.as_deref(), Some("0123456789abcdef0123456789abcdef"));
        assert_eq!(args.benchmark.as_deref(), Some("benchmarks/fig04.toml"));
        assert_eq!(
            args.params,
            vec![
                ("n_sizes".to_string(), "30".to_string()),
                ("preset".to_string(), "myrinet".to_string())
            ]
        );
        assert_eq!(args.rest, argv(&["plan.dsl", "taurus"]));
        assert_eq!(out.as_deref(), Some("/tmp/r"));
    }

    #[test]
    fn malformed_flags_ask_for_usage() {
        assert_eq!(CommonArgs::try_parse(argv(&["--seed"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--seed", "abc"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--shards", "0"]), 1), Err(Exit::Error));
        assert_eq!(
            CommonArgs::try_parse(argv(&["--min-rows-per-shard", "0"]), 1),
            Err(Exit::Error)
        );
        assert_eq!(CommonArgs::try_parse(argv(&["--min-rows-per-shard"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--trace-out"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--store"]), 1), Err(Exit::Error));
        assert_eq!(CommonArgs::try_parse(argv(&["--resume"]), 1), Err(Exit::Error));
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
            "--min-rows-per-shard",
            "--out",
            "--obs-jsonl",
            "--quick",
            "--profile",
            "--trace-out",
            "--store",
            "--resume",
            "--benchmark",
            "--param",
        ] {
            assert!(u.contains(flag), "{flag} missing from usage");
        }
    }
}

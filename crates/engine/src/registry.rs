//! The target registry: resolves a *declarative* target description —
//! the `[target]` table of a benchmark spec — into a live measurement
//! target.
//!
//! This is the second half of the BYOB decoupling (DESIGN.md §15): the
//! spec layer (`charm_core::spec`) turns a TOML file into an
//! [`charm_design::ExperimentPlan`] plus a [`TargetSpec`], and the
//! registry turns the [`TargetSpec`] into something the engine can
//! measure. The harness itself never names a concrete engine: adding a
//! platform means adding a registry entry, not touching plan-building
//! code.
//!
//! Three models exist:
//!
//! * `network` — an in-process [`NetworkTarget`] over one of the
//!   `charm_simnet` presets ([`network_presets`]);
//! * `memory` — an in-process [`MemoryTarget`] over a `charm_simmem`
//!   machine built from a CPU spec plus governor / scheduler /
//!   allocation policies ([`memory_cpus`]);
//! * `external` — an *engine subprocess* speaking the KLV protocol.
//!   The registry validates the description and hands back an
//!   [`ExternalEngineSpec`]; the `charm_runner` crate (which depends on
//!   this one) spawns it. External engines run sequentially — a
//!   subprocess has no [`crate::ParallelTarget::fork`] — so callers
//!   that match [`ResolvedTarget::External`] refuse `--shards > 1`
//!   rather than silently downgrading.
//!
//! Unknown names fail with [`TargetError::UnknownTarget`] carrying the
//! accepted spellings, so a typo in a spec file reads as a spec bug,
//! not a measurement bug.

use crate::target::{MemoryTarget, NetworkTarget, Target, TargetError};
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;

/// Default sampling period for `governor = "ondemand"` (µs of virtual
/// time), matching the Linux default order of magnitude the simulator's
/// Fig 10 study uses.
pub(crate) const DEFAULT_ONDEMAND_PERIOD_US: f64 = 10_000.0;

/// Default per-frame deadline for external engines (ms of wall time).
pub(crate) const DEFAULT_EXTERNAL_TIMEOUT_MS: u64 = 10_000;

/// A declarative target description, as a benchmark spec's `[target]`
/// table parses into. Pure data: no simulator or subprocess is
/// constructed until [`resolve`].
#[derive(Debug, Clone, PartialEq)]
pub enum TargetSpec {
    /// `model = "network"`: a simulated network preset.
    Network {
        /// Preset name (see [`network_presets`]).
        preset: String,
        /// Platform label recorded in campaign metadata; defaults to
        /// the preset name.
        label: Option<String>,
    },
    /// `model = "memory"`: a simulated memory hierarchy.
    Memory {
        /// CPU spec name (see [`memory_cpus`]).
        cpu: String,
        /// Governor policy name (`performance`, `powersave`,
        /// `ondemand`); `None` means `performance`.
        governor: Option<String>,
        /// Scheduling policy name (`pinned_default`, `pinned_realtime`,
        /// `timeshare_noisy`); `None` means `pinned_default`.
        sched: Option<String>,
        /// Allocation policy name (`malloc_per_size`,
        /// `pooled_random_offset`); `None` means `pooled_random_offset`.
        alloc: Option<String>,
        /// Platform label; defaults to the CPU name.
        label: Option<String>,
    },
    /// `model = "external"`: an engine subprocess speaking KLV.
    External {
        /// Program to spawn (resolved against the workspace root by the
        /// spec loader when relative).
        program: String,
        /// Arguments, after `$param` substitution.
        args: Vec<String>,
        /// Per-frame deadline in ms; `None` means
        /// [`DEFAULT_EXTERNAL_TIMEOUT_MS`].
        timeout_ms: Option<u64>,
        /// Platform label; defaults to the program's file stem.
        label: Option<String>,
    },
}

impl TargetSpec {
    /// The spec a bare platform name stands for — the DSL front end's
    /// `<platform>` argument: a network preset or a CPU (see
    /// [`network_presets`], [`memory_cpus`]) with every policy and the
    /// label at their defaults.
    pub fn platform(name: &str) -> Result<TargetSpec, TargetError> {
        let (governor, sched, alloc, label) = (None, None, None, None);
        if network_presets().contains(&name) {
            Ok(TargetSpec::Network { preset: name.to_string(), label })
        } else if memory_cpus().contains(&name) {
            Ok(TargetSpec::Memory { cpu: name.to_string(), governor, sched, alloc, label })
        } else {
            Err(unknown("platform", name, &[network_presets(), memory_cpus()].concat()))
        }
    }

    /// The platform label campaigns of this target record and archive
    /// under: the explicit `label`, else the preset name, the CPU name,
    /// or the program's file stem.
    pub fn label(&self) -> String {
        match self {
            TargetSpec::Network { label: Some(label), .. }
            | TargetSpec::Memory { label: Some(label), .. }
            | TargetSpec::External { label: Some(label), .. } => label.clone(),
            TargetSpec::Network { preset, label: None } => preset.clone(),
            TargetSpec::Memory { cpu, label: None, .. } => cpu.clone(),
            TargetSpec::External { program, label: None, .. } => std::path::Path::new(program)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| program.clone()),
        }
    }
}

/// A validated external-engine description, ready for `charm_runner`
/// to spawn. The registry cannot construct the subprocess target itself
/// (that would invert the crate layering: the runner implements
/// [`crate::Target`] *on top of* this crate), so it validates and
/// normalizes here and lets the caller hand the result to
/// `charm_runner::ExternalTarget::spawn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalEngineSpec {
    /// Program path or name.
    pub program: String,
    /// Arguments.
    pub args: Vec<String>,
    /// Per-frame deadline (ms).
    pub timeout_ms: u64,
    /// Platform label for campaign metadata.
    pub label: String,
}

/// What [`resolve`] produced: a live in-process target, or a validated
/// external description for the runner crate to spawn.
pub enum ResolvedTarget {
    /// An in-process network target (shard-invariant, parallelizable).
    Network(Box<NetworkTarget>),
    /// An in-process memory target (parallelizable when its policies
    /// are order-invariant).
    Memory(Box<MemoryTarget>),
    /// A validated external engine; sequential-only by construction.
    External(ExternalEngineSpec),
}

impl std::fmt::Debug for ResolvedTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolvedTarget::Network(t) => write!(f, "Network({:?})", t.name()),
            ResolvedTarget::Memory(t) => write!(f, "Memory({:?})", t.name()),
            ResolvedTarget::External(e) => f.debug_tuple("External").field(e).finish(),
        }
    }
}

/// The network preset names the registry resolves.
pub fn network_presets() -> &'static [&'static str] {
    &["taurus", "myrinet", "openmpi"]
}

/// The CPU spec names the registry resolves.
pub fn memory_cpus() -> &'static [&'static str] {
    &["opteron", "pentium4", "i7", "arm"]
}

fn unknown(field: &'static str, got: &str, accepted: &[&str]) -> TargetError {
    TargetError::UnknownTarget { field, got: got.to_string(), expected: accepted.join(" | ") }
}

fn governor(name: &str) -> Result<GovernorPolicy, TargetError> {
    match name {
        "performance" => Ok(GovernorPolicy::Performance),
        "powersave" => Ok(GovernorPolicy::Powersave),
        "ondemand" => Ok(GovernorPolicy::Ondemand { sample_period_us: DEFAULT_ONDEMAND_PERIOD_US }),
        other => Err(unknown("governor", other, &["performance", "powersave", "ondemand"])),
    }
}

fn cpu_spec(name: &str) -> Result<CpuSpec, TargetError> {
    match name {
        "opteron" => Ok(CpuSpec::opteron()),
        "pentium4" => Ok(CpuSpec::pentium4()),
        "i7" => Ok(CpuSpec::core_i7_2600()),
        "arm" => Ok(CpuSpec::arm_snowball()),
        other => Err(unknown("cpu", other, memory_cpus())),
    }
}

/// Resolves a declarative target description into a live target (or a
/// validated external description), seeding every random stream from
/// `seed`. Pure dispatch over static constructors: resolving the same
/// spec and seed twice yields identically configured targets, which is
/// what lets `charm_store` derive stable run IDs from spec-driven
/// campaigns.
pub fn resolve(spec: &TargetSpec, seed: u64) -> Result<ResolvedTarget, TargetError> {
    match spec {
        TargetSpec::Network { preset, .. } => {
            let sim = match preset.as_str() {
                "taurus" => presets::taurus_openmpi_tcp(seed),
                "myrinet" => presets::myrinet_gm(seed),
                "openmpi" => presets::openmpi_fig3(seed),
                other => return Err(unknown("preset", other, network_presets())),
            };
            Ok(ResolvedTarget::Network(Box::new(NetworkTarget::new(spec.label(), sim))))
        }
        TargetSpec::Memory { cpu, governor: gov, sched, alloc, .. } => {
            let cpu = cpu_spec(cpu)?;
            let gov = governor(gov.as_deref().unwrap_or("performance"))?;
            let sched_name = sched.as_deref().unwrap_or("pinned_default");
            let sched = SchedPolicy::parse(sched_name).ok_or_else(|| {
                unknown(
                    "sched",
                    sched_name,
                    &["pinned_default", "pinned_realtime", "timeshare_noisy"],
                )
            })?;
            let alloc = match alloc.as_deref().unwrap_or("pooled_random_offset") {
                "malloc_per_size" => AllocPolicy::MallocPerSize,
                "pooled_random_offset" => AllocPolicy::PooledRandomOffset,
                other => {
                    return Err(unknown(
                        "alloc",
                        other,
                        &["malloc_per_size", "pooled_random_offset"],
                    ))
                }
            };
            let machine = MachineSim::new(cpu, gov, sched, alloc, seed);
            Ok(ResolvedTarget::Memory(Box::new(MemoryTarget::new(spec.label(), machine))))
        }
        TargetSpec::External { program, args, timeout_ms, .. } => {
            if program.is_empty() {
                return Err(TargetError::UnknownTarget {
                    field: "command",
                    got: String::new(),
                    expected: "a non-empty program path".to_string(),
                });
            }
            Ok(ResolvedTarget::External(ExternalEngineSpec {
                program: program.clone(),
                args: args.clone(),
                timeout_ms: timeout_ms.unwrap_or(DEFAULT_EXTERNAL_TIMEOUT_MS),
                label: spec.label(),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_presets_resolve_with_default_labels() {
        for &preset in network_presets() {
            let spec = TargetSpec::Network { preset: preset.into(), label: None };
            match resolve(&spec, 7).unwrap() {
                ResolvedTarget::Network(t) => assert_eq!(t.name(), preset),
                other => panic!("expected network target, got {other:?}"),
            }
        }
    }

    #[test]
    fn memory_cpus_resolve_and_policies_apply() {
        for &cpu in memory_cpus() {
            let spec = TargetSpec::Memory {
                cpu: cpu.into(),
                governor: None,
                sched: None,
                alloc: Some("malloc_per_size".into()),
                label: Some(format!("{cpu}-lab")),
            };
            match resolve(&spec, 3).unwrap() {
                ResolvedTarget::Memory(t) => {
                    assert_eq!(t.name(), format!("{cpu}-lab"));
                    assert_eq!(
                        t.metadata().iter().find(|(k, _)| k == "target_kind").unwrap().1,
                        "memory"
                    );
                }
                other => panic!("expected memory target, got {other:?}"),
            }
        }
    }

    #[test]
    fn platform_names_map_to_target_specs_with_default_policies() {
        for &name in network_presets() {
            let spec = TargetSpec::platform(name).unwrap();
            assert_eq!(spec, TargetSpec::Network { preset: name.into(), label: None });
            assert_eq!(spec.label(), name);
        }
        for &name in memory_cpus() {
            let spec = TargetSpec::platform(name).unwrap();
            assert_eq!(
                spec,
                TargetSpec::Memory {
                    cpu: name.into(),
                    governor: None,
                    sched: None,
                    alloc: None,
                    label: None
                }
            );
            assert_eq!(spec.label(), name);
        }
        match TargetSpec::platform("plan9").unwrap_err() {
            TargetError::UnknownTarget { field, got, expected } => {
                assert_eq!(field, "platform");
                assert_eq!(got, "plan9");
                assert_eq!(expected, "taurus | myrinet | openmpi | opteron | pentium4 | i7 | arm");
            }
            other => panic!("expected UnknownTarget, got {other}"),
        }
    }

    #[test]
    fn labels_default_to_the_name_and_yield_to_an_explicit_one() {
        let external = |label: Option<&str>| TargetSpec::External {
            program: "engines/klv_demo.sh".into(),
            args: Vec::new(),
            timeout_ms: None,
            label: label.map(str::to_string),
        };
        assert_eq!(external(None).label(), "klv_demo");
        assert_eq!(external(Some("lab")).label(), "lab");
        let net = TargetSpec::Network { preset: "taurus".into(), label: Some("t2".into()) };
        assert_eq!(net.label(), "t2");
        match resolve(&net, 1).unwrap() {
            ResolvedTarget::Network(t) => assert_eq!(t.name(), "t2"),
            other => panic!("expected network target, got {other:?}"),
        }
    }

    #[test]
    fn same_spec_same_seed_same_identity() {
        let spec = TargetSpec::Network { preset: "taurus".into(), label: None };
        let md = |r: ResolvedTarget| match r {
            ResolvedTarget::Network(t) => t.metadata(),
            _ => unreachable!(),
        };
        assert_eq!(md(resolve(&spec, 9).unwrap()), md(resolve(&spec, 9).unwrap()));
    }

    #[test]
    fn unknown_names_are_typed_spec_errors() {
        let bad = TargetSpec::Network { preset: "infiniband".into(), label: None };
        match resolve(&bad, 1).unwrap_err() {
            TargetError::UnknownTarget { field, got, expected } => {
                assert_eq!(field, "preset");
                assert_eq!(got, "infiniband");
                assert!(expected.contains("taurus"));
            }
            other => panic!("expected UnknownTarget, got {other}"),
        }
        let bad = TargetSpec::Memory {
            cpu: "arm".into(),
            governor: Some("turbo".into()),
            sched: None,
            alloc: None,
            label: None,
        };
        assert!(matches!(
            resolve(&bad, 1).unwrap_err(),
            TargetError::UnknownTarget { field: "governor", .. }
        ));
    }

    #[test]
    fn external_spec_is_normalized() {
        let spec = TargetSpec::External {
            program: "target/release/klv_engine_demo".into(),
            args: vec!["--seed".into(), "7".into()],
            timeout_ms: None,
            label: None,
        };
        match resolve(&spec, 7).unwrap() {
            ResolvedTarget::External(e) => {
                assert_eq!(e.label, "klv_engine_demo");
                assert_eq!(e.timeout_ms, DEFAULT_EXTERNAL_TIMEOUT_MS);
            }
            other => panic!("expected external, got {other:?}"),
        }
    }
}

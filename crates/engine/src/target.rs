//! Measurement targets: what the engine points at.
//!
//! A [`Target`] receives a fully-instantiated factor assignment and
//! performs exactly one measurement. Adapters for the two simulated
//! substrates live here; the trait is what a real-MPI or bare-metal
//! adapter would implement instead — the engine does not care.

use charm_design::factors::Level;
use charm_design::plan::{ExperimentPlan, PlanRow};
use charm_obs::{Observation, Observer};
use charm_simmem::compiler::{CodegenConfig, ElementWidth};
use charm_simmem::kernel::KernelConfig;
use charm_simmem::machine::MachineSim;
use charm_simnet::{NetOp, NetworkSim};
use std::fmt;

/// Error from a target measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetError {
    /// A factor the target needs is missing from the plan.
    MissingFactor(&'static str),
    /// A factor value has the wrong type or an invalid value.
    BadFactor {
        /// Factor name.
        name: &'static str,
        /// What was found, rendered.
        got: String,
    },
    /// A sharded run was requested against a target whose values depend
    /// on measurement timing ([`ParallelTarget::shard_invariant`] is
    /// false), so parallel execution would change the science.
    NotShardable {
        /// Platform label of the refusing target.
        target: String,
    },
    /// The campaign's checkpoint store failed (I/O error, corrupt or
    /// mismatched segment) or was configured inconsistently. Partial
    /// checkpoints silently passed off as complete runs are exactly the
    /// artifact the methodology bans, so checkpoint trouble fails the
    /// campaign instead of degrading it.
    Checkpoint {
        /// What went wrong, human-readable.
        message: String,
    },
    /// An external engine subprocess did not produce the expected frame
    /// within its deadline. The runner kills the child on timeout —
    /// a hung engine silently stalling a campaign is worse than a loud
    /// failure — and reports which protocol phase hung.
    Timeout {
        /// The protocol phase that hung (`handshake`, `measure`, …).
        phase: String,
        /// The deadline that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// An external engine subprocess exited (or was found dead) instead
    /// of answering; carries the exit code when the child terminated
    /// normally and whatever it wrote to stderr.
    EngineFailed {
        /// Exit code, when the child exited on its own (`None` when
        /// killed by a signal or by the runner's timeout handling).
        exit_code: Option<i32>,
        /// Captured stderr (possibly truncated), for the error report.
        stderr: String,
    },
    /// An external engine subprocess violated the KLV wire protocol:
    /// malformed frame, wrong handshake, a reply frame out of sequence.
    Protocol {
        /// What was violated, human-readable.
        detail: String,
    },
    /// The campaign was cancelled through its [`CancelToken`] before it
    /// finished. Cancellation is cooperative: the sequential engine
    /// checks between rows, the work-stealing scheduler at batch-claim
    /// boundaries, so a checkpointed campaign that is cancelled leaves
    /// only whole, resumable batch segments behind.
    ///
    /// [`CancelToken`]: crate::cancel::CancelToken
    Cancelled,
    /// A benchmark spec referenced a target the registry does not know
    /// (unknown model, preset, CPU, or policy name).
    UnknownTarget {
        /// Which spec field failed to resolve.
        field: &'static str,
        /// The unresolvable value.
        got: String,
        /// The names the registry does accept.
        expected: String,
    },
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::MissingFactor(name) => write!(f, "plan lacks factor {name:?}"),
            TargetError::BadFactor { name, got } => {
                write!(f, "factor {name:?} has unusable value {got:?}")
            }
            TargetError::NotShardable { target } => {
                write!(
                    f,
                    "target {target:?} is time-dependent and cannot be sharded \
                     (run it sequentially or with shards = 1)"
                )
            }
            TargetError::Checkpoint { message } => {
                write!(f, "campaign checkpoint store failed: {message}")
            }
            TargetError::Timeout { phase, timeout_ms } => {
                write!(
                    f,
                    "engine subprocess hung during {phase} (no frame within {timeout_ms} ms); \
                     the runner killed it"
                )
            }
            TargetError::EngineFailed { exit_code, stderr } => {
                match exit_code {
                    Some(code) => write!(f, "engine subprocess exited with code {code}")?,
                    None => write!(f, "engine subprocess died without an exit code")?,
                }
                if stderr.is_empty() {
                    write!(f, " (no stderr)")
                } else {
                    write!(f, "; stderr: {}", stderr.trim_end())
                }
            }
            TargetError::Protocol { detail } => {
                write!(f, "engine subprocess violated the KLV protocol: {detail}")
            }
            TargetError::Cancelled => {
                write!(f, "campaign cancelled by caller before completion")
            }
            TargetError::UnknownTarget { field, got, expected } => {
                write!(f, "spec {field} {got:?} is not in the registry (expected {expected})")
            }
        }
    }
}

impl std::error::Error for TargetError {}

/// One raw measurement as a target reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The measured quantity (µs for network ops, MB/s for memory).
    pub value: f64,
    /// Virtual time at which the measurement started (µs).
    pub start_us: f64,
}

/// A view over one plan row that resolves factors by name.
pub struct Assignment<'a> {
    plan: &'a ExperimentPlan,
    row: &'a PlanRow,
}

impl<'a> Assignment<'a> {
    /// Wraps a row of a plan.
    pub fn new(plan: &'a ExperimentPlan, row: &'a PlanRow) -> Self {
        Assignment { plan, row }
    }

    /// The raw level of a factor, if the plan has it.
    pub(crate) fn level(&self, name: &str) -> Option<&Level> {
        let idx = self.plan.factor_names().iter().position(|n| n == name)?;
        self.row.levels.get(idx)
    }

    /// Every `(factor name, level)` pair of this assignment, in the
    /// plan's column order. External runners serialize whole assignments
    /// onto a wire; this is the one place the full set is exposed.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Level)> {
        self.plan.factor_names().iter().map(String::as_str).zip(self.row.levels.iter())
    }

    /// Replicate index (0-based) of this row within its combination.
    pub fn replicate(&self) -> u32 {
        self.row.replicate
    }

    /// Integer factor.
    pub(crate) fn int(&self, name: &'static str) -> Result<i64, TargetError> {
        let l = self.level(name).ok_or(TargetError::MissingFactor(name))?;
        l.as_int().ok_or_else(|| TargetError::BadFactor { name, got: l.to_string() })
    }

    /// Integer factor with a default when absent.
    pub(crate) fn int_or(&self, name: &'static str, default: i64) -> Result<i64, TargetError> {
        match self.level(name) {
            None => Ok(default),
            Some(l) => {
                l.as_int().ok_or_else(|| TargetError::BadFactor { name, got: l.to_string() })
            }
        }
    }

    /// Text factor.
    pub(crate) fn text(&self, name: &'static str) -> Result<&str, TargetError> {
        let l = self.level(name).ok_or(TargetError::MissingFactor(name))?;
        l.as_text().ok_or_else(|| TargetError::BadFactor { name, got: l.to_string() })
    }

    /// Flag factor with a default when absent.
    pub(crate) fn flag_or(&self, name: &'static str, default: bool) -> Result<bool, TargetError> {
        match self.level(name) {
            None => Ok(default),
            Some(l) => {
                l.as_flag().ok_or_else(|| TargetError::BadFactor { name, got: l.to_string() })
            }
        }
    }
}

/// Anything the engine can measure.
pub trait Target {
    /// Short platform name, recorded in the campaign metadata.
    fn name(&self) -> String;
    /// Environment metadata the target can introspect (governor, policy,
    /// cache geometry, seeds, …).
    fn metadata(&self) -> Vec<(String, String)>;
    /// Performs one measurement for the assignment.
    fn measure(&mut self, a: &Assignment<'_>) -> Result<Measurement, TargetError>;

    /// Switches the target's instrumentation on per `observer`.
    ///
    /// The default ignores the request, so targets without counters keep
    /// compiling and simply contribute an empty observation. Recording
    /// must never change measurement values (see `charm_obs`).
    fn observe(&mut self, observer: &Observer) {
        let _ = observer;
    }

    /// Drains everything the target observed so far (counters, events).
    /// The default reports nothing.
    fn take_observation(&mut self) -> Observation {
        Observation::default()
    }

    /// Execution diagnostics accumulated so far: cache hit/miss tallies
    /// and similar "how did this run execute" statistics. Unlike
    /// [`Target::take_observation`] counters, diagnostics are **not**
    /// shard-count-invariant — sharing a memoization cache across shards
    /// legitimately changes hit counts while leaving every measurement
    /// value untouched — so the engine aggregates them into
    /// [`charm_obs::CampaignReport::diagnostics`], a channel separate
    /// from the scientific counters. The default reports nothing.
    fn diagnostics(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// A mutable reference to a target is itself a target: lets the
/// [`Campaign`](crate::Campaign) builder run borrowed targets
/// (`Campaign::new(&plan, &mut target)`) as well as owned ones.
impl<T: Target + ?Sized> Target for &mut T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn metadata(&self) -> Vec<(String, String)> {
        (**self).metadata()
    }

    fn measure(&mut self, a: &Assignment<'_>) -> Result<Measurement, TargetError> {
        (**self).measure(a)
    }

    fn observe(&mut self, observer: &Observer) {
        (**self).observe(observer)
    }

    fn take_observation(&mut self) -> Observation {
        (**self).take_observation()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        (**self).diagnostics()
    }
}

/// A target whose measurement values are a pure function of
/// `(assignment, stream seed, measurement index)` — the capability the
/// parallel campaign runner builds on.
///
/// The contract (see `DESIGN.md` for the full determinism contract):
///
/// * `fork(seed)` yields an independent instance with identical
///   configuration whose random streams come from `seed`, positioned at
///   measurement index 0 and virtual time 0;
/// * `skip_to(i)` repositions the measurement index, so the next
///   `measure` call behaves as the `i`-th measurement of a sequential
///   run (virtual time is *not* skipped — shard clocks are local, and
///   the runner records their offsets in campaign metadata);
/// * when [`ParallelTarget::shard_invariant`] returns `true`,
///   `fork(self.stream_seed())` + `skip_to(i)` reproduces the value the
///   sequential run produces for measurement `i` bit-for-bit, so the
///   merged campaign of any shard count has exactly the sequential
///   campaign's `(levels, replicate, value)` multiset.
///
/// Targets whose physics is deliberately time-dependent (DVFS ramping,
/// intruder processes) report `shard_invariant() == false`; the runner
/// refuses to shard them rather than silently change their science.
pub trait ParallelTarget: Target + Send + Sized {
    /// The seed identifying this target's random streams.
    fn stream_seed(&self) -> u64;
    /// An independent same-configuration instance on `seed`'s streams.
    fn fork(&self, seed: u64) -> Self;
    /// Repositions the measurement index.
    fn skip_to(&mut self, index: u64);
    /// Current virtual time (µs) of this instance's local clock. The
    /// parallel runner reads it after a shard finishes to compute the
    /// clock offsets that map shard-local timestamps onto one campaign
    /// timeline.
    fn now_us(&self) -> f64;
    /// Whether per-index values are independent of measurement timing,
    /// i.e. whether sharding this target preserves values exactly.
    fn shard_invariant(&self) -> bool;
}

/// Adapter: network substrate. Expects factors `op` (text:
/// `async_send` / `blocking_recv` / `ping_pong`) and `size` (bytes).
pub struct NetworkTarget {
    sim: NetworkSim,
    label: String,
}

impl NetworkTarget {
    /// Wraps a simulator under a platform label.
    pub fn new(label: impl Into<String>, sim: NetworkSim) -> Self {
        NetworkTarget { sim, label: label.into() }
    }
}

impl Target for NetworkTarget {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn metadata(&self) -> Vec<(String, String)> {
        vec![
            ("target_kind".into(), "network".into()),
            ("platform".into(), self.label.clone()),
            ("protocol_thresholds".into(), format!("{:?}", self.sim.protocol().thresholds())),
            ("value_unit".into(), "us".into()),
        ]
    }

    fn measure(&mut self, a: &Assignment<'_>) -> Result<Measurement, TargetError> {
        let op_name = a.text("op")?;
        let op = NetOp::parse(op_name)
            .ok_or(TargetError::BadFactor { name: "op", got: op_name.to_string() })?;
        let size = a.int("size")?;
        if size < 0 {
            return Err(TargetError::BadFactor { name: "size", got: size.to_string() });
        }
        let start_us = self.sim.now_us();
        let value = self.sim.measure(op, size as u64);
        Ok(Measurement { value, start_us })
    }

    fn observe(&mut self, observer: &Observer) {
        self.sim.enable_observability(observer.event_capacity);
    }

    fn take_observation(&mut self) -> Observation {
        self.sim.take_observation()
    }
}

impl ParallelTarget for NetworkTarget {
    fn stream_seed(&self) -> u64 {
        self.sim.stream_seed()
    }

    fn fork(&self, seed: u64) -> Self {
        NetworkTarget { sim: self.sim.fork(seed), label: self.label.clone() }
    }

    fn skip_to(&mut self, index: u64) {
        self.sim.skip_to(index);
    }

    fn now_us(&self) -> f64 {
        self.sim.now_us()
    }

    fn shard_invariant(&self) -> bool {
        // All network noise (white, burst, anomalies) is counter-based;
        // the virtual clock only affects `start_us`, never values.
        true
    }
}

/// Adapter: memory substrate. Expects factor `size_bytes`; optional
/// `stride` (elements, default 1), `width` (text per
/// [`ElementWidth::name`], default `32b_int`), `unroll` (flag, default
/// false), `nloops` (default 100).
pub struct MemoryTarget {
    machine: MachineSim,
    label: String,
}

impl MemoryTarget {
    /// Wraps a machine under a platform label.
    pub fn new(label: impl Into<String>, machine: MachineSim) -> Self {
        MemoryTarget { machine, label: label.into() }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &MachineSim {
        &self.machine
    }

    /// Mutable access to the wrapped machine, for opaque-tool drivers
    /// (`charm_opaque` tools run against the machine directly rather
    /// than through [`Target::measure`]).
    pub fn machine_mut(&mut self) -> &mut MachineSim {
        &mut self.machine
    }
}

impl Target for MemoryTarget {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn metadata(&self) -> Vec<(String, String)> {
        let spec = self.machine.spec();
        let mut md = vec![
            ("target_kind".into(), "memory".into()),
            ("platform".into(), self.label.clone()),
            ("cpu".into(), spec.name.to_string()),
            ("word_bits".into(), spec.word_bits.to_string()),
            ("page_bytes".into(), spec.page_bytes.to_string()),
            ("dram_latency_cycles".into(), spec.dram_latency_cycles.to_string()),
            ("value_unit".into(), "MB/s".into()),
        ];
        for (i, l) in spec.levels.iter().enumerate() {
            md.push((
                format!("l{}_cache", i + 1),
                format!("{}KB {}-way {}B lines", l.size_bytes / 1024, l.assoc, l.line_bytes),
            ));
        }
        md
    }

    fn measure(&mut self, a: &Assignment<'_>) -> Result<Measurement, TargetError> {
        let size = a.int("size_bytes")?;
        if size <= 0 {
            return Err(TargetError::BadFactor { name: "size_bytes", got: size.to_string() });
        }
        // The buffer is placed in the machine's page pool, which panics on
        // a buffer it cannot hold.
        let pool = self.machine.max_buffer_bytes();
        if size as u64 > pool {
            return Err(TargetError::BadFactor {
                name: "size_bytes",
                got: format!("{size} (larger than the {pool}-byte page pool)"),
            });
        }
        let stride = a.int_or("stride", 1)?;
        if stride < 1 {
            return Err(TargetError::BadFactor { name: "stride", got: stride.to_string() });
        }
        let width = match a.level("width") {
            None => ElementWidth::W32,
            Some(l) => {
                let name = l.as_text().unwrap_or_default();
                ElementWidth::parse(name)
                    .ok_or(TargetError::BadFactor { name: "width", got: l.to_string() })?
            }
        };
        let unroll = a.flag_or("unroll", false)?;
        let nloops = a.int_or("nloops", 100)?;
        if nloops < 1 {
            return Err(TargetError::BadFactor { name: "nloops", got: nloops.to_string() });
        }
        let cfg = KernelConfig {
            buffer_bytes: size as u64,
            stride_elems: stride as u64,
            codegen: CodegenConfig::new(width, unroll),
            nloops: nloops as u64,
        };
        let r = self.machine.run_kernel(&cfg);
        Ok(Measurement { value: r.bandwidth_mbps, start_us: r.start_us })
    }

    fn observe(&mut self, observer: &Observer) {
        self.machine.enable_observability(observer.event_capacity);
    }

    fn take_observation(&mut self) -> Observation {
        self.machine.take_observation()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        // This instance's own lookups only (every fork has its own
        // cache and tallies), so per-batch diagnostics sum to the
        // campaign total.
        let (hits, misses) = self.machine.profile_cache_stats();
        vec![
            ("simmem.profile_cache.hits".to_string(), hits),
            ("simmem.profile_cache.misses".to_string(), misses),
        ]
    }
}

impl ParallelTarget for MemoryTarget {
    fn stream_seed(&self) -> u64 {
        self.machine.stream_seed()
    }

    fn fork(&self, seed: u64) -> Self {
        MemoryTarget { machine: self.machine.fork(seed), label: self.label.clone() }
    }

    fn skip_to(&mut self, index: u64) {
        self.machine.skip_to(index);
    }

    fn now_us(&self) -> f64 {
        self.machine.now_us()
    }

    fn shard_invariant(&self) -> bool {
        // Ondemand DVFS and non-default scheduling make values depend on
        // measurement start times — those studies must stay sequential.
        self.machine.order_invariant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_design::doe::FullFactorial;
    use charm_design::Factor;
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::CpuSpec;
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;
    use charm_simnet::presets;

    fn net_plan() -> ExperimentPlan {
        FullFactorial::new()
            .factor(Factor::new("op", vec!["ping_pong", "async_send"]))
            .factor(Factor::new("size", vec![64i64, 4096]))
            .build()
    }

    #[test]
    fn network_target_measures_rows() {
        let plan = net_plan();
        let mut t = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(1));
        for row in plan.rows() {
            let m = t.measure(&Assignment::new(&plan, row)).unwrap();
            assert!(m.value > 0.0);
        }
        assert!(t.metadata().iter().any(|(k, _)| k == "protocol_thresholds"));
    }

    #[test]
    fn network_target_rejects_bad_rows() {
        let plan = FullFactorial::new()
            .factor(Factor::new("op", vec!["warp_drive"]))
            .factor(Factor::new("size", vec![64i64]))
            .build();
        let mut t = NetworkTarget::new("x", presets::myrinet_gm(1));
        let err = t.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap_err();
        assert!(matches!(err, TargetError::BadFactor { name: "op", .. }));
    }

    #[test]
    fn network_target_missing_factor() {
        let plan = FullFactorial::new().factor(Factor::new("size", vec![64i64])).build();
        let mut t = NetworkTarget::new("x", presets::myrinet_gm(1));
        let err = t.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap_err();
        assert_eq!(err, TargetError::MissingFactor("op"));
    }

    #[test]
    fn memory_target_full_factor_set() {
        let plan = FullFactorial::new()
            .factor(Factor::new("size_bytes", vec![8192i64]))
            .factor(Factor::new("stride", vec![2i64]))
            .factor(Factor::new("width", vec!["64b_long_long"]))
            .factor(Factor::new("unroll", vec![true]))
            .factor(Factor::new("nloops", vec![10i64]))
            .build();
        let mut t = MemoryTarget::new(
            "i7",
            MachineSim::new(
                CpuSpec::core_i7_2600(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                1,
            ),
        );
        let m = t.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap();
        assert!(m.value > 0.0);
        assert!(t.metadata().iter().any(|(k, v)| k == "l1_cache" && v.contains("32KB")));
    }

    #[test]
    fn memory_target_defaults_optional_factors() {
        let plan = FullFactorial::new().factor(Factor::new("size_bytes", vec![4096i64])).build();
        let mut t = MemoryTarget::new(
            "arm",
            MachineSim::new(
                CpuSpec::arm_snowball(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                2,
            ),
        );
        assert!(t.measure(&Assignment::new(&plan, &plan.rows()[0])).is_ok());
    }

    #[test]
    fn memory_target_validates_values() {
        let plan = FullFactorial::new().factor(Factor::new("size_bytes", vec![0i64])).build();
        let mut t = MemoryTarget::new(
            "arm",
            MachineSim::new(
                CpuSpec::arm_snowball(),
                GovernorPolicy::Performance,
                SchedPolicy::PinnedDefault,
                AllocPolicy::MallocPerSize,
                3,
            ),
        );
        assert!(matches!(
            t.measure(&Assignment::new(&plan, &plan.rows()[0])),
            Err(TargetError::BadFactor { name: "size_bytes", .. })
        ));
    }

    /// The page pool bounds `size_bytes`: a buffer of exactly the pool
    /// runs, and one byte or one page more is a bad factor, not a panic.
    #[test]
    fn memory_target_refuses_a_buffer_larger_than_the_page_pool() {
        for spec in CpuSpec::all() {
            for policy in [AllocPolicy::MallocPerSize, AllocPolicy::PooledRandomOffset] {
                let limit = spec.pool_pages as i64 * spec.page_bytes as i64;
                let sizes = vec![limit, limit + 1, limit + spec.page_bytes as i64];
                let plan = FullFactorial::new()
                    .factor(Factor::new("size_bytes", sizes))
                    .factor(Factor::new("nloops", vec![1i64]))
                    .build();
                let machine = MachineSim::new(
                    spec.clone(),
                    GovernorPolicy::Performance,
                    SchedPolicy::PinnedDefault,
                    policy,
                    4,
                );
                assert_eq!(machine.max_buffer_bytes(), limit as u64, "{}", spec.name);
                let mut t = MemoryTarget::new("m", machine);
                let rows = plan.rows();
                let measure =
                    |t: &mut MemoryTarget, i: usize| t.measure(&Assignment::new(&plan, &rows[i]));
                assert!(measure(&mut t, 0).is_ok(), "{} {policy:?} at the limit", spec.name);
                for i in [1, 2] {
                    match measure(&mut t, i) {
                        Err(TargetError::BadFactor { name: "size_bytes", got }) => {
                            assert!(got.contains("page pool"), "{got}")
                        }
                        other => panic!("{} {policy:?} row {i}: {other:?}", spec.name),
                    }
                }
            }
        }
    }

    #[test]
    fn observe_plumbs_through_adapters_and_references() {
        let plan = net_plan();
        let mut t = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(1));
        // a &mut Target is a Target (blanket impl), and observes the same
        // underlying simulator
        {
            let by_ref: &mut NetworkTarget = &mut t;
            by_ref.observe(&Observer::default());
            by_ref.measure(&Assignment::new(&plan, &plan.rows()[0])).unwrap();
        }
        let obs = t.take_observation();
        assert_eq!(obs.counters.get("simnet.measurements"), 1);
        assert_eq!(obs.events.len(), 1);
        // default impl: a target that doesn't opt in observes nothing
        struct Null;
        impl Target for Null {
            fn name(&self) -> String {
                "null".into()
            }
            fn metadata(&self) -> Vec<(String, String)> {
                vec![]
            }
            fn measure(&mut self, _: &Assignment<'_>) -> Result<Measurement, TargetError> {
                Ok(Measurement { value: 1.0, start_us: 0.0 })
            }
        }
        let mut n = Null;
        n.observe(&Observer::default());
        assert!(n.take_observation().counters.is_empty());
    }
}

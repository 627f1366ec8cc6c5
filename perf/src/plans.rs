//! Workload inputs: plan texts generated from the seed, compiled the way
//! `run_campaign` and `charm-serve` compile them, and run on the engine.

use charm_core::spec::BenchmarkSpec;
use charm_design::dsl;
use charm_design::ExperimentPlan;
use charm_engine::checkpoint::CheckpointSink;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_engine::target::{MemoryTarget, NetworkTarget};
use charm_engine::{Campaign, CampaignRun, ParallelTarget};

/// The shard count every benchmark campaign runs with: one worker per
/// core of the 2-core reference host.
pub const SHARDS: usize = 2;

/// Largest seed handed to the program: plan texts carry seeds as TOML
/// and DSL integers.
const SEED_MASK: u64 = (1 << 48) - 1;

/// SplitMix64: the benchmark's own deterministic stream.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of item `i` of input stream `stream` under the run seed.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_mul(0x100_0000_01b3) ^ mix(i))) & SEED_MASK
}

/// How a plan text is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// The experiment DSL, measured on the named network platform.
    Dsl(&'static str),
    /// A `charm-spec/1` TOML spec carrying its own target.
    Spec,
}

/// A plan as a user submits it.
#[derive(Debug, Clone)]
pub struct PlanText {
    /// Syntax of `text`.
    pub syntax: Syntax,
    /// The plan or spec.
    pub text: String,
    /// The campaign's stream seed.
    pub seed: u64,
}

/// A compiled plan plus what the engine and the store need.
pub struct Compiled {
    /// The executable plan.
    pub plan: ExperimentPlan,
    /// The declarative target.
    pub target: TargetSpec,
    /// The benchmark label the run archives under.
    pub label: String,
    /// The shuffle seed recorded in the metadata (`None` for DSL plans).
    pub order_seed: Option<u64>,
}

impl PlanText {
    /// Compiles through `dsl::compile` or the spec loader.
    pub fn compile(&self) -> Result<Compiled, String> {
        match self.syntax {
            Syntax::Dsl(platform) => Ok(Compiled {
                plan: dsl::compile(&self.text).map_err(|e| format!("DSL error: {e}"))?,
                target: TargetSpec::Network { preset: platform.to_string(), label: None },
                label: platform.to_string(),
                order_seed: None,
            }),
            Syntax::Spec => {
                let spec = BenchmarkSpec::parse(&self.text).map_err(|e| format!("spec: {e}"))?;
                let r = spec.resolve(self.seed, &[]).map_err(|e| format!("spec: {e}"))?;
                Ok(Compiled {
                    plan: r.plan,
                    target: r.target,
                    label: r.name,
                    order_seed: r.order_seed,
                })
            }
        }
    }
}

/// A live in-process target.
pub enum Built {
    /// A memory simulator.
    Mem(Box<MemoryTarget>),
    /// A network simulator.
    Net(Box<NetworkTarget>),
}

/// Builds a fresh target, as a `run_campaign` process does.
pub fn build(target: &TargetSpec, seed: u64) -> Result<Built, String> {
    match registry::resolve(target, seed).map_err(|e| e.to_string())? {
        ResolvedTarget::Memory(t) => Ok(Built::Mem(t)),
        ResolvedTarget::Network(t) => Ok(Built::Net(t)),
        ResolvedTarget::External(_) => Err("external targets are not benchmarked".into()),
    }
}

impl Built {
    /// The store identity of the target.
    pub fn identity(&self) -> String {
        match self {
            Built::Mem(t) => charm_store::target_identity(t.as_ref()),
            Built::Net(t) => charm_store::target_identity(t.as_ref()),
        }
    }
}

/// Runs `plan` on `shards` workers, optionally checkpointing.
pub fn run_sharded<T: ParallelTarget>(
    plan: &ExperimentPlan,
    target: T,
    order_seed: Option<u64>,
    shards: usize,
    sink: Option<&dyn CheckpointSink>,
) -> Result<CampaignRun, String> {
    let campaign = Campaign::new(plan, target).shards(shards).seed(order_seed);
    let run = match sink {
        Some(sink) => campaign.store(sink).run(),
        None => campaign.run(),
    };
    run.map_err(|e| e.to_string())
}

/// [`run_sharded`] on a freshly built target.
pub fn run_built(
    c: &Compiled,
    built: Built,
    shards: usize,
    sink: Option<&dyn CheckpointSink>,
) -> Result<CampaignRun, String> {
    match built {
        Built::Mem(t) => run_sharded(&c.plan, *t, c.order_seed, shards, sink),
        Built::Net(t) => run_sharded(&c.plan, *t, c.order_seed, shards, sink),
    }
}

/// A memory sweep spec: opteron, sizes log-uniform from 16 KiB to
/// 16 MiB (L1 through DRAM), `sizes × reps` rows.
pub fn mem_spec(seed: u64, alloc: &str, sizes: usize, reps: usize) -> PlanText {
    let text = format!(
        "[benchmark]\nname = \"mem-sweep\"\n\n\
         [target]\nmodel = \"memory\"\ncpu = \"opteron\"\nalloc = \"{alloc}\"\n\n\
         [factors.size_bytes]\ngenerator = \"loguniform_unique\"\n\
         min = 16_384\nmax = 16_777_216\ncount = {sizes}\nseed = {seed}\n\n\
         [factors.stride]\nlevels = [2]\n\n[factors.nloops]\nlevels = [100]\n\n\
         [design]\nreplicates = {reps}\norder = \"randomized\"\norder_seed = {seed}\n"
    );
    PlanText { syntax: Syntax::Spec, text, seed }
}

/// A network DSL plan on taurus: `ops × sizes × reps` rows, sizes drawn
/// log-uniformly from 8 B to 4 MiB with `sizes_seed`, rows ordered and
/// measured with `seed`.
pub fn net_dsl(seed: u64, sizes_seed: u64, ops: &[&str], sizes: usize, reps: usize) -> PlanText {
    let text = format!(
        "factor op in [{}]\nfactor size loguniform 8..4194304 count {sizes} seed {sizes_seed}\n\
         replicates {reps}\norder randomized {seed}\n",
        ops.join(", ")
    );
    PlanText { syntax: Syntax::Dsl("taurus"), text, seed }
}

//! Host-speed calibration.
//!
//! On a shared host the same op takes 20–50 % longer for seconds to
//! minutes at a time, so medians from two runs a few minutes apart
//! disagree more than any useful regression bound. A workload whose ops
//! are CPU-bound therefore runs a fixed calibration kernel, the
//! benchmark's own code, before the first op and after each op. An op's
//! time is divided by the median of the kernel samples nearest it,
//! relative to [`NOMINAL_MS`]: the result is what the op would take on
//! the reference host at its usual speed. A change to charm cannot move
//! the kernel, so it cannot hide in the correction.
//!
//! The slowdowns come from contention beyond the core's private cache:
//! a kernel whose table fits in L2 does not see them. The 2 MiB table
//! fills the reference host's 2 MiB L2, so part of it comes from L3, and
//! is read without warming it first; warmed or larger tables tracked
//! the slowdowns less well when sampled side by side with it.

/// The kernel's time on the reference host (2-vCPU Xeon VM) when it is
/// not slowed down.
pub const NOMINAL_MS: f64 = 1.5;

const TABLE_LEN: usize = 1 << 18;
const STEPS: u32 = 400_000;

/// How a workload's times relate to the host's speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Speed {
    /// CPU-bound ops: times are corrected for the host's speed.
    Corrected,
    /// Ops that mostly wait (on timers, the network stack): reported as
    /// measured.
    Raw,
}

impl Speed {
    /// The host's current slowdown: the kernel's time ÷ [`NOMINAL_MS`]
    /// (always 1 for [`Speed::Raw`]).
    pub fn sample(self) -> f64 {
        match self {
            Speed::Corrected => kernel_ms() / NOMINAL_MS,
            Speed::Raw => 1.0,
        }
    }
}

/// Runs the kernel once: pseudo-random reads from a 2 MiB table folded
/// into an accumulator, a mix of dependent arithmetic and cache misses.
/// Returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_LEN as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect()
    });
    let started = std::time::Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(table[(x as usize) & (TABLE_LEN - 1)] ^ acc.rotate_left(5));
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

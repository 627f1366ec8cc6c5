//! # charm-simnet
//!
//! A seedable, virtual-time network substrate standing in for the real
//! clusters of the paper (Grid'5000 Taurus with OpenMPI/TCP/10 GbE,
//! Myrinet/GM, …), per the reproduction's substitution rule.
//!
//! The substrate exposes exactly the three operations the paper's
//! methodology measures (§V-A):
//!
//! * **asynchronous send** — elapsed CPU time captures the send software
//!   overhead `o_s(s)`;
//! * **blocking receive** (message already arrived) — captures the receive
//!   software overhead `o_r(s)`;
//! * **ping-pong** — captures round-trip time, from which latency `L` and
//!   the per-byte gap `G` (inverse bandwidth) are derived.
//!
//! Times follow a **piecewise LogGP model** with eager / detached /
//! rendez-vous synchronization modes switched by message-size thresholds
//! ([`protocol`]), perturbed by configurable noise processes ([`noise`]):
//! white measurement noise, heteroscedastic per-mode variability (the
//! medium-size bands of Figure 4), per-size anomalies (the special-cased
//! 1024-byte path of §III-2), and bursty temporal perturbations (§III-1).
//!
//! Everything is deterministic given the seed, and time is virtual
//! ([`clock`]) so campaigns replay bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod collective;
pub mod noise;
pub mod params;
pub mod presets;
pub mod protocol;
pub mod sim;

pub use params::LogGpParams;
pub use protocol::PiecewiseProtocol;
pub use sim::{NetOp, NetworkSim};

//! # charm-runner
//!
//! "Bring your own benchmark": measure **external engine subprocesses**
//! under the white-box methodology without the harness knowing anything
//! about them.
//!
//! The paper's pitfall catalogue is a list of ways benchmark *code* and
//! benchmark *methodology* get entangled — compiler flags baked into a
//! harness, analysis scripts that only understand one tool's output.
//! This crate cuts the knot the way rebar's KLV runner format does for
//! regex engines: the harness owns the design (randomization,
//! replication, seeding) and raw-retention contract; the engine is an
//! opaque subprocess that speaks a trivial framed protocol over
//! stdin/stdout. Any language, any toolchain, any license.
//!
//! * [`klv`] — the key-length-value wire framing (`key:len:value\n`),
//!   strict parsing, typed [`klv::FrameError`]s;
//! * [`proto`] — the charm-klv/1 vocabulary: handshake, `measure`
//!   requests, `observation`/`diagnostic`/`error` replies;
//! * [`external`] — [`ExternalTarget`], a `charm_engine::Target` that
//!   spawns the engine, enforces per-frame deadlines (kill-on-hang),
//!   captures stderr, and reports failures as typed
//!   `TargetError` variants;
//! * [`demo`] — a complete reference engine with switchable failure
//!   modes, compiled as the `klv_engine_demo` bin (CI fixture).
//!
//! An external engine is sequential-only (`ResolvedTarget::External`
//! from `charm_engine::registry`): the subprocess boundary has no fork/
//! skip_to semantics, so the sharded runner refuses it by construction.
//!
//! Wire format and protocol are specified in DESIGN.md §15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demo;
pub mod external;
pub mod klv;
pub mod proto;

pub use external::ExternalTarget;
pub use klv::{Frame, FrameError, MAX_KEY_LEN, MAX_VALUE_LEN};
pub use proto::{MeasureRequest, ObservationReply, PROTOCOL_VERSION};

//! Deterministic fault harness for the SA/DA protocols: one auditor, two
//! drivers.
//!
//! * [`invariants::InvariantChecker`] audits a cluster for the paper's
//!   safety properties — t-availability (§3.1), one-copy reads (§2) and
//!   cost-tally conservation — and owns the rules that decide how: the
//!   regime a cluster is in, and when a write counts as committed.
//! * [`torture::run_episode`] *samples*: fully seeded random episodes
//!   (cluster shape × workload × `doma_sim::FaultPlan`) replayed from a
//!   single `u64`; `DOMA_FAULT_SEED=…` reproduces any failure exactly
//!   (see [`doma_testkit::replay`]).
//! * [`explore::check`] *exhausts*: every message-delivery interleaving
//!   of a small phased [`scenario::Scenario`], with fingerprint
//!   deduplication and sleep-set reduction; a violation comes back as a
//!   minimal trace that `DOMA_CHECK_TRACE` replays (see [`replay`]). The
//!   `doma-check` binary runs the built-in scenarios.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library output flows through doma-obs; the `doma-check` binary prints.
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod explore;
pub mod invariants;
mod minimize;
pub mod replay;
pub mod scenario;
pub mod torture;

pub use explore::{check, CheckOptions, CheckReport, Counterexample, TraceStep};
pub use invariants::{InvariantChecker, Violation};
pub use scenario::{builtin, Action, Scenario};
pub use torture::{
    episode_obs_json, run_episode, run_episode_with_bugs, run_sweep, EpisodeOutcome, FaultClass,
    TortureFailure,
};

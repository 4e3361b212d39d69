//! Deterministic fault-injection harness for the SA/DA protocols.
//!
//! Ties together the workspace's fault machinery into a torture-testing
//! subsystem:
//!
//! * `doma-sim`'s [`doma_sim::FaultPlan`] DSL injects drops, delays,
//!   duplicates, jitter, partitions and crash schedules into the
//!   deterministic engine;
//! * [`invariants::InvariantChecker`] audits the cluster after every step
//!   for the paper's safety properties — t-availability (§3.1), one-copy
//!   read semantics, and cost-tally conservation with failure overhead
//!   attributed per the [`doma_protocol::failover::FailoverDriver`]
//!   contract;
//! * [`torture::run_episode`] generates fully seeded random episodes
//!   (cluster shape × workload × fault schedule) and replays them from a
//!   single `u64`; `DOMA_FAULT_SEED=…` reproduces any failure exactly
//!   (see [`doma_testkit::replay`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod invariants;
pub mod torture;

pub use invariants::{InvariantChecker, Regime, Violation};
pub use torture::{
    episode_obs_json, run_episode, run_episode_with_bugs, run_sweep, EpisodeOutcome, FaultClass,
    TortureFailure,
};

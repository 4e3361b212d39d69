//! # doma-protocol
//!
//! SA and DA as *actual message-passing protocols* over the discrete-event
//! simulator (`doma-sim`) and the local-store substrate (`doma-storage`).
//!
//! The analytic cost model of `doma-core` prices three resources; this
//! crate exchanges the real messages and performs the real I/Os, and the
//! integration tests assert **exact tally equality** between the simulated
//! protocol and the analytic cost engine for the same schedule — control
//! message for control message, I/O for I/O.
//!
//! Contents:
//!
//! * [`DomMsg`] — the wire protocol: read requests, object transfers,
//!   write propagations, invalidations, and the failure-mode messages.
//! * [`DomNode`] — one processor: a [`doma_storage::LocalStore`] plus the
//!   SA or DA state machine (join-lists at core members, floating-member
//!   tracking at the primary).
//! * [`ProtocolSim`] — the driver: builds a cluster, executes a
//!   [`doma_core::Schedule`] request by request (the paper's totally
//!   ordered schedule), and reports exact [`doma_core::CostVector`]
//!   tallies, replica placement, and read latencies.
//! * [`ShardedSim`] — object-sharded parallel execution: partitions a
//!   multi-object schedule into K shards (objects are independent in the
//!   failure-free protocol), runs each shard on its own cluster and
//!   engine on scoped threads, and deterministically merges reports and
//!   observability so the result is identical to sequential execution.
//! * [`failover`] — the §2 failure handling sketch: when a core member
//!   fails, the cluster falls back to majority-quorum reads/writes and a
//!   recovering node catches up via a quorum read (the missing-writes
//!   transition) before normal DA operation resumes.
//! * [`Entrant`] — the roster: the six allocators every harness
//!   compares, with their labels, thresholds, canonical deployment
//!   ([`Entrant::config`], [`Entrant::sim`]) and the one table mapping a
//!   configuration to its `doma-algorithms` constructor
//!   ([`ProtocolConfig::algorithm`]).
//! * [`ProtocolConfig::Adaptive`] — adaptive algorithms (the promoted
//!   tournament baselines and contenders) run as driver-side
//!   [`PlanOracle`]s: each injected request is decided by the live
//!   algorithm and the decision ships inside the client message as a
//!   [`ReadPlan`]/[`WritePlan`] the issuing node executes exactly. The
//!   same exact-tally-parity property holds for them, and the quorum
//!   failure fallback covers them unchanged (plans are ignored in quorum
//!   mode).
//!
//! Write acknowledgements are deliberately *not* modeled: the paper's cost
//! model does not price them (§1.2 counts request, data and invalidate
//! messages only), and the driver's run-to-quiescence execution makes them
//! unnecessary for correctness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Protocol code is driven through adversarial schedules by the fault
// injector and the model checker: failures are `DomaError` values, output
// goes through doma-obs, and a new message variant breaks every dispatch.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![warn(clippy::wildcard_enum_match_arm)]

mod catalog;
pub mod failover;
mod msg;
mod node;
mod obs;
mod planner;
mod roster;
mod sharded;
mod sim;

pub use msg::{DomMsg, ReadPlan, WritePlan};
pub use node::{BugSwitches, CompletedRead, DomNode, ProtocolConfig};
pub use obs::registry_cost;
pub use planner::{ClientPlanner, PlannedRequest};
pub use roster::{Entrant, Tunables};
pub use sharded::{ShardInput, ShardOutcome, ShardedRun, ShardedSim};
pub use sim::{OpenLoopReport, PlanOracle, ProtocolSim, SimReport};

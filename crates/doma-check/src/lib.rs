//! `doma-check`: a bounded model checker for the SA/DA replication
//! protocols of Huang & Wolfson (ICDE 1994).
//!
//! The checker drives the deterministic simulation engine through
//! *every* message-delivery interleaving of a small scripted scenario
//! (depth-first over the engine's pending-event choice points, with
//! state-fingerprint deduplication and sleep-set partial-order
//! reduction), auditing each reached state with the fault harness's
//! [`doma_fault::InvariantChecker`]:
//!
//! * **t-availability** (§3.1) — in the normal regime the number of
//!   valid replicas, counting crashed stable stores, never drops below t;
//! * **one-copy reads** — a completed read returns at least the
//!   committed floor captured when the read was issued;
//! * **cost conservation** — the control/data/IO tallies are monotone;
//! * **version monotonicity** and **no protocol-reported errors**.
//!
//! On a violation the checker emits a minimal counterexample trace
//! (breadth-first re-search) replayable via the `DOMA_CHECK_TRACE`
//! environment variable — see [`replay`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod explore;
mod minimize;
pub mod replay;
pub mod scenario;

pub use explore::{check, CheckOptions, CheckReport, Counterexample, TraceStep};
pub use scenario::{builtin, Action, Scenario};

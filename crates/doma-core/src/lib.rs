//! # doma-core
//!
//! The model of Huang & Wolfson, *"Object Allocation in Distributed Databases
//! and Mobile Computers"*, ICDE 1994 (pp. 20–29).
//!
//! This crate defines the vocabulary of the paper — processors, read/write
//! requests, schedules, execution sets, allocation schedules with
//! saving-reads, allocation schemes — together with:
//!
//! * the **unified cost function** of §3.2 (stationary computing, `cio = 1`)
//!   and §3.3 (mobile computing, `cio = 0`), kept as *exact integer tallies*
//!   of control messages, data messages and I/O operations
//!   ([`CostVector`]) that are only turned into scalars when evaluated
//!   against a [`CostModel`];
//! * **legality** and **t-availability** validation of allocation schedules
//!   (§3.1);
//! * the **distributed object management (DOM) algorithm** abstraction of
//!   §3.4: [`OnlineDom`] (online steps fed one request at a time) and
//!   [`OfflineDom`] (sees the whole schedule), plus the [`run_online`]
//!   driver that produces a costed, validated allocation schedule.
//!
//! Higher-level crates implement the SA/DA/OPT algorithms
//! (`doma-algorithms`), run them as real message-passing protocols
//! (`doma-protocol`) and regenerate the paper's figures (`doma-analysis`).
//!
//! ## Quick example
//!
//! The worked example of §1.3: schedule `r1 r1 r2 w2 r2 r2 r2` with a single
//! initial copy at processor 1 is served more cheaply by a dynamic
//! allocation that migrates the object to processor 2 at the write.
//!
//! ```
//! use doma_core::{Schedule, ProcSet, CostModel};
//!
//! let schedule: Schedule = "r1 r1 r2 w2 r2 r2 r2".parse().unwrap();
//! assert_eq!(schedule.len(), 7);
//! let initial = ProcSet::from_iter([1]);
//! assert_eq!(initial.len(), 1);
//! let model = CostModel::stationary(0.1, 0.5).unwrap();
//! assert_eq!(model.cio(), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alloc;
mod cost;
mod dom;
mod engine;
mod error;
mod ids;
mod multi;
mod procset;
mod request;
mod schedule;
mod stats;
mod validate;

pub use alloc::{AllocatedRequest, AllocationSchedule, Decision};
pub use cost::{CostModel, CostVector, Environment};
pub use dom::{run_offline, run_online, DomAlgorithm, OfflineDom, OnlineDom, RunOutcome};
pub use engine::{cost_of_schedule, request_cost, scheme_after, CostedSchedule, PerRequestCost};
pub use error::{DomaError, Result};
pub use ids::{ObjectId, ProcessorId};
pub use multi::{MultiRequest, MultiSchedule};
pub use procset::{ProcSet, ProcSetIter, MAX_PROCESSORS};
pub use request::{Op, Request};
pub use schedule::{Schedule, ScheduleParseError};
pub use stats::{schedule_stats, ProcessorActivity, ScheduleStats};
pub use validate::{
    validate_allocation, AvailabilityViolation, LegalityViolation, ValidationReport,
};

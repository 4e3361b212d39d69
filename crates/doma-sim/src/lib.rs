//! # doma-sim
//!
//! A deterministic discrete-event simulator for message-passing protocols:
//! the substrate `doma-protocol` runs SA and DA on.
//!
//! * [`SimTime`] — a virtual clock in abstract ticks.
//! * [`Network`] — point-to-point links with distinct control/data message
//!   latencies and exact per-kind message tallies ([`NetStats`]): plain
//!   counters the network owns and the engine bumps through `&mut`, read
//!   as a `Copy` value ([`Engine::net_stats`]). Messages count when *sent*
//!   (matching the paper's cost model, which prices transmissions).
//! * [`Engine`] — the event loop: actors implement [`Actor`]; events are
//!   delivered in `(time, sequence)` order, so runs are fully
//!   deterministic. Crash/recover events model processor failures:
//!   messages to a crashed node are dropped (and counted as such).
//!
//!   The pending events sit in a `VecDeque` kept sorted by `(time, seq)`,
//!   the order they are dispatched in. Sequence numbers only grow, so a
//!   new event goes behind every queued event not timed later than it,
//!   found by scanning from the back: O(1) for the non-decreasing times a
//!   closed-loop run produces (one to three events are queued at once),
//!   O(k) for an event with k later-timed events behind it (a far-future
//!   crash at the back costs each send one comparison). The model
//!   checker's [`Engine::pending_events`] reads the queue as it lies, and
//!   [`Engine::dispatch_by_seq`] removes one element; neither rebuilds
//!   anything.
//! * [`FaultPlan`] — deterministic fault injection: declarative
//!   drop/delay/duplicate/jitter rules, partitions and crash schedules,
//!   installed via [`Engine::install_faults`] and reproducible from a
//!   single seed.
//!
//! Each engine is intentionally single-threaded: determinism is worth
//! more than parallelism inside one event loop. Parallelism happens
//! *across* engines instead — the [`shard`] module runs independent
//! engines on scoped threads (one per object shard) and returns their
//! outputs in a deterministic order, and the analysis crate parallelizes
//! at the experiment level the same way.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod fault;
mod network;
pub mod shard;
mod time;

pub use engine::{Actor, Context, Engine, EngineConfig, NodeId, PendingEvent};
pub use fault::{CrashEvent, FaultAction, FaultPlan, FaultRule, FaultStats, LinkFilter, Partition};
pub use network::{Medium, MsgKind, NetStats, Network, NetworkConfig};
pub use time::SimTime;

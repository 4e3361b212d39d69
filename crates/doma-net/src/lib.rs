//! # doma-net
//!
//! The real-runtime twin of the deterministic simulator: SA/DA protocol
//! nodes running over actual sockets (TCP on loopback, or Unix domain
//! sockets), exchanging the same [`doma_protocol::DomMsg`]s through a
//! length-prefixed wire codec instead of the sim engine's event queue.
//!
//! The crate is deliberately thin — all protocol logic stays in
//! [`doma_protocol::DomNode`], which writes its sends into the sim
//! engine's own buffer, [`doma_sim::Context`], and all request planning
//! in [`doma_protocol::ClientPlanner`]. What lives here:
//!
//! * [`codec`] — the wire format: `u32`-LE length prefix, tagged bodies,
//!   typed [`doma_core::DomaError`]s for truncation and corruption, an
//!   incremental [`codec::Decoder`] for split reads. Never panics on
//!   hostile bytes.
//! * [`NetTransport`] — a node's `Context` (its send buffer and its
//!   per-node delivery tick) plus the per-class tallies of what the node
//!   drained from it.
//! * [`runtime`] — per-node plumbing: a listener and one reader thread
//!   per inbound connection, each handling its frames itself under the
//!   node's one lock; full-mesh outgoing connections with connect-retry
//!   and a node-id handshake.
//! * [`Cluster`] — the loopback cluster driver: spawns N node threads,
//!   plans and injects client requests, reaches quiescence with a
//!   double-poll barrier, collects per-node tallies, and joins every
//!   thread it spawned at shutdown. Its results are cross-checked against
//!   the sim twin by `domactl cluster`.
//!
//! Failure injection is *not* supported here — the real runtime executes
//! healthy, closed-loop workloads only (the fault harness and model
//! checker live on the deterministic side, where interleavings can be
//! controlled and replayed). The cluster driver enforces this.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
pub mod codec;
pub mod runtime;
mod transport;

pub use cluster::{Cluster, ClusterReport, NodeReport};
pub use runtime::TransportKind;
pub use transport::NetTransport;

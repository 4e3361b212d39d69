//! # doma-storage
//!
//! The local-database substrate of the model: every processor stores
//! replicas of objects in a *local database on stable storage*, and the
//! `cio` term of the cost model prices exactly the inputs/outputs against
//! that database.
//!
//! * [`LocalStore`] — a versioned object store with explicit I/O
//!   accounting ([`IoStats`]): `output` (store a version), `input` (fetch
//!   the latest valid version), `invalidate` (metadata only — the paper
//!   charges no I/O for invalidation; it is a control-message effect).
//! * [`RedoLog`] — the redo log the store writes through, with
//!   replay-based recovery; this is what lets a crashed processor rejoin
//!   with its pre-crash state in the failure experiments. The store
//!   compacts it every [`LOG_BUDGET`] records or so ([`RedoLog::compact`]:
//!   one `Put` per held object, plus its `Invalidate` if stale), so the
//!   log is bounded by the data a node holds rather than by how long it
//!   has run; [`RedoLog::len`] still counts every record ever appended,
//!   [`RedoLog::retained`] the ones a replay walks.
//! * [`Payload`] — an object's bytes as one shared, immutable allocation
//!   (`Arc<[u8]>`). The table, the log record and every protocol message
//!   carrying a version point at the same bytes, so store → log → message
//!   → store costs reference counts, not copies. Anything may hold a
//!   `Payload` for as long as it likes; nothing can change one. Bytes are
//!   copied only where a payload is made — from a caller's `Vec<u8>`
//!   (`impl Into<Payload>`), or by the wire codec, once, at decode.
//! * [`Version`] — monotonically increasing object versions, one per write
//!   in the totally ordered schedule.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod log;
mod store;
mod version;

pub use crate::log::{LogRecord, RedoLog};
pub use cache::{CacheStats, CachedStore};
pub use store::{IoStats, LocalStore, Payload, StoredObject, LOG_BUDGET};
pub use version::Version;

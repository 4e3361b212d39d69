//! The per-processor versioned object store.

use crate::{LogRecord, RedoLog, Version};
use doma_core::ObjectId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An object's bytes: one immutable allocation shared by every table, log
/// record and message that holds them (see the crate docs). Handing one
/// on is a reference-count bump.
pub type Payload = Arc<[u8]>;

/// Hashes an [`ObjectId`] with one multiply (Fibonacci hashing). The ids
/// are the catalog's small dense integers, not keys an adversary picks,
/// and a store access is on every request's path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ObjectIdHasher(u64);

impl Hasher for ObjectIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// The store's table, also what a log replay rebuilds.
pub(crate) type Table = HashMap<ObjectId, StoredObject, BuildHasherDefault<ObjectIdHasher>>;

/// How many records beyond two per held object (the most a compacted log
/// keeps) the redo log may hold before the store compacts it: the log is
/// bounded by the live data, not by how long the node has run, and a
/// compaction is paid for by the `LOG_BUDGET` appends before it.
pub const LOG_BUDGET: usize = 1024;

/// I/O accounting: how many object inputs (reads from the local database)
/// and outputs (writes to it) this store performed. These are the units
/// priced at `cio` by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Number of object inputs from the local database.
    pub inputs: u64,
    /// Number of object outputs to the local database.
    pub outputs: u64,
}

impl IoStats {
    /// Total I/O operations.
    pub fn total(&self) -> u64 {
        self.inputs + self.outputs
    }
}

/// One locally stored replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    /// The version held locally.
    pub version: Version,
    /// The object payload.
    pub payload: Payload,
    /// `false` once the replica has been invalidated (a newer version
    /// exists elsewhere); stale replicas are never served.
    pub valid: bool,
}

/// A processor's local database: versioned replicas behind a write-ahead
/// redo log, with explicit I/O accounting.
///
/// ```
/// use doma_storage::{LocalStore, Version};
/// use doma_core::ObjectId;
///
/// let mut store = LocalStore::new();
/// store.output(ObjectId(7), Version(1), b"hello".to_vec());
/// let (v, data) = store.input(ObjectId(7)).unwrap();
/// assert_eq!((v, &data[..]), (Version(1), b"hello".as_ref()));
/// assert_eq!(store.io_stats().total(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocalStore {
    objects: Table,
    log: RedoLog,
    io: IoStats,
}

impl LocalStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Creates a store that already holds `version` of `object` (the
    /// initial allocation scheme) without charging I/O.
    pub fn with_initial(object: ObjectId, version: Version, payload: impl Into<Payload>) -> Self {
        let mut s = LocalStore::new();
        s.put(object, version, payload.into());
        s
    }

    /// Stores (outputs) a version of an object — one output I/O. Replaces
    /// any older replica and revalidates it.
    pub fn output(&mut self, object: ObjectId, version: Version, payload: impl Into<Payload>) {
        self.put(object, version, payload.into());
        self.io.outputs += 1;
    }

    /// Write-ahead: the record first, then the table; the payload is
    /// shared between the two.
    fn put(&mut self, object: ObjectId, version: Version, payload: Payload) {
        self.log.append(LogRecord::Put {
            object,
            version,
            payload: payload.clone(),
        });
        self.objects.insert(
            object,
            StoredObject {
                version,
                payload,
                valid: true,
            },
        );
        self.bound_log();
    }

    /// Compacts the redo log once it holds [`LOG_BUDGET`] records more
    /// than a compacted log could need. Called after every append.
    fn bound_log(&mut self) {
        if self.log.retained() >= LOG_BUDGET + 2 * self.objects.len() {
            self.log.compact();
        }
    }

    /// Inputs (reads) the latest valid replica of an object — one input
    /// I/O if present. Returns `None` (and charges nothing) if the store
    /// has no valid replica: in the protocol that situation is a bug the
    /// integration tests assert against, since a legal allocation schedule
    /// only reads from data processors.
    pub fn input(&mut self, object: ObjectId) -> Option<(Version, &Payload)> {
        match self.objects.get(&object) {
            Some(o) if o.valid => {
                self.io.inputs += 1;
                Some((o.version, &o.payload))
            }
            _ => None,
        }
    }

    /// Peeks at the replica without charging I/O (metadata inspection).
    pub fn peek(&self, object: ObjectId) -> Option<&StoredObject> {
        self.objects.get(&object)
    }

    /// Marks the local replica stale. No I/O is charged: invalidation is a
    /// metadata operation triggered by a control message (§1.2 prices only
    /// the message).
    pub fn invalidate(&mut self, object: ObjectId) {
        if let Some(o) = self.objects.get_mut(&object) {
            if o.valid {
                self.log.append(LogRecord::Invalidate { object });
                o.valid = false;
                self.bound_log();
            }
        }
    }

    /// Whether the store holds a *valid* (latest-known) replica.
    pub fn holds_valid(&self, object: ObjectId) -> bool {
        self.objects.get(&object).is_some_and(|o| o.valid)
    }

    /// The I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Resets the I/O counters (e.g. between experiment phases).
    pub fn reset_io_stats(&mut self) {
        self.io = IoStats::default();
    }

    /// Read-only access to the redo log.
    pub fn log(&self) -> &RedoLog {
        &self.log
    }

    /// Simulates a crash + restart: drops the in-memory table and rebuilds
    /// it by replaying the redo log. I/O counters survive (they are
    /// experiment bookkeeping, not node state). Returns the number of
    /// objects recovered.
    pub fn recover(&mut self) -> usize {
        self.objects = self.log.replay();
        self.objects.len()
    }

    /// Number of replicas held (valid or stale).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjectId = ObjectId(1);

    #[test]
    fn output_then_input_roundtrip() {
        let mut s = LocalStore::new();
        assert!(s.input(OBJ).is_none());
        assert_eq!(s.io_stats().total(), 0, "missing reads are free");
        s.output(OBJ, Version(1), b"v1".to_vec());
        let (v, data) = s.input(OBJ).expect("replica present");
        assert_eq!(v, Version(1));
        assert_eq!(&data[..], b"v1");
        assert_eq!(
            s.io_stats(),
            IoStats {
                inputs: 1,
                outputs: 1
            }
        );
    }

    #[test]
    fn invalidation_hides_replica_without_io() {
        let mut s = LocalStore::new();
        s.output(OBJ, Version(1), b"v1".to_vec());
        s.invalidate(OBJ);
        assert!(!s.holds_valid(OBJ));
        assert!(s.input(OBJ).is_none());
        assert_eq!(
            s.io_stats(),
            IoStats {
                inputs: 0,
                outputs: 1
            }
        );
        // Idempotent: invalidating again appends nothing.
        let log_len = s.log().len();
        s.invalidate(OBJ);
        assert_eq!(s.log().len(), log_len);
        // A newer version revalidates.
        s.output(OBJ, Version(2), b"v2".to_vec());
        assert!(s.holds_valid(OBJ));
    }

    #[test]
    fn with_initial_charges_no_io() {
        let mut s = LocalStore::with_initial(OBJ, Version::INITIAL, b"init".to_vec());
        assert_eq!(s.io_stats().total(), 0);
        assert!(s.holds_valid(OBJ));
        assert_eq!(s.input(OBJ).unwrap().0, Version::INITIAL);
    }

    #[test]
    fn recovery_replays_log_exactly() {
        let mut s = LocalStore::new();
        s.output(OBJ, Version(1), b"a".to_vec());
        s.output(ObjectId(2), Version(1), b"x".to_vec());
        s.output(OBJ, Version(2), b"b".to_vec());
        s.invalidate(ObjectId(2));
        let before = table(&s);
        let recovered = s.recover();
        assert_eq!(recovered, 2);
        assert_eq!(before, table(&s), "recovery must be exact");
    }

    /// The table as a sorted list, for comparing across a recovery.
    fn table(s: &LocalStore) -> Vec<(ObjectId, StoredObject)> {
        let mut v: Vec<_> = s.objects.iter().map(|(k, o)| (*k, o.clone())).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    #[test]
    fn recovery_after_compaction_rebuilds_the_identical_table() {
        // Objects last written long before the compaction, stale ones and
        // re-validated ones all have to survive it.
        let mut s = LocalStore::new();
        s.output(ObjectId(100), Version(1), b"early".to_vec());
        s.output(ObjectId(101), Version(1), b"early-stale".to_vec());
        s.invalidate(ObjectId(101));
        let mut version = Version(1);
        while s.log().len() < 3 * LOG_BUDGET {
            version = version.next();
            let object = ObjectId(version.0 % 5);
            s.output(object, version, version.0.to_le_bytes().to_vec());
            if version.0.is_multiple_of(3) {
                s.invalidate(object);
            }
        }
        assert!(
            s.log().retained() < s.log().len(),
            "the log was compacted on the way"
        );
        assert!(s.log().retained() < LOG_BUDGET + 2 * s.len());
        let before = table(&s);
        assert_eq!(before.len(), 7);
        assert_eq!(s.recover(), 7);
        assert_eq!(table(&s), before, "recovery must be exact");
        // And from a freshly compacted log: at most two records an object.
        let mut log = s.log().clone();
        log.compact();
        assert!(log.retained() <= 2 * s.len());
        s.log = log;
        s.recover();
        assert_eq!(table(&s), before);
    }

    #[test]
    fn peek_is_free() {
        let mut s = LocalStore::new();
        s.output(OBJ, Version(1), b"a".to_vec());
        let _ = s.peek(OBJ);
        assert_eq!(
            s.io_stats(),
            IoStats {
                inputs: 0,
                outputs: 1
            }
        );
    }

    #[test]
    fn reset_io_stats() {
        let mut s = LocalStore::new();
        s.output(OBJ, Version(1), b"a".to_vec());
        s.reset_io_stats();
        assert_eq!(s.io_stats().total(), 0);
    }
}

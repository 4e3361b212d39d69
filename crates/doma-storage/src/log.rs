//! Append-only redo log with replay-based recovery.

use crate::store::Table;
use crate::{Payload, StoredObject, Version};
use doma_core::ObjectId;

/// One durable log record. The store appends a record *before* applying
/// the corresponding mutation (write-ahead), so replaying the log
/// reconstructs the exact store state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A new version of an object was stored locally.
    Put {
        /// The object.
        object: ObjectId,
        /// The version stored.
        version: Version,
        /// The object payload, shared with the store's table.
        payload: Payload,
    },
    /// The local replica of an object was invalidated (marked stale).
    Invalidate {
        /// The object.
        object: ObjectId,
    },
    /// The local replica was dropped entirely.
    Remove {
        /// The object.
        object: ObjectId,
    },
}

/// A per-processor redo log (simulated stable storage): append-only
/// between compactions, and a compaction ([`RedoLog::compact`]) keeps
/// exactly what a replay needs, so the log's size follows the data a node
/// holds, not how long it has run.
#[derive(Debug, Clone, Default)]
pub struct RedoLog {
    records: Vec<LogRecord>,
    /// Records appended over the log's life, compacted-away ones included.
    appended: usize,
}

impl RedoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RedoLog::default()
    }

    /// Appends a record (write-ahead).
    pub fn append(&mut self, record: LogRecord) {
        self.records.push(record);
        self.appended += 1;
    }

    /// Total records ever appended, including those a compaction has since
    /// folded away (see [`RedoLog::retained`] for what is held now).
    pub fn len(&self) -> usize {
        self.appended
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Records physically held: what [`RedoLog::replay`] walks.
    pub fn retained(&self) -> usize {
        self.records.len()
    }

    /// Folds the records into the state they describe and keeps only that:
    /// one `Put` per object held (its latest version), followed by its
    /// `Invalidate` if the replica is stale, in object order. A replay
    /// gives the same table before and after.
    pub fn compact(&mut self) {
        let mut live: Vec<(ObjectId, StoredObject)> =
            fold(self.records.drain(..)).into_iter().collect();
        live.sort_unstable_by_key(|(object, _)| *object);
        for (object, replica) in live {
            self.records.push(LogRecord::Put {
                object,
                version: replica.version,
                payload: replica.payload,
            });
            if !replica.valid {
                self.records.push(LogRecord::Invalidate { object });
            }
        }
    }

    /// Replays the log into the table it describes. Used by
    /// [`crate::LocalStore::recover`].
    pub(crate) fn replay(&self) -> Table {
        fold(self.records.iter().cloned())
    }
}

/// The table a sequence of records describes.
fn fold(records: impl Iterator<Item = LogRecord>) -> Table {
    let mut state = Table::default();
    for record in records {
        match record {
            LogRecord::Put {
                object,
                version,
                payload,
            } => {
                let replica = StoredObject {
                    version,
                    payload,
                    valid: true,
                };
                state.insert(object, replica);
            }
            LogRecord::Invalidate { object } => {
                if let Some(replica) = state.get_mut(&object) {
                    replica.valid = false;
                }
            }
            LogRecord::Remove { object } => {
                state.remove(&object);
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(o: u64, v: u64, b: &[u8]) -> LogRecord {
        LogRecord::Put {
            object: ObjectId(o),
            version: Version(v),
            payload: b.into(),
        }
    }

    fn invalidate(o: u64) -> LogRecord {
        LogRecord::Invalidate {
            object: ObjectId(o),
        }
    }

    #[test]
    fn len_counts_every_append_and_retained_what_is_held() {
        let mut log = RedoLog::new();
        assert!(log.is_empty());
        log.append(put(1, 1, b"a"));
        log.append(invalidate(1));
        log.append(put(1, 2, b"b"));
        assert_eq!((log.len(), log.retained()), (3, 3));
        log.compact();
        assert_eq!((log.len(), log.retained()), (3, 1));
        assert!(!log.is_empty());
        log.append(invalidate(1));
        assert_eq!((log.len(), log.retained()), (4, 2));
    }

    #[test]
    fn replay_reconstructs_latest_state() {
        let mut log = RedoLog::new();
        log.append(put(1, 1, b"a"));
        log.append(put(2, 1, b"x"));
        log.append(put(1, 2, b"b"));
        log.append(invalidate(2));
        let state = log.replay();
        let o1 = &state[&ObjectId(1)];
        assert_eq!(
            (o1.version, &o1.payload[..], o1.valid),
            (Version(2), b"b".as_ref(), true)
        );
        assert!(
            !state[&ObjectId(2)].valid,
            "object 2 must be stale after invalidation"
        );
    }

    #[test]
    fn replay_handles_remove() {
        let mut log = RedoLog::new();
        log.append(put(1, 1, b"a"));
        log.append(LogRecord::Remove {
            object: ObjectId(1),
        });
        assert!(log.replay().is_empty());
    }

    #[test]
    fn compaction_keeps_the_live_state_in_object_order() {
        let mut log = RedoLog::new();
        log.append(put(7, 1, b"old"));
        log.append(put(3, 1, b"x"));
        log.append(put(7, 2, b"new"));
        log.append(invalidate(3));
        log.append(put(5, 1, b"gone"));
        log.append(LogRecord::Remove {
            object: ObjectId(5),
        });
        let before = log.replay();
        log.compact();
        assert_eq!(log.replay(), before);
        assert_eq!(
            log.records,
            [put(3, 1, b"x"), invalidate(3), put(7, 2, b"new")]
        );
        // Compacting a compacted log changes nothing.
        log.compact();
        assert_eq!(log.retained(), 3);
    }

    doma_testkit::property! {
        /// Compacting at any points of any record stream leaves the
        /// replayed table what the uncompacted stream replays to.
        fn compaction_never_changes_what_a_replay_rebuilds(
            steps in doma_testkit::property::vec_in(
                doma_testkit::property::pair(
                    doma_testkit::property::range(0u8..4),
                    doma_testkit::property::range(0u64..4),
                ),
                0..80,
            ),
        ) {
            let (mut plain, mut compacted) = (RedoLog::new(), RedoLog::new());
            for (step, (kind, object)) in steps.into_iter().enumerate() {
                let record = match kind {
                    0 => put(object, step as u64, &[step as u8]),
                    1 => invalidate(object),
                    2 => LogRecord::Remove { object: ObjectId(object) },
                    _ => {
                        compacted.compact();
                        continue;
                    }
                };
                plain.append(record.clone());
                compacted.append(record);
            }
            assert_eq!(compacted.replay(), plain.replay());
            assert_eq!(compacted.len(), plain.len());
            assert!(compacted.retained() <= plain.retained());
        }
    }
}

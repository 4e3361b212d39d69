//! An optional main-memory tier over the local store.
//!
//! The paper's model deliberately charges an I/O for *every* read, even at
//! a replica holder: "even when an object is replicated at a processor, it
//! may reside in secondary storage, leading to an I/O cost incurred at the
//! time of read" (§5.2, third difference from CDVM). This module provides
//! the CDVM-style alternative — an LRU memory cache in front of the local
//! database — so the cache-sensitivity ablation (E16) can measure how much
//! that modelling choice matters.

use crate::{LocalStore, Payload, Version};
use doma_core::ObjectId;

/// Cache observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Reads served from memory (no I/O charged).
    pub hits: u64,
    /// Reads that went to the local database (I/O charged).
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (`NaN` before any read).
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

/// A [`LocalStore`] fronted by an LRU memory cache of `capacity` objects.
///
/// Reads probe the cache first (a hit costs no I/O); misses read through
/// and populate the cache. Writes go *through* to stable storage (the
/// durability story is unchanged) and refresh the cache. Invalidations
/// evict. A crash empties the cache (it is volatile) but recovers the
/// store from its redo log.
///
/// ```
/// use doma_storage::{CachedStore, Version};
/// use doma_core::ObjectId;
///
/// let mut s = CachedStore::new(2);
/// s.output(ObjectId(1), Version(1), b"x".to_vec());
/// s.input(ObjectId(1)); // memory hit: no input I/O
/// assert_eq!(s.store().io_stats().inputs, 0);
/// assert_eq!(s.cache_stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CachedStore {
    store: LocalStore,
    /// LRU order, most-recent last. Tiny capacities in practice, so a Vec
    /// beats pointer-chasing structures.
    lru: Vec<ObjectId>,
    capacity: usize,
    stats: CacheStats,
}

impl CachedStore {
    /// Creates an empty cached store. `capacity = 0` disables caching
    /// (every read is a miss — the paper's model).
    pub fn new(capacity: usize) -> Self {
        CachedStore {
            store: LocalStore::new(),
            lru: Vec::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Wraps an existing store (e.g. one preloaded with the initial
    /// allocation).
    pub fn wrap(store: LocalStore, capacity: usize) -> Self {
        CachedStore {
            store,
            lru: Vec::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// The underlying local store.
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Objects currently cached, least-recently-used first.
    pub fn cached_objects(&self) -> &[ObjectId] {
        &self.lru
    }

    fn cached(&self, object: ObjectId) -> bool {
        self.lru.contains(&object)
    }

    /// Reads the latest valid replica: from memory if cached (no I/O),
    /// otherwise from the local database (one input I/O, then cached).
    pub fn input(&mut self, object: ObjectId) -> Option<(Version, &Payload)> {
        if self.cached(object) && self.store.holds_valid(object) {
            self.stats.hits += 1;
            touch(&mut self.lru, self.capacity, object);
            let o = self.store.peek(object)?;
            return Some((o.version, &o.payload));
        }
        let found = self.store.input(object)?;
        self.stats.misses += 1;
        touch(&mut self.lru, self.capacity, object);
        Some(found)
    }

    /// Writes through: one output I/O, cache refreshed.
    pub fn output(&mut self, object: ObjectId, version: Version, payload: impl Into<Payload>) {
        self.store.output(object, version, payload);
        touch(&mut self.lru, self.capacity, object);
    }

    /// Invalidates the replica and evicts it from memory.
    pub fn invalidate(&mut self, object: ObjectId) {
        self.store.invalidate(object);
        self.lru.retain(|&o| o != object);
    }

    /// Whether a valid replica is held (on disk; cache residency is a
    /// performance detail, not a correctness one).
    pub fn holds_valid(&self, object: ObjectId) -> bool {
        self.store.holds_valid(object)
    }

    /// Crash: the volatile cache is lost; the store recovers from its log.
    pub fn crash_and_recover(&mut self) -> usize {
        self.lru.clear();
        self.store.recover()
    }
}

/// Makes `object` the most recently used of `lru`, evicting down to
/// `capacity`. A function of the two fields, not a method: `input` calls
/// it while the replica it returns is still borrowed from the store.
fn touch(lru: &mut Vec<ObjectId>, capacity: usize, object: ObjectId) {
    if capacity == 0 {
        return;
    }
    lru.retain(|&o| o != object);
    lru.push(object);
    while lru.len() > capacity {
        lru.remove(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);
    const C: ObjectId = ObjectId(3);

    #[test]
    fn hits_skip_io_misses_pay() {
        let mut s = CachedStore::new(4);
        s.output(A, Version(1), b"a".to_vec());
        assert_eq!(s.input(A).unwrap().0, Version(1)); // hit (write cached it)
        assert_eq!(s.store().io_stats().inputs, 0);
        assert_eq!(s.cache_stats(), CacheStats { hits: 1, misses: 0 });

        let mut cold = CachedStore::wrap(LocalStore::with_initial(A, Version(1), b"a".to_vec()), 4);
        assert!(cold.input(A).is_some()); // miss: cache starts empty
        assert_eq!(cold.store().io_stats().inputs, 1);
        assert!(cold.input(A).is_some()); // now a hit
        assert_eq!(cold.store().io_stats().inputs, 1);
        assert!((cold.cache_stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut s = CachedStore::new(0);
        s.output(A, Version(1), b"a".to_vec());
        s.input(A);
        s.input(A);
        assert_eq!(s.cache_stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(s.store().io_stats().inputs, 2);
        assert!(s.cached_objects().is_empty());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = CachedStore::new(2);
        s.output(A, Version(1), b"a".to_vec());
        s.output(B, Version(1), b"b".to_vec());
        s.output(C, Version(1), b"c".to_vec()); // evicts A
        assert_eq!(s.cached_objects(), &[B, C]);
        s.input(B); // B becomes most recent
        assert_eq!(s.cached_objects(), &[C, B]);
        s.input(A); // miss, re-cached, evicts C
        assert_eq!(s.cached_objects(), &[B, A]);
        assert_eq!(s.cache_stats().misses, 1);
    }

    #[test]
    fn invalidation_evicts_and_hides() {
        let mut s = CachedStore::new(2);
        s.output(A, Version(1), b"a".to_vec());
        s.invalidate(A);
        assert!(!s.holds_valid(A));
        assert!(s.input(A).is_none());
        assert!(s.cached_objects().is_empty());
        // A stale replica cached before invalidation must not be served.
        s.output(A, Version(2), b"a2".to_vec());
        assert_eq!(s.input(A).unwrap().0, Version(2));
    }

    #[test]
    fn crash_clears_cache_but_not_store() {
        let mut s = CachedStore::new(2);
        s.output(A, Version(1), b"a".to_vec());
        let recovered = s.crash_and_recover();
        assert_eq!(recovered, 1);
        assert!(s.cached_objects().is_empty());
        assert!(s.input(A).is_some()); // miss: cache was volatile
        assert_eq!(s.cache_stats().misses, 1);
    }
}

//! Property tests of the storage substrate: recovery exactness, cache
//! coherence, and I/O accounting, under random operation sequences.
//! Runs on the in-tree `doma-testkit` harness.

use doma_core::ObjectId;
use doma_storage::{CachedStore, LocalStore, Version};
use doma_testkit::property::{self as prop, Gen};
use doma_testkit::TestRng;

#[derive(Debug, Clone)]
enum Op {
    Output { obj: u8, payload: u8 },
    Input { obj: u8 },
    Invalidate { obj: u8 },
}

/// Operations over 4 objects. Shrinks toward `Input { obj: 0 }` (the
/// cheapest, state-free operation) and shrinks object ids toward 0.
struct OpGen;

impl Gen for OpGen {
    type Value = Op;

    fn generate(&self, rng: &mut TestRng) -> Op {
        let obj = prop::range(0u8..4).generate(rng);
        match prop::range(0u8..3).generate(rng) {
            0 => Op::Output {
                obj,
                payload: prop::range(0u16..256).generate(rng) as u8,
            },
            1 => Op::Input { obj },
            _ => Op::Invalidate { obj },
        }
    }

    fn shrink(&self, v: &Op) -> Vec<Op> {
        let mut out = Vec::new();
        let obj = match v {
            Op::Output { obj, .. } | Op::Input { obj } | Op::Invalidate { obj } => *obj,
        };
        match v {
            Op::Output { payload, .. } => {
                out.push(Op::Input { obj });
                if *payload != 0 {
                    out.push(Op::Output { obj, payload: 0 });
                }
            }
            Op::Invalidate { .. } => out.push(Op::Input { obj }),
            Op::Input { .. } => {}
        }
        if obj != 0 {
            out.push(match v {
                Op::Output { payload, .. } => Op::Output {
                    obj: 0,
                    payload: *payload,
                },
                Op::Input { .. } => Op::Input { obj: 0 },
                Op::Invalidate { .. } => Op::Invalidate { obj: 0 },
            });
        }
        out
    }
}

fn arb_ops(max: usize) -> impl Gen<Value = Vec<Op>> {
    prop::vec_in(OpGen, 0..max)
}

fn apply(store: &mut LocalStore, ops: &[Op], version_counter: &mut u64) {
    for op in ops {
        match op {
            Op::Output { obj, payload } => {
                *version_counter += 1;
                store.output(
                    ObjectId(*obj as u64),
                    Version(*version_counter),
                    vec![*payload],
                );
            }
            Op::Input { obj } => {
                let _ = store.input(ObjectId(*obj as u64));
            }
            Op::Invalidate { obj } => store.invalidate(ObjectId(*obj as u64)),
        }
    }
}

doma_testkit::property! {
    /// Crash-recovery is exact: replaying the redo log reconstructs the
    /// pre-crash visible state for every object.
    fn recovery_is_exact(ops in arb_ops(60)) {
        let mut store = LocalStore::new();
        let mut vc = 0;
        apply(&mut store, &ops, &mut vc);
        let before: Vec<_> = (0..4)
            .map(|o| {
                let obj = ObjectId(o);
                (
                    store.holds_valid(obj),
                    store.peek(obj).map(|s| (s.version, s.payload.clone(), s.valid)),
                )
            })
            .collect();
        store.recover();
        let after: Vec<_> = (0..4)
            .map(|o| {
                let obj = ObjectId(o);
                (
                    store.holds_valid(obj),
                    store.peek(obj).map(|s| (s.version, s.payload.clone(), s.valid)),
                )
            })
            .collect();
        assert_eq!(before, after);
    }

    /// I/O accounting: inputs only grow on successful reads, outputs only
    /// on writes; invalidations and misses are free.
    fn io_accounting_is_consistent(ops in arb_ops(60)) {
        let mut store = LocalStore::new();
        let mut vc = 0;
        let mut expected_outputs = 0u64;
        let mut expected_inputs = 0u64;
        for op in &ops {
            match op {
                Op::Output { obj, payload } => {
                    vc += 1;
                    store.output(ObjectId(*obj as u64), Version(vc), vec![*payload]);
                    expected_outputs += 1;
                }
                Op::Input { obj } => {
                    let hit = store.input(ObjectId(*obj as u64)).is_some();
                    if hit {
                        expected_inputs += 1;
                    }
                }
                Op::Invalidate { obj } => store.invalidate(ObjectId(*obj as u64)),
            }
        }
        assert_eq!(store.io_stats().outputs, expected_outputs);
        assert_eq!(store.io_stats().inputs, expected_inputs);
    }

    /// The cached store is *coherent* with an uncached one: the same
    /// operation sequence yields the same visible versions, and the cache
    /// never serves a stale or missing replica.
    fn cached_store_is_coherent(
        ops in arb_ops(60),
        capacity in prop::range(0usize..4),
    ) {
        let mut plain = LocalStore::new();
        let mut cached = CachedStore::new(capacity);
        let mut vc_a = 0;
        let mut vc_b = 0;
        for op in &ops {
            match op {
                Op::Output { obj, payload } => {
                    vc_a += 1;
                    vc_b += 1;
                    plain.output(ObjectId(*obj as u64), Version(vc_a), vec![*payload]);
                    cached.output(ObjectId(*obj as u64), Version(vc_b), vec![*payload]);
                }
                Op::Input { obj } => {
                    let a = plain.input(ObjectId(*obj as u64));
                    let b = cached.input(ObjectId(*obj as u64));
                    assert_eq!(a, b, "cached read diverged");
                }
                Op::Invalidate { obj } => {
                    plain.invalidate(ObjectId(*obj as u64));
                    cached.invalidate(ObjectId(*obj as u64));
                }
            }
        }
        // Caching can only reduce input I/O, never increase it, and
        // outputs are identical (write-through).
        assert!(cached.store().io_stats().inputs <= plain.io_stats().inputs);
        assert_eq!(cached.store().io_stats().outputs, plain.io_stats().outputs);
        // Hits + misses == successful reads on the plain store.
        let stats = cached.cache_stats();
        assert_eq!(stats.hits + stats.misses, plain.io_stats().inputs);
    }

    /// Cache crash safety: after crash_and_recover the visible state
    /// matches a freshly recovered plain store.
    fn cached_crash_recovery(ops in arb_ops(40)) {
        let mut cached = CachedStore::new(2);
        let mut vc = 0;
        for op in &ops {
            match op {
                Op::Output { obj, payload } => {
                    vc += 1;
                    cached.output(ObjectId(*obj as u64), Version(vc), vec![*payload]);
                }
                Op::Input { obj } => {
                    let _ = cached.input(ObjectId(*obj as u64));
                }
                Op::Invalidate { obj } => cached.invalidate(ObjectId(*obj as u64)),
            }
        }
        let before: Vec<_> = (0..4).map(|o| cached.holds_valid(ObjectId(o))).collect();
        cached.crash_and_recover();
        let after: Vec<_> = (0..4).map(|o| cached.holds_valid(ObjectId(o))).collect();
        assert_eq!(before, after);
        assert!(cached.cached_objects().is_empty(), "cache is volatile");
    }
}

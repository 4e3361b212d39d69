//! The allocation wall: what the request path and its observability may
//! cost, counted in heap allocations instead of nanoseconds so the gate
//! holds on a noisy box.
//!
//! On the benchmark's 64-object SA/DA mix, once warm, the detached sim
//! allocates at most 0.5 times per request: a read allocates nothing, a
//! client write (0.2 of the mix) allocates its payload once — store, redo
//! log and every message share it — and the rest is the redo log's
//! compactions. Nothing it retains grows with the run: a node records
//! completed reads only while an auditor listens, and the log compacts
//! to a bounded size, so the live heap after 10⁵ requests is the live
//! heap after 2×10⁴. Once every
//! counter cell is resolved and the event ring has filled, a request
//! served with `attach_obs` allocates exactly as often as a detached one,
//! and so does one that also records its request span (counters are
//! pre-resolved handles, event records hold their fields inline, open
//! spans sit on a stack that stops growing once warm).
//!
//! Own test binary, one test: the counting `#[global_allocator]` sees
//! every thread of the process, so nothing else may run beside it.

use doma::core::{MultiSchedule, ObjectId, ProcSet, ProcessorId};
use doma::protocol::{ProtocolConfig, ProtocolSim};
use doma::workload::{MultiScheduleGen, MultiUniformWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

// Statistics only: nothing is published through these, so Relaxed.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, counted from the first allocation.
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // Wrapping: a shrink adds the two's complement of the difference.
        LIVE.fetch_add(
            new_size.wrapping_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 8;
const OBJECTS: u64 = 64;
/// Small enough that the warm-up's join/scheme events (about 0.28 per
/// request) wrap the ring many times over.
const EVENT_CAPACITY: usize = 256;
const WARMUP: usize = 8_000;
const MEASURED: usize = 20_000;
/// The measured stretch's allocations on its seed-42 schedule: the
/// payloads of its writes and the redo log's compactions.
const MEASURED_ALLOCS: u64 = 4_064;
/// The long run for the retained-heap check, and the point at which its
/// baseline is taken.
const LONG_RUN: usize = 100_000;
const LONG_RUN_BASELINE: usize = 20_000;
/// How far the live heap may drift between the baseline and the end of
/// the long run (the redo log's compaction cycle).
const LIVE_DRIFT: u64 = 64 * 1024;

/// The benchmark's `mix64` catalog: SA `q = {b, b+1}` and DA `f = {b}`,
/// `p = b+1` alternating, `b = o mod 7`.
fn catalog() -> BTreeMap<ObjectId, ProtocolConfig> {
    (0..OBJECTS)
        .map(|o| {
            let base = (o as usize) % (NODES - 1);
            let config = if o % 2 == 0 {
                ProtocolConfig::Sa {
                    q: ProcSet::from_iter([base, base + 1]),
                }
            } else {
                ProtocolConfig::Da {
                    f: ProcSet::from_iter([base]),
                    p: ProcessorId::new(base + 1),
                }
            };
            (ObjectId(o), config)
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Detached,
    Obs,
    Spans,
}

/// Allocations made while serving the measured stretch of `schedule`,
/// after a warm-up on the same sim.
fn allocations(schedule: &MultiSchedule, mode: Mode) -> u64 {
    let mut sim = ProtocolSim::new_catalog(NODES, catalog()).unwrap();
    let obs = (mode != Mode::Detached).then(|| sim.attach_obs(EVENT_CAPACITY));
    if mode == Mode::Spans {
        sim.enable_request_spans();
    }
    let (warmup, measured) = schedule.requests().split_at(WARMUP);
    for r in warmup {
        sim.execute_request_on(r.object, r.request).unwrap();
    }
    if let Some(obs) = &obs {
        assert_eq!(
            obs.events().len(),
            EVENT_CAPACITY,
            "{mode:?}: ring not full"
        );
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    for r in measured {
        sim.execute_request_on(r.object, r.request).unwrap();
    }
    ON.store(false, Ordering::Relaxed);
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    if let Some(obs) = &obs {
        // The measured stretch did record: the ring kept turning over.
        let per_request = if mode == Mode::Spans { 3 } else { 0 };
        assert!(
            obs.events().next_index() >= ((WARMUP + MEASURED) * per_request) as u64,
            "{mode:?}"
        );
        assert!(obs.events().dropped_events() > 0, "{mode:?}");
    }
    counted
}

/// Live heap bytes after `LONG_RUN_BASELINE` and after `LONG_RUN`
/// detached requests on one sim.
fn live_bytes_over_a_long_run() -> (u64, u64) {
    let schedule = MultiUniformWorkload::new(OBJECTS, NODES, 0.8)
        .unwrap()
        .generate_multi(LONG_RUN, 42);
    let mut sim = ProtocolSim::new_catalog(NODES, catalog()).unwrap();
    let (head, tail) = schedule.requests().split_at(LONG_RUN_BASELINE);
    for r in head {
        sim.execute_request_on(r.object, r.request).unwrap();
    }
    let baseline = LIVE.load(Ordering::Relaxed);
    for r in tail {
        sim.execute_request_on(r.object, r.request).unwrap();
    }
    (baseline, LIVE.load(Ordering::Relaxed))
}

/// The counter counts: one deliberate allocation inside a measured
/// window reads as exactly one.
fn assert_counter_is_live() {
    let before = ALLOCS.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let probe = std::hint::black_box(Box::new(0u64));
    ON.store(false, Ordering::Relaxed);
    assert_eq!(ALLOCS.load(Ordering::Relaxed) - before, 1);
    drop(probe);
}

#[test]
fn a_warm_request_allocates_for_its_payload_and_observability_for_nothing() {
    assert_counter_is_live();
    let schedule = MultiUniformWorkload::new(OBJECTS, NODES, 0.8)
        .unwrap()
        .generate_multi(WARMUP + MEASURED, 42);
    let detached = allocations(&schedule, Mode::Detached);
    let obs = allocations(&schedule, Mode::Obs);
    let spans = allocations(&schedule, Mode::Spans);
    let per_request = detached as f64 / MEASURED as f64;
    eprintln!(
        "allocations in {MEASURED} warm requests: detached {detached}, obs {obs}, spans {spans}"
    );
    assert!(
        per_request <= 0.5,
        "the detached path allocates {per_request:.3} times per request \
         ({detached} in {MEASURED} requests)"
    );
    assert_eq!(
        obs, detached,
        "attach_obs must not allocate on a warm request path"
    );
    assert_eq!(
        spans, detached,
        "request spans must not allocate on a warm request path"
    );
    assert_eq!(
        detached, MEASURED_ALLOCS,
        "the detached path's allocations moved"
    );

    let (baseline, end) = live_bytes_over_a_long_run();
    eprintln!(
        "live heap: {baseline} bytes after {LONG_RUN_BASELINE} requests, {end} after {LONG_RUN}"
    );
    assert!(
        end.abs_diff(baseline) <= LIVE_DRIFT,
        "the live heap grew with the run: {baseline} bytes after \
         {LONG_RUN_BASELINE} requests, {end} after {LONG_RUN}"
    );
}

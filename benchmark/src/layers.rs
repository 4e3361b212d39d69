//! Each layer priced from outside, by timing calls into its public
//! functions. Only the traced run (`--trace 1`) pays for these.

use crate::deploy::{fresh_sim, sharded, SimMode, OBS_EVENTS};
use crate::interp::InterpRun;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::Workload;
use doma_algorithms::{DynamicAllocation, StaticAllocation};
use doma_core::{
    cost_of_schedule, run_online, AllocationSchedule, CostVector, DomaError, MultiRequest,
    MultiSchedule, ObjectId, Result,
};
use doma_net::codec::{self, Decoder};
use doma_obs::Obs;
use doma_protocol::{ClientPlanner, ProtocolConfig, ShardOutcome};
use doma_sim::{Actor, Context, Engine, EngineConfig, MsgKind, NodeId};
use doma_storage::{LocalStore, Version};
use std::hint::black_box;
use std::time::Instant;

/// Batches a micro-measurement takes its median over.
const BATCHES: usize = 11;

/// Median over [`BATCHES`] batches of the wall time of one call in ns,
/// where a batch makes `calls` calls.
fn ns_per_call(calls: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// `ClientPlanner::plan` over the whole schedule, ns per request.
pub fn planner_plan_ns(w: &Workload, schedule: &MultiSchedule) -> f64 {
    ns_per_call(schedule.len(), || {
        let mut planner = ClientPlanner::new(w.n, w.catalog.keys().copied());
        for MultiRequest { object, request } in schedule.requests() {
            black_box(planner.plan(*object, *request).expect("valid request"));
        }
    })
}

/// Forwards a token round the ring until its hop count runs out: the
/// engine's queue and dispatch with no handler work to speak of.
struct Forward {
    next: NodeId,
}

impl Actor<u32> for Forward {
    fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, kind: MsgKind, hops: u32) {
        if hops > 0 {
            ctx.send(self.next, kind, hops - 1);
        }
    }
}

/// The doma-sim engine's cost of one event, ns, with `nodes` null actors
/// and a handful of tokens in flight (the request path keeps 1 to 3).
pub fn engine_event_ns(nodes: usize) -> f64 {
    const TOKENS: usize = 3;
    const HOPS: u32 = 20_000;
    ns_per_call(TOKENS * (HOPS as usize + 1), || {
        let mut engine: Engine<u32, Forward> = Engine::new(EngineConfig::default());
        for i in 0..nodes {
            engine.add_node(Forward {
                next: NodeId((i + 1) % nodes),
            });
        }
        for token in 0..TOKENS {
            engine.inject(NodeId(token % nodes), 1, HOPS);
        }
        black_box(engine.run_until_idle());
    })
}

/// What the storage layer costs per call, driven by the object sequence
/// of the schedule's first requests on one store.
pub struct StoragePrices {
    pub output_ns: f64,
    pub input_ns: f64,
    pub invalidate_ns: f64,
    pub recover_ns_per_record: f64,
}

pub fn storage_prices(schedule: &MultiSchedule) -> StoragePrices {
    // The redo log keeps every record: a prefix bounds what this costs.
    const CALLS: usize = 20_000;
    let objects: Vec<ObjectId> = schedule.requests()[..CALLS.min(schedule.len())]
        .iter()
        .map(|r| r.object)
        .collect();
    let payload = b"payload-63-100000".to_vec();
    let mut store = LocalStore::new();
    let mut version = Version::INITIAL;
    let output_ns = ns_per_call(objects.len(), || {
        for object in &objects {
            version = version.next();
            store.output(*object, version, payload.clone());
        }
    });
    let input_ns = ns_per_call(objects.len(), || {
        for object in &objects {
            black_box(store.input(*object));
        }
    });
    // Only invalidating a valid replica is logged work, so each timed
    // invalidation follows an untimed output that re-validates it.
    let mut invalidate_total_ns = 0u128;
    for object in &objects {
        version = version.next();
        store.output(*object, version, payload.clone());
        let start = Instant::now();
        store.invalidate(*object);
        invalidate_total_ns += start.elapsed().as_nanos();
    }
    let records = store.log().len();
    let start = Instant::now();
    black_box(store.recover());
    StoragePrices {
        output_ns,
        input_ns,
        invalidate_ns: invalidate_total_ns as f64 / objects.len() as f64,
        recover_ns_per_record: start.elapsed().as_nanos() as f64 / records as f64,
    }
}

/// What the observability primitives cost per call.
pub struct ObsPrices {
    pub counter_add_ns: f64,
    pub counter_handle_ns: f64,
    pub event_record_ns: f64,
    pub span_ns: f64,
}

pub fn obs_prices() -> ObsPrices {
    const CALLS: usize = 20_000;
    let obs = Obs::new(OBS_EVENTS);
    let labels = [("algo", "da"), ("node", "N3"), ("op", "save-read")];
    let counter_add_ns = ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            obs.metrics().add("bench", "cost.io", black_box(&labels), 1);
        }
    });
    let handle = obs.metrics().counter("bench", "cost.io", &labels);
    let counter_handle_ns = ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            black_box(&handle).add(1);
        }
    });
    let fields = || vec![("node".to_string(), "N3".to_string())];
    let event_record_ns = ns_per_call(CALLS, || {
        for i in 0..CALLS {
            obs.events().record(i as u64, "bench.point", fields());
        }
    });
    let span_ns = ns_per_call(CALLS, || {
        for i in 0..CALLS {
            let id = obs.events().span_enter(i as u64, "bench.span", fields());
            obs.events().span_exit(id, i as u64 + 1);
        }
    });
    ObsPrices {
        counter_add_ns,
        counter_handle_ns,
        event_record_ns,
        span_ns,
    }
}

/// What the wire codec costs over the workload's own message mix.
pub struct CodecPrices {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub stream_decode_ns_per_frame: f64,
    pub bytes_per_frame: f64,
}

pub fn codec_prices(run: &InterpRun) -> Result<CodecPrices> {
    let frames = &run.frames;
    let encode_ns_per_frame = ns_per_call(frames.len(), || {
        for frame in frames {
            black_box(codec::encode_frame(black_box(frame)));
        }
    });
    let encoded: Vec<Vec<u8>> = frames.iter().map(codec::encode_frame).collect();
    for (frame, bytes) in frames.iter().zip(&encoded) {
        if codec::decode_frame(&bytes[4..])? != *frame {
            return Err(DomaError::WireCorrupt {
                context: "frame did not survive a round trip",
            });
        }
    }
    let decode_ns_per_frame = ns_per_call(frames.len(), || {
        for bytes in &encoded {
            black_box(codec::decode_frame(black_box(&bytes[4..])).expect("checked above"));
        }
    });
    // The socket read path: 4 KiB reads fed to the incremental decoder.
    let stream = encoded.concat();
    let stream_decode_ns_per_frame = ns_per_call(frames.len(), || {
        let mut decoder = Decoder::new();
        let mut seen = 0usize;
        for chunk in stream.chunks(4096) {
            decoder.feed(chunk);
            while let Some(body) = decoder.next_frame().expect("well-formed stream") {
                black_box(codec::decode_frame(&body).expect("checked above"));
                seen += 1;
            }
        }
        assert_eq!(
            seen,
            frames.len(),
            "every frame comes back out of the stream"
        );
    });
    Ok(CodecPrices {
        encode_ns_per_frame,
        decode_ns_per_frame,
        stream_decode_ns_per_frame,
        bytes_per_frame: stream.len() as f64 / frames.len() as f64,
    })
}

/// Median µs of each phase of one K = 2 sharded run, timed through the
/// `ShardedSim` phase API the way `shard_prof` does: set-up and execute
/// inside the spawned workers (the slowest worker's are reported), spawn
/// as the scope time they do not cover.
pub struct ShardPhases {
    pub partition_us: f64,
    pub project_us: f64,
    pub spawn_us: f64,
    pub setup_us: f64,
    pub execute_us: f64,
    pub merge_us: f64,
}

pub fn shard_phases(w: &Workload, schedule: &MultiSchedule, reps: usize) -> Result<ShardPhases> {
    let driver = sharded(w)?;
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let mut samples: [Vec<f64>; 6] = Default::default();
    for _ in 0..reps {
        let start = Instant::now();
        let assignment = driver.partition(schedule)?;
        samples[0].push(us(start));

        let start = Instant::now();
        let inputs = driver.project(schedule, &assignment);
        samples[1].push(us(start));

        let scope_start = Instant::now();
        let timed: Vec<Result<(f64, f64, ShardOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .into_iter()
                .map(|(catalog, shard_schedule)| {
                    let driver = &driver;
                    scope.spawn(move || {
                        if catalog.is_empty() {
                            // One object cannot be split: the shard without
                            // it builds and runs nothing (as in the driver).
                            let idle = driver.run_shard_inline((catalog, shard_schedule))?;
                            return Ok((0.0, 0.0, idle));
                        }
                        let objects: Vec<ObjectId> = catalog.keys().copied().collect();
                        let start = Instant::now();
                        let mut sim = doma_protocol::ProtocolSim::new_catalog(w.n, catalog)?;
                        let setup = us(start);
                        let start = Instant::now();
                        let report = sim.execute_multi(&shard_schedule)?;
                        let holders = objects
                            .into_iter()
                            .map(|o| (o, sim.valid_holders_of(o)))
                            .collect();
                        let outcome = ShardOutcome {
                            report,
                            holders,
                            obs: None,
                        };
                        Ok((setup, us(start), outcome))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let scope_us = us(scope_start);
        // The workers overlap, so the slowest one sets the scope's time:
        // its set-up and execute are the phases, and what the scope
        // waited beyond them is spawn and join.
        let mut outcomes = Vec::new();
        let (mut setup, mut execute) = (0.0, 0.0);
        for shard in timed {
            let (s, e, outcome) = shard?;
            if s + e > setup + execute {
                (setup, execute) = (s, e);
            }
            outcomes.push(outcome);
        }
        samples[2].push((scope_us - setup - execute).max(0.0));
        samples[3].push(setup);
        samples[4].push(execute);

        let start = Instant::now();
        black_box(driver.merge_outcomes(assignment, outcomes));
        samples[5].push(us(start));
    }
    let [partition, project, spawn, setup, execute, merge] = samples.map(|s| median(&s));
    Ok(ShardPhases {
        partition_us: partition,
        project_us: project,
        spawn_us: spawn,
        setup_us: setup,
        execute_us: execute,
        merge_us: merge,
    })
}

/// The traced pass over the sim: per request a root `sim.request` span with
/// `sim.inject` (`inject_request_on`) and `sim.settle` (`settle`) inside.
/// Returns the pass's wall seconds and the same requests' wall seconds
/// through `execute_request_on` with no spans, for the tracing overhead.
pub fn traced_sim_pass(
    w: &Workload,
    prefix: &[MultiRequest],
    spans: &mut Spans,
) -> Result<(f64, f64)> {
    let (mut sim, _) = fresh_sim(w, SimMode::Plain)?;
    let traced = Instant::now();
    for (index, MultiRequest { object, request }) in prefix.iter().enumerate() {
        let root = spans.open("sim.request", None, index as u32);
        let id = spans.open("sim.inject", Some(root), index as u32);
        sim.inject_request_on(*object, *request)?;
        spans.close(id);
        let id = spans.open("sim.settle", Some(root), index as u32);
        sim.settle()?;
        spans.close(id);
        spans.close(root);
    }
    let traced = traced.elapsed().as_secs_f64();

    let (mut sim, _) = fresh_sim(w, SimMode::Plain)?;
    let untraced = Instant::now();
    for MultiRequest { object, request } in prefix {
        sim.execute_request_on(*object, *request)?;
    }
    Ok((traced, untraced.elapsed().as_secs_f64()))
}

/// The analytic side of check 2: every object's schedule run through the
/// paper's SA or DA in doma-core's cost engine, summed. Also returns the
/// allocation schedules, so the cost engine itself can be timed.
pub fn analytic_cost(
    w: &Workload,
    schedule: &MultiSchedule,
) -> Result<(CostVector, Vec<(AllocationSchedule, usize)>)> {
    let mut total = CostVector::ZERO;
    let mut allocations = Vec::new();
    for (object, per_object) in schedule.per_object() {
        let config = &w.catalog[&object];
        let outcome = match config {
            ProtocolConfig::Sa { q } => run_online(&mut StaticAllocation::new(*q)?, &per_object)?,
            ProtocolConfig::Da { f, p } => {
                run_online(&mut DynamicAllocation::new(*f, *p)?, &per_object)?
            }
            ProtocolConfig::Adaptive { .. } => {
                return Err(DomaError::InvalidConfig(
                    "the pinned catalogs hold SA and DA objects only".into(),
                ))
            }
        };
        total += outcome.costed.total;
        allocations.push((outcome.alloc, config.t()));
    }
    Ok((total, allocations))
}

/// `cost_of_schedule` over every object's allocation schedule, ns per
/// request of the whole schedule.
pub fn cost_engine_ns(allocations: &[(AllocationSchedule, usize)], requests: usize) -> f64 {
    ns_per_call(requests, || {
        for (alloc, t) in allocations {
            black_box(cost_of_schedule(black_box(alloc), *t).expect("costed once already"));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    /// `append62` has one object: one of the two shards is empty, and the
    /// phases must still run (and still merge to the sequential report).
    #[test]
    fn shard_phases_cover_every_workload() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let phases = shard_phases(&w, &w.generate(2_000, 42), 1).unwrap();
            assert!(phases.execute_us > 0.0, "{name}");
        }
    }

    #[test]
    fn analytic_cost_is_the_sims() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let schedule = w.generate(2_000, 42);
            let (mut sim, _) = fresh_sim(&w, SimMode::Plain).unwrap();
            let report = sim.execute_multi(&schedule).unwrap();
            let (analytic, allocations) = analytic_cost(&w, &schedule).unwrap();
            assert_eq!(analytic, report.cost, "{name}");
            assert!(cost_engine_ns(&allocations, schedule.len()) > 0.0);
        }
    }
}

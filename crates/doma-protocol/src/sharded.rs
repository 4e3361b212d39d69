//! Object-sharded parallel execution: run a multi-object schedule on K
//! independent clusters — one per object shard — and merge the results
//! deterministically.
//!
//! The paper's cost model makes objects independent (§3.1: a schedule's
//! cost decomposes into per-object costs), and the failure-free protocol
//! preserves that independence: no message, store slot or tally is
//! shared between objects. A [`MultiSchedule`] can therefore be
//! partitioned by object, each partition executed on its own
//! [`ProtocolSim`] + engine, and the partial results recombined into
//! *exactly* the sequential outcome:
//!
//! * [`SimReport`]s sum component-wise — costs, reads and latency ticks
//!   are integers, and the merged mean latency is recomputed with the
//!   same single division a sequential run performs, so even the f64 is
//!   bit-identical;
//! * per-object final holders come from exactly one shard each (the one
//!   that owns the object), so the union is exact;
//! * per-shard observability bundles fold through
//!   [`doma_obs::Obs::merge_shards`]: metric totals and key sets are
//!   byte-identical to a sequential run, event records interleave by
//!   `(time, shard, index)` with a `shard` label (event *times* stay
//!   shard-local — each shard's engine runs its own virtual clock; this
//!   is the one documented divergence from the sequential event log).
//!
//! Shard assignment reuses the same [`Placement`] policies — through the
//! same [`doma_algorithms::partition`] kernel — that E18's first-touch
//! walk uses to place DA cores, so `LoadAware` balances shards by the
//! requests routed to each so far, exactly as it balances core
//! processors. Workers run on scoped threads via
//! [`doma_sim::shard::run_shards`]; a single shard runs serially on the
//! calling thread, which must (and, per the parity gate, does) produce
//! identical bytes.

use crate::catalog::ObjectCatalog;
use crate::{DomMsg, DomNode, ProtocolConfig, ProtocolSim, SimReport};
use doma_algorithms::multi::Placement;
use doma_algorithms::partition::ShardPartitioner;
use doma_core::{DomaError, MultiRequest, MultiSchedule, ObjectId, ProcSet, Result};
use doma_obs::Obs;
use doma_sim::shard::run_shards;
use std::collections::BTreeMap;

// Everything a shard worker moves across a thread boundary must be Send;
// asserting it on the simulator itself keeps the whole actor stack
// (engine, nodes, stores, obs handles) eligible, not just the pieces
// today's workers happen to move.
const _: () = doma_sim::shard::assert_send::<ProtocolSim>();
const _: () = doma_sim::shard::assert_send::<DomNode>();
const _: () = doma_sim::shard::assert_send::<DomMsg>();

/// One shard's input: its catalog slice and its projected sub-schedule.
/// Public so the benchmark's phase profiler can drive the same
/// partition → project → setup → execute → merge pipeline
/// [`ShardedSim::execute_multi`] composes, timing each phase.
pub type ShardInput = (BTreeMap<ObjectId, ProtocolConfig>, MultiSchedule);

/// The outcome of one sharded execution.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged report — component-wise equal to what a sequential
    /// [`ProtocolSim::execute_multi`] of the same schedule reports.
    pub report: SimReport,
    /// Final valid-replica holders per catalog object (each collected
    /// from the one shard that owns the object).
    pub holders: BTreeMap<ObjectId, ProcSet>,
    /// Which shard each catalog object was assigned to.
    pub assignment: BTreeMap<ObjectId, usize>,
    /// The merged observability bundle, when requested via
    /// [`ShardedSim::with_obs`].
    pub obs: Option<Obs>,
}

/// What one worker hands back across the thread boundary. Public (with
/// public fields) so the phase profiler can run shards inline and feed
/// the results to [`ShardedSim::merge_outcomes`].
#[derive(Debug)]
pub struct ShardOutcome {
    /// The shard cluster's exact tallies.
    pub report: SimReport,
    /// Final valid-replica holders of the shard's objects.
    pub holders: BTreeMap<ObjectId, ProcSet>,
    /// The shard's obs bundle, when observability was requested.
    pub obs: Option<Obs>,
}

/// A sharded driver over the same catalog a sequential
/// [`ProtocolSim::new_catalog`] would serve.
///
/// Construction validates the catalog once (by probing the sequential
/// constructor); each [`ShardedSim::execute_multi`] then builds K fresh
/// per-shard clusters, runs them on scoped threads and merges. The
/// driver itself is immutable, so the same instance can execute many
/// schedules — including the same schedule at different shard counts
/// for the scaling experiment.
#[derive(Debug, Clone)]
pub struct ShardedSim {
    n: usize,
    configs: ObjectCatalog<ProtocolConfig>,
    shards: usize,
    placement: Placement,
    event_capacity: Option<usize>,
    traced: bool,
}

impl ShardedSim {
    /// A sharded driver for an `n`-node cluster serving `configs`,
    /// splitting objects into `shards` shards under `placement`.
    pub fn new(
        n: usize,
        configs: BTreeMap<ObjectId, ProtocolConfig>,
        shards: usize,
        placement: Placement,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(DomaError::InvalidConfig("need at least one shard".into()));
        }
        // Probe the sequential constructor: same validation, one place.
        ProtocolSim::new_catalog(n, configs.clone())?;
        Ok(ShardedSim {
            n,
            configs: ObjectCatalog::from_map(configs),
            shards,
            placement,
            event_capacity: None,
            traced: false,
        })
    }

    /// Requests per-shard observability: every shard cluster gets a
    /// fresh bundle (event log bounded to `event_capacity`), and
    /// [`ShardedRun::obs`] carries the deterministic merge.
    pub fn with_obs(mut self, event_capacity: usize) -> Self {
        self.event_capacity = Some(event_capacity);
        self
    }

    /// Requests causal tracing on top of observability: every shard
    /// cluster additionally records message deliveries
    /// ([`ProtocolSim::attach_tracer`]) and per-request spans
    /// ([`ProtocolSim::enable_request_spans`]) into its obs event log.
    /// The merged log's records carry shard labels and interleave by the
    /// existing `(time, shard, index)` order, so
    /// [`doma_obs::trace::TraceModel`] reconstructs per-shard request
    /// windows from [`ShardedRun::obs`] directly.
    pub fn with_trace(mut self, event_capacity: usize) -> Self {
        self.event_capacity = Some(event_capacity);
        self.traced = true;
        self
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The placement policy assigning objects to shards.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Phase 1, shard partition: assigns every catalog object to a
    /// shard. Schedule objects are assigned on first touch (so
    /// `LoadAware` sees traffic as it accrues, one unit of load per
    /// request, attributed in schedule order); catalog objects the
    /// schedule never touches are then assigned in ascending id order, so
    /// *every* object — and therefore every initial-scheme replica holder
    /// — lands in exactly one shard.
    ///
    /// Each request resolves its object to a catalog slot (one
    /// subtraction on a contiguous catalog, a binary search otherwise)
    /// and reads the slot's shard from a dense table; the partitioner
    /// is consulted once per object.
    pub fn partition(&self, schedule: &MultiSchedule) -> Result<BTreeMap<ObjectId, usize>> {
        let mut partitioner = ShardPartitioner::new(self.shards, self.placement)?;
        let mut shard_of: Vec<Option<usize>> = vec![None; self.configs.len()];
        for &MultiRequest { object, .. } in schedule.requests() {
            let slot = self.configs.slot(object).ok_or_else(|| {
                DomaError::InvalidConfig(format!("{object} not in the cluster's catalog"))
            })?;
            let shard = *shard_of[slot].get_or_insert_with(|| partitioner.assign());
            partitioner.attribute(shard, 1);
        }
        Ok(self
            .configs
            .iter()
            .zip(shard_of)
            .map(|((object, _), shard)| (object, shard.unwrap_or_else(|| partitioner.assign())))
            .collect())
    }

    /// Phase 2, projection copy: materializes each shard's catalog slice
    /// and projected sub-schedule from a [`ShardedSim::partition`]
    /// assignment. Requests keep their relative order within a shard.
    ///
    /// The assignment becomes a per-slot shard table once (objects it
    /// leaves out, and requests naming objects outside the catalog, go to
    /// shard 0); one pass counts each shard's requests and a second
    /// copies them into schedules allocated at exactly that size.
    pub fn project(
        &self,
        schedule: &MultiSchedule,
        assignment: &BTreeMap<ObjectId, usize>,
    ) -> Vec<ShardInput> {
        let shard_of: Vec<usize> = self
            .configs
            .iter()
            .map(|(object, _)| assignment.get(&object).copied().unwrap_or(0))
            .collect();
        let shard_of_object = |object| self.configs.slot(object).map_or(0, |slot| shard_of[slot]);
        let mut sizes = vec![0usize; self.shards];
        for request in schedule.requests() {
            if let Some(size) = sizes.get_mut(shard_of_object(request.object)) {
                *size += 1;
            }
        }
        let mut projected: Vec<Vec<MultiRequest>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        for &request in schedule.requests() {
            if let Some(requests) = projected.get_mut(shard_of_object(request.object)) {
                requests.push(request);
            }
        }
        let mut catalogs: Vec<BTreeMap<ObjectId, ProtocolConfig>> =
            vec![BTreeMap::new(); self.shards];
        for ((object, config), &shard) in self.configs.iter().zip(&shard_of) {
            if let Some(catalog) = catalogs.get_mut(shard) {
                catalog.insert(object, *config);
            }
        }
        catalogs
            .into_iter()
            .zip(projected.into_iter().map(MultiSchedule::from_requests))
            .collect()
    }

    /// Executes an interleaved multi-object schedule across the shards
    /// and merges: the returned [`SimReport`] equals a sequential
    /// [`ProtocolSim::execute_multi`] of the same schedule on the same
    /// catalog, component for component.
    pub fn execute_multi(&self, schedule: &MultiSchedule) -> Result<ShardedRun> {
        let assignment = self.partition(schedule)?;
        let inputs = self.project(schedule, &assignment);
        let n = self.n;
        let event_capacity = self.event_capacity;
        let traced = self.traced;
        let outcomes = run_shards(inputs, |_, (catalog, shard_schedule)| {
            Self::run_shard(n, event_capacity, traced, catalog, &shard_schedule)
        });
        let outcomes = outcomes.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(self.merge_outcomes(assignment, outcomes))
    }

    /// Phases 3+4 for one shard, inline (no worker thread): builds the
    /// shard cluster and runs its sub-schedule. The phase profiler times
    /// this against [`ShardedSim::merge_outcomes`] to attribute the
    /// sharded-vs-sequential wall-clock delta.
    pub fn run_shard_inline(&self, input: ShardInput) -> Result<ShardOutcome> {
        Self::run_shard(self.n, self.event_capacity, self.traced, input.0, &input.1)
    }

    /// Phase 5, report/obs merge: folds per-shard outcomes into the
    /// final [`ShardedRun`]. Outcomes must be given in shard order.
    pub fn merge_outcomes(
        &self,
        assignment: BTreeMap<ObjectId, usize>,
        outcomes: Vec<ShardOutcome>,
    ) -> ShardedRun {
        let mut report = SimReport::default();
        let mut holders = BTreeMap::new();
        let mut bundles = Vec::new();
        for shard in outcomes {
            report.cost += shard.report.cost;
            for holder in shard.report.final_holders.iter() {
                report.final_holders.insert(holder);
            }
            report.reads_completed += shard.report.reads_completed;
            report.read_latency_ticks += shard.report.read_latency_ticks;
            report.dropped_messages += shard.report.dropped_messages;
            holders.extend(shard.holders);
            bundles.push(shard.obs);
        }
        // The same division a sequential report() performs — one f64
        // divide over exact integer sums — so the merged mean is
        // bit-identical, not merely close.
        report.mean_read_latency = if report.reads_completed > 0 {
            report.read_latency_ticks as f64 / report.reads_completed as f64
        } else {
            0.0
        };
        let obs = match self.event_capacity {
            Some(capacity) => {
                let master = Obs::new(capacity);
                let shard_bundles: Vec<Obs> =
                    bundles.into_iter().map(|b| b.unwrap_or_default()).collect();
                master.merge_shards(&shard_bundles);
                Some(master)
            }
            None => None,
        };
        ShardedRun {
            report,
            holders,
            assignment,
            obs,
        }
    }

    /// One worker: builds the shard's cluster, runs its sub-schedule to
    /// quiescence, and collects the pieces the merge needs. A shard
    /// with no objects (possible when K exceeds the catalog, or when
    /// `SameCore` funnels everything to shard 0) contributes a neutral
    /// outcome without building a cluster.
    fn run_shard(
        n: usize,
        event_capacity: Option<usize>,
        traced: bool,
        catalog: BTreeMap<ObjectId, ProtocolConfig>,
        schedule: &MultiSchedule,
    ) -> Result<ShardOutcome> {
        if catalog.is_empty() {
            return Ok(ShardOutcome {
                report: SimReport::default(),
                holders: BTreeMap::new(),
                obs: event_capacity.map(Obs::new),
            });
        }
        let mut sim = ProtocolSim::new_catalog(n, catalog)?;
        let obs = event_capacity.map(|capacity| sim.attach_obs(capacity));
        if traced {
            // Both are no-ops without the bundle.
            sim.attach_tracer();
            sim.enable_request_spans();
        }
        let report = sim.execute_multi(schedule)?;
        let holders = sim
            .catalog()
            .keys()
            .map(|object| (*object, sim.valid_holders_of(*object)))
            .collect();
        Ok(ShardOutcome {
            report,
            holders,
            obs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{ProcessorId, Request};

    fn catalog(ids: impl IntoIterator<Item = u64>, n: usize) -> BTreeMap<ObjectId, ProtocolConfig> {
        // Alternate SA and DA configurations around the ring.
        ids.into_iter()
            .map(|o| {
                let base = (o as usize) % (n - 1);
                let config = if o % 2 == 0 {
                    ProtocolConfig::Sa {
                        q: [base, base + 1].into_iter().collect(),
                    }
                } else {
                    ProtocolConfig::Da {
                        f: [base].into_iter().collect(),
                        p: ProcessorId::new(base + 1),
                    }
                };
                (ObjectId(o), config)
            })
            .collect()
    }

    fn traffic(objects: u64, requests: usize, n: usize) -> MultiSchedule {
        let mut s = MultiSchedule::default();
        for k in 0..requests {
            let object = ObjectId((k as u64 * 7 + 3) % objects);
            let issuer = (k * 5 + 1) % n;
            let request = if k % 3 == 0 {
                Request::write(issuer)
            } else {
                Request::read(issuer)
            };
            s.push(object, request);
        }
        s
    }

    #[test]
    fn construction_validates_catalog_and_shard_count() {
        assert!(ShardedSim::new(6, catalog(0..4, 6), 0, Placement::RoundRobin).is_err());
        assert!(ShardedSim::new(0, catalog(0..4, 6), 2, Placement::RoundRobin).is_err());
        assert!(ShardedSim::new(6, BTreeMap::new(), 2, Placement::RoundRobin).is_err());
        assert!(ShardedSim::new(6, catalog(0..4, 6), 2, Placement::RoundRobin).is_ok());
    }

    #[test]
    fn schedule_objects_outside_the_catalog_are_rejected() {
        let sharded = ShardedSim::new(6, catalog(0..4, 6), 2, Placement::RoundRobin).unwrap();
        let mut s = MultiSchedule::default();
        s.push(ObjectId(9), Request::read(0usize));
        assert!(sharded.execute_multi(&s).is_err());
    }

    #[test]
    fn merged_report_matches_sequential_execution() {
        let configs = catalog(0..6, 8);
        let schedule = traffic(6, 60, 8);
        let mut sequential = ProtocolSim::new_catalog(8, configs.clone()).unwrap();
        let expected = sequential.execute_multi(&schedule).unwrap();
        for shards in [1usize, 3, 6, 9] {
            let run = ShardedSim::new(8, configs.clone(), shards, Placement::RoundRobin)
                .unwrap()
                .execute_multi(&schedule)
                .unwrap();
            assert_eq!(run.report, expected, "K={shards} diverged");
            for object in configs.keys() {
                assert_eq!(
                    run.holders.get(object),
                    Some(&sequential.valid_holders_of(*object)),
                    "holders of {object} diverged at K={shards}"
                );
            }
        }
    }

    /// A catalog mixing SA with an adaptive entrant: every way of building
    /// it installs the adaptive object's plan oracle, so the sequential
    /// catalog, the sharded run and the per-object roster deployments
    /// agree, and no node ever sees a request without its plan.
    #[test]
    fn adaptive_catalog_objects_get_their_plan_oracle() {
        let n = 6;
        let entrants = [
            (ObjectId(0), crate::Entrant::Sa),
            (ObjectId(1), crate::Entrant::MobileMirror),
        ];
        let configs: BTreeMap<_, _> = entrants.iter().map(|(o, e)| (*o, e.config())).collect();
        let errors = |sim: &ProtocolSim| -> usize {
            (0..n)
                .map(|i| {
                    sim.engine_ref()
                        .actor(doma_sim::NodeId(i))
                        .protocol_errors()
                        .len()
                })
                .sum()
        };
        let schedule = traffic(2, 40, n);
        let mut sequential = ProtocolSim::new_catalog(n, configs.clone()).unwrap();
        let expected = sequential.execute_multi(&schedule).unwrap();
        assert_eq!(errors(&sequential), 0);
        let sharded = ShardedSim::new(n, configs, 2, Placement::RoundRobin)
            .unwrap()
            .execute_multi(&schedule)
            .unwrap();
        assert_eq!(sharded.report, expected);
        let per_object = schedule.per_object();
        let mut cost = doma_core::CostVector::ZERO;
        for (object, entrant) in entrants {
            let mut alone = entrant.sim(n).unwrap();
            cost += alone.execute(&per_object[&object]).unwrap().cost;
            assert_eq!(errors(&alone), 0, "{entrant}");
            let holders = alone.valid_holders_of(ProtocolSim::object());
            assert_eq!(sequential.valid_holders_of(object), holders, "{entrant}");
            assert_eq!(sharded.holders[&object], holders, "{entrant}");
        }
        assert_eq!(expected.cost, cost);
    }

    #[test]
    fn every_catalog_object_is_assigned_even_when_untouched() {
        let configs = catalog(0..5, 6);
        // Traffic touches only object 1.
        let mut schedule = MultiSchedule::default();
        schedule.push(ObjectId(1), Request::read(4usize));
        let run = ShardedSim::new(6, configs.clone(), 3, Placement::RoundRobin)
            .unwrap()
            .execute_multi(&schedule)
            .unwrap();
        assert_eq!(run.assignment.len(), configs.len());
        // Untouched objects still report their initial-scheme holders.
        let mut sequential = ProtocolSim::new_catalog(6, configs.clone()).unwrap();
        sequential.execute_multi(&schedule).unwrap();
        for object in configs.keys() {
            assert_eq!(
                run.holders.get(object),
                Some(&sequential.valid_holders_of(*object)),
                "holders of {object}"
            );
        }
    }

    fn sched(pairs: &[(u64, bool, usize)]) -> MultiSchedule {
        let mut s = MultiSchedule::default();
        for &(object, read, issuer) in pairs {
            let request = if read {
                Request::read(issuer)
            } else {
                Request::write(issuer)
            };
            s.push(ObjectId(object), request);
        }
        s
    }

    fn assignment_of(
        ids: impl IntoIterator<Item = u64>,
        shards: usize,
        placement: Placement,
        schedule: &MultiSchedule,
    ) -> BTreeMap<ObjectId, usize> {
        ShardedSim::new(6, catalog(ids, 6), shards, placement)
            .unwrap()
            .partition(schedule)
            .unwrap()
    }

    #[test]
    fn placements_tile_objects_over_shards_in_first_touch_order() {
        let s = sched(&[
            (12, true, 0),
            (11, false, 1),
            (12, true, 2),
            (10, true, 0),
            (13, false, 3),
        ]);
        let same = assignment_of(10..14, 4, Placement::SameCore, &s);
        assert!(same.values().all(|&shard| shard == 0));
        let rr = assignment_of(10..14, 4, Placement::RoundRobin, &s);
        let order: Vec<usize> = [12, 11, 10, 13].map(|o| rr[&ObjectId(o)]).to_vec();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn load_aware_sends_a_new_object_to_the_shard_with_the_least_traffic() {
        // Object 1 is hot (4 requests) before 2 and 3 appear: counted by
        // objects the shards would tie when 3 arrives; counted by traffic
        // shard 1 is still the lighter.
        let s = sched(&[
            (1, true, 0),
            (1, true, 1),
            (1, true, 2),
            (1, true, 3),
            (2, false, 0),
            (3, false, 1),
        ]);
        let p = assignment_of(1..4, 2, Placement::LoadAware, &s);
        assert_eq!(p[&ObjectId(1)], 0);
        assert_eq!(p[&ObjectId(2)], 1);
        assert_eq!(p[&ObjectId(3)], 1);
    }

    #[test]
    fn projection_keeps_every_request_and_each_objects_order() {
        let s = sched(&[
            (1, true, 0),
            (2, false, 1),
            (1, false, 2),
            (2, true, 3),
            (1, true, 4),
            (3, true, 5),
        ]);
        let sharded = ShardedSim::new(6, catalog(1..4, 6), 2, Placement::RoundRobin).unwrap();
        let assignment = sharded.partition(&s).unwrap();
        let inputs = sharded.project(&s, &assignment);
        assert_eq!(inputs.len(), 2);
        let total: usize = inputs.iter().map(|(_, sub)| sub.len()).sum();
        assert_eq!(total, s.len());
        let mut per_object = BTreeMap::new();
        for (shard, (catalog, sub)) in inputs.iter().enumerate() {
            for request in sub.requests() {
                assert_eq!(assignment[&request.object], shard);
                assert!(catalog.contains_key(&request.object));
            }
            per_object.extend(sub.per_object());
        }
        assert_eq!(per_object, s.per_object());
    }

    #[test]
    fn merged_obs_metrics_are_byte_identical_to_sequential() {
        let configs = catalog(0..4, 6);
        let schedule = traffic(4, 40, 6);
        let mut sequential = ProtocolSim::new_catalog(6, configs.clone()).unwrap();
        let seq_obs = sequential.attach_obs(4096);
        sequential.execute_multi(&schedule).unwrap();
        let expected = seq_obs.metrics().snapshot().to_json();
        for shards in [1usize, 2, 4] {
            let run = ShardedSim::new(6, configs.clone(), shards, Placement::LoadAware)
                .unwrap()
                .with_obs(4096)
                .execute_multi(&schedule)
                .unwrap();
            let obs = run.obs.expect("obs requested");
            assert_eq!(
                obs.metrics().snapshot().to_json(),
                expected,
                "metrics diverged at K={shards}"
            );
            assert_eq!(
                obs.events().dropped_events(),
                seq_obs.events().dropped_events()
            );
        }
    }

    #[test]
    fn merged_events_interleave_with_shard_labels() {
        // All-DA catalog: every object's traffic emits protocol events
        // (SA request handling is event-silent), so both shards show up.
        let configs: BTreeMap<ObjectId, ProtocolConfig> = (0..4u64)
            .map(|o| {
                (
                    ObjectId(o),
                    ProtocolConfig::Da {
                        f: [o as usize].into_iter().collect(),
                        p: ProcessorId::new(o as usize + 1),
                    },
                )
            })
            .collect();
        let schedule = traffic(4, 12, 6);
        let run = ShardedSim::new(6, configs, 2, Placement::RoundRobin)
            .unwrap()
            .with_obs(4096)
            .execute_multi(&schedule)
            .unwrap();
        let events = run.obs.expect("obs requested").events().snapshot();
        assert!(!events.is_empty());
        let mut last = (0u64, 0usize);
        let mut seen_shards = std::collections::BTreeSet::new();
        for record in &events {
            let shard = record
                .fields
                .get("shard")
                .and_then(|v| v.as_u64())
                .expect("every merged record carries a shard label")
                as usize;
            assert!((record.time, shard) >= last, "merge order violated");
            last = (record.time, shard);
            seen_shards.insert(shard);
        }
        assert_eq!(seen_shards.len(), 2, "both shards contributed events");
    }
}

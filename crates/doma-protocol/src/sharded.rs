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
//! same [`doma_algorithms::partition`] kernel — that the analytic
//! multi-object allocator uses for core placement, so `LoadAware`
//! balances shards by request traffic exactly as it balances processors
//! by I/O. Workers run on scoped threads via
//! [`doma_sim::shard::run_shards`]; a single shard runs serially on the
//! calling thread, which must (and, per the parity gate, does) produce
//! identical bytes.

use crate::{DomMsg, DomNode, ProtocolConfig, ProtocolSim, SimReport};
use doma_algorithms::multi::Placement;
use doma_algorithms::partition::ShardPartitioner;
use doma_core::{CostVector, DomaError, MultiRequest, MultiSchedule, ObjectId, ProcSet, Result};
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
    configs: BTreeMap<ObjectId, ProtocolConfig>,
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
            configs,
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
    /// ([`ProtocolSim::attach_tracer_on`]) and per-request spans
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
    /// `LoadAware` sees traffic as it accrues, one request per
    /// attribution, exactly like the analytic partitioner); catalog
    /// objects the schedule never touches are then assigned in ascending
    /// id order, so *every* object — and therefore every initial-scheme
    /// replica holder — lands in exactly one shard.
    pub fn partition(&self, schedule: &MultiSchedule) -> Result<BTreeMap<ObjectId, usize>> {
        let mut partitioner = ShardPartitioner::new(self.shards, self.placement)?;
        for &MultiRequest { object, .. } in schedule.requests() {
            if !self.configs.contains_key(&object) {
                return Err(DomaError::InvalidConfig(format!(
                    "{object} not in the cluster's catalog"
                )));
            }
            let shard = partitioner.assign(object);
            partitioner.attribute(shard, 1);
        }
        for object in self.configs.keys() {
            partitioner.assign(*object);
        }
        Ok(partitioner.assignment().clone())
    }

    /// Phase 2, projection copy: materializes each shard's catalog slice
    /// and projected sub-schedule from a [`ShardedSim::partition`]
    /// assignment. Requests keep their relative order within a shard.
    pub fn project(
        &self,
        schedule: &MultiSchedule,
        assignment: &BTreeMap<ObjectId, usize>,
    ) -> Vec<ShardInput> {
        let mut schedules: Vec<MultiSchedule> = Vec::new();
        schedules.resize_with(self.shards, MultiSchedule::default);
        for &MultiRequest { object, request } in schedule.requests() {
            let shard = assignment.get(&object).copied().unwrap_or(0);
            if let Some(s) = schedules.get_mut(shard) {
                s.push(object, request);
            }
        }
        let mut catalogs: Vec<BTreeMap<ObjectId, ProtocolConfig>> =
            vec![BTreeMap::new(); self.shards];
        for (object, config) in &self.configs {
            let shard = assignment.get(object).copied().unwrap_or(0);
            if let Some(catalog) = catalogs.get_mut(shard) {
                catalog.insert(*object, *config);
            }
        }
        catalogs.into_iter().zip(schedules).collect()
    }

    /// Phases 1+2 together, as the worker fan-out consumes them.
    fn split(
        &self,
        schedule: &MultiSchedule,
    ) -> Result<(BTreeMap<ObjectId, usize>, Vec<ShardInput>)> {
        let assignment = self.partition(schedule)?;
        let inputs = self.project(schedule, &assignment);
        Ok((assignment, inputs))
    }

    /// Executes an interleaved multi-object schedule across the shards
    /// and merges: the returned [`SimReport`] equals a sequential
    /// [`ProtocolSim::execute_multi`] of the same schedule on the same
    /// catalog, component for component.
    pub fn execute_multi(&self, schedule: &MultiSchedule) -> Result<ShardedRun> {
        let (assignment, inputs) = self.split(schedule)?;
        let n = self.n;
        let event_capacity = self.event_capacity;
        let traced = self.traced;
        let outcomes = run_shards(inputs, |_, (catalog, shard_schedule)| {
            Self::run_shard(n, event_capacity, traced, catalog, &shard_schedule)
        });
        let mut collected = Vec::new();
        for outcome in outcomes {
            collected.push(outcome?);
        }
        Ok(self.merge_outcomes(assignment, collected))
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
        let mut report = SimReport {
            cost: CostVector::ZERO,
            final_holders: ProcSet::EMPTY,
            reads_completed: 0,
            read_latency_ticks: 0,
            mean_read_latency: 0.0,
            dropped_messages: 0,
        };
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
                report: SimReport {
                    cost: CostVector::ZERO,
                    final_holders: ProcSet::EMPTY,
                    reads_completed: 0,
                    read_latency_ticks: 0,
                    mean_read_latency: 0.0,
                    dropped_messages: 0,
                },
                holders: BTreeMap::new(),
                obs: event_capacity.map(Obs::new),
            });
        }
        let mut sim = ProtocolSim::new_catalog(n, catalog)?;
        let obs = event_capacity.map(|capacity| sim.attach_obs(capacity));
        if traced {
            if let Some(obs) = &obs {
                sim.attach_tracer_on(obs.events().clone());
                sim.enable_request_spans();
            }
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

    fn catalog(objects: u64, n: usize) -> BTreeMap<ObjectId, ProtocolConfig> {
        // Alternate SA and DA configurations around the ring.
        (0..objects)
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
        assert!(ShardedSim::new(6, catalog(4, 6), 0, Placement::RoundRobin).is_err());
        assert!(ShardedSim::new(0, catalog(4, 6), 2, Placement::RoundRobin).is_err());
        assert!(ShardedSim::new(6, BTreeMap::new(), 2, Placement::RoundRobin).is_err());
        assert!(ShardedSim::new(6, catalog(4, 6), 2, Placement::RoundRobin).is_ok());
    }

    #[test]
    fn schedule_objects_outside_the_catalog_are_rejected() {
        let sharded = ShardedSim::new(6, catalog(4, 6), 2, Placement::RoundRobin).unwrap();
        let mut s = MultiSchedule::default();
        s.push(ObjectId(9), Request::read(0usize));
        assert!(sharded.execute_multi(&s).is_err());
    }

    #[test]
    fn merged_report_matches_sequential_execution() {
        let configs = catalog(6, 8);
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

    #[test]
    fn every_catalog_object_is_assigned_even_when_untouched() {
        let configs = catalog(5, 6);
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

    #[test]
    fn merged_obs_metrics_are_byte_identical_to_sequential() {
        let configs = catalog(4, 6);
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

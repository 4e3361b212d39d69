//! The protocol driver: executes a schedule on a simulated cluster.

use crate::node::OBJECT;
use crate::obs::{object_field, processor_field};
use crate::planner::ClientPlanner;
use crate::{DomMsg, DomNode, Entrant, ProtocolConfig, Tunables};
use doma_core::{
    CostVector, Decision, DomaError, MultiRequest, MultiSchedule, ObjectId, OnlineDom, ProcSet,
    ProcessorId, Request, Result, Schedule,
};
use doma_obs::{event, span};
use doma_sim::{Engine, EngineConfig, NodeId};
use doma_storage::Version;
use std::collections::BTreeMap;

/// A driver-side decision oracle for [`ProtocolConfig::Adaptive`]
/// objects: any online DOM algorithm that can be deep-copied for cluster
/// forks. Blanket-implemented for every `Clone` [`OnlineDom`], so the
/// promoted baselines and tournament contenders all qualify as-is.
pub trait PlanOracle: OnlineDom + Send {
    /// Deep copy (object-safe stand-in for `Clone`), used by
    /// [`ProtocolSim::fork`] so a model checker's speculative branches
    /// advance independent oracle states.
    fn clone_box(&self) -> Box<dyn PlanOracle>;
}

impl<T: OnlineDom + Clone + Send + 'static> PlanOracle for T {
    fn clone_box(&self) -> Box<dyn PlanOracle> {
        Box::new(self.clone())
    }
}

/// The `op` field of request spans and plan events.
fn op_name(request: Request) -> &'static str {
    if request.is_read() {
        "read"
    } else {
        "write"
    }
}

/// The outcome of executing a schedule on the simulated cluster. The
/// default (zero cost, no holders, no reads) is what a shard without
/// objects reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Exact resource tallies: control/data messages sent on the wire and
    /// I/O operations performed against the local stores. Directly
    /// comparable to [`doma_core::cost_of_schedule`]'s totals.
    pub cost: CostVector,
    /// Processors holding a *valid* replica after the schedule — the final
    /// allocation scheme.
    pub final_holders: ProcSet,
    /// Completed reads.
    pub reads_completed: u64,
    /// Total read latency in simulator ticks, summed over completed
    /// reads. Kept as an exact integer so merged shard reports can
    /// recompute [`SimReport::mean_read_latency`] with the *same*
    /// division a sequential run performs — bit-identical f64 output.
    pub read_latency_ticks: u64,
    /// Mean read latency in simulator ticks (0 if no reads).
    pub mean_read_latency: f64,
    /// Messages dropped at crashed nodes (0 in failure-free runs).
    pub dropped_messages: u64,
}

/// The outcome of an open-loop run (see
/// [`ProtocolSim::execute_open_loop`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Mean read response time in ticks.
    pub mean_response: f64,
    /// Every read's latency, for percentile analysis.
    pub latencies: Vec<u64>,
    /// Total virtual time the run took.
    pub makespan: u64,
    /// Ticks spent queueing for the shared bus during the run.
    pub bus_queue_wait: u64,
}

/// A simulated cluster running SA or DA, fed one request at a time (the
/// schedule is totally ordered by assumption — §3.1).
///
/// ```
/// use doma_protocol::ProtocolSim;
/// use doma_core::{ProcSet, ProcessorId, Schedule};
///
/// // The §2 mobile configuration: base station 0 is the core.
/// let mut sim = ProtocolSim::new_da(5, ProcSet::from_iter([0]), ProcessorId::new(1)).unwrap();
/// let schedule: Schedule = "r2 r2 w3 r2".parse().unwrap();
/// let report = sim.execute(&schedule).unwrap();
/// assert_eq!(report.final_holders, ProcSet::from_iter([0, 2, 3]));
/// ```
pub struct ProtocolSim {
    engine: Engine<DomMsg, DomNode>,
    configs: BTreeMap<ObjectId, ProtocolConfig>,
    n: usize,
    /// Driver-side planning state: write-version counters, the adaptive
    /// [`PlanOracle`]s, and the oracle-tracked schemes. Deterministic: a
    /// pure function of the injected request sequence, so it is excluded
    /// from [`ProtocolSim::fingerprint`] (the model checker varies only
    /// delivery orders of already-planned messages). Shared with the real
    /// runtime via [`crate::ClientPlanner`] — both drivers plan requests
    /// identically by construction.
    planner: ClientPlanner,
    /// The attached obs bundle (set by [`ProtocolSim::attach_obs`]),
    /// kept so request-span tracing can write into its event log.
    obs: Option<doma_obs::Obs>,
    /// Whether [`ProtocolSim::execute_request_on`] brackets each request
    /// in a `protocol.request` span with its exact cost delta — opt-in,
    /// because span records change obs snapshots (and therefore golden
    /// digests). See [`ProtocolSim::enable_request_spans`].
    request_spans: bool,
    /// Monotone per-driver request counter, stamped on request spans.
    request_seq: u64,
}

impl ProtocolSim {
    /// Builds an SA cluster of `n` nodes with fixed scheme `q`.
    pub fn new_sa(n: usize, q: ProcSet) -> Result<Self> {
        Self::new_catalog(n, BTreeMap::from([(OBJECT, ProtocolConfig::Sa { q })]))
    }

    /// Builds a DA cluster of `n` nodes with core `f` and floater `p`.
    pub fn new_da(n: usize, f: ProcSet, p: ProcessorId) -> Result<Self> {
        Self::new_catalog(n, BTreeMap::from([(OBJECT, ProtocolConfig::Da { f, p })]))
    }

    /// Stands up one object under `config` on `n` nodes — the way every
    /// harness builds the cluster of an [`Entrant`]. Like any catalog
    /// (see [`ProtocolSim::build_catalog`]), except that an adaptive
    /// configuration's plan oracle is built with `tunables` instead of
    /// the canonical ones.
    pub fn deploy(n: usize, config: ProtocolConfig, tunables: Tunables) -> Result<Self> {
        let configs = BTreeMap::from([(OBJECT, config)]);
        Self::build(n, configs, doma_sim::NetworkConfig::default(), 0, tunables)
    }

    /// Resets every adaptive oracle to its initial state (scheme
    /// included). The failover driver calls this when it broadcasts
    /// `ModeChange { quorum: false }`: the nodes snap their replica sets
    /// back to the initial scheme on that transition, and the oracles
    /// must agree.
    pub fn reset_adaptive_oracles(&mut self) {
        self.planner.reset_oracles();
    }

    /// Builds a cluster serving a whole catalog of objects, each with its
    /// own SA/DA configuration (the multi-object extension; per-object
    /// costs are independent, and the unit tests verify the protocol's
    /// tallies equal the per-object analytic runs, summed).
    pub fn new_catalog(n: usize, configs: BTreeMap<ObjectId, ProtocolConfig>) -> Result<Self> {
        Self::build_catalog(n, configs, doma_sim::NetworkConfig::default(), 0)
    }

    /// The general constructor every other one goes through: a catalog
    /// with an explicit network model (e.g. the shared-bus medium of the
    /// E15 contention experiment) and a per-node memory cache of
    /// `cache_capacity` objects (0 = the paper's no-cache model; E16
    /// varies it).
    ///
    /// SA and DA objects run natively; every adaptive object gets its
    /// plan oracle ([`ProtocolConfig::oracle`], canonical tunables)
    /// installed in the driver: each injected request on it is decided by
    /// the oracle, and the nodes execute the shipped plans exactly.
    pub fn build_catalog(
        n: usize,
        configs: BTreeMap<ObjectId, ProtocolConfig>,
        network: doma_sim::NetworkConfig,
        cache_capacity: usize,
    ) -> Result<Self> {
        Self::build(n, configs, network, cache_capacity, Tunables::CANONICAL)
    }

    /// [`ProtocolSim::build_catalog`] with the adaptive oracles built
    /// with `tunables`.
    fn build(
        n: usize,
        configs: BTreeMap<ObjectId, ProtocolConfig>,
        network: doma_sim::NetworkConfig,
        cache_capacity: usize,
        tunables: Tunables,
    ) -> Result<Self> {
        if n == 0 || n > doma_core::MAX_PROCESSORS {
            return Err(DomaError::InvalidConfig(format!("bad cluster size {n}")));
        }
        if configs.is_empty() {
            return Err(DomaError::InvalidConfig("empty object catalog".into()));
        }
        for (object, config) in &configs {
            if !config.initial_scheme().is_subset(ProcSet::universe(n)) {
                return Err(DomaError::InvalidConfig(format!(
                    "initial scheme of {object} outside the cluster"
                )));
            }
            match config {
                ProtocolConfig::Sa { q } if q.len() < 2 => {
                    return Err(DomaError::InvalidConfig(format!(
                        "{object}: SA requires |Q| >= 2"
                    )));
                }
                ProtocolConfig::Da { f, p } if f.is_empty() || f.contains(*p) => {
                    return Err(DomaError::InvalidConfig(format!(
                        "{object}: DA requires non-empty F with p outside F"
                    )));
                }
                ProtocolConfig::Adaptive { initial, algo }
                    if initial.len() < algo.t() || matches!(algo, Entrant::Sa | Entrant::Da) =>
                {
                    return Err(DomaError::InvalidConfig(format!(
                        "{object}: adaptive config requires t <= |initial scheme| \
                         and an adaptive entrant"
                    )));
                }
                ProtocolConfig::Sa { .. }
                | ProtocolConfig::Da { .. }
                | ProtocolConfig::Adaptive { .. } => {}
            }
        }
        let mut engine = Engine::new(EngineConfig {
            // Per settle: no request comes within orders of magnitude of
            // this, so only a protocol that never quiesces trips it.
            max_events: 1_000_000,
            network,
        });
        for i in 0..n {
            engine.add_node(DomNode::with_catalog(
                ProcessorId::new(i),
                n,
                configs.clone(),
                cache_capacity,
            ));
        }
        let mut planner = ClientPlanner::new(n, configs.keys().copied());
        for (object, config) in &configs {
            if let Some(oracle) = config.oracle(n, tunables)? {
                planner.install_oracle(*object, oracle);
            }
        }
        Ok(ProtocolSim {
            engine,
            configs,
            n,
            planner,
            obs: None,
            request_spans: false,
            request_seq: 0,
        })
    }

    /// The configuration of object 0 (the single-object constructors'
    /// object).
    pub fn config(&self) -> &ProtocolConfig {
        &self.configs[&OBJECT]
    }

    /// The full object catalog.
    pub fn catalog(&self) -> &BTreeMap<ObjectId, ProtocolConfig> {
        &self.configs
    }

    /// Access to the underlying engine (failure injection, inspection).
    pub fn engine_mut(&mut self) -> &mut Engine<DomMsg, DomNode> {
        &mut self.engine
    }

    /// Read-only access to the underlying engine.
    pub fn engine_ref(&self) -> &Engine<DomMsg, DomNode> {
        &self.engine
    }

    /// Attaches a message trace that records into the attached obs
    /// bundle's event log, so message deliveries interleave with the
    /// engine's lifecycle events and the protocol's spans in one
    /// choreography log: every subsequent delivery/drop is one
    /// `sim.trace` record with a human-readable label. No-op until
    /// [`ProtocolSim::attach_obs`] is called.
    pub fn attach_tracer(&mut self) {
        if let Some(obs) = &self.obs {
            self.engine.set_tracer(obs.events().clone(), DomMsg::label);
        }
    }

    /// Attaches a fresh observability bundle (event log bounded to
    /// `event_capacity` records) to the engine and every node, and
    /// returns it. The engine contributes send/drop/lifecycle tallies
    /// (`sim.*`); each node contributes its cost breakdown
    /// (`protocol.cost.*` by algo/node/op), quorum spans and join/mode
    /// events. Summed over all label sets, `protocol.cost.control`,
    /// `.data` and `.io` equal [`ProtocolSim::report`]'s exact cost
    /// vector (call [`ProtocolSim::obs_flush`] first if a harness drove
    /// recovery outside message dispatch). Forks ([`ProtocolSim::fork`])
    /// do not carry the attachment.
    pub fn attach_obs(&mut self, event_capacity: usize) -> doma_obs::Obs {
        let obs = doma_obs::Obs::new(event_capacity);
        self.engine.set_obs(obs.clone());
        for i in 0..self.n {
            self.engine.actor_mut(NodeId(i)).set_obs(obs.clone());
        }
        self.obs = Some(obs.clone());
        obs
    }

    /// Turns on per-request causal spans: every subsequent
    /// [`ProtocolSim::execute_request_on`] call brackets its work between
    /// a `protocol.request` span enter/exit pair in the attached obs
    /// event log, records the adaptive oracle's decision as a
    /// `protocol.plan` point event, and emits one `protocol.request_cost`
    /// point event carrying the request's *exact* control/data/io delta
    /// (execution is strictly one-request-at-a-time, so the deltas
    /// telescope to the schedule total). Combine with
    /// [`ProtocolSim::attach_tracer`] so message deliveries land inside
    /// the span window —
    /// [`doma_obs::trace::TraceModel`] then reconstructs per-request
    /// critical paths. No-op until [`ProtocolSim::attach_obs`] is called.
    /// Opt-in because span records change obs snapshots (and therefore
    /// scenario golden digests).
    pub fn enable_request_spans(&mut self) {
        self.request_spans = true;
    }

    /// Opens the per-request span and captures the pre-request cost
    /// tallies; `None` unless spans are enabled and obs is attached.
    fn request_span_enter(
        &mut self,
        object: ObjectId,
        request: Request,
    ) -> Option<(doma_obs::SpanId, u64, CostVector)> {
        if !self.request_spans {
            return None;
        }
        let obs = self.obs.as_ref()?;
        let seq = self.request_seq;
        self.request_seq += 1;
        let id = span!(
            obs.events(),
            self.engine.now().ticks(),
            "protocol.request",
            issuer = processor_field(request.issuer),
            object = object_field(object),
            op = op_name(request),
            req = seq,
        );
        Some((id, seq, self.cost()))
    }

    /// Emits the request's exact cost delta and closes its span.
    fn request_span_exit(&mut self, span: Option<(doma_obs::SpanId, u64, CostVector)>) {
        let Some((id, seq, before)) = span else {
            return;
        };
        let Some(obs) = self.obs.as_ref() else {
            return;
        };
        let after = self.cost();
        let now = self.engine.now().ticks();
        event!(
            obs.events(),
            now,
            "protocol.request_cost",
            control = after.control.saturating_sub(before.control),
            data = after.data.saturating_sub(before.data),
            io = after.io.saturating_sub(before.io),
            req = seq,
        );
        obs.events().span_exit(id, now);
    }

    /// Flushes per-node observability cursors: I/O performed outside
    /// message dispatch (direct [`DomNode::recover_from_log`] calls by
    /// harnesses) is attributed to op `other`, after which the
    /// registry's summed `protocol.cost.*` equals
    /// [`ProtocolSim::report`]'s cost vector exactly.
    pub fn obs_flush(&mut self) {
        for i in 0..self.n {
            self.engine.actor_mut(NodeId(i)).obs_flush();
        }
    }

    /// Executes one request against object 0 to quiescence.
    pub fn execute_request(&mut self, request: Request) -> Result<()> {
        self.execute_request_on(OBJECT, request)
    }

    /// Executes one request against `object` to quiescence. With
    /// [`ProtocolSim::enable_request_spans`] on, the work is bracketed
    /// in a `protocol.request` span carrying the exact cost delta.
    pub fn execute_request_on(&mut self, object: ObjectId, request: Request) -> Result<()> {
        let span = self.request_span_enter(object, request);
        let result = self
            .inject_request_on(object, request)
            .and_then(|_| self.settle());
        self.request_span_exit(span);
        result.map(|_| ())
    }

    /// Injects one request against object 0 *without* running the cluster
    /// — the model checker's entry point: it then steps individual
    /// deliveries via [`ProtocolSim::dispatch_by_seq`]. Returns the
    /// injected client event's engine sequence number.
    pub fn inject_request(&mut self, request: Request) -> Result<u64> {
        self.inject_request_on(OBJECT, request)
    }

    /// Injects one request against `object` without running the cluster.
    /// Returns the injected client event's engine sequence number.
    pub fn inject_request_on(&mut self, object: ObjectId, request: Request) -> Result<u64> {
        let planned = self.planner.plan(object, request)?;
        self.record_plan_event(object, request, planned.decision);
        Ok(self.engine.inject(planned.to, 1, planned.msg))
    }

    /// Records an oracle's decision as a `protocol.plan` obs event —
    /// request-span tracing only, because event records change obs
    /// snapshots (and therefore scenario golden digests).
    fn record_plan_event(&self, object: ObjectId, request: Request, decision: Option<Decision>) {
        let Some(decision) = decision else { return };
        if !self.request_spans {
            return;
        }
        let Some(obs) = self.obs.as_ref() else { return };
        event!(
            obs.events(),
            self.engine.now().ticks(),
            "protocol.plan",
            decision = format!("exec={} saving={}", decision.exec, decision.saving),
            object = object_field(object),
            op = op_name(request),
        );
    }

    /// Runs the cluster to quiescence (after [`ProtocolSim::inject_request`]
    /// or fault scheduling) — the one way every driver drains the event
    /// queue. Surfaces the engine's event budget (a livelock guard counted
    /// from the start of this settle) as
    /// [`DomaError::EventBudgetExceeded`] instead of a hang. Returns the
    /// number of events dispatched.
    pub fn settle(&mut self) -> Result<u64> {
        let dispatched = self.engine.run_until_idle();
        if self.engine.budget_exhausted() {
            return Err(DomaError::EventBudgetExceeded { dispatched });
        }
        Ok(dispatched)
    }

    /// Every queued event as a model-checker choice point, labelled with
    /// the wire message it would deliver. See
    /// [`doma_sim::Engine::pending_events`].
    pub fn pending_events(&self) -> Vec<doma_sim::PendingEvent> {
        self.engine.pending_events(DomMsg::label)
    }

    /// Dispatches the queued event with the given engine sequence number
    /// (out of natural order if the checker says so). Returns `false` if
    /// no such event is queued or the event budget is exhausted.
    pub fn dispatch_by_seq(&mut self, seq: u64) -> bool {
        self.engine.dispatch_by_seq(seq)
    }

    /// Deep-copies the whole cluster: nodes, stores, in-flight messages,
    /// clocks and tallies. Forks are fully independent; engine sequence
    /// numbers continue from the same counter, so the same
    /// [`ProtocolSim::dispatch_by_seq`] calls on two forks take the same
    /// transitions — the property the model checker's search relies on.
    pub fn fork(&self) -> Self {
        let mut engine = self.engine.fork();
        // The engine's own obs attachment is not carried by its fork;
        // the cloned actors still hold theirs (shared counter handles).
        // Strip them: a model checker's speculative work must not tally
        // into the live registry.
        for i in 0..self.n {
            engine.actor_mut(NodeId(i)).clear_obs();
        }
        ProtocolSim {
            engine,
            configs: self.configs.clone(),
            n: self.n,
            planner: self.planner.fork(),
            // Forks don't carry the obs attachment (see above); span
            // tracing restarts disabled, but the sequence continues so
            // fork-recorded spans (if re-enabled) stay distinguishable.
            obs: None,
            request_spans: false,
            request_seq: self.request_seq,
        }
    }

    /// A hash of the cluster's semantic state: every node's
    /// [`DomNode::fingerprint`], liveness, and the multiset of in-flight
    /// messages (by content, not schedule position). States reached along
    /// different delivery orders fingerprint equal iff no node nor the
    /// network can distinguish them.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for i in 0..self.n {
            let id = NodeId(i);
            self.engine.actor(id).fingerprint().hash(&mut h);
            self.engine.is_alive(id).hash(&mut h);
        }
        let mut queued: Vec<u64> = self
            .pending_events()
            .iter()
            .map(|p| p.content_hash())
            .collect();
        queued.sort_unstable();
        queued.hash(&mut h);
        h.finish()
    }

    /// Installs reverted-fix switches on every node (regression tests
    /// only — see [`crate::BugSwitches`]).
    #[doc(hidden)]
    pub fn set_bug_switches(&mut self, bugs: crate::BugSwitches) {
        for i in 0..self.n {
            self.engine.actor_mut(NodeId(i)).set_bug_switches(bugs);
        }
    }

    /// Open-loop execution: injects the schedule's requests at a fixed
    /// arrival `interval` (in ticks) *without* waiting for each to finish.
    /// Runs of consecutive reads overlap freely (legal — §3.1 allows reads
    /// between consecutive writes to execute concurrently); a write acts
    /// as a barrier: the cluster quiesces before and after it, preserving
    /// the total order of writes the model assumes.
    ///
    /// At interval 0 every read of a run arrives at once: a concurrent
    /// read burst, the introduction's Ethernet-contention case.
    ///
    /// Returns per-read latencies so callers can compute percentiles —
    /// this is the "load → contention → response time" experiment of the
    /// paper's introduction, in its general form. Latencies are listed by
    /// node, then in completion order.
    ///
    /// The run records completed reads for its own length and leaves
    /// recording as it found it, on every exit: nodes that were not
    /// recording stop again, and an auditor's record keeps the run's
    /// reads for that auditor to take.
    pub fn execute_open_loop(
        &mut self,
        schedule: &Schedule,
        interval: u64,
    ) -> Result<OpenLoopReport> {
        let marks: Vec<Option<usize>> = (0..self.n)
            .map(|i| {
                self.engine
                    .actor(NodeId(i))
                    .recorded_reads()
                    .map(<[_]>::len)
            })
            .collect();
        for i in 0..self.n {
            self.engine.actor_mut(NodeId(i)).record_reads();
        }
        let wait_before = self.engine.bus_queue_wait();
        let start = self.engine.now();
        let run = self.inject_open_loop(schedule, interval);
        let mut latencies = Vec::new();
        for (i, mark) in marks.into_iter().enumerate() {
            let node = self.engine.actor_mut(NodeId(i));
            let reads = node.recorded_reads().unwrap_or_default();
            latencies.extend(reads[mark.unwrap_or(0)..].iter().map(|read| read.latency));
            if mark.is_none() {
                node.stop_recording_reads();
            }
        }
        run?;
        let mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        };
        Ok(OpenLoopReport {
            mean_response: mean,
            latencies,
            makespan: self.engine.now().ticks().saturating_sub(start.ticks()),
            bus_queue_wait: self.engine.bus_queue_wait() - wait_before,
        })
    }

    /// [`ProtocolSim::execute_open_loop`]'s injection loop, run to
    /// quiescence.
    fn inject_open_loop(&mut self, schedule: &Schedule, interval: u64) -> Result<()> {
        let mut pending_offset = 0u64;
        for request in schedule.iter() {
            if request.issuer.index() >= self.n {
                return Err(DomaError::InvalidConfig(format!(
                    "request {request} outside cluster of {}",
                    self.n
                )));
            }
            if request.is_read() {
                pending_offset += interval;
                let planned = self.planner.plan(OBJECT, request)?;
                self.record_plan_event(OBJECT, request, planned.decision);
                self.engine.inject(planned.to, pending_offset, planned.msg);
            } else {
                // Barrier: drain the in-flight reads, then the write.
                self.settle()?;
                pending_offset = 0;
                self.execute_request(request)?;
            }
        }
        self.settle()?;
        Ok(())
    }

    /// Executes an interleaved multi-object schedule to quiescence.
    pub fn execute_multi(&mut self, schedule: &MultiSchedule) -> Result<SimReport> {
        for MultiRequest { object, request } in schedule.requests() {
            self.execute_request_on(*object, *request)?;
        }
        Ok(self.report())
    }

    /// Executes a whole schedule to quiescence and reports exact tallies.
    pub fn execute(&mut self, schedule: &Schedule) -> Result<SimReport> {
        for request in schedule.iter() {
            self.execute_request(request)?;
        }
        Ok(self.report())
    }

    /// The exact cost tallies since construction: messages sent on the
    /// wire and I/O against the local stores — [`SimReport::cost`]
    /// without the per-node replica lookups the rest of a report needs.
    fn cost(&self) -> CostVector {
        let net = self.engine.net_stats();
        let io = (0..self.n)
            .map(|i| self.engine.actor(NodeId(i)).io_stats().total())
            .sum();
        CostVector::new(net.control_sent, net.data_sent, io)
    }

    /// The current report (tallies since construction).
    pub fn report(&self) -> SimReport {
        let mut holders = ProcSet::EMPTY;
        let mut reads = 0u64;
        let mut latency = 0u64;
        for i in 0..self.n {
            let node = self.engine.actor(NodeId(i));
            if node.holds_valid() {
                holders.insert(ProcessorId::new(i));
            }
            let (r, l) = node.read_metrics();
            reads += r;
            latency += l;
        }
        SimReport {
            cost: self.cost(),
            final_holders: holders,
            reads_completed: reads,
            read_latency_ticks: latency,
            mean_read_latency: if reads > 0 {
                latency as f64 / reads as f64
            } else {
                0.0
            },
            dropped_messages: self.engine.net_stats().dropped,
        }
    }

    /// Aggregate memory-cache counters across all nodes (zeros when
    /// caching is disabled).
    pub fn cache_stats(&self) -> doma_storage::CacheStats {
        let mut total = doma_storage::CacheStats::default();
        for i in 0..self.n {
            let s = self.engine.actor(NodeId(i)).cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// The highest version of object 0 written so far (INITIAL if none).
    pub fn latest_version(&self) -> Version {
        self.planner.latest_version(OBJECT)
    }

    /// The set of nodes whose stores hold the given version of object 0
    /// *validly*.
    pub fn holders_of(&self, version: Version) -> ProcSet {
        let mut holders = ProcSet::EMPTY;
        for i in 0..self.n {
            let node = self.engine.actor(NodeId(i));
            if node.holds_valid() && node.replica_version() == Some(version) {
                holders.insert(ProcessorId::new(i));
            }
        }
        holders
    }

    /// The set of nodes holding a valid replica of `object`.
    pub fn valid_holders_of(&self, object: ObjectId) -> ProcSet {
        let mut holders = ProcSet::EMPTY;
        for i in 0..self.n {
            if self.engine.actor(NodeId(i)).holds_valid_of(object) {
                holders.insert(ProcessorId::new(i));
            }
        }
        holders
    }

    /// Convenience for tests: the object id used by the cluster.
    pub fn object() -> doma_core::ObjectId {
        OBJECT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_algorithms::{DynamicAllocation, StaticAllocation};
    use doma_core::run_online;

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    /// An 8-node single-object cluster on the shared-bus medium.
    fn on_bus(config: ProtocolConfig) -> ProtocolSim {
        ProtocolSim::build_catalog(
            8,
            BTreeMap::from([(OBJECT, config)]),
            doma_sim::NetworkConfig::shared_bus(1, 3),
            0,
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(ProtocolSim::new_sa(4, ps(&[0])).is_err());
        assert!(ProtocolSim::new_sa(0, ps(&[0, 1])).is_err());
        assert!(ProtocolSim::new_sa(3, ps(&[0, 5])).is_err());
        assert!(ProtocolSim::new_da(4, ProcSet::EMPTY, ProcessorId::new(1)).is_err());
        assert!(ProtocolSim::new_da(4, ps(&[1]), ProcessorId::new(1)).is_err());
        assert!(ProtocolSim::new_sa(4, ps(&[0, 1])).is_ok());
    }

    #[test]
    fn rejects_requests_outside_cluster() {
        let mut sim = ProtocolSim::new_sa(3, ps(&[0, 1])).unwrap();
        assert!(sim.execute_request(Request::read(7usize)).is_err());
    }

    /// The headline integration property: the simulated protocol's exact
    /// tallies equal the analytic cost engine's, message for message.
    #[test]
    fn sa_tallies_match_analytic_cost_engine() {
        let schedule: Schedule = "r2 r0 w3 r1 w0 r3 r3 w2 r2".parse().unwrap();
        let mut sim = ProtocolSim::new_sa(4, ps(&[0, 1])).unwrap();
        let report = sim.execute(&schedule).unwrap();

        let mut sa = StaticAllocation::new(ps(&[0, 1])).unwrap();
        let analytic = run_online(&mut sa, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total);
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
        assert_eq!(report.dropped_messages, 0);
    }

    #[test]
    fn da_tallies_match_analytic_cost_engine() {
        let schedule: Schedule = "r2 r2 w3 r2 r1 w0 r3 w2 r0 r2 w1 r3".parse().unwrap();
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        let report = sim.execute(&schedule).unwrap();

        let mut da = DynamicAllocation::new(ps(&[0]), ProcessorId::new(1)).unwrap();
        let analytic = run_online(&mut da, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total);
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
    }

    #[test]
    fn da_with_larger_core_matches_too() {
        let schedule: Schedule = "r4 w2 r4 r4 w4 r0 r3 w3 r4".parse().unwrap();
        let mut sim = ProtocolSim::new_da(5, ps(&[0, 1]), ProcessorId::new(2)).unwrap();
        let report = sim.execute(&schedule).unwrap();

        let mut da = DynamicAllocation::new(ps(&[0, 1]), ProcessorId::new(2)).unwrap();
        let analytic = run_online(&mut da, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total);
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
    }

    #[test]
    fn reads_always_observe_latest_version() {
        // Linearizability at the schedule level: after each write, every
        // subsequent read (anywhere) returns the new version.
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        sim.execute_request(Request::write(3usize)).unwrap();
        let v1 = sim.latest_version();
        sim.execute_request(Request::read(2usize)).unwrap();
        // Reader 2 saved the object: it must hold v1.
        assert!(sim.holders_of(v1).contains(ProcessorId::new(2)));
        sim.execute_request(Request::write(0usize)).unwrap();
        let v2 = sim.latest_version();
        // 2's replica is now stale; holders of v2 are exactly {0, 1}.
        assert_eq!(sim.holders_of(v2), ps(&[0, 1]));
        assert!(!sim.holders_of(v1).contains(ProcessorId::new(2)));
    }

    #[test]
    fn local_reads_have_zero_latency_remote_reads_do_not() {
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        sim.execute_request(Request::read(0usize)).unwrap(); // local
        let r = sim.report();
        assert_eq!(r.reads_completed, 1);
        assert_eq!(r.mean_read_latency, 0.0);
        sim.execute_request(Request::read(3usize)).unwrap(); // remote
        let r = sim.report();
        assert_eq!(r.reads_completed, 2);
        assert!(r.mean_read_latency > 0.0);
    }

    #[test]
    fn trace_records_the_da_message_choreography() {
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        let log = sim.attach_obs(64).events().clone();
        sim.attach_tracer();
        // Saving-read by 2, then a core write that must invalidate 2.
        sim.execute_request(Request::read(2usize)).unwrap();
        sim.execute_request(Request::write(0usize)).unwrap();
        let labels: Vec<String> = log
            .snapshot()
            .iter()
            .filter(|r| r.name == doma_obs::trace::MESSAGE_EVENT)
            .map(|r| {
                let field = |key: &str| r.fields.get(key).unwrap();
                format!("{}->{} {}", field("from"), field("to"), field("label"))
            })
            .collect();
        assert_eq!(
            labels,
            vec![
                "2->0 ReadReq(obj0,saving)",
                "0->2 ObjData(obj0,v0)",
                // Deliveries are recorded in arrival order: the control
                // invalidation (latency 1) beats the data propagation
                // (latency 3).
                "0->2 Invalidate(obj0,v1)",
                "0->1 WriteProp(obj0,v1)",
            ],
            "unexpected choreography: {labels:#?}"
        );
        assert_eq!(log.dropped_events(), 0);
    }

    #[test]
    fn multi_object_protocol_matches_analytic_sum() {
        use doma_core::{CostVector, MultiSchedule, ObjectId};
        use std::collections::BTreeMap;

        // Three objects under different managers on one 6-node cluster.
        let mut configs = BTreeMap::new();
        configs.insert(
            ObjectId(1),
            ProtocolConfig::Da {
                f: ps(&[0]),
                p: ProcessorId::new(1),
            },
        );
        configs.insert(
            ObjectId(2),
            ProtocolConfig::Da {
                f: ps(&[2]),
                p: ProcessorId::new(3),
            },
        );
        configs.insert(ObjectId(3), ProtocolConfig::Sa { q: ps(&[1, 4]) });

        // Interleaved multi-object traffic.
        let mut multi = MultiSchedule::default();
        for (obj, text) in [
            (1u64, "r4 r4 w5 r4"),
            (2, "w0 r1 r1 w2 r5"),
            (3, "r0 w2 r4 r3"),
        ] {
            let single: Schedule = text.parse().unwrap();
            for r in single.iter() {
                multi.push(ObjectId(obj), r);
            }
        }

        let mut sim = ProtocolSim::new_catalog(6, configs.clone()).unwrap();
        let report = sim.execute_multi(&multi).unwrap();

        // Analytic expectation: per-object independent runs, summed.
        let mut expected = CostVector::ZERO;
        for (object, schedule) in multi.per_object() {
            let analytic = match &configs[&object] {
                ProtocolConfig::Da { f, p } => {
                    let mut da = DynamicAllocation::new(*f, *p).unwrap();
                    doma_core::run_online(&mut da, &schedule).unwrap()
                }
                ProtocolConfig::Sa { q } => {
                    let mut sa = StaticAllocation::new(*q).unwrap();
                    doma_core::run_online(&mut sa, &schedule).unwrap()
                }
                ProtocolConfig::Adaptive { .. } => unreachable!("catalog is SA/DA only"),
            };
            expected += analytic.costed.total;
            assert_eq!(
                sim.valid_holders_of(object),
                analytic.costed.final_scheme,
                "replica set of {object} diverged"
            );
        }
        assert_eq!(report.cost, expected, "multi-object tallies must decompose");
    }

    #[test]
    fn injected_reads_target_the_named_object() {
        use doma_core::ObjectId;
        use std::collections::BTreeMap;
        let mut configs = BTreeMap::new();
        configs.insert(ObjectId(5), ProtocolConfig::Sa { q: ps(&[0, 1]) });
        configs.insert(ObjectId(7), ProtocolConfig::Sa { q: ps(&[2, 3]) });
        let mut sim = ProtocolSim::new_catalog(6, configs).unwrap();
        sim.inject_request_on(ObjectId(7), Request::read(4usize))
            .unwrap();
        sim.inject_request_on(ObjectId(7), Request::read(5usize))
            .unwrap();
        sim.settle().unwrap();
        let report = sim.report();
        assert_eq!(report.reads_completed, 2);
        assert!(report.mean_read_latency > 0.0);
        // Only object 7's replicas served: object 5's holders unchanged,
        // and a reader outside the cluster is rejected.
        assert_eq!(sim.valid_holders_of(ObjectId(5)), ps(&[0, 1]));
        assert_eq!(sim.valid_holders_of(ObjectId(7)), ps(&[2, 3]));
        assert!(sim
            .inject_request_on(ObjectId(7), Request::read(9usize))
            .is_err());
    }

    #[test]
    fn open_loop_report_is_run_local() {
        // A prior read must not pollute the run's latencies or mean.
        let mut sim = ProtocolSim::new_sa(4, ps(&[0, 1])).unwrap();
        sim.execute_request(Request::read(3usize)).unwrap();
        let before = sim.report();
        assert_eq!(before.reads_completed, 1);
        let burst: Schedule = "r2".parse().unwrap();
        let run = sim.execute_open_loop(&burst, 0).unwrap();
        assert_eq!(run.latencies.len(), 1);
        let after = sim.report();
        assert_eq!(
            after.read_latency_ticks - before.read_latency_ticks,
            run.latencies[0]
        );
        assert_eq!(run.mean_response, run.latencies[0] as f64);
    }

    #[test]
    fn catalog_validation() {
        use doma_core::ObjectId;
        use std::collections::BTreeMap;
        assert!(ProtocolSim::new_catalog(4, BTreeMap::new()).is_err());
        let mut bad = BTreeMap::new();
        bad.insert(ObjectId(1), ProtocolConfig::Sa { q: ps(&[0]) });
        assert!(ProtocolSim::new_catalog(4, bad).is_err());
        let mut bad = BTreeMap::new();
        bad.insert(
            ObjectId(1),
            ProtocolConfig::Da {
                f: ps(&[1]),
                p: ProcessorId::new(1),
            },
        );
        assert!(ProtocolSim::new_catalog(4, bad).is_err());
        let mut sim_configs = BTreeMap::new();
        sim_configs.insert(ObjectId(1), ProtocolConfig::Sa { q: ps(&[0, 1]) });
        let mut sim = ProtocolSim::new_catalog(4, sim_configs).unwrap();
        // Requests against uncatalogued objects are rejected.
        assert!(sim
            .execute_request_on(ObjectId(9), Request::read(0usize))
            .is_err());
    }

    #[test]
    fn open_loop_saturates_shared_bus() {
        // 30 reads from rotating outsiders at a 1-tick arrival interval:
        // on point-to-point links the response time stays flat; on a
        // shared bus the queue builds and p95 latency blows up.
        let reads: Schedule = (0..30).map(|k| Request::read(2 + (k % 6))).collect();
        let mut p2p = ProtocolSim::new_sa(8, ps(&[0, 1])).unwrap();
        let a = p2p.execute_open_loop(&reads, 1).unwrap();
        assert_eq!(a.latencies.len(), 30);
        assert_eq!(a.mean_response, 4.0, "no contention on p2p links");
        assert_eq!(a.bus_queue_wait, 0);

        let mut bus = on_bus(ProtocolConfig::Sa { q: ps(&[0, 1]) });
        let b = bus.execute_open_loop(&reads, 1).unwrap();
        assert_eq!(b.latencies.len(), 30);
        assert!(
            b.mean_response > 3.0 * a.mean_response,
            "arrival rate 1/tick exceeds bus service rate (4 ticks/read): {}",
            b.mean_response
        );
        // The queue builds over the run: the worst latency dwarfs the best.
        let max = *b.latencies.iter().max().unwrap();
        let min = *b.latencies.iter().min().unwrap();
        assert!(max > 5 * min, "queueing growth expected: {min}..{max}");
    }

    #[test]
    fn open_loop_writes_act_as_barriers() {
        // r2 r2 w0 r2: the write invalidates nothing for SA, but must be
        // ordered after the in-flight reads and before the next.
        let schedule: Schedule = "r2 r3 w0 r2".parse().unwrap();
        let mut sim = ProtocolSim::new_sa(5, ps(&[0, 1])).unwrap();
        let report = sim.execute_open_loop(&schedule, 2).unwrap();
        assert_eq!(report.latencies.len(), 3);
        // Tallies equal the closed-loop run of the same schedule: the
        // open loop changes timing, never message/I/O counts.
        let mut closed = ProtocolSim::new_sa(5, ps(&[0, 1])).unwrap();
        let closed_report = closed.execute(&schedule).unwrap();
        assert_eq!(sim.report().cost, closed_report.cost);
    }

    #[test]
    fn open_loop_under_slow_arrivals_matches_closed_loop_latency() {
        // With arrivals far slower than service, open loop == closed loop.
        let reads: Schedule = (0..10).map(|k| Request::read(2 + (k % 3))).collect();
        let mut bus = on_bus(ProtocolConfig::Sa { q: ps(&[0, 1]) });
        let r = bus.execute_open_loop(&reads, 100).unwrap();
        assert_eq!(r.mean_response, 4.0, "no queueing at low load");
    }

    #[test]
    fn read_burst_contends_on_bus_but_not_point_to_point() {
        // A burst is an open-loop run of reads at interval 0.
        let burst: Schedule = (2..8).map(Request::read).collect();

        // Point-to-point: every remote read completes in cc + cd ticks,
        // regardless of burst size.
        let mut p2p = ProtocolSim::new_sa(8, ps(&[0, 1])).unwrap();
        let r = p2p.execute_open_loop(&burst, 0).unwrap();
        assert_eq!(r.latencies.len(), 6);
        assert_eq!(r.mean_response, 4.0);
        assert_eq!(r.bus_queue_wait, 0);

        // Shared bus: the six requests and six replies serialize.
        let mut bus = on_bus(ProtocolConfig::Sa { q: ps(&[0, 1]) });
        let r = bus.execute_open_loop(&burst, 0).unwrap();
        assert_eq!(r.latencies.len(), 6);
        assert!(
            r.mean_response > 4.0,
            "bus contention must raise response time, got {}",
            r.mean_response
        );
        assert!(r.bus_queue_wait > 0);
        assert!(r.makespan >= 6 * (1 + 3), "24 ticks of serialized traffic");
    }

    #[test]
    fn da_second_burst_is_contention_free() {
        // First burst: everyone joins via saving-reads (pays contention).
        // Second burst: all reads are local — zero response time even on
        // a saturated bus. This is DA's answer to the intro's Ethernet
        // argument.
        let burst: Schedule = (2..8).map(Request::read).collect();
        let mut bus = on_bus(ProtocolConfig::Da {
            f: ps(&[0]),
            p: ProcessorId::new(1),
        });
        let first = bus.execute_open_loop(&burst, 0).unwrap();
        assert!(first.mean_response > 4.0);
        let second = bus.execute_open_loop(&burst, 0).unwrap();
        assert_eq!(second.latencies.len(), 6);
        assert_eq!(second.mean_response, 0.0);
        assert_eq!(second.bus_queue_wait, 0);
    }

    #[test]
    fn burst_rejects_unknown_readers() {
        let mut sim = ProtocolSim::new_sa(4, ps(&[0, 1])).unwrap();
        let burst: Schedule = "r9".parse().unwrap();
        assert!(sim.execute_open_loop(&burst, 0).is_err());
    }

    /// How many reads each node holds, `None` for a node not recording.
    fn records(sim: &ProtocolSim) -> Vec<Option<usize>> {
        (0..sim.n)
            .map(|i| sim.engine.actor(NodeId(i)).recorded_reads().map(<[_]>::len))
            .collect()
    }

    #[test]
    fn open_loop_leaves_an_existing_record_to_its_consumer() {
        let schedule: Schedule = "r2 r3 w0 r2 r4".parse().unwrap();
        let sa = || on_bus(ProtocolConfig::Sa { q: ps(&[0, 1]) });
        let mut fresh = sa();
        let mut recording = sa();
        for i in 0..recording.n {
            recording.engine.actor_mut(NodeId(i)).record_reads();
        }
        // A read completed before the run is no part of its latencies.
        for sim in [&mut fresh, &mut recording] {
            sim.execute_request(Request::read(5usize)).unwrap();
        }
        let expected = fresh.execute_open_loop(&schedule, 1).unwrap();
        let run = recording.execute_open_loop(&schedule, 1).unwrap();
        assert_eq!(run.latencies, expected.latencies);
        assert_eq!(
            records(&fresh),
            vec![None; 8],
            "the run stops what it started"
        );
        let held: usize = records(&recording).into_iter().flatten().sum();
        assert_eq!(held, 1 + run.latencies.len(), "the auditor's reads stay");
        let taken: usize = (0..recording.n)
            .map(|i| {
                recording
                    .engine
                    .actor_mut(NodeId(i))
                    .take_recorded_reads()
                    .count()
            })
            .sum();
        assert_eq!(taken, held);
        assert_eq!(records(&recording), vec![Some(0); 8]);
    }

    #[test]
    fn a_rejected_open_loop_run_leaves_no_node_recording() {
        let mut sim = ProtocolSim::new_sa(4, ps(&[0, 1])).unwrap();
        let schedule: Schedule = "r2 r3 w0 r2 r9".parse().unwrap();
        assert!(sim.execute_open_loop(&schedule, 1).is_err());
        assert_eq!(records(&sim), vec![None; 4]);
    }

    #[test]
    fn obs_registry_decomposes_the_exact_tallies() {
        let schedule: Schedule = "r2 r2 w3 r2 r1 w0 r3 w2 r0".parse().unwrap();
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        let obs = sim.attach_obs(512);
        let report = sim.execute(&schedule).unwrap();
        sim.obs_flush();
        let snap = obs.metrics().snapshot();
        // The headline property, extended to the registry: the summed
        // per-(algo,node,op) breakdown equals the exact cost vector.
        assert_eq!(crate::registry_cost(&snap), report.cost);
        // The engine-level send tallies agree with the protocol-level
        // decomposition (both count every ctx.send exactly once).
        assert_eq!(
            snap.counter("sim", "msgs_sent", &[("kind", "control")]),
            report.cost.control
        );
        assert_eq!(
            snap.counter("sim", "msgs_sent", &[("kind", "data")]),
            report.cost.data
        );
        // Save-reads are DA's signature op class: the breakdown shows
        // them (outsider r2 joins via a saving read).
        assert!(
            snap.metrics
                .keys()
                .any(|k| k.name == "cost.data" && k.label("op") == Some("save-read")),
            "expected a save-read data cell, got {snap}"
        );
        // Join-list growth surfaced as events and counters.
        assert!(snap.sum_counters("protocol", "joins") > 0);
        assert!(obs
            .events()
            .snapshot()
            .iter()
            .any(|e| e.name == "protocol.join"));
    }

    #[test]
    fn request_spans_number_from_the_first_span_opened() {
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        // Enabled but detached: a no-op, so these two open no span and
        // must not use up sequence numbers.
        sim.enable_request_spans();
        sim.execute_request(Request::read(2usize)).unwrap();
        sim.execute_request(Request::write(3usize)).unwrap();
        let obs = sim.attach_obs(64);
        sim.execute_request(Request::read(1usize)).unwrap();
        sim.execute_request(Request::read(2usize)).unwrap();
        let opened: Vec<String> = obs
            .events()
            .snapshot()
            .iter()
            .filter(|e| e.name == "protocol.request" && e.phase == doma_obs::EventPhase::Enter)
            .map(|e| e.to_string())
            .collect();
        assert_eq!(
            opened,
            [
                "#0 t=10 protocol.request issuer=P1 object=obj0 op=read req=0 [span enter]",
                "#4 t=15 protocol.request issuer=P2 object=obj0 op=read req=1 [span enter]",
            ]
        );
    }

    #[test]
    fn forks_do_not_tally_into_the_live_registry() {
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        let obs = sim.attach_obs(64);
        sim.execute_request(Request::read(2usize)).unwrap();
        let before = obs.metrics().snapshot();
        let mut fork = sim.fork();
        fork.execute_request(Request::read(3usize)).unwrap();
        fork.execute_request(Request::write(0usize)).unwrap();
        assert_eq!(obs.metrics().snapshot(), before, "fork leaked tallies");
        // The original keeps tallying after the fork.
        sim.execute_request(Request::read(3usize)).unwrap();
        assert!(
            obs.metrics()
                .snapshot()
                .sum_counters("protocol", "cost.control")
                > before.sum_counters("protocol", "cost.control")
        );
    }

    #[test]
    fn quorum_reads_open_and_close_spans() {
        let mut sim = ProtocolSim::new_da(4, ps(&[0]), ProcessorId::new(1)).unwrap();
        let obs = sim.attach_obs(256);
        for i in 0..4 {
            sim.engine_mut()
                .inject(NodeId(i), 1, DomMsg::ModeChange { quorum: true });
        }
        sim.settle().unwrap();
        sim.execute_request(Request::read(2usize)).unwrap();
        let events = obs.events().snapshot();
        let enters = events
            .iter()
            .filter(|e| {
                e.name == "protocol.quorum" && matches!(e.phase, doma_obs::EventPhase::Enter)
            })
            .count();
        let exits = events
            .iter()
            .filter(|e| {
                e.name == "protocol.quorum" && matches!(e.phase, doma_obs::EventPhase::Exit { .. })
            })
            .count();
        assert!(enters >= 1, "expected a quorum span, got {events:#?}");
        assert_eq!(enters, exits, "every quorum span must close: {events:#?}");
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.sum_counters("protocol", "mode_changes"), 4);
        assert_eq!(
            snap.sum_counters("protocol", "quorum_rounds"),
            enters as u64
        );
    }

    /// The headline parity property extended to the adaptive algorithms:
    /// the plan-executing protocol's exact tallies equal the analytic
    /// cost engine's run of the *same* algorithm, message for message.
    #[test]
    fn adaptive_tallies_match_analytic_cost_engine() {
        let schedule: Schedule = "r2 r2 w3 r2 r1 w0 r3 w2 r0 r2 w1 r3 r4 r4 w4 r1 r5 w5 r5 r0"
            .parse()
            .unwrap();
        let n = 6;
        for entrant in Entrant::ALL {
            let name = entrant.as_str();
            let mut sim = entrant.sim(n).unwrap();
            let report = sim.execute(&schedule).unwrap();
            let mut algo = entrant.config().algorithm(n, Tunables::CANONICAL).unwrap();
            let analytic = run_online(&mut *algo, &schedule).unwrap();
            assert_eq!(
                report.cost, analytic.costed.total,
                "{name}: protocol tallies diverged from the analytic engine"
            );
            assert_eq!(
                report.final_holders, analytic.costed.final_scheme,
                "{name}: final replica set diverged from the analytic scheme"
            );
            assert_eq!(report.dropped_messages, 0);
        }
    }

    #[test]
    fn adaptive_forks_advance_independent_oracles() {
        let mut sim = Entrant::MobileMirror.sim(4).unwrap();
        sim.execute_request(Request::read(2usize)).unwrap();
        let mut fork = sim.fork();
        // Diverge: the fork sees a write, the original another read.
        fork.execute_request(Request::write(3usize)).unwrap();
        sim.execute_request(Request::read(3usize)).unwrap();
        // MobileMirror mirrors on read: both readers joined the
        // original's scheme, which only ever grows on reads.
        assert_eq!(sim.report().final_holders, ps(&[0, 1, 2, 3]));
        // The fork's write collapsed its scheme to the t=2 execution set
        // around the writer (recency keeps the recent reader 2).
        assert_eq!(fork.report().final_holders, ps(&[2, 3]));
        // And the two clusters kept independent version counters.
        assert_eq!(fork.latest_version(), Version(1));
        assert_eq!(sim.latest_version(), Version(0));
    }

    #[test]
    fn adaptive_rejects_unknown_oracle_names() {
        // SA and DA have their own native protocols: neither the oracle
        // table nor the catalog accepts them as an adaptive configuration.
        for algo in [Entrant::Sa, Entrant::Da] {
            let config = ProtocolConfig::Adaptive {
                initial: ps(&[0, 1]),
                algo,
            };
            assert!(config.oracle(4, Tunables::CANONICAL).is_err());
            assert!(ProtocolSim::deploy(4, config, Tunables::CANONICAL).is_err());
            assert!(ProtocolSim::new_catalog(4, BTreeMap::from([(OBJECT, config)])).is_err());
        }
    }

    #[test]
    fn da_entrant_is_the_base_station_deployment() {
        let sim = Entrant::Da.sim(6).unwrap();
        let ProtocolConfig::Da { f, p } = sim.config() else {
            panic!("expected DA, got {:?}", sim.config());
        };
        assert_eq!(*f, ps(&[0]));
        assert_eq!(*p, ProcessorId::new(1));
    }
}

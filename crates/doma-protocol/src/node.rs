//! The per-processor protocol state machine.

use crate::catalog::ObjectCatalog;
use crate::obs::{object_field, object_of, op_of, Dim, NodeObs, NodeTally, Op};
use crate::roster::Entrant;
use crate::{DomMsg, ReadPlan, WritePlan};
use doma_core::{DomaError, ObjectId, ProcSet, ProcessorId};
use doma_obs::{event, span};
use doma_sim::{Actor, Context, MsgKind, NodeId, SimTime};
use doma_storage::{CacheStats, CachedStore, IoStats, LocalStore, Payload, RedoLog, Version};
use std::collections::{BTreeMap, VecDeque};

/// The object id used by the single-object convenience constructors (the
/// paper analyzes a single object).
pub(crate) const OBJECT: ObjectId = ObjectId(0);

/// Which DOM algorithm governs one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolConfig {
    /// Static allocation over the fixed scheme `Q` (read-one-write-all).
    Sa {
        /// The fixed allocation scheme.
        q: ProcSet,
    },
    /// Dynamic allocation with core `F` and a-priori floater `p`.
    Da {
        /// The always-current core set (size `t-1`).
        f: ProcSet,
        /// The designated floating member (`p ∉ F`).
        p: ProcessorId,
    },
    /// An adaptive algorithm whose placement decisions are computed by a
    /// driver-side oracle ([`ProtocolConfig::oracle`]) and carried in the
    /// client requests' plans. Nodes execute the plans
    /// exactly; the quorum failure fallback ignores them. The threshold
    /// the oracle maintains is the entrant's own ([`Entrant::t`]).
    Adaptive {
        /// The oracle's initial allocation scheme (preloaded replicas).
        initial: ProcSet,
        /// Which adaptive entrant the oracle runs.
        algo: Entrant,
    },
}

impl ProtocolConfig {
    /// The availability threshold `t` implied by the configuration.
    pub fn t(&self) -> usize {
        match self {
            ProtocolConfig::Sa { q } => q.len(),
            ProtocolConfig::Da { f, .. } => f.len() + 1,
            ProtocolConfig::Adaptive { algo, .. } => algo.t(),
        }
    }

    /// The initial allocation scheme.
    pub fn initial_scheme(&self) -> ProcSet {
        match self {
            ProtocolConfig::Sa { q } => *q,
            ProtocolConfig::Da { f, p } => f.with(*p),
            ProtocolConfig::Adaptive { initial, .. } => *initial,
        }
    }

    /// Whether `id` is a DA core member: it keeps a join-list and owes
    /// the invalidations of every write it learns of.
    fn is_core(&self, id: ProcessorId) -> bool {
        matches!(self, ProtocolConfig::Da { f, .. } if f.contains(id))
    }

    /// Whether `id` is the primary core member, the one that tracks the
    /// floating member.
    fn is_primary(&self, id: ProcessorId) -> bool {
        matches!(self, ProtocolConfig::Da { f, .. } if f.any_member() == Some(id))
    }

    /// DA's a-priori floating member `p`.
    fn floater(&self) -> Option<ProcessorId> {
        match self {
            ProtocolConfig::Da { p, .. } => Some(*p),
            ProtocolConfig::Sa { .. } | ProtocolConfig::Adaptive { .. } => None,
        }
    }

    fn da_exec_set(&self, writer: ProcessorId) -> ProcSet {
        match self {
            ProtocolConfig::Da { f, p } => {
                let core_or_floater = f.with(*p);
                if core_or_floater.contains(writer) {
                    core_or_floater
                } else {
                    f.with(writer)
                }
            }
            ProtocolConfig::Sa { q } => *q,
            ProtocolConfig::Adaptive { initial, .. } => *initial,
        }
    }
}

fn proc(n: NodeId) -> ProcessorId {
    ProcessorId::new(n.0)
}

fn node(p: ProcessorId) -> NodeId {
    NodeId(p.index())
}

/// In-flight quorum operation state (failure mode only).
#[derive(Debug, Clone)]
struct PendingQuorum {
    /// Distinct processors whose response has been counted (the local
    /// replica counts as one). A set, not a counter: under fault
    /// injection a duplicated reply must not double-count its sender, or
    /// a "majority" could be assembled from fewer distinct nodes and lose
    /// the quorum-intersection property.
    responders: ProcSet,
    /// Read-quorum size: a majority of the cluster, so it intersects
    /// every write quorum.
    needed: usize,
    /// This operation's wire round tag. Replies carrying any other round
    /// (a delayed straggler from an earlier operation, or a leftover reply
    /// to an operation that already assembled its majority) are discarded
    /// instead of being counted — their version information belongs to a
    /// different point in time.
    round: u64,
    /// Raw accepted-reply count, *not* deduplicated by sender. Only
    /// consulted when [`BugSwitches::count_duplicate_responders`] reverts
    /// the set-based dedup (regression testing); `responders` is
    /// authoritative otherwise.
    counted: usize,
    best: Option<(Version, Payload)>,
    store_result: bool,
}

/// Test-only switches that revert individual hardening fixes, so the
/// model checker's regression suite can demonstrate each fix is load-
/// bearing: with the switch on, `doma_fault::explore` must find the
/// interleaving that violates the corresponding safety property.
///
/// Not part of the public protocol surface — never set these outside
/// tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BugSwitches {
    /// Revert the quorum-round wire tags: count any reply for this object
    /// toward the current operation, as the pre-hardening protocol did.
    pub ignore_round_tags: bool,
    /// Revert responder deduplication: count duplicated replies toward
    /// the quorum majority.
    pub count_duplicate_responders: bool,
    /// Revert the invalidation floor: let delayed/duplicated data
    /// messages re-validate replicas whose invalidation was already
    /// processed.
    pub no_invalidated_floor: bool,
}

/// One completed read, as observed by the issuing node — the record the
/// fault-injection invariant checker audits for one-copy semantics. A
/// node keeps these only while a consumer records them (see
/// [`DomNode::record_reads`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRead {
    /// The object read.
    pub object: ObjectId,
    /// The version returned (`None` for a quorum read that assembled a
    /// majority of `NoData` replies — possible only on an empty store).
    pub version: Option<Version>,
    /// Request-to-completion latency in ticks.
    pub latency: u64,
}

/// Everything one processor keeps about one object — §4.2's logical
/// record: the governing scheme, the DA core member's bookkeeping, and
/// the per-object failure-mode and metric state. One per catalog slot;
/// [`DomNode::deliver`] resolves a message's object to its slot once and
/// every handler indexes this record by it.
#[derive(Debug, Clone)]
struct ObjectState {
    config: ProtocolConfig,
    /// Core members only: processors that joined via saving-reads and
    /// must be invalidated on the next write.
    join_list: ProcSet,
    /// Primary core member only: the current scheme member in no
    /// join-list — the original floater `p`, or the last outsider writer.
    extra: Option<ProcessorId>,
    /// Round-robin cursor for picking a serving core member.
    serve_cursor: usize,
    /// The highest version an [`DomMsg::Invalidate`] named as superseding
    /// the local replica ([`Version::INITIAL`] = no floor). Replicas
    /// older than this must never be (re-)validated or served: under
    /// fault injection a delayed or duplicated data message could
    /// otherwise resurrect a replica whose invalidation was already
    /// processed.
    invalidated_below: Version,
    /// The in-flight quorum operation (failure mode; at most one).
    pending: Option<PendingQuorum>,
    /// FIFO queue of outstanding read start-times (open-loop execution
    /// can have several reads of one object in flight at once).
    read_started: VecDeque<SimTime>,
}

/// One processor: local store + protocol state machine, serving a catalog
/// of objects each under its own SA/DA configuration.
///
/// In normal mode the node implements SA or DA exactly as specified in
/// §4.2; in quorum mode (failure fallback, §2) reads and writes go to a
/// majority.
#[derive(Debug, Clone)]
pub struct DomNode {
    id: ProcessorId,
    n: usize,
    /// The node's only per-object table.
    catalog: ObjectCatalog<ObjectState>,
    store: CachedStore,
    // --- failure mode ---
    quorum_mode: bool,
    /// Monotone counter tagging each quorum operation this node starts
    /// (round 0 is reserved for plain forwarded reads). Deliberately NOT
    /// reset on crash: a reply to a pre-crash operation must never match a
    /// post-recovery one.
    quorum_round: u64,
    // --- metrics ---
    reads_completed: u64,
    read_latency_ticks: u64,
    /// Completed reads not yet taken, in completion order; `None` until
    /// a consumer starts recording ([`DomNode::record_reads`]), so a node
    /// nobody audits keeps memory flat in the length of its run.
    read_record: Option<Vec<CompletedRead>>,
    /// Protocol-level errors (for example a message naming an
    /// unconfigured object). [`Actor::on_message`] cannot return them, so
    /// they are recorded here for harnesses to assert on.
    errors: Vec<DomaError>,
    /// Reverted-fix switches for regression testing (all off normally).
    bugs: BugSwitches,
    /// Live observability attachment (see [`DomNode::set_obs`]); `None`
    /// until a bundle is attached. Deliberately excluded from
    /// [`DomNode::fingerprint`] — instrumentation must never influence
    /// state-space deduplication. Boxed: a detached node carries one
    /// pointer, not the counter table.
    obs: Option<Box<NodeObs>>,
}

impl DomNode {
    /// Creates a node serving a catalog of objects. Nodes in an object's
    /// initial allocation scheme are preloaded with version 0 of it (no
    /// I/O charged).
    ///
    /// `cache_capacity = 0` reproduces the paper's model (every read is a
    /// local-database I/O); a positive capacity adds the CDVM-style memory
    /// tier measured by the E16 ablation.
    pub fn with_catalog(
        id: ProcessorId,
        n: usize,
        configs: BTreeMap<ObjectId, ProtocolConfig>,
        cache_capacity: usize,
    ) -> Self {
        // Version 0 of every preloaded object is the same bytes: one
        // allocation per node, shared by table and log.
        let initial = Payload::from(*b"initial");
        let mut store = LocalStore::new();
        let records = configs
            .into_iter()
            .map(|(object, config)| {
                if config.initial_scheme().contains(id) {
                    store.output(object, Version::INITIAL, initial.clone());
                }
                let state = ObjectState {
                    config,
                    join_list: ProcSet::EMPTY,
                    extra: config.floater().filter(|_| config.is_primary(id)),
                    serve_cursor: 0,
                    invalidated_below: Version::INITIAL,
                    pending: None,
                    read_started: VecDeque::new(),
                };
                (object, state)
            })
            .collect();
        // Preloads are free: the initial scheme is given, not written.
        store.reset_io_stats();
        DomNode {
            id,
            n,
            catalog: ObjectCatalog::from_map(records),
            store: CachedStore::wrap(store, cache_capacity),
            quorum_mode: false,
            quorum_round: 0,
            reads_completed: 0,
            read_latency_ticks: 0,
            read_record: None,
            errors: Vec::new(),
            bugs: BugSwitches::default(),
            obs: None,
        }
    }

    /// Attaches the shared observability bundle: the node's cost
    /// counters (`protocol.cost.{control,data,io}` by algo/node/op),
    /// quorum spans and join/mode events all flow into it. The store's
    /// current I/O tally becomes the attribution baseline, so
    /// pre-attachment I/O is never charged to an operation.
    pub fn set_obs(&mut self, bundle: doma_obs::Obs) {
        let label = format!("N{}", self.id.index());
        let io_seen = self.io_stats().total();
        self.obs = Some(Box::new(NodeObs::new(bundle, label, io_seen)));
    }

    /// Detaches observability. Forks of instrumented clusters call this
    /// so speculative work is not tallied into the shared registry.
    pub fn clear_obs(&mut self) {
        self.obs = None;
    }

    /// Attributes I/O performed outside message dispatch to op `other`
    /// (e.g. a harness calling [`DomNode::recover_from_log`] directly).
    /// Drivers call this before snapshotting, after which the summed
    /// `protocol.cost.io` equals the node's exact I/O tally.
    pub fn obs_flush(&mut self) {
        self.obs_account_io(Op::Other, None);
    }

    /// End-of-dispatch accounting: the I/O delta since the cursor is
    /// charged to the handled operation, under the entrant governing the
    /// delivered message's object (`None`: a whole-node message).
    fn obs_account_io(&mut self, op: Op, slot: Option<usize>) {
        let Some(obs) = self.obs.as_mut() else { return };
        let io_now = self.store.store().io_stats().total();
        let delta = io_now.saturating_sub(obs.io_seen);
        obs.io_seen = io_now;
        if delta > 0 {
            let algo = slot.map(|slot| self.catalog[slot].config.entrant());
            obs.cost(Dim::Io, algo, op).add(delta);
        }
    }

    fn obs_join(&mut self, now: SimTime, object: ObjectId, joiner: NodeId) {
        let Some(obs) = self.obs.as_mut() else { return };
        obs.tally(NodeTally::Joins).inc();
        event!(
            obs.bundle().events(),
            now.ticks(),
            "protocol.join",
            node = node(self.id),
            object = object_field(object),
            joiner = joiner,
        );
    }

    fn obs_mode_change(&mut self, now: SimTime, quorum: bool) {
        let Some(obs) = self.obs.as_mut() else { return };
        obs.tally(NodeTally::ModeChanges).inc();
        event!(
            obs.bundle().events(),
            now.ticks(),
            "protocol.mode",
            node = node(self.id),
            quorum = quorum,
        );
    }

    fn obs_scheme_churn(&mut self, now: SimTime, object: ObjectId, flushed: usize) {
        let Some(obs) = self.obs.as_mut() else { return };
        obs.tally(NodeTally::SchemeChurn).inc();
        event!(
            obs.bundle().events(),
            now.ticks(),
            "protocol.scheme",
            node = node(self.id),
            object = object_field(object),
            flushed = flushed,
        );
    }

    /// Installs reverted-fix switches (regression tests only).
    #[doc(hidden)]
    pub fn set_bug_switches(&mut self, bugs: BugSwitches) {
        self.bugs = bugs;
    }

    /// A hash of the node's *semantic* protocol state: replica versions
    /// and validity, DA bookkeeping, invalidation floors, quorum-mode
    /// state, in-flight quorum operations, outstanding-read depth,
    /// completed-read count and the recorded reads not yet taken. Pure
    /// metrics (latencies, I/O tallies) are excluded — two states
    /// differing only in them behave identically going forward. The
    /// model checker (`doma_fault::explore`) combines these per-node
    /// hashes with the pending-message multiset to deduplicate states
    /// reached along different delivery schedules.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.id.hash(&mut h);
        self.quorum_mode.hash(&mut h);
        self.quorum_round.hash(&mut h);
        self.reads_completed.hash(&mut h);
        self.errors.len().hash(&mut h);
        for (object, state) in self.catalog.iter() {
            object.hash(&mut h);
            self.replica_version_of(object).hash(&mut h);
            self.store.holds_valid(object).hash(&mut h);
            state.invalidated_below.hash(&mut h);
            state.join_list.hash(&mut h);
            state.extra.hash(&mut h);
            state.serve_cursor.hash(&mut h);
            if let Some(p) = &state.pending {
                p.responders.hash(&mut h);
                p.needed.hash(&mut h);
                p.round.hash(&mut h);
                p.counted.hash(&mut h);
                p.best.as_ref().map(|(v, _)| *v).hash(&mut h);
                p.store_result.hash(&mut h);
            }
            state.read_started.len().hash(&mut h);
        }
        // The versions the reads not yet audited returned, in order: the
        // oracle will hold them to a rising floor, so they are part of
        // the state a schedule can distinguish. Reads already taken have
        // left the node, and with them its hash.
        for read in self.recorded_reads().unwrap_or_default() {
            read.object.hash(&mut h);
            read.version.hash(&mut h);
        }
        h.finish()
    }

    /// This node's processor id.
    pub fn processor(&self) -> ProcessorId {
        self.id
    }

    /// Memory-cache counters (all zeros when caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache_stats()
    }

    /// Whether the node currently holds a valid replica of object 0.
    pub fn holds_valid(&self) -> bool {
        self.holds_valid_of(OBJECT)
    }

    /// Whether the node currently holds a valid replica of `object`.
    pub fn holds_valid_of(&self, object: ObjectId) -> bool {
        self.store.holds_valid(object)
    }

    /// The version of the local replica of object 0 (valid or stale).
    pub fn replica_version(&self) -> Option<Version> {
        self.replica_version_of(OBJECT)
    }

    /// The version of the local replica of `object` (valid or stale).
    pub fn replica_version_of(&self, object: ObjectId) -> Option<Version> {
        self.store.store().peek(object).map(|o| o.version)
    }

    /// The node's I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.store.store().io_stats()
    }

    /// The redo log the node's store writes through.
    pub fn redo_log(&self) -> &RedoLog {
        self.store.store().log()
    }

    /// Completed reads and their total latency in ticks.
    pub fn read_metrics(&self) -> (u64, u64) {
        (self.reads_completed, self.read_latency_ticks)
    }

    /// Starts recording every completed read with the version it
    /// returned (the one-copy-semantics audit trail); a no-op while
    /// already recording. The consumer that starts the record drains it
    /// with [`DomNode::take_recorded_reads`].
    pub fn record_reads(&mut self) {
        self.read_record.get_or_insert_with(Vec::new);
    }

    /// Stops recording and drops the reads not yet taken.
    pub(crate) fn stop_recording_reads(&mut self) {
        self.read_record = None;
    }

    /// The recorded reads not yet taken, in completion order; `None`
    /// while not recording.
    pub fn recorded_reads(&self) -> Option<&[CompletedRead]> {
        self.read_record.as_deref()
    }

    /// Takes the recorded reads not yet taken, in completion order;
    /// recording goes on. Reads the caller leaves unconsumed are dropped
    /// with the iterator.
    pub fn take_recorded_reads(&mut self) -> impl Iterator<Item = CompletedRead> + '_ {
        self.read_record
            .iter_mut()
            .flat_map(|record| record.drain(..))
    }

    /// Protocol-level errors recorded so far (empty on healthy runs).
    pub fn protocol_errors(&self) -> &[DomaError] {
        &self.errors
    }

    /// The tracked "extra" (floater) member for `object`, if any.
    #[cfg(test)]
    fn da_extra(&self, object: ObjectId) -> Option<ProcessorId> {
        self.catalog[self.catalog.slot(object)?].extra
    }

    /// Whether the node is in quorum (failure) mode.
    pub fn in_quorum_mode(&self) -> bool {
        self.quorum_mode
    }

    /// Simulates losing volatile state and recovering the store from its
    /// redo log (used by failure tests around engine crash events).
    pub fn recover_from_log(&mut self) {
        self.store.crash_and_recover();
        self.clear_volatile_state();
    }

    /// Drops the volatile per-object state a crash loses: in-flight
    /// quorum operations and outstanding-read queues.
    fn clear_volatile_state(&mut self) {
        for state in self.catalog.records_mut() {
            state.pending = None;
            state.read_started.clear();
        }
    }

    /// The catalog slot of `object`, recording [`DomaError::UnknownObject`]
    /// when uncatalogued — the shape [`DomNode::deliver`] needs, since
    /// [`Actor::on_message`] cannot propagate a `Result`.
    fn slot_or_record(&mut self, object: ObjectId) -> Option<usize> {
        let slot = self.catalog.slot(object);
        if slot.is_none() {
            self.errors.push(DomaError::UnknownObject {
                node: self.id.index(),
                object: object.0,
            });
        }
        slot
    }

    /// Whether `version` is news to the local store: strictly newer than
    /// the local replica, or the same version while the local copy is
    /// invalid (re-validation). Under fault injection, delayed or
    /// duplicated `WriteProp`/`ObjData` messages can arrive out of order;
    /// applying them blindly would regress the replica.
    fn fresher_than_local(&self, slot: usize, version: Version) -> bool {
        if version < self.catalog[slot].invalidated_below && !self.bugs.no_invalidated_floor {
            // An already-processed invalidation proved this version
            // obsolete; a delayed or duplicated carrier must not
            // resurrect it.
            return false;
        }
        let object = self.catalog.id(slot);
        match self.replica_version_of(object) {
            Some(local) => version > local || (version == local && !self.store.holds_valid(object)),
            None => true,
        }
    }

    /// Inputs the local replica for handing on (a reply, a propagation, a
    /// quorum's best so far): the bytes stay shared with the store.
    fn input_shared(&mut self, object: ObjectId) -> Option<(Version, Payload)> {
        self.store.input(object).map(|(v, d)| (v, d.clone()))
    }

    /// Drops the local replica because `version` superseded it, raising
    /// the floor below which nothing may re-validate it.
    fn invalidate_local(&mut self, slot: usize, version: Version) {
        let floor = &mut self.catalog[slot].invalidated_below;
        *floor = version.max(*floor);
        self.store.invalidate(self.catalog.id(slot));
    }

    fn complete_read(&mut self, slot: usize, version: Option<Version>, now: SimTime) {
        // Replies are served FIFO (the engine and the bus are
        // order-preserving), so the oldest outstanding read is the one
        // completing.
        if let Some(started) = self.catalog[slot].read_started.pop_front() {
            self.reads_completed += 1;
            let latency = now.ticks() - started.ticks();
            self.read_latency_ticks += latency;
            if let Some(record) = &mut self.read_record {
                record.push(CompletedRead {
                    object: self.catalog.id(slot),
                    version,
                    latency,
                });
            }
        }
    }

    /// All other processors. Quorum operations contact everyone and
    /// complete once a majority of *responses* is assembled, so
    /// individual crashed peers cannot stall them.
    fn all_peers(&self) -> ProcSet {
        ProcSet::universe(self.n).without(self.id)
    }

    /// Read/write quorum size: a majority of the cluster.
    fn quorum_size(&self) -> usize {
        self.n / 2 + 1
    }

    /// The one way a message leaves the node: queued in `ctx` and, with
    /// obs attached, charged to the entrant governing its object under
    /// the *sent* message's own op class (so the invalidations a write
    /// fans out land under `op=invalidate` while the propagation lands
    /// under `op=write`).
    fn send(&mut self, ctx: &mut Context<DomMsg>, slot: usize, to: ProcessorId, msg: DomMsg) {
        let kind = if msg.is_data() {
            MsgKind::Data
        } else {
            MsgKind::Control
        };
        if let Some(obs) = self.obs.as_mut() {
            let algo = self.catalog[slot].config.entrant();
            obs.cost(Dim::from(kind), Some(algo), op_of(&msg)).inc();
        }
        ctx.send(node(to), kind, msg);
    }

    /// Asks every member of `servers` for the object.
    fn send_read_req(
        &mut self,
        ctx: &mut Context<DomMsg>,
        slot: usize,
        servers: impl IntoIterator<Item = ProcessorId>,
        saving: bool,
        round: u64,
    ) {
        let object = self.catalog.id(slot);
        for server in servers {
            let msg = DomMsg::ReadReq {
                object,
                saving,
                round,
            };
            self.send(ctx, slot, server, msg);
        }
    }

    /// Propagates this node's write of `version` to every member of
    /// `targets` but itself.
    fn send_write_prop(
        &mut self,
        ctx: &mut Context<DomMsg>,
        slot: usize,
        targets: ProcSet,
        version: Version,
        payload: &Payload,
    ) {
        let object = self.catalog.id(slot);
        for target in targets.without(self.id) {
            let msg = DomMsg::WriteProp {
                object,
                version,
                payload: payload.clone(),
                writer: node(self.id),
            };
            self.send(ctx, slot, target, msg);
        }
    }

    /// Tells every member of `targets` that `version` superseded its
    /// replica.
    fn send_invalidate(
        &mut self,
        ctx: &mut Context<DomMsg>,
        slot: usize,
        targets: impl IntoIterator<Item = ProcessorId>,
        version: Version,
    ) {
        let object = self.catalog.id(slot);
        for target in targets {
            self.send(ctx, slot, target, DomMsg::Invalidate { object, version });
        }
    }

    fn start_quorum_read(&mut self, ctx: &mut Context<DomMsg>, slot: usize, store_result: bool) {
        let object = self.catalog.id(slot);
        let local = self.input_shared(object);
        let mut responders = ProcSet::EMPTY;
        if local.is_some() {
            responders.insert(self.id);
        }
        self.quorum_round += 1;
        let round = self.quorum_round;
        if let Some(obs) = self.obs.as_mut() {
            obs.tally(NodeTally::QuorumRounds).inc();
            let span = span!(
                obs.bundle().events(),
                ctx.now().ticks(),
                "protocol.quorum",
                node = node(self.id),
                object = object_field(object),
                round = round,
            );
            obs.open_quorum.insert((object, round), span);
        }
        self.catalog[slot].pending = Some(PendingQuorum {
            counted: responders.len(),
            responders,
            needed: self.quorum_size(),
            round,
            best: local,
            store_result,
        });
        self.send_read_req(ctx, slot, self.all_peers(), false, round);
        // Degenerate single-node cluster: the local replica is the quorum.
        self.maybe_finish_quorum(ctx, slot);
    }

    fn handle_client_read(
        &mut self,
        ctx: &mut Context<DomMsg>,
        slot: usize,
        plan: Option<ReadPlan>,
    ) {
        let object = self.catalog.id(slot);
        let state = &mut self.catalog[slot];
        state.read_started.push_back(ctx.now());
        if self.quorum_mode {
            return self.start_quorum_read(ctx, slot, false);
        }
        // Where the read is served: `Some((server, saving))` forwards it,
        // `None` reads the local replica.
        let remote = match state.config {
            ProtocolConfig::Sa { q } if q.contains(self.id) => {
                debug_assert!(
                    self.store.holds_valid(object),
                    "SA member must hold a valid replica"
                );
                None
            }
            ProtocolConfig::Sa { q } => {
                let Some(server) = q.any_member() else {
                    // An empty Q is rejected at configuration time; a
                    // request that still lands here is a harness bug worth
                    // surfacing, not worth crashing the cluster for.
                    self.errors
                        .push(DomaError::InvalidConfig("SA scheme Q is empty".into()));
                    return;
                };
                Some((server, false))
            }
            ProtocolConfig::Da { .. } if self.store.holds_valid(object) => None,
            ProtocolConfig::Da { f, .. } => {
                // `F` is non-empty (checked at configuration time).
                let turn = state.serve_cursor % f.len().max(1);
                let Some(server) = f.iter().nth(turn) else {
                    return;
                };
                state.serve_cursor = state.serve_cursor.wrapping_add(1);
                Some((server, true))
            }
            ProtocolConfig::Adaptive { .. } => {
                let Some(plan) = plan else {
                    self.errors.push(DomaError::InvalidConfig(
                        "adaptive read injected without a plan".into(),
                    ));
                    return;
                };
                match (plan.server, plan.fallback) {
                    (Some(server), _) => Some((server, plan.saving)),
                    (None, _) if self.store.holds_valid(object) => None,
                    // The oracle believes we hold a replica, but a fault
                    // episode dropped it: fetch (saving) from a scheme
                    // member to restore the oracle's invariant.
                    (None, Some(fallback)) => Some((fallback, true)),
                    (None, None) => {
                        self.errors.push(DomaError::InvalidConfig(
                            "adaptive local read found no valid replica".into(),
                        ));
                        return;
                    }
                }
            }
        };
        match remote {
            Some((server, saving)) => {
                self.send_read_req(ctx, slot, [server], saving, 0);
            }
            None => {
                let version = self.store.input(object).map(|(v, _)| v);
                self.complete_read(slot, version, ctx.now());
            }
        }
    }

    fn handle_client_write(
        &mut self,
        ctx: &mut Context<DomMsg>,
        slot: usize,
        version: Version,
        payload: Payload,
        plan: Option<WritePlan>,
    ) {
        let config = self.catalog[slot].config;
        // The execution set: every member stores the new version.
        let exec = match (config, plan) {
            // Quorum write: store locally, propagate to all peers; the
            // live ones (a majority, else the cluster is unavailable
            // anyway) apply it. Plans are ignored.
            _ if self.quorum_mode => ProcSet::universe(self.n),
            (ProtocolConfig::Sa { .. } | ProtocolConfig::Da { .. }, _) => {
                config.da_exec_set(self.id)
            }
            (ProtocolConfig::Adaptive { .. }, Some(plan)) => plan.exec,
            (ProtocolConfig::Adaptive { .. }, None) => {
                self.errors.push(DomaError::InvalidConfig(
                    "adaptive write injected without a plan".into(),
                ));
                return;
            }
        };
        if exec.contains(self.id) {
            self.store
                .output(self.catalog.id(slot), version, payload.clone());
        }
        self.send_write_prop(ctx, slot, exec, version, &payload);
        if self.quorum_mode {
            return;
        }
        if config.is_core(self.id) {
            // The writer is itself a core member: do its invalidation
            // duties immediately.
            self.da_invalidate_duties(ctx, slot, version, self.id);
        }
        if let (ProtocolConfig::Adaptive { .. }, Some(plan)) = (config, plan) {
            // The issuer performs the invalidation duties itself: the
            // driver already computed `Y \ X \ {i}` from the oracle's
            // scheme.
            self.send_invalidate(ctx, slot, plan.invalidate.without(self.id), version);
            if plan.self_invalidate && !plan.exec.contains(self.id) {
                // A scheme member writing remotely drops its own replica
                // without any message — the analytic model charges
                // nothing for it.
                self.invalidate_local(slot, version);
            }
        }
    }

    /// A core member's duties when it learns of the write of `version` by
    /// `writer`: invalidate its join-list outside the new execution set,
    /// and (primary only) invalidate and re-track the "extra" member.
    fn da_invalidate_duties(
        &mut self,
        ctx: &mut Context<DomMsg>,
        slot: usize,
        version: Version,
        writer: ProcessorId,
    ) {
        let state = &mut self.catalog[slot];
        let config = state.config;
        let spare = config.da_exec_set(writer).with(writer);
        let joined = std::mem::take(&mut state.join_list);
        // Only the primary ever tracks an extra member.
        let stale_extra = state.extra.filter(|extra| !spare.contains(*extra));
        if config.is_primary(self.id) {
            // The new extra member: the original floater if the writer is
            // core-or-floater, otherwise the writer itself.
            let scheme = config.initial_scheme();
            state.extra = config
                .floater()
                .map(|p| if scheme.contains(writer) { p } else { writer });
        }
        self.send_invalidate(ctx, slot, joined.difference(spare), version);
        self.send_invalidate(ctx, slot, stale_extra, version);
        if !joined.is_empty() {
            self.obs_scheme_churn(ctx.now(), self.catalog.id(slot), joined.len());
        }
    }

    fn handle_quorum_reply(
        &mut self,
        ctx: &mut Context<DomMsg>,
        from: NodeId,
        slot: usize,
        round: u64,
        reply: Option<(Version, Payload)>,
    ) {
        let Some(pending) = self.catalog[slot].pending.as_mut() else {
            // No operation in flight (or it already assembled its
            // majority): a straggler reply, not actionable.
            return;
        };
        if pending.round != round && !self.bugs.ignore_round_tags {
            // A delayed reply from an *earlier* quorum operation on the
            // same object. Counting it would both attribute a stale
            // version to the responder and mask the responder's fresh
            // reply as a duplicate.
            return;
        }
        let responder = proc(from);
        if pending.responders.contains(responder) && !self.bugs.count_duplicate_responders {
            // A duplicated reply carries no new information and must not
            // count toward the majority.
            return;
        }
        pending.responders.insert(responder);
        pending.counted += 1;
        if let Some((v, d)) = reply {
            match &pending.best {
                Some((bv, _)) if *bv >= v => {}
                _ => pending.best = Some((v, d)),
            }
        }
        self.maybe_finish_quorum(ctx, slot);
    }

    fn maybe_finish_quorum(&mut self, ctx: &mut Context<DomMsg>, slot: usize) {
        let count_duplicates = self.bugs.count_duplicate_responders;
        let assembled = |p: &mut PendingQuorum| {
            let reached = if count_duplicates {
                p.counted
            } else {
                p.responders.len()
            };
            reached >= p.needed
        };
        let Some(done) = self.catalog[slot].pending.take_if(assembled) else {
            return;
        };
        let object = self.catalog.id(slot);
        if let Some(obs) = self.obs.as_mut() {
            if let Some(span) = obs.open_quorum.remove(&(object, done.round)) {
                obs.bundle().events().span_exit(span, ctx.now().ticks());
            }
        }
        let version = done.best.as_ref().map(|(v, _)| *v);
        if let Some((v, d)) = done.best {
            if done.store_result && self.fresher_than_local(slot, v) {
                self.store.output(object, v, d);
            }
        }
        // A CatchUp's quorum read has no client read waiting on it.
        self.complete_read(slot, version, ctx.now());
    }

    /// A whole-node mode switch: every object's record is visited.
    fn handle_mode_change(&mut self, ctx: &mut Context<DomMsg>, quorum: bool) {
        self.obs_mode_change(ctx.now(), quorum);
        self.quorum_mode = quorum;
        for slot in 0..self.catalog.len() {
            let object = self.catalog.id(slot);
            if quorum {
                // Missing-writes transition (§2): a normal-mode write
                // lives on only t replicas — not necessarily a majority —
                // so quorum reads alone could miss it. Every valid holder
                // pushes its current version to all peers (receivers keep
                // the freshest), putting the latest committed version on
                // a write-majority before quorum service starts.
                if let Some((version, payload)) = self.input_shared(object) {
                    self.send_write_prop(ctx, slot, self.all_peers(), version, &payload);
                }
            } else {
                // Re-entering normal mode: quorum writes replicated to
                // everyone, but each algorithm's invariant is that exactly
                // its initial scheme holds the object — DA's F ∪ {p} with
                // join-lists empty and floater = p, SA's Q, and the
                // adaptive oracle's initial scheme (the driver resets the
                // oracle on this transition). Nodes outside that set drop
                // their replicas locally — no messages, the mode change
                // itself was the coordination.
                let state = &mut self.catalog[slot];
                let config = state.config;
                if !config.initial_scheme().contains(self.id) {
                    self.store.invalidate(object);
                }
                if config.is_core(self.id) {
                    state.join_list = ProcSet::EMPTY;
                }
                if config.is_primary(self.id) {
                    state.extra = config.floater();
                }
            }
        }
    }
}

impl DomNode {
    /// Deliver one inbound message, writing the sends it causes into
    /// `ctx`: resolve the object it names to its catalog slot — once;
    /// every handler below takes the slot — run the state machine, then
    /// account the step's I/O to observability. This is the single entry
    /// point both runtimes share — the sim engine's [`Actor::on_message`]
    /// delegates here, and `doma-net`'s event loop calls it with the
    /// node's own [`Context`], so the two execute literally the same code.
    ///
    /// A message naming an object outside the catalog — whoever sent it —
    /// records [`DomaError::UnknownObject`] and does nothing else: no
    /// store or log write, no reply.
    pub fn deliver(&mut self, ctx: &mut Context<DomMsg>, from: NodeId, msg: DomMsg) {
        // Classify before handling (the handler consumes the message),
        // account after: the I/O cursor delta is then exactly this
        // dispatch's I/O.
        let op = op_of(&msg);
        if let DomMsg::ModeChange { quorum } = msg {
            // The one message naming no object: it visits every record.
            self.handle_mode_change(ctx, quorum);
            return self.obs_account_io(op, None);
        }
        let Some(slot) = object_of(&msg).and_then(|object| self.slot_or_record(object)) else {
            return;
        };
        self.handle_message(ctx, from, slot, msg);
        self.obs_account_io(op, Some(slot));
    }

    /// Runs the state machine for a message about the object in `slot`.
    fn handle_message(
        &mut self,
        ctx: &mut Context<DomMsg>,
        from: NodeId,
        slot: usize,
        msg: DomMsg,
    ) {
        match msg {
            DomMsg::ClientRead { plan, .. } => self.handle_client_read(ctx, slot, plan),
            DomMsg::ClientWrite {
                version,
                payload,
                plan,
                ..
            } => self.handle_client_write(ctx, slot, version, payload, plan),
            DomMsg::ReadReq {
                object,
                saving,
                round,
            } => {
                let reply = match self.input_shared(object) {
                    Some((version, payload)) => {
                        let state = &mut self.catalog[slot];
                        let joiner = proc(from);
                        if saving
                            && state.config.is_core(self.id)
                            && !state.join_list.contains(joiner)
                        {
                            state.join_list.insert(joiner);
                            self.obs_join(ctx.now(), object, from);
                        }
                        DomMsg::ObjData {
                            object,
                            version,
                            payload,
                            save: saving,
                            round,
                        }
                    }
                    // Only possible in quorum mode (normal-mode servers
                    // always hold valid replicas — asserted by tests).
                    None => DomMsg::NoData { object, round },
                };
                self.send(ctx, slot, proc(from), reply);
            }
            DomMsg::ObjData {
                object,
                version,
                payload,
                save,
                round,
            } => {
                if round != 0 {
                    // A quorum reply is only meaningful to the operation
                    // that solicited it; handle_quorum_reply drops it when
                    // that operation is gone or superseded. It must never
                    // complete a forwarded read.
                    return self.handle_quorum_reply(
                        ctx,
                        from,
                        slot,
                        round,
                        Some((version, payload)),
                    );
                }
                if version < self.catalog[slot].invalidated_below && !self.bugs.no_invalidated_floor
                {
                    // A delayed or duplicated reply carrying data an
                    // invalidation already proved obsolete: answering a
                    // read with it would violate one-copy semantics. Drop
                    // it.
                    return;
                }
                if save && self.fresher_than_local(slot, version) {
                    self.store.output(object, version, payload);
                }
                self.complete_read(slot, Some(version), ctx.now());
            }
            DomMsg::NoData { round, .. } => self.handle_quorum_reply(ctx, from, slot, round, None),
            DomMsg::WriteProp {
                object,
                version,
                payload,
                writer,
            } => {
                // A delayed/duplicated propagation must not regress the
                // replica; core invalidation duties still run so late
                // joiners are flushed exactly once per write.
                if self.fresher_than_local(slot, version) {
                    self.store.output(object, version, payload);
                    if !self.quorum_mode && self.catalog[slot].config.is_core(self.id) {
                        self.da_invalidate_duties(ctx, slot, version, proc(writer));
                    }
                }
            }
            DomMsg::Invalidate { version, .. } => self.invalidate_local(slot, version),
            // Handled by `deliver`: it names no object, so it has no slot.
            DomMsg::ModeChange { .. } => {}
            DomMsg::CatchUp { .. } => {
                if self.quorum_mode {
                    // Missing-writes transition: quorum-read the latest
                    // version and store it locally before resuming service.
                    // Sound here because quorum-mode writes (and the
                    // mode-entry push) put the latest version on a
                    // majority, which every assembled read quorum
                    // intersects.
                    return self.start_quorum_read(ctx, slot, true);
                }
                // In normal mode the latest write lives on only t
                // replicas — not necessarily a majority — so a quorum
                // read could legitimately miss it (fast NoData control
                // replies can assemble a majority before any data
                // arrives). The scheme members are known and always
                // current, so fetch from them directly; the freshest
                // reply wins and a saving fetch re-enters the join
                // list, restoring invalidation duties.
                //
                // Adaptive schemes move with the workload, so the
                // initial members may no longer hold the object: ask
                // everyone, keep the freshest reply (stale and NoData
                // round-0 replies drop harmlessly).
                let targets = match self.catalog[slot].config {
                    ProtocolConfig::Adaptive { .. } => ProcSet::universe(self.n),
                    other @ (ProtocolConfig::Sa { .. } | ProtocolConfig::Da { .. }) => {
                        other.initial_scheme()
                    }
                };
                self.send_read_req(ctx, slot, targets.without(self.id), true, 0);
            }
        }
    }
}

impl Actor<DomMsg> for DomNode {
    fn on_message(&mut self, ctx: &mut Context<DomMsg>, from: NodeId, _kind: MsgKind, msg: DomMsg) {
        self.deliver(ctx, from, msg);
    }

    fn on_crash(&mut self) {
        // Volatile state is lost; the store survives on "stable storage"
        // (its redo log). In-memory table is rebuilt on recovery.
        self.clear_volatile_state();
        // In-flight quorum spans died with the volatile state; their
        // enter records stay in the log as evidence.
        if let Some(obs) = self.obs.as_mut() {
            obs.open_quorum.clear();
        }
    }

    fn on_recover(&mut self, _ctx: &mut Context<DomMsg>) {
        self.recover_from_log();
        self.obs_account_io(Op::Recovery, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    /// Node `id` of an `n`-node cluster serving object 0 alone, no cache.
    fn single(id: usize, n: usize, config: ProtocolConfig) -> DomNode {
        DomNode::with_catalog(
            ProcessorId::new(id),
            n,
            BTreeMap::from([(OBJECT, config)]),
            0,
        )
    }

    #[test]
    fn config_accessors() {
        let sa = ProtocolConfig::Sa { q: ps(&[0, 1, 2]) };
        assert_eq!(sa.t(), 3);
        assert_eq!(sa.initial_scheme(), ps(&[0, 1, 2]));
        let da = ProtocolConfig::Da {
            f: ps(&[0]),
            p: ProcessorId::new(1),
        };
        assert_eq!(da.t(), 2);
        assert_eq!(da.initial_scheme(), ps(&[0, 1]));
        assert_eq!(da.da_exec_set(ProcessorId::new(0)), ps(&[0, 1]));
        assert_eq!(da.da_exec_set(ProcessorId::new(1)), ps(&[0, 1]));
        assert_eq!(da.da_exec_set(ProcessorId::new(4)), ps(&[0, 4]));
    }

    #[test]
    fn initial_replicas_preloaded() {
        let cfg = ProtocolConfig::Da {
            f: ps(&[0]),
            p: ProcessorId::new(1),
        };
        let member = single(0, 4, cfg);
        assert!(member.holds_valid());
        assert_eq!(member.io_stats().total(), 0);
        let outsider = single(3, 4, cfg);
        assert!(!outsider.holds_valid());
    }

    #[test]
    fn primary_tracks_floater() {
        let cfg = ProtocolConfig::Da {
            f: ps(&[0, 2]),
            p: ProcessorId::new(3),
        };
        assert!(cfg.is_primary(ProcessorId::new(0)));
        let primary = single(0, 5, cfg);
        assert_eq!(primary.da_extra(OBJECT), Some(ProcessorId::new(3)));
        assert!(cfg.is_core(ProcessorId::new(2)) && !cfg.is_primary(ProcessorId::new(2)));
        let other_core = single(2, 5, cfg);
        assert_eq!(other_core.da_extra(OBJECT), None);
        assert!(!cfg.is_core(ProcessorId::new(3)), "the floater is not core");
    }

    #[test]
    fn quorum_peers_exclude_self_and_quorum_is_majority() {
        let cfg = ProtocolConfig::Sa { q: ps(&[0, 1]) };
        let n = single(1, 5, cfg);
        let peers = n.all_peers();
        assert_eq!(peers.len(), 4);
        assert!(!peers.contains(ProcessorId::new(1)));
        assert_eq!(n.quorum_size(), 3);
    }

    #[test]
    fn catalog_preloads_per_object_schemes() {
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
        let node0 = DomNode::with_catalog(ProcessorId::new(0), 4, configs.clone(), 0);
        assert!(node0.holds_valid_of(ObjectId(1)));
        assert!(!node0.holds_valid_of(ObjectId(2)));
        assert_eq!(node0.io_stats().total(), 0, "preloads charge no I/O");
        let node2 = DomNode::with_catalog(ProcessorId::new(2), 4, configs, 0);
        assert!(!node2.holds_valid_of(ObjectId(1)));
        assert!(node2.holds_valid_of(ObjectId(2)));
    }

    #[test]
    fn unknown_object_is_an_error_not_a_panic() {
        let cfg = ProtocolConfig::Sa { q: ps(&[0, 1]) };
        let mut n = single(0, 4, cfg);
        assert_eq!(n.slot_or_record(ObjectId(99)), None);
        let [err] = n.protocol_errors() else {
            panic!("one error, got {:?}", n.protocol_errors());
        };
        assert_eq!(
            *err,
            DomaError::UnknownObject {
                node: 0,
                object: 99
            }
        );
        assert!(err.to_string().contains("no config"), "{err}");
    }

    #[test]
    fn unknown_object_requests_record_errors_and_send_nothing() {
        let object = ObjectId(9);
        let version = Version(1);
        let payload = || Payload::from([1]);
        // Every variant that names an object — from a client or a peer.
        let msgs = [
            DomMsg::ClientRead { object, plan: None },
            DomMsg::ClientWrite {
                object,
                version,
                payload: payload(),
                plan: None,
            },
            DomMsg::ReadReq {
                object,
                saving: true,
                round: 0,
            },
            DomMsg::ObjData {
                object,
                version,
                payload: payload(),
                save: true,
                round: 0,
            },
            DomMsg::NoData { object, round: 1 },
            DomMsg::WriteProp {
                object,
                version,
                payload: payload(),
                writer: NodeId(1),
            },
            DomMsg::Invalidate { object, version },
            DomMsg::CatchUp { object },
        ];
        for quorum in [false, true] {
            let cfg = ProtocolConfig::Sa { q: ps(&[0, 1]) };
            let mut node = single(0, 2, cfg);
            let mut ctx = Context::default();
            if quorum {
                node.deliver(&mut ctx, NodeId(1), DomMsg::ModeChange { quorum });
                ctx.drain();
            }
            let (io, logged) = (node.io_stats(), node.redo_log().len());
            for (i, msg) in msgs.iter().enumerate() {
                node.deliver(&mut ctx, NodeId(1), msg.clone());
                // The error path is local: nothing stored, logged or sent.
                assert_eq!(node.protocol_errors().len(), i + 1, "{msg:?}");
                assert_eq!(node.io_stats(), io, "{msg:?}");
                assert_eq!(node.redo_log().len(), logged, "{msg:?}");
                assert_eq!(ctx.drain().len(), 0, "{msg:?}");
                assert_eq!(node.replica_version_of(object), None, "{msg:?}");
            }
            assert!(node
                .protocol_errors()
                .iter()
                .all(|e| *e == DomaError::UnknownObject { node: 0, object: 9 }));
            assert_eq!(node.read_metrics(), (0, 0));
        }
    }

    #[test]
    fn stale_write_prop_does_not_regress_the_replica() {
        let mut sim = crate::ProtocolSim::new_sa(2, ps(&[0, 1])).unwrap();
        let a = NodeId(0);
        let wp = |v: u64| DomMsg::WriteProp {
            object: OBJECT,
            version: Version(v),
            payload: [v as u8].into(),
            writer: NodeId(1),
        };
        let engine = sim.engine_mut();
        engine.inject(a, 0, wp(5));
        engine.inject(a, 1, wp(3)); // late, out-of-order propagation
        engine.inject(a, 2, wp(5)); // duplicate
        sim.settle().unwrap();
        let node = sim.engine_ref().actor(a);
        assert_eq!(node.replica_version(), Some(Version(5)));
        assert!(node.holds_valid());
    }
}

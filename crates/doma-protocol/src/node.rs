//! The per-processor protocol state machine.

use crate::obs::{object_field, object_of, op_of, Dim, NodeObs, NodeTally, Op};
use crate::roster::Entrant;
use crate::transport::Transport;
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// exactly; the quorum failure fallback ignores them.
    Adaptive {
        /// The availability threshold the oracle maintains.
        t: usize,
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
            ProtocolConfig::Adaptive { t, .. } => *t,
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
    started: SimTime,
}

/// Test-only switches that revert individual hardening fixes, so the
/// model checker's regression suite can demonstrate each fix is load-
/// bearing: with the switch on, `doma-check` must find the interleaving
/// that violates the corresponding safety property.
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
/// fault-injection invariant checker audits for one-copy semantics.
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

/// A catalog of objects, stored densely: ids sorted ascending with one
/// value per object (the node's configurations, the planner's version
/// counters) in matching slots.
///
/// Hot-path per-object state (`da`, `invalidated_below`, `pending`,
/// `read_started`) lives in parallel `Vec`s indexed by the catalog
/// *slot*, replacing the previous per-lookup `BTreeMap` walks. For a
/// contiguous catalog — the common case; every multi-object generator
/// produces `0..objects` — the slot is one subtraction and a bounds
/// check; non-contiguous catalogs fall back to binary search over the
/// sorted ids.
#[derive(Debug, Clone)]
pub(crate) struct ObjectCatalog<T> {
    /// Object ids, ascending.
    ids: Vec<ObjectId>,
    /// Per-object value, aligned with `ids`.
    pub(crate) values: Vec<T>,
    /// `ids[0]`, the offset of the contiguous fast path.
    base: u64,
    /// Whether `ids` is exactly `base..base + ids.len()`.
    contiguous: bool,
}

impl<T> ObjectCatalog<T> {
    pub(crate) fn from_map(map: BTreeMap<ObjectId, T>) -> Self {
        let ids: Vec<ObjectId> = map.keys().copied().collect();
        let values: Vec<T> = map.into_values().collect();
        let base = ids.first().map(|o| o.0).unwrap_or(0);
        let contiguous = ids
            .iter()
            .enumerate()
            .all(|(i, o)| o.0 == base.wrapping_add(i as u64));
        ObjectCatalog {
            ids,
            values,
            base,
            contiguous,
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// The dense slot of `object`, if catalogued.
    #[inline]
    pub(crate) fn slot(&self, object: ObjectId) -> Option<usize> {
        if self.contiguous {
            let idx = object.0.checked_sub(self.base)? as usize;
            (idx < self.ids.len()).then_some(idx)
        } else {
            self.ids.binary_search(&object).ok()
        }
    }

    /// The value of `object`, if catalogued.
    #[inline]
    fn get(&self, object: ObjectId) -> Option<&T> {
        self.slot(object).map(|slot| &self.values[slot])
    }
}

/// Per-object DA bookkeeping held by core members.
#[derive(Debug, Clone, Default)]
struct DaObjectState {
    /// Processors that joined via saving-reads and must be invalidated on
    /// the next write (core members only).
    join_list: ProcSet,
    /// Primary core member only: the current scheme member in no
    /// join-list — the original floater `p`, or the last outsider writer.
    extra: Option<ProcessorId>,
    /// Round-robin cursor for picking a serving core member.
    serve_cursor: usize,
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
    catalog: ObjectCatalog<ProtocolConfig>,
    store: CachedStore,
    /// Per-slot DA bookkeeping (aligned with the catalog).
    da: Vec<DaObjectState>,
    /// Per slot, the highest version an [`DomMsg::Invalidate`] named as
    /// superseding the local replica ([`Version::INITIAL`] = no floor).
    /// Replicas older than this must never be (re-)validated or served:
    /// under fault injection a delayed or duplicated data message could
    /// otherwise resurrect a replica whose invalidation was already
    /// processed.
    invalidated_below: Vec<Version>,
    // --- failure mode ---
    quorum_mode: bool,
    /// Per-slot in-flight quorum operation (at most one per object).
    pending: Vec<Option<PendingQuorum>>,
    /// Monotone counter tagging each quorum operation this node starts
    /// (round 0 is reserved for plain forwarded reads). Deliberately NOT
    /// reset on crash: a reply to a pre-crash operation must never match a
    /// post-recovery one.
    quorum_round: u64,
    // --- metrics ---
    /// Per-slot FIFO queues of outstanding read start-times (open-loop
    /// execution can have several reads of one object in flight at once).
    read_started: Vec<VecDeque<SimTime>>,
    reads_completed: u64,
    read_latency_ticks: u64,
    completed_reads: Vec<CompletedRead>,
    /// Protocol-level errors (for example a request for an unconfigured
    /// object). [`Actor::on_message`] cannot return them, so they are
    /// recorded here for harnesses to assert on.
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
        let catalog = ObjectCatalog::from_map(configs);
        // Version 0 of every preloaded object is the same bytes: one
        // allocation per node, shared by table and log.
        let initial = Payload::from(*b"initial");
        let mut store = LocalStore::new();
        let mut da = Vec::with_capacity(catalog.len());
        for (object, config) in catalog.ids.iter().zip(&catalog.values) {
            if config.initial_scheme().contains(id) {
                store.output(*object, Version::INITIAL, initial.clone());
            }
            let is_primary =
                matches!(config, ProtocolConfig::Da { f, .. } if f.any_member() == Some(id));
            let extra = match (is_primary, config) {
                (true, ProtocolConfig::Da { p, .. }) => Some(*p),
                _ => None,
            };
            da.push(DaObjectState {
                join_list: ProcSet::EMPTY,
                extra,
                serve_cursor: 0,
            });
        }
        // Preloads are free: the initial scheme is given, not written.
        store.reset_io_stats();
        let slots = catalog.len();
        DomNode {
            id,
            n,
            catalog,
            store: CachedStore::wrap(store, cache_capacity),
            da,
            invalidated_below: vec![Version::INITIAL; slots],
            quorum_mode: false,
            pending: vec![None; slots],
            quorum_round: 0,
            read_started: vec![VecDeque::new(); slots],
            reads_completed: 0,
            read_latency_ticks: 0,
            completed_reads: Vec::new(),
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
    /// charged to the handled operation, and every message the handler
    /// buffered is counted under the *sent* message's own op class (so
    /// e.g. the invalidations a write fans out land under
    /// `op=invalidate` while the propagation lands under `op=write`).
    fn obs_account<T: Transport + ?Sized>(&mut self, ctx: &T, op: Op, object: Option<ObjectId>) {
        self.obs_account_io(op, object);
        let Some(obs) = self.obs.as_mut() else { return };
        for (_, kind, msg) in ctx.pending_sends() {
            let config = object_of(msg).and_then(|o| self.catalog.get(o));
            let algo = config.map(ProtocolConfig::entrant);
            obs.cost(Dim::from(*kind), algo, op_of(msg)).inc();
        }
    }

    fn obs_account_io(&mut self, op: Op, object: Option<ObjectId>) {
        let Some(obs) = self.obs.as_mut() else { return };
        let io_now = self.store.store().io_stats().total();
        let delta = io_now.saturating_sub(obs.io_seen);
        obs.io_seen = io_now;
        if delta > 0 {
            let config = object.and_then(|o| self.catalog.get(o));
            obs.cost(Dim::Io, config.map(ProtocolConfig::entrant), op)
                .add(delta);
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
    /// state, in-flight quorum operations, outstanding-read depth and
    /// completed-read count. Pure metrics (latencies, I/O tallies) are
    /// excluded — two states differing only in them behave identically
    /// going forward. `doma-check` combines these per-node hashes with
    /// the pending-message multiset to deduplicate states reached along
    /// different delivery schedules.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.id.hash(&mut h);
        self.quorum_mode.hash(&mut h);
        self.quorum_round.hash(&mut h);
        self.reads_completed.hash(&mut h);
        self.errors.len().hash(&mut h);
        for (slot, object) in self.catalog.ids.iter().enumerate() {
            object.hash(&mut h);
            self.replica_version_of(*object).hash(&mut h);
            self.store.holds_valid(*object).hash(&mut h);
            self.invalidated_floor(*object).hash(&mut h);
            let state = &self.da[slot];
            state.join_list.hash(&mut h);
            state.extra.hash(&mut h);
            state.serve_cursor.hash(&mut h);
            if let Some(p) = &self.pending[slot] {
                p.responders.hash(&mut h);
                p.needed.hash(&mut h);
                p.round.hash(&mut h);
                p.counted.hash(&mut h);
                p.best.as_ref().map(|(v, _)| *v).hash(&mut h);
                p.store_result.hash(&mut h);
            }
            self.read_started[slot].len().hash(&mut h);
        }
        // The record of which versions reads returned, in order: the
        // oracle audits it against a rising floor, so it is part of the
        // state a schedule can distinguish.
        for read in &self.completed_reads {
            read.object.hash(&mut h);
            read.version.hash(&mut h);
        }
        h.finish()
    }

    /// Single-object node with a memory cache (object id 0).
    pub fn with_cache(
        id: ProcessorId,
        n: usize,
        config: ProtocolConfig,
        cache_capacity: usize,
    ) -> Self {
        let mut configs = BTreeMap::new();
        configs.insert(OBJECT, config);
        Self::with_catalog(id, n, configs, cache_capacity)
    }

    /// Single-object node without a memory cache (the paper's model).
    pub fn new(id: ProcessorId, n: usize, config: ProtocolConfig) -> Self {
        Self::with_cache(id, n, config, 0)
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

    /// Every completed read's individual latency, in completion order.
    pub fn read_latencies(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.completed_reads.iter().map(|read| read.latency)
    }

    /// Every completed read with the version it returned, in completion
    /// order (the one-copy-semantics audit trail).
    pub fn completed_reads(&self) -> &[CompletedRead] {
        &self.completed_reads
    }

    /// Protocol-level errors recorded so far (empty on healthy runs).
    pub fn protocol_errors(&self) -> &[DomaError] {
        &self.errors
    }

    /// The core member's current join-list for object 0.
    pub fn join_list(&self) -> ProcSet {
        self.catalog
            .slot(OBJECT)
            .map(|slot| self.da[slot].join_list)
            .unwrap_or(ProcSet::EMPTY)
    }

    /// The tracked "extra" (floater) member for `object`, if any.
    #[cfg(test)]
    fn da_extra(&self, object: ObjectId) -> Option<ProcessorId> {
        let slot = self.catalog.slot(object)?;
        self.da.get(slot)?.extra
    }

    /// Whether the node is in quorum (failure) mode.
    pub fn in_quorum_mode(&self) -> bool {
        self.quorum_mode
    }

    /// Simulates losing volatile state and recovering the store from its
    /// redo log (used by failure tests around engine crash events).
    pub fn recover_from_log(&mut self) {
        self.store.crash_and_recover();
        self.clear_volatile_tables();
    }

    /// Drops the volatile per-slot state a crash loses: in-flight quorum
    /// operations and outstanding-read queues. Slot tables keep their
    /// (fixed) shape — only the contents reset.
    fn clear_volatile_tables(&mut self) {
        for p in &mut self.pending {
            *p = None;
        }
        for q in &mut self.read_started {
            q.clear();
        }
    }

    fn config(&self, object: ObjectId) -> Result<&ProtocolConfig, DomaError> {
        self.catalog.get(object).ok_or(DomaError::UnknownObject {
            node: self.id.index(),
            object: object.0,
        })
    }

    /// The catalog slot of `object`, recording [`DomaError::UnknownObject`]
    /// when uncatalogued — the shape message handlers need, since
    /// [`Actor::on_message`] cannot propagate a `Result`.
    fn slot_or_record(&mut self, object: ObjectId) -> Option<usize> {
        match self.catalog.slot(object) {
            Some(slot) => Some(slot),
            None => {
                self.errors.push(DomaError::UnknownObject {
                    node: self.id.index(),
                    object: object.0,
                });
                None
            }
        }
    }

    /// Like [`DomNode::config`] but records the error and returns `None`
    /// — the shape message handlers need, since [`Actor::on_message`]
    /// cannot propagate a `Result`.
    fn config_or_record(&mut self, object: ObjectId) -> Option<ProtocolConfig> {
        match self.config(object) {
            Ok(c) => Some(c.clone()),
            Err(e) => {
                self.errors.push(e);
                None
            }
        }
    }

    fn is_da_core(&self, object: ObjectId) -> bool {
        matches!(self.config(object), Ok(ProtocolConfig::Da { f, .. }) if f.contains(self.id))
    }

    fn is_da_primary(&self, object: ObjectId) -> bool {
        matches!(self.config(object), Ok(ProtocolConfig::Da { f, .. }) if f.any_member() == Some(self.id))
    }

    /// Whether `version` is news to the local store: strictly newer than
    /// the local replica, or the same version while the local copy is
    /// invalid (re-validation). Under fault injection, delayed or
    /// duplicated `WriteProp`/`ObjData` messages can arrive out of order;
    /// applying them blindly would regress the replica.
    /// The lowest version still allowed to (re-)validate the local
    /// replica, per processed invalidations.
    fn invalidated_floor(&self, object: ObjectId) -> Version {
        self.catalog
            .slot(object)
            .map(|slot| self.invalidated_below[slot])
            .unwrap_or(Version::INITIAL)
    }

    fn fresher_than_local(&self, object: ObjectId, version: Version) -> bool {
        if version < self.invalidated_floor(object) && !self.bugs.no_invalidated_floor {
            // An already-processed invalidation proved this version
            // obsolete; a delayed or duplicated carrier must not
            // resurrect it.
            return false;
        }
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

    fn complete_read(&mut self, object: ObjectId, version: Option<Version>, now: SimTime) {
        let Some(slot) = self.catalog.slot(object) else {
            return;
        };
        // Replies are served FIFO (the engine and the bus are
        // order-preserving), so the oldest outstanding read is the one
        // completing.
        if let Some(started) = self.read_started[slot].pop_front() {
            self.reads_completed += 1;
            let latency = now.ticks() - started.ticks();
            self.read_latency_ticks += latency;
            self.completed_reads.push(CompletedRead {
                object,
                version,
                latency,
            });
        }
    }

    /// All other nodes. Quorum operations contact everyone and complete
    /// once a majority of *responses* is assembled, so individual crashed
    /// peers cannot stall them.
    fn all_peers(&self) -> impl Iterator<Item = NodeId> {
        let me = self.id.index();
        (0..self.n).filter(move |&i| i != me).map(NodeId)
    }

    /// Read/write quorum size: a majority of the cluster.
    fn quorum_size(&self) -> usize {
        self.n / 2 + 1
    }

    fn start_quorum_read<T: Transport + ?Sized>(
        &mut self,
        ctx: &mut T,
        object: ObjectId,
        store_result: bool,
    ) {
        let Some(slot) = self.slot_or_record(object) else {
            return;
        };
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
        self.pending[slot] = Some(PendingQuorum {
            counted: responders.len(),
            responders,
            needed: self.quorum_size(),
            round,
            best: local,
            store_result,
            started: ctx.now(),
        });
        for peer in self.all_peers() {
            ctx.send(
                peer,
                MsgKind::Control,
                DomMsg::ReadReq {
                    object,
                    saving: false,
                    round,
                },
            );
        }
        // Degenerate single-node cluster: the local replica is the quorum.
        self.maybe_finish_quorum(ctx, object);
    }

    fn handle_client_read<T: Transport + ?Sized>(
        &mut self,
        ctx: &mut T,
        object: ObjectId,
        plan: Option<ReadPlan>,
    ) {
        if self.quorum_mode {
            let Some(slot) = self.slot_or_record(object) else {
                return;
            };
            self.read_started[slot].push_back(ctx.now());
            self.start_quorum_read(ctx, object, false);
            return;
        }
        let Some(config) = self.config_or_record(object) else {
            return;
        };
        let Some(slot) = self.catalog.slot(object) else {
            return;
        };
        self.read_started[slot].push_back(ctx.now());
        match config {
            ProtocolConfig::Sa { q } => {
                if q.contains(self.id) {
                    let got = self.store.input(object);
                    debug_assert!(got.is_some(), "SA member must hold a valid replica");
                    let version = got.map(|(v, _)| v);
                    self.complete_read(object, version, ctx.now());
                } else if let Some(server) = q.any_member() {
                    ctx.send(
                        node(server),
                        MsgKind::Control,
                        DomMsg::ReadReq {
                            object,
                            saving: false,
                            round: 0,
                        },
                    );
                } else {
                    // An empty Q is rejected at configuration time; a
                    // request that still lands here is a harness bug worth
                    // surfacing, not worth crashing the cluster for.
                    self.errors
                        .push(DomaError::InvalidConfig("SA scheme Q is empty".into()));
                }
            }
            ProtocolConfig::Da { f, .. } => {
                if self.store.holds_valid(object) {
                    let got = self.store.input(object);
                    let version = got.map(|(v, _)| v);
                    self.complete_read(object, version, ctx.now());
                } else {
                    let state = &mut self.da[slot];
                    // `F` is non-empty (checked at configuration time).
                    let turn = state.serve_cursor % f.len().max(1);
                    if let Some(server) = f.iter().nth(turn) {
                        state.serve_cursor = state.serve_cursor.wrapping_add(1);
                        ctx.send(
                            node(server),
                            MsgKind::Control,
                            DomMsg::ReadReq {
                                object,
                                saving: true,
                                round: 0,
                            },
                        );
                    }
                }
            }
            ProtocolConfig::Adaptive { .. } => {
                let Some(plan) = plan else {
                    self.errors.push(DomaError::InvalidConfig(
                        "adaptive read injected without a plan".into(),
                    ));
                    return;
                };
                match plan.server {
                    None if self.store.holds_valid(object) => {
                        let got = self.store.input(object);
                        let version = got.map(|(v, _)| v);
                        self.complete_read(object, version, ctx.now());
                    }
                    None => {
                        // The oracle believes we hold a replica, but a
                        // fault episode dropped it: fetch (saving) from a
                        // scheme member to restore the oracle's invariant.
                        if let Some(fallback) = plan.fallback {
                            ctx.send(
                                node(fallback),
                                MsgKind::Control,
                                DomMsg::ReadReq {
                                    object,
                                    saving: true,
                                    round: 0,
                                },
                            );
                        } else {
                            self.errors.push(DomaError::InvalidConfig(
                                "adaptive local read found no valid replica".into(),
                            ));
                        }
                    }
                    Some(server) => {
                        ctx.send(
                            node(server),
                            MsgKind::Control,
                            DomMsg::ReadReq {
                                object,
                                saving: plan.saving,
                                round: 0,
                            },
                        );
                    }
                }
            }
        }
    }

    fn handle_client_write<T: Transport + ?Sized>(
        &mut self,
        ctx: &mut T,
        object: ObjectId,
        version: Version,
        payload: Payload,
        plan: Option<WritePlan>,
    ) {
        if self.quorum_mode {
            // Quorum write: store locally, propagate to all peers; the
            // live ones (a majority, else the cluster is unavailable
            // anyway) apply it.
            self.store.output(object, version, payload.clone());
            for peer in self.all_peers() {
                ctx.send(
                    peer,
                    MsgKind::Data,
                    DomMsg::WriteProp {
                        object,
                        version,
                        payload: payload.clone(),
                        writer: node(self.id),
                    },
                );
            }
            return;
        }
        let Some(config) = self.config_or_record(object) else {
            return;
        };
        match config {
            ProtocolConfig::Sa { q } => {
                if q.contains(self.id) {
                    self.store.output(object, version, payload.clone());
                }
                for member in q.iter().filter(|&m| m != self.id) {
                    ctx.send(
                        node(member),
                        MsgKind::Data,
                        DomMsg::WriteProp {
                            object,
                            version,
                            payload: payload.clone(),
                            writer: node(self.id),
                        },
                    );
                }
            }
            ProtocolConfig::Da { .. } => {
                let exec = config.da_exec_set(self.id);
                debug_assert!(exec.contains(self.id), "DA writers are always in X");
                self.store.output(object, version, payload.clone());
                for member in exec.iter().filter(|&m| m != self.id) {
                    ctx.send(
                        node(member),
                        MsgKind::Data,
                        DomMsg::WriteProp {
                            object,
                            version,
                            payload: payload.clone(),
                            writer: node(self.id),
                        },
                    );
                }
                if self.is_da_core(object) {
                    // The writer is itself a core member: do its
                    // invalidation duties immediately.
                    self.da_invalidate_duties(ctx, object, version, self.id);
                }
            }
            ProtocolConfig::Adaptive { .. } => {
                let Some(plan) = plan else {
                    self.errors.push(DomaError::InvalidConfig(
                        "adaptive write injected without a plan".into(),
                    ));
                    return;
                };
                if plan.exec.contains(self.id) {
                    self.store.output(object, version, payload.clone());
                }
                for member in plan.exec.iter().filter(|&m| m != self.id) {
                    ctx.send(
                        node(member),
                        MsgKind::Data,
                        DomMsg::WriteProp {
                            object,
                            version,
                            payload: payload.clone(),
                            writer: node(self.id),
                        },
                    );
                }
                // The issuer performs the invalidation duties itself: the
                // driver already computed `Y \ X \ {i}` from the oracle's
                // scheme.
                for member in plan.invalidate.iter().filter(|&m| m != self.id) {
                    ctx.send(
                        node(member),
                        MsgKind::Control,
                        DomMsg::Invalidate { object, version },
                    );
                }
                if plan.self_invalidate && !plan.exec.contains(self.id) {
                    // A scheme member writing remotely drops its own
                    // replica without any message — the analytic model
                    // charges nothing for it.
                    if let Some(slot) = self.catalog.slot(object) {
                        let floor = &mut self.invalidated_below[slot];
                        if version > *floor {
                            *floor = version;
                        }
                    }
                    self.store.invalidate(object);
                }
            }
        }
    }

    /// A core member's duties when it learns of the write of `version` by
    /// `writer`: invalidate its join-list outside the new execution set,
    /// and (primary only) invalidate and re-track the "extra" member.
    fn da_invalidate_duties<T: Transport + ?Sized>(
        &mut self,
        ctx: &mut T,
        object: ObjectId,
        version: Version,
        writer: ProcessorId,
    ) {
        let Some(config) = self.config_or_record(object) else {
            return;
        };
        let exec = config.da_exec_set(writer);
        let spare = exec.with(writer);
        let primary = self.is_da_primary(object);
        let Some(slot) = self.catalog.slot(object) else {
            return;
        };
        let state = &mut self.da[slot];
        let flushed = state.join_list.len();
        for member in state.join_list.iter().filter(|m| !spare.contains(*m)) {
            ctx.send(
                node(member),
                MsgKind::Control,
                DomMsg::Invalidate { object, version },
            );
        }
        state.join_list = ProcSet::EMPTY;
        if primary {
            if let Some(extra) = state.extra {
                if !spare.contains(extra) {
                    ctx.send(
                        node(extra),
                        MsgKind::Control,
                        DomMsg::Invalidate { object, version },
                    );
                }
            }
            // The new extra member: the original floater if the writer is
            // core-or-floater, otherwise the writer itself.
            state.extra = match &config {
                ProtocolConfig::Da { f, p } => {
                    if f.with(*p).contains(writer) {
                        Some(*p)
                    } else {
                        Some(writer)
                    }
                }
                ProtocolConfig::Sa { .. } | ProtocolConfig::Adaptive { .. } => None,
            };
        }
        if flushed > 0 {
            self.obs_scheme_churn(ctx.now(), object, flushed);
        }
    }

    fn handle_quorum_reply<T: Transport + ?Sized>(
        &mut self,
        ctx: &mut T,
        from: NodeId,
        object: ObjectId,
        round: u64,
        reply: Option<(Version, Payload)>,
    ) {
        let Some(slot) = self.catalog.slot(object) else {
            return;
        };
        let Some(pending) = self.pending[slot].as_mut() else {
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
        self.maybe_finish_quorum(ctx, object);
    }

    fn maybe_finish_quorum<T: Transport + ?Sized>(&mut self, ctx: &mut T, object: ObjectId) {
        let Some(slot) = self.catalog.slot(object) else {
            return;
        };
        let finished = self.pending[slot].as_ref().is_some_and(|p| {
            let reached = if self.bugs.count_duplicate_responders {
                p.counted
            } else {
                p.responders.len()
            };
            reached >= p.needed
        });
        if finished {
            let Some(done) = self.pending[slot].take() else {
                return;
            };
            if let Some(obs) = self.obs.as_mut() {
                if let Some(span) = obs.open_quorum.remove(&(object, done.round)) {
                    obs.bundle().events().span_exit(span, ctx.now().ticks());
                }
            }
            let version = done.best.as_ref().map(|(v, _)| *v);
            if let Some((v, d)) = done.best {
                if done.store_result && self.fresher_than_local(object, v) {
                    self.store.output(object, v, d);
                }
            }
            if !self.read_started[slot].is_empty() {
                self.complete_read(object, version, ctx.now());
            } else {
                // CatchUp completion: nothing further to do.
                let _ = done.started;
            }
        }
    }
}

impl DomNode {
    /// Deliver one inbound message through any [`Transport`]: classify it,
    /// run the state machine, then account the step's I/O and buffered
    /// sends to observability. This is the single entry point both
    /// runtimes share — the sim engine's [`Actor::on_message`] delegates
    /// here, and `doma-net`'s event loop calls it directly, so the two
    /// execute literally the same code path.
    ///
    /// The transport's send buffer must hold only this delivery's sends
    /// when the call returns (flush it *after* `deliver`, never during).
    pub fn deliver<T: Transport + ?Sized>(&mut self, t: &mut T, from: NodeId, msg: DomMsg) {
        // Classify before handling (the handler consumes the message),
        // account after: the transport's send buffer then holds exactly
        // this dispatch's sends and the I/O cursor delta exactly its
        // I/O.
        let op = op_of(&msg);
        let object = object_of(&msg);
        self.handle_message(t, from, msg);
        self.obs_account(t, op, object);
    }

    fn handle_message<T: Transport + ?Sized>(&mut self, ctx: &mut T, from: NodeId, msg: DomMsg) {
        match msg {
            DomMsg::ClientRead { object, plan } => self.handle_client_read(ctx, object, plan),
            DomMsg::ClientWrite {
                object,
                version,
                payload,
                plan,
            } => self.handle_client_write(ctx, object, version, payload, plan),
            DomMsg::ReadReq {
                object,
                saving,
                round,
            } => {
                match self.input_shared(object) {
                    Some((version, payload)) => {
                        if saving && self.is_da_core(object) {
                            // is_da_core implies the object is catalogued,
                            // so the slot lookup always succeeds.
                            let joined = match self.catalog.slot(object) {
                                Some(slot) => {
                                    let state = &mut self.da[slot];
                                    let grew = !state.join_list.contains(proc(from));
                                    state.join_list.insert(proc(from));
                                    grew
                                }
                                None => false,
                            };
                            if joined {
                                self.obs_join(ctx.now(), object, from);
                            }
                        }
                        ctx.send(
                            from,
                            MsgKind::Data,
                            DomMsg::ObjData {
                                object,
                                version,
                                payload,
                                save: saving,
                                round,
                            },
                        );
                    }
                    None => {
                        // Only possible in quorum mode (normal-mode servers
                        // always hold valid replicas — asserted by tests).
                        ctx.send(from, MsgKind::Control, DomMsg::NoData { object, round });
                    }
                }
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
                    self.handle_quorum_reply(ctx, from, object, round, Some((version, payload)));
                } else {
                    if version < self.invalidated_floor(object) && !self.bugs.no_invalidated_floor {
                        // A delayed or duplicated reply carrying data an
                        // invalidation already proved obsolete: answering
                        // a read with it would violate one-copy
                        // semantics. Drop it.
                        return;
                    }
                    if save && self.fresher_than_local(object, version) {
                        self.store.output(object, version, payload);
                    }
                    self.complete_read(object, Some(version), ctx.now());
                }
            }
            DomMsg::NoData { object, round } => {
                self.handle_quorum_reply(ctx, from, object, round, None)
            }
            DomMsg::WriteProp {
                object,
                version,
                payload,
                writer,
            } => {
                // A delayed/duplicated propagation must not regress the
                // replica; core invalidation duties still run so late
                // joiners are flushed exactly once per write.
                if self.fresher_than_local(object, version) {
                    self.store.output(object, version, payload);
                    if !self.quorum_mode && self.is_da_core(object) {
                        self.da_invalidate_duties(ctx, object, version, proc(writer));
                    }
                }
            }
            DomMsg::Invalidate { object, version } => {
                if let Some(slot) = self.catalog.slot(object) {
                    let floor = &mut self.invalidated_below[slot];
                    if version > *floor {
                        *floor = version;
                    }
                }
                self.store.invalidate(object);
            }
            DomMsg::ModeChange { quorum } => {
                self.obs_mode_change(ctx.now(), quorum);
                self.quorum_mode = quorum;
                if quorum {
                    // Missing-writes transition (§2): a normal-mode write
                    // lives on only t replicas — not necessarily a
                    // majority — so quorum reads alone could miss it.
                    // Every valid holder pushes its current version to all
                    // peers (receivers keep the freshest), putting the
                    // latest committed version on a write-majority before
                    // quorum service starts.
                    for slot in 0..self.catalog.len() {
                        let object = self.catalog.ids[slot];
                        let held = self.input_shared(object);
                        if let Some((version, payload)) = held {
                            for peer in self.all_peers() {
                                ctx.send(
                                    peer,
                                    MsgKind::Data,
                                    DomMsg::WriteProp {
                                        object,
                                        version,
                                        payload: payload.clone(),
                                        writer: node(self.id),
                                    },
                                );
                            }
                        }
                    }
                } else {
                    // Re-entering normal mode: quorum writes replicated to
                    // everyone, but DA's invariant is that exactly
                    // F ∪ {p} hold each object (join-lists empty, floater
                    // = p). Nodes outside that set drop their replicas
                    // locally — no messages, the mode change itself was
                    // the coordination.
                    let objects: Vec<(ObjectId, ProtocolConfig)> = self
                        .catalog
                        .ids
                        .iter()
                        .copied()
                        .zip(self.catalog.values.iter().cloned())
                        .collect();
                    for (object, config) in objects {
                        match config {
                            ProtocolConfig::Da { f, p } => {
                                if !f.with(p).contains(self.id) {
                                    self.store.invalidate(object);
                                }
                                let primary = self.is_da_primary(object);
                                let Some(slot) = self.catalog.slot(object) else {
                                    continue;
                                };
                                let state = &mut self.da[slot];
                                if f.contains(self.id) {
                                    state.join_list = ProcSet::EMPTY;
                                }
                                if primary {
                                    state.extra = Some(p);
                                }
                            }
                            ProtocolConfig::Sa { q } => {
                                // SA's scheme is exactly Q; replicas that
                                // quorum writes left elsewhere are dropped.
                                if !q.contains(self.id) {
                                    self.store.invalidate(object);
                                }
                            }
                            ProtocolConfig::Adaptive { initial, .. } => {
                                // The driver resets its oracle to the
                                // initial scheme on this transition, so the
                                // replica set snaps back to match it.
                                if !initial.contains(self.id) {
                                    self.store.invalidate(object);
                                }
                            }
                        }
                    }
                }
            }
            DomMsg::CatchUp { object } => {
                if self.quorum_mode {
                    // Missing-writes transition: quorum-read the latest
                    // version and store it locally before resuming service.
                    // Sound here because quorum-mode writes (and the
                    // mode-entry push) put the latest version on a
                    // majority, which every assembled read quorum
                    // intersects.
                    self.start_quorum_read(ctx, object, true);
                } else {
                    // In normal mode the latest write lives on only t
                    // replicas — not necessarily a majority — so a quorum
                    // read could legitimately miss it (fast NoData control
                    // replies can assemble a majority before any data
                    // arrives). The scheme members are known and always
                    // current, so fetch from them directly; the freshest
                    // reply wins and a saving fetch re-enters the join
                    // list, restoring invalidation duties.
                    let Some(config) = self.config_or_record(object) else {
                        return;
                    };
                    // Adaptive schemes move with the workload, so the
                    // initial members may no longer hold the object: ask
                    // everyone, keep the freshest reply (stale and NoData
                    // round-0 replies drop harmlessly).
                    let targets = match config {
                        ProtocolConfig::Adaptive { .. } => ProcSet::universe(self.n),
                        other => other.initial_scheme(),
                    };
                    for member in targets.iter() {
                        if member == self.id {
                            continue;
                        }
                        ctx.send(
                            node(member),
                            MsgKind::Control,
                            DomMsg::ReadReq {
                                object,
                                saving: true,
                                round: 0,
                            },
                        );
                    }
                }
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
        self.clear_volatile_tables();
        // In-flight quorum spans died with the volatile state; their
        // enter records stay in the log as evidence.
        if let Some(obs) = self.obs.as_mut() {
            obs.open_quorum.clear();
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<DomMsg>) {
        self.recover_from_log();
        self.obs_account(ctx, Op::Recovery, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
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
        let member = DomNode::new(ProcessorId::new(0), 4, cfg.clone());
        assert!(member.holds_valid());
        assert_eq!(member.io_stats().total(), 0);
        let outsider = DomNode::new(ProcessorId::new(3), 4, cfg);
        assert!(!outsider.holds_valid());
    }

    #[test]
    fn primary_tracks_floater() {
        let cfg = ProtocolConfig::Da {
            f: ps(&[0, 2]),
            p: ProcessorId::new(3),
        };
        let primary = DomNode::new(ProcessorId::new(0), 5, cfg.clone());
        assert!(primary.is_da_primary(OBJECT));
        assert_eq!(primary.da_extra(OBJECT), Some(ProcessorId::new(3)));
        let other_core = DomNode::new(ProcessorId::new(2), 5, cfg);
        assert!(!other_core.is_da_primary(OBJECT));
        assert_eq!(other_core.da_extra(OBJECT), None);
    }

    #[test]
    fn quorum_peers_exclude_self_and_quorum_is_majority() {
        let cfg = ProtocolConfig::Sa { q: ps(&[0, 1]) };
        let n = DomNode::new(ProcessorId::new(1), 5, cfg);
        let peers: Vec<NodeId> = n.all_peers().collect();
        assert_eq!(peers.len(), 4);
        assert!(!peers.contains(&NodeId(1)));
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
        let n = DomNode::new(ProcessorId::new(0), 4, cfg);
        let err = n.config(ObjectId(99)).unwrap_err();
        assert_eq!(
            err,
            DomaError::UnknownObject {
                node: 0,
                object: 99
            }
        );
        assert!(err.to_string().contains("no config"), "{err}");
    }

    #[test]
    fn unknown_object_requests_record_errors_and_send_nothing() {
        use doma_sim::{Engine, EngineConfig};
        let cfg = ProtocolConfig::Sa { q: ps(&[0, 1]) };
        let mut engine: Engine<DomMsg, DomNode> = Engine::new(EngineConfig::default());
        let a = engine.add_node(DomNode::new(ProcessorId::new(0), 2, cfg.clone()));
        engine.add_node(DomNode::new(ProcessorId::new(1), 2, cfg));
        engine.inject(
            a,
            0,
            DomMsg::ClientRead {
                object: ObjectId(9),
                plan: None,
            },
        );
        engine.inject(
            a,
            1,
            DomMsg::ClientWrite {
                object: ObjectId(9),
                version: Version(1),
                payload: [1].into(),
                plan: None,
            },
        );
        engine.run_until_idle();
        let errors = engine.actor(a).protocol_errors();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors
            .iter()
            .all(|e| *e == DomaError::UnknownObject { node: 0, object: 9 }));
        // No messages escaped: the error path is local.
        let stats = engine.net_stats();
        assert_eq!(stats.control_sent + stats.data_sent, 0);
        assert_eq!(engine.actor(a).read_metrics(), (0, 0));
    }

    #[test]
    fn stale_write_prop_does_not_regress_the_replica() {
        use doma_sim::{Engine, EngineConfig};
        let cfg = ProtocolConfig::Sa { q: ps(&[0, 1]) };
        let mut engine: Engine<DomMsg, DomNode> = Engine::new(EngineConfig::default());
        let a = engine.add_node(DomNode::new(ProcessorId::new(0), 2, cfg.clone()));
        engine.add_node(DomNode::new(ProcessorId::new(1), 2, cfg));
        let wp = |v: u64| DomMsg::WriteProp {
            object: OBJECT,
            version: Version(v),
            payload: [v as u8].into(),
            writer: NodeId(1),
        };
        engine.inject(a, 0, wp(5));
        engine.inject(a, 1, wp(3)); // late, out-of-order propagation
        engine.inject(a, 2, wp(5)); // duplicate
        engine.run_until_idle();
        assert_eq!(engine.actor(a).replica_version(), Some(Version(5)));
        assert!(engine.actor(a).holds_valid());
    }
}

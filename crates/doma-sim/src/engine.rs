//! The event loop: actors, contexts, and deterministic dispatch.

use crate::fault::{FaultPlan, FaultState, FaultStats, Judgement};
use crate::{MsgKind, NetStats, Network, NetworkConfig, SimTime};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifies a node (actor) in the simulation. For protocol crates these
/// coincide with [`doma_core::ProcessorId`] indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// As an event field a node renders the way it prints (`N3`).
impl From<NodeId> for doma_obs::FieldValue {
    fn from(node: NodeId) -> Self {
        doma_obs::FieldRef::Id("N", node.0 as u64).into()
    }
}

/// A protocol participant. Actors receive messages and failure
/// notifications, and emit messages through the [`Context`].
pub trait Actor<M> {
    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, kind: MsgKind, msg: M);

    /// The node is about to crash (volatile state is lost by the actor's
    /// own logic; the engine only stops delivering to it).
    fn on_crash(&mut self) {}

    /// The node restarted.
    fn on_recover(&mut self, _ctx: &mut Context<M>) {}
}

/// The send buffer an actor writes into, and the logical time it reads:
/// the one buffer of every runtime. The engine hands each handler one
/// stamped with the virtual time and drains it after the dispatch; a
/// socket event loop keeps one per node, [`advance`](Context::advance)s
/// it once per delivery and drains it onto the wire. Either way the
/// buffer's storage is kept between deliveries.
pub struct Context<M> {
    now: SimTime,
    sends: Vec<(NodeId, MsgKind, M)>,
}

impl<M> Context<M> {
    /// The current logical time: virtual time under the engine, the
    /// per-node delivery tick in a socket runtime. It timestamps latency
    /// samples and obs events; no protocol decision reads it.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the logical clock on by one delivery.
    pub fn advance(&mut self) {
        self.now = self.now + 1;
    }

    /// Sends a message; it is tallied (and priced) even if the destination
    /// turns out to be crashed — the sender has already paid for the
    /// transmission.
    pub fn send(&mut self, to: NodeId, kind: MsgKind, msg: M) {
        self.sends.push((to, kind, msg));
    }

    /// Takes the buffered sends in the order they were made. The buffer
    /// keeps its storage, so a delivery allocates nothing once it has
    /// grown.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (NodeId, MsgKind, M)> {
        self.sends.drain(..)
    }
}

/// An empty buffer at time 0.
impl<M> Default for Context<M> {
    fn default() -> Self {
        Context {
            now: SimTime::ZERO,
            sends: Vec::new(),
        }
    }
}

#[derive(Clone)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        msg: M,
    },
    /// Local injection (a client request arriving at its own node): not a
    /// network message, so not tallied.
    Local {
        to: NodeId,
        msg: M,
    },
    Crash(NodeId),
    Recover(NodeId),
}

#[derive(Clone)]
struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

/// A snapshot of one schedulable event in the queue: the unit of choice
/// for a model checker driving the engine one delivery at a time via
/// [`Engine::pending_events`] / [`Engine::dispatch_by_seq`].
#[derive(Debug, Clone)]
pub struct PendingEvent {
    seq: u64,
    target: NodeId,
    content_hash: u64,
    label: String,
}

impl PendingEvent {
    /// The engine-assigned sequence number identifying this event. Stable
    /// across [`Engine::fork`]: a fork dispatches the same seq to take the
    /// same transition.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The node whose state dispatching this event mutates. Two pending
    /// events with different targets commute (with a point-to-point
    /// medium): dispatching them in either order yields the same state.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// A hash of the event's content (class, endpoints, payload) that
    /// deliberately excludes `seq` and `time`, so states reached along
    /// different schedules fingerprint equal when their queued futures
    /// are equal.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// A human-readable description (for counterexample traces).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Network latencies.
    pub network: NetworkConfig,
    /// Livelock guard: one [`Engine::run_until_idle`] call stops after
    /// dispatching this many events (0 = no limit). A protocol bug that
    /// floods the network trips this instead of hanging the test suite;
    /// the budget restarts with every call, so it bounds how long one
    /// settle may take, not how long an engine may live.
    pub max_events: u64,
}

/// A message tracer: the event log its records go to plus the labelling
/// function applied to each message before recording.
type Tracer<M> = (doma_obs::EventLog, fn(&M) -> String);

/// The engine's slice of an attached [`doma_obs::Obs`] bundle: the
/// bundle itself plus counters resolved once at attach time, so the
/// per-send hot path pays one atomic add, not a registry lookup.
struct EngineObs {
    bundle: doma_obs::Obs,
    sent_control: doma_obs::Counter,
    sent_data: doma_obs::Counter,
    dropped_crashed: doma_obs::Counter,
    dropped_fault: doma_obs::Counter,
    dropped_partition: doma_obs::Counter,
    faulted: doma_obs::Counter,
    /// `sim.crashes` / `sim.recoveries` per node, resolved at a node's
    /// first crash or recovery: registering them at attach time would put
    /// zero-valued keys into every failure-free snapshot.
    lifecycle: [Vec<Option<doma_obs::Counter>>; 2],
}

#[derive(Clone, Copy)]
enum Lifecycle {
    Crash,
    Recover,
}

impl EngineObs {
    fn lifecycle(&mut self, which: Lifecycle, node: NodeId) -> &doma_obs::Counter {
        let EngineObs {
            bundle, lifecycle, ..
        } = self;
        let slots = &mut lifecycle[which as usize];
        if slots.len() <= node.0 {
            slots.resize(node.0 + 1, None);
        }
        slots[node.0].get_or_insert_with(|| {
            let m = bundle.metrics();
            let label = node.to_string();
            match which {
                Lifecycle::Crash => m.counter("sim", "crashes", &[("node", &label)]),
                Lifecycle::Recover => m.counter("sim", "recoveries", &[("node", &label)]),
            }
        })
    }
}

/// The deterministic discrete-event engine.
pub struct Engine<M, A: Actor<M>> {
    actors: Vec<A>,
    alive: Vec<bool>,
    /// Pending events in dispatch order, ascending `(time, seq)`: the
    /// invariant [`Engine::push`] keeps (see the crate docs for its cost).
    queue: VecDeque<Event<M>>,
    /// The storage of [`Context`]'s buffer, kept between dispatches.
    sends: Vec<(NodeId, MsgKind, M)>,
    network: Network,
    now: SimTime,
    seq: u64,
    dispatched: u64,
    max_events: u64,
    overflowed: bool,
    tracer: Option<Tracer<M>>,
    obs: Option<EngineObs>,
    faults: Option<FaultState>,
}

impl<M: Clone, A: Actor<M>> Engine<M, A> {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            actors: Vec::new(),
            alive: Vec::new(),
            queue: VecDeque::new(),
            sends: Vec::new(),
            network: Network::new(config.network),
            now: SimTime::ZERO,
            seq: 0,
            dispatched: 0,
            max_events: config.max_events,
            overflowed: false,
            tracer: None,
            obs: None,
            faults: None,
        }
    }

    /// Attaches a message tracer: every delivery (and drop at a crashed
    /// node, or by a fault) is recorded into `log` as one
    /// [`doma_obs::trace::MESSAGE_EVENT`] record, labelled by `labeller`.
    /// Passing an [`doma_obs::Obs`] bundle's own log interleaves the
    /// deliveries with the engine's lifecycle events and the protocol's
    /// spans in one choreography log.
    pub fn set_tracer(&mut self, log: doma_obs::EventLog, labeller: fn(&M) -> String) {
        self.tracer = Some((log, labeller));
    }

    /// Records one message into the attached tracer, if any. `prefix`
    /// names the fault that touched the message (`fault-drop:` …).
    fn trace(
        &self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        delivered: bool,
        prefix: &str,
        msg: &M,
    ) {
        let Some((log, labeller)) = &self.tracer else {
            return;
        };
        doma_obs::event!(
            log,
            self.now.ticks(),
            doma_obs::trace::MESSAGE_EVENT,
            from = from.0,
            to = to.0,
            kind = kind,
            delivered = delivered,
            label = format!("{prefix}{}", labeller(msg)),
        );
    }

    /// Attaches an observability bundle: message sends, drops (by
    /// cause) and fault actions are counted in the bundle's registry
    /// under component `sim`, and crash/recover/drop lifecycle events
    /// are appended to its event log. Like the tracer, the bundle is
    /// *not* carried over by [`Engine::fork`] — a model checker's forks
    /// would otherwise multiply-count into the shared registry.
    pub fn set_obs(&mut self, obs: doma_obs::Obs) {
        let m = obs.metrics();
        self.obs = Some(EngineObs {
            sent_control: m.counter("sim", "msgs_sent", &[("kind", "control")]),
            sent_data: m.counter("sim", "msgs_sent", &[("kind", "data")]),
            dropped_crashed: m.counter("sim", "msgs_dropped", &[("reason", "crashed")]),
            dropped_fault: m.counter("sim", "msgs_dropped", &[("reason", "fault")]),
            dropped_partition: m.counter("sim", "msgs_dropped", &[("reason", "partition")]),
            faulted: m.counter("sim", "msgs_faulted", &[]),
            lifecycle: [Vec::new(), Vec::new()],
            bundle: obs,
        });
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&doma_obs::Obs> {
        self.obs.as_ref().map(|o| &o.bundle)
    }

    /// Registers an actor, returning its node id (ids are assigned
    /// densely from 0 in registration order).
    pub fn add_node(&mut self, actor: A) -> NodeId {
        self.actors.push(actor);
        self.alive.push(true);
        NodeId(self.actors.len() - 1)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.actors.len()
    }

    /// Immutable access to an actor (assertions in tests/drivers).
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.0]
    }

    /// Mutable access to an actor (drivers configuring nodes between
    /// requests).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        &mut self.actors[node.0]
    }

    /// Whether a node is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }

    /// The network's message tallies so far.
    pub fn net_stats(&self) -> NetStats {
        self.network.stats()
    }

    /// Cumulative ticks messages spent queueing for the shared bus
    /// (always 0 with a point-to-point medium).
    pub fn bus_queue_wait(&self) -> u64 {
        self.network.total_queue_wait()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        // The largest `seq` yet: behind every event not timed later.
        let later = self.queue.iter().rev().take_while(|e| e.time > time);
        let at = self.queue.len() - later.count();
        self.queue.insert(at, Event { time, seq, kind });
        seq
    }

    /// Injects a client request into `to` after `delay` ticks. Local —
    /// not a network message, not tallied. Returns the queued event's
    /// sequence number (usable with [`Engine::dispatch_by_seq`]).
    pub fn inject(&mut self, to: NodeId, delay: u64, msg: M) -> u64 {
        let time = self.now + delay;
        self.push(time, EventKind::Local { to, msg })
    }

    /// Schedules a crash of `node` after `delay` ticks. Returns the
    /// queued event's sequence number.
    pub fn schedule_crash(&mut self, node: NodeId, delay: u64) -> u64 {
        let time = self.now + delay;
        self.push(time, EventKind::Crash(node))
    }

    /// Schedules a recovery of `node` after `delay` ticks. Returns the
    /// queued event's sequence number.
    pub fn schedule_recover(&mut self, node: NodeId, delay: u64) -> u64 {
        let time = self.now + delay;
        self.push(time, EventKind::Recover(node))
    }

    /// Installs a [`FaultPlan`]: its message-fault rules and partitions
    /// take effect on every subsequent send. Replaces any previous plan
    /// and its tallies. Crashes are not part of a plan: they are engine
    /// events ([`Engine::schedule_crash`], [`Engine::schedule_recover`]).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// Removes the installed fault plan, returning the tallies of the
    /// faults it injected.
    pub fn clear_faults(&mut self) -> FaultStats {
        self.faults.take().map(|s| s.stats()).unwrap_or_default()
    }

    fn dispatch_to(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Context<M>)) {
        let mut ctx = Context {
            now: self.now,
            sends: std::mem::take(&mut self.sends),
        };
        f(&mut self.actors[node.0], &mut ctx);
        for (to, kind, msg) in ctx.drain() {
            // The sender pays for the transmission before any fault can
            // eat it — send tallies match the paper's cost model even on
            // lossy runs.
            self.network.stats.record_send(kind);
            if let Some(o) = &self.obs {
                match kind {
                    MsgKind::Control => o.sent_control.inc(),
                    MsgKind::Data => o.sent_data.inc(),
                }
            }
            let natural = SimTime(self.network.schedule_delivery(self.now.ticks(), kind));
            let verdict = match &mut self.faults {
                Some(state) => state.judge(self.now.ticks(), node, to, kind),
                None => Judgement::Deliver,
            };
            match verdict {
                Judgement::Deliver => {
                    self.push(
                        natural,
                        EventKind::Deliver {
                            from: node,
                            to,
                            kind,
                            msg,
                        },
                    );
                }
                Judgement::Lost { partition } => {
                    self.network.stats.dropped += 1;
                    if let Some(o) = &self.obs {
                        if partition {
                            o.dropped_partition.inc();
                        } else {
                            o.dropped_fault.inc();
                        }
                        doma_obs::event!(
                            o.bundle.events(),
                            self.now.ticks(),
                            "sim.drop",
                            from = node,
                            to = to,
                            kind = kind,
                            cause = if partition { "partition" } else { "fault" },
                        );
                    }
                    let cause = if partition {
                        "fault-partition:"
                    } else {
                        "fault-drop:"
                    };
                    self.trace(node, to, kind, false, cause, &msg);
                }
                Judgement::Deliveries { extra, action } => {
                    if let Some(o) = &self.obs {
                        o.faulted.inc();
                        doma_obs::event!(
                            o.bundle.events(),
                            self.now.ticks(),
                            "sim.fault",
                            from = node,
                            to = to,
                            action = action.to_string(),
                        );
                    }
                    self.trace(node, to, kind, true, &format!("fault-{action}:"), &msg);
                    for offset in extra {
                        self.push(
                            natural + offset,
                            EventKind::Deliver {
                                from: node,
                                to,
                                kind,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
            }
        }
        self.sends = ctx.sends;
    }

    fn dispatch_event(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver {
                from,
                to,
                kind,
                msg,
            } => {
                let delivered = self.alive[to.0];
                self.trace(from, to, kind, delivered, "", &msg);
                if delivered {
                    self.dispatch_to(to, |a, ctx| a.on_message(ctx, from, kind, msg));
                } else {
                    self.network.stats.dropped += 1;
                    if let Some(o) = &self.obs {
                        o.dropped_crashed.inc();
                        doma_obs::event!(
                            o.bundle.events(),
                            self.now.ticks(),
                            "sim.drop",
                            from = from,
                            to = to,
                            kind = kind,
                            cause = "crashed",
                        );
                    }
                }
            }
            EventKind::Local { to, msg } => {
                if self.alive[to.0] {
                    // Local requests arrive "from" the node itself.
                    self.dispatch_to(to, |a, ctx| a.on_message(ctx, to, MsgKind::Control, msg));
                }
            }
            EventKind::Crash(node) => {
                if self.alive[node.0] {
                    self.alive[node.0] = false;
                    self.actors[node.0].on_crash();
                    if let Some(o) = &mut self.obs {
                        o.lifecycle(Lifecycle::Crash, node).inc();
                        doma_obs::event!(
                            o.bundle.events(),
                            self.now.ticks(),
                            "sim.crash",
                            node = node
                        );
                    }
                }
            }
            EventKind::Recover(node) => {
                if !self.alive[node.0] {
                    self.alive[node.0] = true;
                    if let Some(o) = &mut self.obs {
                        o.lifecycle(Lifecycle::Recover, node).inc();
                        doma_obs::event!(
                            o.bundle.events(),
                            self.now.ticks(),
                            "sim.recover",
                            node = node
                        );
                    }
                    self.dispatch_to(node, |a, ctx| a.on_recover(ctx));
                }
            }
        }
    }

    /// Runs until the event queue drains (or `max_events` trips, in which
    /// case [`Engine::budget_exhausted`] turns true and the remaining
    /// queue is left untouched — the driver decides how to report it).
    /// Returns the number of events dispatched by this call.
    pub fn run_until_idle(&mut self) -> u64 {
        if self.overflowed {
            return 0;
        }
        let start = self.dispatched;
        while let Some(event) = self.queue.pop_front() {
            if self.max_events > 0 && self.dispatched - start >= self.max_events {
                // Put the event back: the state is inspectable, just not
                // runnable any further under this budget.
                self.queue.push_front(event);
                self.overflowed = true;
                break;
            }
            self.now = event.time;
            self.dispatched += 1;
            self.dispatch_event(event.kind);
        }
        self.dispatched - start
    }

    /// Whether a `run_until_idle` call tripped the `max_events` safety
    /// valve (a runaway protocol, or an exploration budget set
    /// deliberately tight). Sticky until the engine is dropped.
    pub fn budget_exhausted(&self) -> bool {
        self.overflowed
    }

    /// Total events dispatched over the engine's lifetime.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

impl<M: Clone + Hash, A: Actor<M>> Engine<M, A> {
    /// Snapshots every queued event as a [`PendingEvent`] choice point,
    /// ordered by the natural schedule (time, then send order). `labeller`
    /// renders message payloads for counterexample traces.
    pub fn pending_events(&self, labeller: impl Fn(&M) -> String) -> Vec<PendingEvent> {
        self.queue
            .iter()
            .map(|e| {
                let mut h = DefaultHasher::new();
                let (target, label) = match &e.kind {
                    EventKind::Deliver {
                        from,
                        to,
                        kind,
                        msg,
                    } => {
                        0u8.hash(&mut h);
                        from.hash(&mut h);
                        to.hash(&mut h);
                        kind.hash(&mut h);
                        msg.hash(&mut h);
                        (*to, format!("{from}->{to} {}", labeller(msg)))
                    }
                    EventKind::Local { to, msg } => {
                        1u8.hash(&mut h);
                        to.hash(&mut h);
                        msg.hash(&mut h);
                        (*to, format!("local@{to} {}", labeller(msg)))
                    }
                    EventKind::Crash(node) => {
                        3u8.hash(&mut h);
                        node.hash(&mut h);
                        (*node, format!("crash@{node}"))
                    }
                    EventKind::Recover(node) => {
                        4u8.hash(&mut h);
                        node.hash(&mut h);
                        (*node, format!("recover@{node}"))
                    }
                };
                PendingEvent {
                    seq: e.seq,
                    target,
                    content_hash: h.finish(),
                    label,
                }
            })
            .collect()
    }

    /// Removes the queued event with sequence number `seq` and dispatches
    /// it now, regardless of its scheduled time (virtual time stays
    /// monotone: it only advances, to the event's time if that is later).
    /// Returns `false` if no such event is queued, or an earlier
    /// [`Engine::run_until_idle`] tripped the event budget (the event
    /// stays queued). Single steps are not budgeted themselves: a driver
    /// stepping the engine bounds its own depth.
    pub fn dispatch_by_seq(&mut self, seq: u64) -> bool {
        if self.overflowed {
            return false;
        }
        let Some(event) = self
            .queue
            .iter()
            .position(|e| e.seq == seq)
            .and_then(|at| self.queue.remove(at))
        else {
            return false;
        };
        self.now = self.now.max(event.time);
        self.dispatched += 1;
        self.dispatch_event(event.kind);
        true
    }

    /// Whether any event is queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }
}

impl<M: Clone, A: Actor<M> + Clone> Engine<M, A> {
    /// Deep-copies the engine: actors, liveness, the event queue, virtual
    /// clock, fault state, and the network with its tallies (the fork's
    /// traffic never shows in the original). The
    /// tracer is not carried over. Sequence numbers continue from the
    /// same counter, so the same `inject`/`dispatch_by_seq` calls on two
    /// forks name the same events — the property a model checker's DFS
    /// relies on.
    pub fn fork(&self) -> Self {
        Engine {
            actors: self.actors.clone(),
            alive: self.alive.clone(),
            queue: self.queue.clone(),
            sends: Vec::new(),
            network: self.network.clone(),
            now: self.now,
            seq: self.seq,
            dispatched: self.dispatched,
            max_events: self.max_events,
            overflowed: self.overflowed,
            tracer: None,
            // Like the tracer, the obs bundle is not carried over: forks
            // incrementing the shared registry would multiply-count.
            obs: None,
            faults: self.faults.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a socket runtime does with a buffer: build it empty at time
    /// 0, advance it once per delivery, drain it in send order in place.
    #[test]
    fn context_drains_in_send_order_and_keeps_its_buffer() {
        let mut ctx: Context<u32> = Context::default();
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.advance();
        assert_eq!(ctx.now(), SimTime(1));
        ctx.send(NodeId(1), MsgKind::Control, 7);
        ctx.send(NodeId(2), MsgKind::Data, 8);
        let capacity = ctx.sends.capacity();
        let sent: Vec<_> = ctx.drain().collect();
        let want = [
            (NodeId(1), MsgKind::Control, 7),
            (NodeId(2), MsgKind::Data, 8),
        ];
        assert_eq!(sent, want);
        assert!(ctx.sends.is_empty());
        // The next delivery reuses the buffer instead of allocating one.
        ctx.send(NodeId(3), MsgKind::Control, 9);
        assert_eq!(ctx.sends.capacity(), capacity);
        assert_eq!(ctx.drain().count(), 1);
        assert_eq!(ctx.sends.capacity(), capacity);
    }

    /// A ping-pong actor: replies to `n > 0` with `n - 1`, alternating
    /// message kinds; records everything it saw.
    #[derive(Clone)]
    struct PingPong {
        peer: Option<NodeId>,
        seen: Vec<u32>,
        recovered: u32,
        crashed: u32,
    }

    impl PingPong {
        fn new(peer: Option<NodeId>) -> Self {
            PingPong {
                peer,
                seen: Vec::new(),
                recovered: 0,
                crashed: 0,
            }
        }
    }

    impl Actor<u32> for PingPong {
        fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, _kind: MsgKind, msg: u32) {
            self.seen.push(msg);
            if msg > 0 {
                let to = self.peer.unwrap_or(from);
                let kind = if msg.is_multiple_of(2) {
                    MsgKind::Control
                } else {
                    MsgKind::Data
                };
                ctx.send(to, kind, msg - 1);
            }
        }
        fn on_crash(&mut self) {
            self.crashed += 1;
        }
        fn on_recover(&mut self, _ctx: &mut Context<u32>) {
            self.recovered += 1;
        }
    }

    #[test]
    fn ping_pong_counts_messages_exactly() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        assert_eq!(engine.node_count(), 2);
        engine.inject(a, 0, 4);
        engine.run_until_idle();
        // 4 messages sent on the wire: 3→b, 2→a, 1→b, 0→a... wait: a sees 4
        // (local), sends 3; b sends 2; a sends 1; b sends 0; a sees 0, stops.
        let stats = engine.net_stats();
        assert_eq!(stats.control_sent + stats.data_sent, 4);
        // Kinds alternate with parity of the value sent: 3(data→wait msg=4
        // even→Control carrying 3), 2 is sent while msg=3 odd→Data, etc.
        assert_eq!(stats.control_sent, 2);
        assert_eq!(stats.data_sent, 2);
        assert_eq!(engine.actor(a).seen, vec![4, 2, 0]);
        assert_eq!(engine.actor(b).seen, vec![3, 1]);
    }

    #[test]
    fn virtual_time_advances_by_latency() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig {
            network: NetworkConfig {
                control_latency: 5,
                data_latency: 11,
                medium: crate::Medium::PointToPoint,
            },
            max_events: 0,
        });
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let _b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.inject(a, 2, 2);
        engine.run_until_idle();
        // t=2 local; a sends Control(1) (+5) → t=7; b sends Data(0) (+11) → 18.
        assert_eq!(engine.now(), SimTime(18));
    }

    #[test]
    fn crashed_nodes_drop_messages_and_recover() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.schedule_crash(b, 0);
        engine.inject(a, 1, 3); // a replies 2 to b, which is down
        engine.run_until_idle();
        assert_eq!(engine.net_stats().dropped, 1);
        assert!(engine.actor(b).seen.is_empty());
        assert!(!engine.is_alive(b));
        assert_eq!(engine.actor(b).crashed, 1);

        engine.schedule_recover(b, 0);
        engine.inject(a, 1, 1); // a sends 0 to b, which is back up
        engine.run_until_idle();
        assert!(engine.is_alive(b));
        assert_eq!(engine.actor(b).recovered, 1);
        assert_eq!(engine.actor(b).seen, vec![0]);
    }

    #[test]
    fn runaway_protocol_trips_the_valve() {
        /// Replies forever.
        struct Flood;
        impl Actor<u32> for Flood {
            fn on_message(&mut self, ctx: &mut Context<u32>, from: NodeId, _k: MsgKind, msg: u32) {
                ctx.send(from, MsgKind::Control, msg);
            }
        }
        let mut engine: Engine<u32, Flood> = Engine::new(EngineConfig {
            network: NetworkConfig::default(),
            max_events: 100,
        });
        let a = engine.add_node(Flood);
        let b = engine.add_node(Flood);
        let _ = b;
        engine.inject(a, 0, 1);
        let dispatched = engine.run_until_idle();
        assert!(engine.budget_exhausted(), "valve must trip");
        assert_eq!(dispatched, 100, "stops exactly at the budget");
        assert!(engine.has_pending(), "the undispatched event stays queued");
    }

    #[test]
    fn event_budget_restarts_with_every_run() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig {
            network: NetworkConfig::default(),
            max_events: 8,
        });
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let _b = engine.add_node(PingPong::new(Some(NodeId(0))));
        // Five events per exchange, forty over the engine's life: each
        // run stays under the budget, so the guard never trips.
        for _ in 0..8 {
            engine.inject(a, 0, 4);
            assert_eq!(engine.run_until_idle(), 5);
        }
        assert!(!engine.budget_exhausted());
        assert_eq!(engine.dispatched(), 40);
        // One exchange longer than the budget still trips it, and a
        // tripped engine stays stopped.
        engine.inject(a, 0, 20);
        assert_eq!(engine.run_until_idle(), 8);
        assert!(engine.budget_exhausted());
        assert_eq!(engine.run_until_idle(), 0);
        assert!(engine.has_pending());
    }

    #[test]
    fn installed_drop_rule_loses_the_message_but_keeps_the_send_tally() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.install_faults(
            FaultPlan::new(0)
                .rule(FaultRule::always(LinkFilter::link(a, b), FaultAction::Drop).with_budget(1)),
        );
        engine.inject(a, 0, 4);
        engine.run_until_idle();
        // a's first reply (3→b) is eaten; the exchange dies there.
        assert_eq!(engine.actor(a).seen, vec![4]);
        assert!(engine.actor(b).seen.is_empty());
        let stats = engine.net_stats();
        assert_eq!(stats.control_sent + stats.data_sent, 1, "sender still pays");
        assert_eq!(stats.dropped, 1);
        assert_eq!(engine.clear_faults().dropped, 1);
        assert_eq!(engine.clear_faults(), crate::fault::FaultStats::default());
    }

    #[test]
    fn duplicate_rule_delivers_twice() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        // One actor type covers both roles: forward if a peer is set,
        // always record.
        struct Both {
            peer: Option<NodeId>,
            got: Vec<u32>,
        }
        impl Actor<u32> for Both {
            fn on_message(&mut self, ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
                self.got.push(msg);
                if let Some(peer) = self.peer {
                    ctx.send(peer, MsgKind::Data, msg);
                }
            }
        }
        let mut engine: Engine<u32, Both> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Both {
            peer: Some(NodeId(1)),
            got: vec![],
        });
        let b = engine.add_node(Both {
            peer: None,
            got: vec![],
        });
        engine.install_faults(FaultPlan::new(0).rule(FaultRule::always(
            LinkFilter::link(a, b),
            FaultAction::Duplicate(4),
        )));
        engine.inject(a, 0, 9);
        engine.run_until_idle();
        assert_eq!(engine.actor(b).got, vec![9, 9], "original plus one copy");
        assert_eq!(engine.clear_faults().duplicated, 1);
        // Exactly one send was tallied: the duplicate is injected, not paid.
        let stats = engine.net_stats();
        assert_eq!(stats.data_sent, 1);
    }

    #[test]
    fn delay_rule_reorders_across_a_faster_message() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        struct Rec {
            got: Vec<u32>,
        }
        impl Actor<u32> for Rec {
            fn on_message(&mut self, ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
                self.got.push(msg);
                // Node 0 fans out two messages to node 1 on its injected 0.
                if msg == 0 {
                    ctx.send(NodeId(1), MsgKind::Control, 1);
                    ctx.send(NodeId(1), MsgKind::Control, 2);
                }
            }
        }
        let mut engine: Engine<u32, Rec> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Rec { got: vec![] });
        let b = engine.add_node(Rec { got: vec![] });
        let _ = (a, b);
        // Delay only the *first* matching message; the second overtakes it.
        engine.install_faults(
            FaultPlan::new(0).rule(
                FaultRule::always(
                    LinkFilter::link(NodeId(0), NodeId(1)),
                    FaultAction::Delay(10),
                )
                .with_budget(1),
            ),
        );
        engine.inject(NodeId(0), 0, 0);
        engine.run_until_idle();
        assert_eq!(engine.actor(NodeId(1)).got, vec![2, 1], "reordered");
        assert_eq!(engine.clear_faults().delayed, 1);
    }

    #[test]
    fn scheduled_crash_events_fire_at_their_ticks() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.schedule_crash(b, 0);
        engine.schedule_recover(b, 5);
        engine.inject(a, 1, 3); // a replies 2 → b at t=2 — b is down until t=5
        engine.run_until_idle();
        assert!(engine.is_alive(b));
        assert_eq!(engine.actor(b).crashed, 1);
        assert_eq!(engine.actor(b).recovered, 1);
        assert!(engine.actor(b).seen.is_empty());
        assert_eq!(engine.net_stats().dropped, 1);
    }

    #[test]
    fn fault_trace_records_are_labelled() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule, LinkFilter};
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        let log = doma_obs::EventLog::new(16);
        engine.set_tracer(log.clone(), |m| format!("m{m}"));
        engine.install_faults(
            FaultPlan::new(0)
                .rule(FaultRule::always(LinkFilter::link(a, b), FaultAction::Drop).with_budget(1)),
        );
        engine.inject(a, 0, 4);
        engine.run_until_idle();
        let records = log.snapshot();
        let field = |r: &doma_obs::EventRecord, key: &str| r.fields.get(key).map(|v| v.to_string());
        assert!(
            records.iter().any(|r| {
                r.name == doma_obs::trace::MESSAGE_EVENT
                    && field(r, "label").as_deref() == Some("fault-drop:m3")
                    && field(r, "delivered").as_deref() == Some("false")
            }),
            "expected a fault-drop trace record, got {records:?}"
        );
    }

    #[test]
    fn deterministic_tiebreak_by_sequence() {
        // Two messages at the same instant are delivered in send order.
        struct Collect {
            got: Vec<u32>,
        }
        impl Actor<u32> for Collect {
            fn on_message(&mut self, _ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
                self.got.push(msg);
            }
        }
        let mut engine: Engine<u32, Collect> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Collect { got: Vec::new() });
        engine.inject(a, 5, 1);
        engine.inject(a, 5, 2);
        engine.inject(a, 5, 3);
        engine.run_until_idle();
        assert_eq!(engine.actor(a).got, vec![1, 2, 3]);
    }

    #[derive(Clone)]
    struct Collect2 {
        got: Vec<u32>,
    }
    impl Actor<u32> for Collect2 {
        fn on_message(&mut self, _ctx: &mut Context<u32>, _f: NodeId, _k: MsgKind, msg: u32) {
            self.got.push(msg);
        }
    }

    #[test]
    fn pending_events_snapshot_and_selective_dispatch() {
        let mut engine: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Collect2 { got: Vec::new() });
        let b = engine.add_node(Collect2 { got: Vec::new() });
        engine.inject(a, 3, 10);
        engine.inject(b, 1, 20);
        let pending = engine.pending_events(|m| format!("m{m}"));
        assert_eq!(pending.len(), 2);
        // Sorted by natural schedule: b's injection (t=1) first.
        assert_eq!(pending[0].target(), b);
        assert_eq!(pending[1].target(), a);
        assert!(pending[1].label().contains("m10"));
        // Dispatch out of natural order: a's event first.
        assert!(engine.dispatch_by_seq(pending[1].seq()));
        assert_eq!(engine.actor(a).got, vec![10]);
        assert_eq!(engine.now(), SimTime(3), "clock jumps to the event's time");
        assert!(engine.dispatch_by_seq(pending[0].seq()));
        assert_eq!(engine.now(), SimTime(3), "clock never regresses");
        assert!(!engine.has_pending());
        assert!(!engine.dispatch_by_seq(999), "unknown seq is a no-op");
    }

    #[test]
    fn content_hash_ignores_schedule_position() {
        let mut e1: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a1 = e1.add_node(Collect2 { got: Vec::new() });
        e1.inject(a1, 5, 42);
        let mut e2: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a2 = e2.add_node(Collect2 { got: Vec::new() });
        e2.inject(a2, 0, 7); // consumes seq 0 so the next event differs in seq/time
        e2.inject(a2, 9, 42);
        let p1 = e1.pending_events(|m| format!("{m}"));
        let p2 = e2.pending_events(|m| format!("{m}"));
        let h1 = p1[0].content_hash();
        let h2 = p2
            .iter()
            .find(|p| p.label().contains("42"))
            .unwrap()
            .content_hash();
        assert_eq!(h1, h2, "same payload+endpoints hash equal despite seq/time");
    }

    #[test]
    fn obs_counts_sends_drops_and_lifecycle() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        let obs = doma_obs::Obs::new(32);
        engine.set_obs(obs.clone());
        engine.schedule_crash(b, 0);
        engine.inject(a, 1, 3); // a replies 2 to b, which is down
        engine.run_until_idle();
        engine.schedule_recover(b, 0);
        engine.run_until_idle();

        let snap = obs.metrics().snapshot();
        assert_eq!(snap.sum_counters("sim", "msgs_sent"), 1);
        assert_eq!(
            snap.counter("sim", "msgs_dropped", &[("reason", "crashed")]),
            1
        );
        assert_eq!(snap.counter("sim", "crashes", &[("node", "N1")]), 1);
        assert_eq!(snap.counter("sim", "recoveries", &[("node", "N1")]), 1);
        let names: Vec<&str> = obs.events().snapshot().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["sim.crash", "sim.drop", "sim.recover"]);
        assert!(engine.obs().is_some());

        // Forks do not inherit the bundle: their activity must not leak
        // into the parent's registry.
        let mut fork = engine.fork();
        assert!(fork.obs().is_none());
        fork.inject(a, 1, 3);
        fork.run_until_idle();
        assert_eq!(obs.metrics().snapshot().sum_counters("sim", "msgs_sent"), 1);
    }

    #[test]
    fn fork_is_independent() {
        let mut engine: Engine<u32, Collect2> = Engine::new(EngineConfig::default());
        let a = engine.add_node(Collect2 { got: Vec::new() });
        engine.inject(a, 0, 1);
        engine.inject(a, 0, 2);
        let mut fork = engine.fork();
        fork.run_until_idle();
        assert_eq!(fork.actor(a).got, vec![1, 2]);
        assert!(engine.actor(a).got.is_empty(), "original untouched");
        assert_eq!(engine.pending_events(|m| format!("m{m}")).len(), 2);
    }

    #[test]
    fn fork_keeps_its_own_network_tallies() {
        let mut engine: Engine<u32, PingPong> = Engine::new(EngineConfig::default());
        let a = engine.add_node(PingPong::new(Some(NodeId(1))));
        let b = engine.add_node(PingPong::new(Some(NodeId(0))));
        engine.inject(a, 0, 1);
        engine.run_until_idle();
        let before = engine.net_stats();
        assert_eq!(before.data_sent, 1);
        let mut fork = engine.fork();
        fork.schedule_crash(b, 0);
        fork.inject(a, 1, 3); // a replies 2 to b, which is down in the fork
        fork.run_until_idle();
        assert_eq!(fork.net_stats().data_sent, 2);
        assert_eq!(fork.net_stats().dropped, 1);
        assert_eq!(engine.net_stats(), before, "original untouched");
    }
}

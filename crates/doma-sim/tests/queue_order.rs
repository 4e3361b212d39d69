//! The engine's event queue against a reference model.
//!
//! The engine keeps its pending events in a `VecDeque` sorted by
//! `(time, seq)` and inserts by scanning from the back. The model below
//! keeps the same events in a `BinaryHeap<Reverse<(time, seq)>>` — the
//! textbook way to say "dispatch the least `(time, seq)` next" — and runs
//! the same actor logic. Whatever a test does to one it does to the
//! other, and the two must agree on the order of the queue after every
//! step, on the sequence of dispatches, and on where a fork goes next.

use doma_sim::{
    Actor, Context, Engine, EngineConfig, FaultAction, FaultPlan, FaultRule, LinkFilter, MsgKind,
    NetStats, NetworkConfig, NodeId,
};
use doma_testkit::property::{self as prop};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

const NODES: usize = 3;

/// What a node does with message `msg`: nothing once its two hop bits
/// reach zero, otherwise one or two sends whose targets, kinds and ids
/// are all read off the message, each with one hop fewer.
fn sends_of(node: usize, msg: u64) -> Vec<(usize, MsgKind, u64)> {
    let hops = msg & 3;
    if hops == 0 {
        return Vec::new();
    }
    let fan = 1 + (msg >> 2 & 1);
    (0..fan)
        .map(|k| {
            let to = (node + 1 + ((msg >> 3) + k) as usize) % NODES;
            let kind = if msg >> (5 + k) & 1 == 1 {
                MsgKind::Data
            } else {
                MsgKind::Control
            };
            let child = msg.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k) & !3;
            (to, kind, child | (hops - 1))
        })
        .collect()
}

/// One line of the dispatch log: the virtual time, the node, and what
/// happened there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Message(u64),
    Crash,
    Recover,
}
type Log = Vec<(u64, usize, Seen)>;

/// The actor under the real engine. All nodes of one engine write one
/// log, so the log is the engine's global dispatch sequence.
#[derive(Clone)]
struct Hop {
    node: usize,
    now: u64,
    log: Rc<RefCell<Log>>,
}

impl Actor<u64> for Hop {
    fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, _kind: MsgKind, msg: u64) {
        self.now = ctx.now().ticks();
        self.log
            .borrow_mut()
            .push((self.now, self.node, Seen::Message(msg)));
        for (to, kind, child) in sends_of(self.node, msg) {
            ctx.send(NodeId(to), kind, child);
        }
    }

    fn on_crash(&mut self) {
        // No context here: the crash is stamped with the node's last
        // dispatch; the model does the same.
        self.log
            .borrow_mut()
            .push((self.now, self.node, Seen::Crash));
    }

    fn on_recover(&mut self, ctx: &mut Context<u64>) {
        self.now = ctx.now().ticks();
        self.log
            .borrow_mut()
            .push((self.now, self.node, Seen::Recover));
    }
}

#[derive(Debug, Clone, Copy)]
enum ModelEvent {
    Deliver { to: usize, msg: u64 },
    Local { to: usize, msg: u64 },
    Crash(usize),
    Recover(usize),
}

/// The reference: the engine's documented semantics over a binary heap.
#[derive(Clone)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: BTreeMap<u64, ModelEvent>,
    /// Extra delivery offsets per directed link (`[0]` when no rule).
    extra: BTreeMap<(usize, usize), Vec<u64>>,
    alive: [bool; NODES],
    last_seen: [u64; NODES],
    now: u64,
    seq: u64,
    stats: NetStats,
    log: Log,
}

impl Model {
    fn new(extra: BTreeMap<(usize, usize), Vec<u64>>) -> Self {
        Model {
            heap: BinaryHeap::new(),
            events: BTreeMap::new(),
            extra,
            alive: [true; NODES],
            last_seen: [0; NODES],
            now: 0,
            seq: 0,
            stats: NetStats::default(),
            log: Vec::new(),
        }
    }

    fn push(&mut self, time: u64, event: ModelEvent) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((time, seq)));
        self.events.insert(seq, event);
        seq
    }

    /// The queued sequence numbers in dispatch order.
    fn order(&self) -> Vec<u64> {
        let mut heap = self.heap.clone();
        std::iter::from_fn(|| heap.pop().map(|Reverse((_, seq))| seq)).collect()
    }

    fn dispatch(&mut self, seq: u64) {
        let Some(event) = self.events.remove(&seq) else {
            panic!("the model has no event {seq}");
        };
        match event {
            ModelEvent::Deliver { to, .. } if !self.alive[to] => self.stats.dropped += 1,
            ModelEvent::Local { to, .. } if !self.alive[to] => {}
            ModelEvent::Deliver { to, msg } | ModelEvent::Local { to, msg } => {
                self.last_seen[to] = self.now;
                self.log.push((self.now, to, Seen::Message(msg)));
                let latency = NetworkConfig::default();
                for (dest, kind, child) in sends_of(to, msg) {
                    let natural = self.now
                        + match kind {
                            MsgKind::Control => {
                                self.stats.control_sent += 1;
                                latency.control_latency
                            }
                            MsgKind::Data => {
                                self.stats.data_sent += 1;
                                latency.data_latency
                            }
                        };
                    let offsets = self.extra.get(&(to, dest)).cloned().unwrap_or(vec![0]);
                    for offset in offsets {
                        let event = ModelEvent::Deliver {
                            to: dest,
                            msg: child,
                        };
                        self.push(natural + offset, event);
                    }
                }
            }
            ModelEvent::Crash(node) => {
                if self.alive[node] {
                    self.alive[node] = false;
                    self.log.push((self.last_seen[node], node, Seen::Crash));
                }
            }
            ModelEvent::Recover(node) => {
                if !self.alive[node] {
                    self.alive[node] = true;
                    self.last_seen[node] = self.now;
                    self.log.push((self.now, node, Seen::Recover));
                }
            }
        }
    }

    /// `Engine::dispatch_by_seq`: the clock only moves forward.
    fn dispatch_by_seq(&mut self, seq: u64) {
        let queued = self.heap.iter().find(|Reverse((_, s))| *s == seq);
        let Some(&Reverse((time, _))) = queued else {
            panic!("the model has not queued {seq}");
        };
        self.heap.retain(|Reverse((_, s))| *s != seq);
        self.now = self.now.max(time);
        self.dispatch(seq);
    }

    /// `Engine::run_until_idle`: the clock follows the event.
    fn run_until_idle(&mut self) {
        while let Some(Reverse((time, seq))) = self.heap.pop() {
            self.now = time;
            self.dispatch(seq);
        }
    }
}

/// The engine under test with the log all its actors share.
struct Real {
    engine: Engine<u64, Hop>,
    log: Rc<RefCell<Log>>,
}

impl Real {
    fn new(plan: FaultPlan) -> Self {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new(EngineConfig::default());
        for node in 0..NODES {
            engine.add_node(Hop {
                node,
                now: 0,
                log: log.clone(),
            });
        }
        engine.install_faults(plan);
        Real { engine, log }
    }

    /// `Engine::fork`, with the fork's actors writing a log of their own.
    fn fork(&self) -> Self {
        let log = Rc::new(RefCell::new(self.log.borrow().clone()));
        let mut engine = self.engine.fork();
        for node in 0..NODES {
            engine.actor_mut(NodeId(node)).log = log.clone();
        }
        Real { engine, log }
    }

    fn order(&self) -> Vec<u64> {
        let pending = self.engine.pending_events(|m| m.to_string());
        pending.iter().map(|p| p.seq()).collect()
    }
}

fn assert_same(real: &Real, model: &Model, when: &str) {
    assert_eq!(real.order(), model.order(), "queue order {when}");
    assert_eq!(*real.log.borrow(), model.log, "dispatch sequence {when}");
    assert_eq!(real.engine.now().ticks(), model.now, "clock {when}");
    assert_eq!(real.engine.net_stats(), model.stats, "tallies {when}");
    for node in 0..NODES {
        assert_eq!(
            real.engine.is_alive(NodeId(node)),
            model.alive[node],
            "{when}"
        );
    }
}

doma_testkit::property! {
    /// Random injections, crash and recovery schedules, fault-delayed and
    /// duplicated sends, out-of-order picks and forks: the deque engine
    /// and the heap model never part ways.
    fn the_deque_dispatches_what_a_heap_would(
        links in prop::vec_in(prop::pair(prop::range(0usize..9), prop::range(0u64..12)), 0..4),
        ops in prop::vec_in(prop::pair(prop::range(0u8..7), prop::range(0u64..1 << 20)), 0..40),
    ) {
        // One rule per directed link: the engine takes the first match.
        let mut extra = BTreeMap::new();
        let mut plan = FaultPlan::new(0);
        for (link, d) in links {
            let (from, to) = (link / NODES, link % NODES);
            if extra.contains_key(&(from, to)) {
                continue;
            }
            let (action, offsets) = if d % 2 == 0 {
                (FaultAction::Delay(d), vec![d])
            } else {
                (FaultAction::Duplicate(d), vec![0, d])
            };
            let filter = LinkFilter::link(NodeId(from), NodeId(to));
            plan = plan.rule(FaultRule::always(filter, action));
            extra.insert((from, to), offsets);
        }
        let mut real = Real::new(plan);
        let mut model = Model::new(extra);

        for (step, (op, arg)) in ops.into_iter().enumerate() {
            let node = arg as usize % NODES;
            // Mostly near delays, now and then one far behind everything.
            let delay = if arg >> 2 & 7 == 7 { 1_000 + (arg >> 5 & 63) } else { arg >> 5 & 7 };
            match op {
                0 | 1 => {
                    let msg = arg >> 8;
                    let seq = real.engine.inject(NodeId(node), delay, msg);
                    assert_eq!(seq, model.push(model.now + delay, ModelEvent::Local { to: node, msg }));
                }
                2 => {
                    let seq = real.engine.schedule_crash(NodeId(node), delay);
                    assert_eq!(seq, model.push(model.now + delay, ModelEvent::Crash(node)));
                }
                3 => {
                    let seq = real.engine.schedule_recover(NodeId(node), delay);
                    assert_eq!(seq, model.push(model.now + delay, ModelEvent::Recover(node)));
                }
                4 | 5 => {
                    // 4: the head of the queue; 5: any queued event.
                    let order = model.order();
                    if let Some(&seq) = order.get(if op == 4 { 0 } else { arg as usize % order.len().max(1) }) {
                        assert!(real.engine.dispatch_by_seq(seq));
                        model.dispatch_by_seq(seq);
                    } else {
                        assert!(!real.engine.dispatch_by_seq(arg));
                    }
                }
                _ => {
                    // Carry on with the fork: it must be where the
                    // original was.
                    real = real.fork();
                    model = model.clone();
                }
            }
            assert_same(&real, &model, &format!("after step {step}"));
        }

        // A fork drained at once and the original drained head by head
        // end in the same place, which is the model's.
        let mut fork = real.fork();
        let mut forked_model = model.clone();
        fork.engine.run_until_idle();
        forked_model.run_until_idle();
        assert_same(&fork, &forked_model, "after the fork ran dry");
        real.engine.run_until_idle();
        model.run_until_idle();
        assert_same(&real, &model, "after the original ran dry");
        assert_eq!(real.engine.dispatched(), fork.engine.dispatched());
    }
}

/// An event parked far in the future sits at the back of the queue; the
/// sends of one tick still go in front of it in the order they were made.
#[test]
fn a_far_future_crash_at_the_back_does_not_reorder_same_tick_sends() {
    struct Burst {
        got: Vec<u32>,
    }
    impl Actor<u32> for Burst {
        fn on_message(&mut self, ctx: &mut Context<u32>, _from: NodeId, _kind: MsgKind, msg: u32) {
            self.got.push(msg);
            if ctx.id() == NodeId(0) {
                for m in 1..=4 {
                    ctx.send(NodeId(1), MsgKind::Control, m);
                }
            }
        }
    }
    let mut engine: Engine<u32, Burst> = Engine::new(EngineConfig::default());
    let a = engine.add_node(Burst { got: Vec::new() });
    let b = engine.add_node(Burst { got: Vec::new() });
    let crash = engine.schedule_crash(b, 1_000_000);
    let kick = engine.inject(a, 0, 0);
    assert!(engine.dispatch_by_seq(kick));
    let order: Vec<u64> = engine
        .pending_events(|m| m.to_string())
        .iter()
        .map(|p| p.seq())
        .collect();
    assert_eq!(order, [kick + 1, kick + 2, kick + 3, kick + 4, crash]);
    engine.run_until_idle();
    assert_eq!(engine.actor(b).got, [1, 2, 3, 4]);
    assert!(!engine.is_alive(b), "the crash still fires, last");
    assert_eq!(engine.now().ticks(), 1_000_000);
}

//! A bench-local interpreter of the request path: `ClientPlanner::plan`,
//! then `DomNode::deliver` for every message until the cluster is quiet,
//! with doma-net's in-memory `NetTransport` carrying the sends. It prices
//! the planner and the node handlers by message kind from outside, and it
//! must reproduce the sim's cost vector and message counts (check 4).

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::Workload;
use doma_core::{CostVector, MultiRequest, MultiSchedule, ProcSet, ProcessorId, Result};
use doma_net::codec::WireFrame;
use doma_net::NetTransport;
use doma_obs::registry::{MetricValue, MetricsSnapshot};
use doma_protocol::{ClientPlanner, DomMsg, DomNode};
use doma_sim::NodeId;
use std::collections::VecDeque;
use std::time::Instant;

/// The message kinds a failure-free run delivers.
pub const KINDS: [&str; 6] = [
    "client_read",
    "client_write",
    "read_req",
    "obj_data",
    "write_prop",
    "invalidate",
];

/// Span names, one per kind, in `KINDS` order.
const DELIVER_SPANS: [&str; 6] = [
    "node.deliver.client_read",
    "node.deliver.client_write",
    "node.deliver.read_req",
    "node.deliver.obj_data",
    "node.deliver.write_prop",
    "node.deliver.invalidate",
];

/// Index into [`KINDS`], or `None` for the failure-mode messages.
fn kind_of(msg: &DomMsg) -> Option<usize> {
    match msg {
        DomMsg::ClientRead { .. } => Some(0),
        DomMsg::ClientWrite { .. } => Some(1),
        DomMsg::ReadReq { .. } => Some(2),
        DomMsg::ObjData { .. } => Some(3),
        DomMsg::WriteProp { .. } => Some(4),
        DomMsg::Invalidate { .. } => Some(5),
        DomMsg::NoData { .. } | DomMsg::ModeChange { .. } | DomMsg::CatchUp { .. } => None,
    }
}

/// Frames kept for the codec layer: the workload's own message mix.
const FRAME_SAMPLE: usize = 50_000;
/// `deliver` timings kept per kind. Both samples are reserved up front, so
/// that the run's memory does not depend on how the vectors grew.
const TIMING_SAMPLE: usize = 50_000;

/// What one interpreted run of a schedule did and cost.
pub struct InterpRun {
    pub cost: CostVector,
    pub final_holders: ProcSet,
    pub reads_completed: u64,
    /// Deliveries per kind, in [`KINDS`] order.
    pub kind_counts: [u64; 6],
    /// Wall time of the first `deliver` calls per kind, in ns, as timed
    /// (the timer's own cost included).
    pub kind_ns: [Vec<f64>; 6],
    /// Failure-mode messages seen (none on a failure-free run).
    pub other_msgs: u64,
    /// Protocol errors the nodes recorded.
    pub node_errors: u64,
    /// Objects the nodes' stores wrote (one redo-log `Put` each).
    pub store_outputs: u64,
    /// The first frames a socket run of this schedule would carry, with
    /// how many frames the whole run carries.
    pub frames: Vec<WireFrame>,
    pub frames_total: u64,
}

impl InterpRun {
    /// The median wall time of one `deliver` of each kind in ns, net of
    /// what timing a call costs; 0 for a kind the workload never sends.
    pub fn deliver_median_ns(&self) -> [f64; 6] {
        let timer: Vec<f64> = (0..1001)
            .map(|_| timed(&mut None, "", None, 0, || ()).1 as f64)
            .collect();
        let timer_ns = median(&timer);
        std::array::from_fn(|kind| match self.kind_ns[kind].as_slice() {
            [] => 0.0,
            calls => (median(calls) - timer_ns).max(0.0),
        })
    }
}

/// Times `work`, as a span under `parent` when `spans` is recording.
fn timed<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: Option<u32>,
    request: u32,
    work: impl FnOnce() -> T,
) -> (T, u64, Option<u32>) {
    match spans {
        Some(s) => {
            let id = s.open(name, parent, request);
            let out = work();
            (out, s.close(id), Some(id))
        }
        None => {
            let start = Instant::now();
            let out = work();
            (out, start.elapsed().as_nanos() as u64, None)
        }
    }
}

/// Interprets `schedule` request by request. The first `span_requests`
/// requests record spans when `spans` is given: a root `interp.request`, its
/// `planner.plan`, and one `node.deliver.<kind>` per delivery whose parent
/// is the delivery that sent it.
pub fn interpret(
    w: &Workload,
    schedule: &MultiSchedule,
    mut spans: Option<&mut Spans>,
    span_requests: usize,
) -> Result<InterpRun> {
    let mut nodes: Vec<DomNode> = (0..w.n)
        .map(|i| DomNode::with_catalog(ProcessorId::new(i), w.n, w.catalog.clone(), 0))
        .collect();
    let mut transports: Vec<NetTransport> = (0..w.n).map(|_| NetTransport::new()).collect();
    let mut planner = ClientPlanner::new(w.n, w.catalog.keys().copied());
    let mut run = InterpRun {
        cost: CostVector::ZERO,
        final_holders: ProcSet::EMPTY,
        reads_completed: 0,
        kind_counts: [0; 6],
        kind_ns: std::array::from_fn(|_| Vec::with_capacity(TIMING_SAMPLE)),
        other_msgs: 0,
        node_errors: 0,
        store_outputs: 0,
        frames: Vec::with_capacity(FRAME_SAMPLE),
        frames_total: 0,
    };
    // (to, from, message, the span of the delivery that sent it)
    let mut queue: VecDeque<(NodeId, NodeId, DomMsg, Option<u32>)> = VecDeque::new();
    for (index, MultiRequest { object, request }) in schedule.requests().iter().enumerate() {
        let request_no = index as u32;
        let mut rec = spans.as_deref_mut().filter(|_| index < span_requests);
        let root = rec
            .as_deref_mut()
            .map(|s| s.open("interp.request", None, request_no));
        let (planned, _, _) = timed(&mut rec, "planner.plan", root, request_no, || {
            planner.plan(*object, *request)
        });
        let planned = planned?;
        run.frames_total += 1;
        if run.frames.len() < FRAME_SAMPLE {
            run.frames.push(WireFrame::Client {
                msg: planned.msg.clone(),
            });
        }
        // A client request is delivered to its issuer as from itself.
        queue.push_back((planned.to, planned.to, planned.msg, root));
        while let Some((to, from, msg, parent)) = queue.pop_front() {
            let Some(kind) = kind_of(&msg) else {
                run.other_msgs += 1;
                continue;
            };
            let (node, transport) = (&mut nodes[to.0], &mut transports[to.0]);
            transport.advance();
            let ((), ns, span) = timed(&mut rec, DELIVER_SPANS[kind], parent, request_no, || {
                node.deliver(transport, from, msg)
            });
            run.kind_counts[kind] += 1;
            if run.kind_ns[kind].len() < TIMING_SAMPLE {
                run.kind_ns[kind].push(ns as f64);
            }
            for (peer, msg_kind, sent) in transport.drain() {
                run.frames_total += 1;
                if run.frames.len() < FRAME_SAMPLE {
                    run.frames.push(WireFrame::Peer {
                        from: to.0 as u64,
                        kind: msg_kind,
                        msg: sent.clone(),
                    });
                }
                queue.push_back((peer, to, sent, span));
            }
        }
        if let (Some(s), Some(id)) = (rec, root) {
            s.close(id);
        }
    }
    for (i, (node, transport)) in nodes.iter().zip(&transports).enumerate() {
        run.cost.control += transport.control_sent();
        run.cost.data += transport.data_sent();
        run.cost.io += node.io_stats().total();
        run.store_outputs += node.io_stats().outputs;
        run.reads_completed += node.read_metrics().0;
        run.node_errors += node.protocol_errors().len() as u64;
        if node.holds_valid() {
            run.final_holders.insert(ProcessorId::new(i));
        }
    }
    Ok(run)
}

/// The sim's deliveries per kind, in [`KINDS`] order, read from an
/// obs-attached run: client messages from the schedule, node-to-node
/// messages from the `protocol.cost.{control,data}` counters by op.
pub fn sim_kind_counts(schedule: &MultiSchedule, snapshot: &MetricsSnapshot) -> [u64; 6] {
    let reads = schedule
        .requests()
        .iter()
        .filter(|r| r.request.is_read())
        .count() as u64;
    let sum = |name: &str, ops: &[&str]| -> u64 {
        snapshot
            .metrics
            .iter()
            .filter(|(k, _)| k.component == "protocol" && k.name == name)
            .filter(|(k, _)| k.label("op").is_some_and(|op| ops.contains(&op)))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    };
    [
        reads,
        schedule.len() as u64 - reads,
        sum("cost.control", &["read", "save-read"]),
        sum("cost.data", &["read", "save-read"]),
        sum("cost.data", &["write"]),
        sum("cost.control", &["invalidate"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{fresh_sim, SimMode};
    use crate::workloads::NAMES;

    /// The interpreter is only worth pricing if it does what the sim does.
    #[test]
    fn reproduces_the_sim_cost_vector_and_message_counts() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let schedule = w.generate(2_000, 42);
            let (mut sim, obs) = fresh_sim(&w, SimMode::Obs).unwrap();
            let report = sim.execute_multi(&schedule).unwrap();
            let snapshot = obs.unwrap().metrics().snapshot();

            let mut spans = Spans::new();
            let run = interpret(&w, &schedule, Some(&mut spans), 100).unwrap();
            assert_eq!(run.cost, report.cost, "{name}: cost vector");
            assert_eq!(run.final_holders, report.final_holders, "{name}: holders");
            assert_eq!(run.reads_completed, report.reads_completed, "{name}: reads");
            assert_eq!(
                run.kind_counts,
                sim_kind_counts(&schedule, &snapshot),
                "{name}"
            );
            assert_eq!((run.other_msgs, run.node_errors), (0, 0), "{name}");
            assert_eq!(
                run.frames_total,
                run.kind_counts.iter().sum::<u64>(),
                "{name}: one frame per delivery"
            );

            // Spans: one root and one plan per traced request, and every
            // delivery's parent is the root or another delivery.
            let totals = spans.totals();
            assert_eq!(totals["interp.request"].count, 100);
            assert_eq!(totals["planner.plan"].count, 100);
            for span in spans
                .rows()
                .iter()
                .filter(|s| s.name.starts_with("node.deliver."))
            {
                let parent = spans.rows()[span.parent.expect("caused by something") as usize];
                assert!(
                    parent.name == "interp.request" || parent.name.starts_with("node.deliver.")
                );
                assert_eq!(parent.request, span.request);
            }
        }
    }
}

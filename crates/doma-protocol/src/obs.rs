//! Per-node observability: the paper's cost accounting (`cio`/`cc`/`cd`)
//! broken down by operation class, node and algorithm, plus structured
//! protocol events (quorum spans, join-list growth, mode changes).
//!
//! The registry keys are `protocol.cost.{control,data,io}` with labels
//! `{algo, node, op}`. Summed across all label sets they equal the
//! engine's exact network/I-O tallies (and therefore
//! [`doma_core::cost_of_schedule`]'s totals on failure-free runs) —
//! message for message, I/O for I/O. Each message is counted exactly
//! once, by the node that sent it, as it is queued (`DomNode::send`, the
//! one place a message leaves a node — where the governing entrant is at
//! hand from the slot the delivery resolved); store I/O is charged per
//! delivery from a cursor over the store's own tally.

use crate::{DomMsg, Entrant};
use doma_core::{CostVector, ObjectId, ProcessorId};
use doma_obs::{Counter, FieldRef, FieldValue, MetricsSnapshot, Obs, SpanId};
use doma_sim::MsgKind;
use std::collections::BTreeMap;

/// The operation class a message belongs to — the paper's cost rows:
/// reads, writes, save-reads (DA's scheme-growing reads), invalidations
/// and the failure-mode transitions, plus `other` for I/O done outside
/// message dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Read,
    SaveRead,
    Write,
    Invalidate,
    ModeChange,
    Recovery,
    Other,
}

impl Op {
    const COUNT: usize = 7;

    /// The `op` metric label.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::SaveRead => "save-read",
            Op::Write => "write",
            Op::Invalidate => "invalidate",
            Op::ModeChange => "mode-change",
            Op::Recovery => "recovery",
            Op::Other => "other",
        }
    }
}

/// The class a message is accounted under.
pub(crate) fn op_of(msg: &DomMsg) -> Op {
    match msg {
        DomMsg::ClientRead { .. } => Op::Read,
        DomMsg::ReadReq { saving: true, .. } => Op::SaveRead,
        DomMsg::ReadReq { .. } => Op::Read,
        DomMsg::ObjData { save: true, .. } => Op::SaveRead,
        DomMsg::ObjData { .. } => Op::Read,
        DomMsg::NoData { .. } => Op::Read,
        DomMsg::ClientWrite { .. } => Op::Write,
        DomMsg::WriteProp { .. } => Op::Write,
        DomMsg::Invalidate { .. } => Op::Invalidate,
        DomMsg::ModeChange { .. } => Op::ModeChange,
        DomMsg::CatchUp { .. } => Op::Recovery,
    }
}

/// The object a message concerns (`None` for whole-node messages like
/// [`DomMsg::ModeChange`]).
pub(crate) fn object_of(msg: &DomMsg) -> Option<ObjectId> {
    match msg {
        DomMsg::ClientRead { object, .. }
        | DomMsg::ClientWrite { object, .. }
        | DomMsg::ReadReq { object, .. }
        | DomMsg::ObjData { object, .. }
        | DomMsg::NoData { object, .. }
        | DomMsg::WriteProp { object, .. }
        | DomMsg::Invalidate { object, .. }
        | DomMsg::CatchUp { object } => Some(*object),
        DomMsg::ModeChange { .. } => None,
    }
}

/// An object as an event field; renders like [`ObjectId`]'s `Display`.
pub(crate) fn object_field(object: ObjectId) -> FieldValue {
    FieldRef::Id("obj", object.0).into()
}

/// A processor as an event field; renders like [`ProcessorId`]'s
/// `Display`.
pub(crate) fn processor_field(processor: ProcessorId) -> FieldValue {
    FieldRef::Id("P", processor.index() as u64).into()
}

/// The three cost dimensions of the paper's model, as metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dim {
    Control,
    Data,
    Io,
}

impl Dim {
    fn name(self) -> &'static str {
        match self {
            Dim::Control => "cost.control",
            Dim::Data => "cost.data",
            Dim::Io => "cost.io",
        }
    }
}

impl From<MsgKind> for Dim {
    fn from(kind: MsgKind) -> Self {
        match kind {
            MsgKind::Control => Dim::Control,
            MsgKind::Data => Dim::Data,
        }
    }
}

/// The registry's `protocol.cost.*` counters summed over every
/// `{algo, node, op}` cell — on a failure-free run, exactly the engine's
/// cost tally (the obs-parity check).
pub fn registry_cost(snapshot: &MetricsSnapshot) -> CostVector {
    let sum = |dim: Dim| snapshot.sum_counters("protocol", dim.name());
    CostVector::new(sum(Dim::Control), sum(Dim::Data), sum(Dim::Io))
}

/// The per-node protocol tallies outside the cost breakdown
/// (`protocol.<name>{node}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeTally {
    Joins,
    SchemeChurn,
    ModeChanges,
    QuorumRounds,
}

/// Algo slots of the cost table: one per [`Entrant`], then `cluster`.
const ALGOS: usize = Entrant::ALL.len() + 1;
const COST_CELLS: usize = 3 * ALGOS * Op::COUNT;
const UNRESOLVED: Option<Counter> = None;

/// One node's attachment to the shared [`Obs`] bundle: resolved cost
/// counters, the I/O cursor that attributes store I/O to the operation
/// being handled, and the node's open quorum spans.
///
/// A counter is resolved against the registry the first time its cell is
/// charged, never at attach time: the registry's key set — and with it
/// every snapshot — then holds exactly the cells a run touched. After
/// that first charge a cell costs an index and an atomic add.
///
/// Cloning shares the counter handles — which is exactly why
/// [`crate::ProtocolSim::fork`] strips the attachment from forked
/// actors: speculative (model-checker) work must not tally into the
/// live registry.
#[derive(Debug, Clone)]
pub(crate) struct NodeObs {
    bundle: Obs,
    /// The node's label in metric keys (`N3`).
    label: String,
    /// Store I/O already attributed; the next delta over this cursor
    /// belongs to the operation currently being handled.
    pub(crate) io_seen: u64,
    /// `protocol.cost.*` handles, indexed `(dimension, algo, op)`.
    cost: [Option<Counter>; COST_CELLS],
    tallies: [Option<Counter>; 4],
    /// Open quorum spans keyed `(object, round)`; exited when the
    /// operation assembles its majority, cleared on crash.
    pub(crate) open_quorum: BTreeMap<(ObjectId, u64), SpanId>,
}

impl NodeObs {
    pub(crate) fn new(bundle: Obs, label: String, io_seen: u64) -> Self {
        NodeObs {
            bundle,
            label,
            io_seen,
            cost: [UNRESOLVED; COST_CELLS],
            tallies: [UNRESOLVED; 4],
            open_quorum: BTreeMap::new(),
        }
    }

    pub(crate) fn bundle(&self) -> &Obs {
        &self.bundle
    }

    /// The cost counter for one `(dimension, algo, op)` cell of this
    /// node's breakdown; `algo` is the entrant governing the object, or
    /// `None` for whole-node traffic (labelled `cluster`).
    pub(crate) fn cost(&mut self, dim: Dim, algo: Option<Entrant>, op: Op) -> &Counter {
        let NodeObs {
            bundle,
            label,
            cost,
            ..
        } = self;
        let slot = algo.map_or(ALGOS - 1, |entrant| entrant as usize);
        cost[(dim as usize * ALGOS + slot) * Op::COUNT + op as usize].get_or_insert_with(|| {
            let algo = algo.map_or("cluster", |entrant| entrant.as_str());
            bundle.metrics().counter(
                "protocol",
                dim.name(),
                &[("algo", algo), ("node", label), ("op", op.as_str())],
            )
        })
    }

    /// One of this node's `protocol.<tally>{node}` counters.
    pub(crate) fn tally(&mut self, tally: NodeTally) -> &Counter {
        let NodeObs {
            bundle,
            label,
            tallies,
            ..
        } = self;
        tallies[tally as usize].get_or_insert_with(|| {
            let m = bundle.metrics();
            let labels = [("node", label.as_str())];
            match tally {
                NodeTally::Joins => m.counter("protocol", "joins", &labels),
                NodeTally::SchemeChurn => m.counter("protocol", "scheme_churn", &labels),
                NodeTally::ModeChanges => m.counter("protocol", "mode_changes", &labels),
                NodeTally::QuorumRounds => m.counter("protocol", "quorum_rounds", &labels),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_sim::NodeId;
    use doma_storage::Version;

    #[test]
    fn message_op_classification() {
        let obj = ObjectId(0);
        assert_eq!(
            op_of(&DomMsg::ClientRead {
                object: obj,
                plan: None
            }),
            Op::Read
        );
        assert_eq!(
            op_of(&DomMsg::ReadReq {
                object: obj,
                saving: true,
                round: 0
            }),
            Op::SaveRead
        );
        assert_eq!(
            op_of(&DomMsg::ObjData {
                object: obj,
                version: Version(1),
                payload: [].into(),
                save: false,
                round: 3
            }),
            Op::Read
        );
        assert_eq!(
            op_of(&DomMsg::WriteProp {
                object: obj,
                version: Version(1),
                payload: [].into(),
                writer: NodeId(0)
            }),
            Op::Write
        );
        assert_eq!(
            op_of(&DomMsg::Invalidate {
                object: obj,
                version: Version(1)
            }),
            Op::Invalidate
        );
        assert_eq!(op_of(&DomMsg::ModeChange { quorum: true }), Op::ModeChange);
        assert_eq!(op_of(&DomMsg::CatchUp { object: obj }), Op::Recovery);
        assert_eq!(object_of(&DomMsg::ModeChange { quorum: true }), None);
        assert_eq!(object_of(&DomMsg::CatchUp { object: obj }), Some(obj));
    }

    #[test]
    fn cost_counters_are_cached_per_cell() {
        let bundle = Obs::new(8);
        let mut obs = NodeObs::new(bundle.clone(), "N0".to_string(), 0);
        obs.cost(Dim::Control, Some(Entrant::Da), Op::Read).add(2);
        obs.cost(Dim::Control, Some(Entrant::Da), Op::Read).inc();
        obs.cost(Dim::Io, Some(Entrant::Da), Op::Write).inc();
        let snap = bundle.metrics().snapshot();
        assert_eq!(
            snap.counter(
                "protocol",
                "cost.control",
                &[("algo", "da"), ("node", "N0"), ("op", "read")]
            ),
            3
        );
        assert_eq!(snap.sum_counters("protocol", "cost.io"), 1);
    }

    #[test]
    fn dense_indices_and_field_helpers_match_what_they_stand_for() {
        // The cost table indexes algos by discriminant.
        for (i, entrant) in Entrant::ALL.into_iter().enumerate() {
            assert_eq!(entrant as usize, i);
        }
        assert_eq!(Op::Other as usize + 1, Op::COUNT);
        // Typed id fields render exactly as the ids print.
        assert_eq!(
            object_field(ObjectId(17)).as_ref().to_string(),
            ObjectId(17).to_string()
        );
        assert_eq!(
            processor_field(ProcessorId::new(5)).as_ref().to_string(),
            ProcessorId::new(5).to_string()
        );
        assert_eq!(
            FieldValue::from(NodeId(3)).as_ref().to_string(),
            NodeId(3).to_string()
        );
        for kind in [MsgKind::Control, MsgKind::Data] {
            assert_eq!(
                FieldValue::from(kind).as_ref().to_string(),
                format!("{kind:?}")
            );
        }
    }

    #[test]
    fn every_cell_registers_lazily_under_its_own_key() {
        let bundle = Obs::new(8);
        let mut obs = NodeObs::new(bundle.clone(), "N2".to_string(), 0);
        assert!(bundle.metrics().snapshot().is_empty(), "nothing at attach");
        let ops = [
            Op::Read,
            Op::SaveRead,
            Op::Write,
            Op::Invalidate,
            Op::ModeChange,
            Op::Recovery,
            Op::Other,
        ];
        let algos = Entrant::ALL.map(Some).into_iter().chain([None]);
        let mut charged = 0;
        for algo in algos {
            for dim in [Dim::Control, Dim::Data, Dim::Io] {
                for op in ops {
                    obs.cost(dim, algo, op).inc();
                    charged += 1;
                    let name = algo.map_or("cluster", |e| e.as_str());
                    assert_eq!(
                        bundle.metrics().snapshot().counter(
                            "protocol",
                            dim.name(),
                            &[("algo", name), ("node", "N2"), ("op", op.as_str())]
                        ),
                        1,
                        "{dim:?} {name} {op:?}"
                    );
                }
            }
        }
        assert_eq!(charged, COST_CELLS);
        assert_eq!(bundle.metrics().snapshot().metrics.len(), COST_CELLS);
        obs.tally(NodeTally::Joins).add(2);
        obs.tally(NodeTally::QuorumRounds).inc();
        let snap = bundle.metrics().snapshot();
        assert_eq!(snap.counter("protocol", "joins", &[("node", "N2")]), 2);
        assert_eq!(
            snap.counter("protocol", "quorum_rounds", &[("node", "N2")]),
            1
        );
        assert_eq!(snap.metrics.len(), COST_CELLS + 2);
    }
}

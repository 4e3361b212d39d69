//! Per-node observability: the paper's cost accounting (`cio`/`cc`/`cd`)
//! broken down by operation class, node and algorithm, plus structured
//! protocol events (quorum spans, join-list growth, mode changes).
//!
//! The registry keys are `protocol.cost.{control,data,io}` with labels
//! `{algo, node, op}`. Summed across all label sets they equal the
//! engine's exact network/I-O tallies (and therefore
//! [`doma_core::cost_of_schedule`]'s totals on failure-free runs) —
//! message for message, I/O for I/O. The accounting rides the engine's
//! fresh-`Context`-per-dispatch guarantee: every `ctx.send` a handler
//! buffers is still in [`doma_sim::Context::pending_sends`] when the
//! handler returns, so each message is counted exactly once, by the node
//! that sent it.

use crate::{DomMsg, ProtocolConfig};
use doma_core::ObjectId;
use doma_obs::{Counter, Obs, SpanId};
use std::collections::BTreeMap;

/// The operation class a message belongs to — the paper's cost rows:
/// reads, writes, save-reads (DA's scheme-growing reads), invalidations
/// and the failure-mode transitions.
pub(crate) fn op_of(msg: &DomMsg) -> &'static str {
    match msg {
        DomMsg::ClientRead { .. } => "read",
        DomMsg::ReadReq { saving: true, .. } => "save-read",
        DomMsg::ReadReq { .. } => "read",
        DomMsg::ObjData { save: true, .. } => "save-read",
        DomMsg::ObjData { .. } => "read",
        DomMsg::NoData { .. } => "read",
        DomMsg::ClientWrite { .. } => "write",
        DomMsg::WriteProp { .. } => "write",
        DomMsg::Invalidate { .. } => "invalidate",
        DomMsg::ModeChange { .. } => "mode-change",
        DomMsg::CatchUp { .. } => "recovery",
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

/// The algorithm governing an object, as a metric label (`cluster` for
/// whole-node traffic outside any one object's configuration).
pub(crate) fn algo_label(config: Option<&ProtocolConfig>) -> &'static str {
    config.map_or("cluster", |c| c.entrant().as_str())
}

/// One node's attachment to the shared [`Obs`] bundle: cached cost
/// counters, the I/O cursor that attributes store I/O to the operation
/// being handled, and the node's open quorum spans.
///
/// Cloning shares the counter handles — which is exactly why
/// [`crate::ProtocolSim::fork`] strips the attachment from forked
/// actors: speculative (model-checker) work must not tally into the
/// live registry.
#[derive(Debug, Clone)]
pub(crate) struct NodeObs {
    bundle: Obs,
    /// The node's label in metric keys and event fields (`N3`).
    label: String,
    /// Store I/O already attributed; the next delta over this cursor
    /// belongs to the operation currently being handled.
    pub(crate) io_seen: u64,
    /// Resolved cost counters keyed `(dimension, algo, op)` — the
    /// registry lock is taken once per distinct key per node.
    counters: BTreeMap<(&'static str, &'static str, &'static str), Counter>,
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
            counters: BTreeMap::new(),
            open_quorum: BTreeMap::new(),
        }
    }

    pub(crate) fn bundle(&self) -> &Obs {
        &self.bundle
    }

    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// The cost counter for one `(dimension, algo, op)` cell of this
    /// node's breakdown, resolved lazily and cached.
    pub(crate) fn cost(
        &mut self,
        dim: &'static str,
        algo: &'static str,
        op: &'static str,
    ) -> Counter {
        let NodeObs {
            bundle,
            label,
            counters,
            ..
        } = self;
        counters
            .entry((dim, algo, op))
            .or_insert_with(|| {
                bundle.metrics().counter(
                    "protocol",
                    dim,
                    &[("algo", algo), ("node", label), ("op", op)],
                )
            })
            .clone()
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
            "read"
        );
        assert_eq!(
            op_of(&DomMsg::ReadReq {
                object: obj,
                saving: true,
                round: 0
            }),
            "save-read"
        );
        assert_eq!(
            op_of(&DomMsg::ObjData {
                object: obj,
                version: Version(1),
                payload: vec![],
                save: false,
                round: 3
            }),
            "read"
        );
        assert_eq!(
            op_of(&DomMsg::WriteProp {
                object: obj,
                version: Version(1),
                payload: vec![],
                writer: NodeId(0)
            }),
            "write"
        );
        assert_eq!(
            op_of(&DomMsg::Invalidate {
                object: obj,
                version: Version(1)
            }),
            "invalidate"
        );
        assert_eq!(op_of(&DomMsg::ModeChange { quorum: true }), "mode-change");
        assert_eq!(op_of(&DomMsg::CatchUp { object: obj }), "recovery");
        assert_eq!(object_of(&DomMsg::ModeChange { quorum: true }), None);
        assert_eq!(object_of(&DomMsg::CatchUp { object: obj }), Some(obj));
    }

    #[test]
    fn cost_counters_are_cached_per_cell() {
        let bundle = Obs::new(8);
        let mut obs = NodeObs::new(bundle.clone(), "N0".to_string(), 0);
        obs.cost("cost.control", "da", "read").add(2);
        obs.cost("cost.control", "da", "read").inc();
        obs.cost("cost.io", "da", "write").inc();
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
}

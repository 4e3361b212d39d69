//! A node's send buffer in the real runtime, with its per-class tallies.

use doma_protocol::DomMsg;
use doma_sim::{Context, MsgKind, NodeId};
use std::ops::{Deref, DerefMut};

/// The engine's [`Context`] a node writes its sends into, plus what the
/// node has drained from it per pricing class. It derefs to the
/// `Context`, so [`doma_protocol::DomNode::deliver`] takes it as it is.
#[derive(Default)]
pub struct NetTransport {
    ctx: Context<DomMsg>,
    control_sent: u64,
    data_sent: u64,
}

impl NetTransport {
    /// An empty buffer at tick 0 with nothing sent.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Context::drain`], tallying the sends per pricing class.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (NodeId, MsgKind, DomMsg)> {
        let sends = self.ctx.drain();
        for (_, kind, _) in sends.as_slice() {
            match kind {
                MsgKind::Control => self.control_sent += 1,
                MsgKind::Data => self.data_sent += 1,
            }
        }
        sends
    }

    /// Control messages drained so far (mirrors the sim engine's
    /// `NetStats::control_sent`).
    pub fn control_sent(&self) -> u64 {
        self.control_sent
    }

    /// Data messages drained so far.
    pub fn data_sent(&self) -> u64 {
        self.data_sent
    }
}

impl Deref for NetTransport {
    type Target = Context<DomMsg>;

    fn deref(&self) -> &Context<DomMsg> {
        &self.ctx
    }
}

impl DerefMut for NetTransport {
    fn deref_mut(&mut self) -> &mut Context<DomMsg> {
        &mut self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::ObjectId;
    use doma_sim::SimTime;

    #[test]
    fn drain_tallies_by_kind_and_clears() {
        let mut t = NetTransport::new();
        t.advance();
        assert_eq!(t.now(), SimTime(1));
        let catch_up = || DomMsg::CatchUp {
            object: ObjectId(0),
        };
        t.send(NodeId(1), MsgKind::Control, catch_up());
        let obj_data = DomMsg::ObjData {
            object: ObjectId(0),
            version: doma_storage::Version(1),
            payload: [1].into(),
            save: false,
            round: 0,
        };
        t.send(NodeId(2), MsgKind::Data, obj_data);
        assert_eq!(t.drain().count(), 2);
        assert_eq!((t.control_sent(), t.data_sent()), (1, 1));
        assert_eq!(t.drain().count(), 0);
        // A send dropped undrained is tallied all the same, like a
        // message the engine's sender paid for.
        t.send(NodeId(3), MsgKind::Control, catch_up());
        drop(t.drain());
        assert_eq!((t.control_sent(), t.data_sent()), (2, 1));
    }
}

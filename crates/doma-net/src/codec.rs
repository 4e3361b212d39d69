//! Length-prefixed wire codec for [`DomMsg`] and the session frames the
//! cluster runtime exchanges around it.
//!
//! Layout: every frame is `u32-LE length ‖ body`; the body starts with a
//! one-byte frame tag, and [`DomMsg`] bodies with a one-byte message tag
//! (declaration order). Integers are little-endian; byte strings are
//! `u32-LE length ‖ bytes`; `Option` is a one-byte presence tag; `bool`
//! is strictly `0`/`1`. Identifiers are validated on decode
//! ([`ProcessorId`]/[`NodeId`] must fit the 64-processor universe), the
//! length prefix is capped at [`MAX_FRAME`] so a corrupt prefix cannot
//! balloon allocation, and a frame with undecoded trailing bytes is
//! rejected — decoding never panics and never trusts the peer.
//!
//! Errors are typed: [`DomaError::WireTruncated`] when bytes ran out
//! (incremental callers treat this at the frame boundary as "wait for
//! more"), [`DomaError::WireCorrupt`] for structural violations.

use doma_core::{DomaError, ObjectId, ProcSet, ProcessorId, Result};
use doma_protocol::{DomMsg, ReadPlan, WritePlan};
use doma_sim::{MsgKind, NodeId};
use doma_storage::{Payload, Version};

/// Maximum frame body length the codec will accept or produce (1 MiB).
/// Protocol payloads are tiny; anything bigger is a corrupt length
/// prefix, not a message.
pub const MAX_FRAME: usize = 1 << 20;

/// The sender id the cluster driver introduces itself with in its
/// [`WireFrame::Hello`] — deliberately outside every valid node id.
pub const DRIVER_ID: u64 = u64::MAX;

/// One session-layer frame of the cluster runtime.
///
/// `Hello` opens every connection (node id, or [`DRIVER_ID`]); `Peer`
/// carries a protocol message node-to-node; `Client` injects a planned
/// client request from the driver (delivered with `from = self`, exactly
/// like the sim engine's local injection); `Poll`/`PollReply` implement
/// the driver's double-poll quiescence barrier; `Report`/`ReportReply`
/// collect per-node tallies; `Shutdown` ends a node's event loop.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// Connection opener: who is talking.
    Hello {
        /// The sender's node id, or [`DRIVER_ID`] for the driver.
        node: u64,
    },
    /// A protocol message between nodes.
    Peer {
        /// Sending node.
        from: u64,
        /// Network pricing class of the message (control vs data).
        kind: MsgKind,
        /// The protocol message itself.
        msg: DomMsg,
    },
    /// A driver-injected client request.
    Client {
        /// The planned client message (`ClientRead`/`ClientWrite`).
        msg: DomMsg,
    },
    /// Driver → node: report your send/receive counters.
    Poll,
    /// Node → driver: monotone counters of node-to-node `Peer` frames.
    PollReply {
        /// Peer frames this node has written.
        sent: u64,
        /// Peer frames this node has handled.
        received: u64,
    },
    /// Driver → node: report your protocol tallies.
    Report,
    /// Node → driver: the tallies [`crate::NodeReport`] is built from.
    ReportReply {
        /// Whether the node currently holds a valid replica.
        holds: bool,
        /// Store I/O operations performed.
        io: u64,
        /// Control messages sent (driver frames excluded — mirrors the
        /// sim engine, which does not tally locally injected requests).
        control_sent: u64,
        /// Data messages sent.
        data_sent: u64,
        /// Reads completed at this node.
        reads: u64,
        /// Total read latency in transport ticks.
        latency: u64,
        /// Protocol errors recorded at this node.
        errors: u64,
    },
    /// Driver → node: drain and exit the event loop.
    Shutdown,
}

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

fn put_opt_proc(out: &mut Vec<u8>, v: Option<ProcessorId>) {
    match v {
        None => put_u8(out, 0),
        Some(p) => {
            put_u8(out, 1);
            put_u8(out, p.index() as u8);
        }
    }
}

// ---------------------------------------------------------------------
// Primitive readers
// ---------------------------------------------------------------------

/// A bounds-checked read cursor over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(DomaError::WireTruncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn bool(&mut self, context: &'static str) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DomaError::WireCorrupt { context }),
        }
    }

    /// A byte string as a message payload: the one copy between the
    /// frame and the store the payload ends up in.
    fn bytes(&mut self) -> Result<Payload> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(DomaError::WireCorrupt {
                context: "byte-string length",
            });
        }
        Ok(self.take(len)?.into())
    }

    fn proc(&mut self) -> Result<ProcessorId> {
        let raw = self.u8()? as usize;
        if raw >= doma_core::MAX_PROCESSORS {
            return Err(DomaError::WireCorrupt {
                context: "ProcessorId",
            });
        }
        Ok(ProcessorId::new(raw))
    }

    fn opt_proc(&mut self) -> Result<Option<ProcessorId>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.proc()?)),
            _ => Err(DomaError::WireCorrupt {
                context: "Option tag",
            }),
        }
    }

    fn node_id(&mut self) -> Result<NodeId> {
        let raw = self.u64()?;
        if raw >= doma_core::MAX_PROCESSORS as u64 {
            return Err(DomaError::WireCorrupt { context: "NodeId" });
        }
        Ok(NodeId(raw as usize))
    }

    fn finish(self, context: &'static str) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(DomaError::WireCorrupt { context });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// DomMsg body codec
// ---------------------------------------------------------------------

fn put_read_plan(out: &mut Vec<u8>, plan: &Option<ReadPlan>) {
    match plan {
        None => put_u8(out, 0),
        Some(p) => {
            put_u8(out, 1);
            put_opt_proc(out, p.server);
            put_bool(out, p.saving);
            put_opt_proc(out, p.fallback);
        }
    }
}

fn put_write_plan(out: &mut Vec<u8>, plan: &Option<WritePlan>) {
    match plan {
        None => put_u8(out, 0),
        Some(p) => {
            put_u8(out, 1);
            put_u64(out, p.exec.bits());
            put_u64(out, p.invalidate.bits());
            put_bool(out, p.self_invalidate);
        }
    }
}

fn read_read_plan(c: &mut Cursor<'_>) -> Result<Option<ReadPlan>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(ReadPlan {
            server: c.opt_proc()?,
            saving: c.bool("ReadPlan.saving")?,
            fallback: c.opt_proc()?,
        })),
        _ => Err(DomaError::WireCorrupt {
            context: "ReadPlan tag",
        }),
    }
}

fn read_write_plan(c: &mut Cursor<'_>) -> Result<Option<WritePlan>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(WritePlan {
            exec: ProcSet::from_bits(c.u64()?),
            invalidate: ProcSet::from_bits(c.u64()?),
            self_invalidate: c.bool("WritePlan.self_invalidate")?,
        })),
        _ => Err(DomaError::WireCorrupt {
            context: "WritePlan tag",
        }),
    }
}

/// Serializes one [`DomMsg`] body (no length prefix; tags follow
/// declaration order).
pub fn encode_msg(out: &mut Vec<u8>, msg: &DomMsg) {
    match msg {
        DomMsg::ClientRead { object, plan } => {
            put_u8(out, 0);
            put_u64(out, object.0);
            put_read_plan(out, plan);
        }
        DomMsg::ClientWrite {
            object,
            version,
            payload,
            plan,
        } => {
            put_u8(out, 1);
            put_u64(out, object.0);
            put_u64(out, version.0);
            put_bytes(out, payload);
            put_write_plan(out, plan);
        }
        DomMsg::ReadReq {
            object,
            saving,
            round,
        } => {
            put_u8(out, 2);
            put_u64(out, object.0);
            put_bool(out, *saving);
            put_u64(out, *round);
        }
        DomMsg::ObjData {
            object,
            version,
            payload,
            save,
            round,
        } => {
            put_u8(out, 3);
            put_u64(out, object.0);
            put_u64(out, version.0);
            put_bytes(out, payload);
            put_bool(out, *save);
            put_u64(out, *round);
        }
        DomMsg::NoData { object, round } => {
            put_u8(out, 4);
            put_u64(out, object.0);
            put_u64(out, *round);
        }
        DomMsg::WriteProp {
            object,
            version,
            payload,
            writer,
        } => {
            put_u8(out, 5);
            put_u64(out, object.0);
            put_u64(out, version.0);
            put_bytes(out, payload);
            put_u64(out, writer.0 as u64);
        }
        DomMsg::Invalidate { object, version } => {
            put_u8(out, 6);
            put_u64(out, object.0);
            put_u64(out, version.0);
        }
        DomMsg::ModeChange { quorum } => {
            put_u8(out, 7);
            put_bool(out, *quorum);
        }
        DomMsg::CatchUp { object } => {
            put_u8(out, 8);
            put_u64(out, object.0);
        }
    }
}

fn read_msg(c: &mut Cursor<'_>) -> Result<DomMsg> {
    let tag = c.u8()?;
    Ok(match tag {
        0 => DomMsg::ClientRead {
            object: ObjectId(c.u64()?),
            plan: read_read_plan(c)?,
        },
        1 => DomMsg::ClientWrite {
            object: ObjectId(c.u64()?),
            version: Version(c.u64()?),
            payload: c.bytes()?,
            plan: read_write_plan(c)?,
        },
        2 => DomMsg::ReadReq {
            object: ObjectId(c.u64()?),
            saving: c.bool("ReadReq.saving")?,
            round: c.u64()?,
        },
        3 => DomMsg::ObjData {
            object: ObjectId(c.u64()?),
            version: Version(c.u64()?),
            payload: c.bytes()?,
            save: c.bool("ObjData.save")?,
            round: c.u64()?,
        },
        4 => DomMsg::NoData {
            object: ObjectId(c.u64()?),
            round: c.u64()?,
        },
        5 => DomMsg::WriteProp {
            object: ObjectId(c.u64()?),
            version: Version(c.u64()?),
            payload: c.bytes()?,
            writer: c.node_id()?,
        },
        6 => DomMsg::Invalidate {
            object: ObjectId(c.u64()?),
            version: Version(c.u64()?),
        },
        7 => DomMsg::ModeChange {
            quorum: c.bool("ModeChange.quorum")?,
        },
        8 => DomMsg::CatchUp {
            object: ObjectId(c.u64()?),
        },
        _ => {
            return Err(DomaError::WireCorrupt {
                context: "DomMsg tag",
            })
        }
    })
}

/// Decodes one [`DomMsg`] from a complete body, rejecting trailing bytes.
pub fn decode_msg(buf: &[u8]) -> Result<DomMsg> {
    let mut c = Cursor::new(buf);
    let msg = read_msg(&mut c)?;
    c.finish("DomMsg trailing bytes")?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

fn msg_kind_tag(kind: MsgKind) -> u8 {
    match kind {
        MsgKind::Control => 0,
        MsgKind::Data => 1,
    }
}

/// Serializes a session frame, *with* its `u32`-LE length prefix, ready
/// to write to a socket.
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut body = Vec::new();
    match frame {
        WireFrame::Hello { node } => {
            put_u8(&mut body, 0);
            put_u64(&mut body, *node);
        }
        WireFrame::Peer { from, kind, msg } => {
            put_u8(&mut body, 1);
            put_u64(&mut body, *from);
            put_u8(&mut body, msg_kind_tag(*kind));
            encode_msg(&mut body, msg);
        }
        WireFrame::Client { msg } => {
            put_u8(&mut body, 2);
            encode_msg(&mut body, msg);
        }
        WireFrame::Poll => put_u8(&mut body, 3),
        WireFrame::PollReply { sent, received } => {
            put_u8(&mut body, 4);
            put_u64(&mut body, *sent);
            put_u64(&mut body, *received);
        }
        WireFrame::Report => put_u8(&mut body, 5),
        WireFrame::ReportReply {
            holds,
            io,
            control_sent,
            data_sent,
            reads,
            latency,
            errors,
        } => {
            put_u8(&mut body, 6);
            put_bool(&mut body, *holds);
            put_u64(&mut body, *io);
            put_u64(&mut body, *control_sent);
            put_u64(&mut body, *data_sent);
            put_u64(&mut body, *reads);
            put_u64(&mut body, *latency);
            put_u64(&mut body, *errors);
        }
        WireFrame::Shutdown => put_u8(&mut body, 7),
    }
    debug_assert!(body.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    out
}

/// Decodes one session frame from a complete body (length prefix already
/// stripped by [`Decoder`]), rejecting trailing bytes.
pub fn decode_frame(buf: &[u8]) -> Result<WireFrame> {
    let mut c = Cursor::new(buf);
    let frame = match c.u8()? {
        0 => WireFrame::Hello { node: c.u64()? },
        1 => WireFrame::Peer {
            from: c.u64()?,
            kind: match c.u8()? {
                0 => MsgKind::Control,
                1 => MsgKind::Data,
                _ => {
                    return Err(DomaError::WireCorrupt {
                        context: "MsgKind tag",
                    })
                }
            },
            msg: read_msg(&mut c)?,
        },
        2 => WireFrame::Client {
            msg: read_msg(&mut c)?,
        },
        3 => WireFrame::Poll,
        4 => WireFrame::PollReply {
            sent: c.u64()?,
            received: c.u64()?,
        },
        5 => WireFrame::Report,
        6 => WireFrame::ReportReply {
            holds: c.bool("ReportReply.holds")?,
            io: c.u64()?,
            control_sent: c.u64()?,
            data_sent: c.u64()?,
            reads: c.u64()?,
            latency: c.u64()?,
            errors: c.u64()?,
        },
        7 => WireFrame::Shutdown,
        _ => {
            return Err(DomaError::WireCorrupt {
                context: "WireFrame tag",
            })
        }
    };
    c.finish("WireFrame trailing bytes")?;
    Ok(frame)
}

/// Incremental frame extractor: feed it raw socket bytes in arbitrary
/// splits, pull complete frame bodies out.
///
/// A partial length prefix or partial body is simply "no frame yet"; a
/// length prefix beyond [`MAX_FRAME`] is corruption (typed, not a
/// panic — the connection should be dropped).
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame body, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(DomaError::WireCorrupt {
                context: "frame length prefix",
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let body = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DomMsg {
        DomMsg::ClientWrite {
            object: ObjectId(3),
            version: Version(9),
            payload: b"payload-3-9"[..].into(),
            plan: Some(WritePlan {
                exec: ProcSet::from_iter([0usize, 2]),
                invalidate: ProcSet::from_iter([1usize]),
                self_invalidate: true,
            }),
        }
    }

    #[test]
    fn msg_roundtrip() {
        let msg = sample();
        let mut buf = Vec::new();
        encode_msg(&mut buf, &msg);
        assert_eq!(decode_msg(&buf).unwrap(), msg);
    }

    #[test]
    fn frame_roundtrip_via_decoder() {
        let frame = WireFrame::Peer {
            from: 2,
            kind: MsgKind::Data,
            msg: sample(),
        };
        let bytes = encode_frame(&frame);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        let body = dec.next_frame().unwrap().unwrap();
        assert_eq!(decode_frame(&body).unwrap(), frame);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut buf = Vec::new();
        encode_msg(
            &mut buf,
            &DomMsg::CatchUp {
                object: ObjectId(1),
            },
        );
        buf.push(0xAB);
        assert_eq!(
            decode_msg(&buf),
            Err(DomaError::WireCorrupt {
                context: "DomMsg trailing bytes"
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_corruption() {
        let mut dec = Decoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        dec.feed(&[0u8; 16]);
        assert!(matches!(
            dec.next_frame(),
            Err(DomaError::WireCorrupt {
                context: "frame length prefix"
            })
        ));
    }
}

//! Property tests hardening the wire codec: roundtrips over random
//! messages, arbitrary read splits, and hostile bytes — typed errors,
//! never a panic.

use doma_core::{DomaError, ObjectId, ProcSet, ProcessorId};
use doma_net::codec::{decode_frame, decode_msg, encode_frame, encode_msg, Decoder, WireFrame};
use doma_protocol::{DomMsg, ReadPlan, WritePlan};
use doma_sim::{MsgKind, NodeId};
use doma_storage::Version;
use doma_testkit::{Rng, TestRng};

fn rand_proc(rng: &mut TestRng) -> ProcessorId {
    ProcessorId::new(rng.gen_range(0..64usize))
}

fn rand_opt_proc(rng: &mut TestRng) -> Option<ProcessorId> {
    rng.gen_bool(0.5).then(|| rand_proc(rng))
}

fn rand_payload(rng: &mut TestRng) -> Vec<u8> {
    let len = rng.gen_range(0..200usize);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn rand_msg(rng: &mut TestRng) -> DomMsg {
    let object = ObjectId(rng.next_u64());
    let version = Version(rng.next_u64());
    match rng.gen_range(0..9u32) {
        0 => DomMsg::ClientRead {
            object,
            plan: rng.gen_bool(0.5).then(|| ReadPlan {
                server: rand_opt_proc(rng),
                saving: rng.gen_bool(0.5),
                fallback: rand_opt_proc(rng),
            }),
        },
        1 => DomMsg::ClientWrite {
            object,
            version,
            payload: rand_payload(rng).into(),
            plan: rng.gen_bool(0.5).then(|| WritePlan {
                exec: ProcSet::from_bits(rng.next_u64()),
                invalidate: ProcSet::from_bits(rng.next_u64()),
                self_invalidate: rng.gen_bool(0.5),
            }),
        },
        2 => DomMsg::ReadReq {
            object,
            saving: rng.gen_bool(0.5),
            round: rng.next_u64(),
        },
        3 => DomMsg::ObjData {
            object,
            version,
            payload: rand_payload(rng).into(),
            save: rng.gen_bool(0.5),
            round: rng.next_u64(),
        },
        4 => DomMsg::NoData {
            object,
            round: rng.next_u64(),
        },
        5 => DomMsg::WriteProp {
            object,
            version,
            payload: rand_payload(rng).into(),
            writer: NodeId(rng.gen_range(0..64usize)),
        },
        6 => DomMsg::Invalidate { object, version },
        7 => DomMsg::ModeChange {
            quorum: rng.gen_bool(0.5),
        },
        _ => DomMsg::CatchUp { object },
    }
}

fn rand_frame(rng: &mut TestRng) -> WireFrame {
    match rng.gen_range(0..8u32) {
        0 => WireFrame::Hello {
            node: rng.next_u64(),
        },
        1 => WireFrame::Peer {
            from: rng.gen_range(0..64u64),
            kind: if rng.gen_bool(0.5) {
                MsgKind::Control
            } else {
                MsgKind::Data
            },
            msg: rand_msg(rng),
        },
        2 => WireFrame::Client { msg: rand_msg(rng) },
        3 => WireFrame::Poll,
        4 => WireFrame::PollReply {
            sent: rng.next_u64(),
            received: rng.next_u64(),
        },
        5 => WireFrame::Report,
        6 => WireFrame::ReportReply {
            holds: rng.gen_bool(0.5),
            io: rng.next_u64(),
            control_sent: rng.next_u64(),
            data_sent: rng.next_u64(),
            reads: rng.next_u64(),
            latency: rng.next_u64(),
            errors: rng.next_u64(),
        },
        _ => WireFrame::Shutdown,
    }
}

#[test]
fn msg_roundtrip_random() {
    let mut rng = TestRng::seed_from_u64(0xC0DEC);
    for _ in 0..2000 {
        let msg = rand_msg(&mut rng);
        let mut buf = Vec::new();
        encode_msg(&mut buf, &msg);
        assert_eq!(decode_msg(&buf).unwrap(), msg, "roundtrip of {msg:?}");
    }
}

#[test]
fn frame_roundtrip_random() {
    let mut rng = TestRng::seed_from_u64(0xF4A3E);
    for _ in 0..2000 {
        let frame = rand_frame(&mut rng);
        let bytes = encode_frame(&frame);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        let body = dec.next_frame().unwrap().expect("complete frame buffered");
        assert_eq!(decode_frame(&body).unwrap(), frame);
        assert!(dec.next_frame().unwrap().is_none());
    }
}

/// A whole stream of frames, fed to the decoder in random split sizes
/// (including 1-byte dribbles and boundary-straddling chunks), decodes to
/// exactly the original sequence.
#[test]
fn decoder_survives_arbitrary_splits() {
    let mut rng = TestRng::seed_from_u64(0x5EED);
    for _ in 0..50 {
        let frames: Vec<WireFrame> = (0..rng.gen_range(1..20usize))
            .map(|_| rand_frame(&mut rng))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut dec = Decoder::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let chunk = rng.gen_range(1..64usize).min(stream.len() - pos);
            dec.feed(&stream[pos..pos + chunk]);
            pos += chunk;
            while let Some(body) = dec.next_frame().unwrap() {
                decoded.push(decode_frame(&body).unwrap());
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(dec.buffered(), 0);
    }
}

/// Every strict prefix of an encoded message is rejected as truncated
/// (typed), and the error reports a sane byte count.
#[test]
fn truncated_payloads_yield_typed_errors() {
    let mut rng = TestRng::seed_from_u64(0x7A11);
    for _ in 0..200 {
        let msg = rand_msg(&mut rng);
        let mut buf = Vec::new();
        encode_msg(&mut buf, &msg);
        for cut in 0..buf.len() {
            match decode_msg(&buf[..cut]) {
                Err(DomaError::WireTruncated { needed, have }) => {
                    assert!(
                        have < needed,
                        "truncation at {cut}: needed {needed}, have {have}"
                    );
                }
                Err(DomaError::WireCorrupt { .. }) => {
                    // A cut can also land inside a length field and make
                    // it structurally invalid — typed either way.
                }
                Err(other) => panic!("unexpected error kind {other:?}"),
                Ok(decoded) => panic!("prefix of {msg:?} decoded as {decoded:?}"),
            }
        }
    }
}

/// Corrupting the length prefix never panics: oversized lengths are
/// corruption, undersized ones surface as truncation/corruption of the
/// frame body.
#[test]
fn corrupt_length_prefix_is_rejected() {
    let frame = WireFrame::Client {
        msg: DomMsg::CatchUp {
            object: ObjectId(5),
        },
    };
    let good = encode_frame(&frame);

    // Absurd length: typed corruption from the decoder.
    let mut oversized = good.clone();
    oversized[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut dec = Decoder::new();
    dec.feed(&oversized);
    assert!(matches!(
        dec.next_frame(),
        Err(DomaError::WireCorrupt {
            context: "frame length prefix"
        })
    ));

    // Short length: the truncated body fails typed, and the leftover
    // bytes then fail as a garbage frame — never a panic.
    let mut short = good.clone();
    let body_len = (good.len() - 4) as u32;
    short[..4].copy_from_slice(&(body_len - 3).to_le_bytes());
    let mut dec = Decoder::new();
    dec.feed(&short);
    let body = dec.next_frame().unwrap().expect("short frame extracted");
    assert!(decode_frame(&body).is_err());
}

/// Fuzz: random bodies (and random mutations of valid bodies) decode to
/// a typed result — the codec never panics on hostile bytes.
#[test]
fn random_bytes_never_panic() {
    let mut rng = TestRng::seed_from_u64(0xBADBEEF);
    for _ in 0..3000 {
        let len = rng.gen_range(0..300usize);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_msg(&junk);
        let _ = decode_frame(&junk);
    }
    for _ in 0..2000 {
        let frame = rand_frame(&mut rng);
        let mut bytes = encode_frame(&frame);
        if bytes.len() > 4 {
            let idx = rng.gen_range(4..bytes.len());
            bytes[idx] ^= 1 << rng.gen_range(0..8u32);
            let mut dec = Decoder::new();
            dec.feed(&bytes);
            if let Ok(Some(body)) = dec.next_frame() {
                // Either it still decodes (the flipped bit was in a
                // payload byte) or it fails typed; both are fine.
                let _ = decode_frame(&body);
            }
        }
    }
}

/// A length-prefixed frame around `body`.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// The byte layout of the frames the benchmark encodes — `Peer` and
/// `Client`, tags 1 and 2 — is pinned field by field, so a change to the
/// frame set cannot renumber or reshape them unnoticed.
#[test]
fn peer_and_client_frames_keep_their_bytes() {
    let peer = WireFrame::Peer {
        from: 2,
        kind: MsgKind::Control,
        msg: DomMsg::ReadReq {
            object: ObjectId(5),
            saving: true,
            round: 9,
        },
    };
    let mut body = vec![1]; // Peer
    body.extend(2u64.to_le_bytes()); // from
    body.push(0); // MsgKind::Control
    body.push(2); // ReadReq
    body.extend(5u64.to_le_bytes()); // object
    body.push(1); // saving
    body.extend(9u64.to_le_bytes()); // round
    assert_eq!(encode_frame(&peer), framed(&body));

    let client = WireFrame::Client {
        msg: DomMsg::ClientWrite {
            object: ObjectId(7),
            version: Version(3),
            payload: b"ab".to_vec().into(),
            plan: Some(WritePlan {
                exec: ProcSet::from_bits(0b101),
                invalidate: ProcSet::from_bits(0b10),
                self_invalidate: false,
            }),
        },
    };
    let mut body = vec![2, 1]; // Client, ClientWrite
    body.extend(7u64.to_le_bytes()); // object
    body.extend(3u64.to_le_bytes()); // version
    body.extend(2u32.to_le_bytes()); // payload length
    body.extend(b"ab"); // payload
    body.push(1); // plan present
    body.extend(0b101u64.to_le_bytes()); // exec
    body.extend(0b10u64.to_le_bytes()); // invalidate
    body.push(0); // self_invalidate
    assert_eq!(encode_frame(&client), framed(&body));
}

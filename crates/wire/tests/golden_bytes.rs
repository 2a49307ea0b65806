//! Golden-byte tests: the wire format is a compatibility contract between
//! clients and servers, so representative encodings are pinned to exact
//! byte sequences. If one of these fails, the change breaks wire
//! compatibility and needs a protocol version bump, not a test update.

use brmi_wire::codec::WireCodec;
use brmi_wire::invocation::{
    Arg, BatchRequest, CallSeq, ErrorEnvelope, InvocationData, PolicySpec, SlotOutcome, Target,
};
use brmi_wire::invocation::{BatchResponse, SessionId};
use brmi_wire::protocol::{BatchCall, Frame, FrameRef, IdemKey, TraceCtx};
use brmi_wire::{ObjectId, Value};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_primitive_values() {
    assert_eq!(hex(&Value::Null.to_wire_bytes()), "00");
    assert_eq!(hex(&Value::Bool(true).to_wire_bytes()), "0101");
    assert_eq!(hex(&Value::Bool(false).to_wire_bytes()), "0100");
    // zig-zag: 5 -> 10
    assert_eq!(hex(&Value::I32(5).to_wire_bytes()), "020a");
    // zig-zag: -3 -> 5
    assert_eq!(hex(&Value::I32(-3).to_wire_bytes()), "0205");
    assert_eq!(hex(&Value::I64(1).to_wire_bytes()), "0302");
    assert_eq!(hex(&Value::F64(1.0).to_wire_bytes()), "04000000000000f03f");
    assert_eq!(hex(&Value::Str("hi".into()).to_wire_bytes()), "05026869");
    assert_eq!(hex(&Value::Bytes(vec![0xff]).to_wire_bytes()), "0601ff");
    assert_eq!(hex(&Value::Date(0).to_wire_bytes()), "0700");
    assert_eq!(hex(&Value::RemoteRef(ObjectId(7)).to_wire_bytes()), "0a07");
}

#[test]
fn golden_compound_values() {
    let list = Value::List(vec![Value::I32(1), Value::Null]);
    assert_eq!(hex(&list.to_wire_bytes()), "0802020200");
    let record = Value::Record(vec![("a".into(), Value::Bool(true))]);
    assert_eq!(hex(&record.to_wire_bytes()), "090101610101");
}

#[test]
fn golden_varint_multibyte() {
    // 300 zig-zag -> 600 = 0b100_1011000 -> LEB128 d8 04
    assert_eq!(hex(&Value::I32(300).to_wire_bytes()), "02d804");
}

#[test]
fn golden_call_frame() {
    let frame = Frame::Call {
        key: None,
        target: ObjectId(3),
        method: "m".into(),
        args: vec![Value::I32(1)],
    };
    assert_eq!(hex(&frame.to_wire_bytes()), "0003016d010202");
}

#[test]
fn golden_return_and_error_frames() {
    assert_eq!(hex(&Frame::Return(Value::Null).to_wire_bytes()), "0100");
    let error = Frame::Error(ErrorEnvelope {
        kind: "x".into(),
        exception: "y".into(),
        message: "z".into(),
    });
    assert_eq!(hex(&error.to_wire_bytes()), "0201780179017a");
    assert_eq!(hex(&Frame::Released.to_wire_bytes()), "06");
}

/// The one-call batch every batch-shaped pin below is built from.
fn one_call_batch() -> BatchRequest {
    BatchRequest {
        session: None,
        calls: vec![InvocationData {
            seq: CallSeq(0),
            target: Target::Remote(ObjectId(1)),
            method: "f".into(),
            args: vec![Arg::Result(CallSeq(2))],
            cursor: None,
            opens_cursor: false,
        }],
        policy: PolicySpec::Abort,
        keep_session: false,
    }
}

#[test]
fn golden_batch_request() {
    let request = one_call_batch();
    // 00: no session, 01: one call, 00: seq 0, 00 01: target remote obj#1,
    // 01 66: "f", 01: one arg, 01 02: Arg::Result(2), 00: no cursor,
    // 00: not opening, 00: abort policy, 00: no keep.
    assert_eq!(
        hex(&Frame::BatchCall(request.into()).to_wire_bytes()),
        "030001000001016601010200000000"
    );
}

#[test]
fn golden_slot_outcomes() {
    assert_eq!(hex(&SlotOutcome::Ok(Value::Null).to_wire_bytes()), "0000");
    assert_eq!(hex(&SlotOutcome::InCursor.to_wire_bytes()), "03");
}

#[test]
fn decoding_golden_bytes_back() {
    // The inverse direction, proving the constants above aren't stale.
    let bytes = [0x02u8, 0x0a];
    assert_eq!(Value::from_wire_bytes(&bytes).unwrap(), Value::I32(5));
    let frame = Frame::from_wire_bytes(&[0x06]).unwrap();
    assert_eq!(frame, Frame::Released);
}

const KEY: IdemKey = IdemKey {
    client_id: 7,
    seq: 300,
    acked: 2,
};
const SECOND_KEY: IdemKey = IdemKey {
    client_id: 8,
    seq: 1,
    acked: 0,
};
const CTX: TraceCtx = TraceCtx {
    trace_id: 1,
    span_id: 2,
    parent: 0,
};

/// Pins `frame` to `golden` in both directions: it encodes to exactly
/// these bytes, and the bytes decode back to it through the owned and the
/// borrowed decoder.
fn pin(frame: &Frame, golden: &str) {
    let bytes = frame.to_wire_bytes();
    assert_eq!(hex(&bytes), golden, "{frame:?}");
    assert_eq!(&Frame::from_wire_bytes(&bytes).unwrap(), frame);
    assert_eq!(
        &FrameRef::from_wire_bytes(&bytes).unwrap().into_owned(),
        frame
    );
}

#[test]
fn golden_super_batch_request() {
    pin(
        &Frame::SuperBatchCall(vec![one_call_batch().into(), one_call_batch().into()]),
        "0b0200010000010166010102000000000001000001016601010200000000",
    );
}

#[test]
fn golden_keyed_requests() {
    // A keyed body is the unkeyed body with the key (07 ac02 02) spliced
    // in after the tag; a keyed super-batch splices one key per member.
    pin(
        &Frame::Call {
            key: Some(KEY),
            target: ObjectId(3),
            method: "m".into(),
            args: vec![Value::I32(1)],
        },
        "0d07ac020203016d010202",
    );
    pin(
        &Frame::BatchCall(BatchCall {
            key: Some(KEY),
            request: one_call_batch(),
        }),
        "0e07ac02020001000001016601010200000000",
    );
    pin(
        &Frame::SuperBatchCall(vec![
            BatchCall {
                key: Some(KEY),
                request: one_call_batch(),
            },
            BatchCall {
                key: Some(SECOND_KEY),
                request: one_call_batch(),
            },
        ]),
        "0f0207ac020200010000010166010102000000000801000001000001016601010200000000",
    );
}

#[test]
fn golden_traced_envelopes() {
    // 10: traced, 01 02 00: ctx, then the bare frame's bytes untouched.
    pin(
        &Frame::BatchCall(BatchCall {
            key: Some(KEY),
            request: one_call_batch(),
        })
        .with_trace(Some(CTX)),
        "100102000e07ac02020001000001016601010200000000",
    );
    pin(
        &Frame::Return(Value::Null).with_trace(Some(CTX)),
        "100102000100",
    );
}

#[test]
fn golden_control_and_reply_frames() {
    pin(&Frame::ReleaseSession(SessionId(4)), "0504");
    pin(
        &Frame::Dirty {
            ids: vec![ObjectId(1), ObjectId(2)],
            lease_millis: 1000,
        },
        "07020102e807",
    );
    pin(&Frame::Leased { lease_millis: 1000 }, "08e807");
    pin(
        &Frame::Clean {
            ids: vec![ObjectId(1)],
        },
        "090101",
    );
    pin(&Frame::Cleaned, "0a");
    pin(
        &Frame::SuperBatchReturn(vec![
            Ok(BatchResponse::default()),
            Err(ErrorEnvelope {
                kind: "x".into(),
                exception: "y".into(),
                message: "z".into(),
            }),
        ]),
        "0c0200000000000101780179017a",
    );
}

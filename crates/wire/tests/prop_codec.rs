//! Property tests: every wire structure must round-trip through the codec,
//! and the decoder must never panic on arbitrary input.

use brmi_wire::codec::{Encoder, WireCodec};
use brmi_wire::invocation::{
    Arg, BatchRequest, BatchRequestRef, BatchResponse, CallSeq, CursorResult, ErrorEnvelope,
    ExceptionAction, InvocationData, PolicyRule, PolicySpec, SessionId, SlotOutcome, Target,
};
use brmi_wire::protocol::{BatchCall, Frame, FrameRef, IdemKey, TraceCtx};
use brmi_wire::value::{ObjectId, Value, ValueRef};
use brmi_wire::WireError;
use proptest::prelude::*;

/// Asserts that the owned and the borrowed decode of the same bytes agree:
/// both fail with the same error, or both succeed with the same value.
/// Values are compared by their encoding, so a decoded NaN matches itself.
fn assert_decodes_agree<T: WireCodec>(owned: Result<T, WireError>, borrowed: Result<T, WireError>) {
    assert_eq!(
        owned.map(|v| v.to_wire_bytes()),
        borrowed.map(|v| v.to_wire_bytes())
    );
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        // NaN breaks PartialEq-based round-trip checks; use finite floats.
        (-1.0e12f64..1.0e12).prop_map(Value::F64),
        ".{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Value::Bytes),
        any::<i64>().prop_map(Value::Date),
        any::<u64>().prop_map(|n| Value::RemoteRef(ObjectId(n))),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..5).prop_map(Value::Record),
        ]
    })
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u64>().prop_map(|n| Target::Remote(ObjectId(n))),
        any::<u32>().prop_map(|n| Target::Result(CallSeq(n))),
        (any::<u32>(), any::<u32>()).prop_map(|(s, i)| Target::CursorElement(CallSeq(s), i)),
    ]
}

fn arb_arg() -> impl Strategy<Value = Arg> {
    prop_oneof![
        arb_value().prop_map(Arg::Value),
        any::<u32>().prop_map(|n| Arg::Result(CallSeq(n))),
        (any::<u32>(), any::<u32>()).prop_map(|(s, i)| Arg::CursorElement(CallSeq(s), i)),
    ]
}

fn arb_invocation() -> impl Strategy<Value = InvocationData> {
    (
        any::<u32>(),
        arb_target(),
        "[a-z_]{1,16}",
        proptest::collection::vec(arb_arg(), 0..4),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
    )
        .prop_map(
            |(seq, target, method, args, cursor, opens_cursor)| InvocationData {
                seq: CallSeq(seq),
                target,
                method,
                args,
                cursor: cursor.map(CallSeq),
                opens_cursor,
            },
        )
}

fn arb_action() -> impl Strategy<Value = ExceptionAction> {
    prop_oneof![
        Just(ExceptionAction::Break),
        Just(ExceptionAction::Continue),
        Just(ExceptionAction::Repeat),
        Just(ExceptionAction::Restart),
    ]
}

fn arb_policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::Abort),
        Just(PolicySpec::Continue),
        (
            arb_action(),
            proptest::collection::vec(
                (
                    proptest::option::of("[A-Za-z]{1,12}"),
                    proptest::option::of("[a-z_]{1,12}"),
                    proptest::option::of(any::<u32>()),
                    arb_action(),
                )
                    .prop_map(|(exception, method, index, action)| PolicyRule {
                        exception,
                        method,
                        index,
                        action,
                    }),
                0..4,
            )
        )
            .prop_map(|(default, rules)| PolicySpec::Custom { default, rules }),
    ]
}

fn arb_envelope() -> impl Strategy<Value = ErrorEnvelope> {
    ("[a-z-]{1,12}", "[A-Za-z]{1,16}", ".{0,32}").prop_map(|(kind, exception, message)| {
        ErrorEnvelope {
            kind,
            exception,
            message,
        }
    })
}

fn arb_outcome() -> impl Strategy<Value = SlotOutcome> {
    prop_oneof![
        arb_value().prop_map(SlotOutcome::Ok),
        arb_envelope().prop_map(SlotOutcome::Err),
        arb_envelope().prop_map(SlotOutcome::Skipped),
        Just(SlotOutcome::InCursor),
    ]
}

fn arb_request() -> impl Strategy<Value = BatchRequest> {
    (
        proptest::option::of(any::<u64>()),
        proptest::collection::vec(arb_invocation(), 0..6),
        arb_policy(),
        any::<bool>(),
    )
        .prop_map(|(session, calls, policy, keep_session)| BatchRequest {
            session: session.map(SessionId),
            calls,
            policy,
            keep_session,
        })
}

fn arb_response() -> impl Strategy<Value = BatchResponse> {
    (
        proptest::option::of(any::<u64>()),
        proptest::collection::vec((any::<u32>(), arb_outcome()), 0..6),
        proptest::collection::vec(
            (
                any::<u32>(),
                proptest::collection::vec(any::<u32>(), 0..3),
                proptest::collection::vec(proptest::collection::vec(arb_outcome(), 0..3), 0..3),
            )
                .prop_map(|(seq, members, rows)| CursorResult {
                    cursor_seq: CallSeq(seq),
                    len: rows.len() as u32,
                    members: members.into_iter().map(CallSeq).collect(),
                    rows,
                }),
            0..3,
        ),
        any::<u32>(),
    )
        .prop_map(|(session, slots, cursors, restarts)| BatchResponse {
            session: session.map(SessionId),
            slots: slots
                .into_iter()
                .map(|(seq, outcome)| (CallSeq(seq), outcome))
                .collect(),
            cursors,
            restarts,
        })
}

fn arb_key() -> impl Strategy<Value = IdemKey> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(client_id, seq, acked)| IdemKey {
        client_id,
        seq,
        acked,
    })
}

fn arb_ctx() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(trace_id, span_id, parent)| TraceCtx {
        trace_id,
        span_id,
        parent,
    })
}

/// A request as some tier might send it: {call, batch, super-batch of
/// 1..4} × {keyed, unkeyed} × {traced, bare}. A super-batch is keyed on
/// every member or on none, as the relay builds them (the wire cannot
/// carry a mix).
fn arb_request_frame() -> impl Strategy<Value = Frame> {
    let shape = prop_oneof![
        (
            proptest::option::of(arb_key()),
            any::<u64>(),
            "[a-z_]{1,16}",
            proptest::collection::vec(arb_value(), 0..4),
        )
            .prop_map(|(key, target, method, args)| Frame::Call {
                key,
                target: ObjectId(target),
                method,
                args,
            }),
        (proptest::option::of(arb_key()), arb_request())
            .prop_map(|(key, request)| Frame::BatchCall(BatchCall { key, request })),
        (
            any::<bool>(),
            proptest::collection::vec((arb_key(), arb_request()), 1..5),
        )
            .prop_map(|(keyed, members)| Frame::SuperBatchCall(
                members
                    .into_iter()
                    .map(|(key, request)| BatchCall {
                        key: keyed.then_some(key),
                        request,
                    })
                    .collect()
            )),
    ];
    (shape, proptest::option::of(arb_ctx())).prop_map(|(frame, ctx)| frame.with_trace(ctx))
}

/// `frame` with every idempotency key removed.
fn without_keys(frame: &Frame) -> Frame {
    match frame.clone() {
        Frame::Call {
            target,
            method,
            args,
            ..
        } => Frame::Call {
            key: None,
            target,
            method,
            args,
        },
        Frame::BatchCall(call) => Frame::BatchCall(call.request.into()),
        Frame::SuperBatchCall(members) => {
            Frame::SuperBatchCall(members.into_iter().map(|m| m.request.into()).collect())
        }
        other => other,
    }
}

proptest! {
    #[test]
    fn request_frame_round_trips(frame in arb_request_frame()) {
        let bytes = frame.to_wire_bytes();
        prop_assert_eq!(Frame::from_wire_bytes(&bytes).unwrap(), frame);
    }

    #[test]
    fn borrowed_request_frame_decode_matches_owned(frame in arb_request_frame()) {
        let bytes = frame.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        // The owned → borrowed bridge is the same view the decoder builds.
        prop_assert_eq!(&frame.to_ref(), &borrowed);
        prop_assert_eq!(borrowed.into_owned(), Frame::from_wire_bytes(&bytes).unwrap());
    }

    /// The law that lets the key be a field and the trace an envelope:
    /// neither perturbs the bytes of what it annotates. A traced frame is
    /// `[16] ++ ctx ++ bare`; a keyed call or batch is its unkeyed
    /// encoding with the tag swapped and the key spliced in after it; a
    /// keyed super-batch splices one key in front of every member.
    #[test]
    fn key_and_trace_splice_into_the_unkeyed_bare_bytes(frame in arb_request_frame()) {
        let (ctx, bare) = frame.clone().split_trace();
        let bare_bytes = bare.to_wire_bytes();
        if let Some(ctx) = ctx {
            let mut expected = vec![16];
            expected.extend(ctx.to_wire_bytes());
            expected.extend(&bare_bytes);
            prop_assert_eq!(frame.to_wire_bytes(), expected);
        }

        let unkeyed_bytes = without_keys(&bare).to_wire_bytes();
        let splice = |keyed_tag: u8, key: &IdemKey| {
            let mut spliced = vec![keyed_tag];
            spliced.extend(key.to_wire_bytes());
            spliced.extend(&unkeyed_bytes[1..]);
            spliced
        };
        let expected = match &bare {
            Frame::Call { key: Some(key), .. } => splice(13, key),
            Frame::BatchCall(BatchCall { key: Some(key), .. }) => splice(14, key),
            Frame::SuperBatchCall(members) if members[0].key.is_some() => {
                let mut enc = Encoder::new();
                enc.put_u8(15);
                enc.put_varint(members.len() as u64);
                for member in members {
                    member.key.expect("uniformly keyed").encode(&mut enc);
                    member.request.encode(&mut enc);
                }
                prop_assert_eq!(&unkeyed_bytes[..2], &[11, members.len() as u8]);
                enc.into_bytes()
            }
            _ => unkeyed_bytes.clone(),
        };
        prop_assert_eq!(&bare_bytes, &expected);
        prop_assert_eq!(bare.is_retry_safe(), bare_bytes != unkeyed_bytes);
    }

    #[test]
    fn value_round_trips_at_both_widths(value in arb_value()) {
        use brmi_wire::codec::IntWidth;
        for width in [IntWidth::Varint, IntWidth::Fixed8] {
            let bytes = value.to_wire_bytes_with(width);
            prop_assert_eq!(Value::from_wire_bytes_with(&bytes, width).unwrap(), value.clone());
        }
    }

    #[test]
    fn value_round_trips(value in arb_value()) {
        let bytes = value.to_wire_bytes();
        prop_assert_eq!(Value::from_wire_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn invocation_round_trips(inv in arb_invocation()) {
        let bytes = inv.to_wire_bytes();
        prop_assert_eq!(InvocationData::from_wire_bytes(&bytes).unwrap(), inv);
    }

    #[test]
    fn policy_round_trips(policy in arb_policy()) {
        let bytes = policy.to_wire_bytes();
        prop_assert_eq!(PolicySpec::from_wire_bytes(&bytes).unwrap(), policy);
    }

    #[test]
    fn batch_request_round_trips(req in arb_request()) {
        let bytes = req.to_wire_bytes();
        prop_assert_eq!(BatchRequest::from_wire_bytes(&bytes).unwrap(), req);
    }

    #[test]
    fn batch_response_round_trips(resp in arb_response()) {
        let bytes = resp.to_wire_bytes();
        prop_assert_eq!(BatchResponse::from_wire_bytes(&bytes).unwrap(), resp);
    }

    #[test]
    fn frame_round_trips_via_batch(req in arb_request()) {
        let frame = Frame::BatchCall(req.into());
        let bytes = frame.to_wire_bytes();
        prop_assert_eq!(Frame::from_wire_bytes(&bytes).unwrap(), frame);
    }

    #[test]
    fn dgc_frames_round_trip(
        ids in proptest::collection::vec(any::<u64>(), 0..32),
        lease in any::<u64>(),
        dirty in any::<bool>(),
    ) {
        let ids: Vec<ObjectId> = ids.into_iter().map(ObjectId).collect();
        let frame = if dirty {
            Frame::Dirty { ids, lease_millis: lease }
        } else {
            Frame::Clean { ids }
        };
        let bytes = frame.to_wire_bytes();
        prop_assert_eq!(Frame::from_wire_bytes(&bytes).unwrap(), frame);
    }

    #[test]
    fn borrowed_value_decode_matches_owned(value in arb_value()) {
        let bytes = value.to_wire_bytes();
        let borrowed = ValueRef::from_wire_bytes(&bytes).unwrap();
        prop_assert_eq!(&borrowed.into_owned(), &value);
        // The owned → borrowed bridge agrees with the wire-decoded view.
        prop_assert_eq!(value.to_ref().into_owned(), value);
    }

    #[test]
    fn borrowed_batch_decode_matches_owned(req in arb_request()) {
        let bytes = req.to_wire_bytes();
        let borrowed = BatchRequestRef::from_wire_bytes(&bytes).unwrap();
        prop_assert_eq!(&borrowed.into_owned(), &req);
        prop_assert_eq!(req.to_ref().into_owned(), req);
    }

    #[test]
    fn borrowed_frame_decode_matches_owned(req in arb_request()) {
        let frame = Frame::BatchCall(req.into());
        let bytes = frame.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        prop_assert!(matches!(borrowed, FrameRef::BatchCall(_)));
        prop_assert_eq!(borrowed.into_owned(), frame);
    }

    #[test]
    fn encoder_reuse_after_reset_is_byte_identical(first in arb_value(), second in arb_value()) {
        let mut enc = Encoder::new();
        first.encode(&mut enc);
        enc.reset();
        second.encode(&mut enc);
        prop_assert_eq!(enc.into_bytes(), second.to_wire_bytes());
    }

    #[test]
    fn encode_into_reused_buffer_is_byte_identical(first in arb_value(), second in arb_value()) {
        let mut buf = first.to_wire_bytes();
        second.encode_into(&mut buf);
        prop_assert_eq!(buf, second.to_wire_bytes());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine as long as it is a Result, not a panic — and
        // the owned and borrowed decoders reach the same one.
        let _ = BatchResponse::from_wire_bytes(&bytes);
        assert_decodes_agree(
            Value::from_wire_bytes(&bytes),
            ValueRef::from_wire_bytes(&bytes).map(ValueRef::into_owned),
        );
        assert_decodes_agree(
            BatchRequest::from_wire_bytes(&bytes),
            BatchRequestRef::from_wire_bytes(&bytes).map(BatchRequestRef::into_owned),
        );
        assert_decodes_agree(
            Frame::from_wire_bytes(&bytes),
            FrameRef::from_wire_bytes(&bytes).map(FrameRef::into_owned),
        );
    }

    #[test]
    fn truncation_never_panics(value in arb_value(), cut in 0usize..64) {
        let bytes = value.to_wire_bytes();
        let cut = cut.min(bytes.len());
        let _ = Value::from_wire_bytes(&bytes[..cut]);
    }
}

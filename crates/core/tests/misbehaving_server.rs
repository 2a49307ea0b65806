//! Client robustness against non-conforming servers: missing results,
//! unsolicited sessions, bogus cursor metadata. The client must degrade to
//! clean errors, never panic or hang.

mod common;

use std::sync::Arc;

use brmi::policy::AbortPolicy;
use brmi::Batch;
use brmi_rmi::Connection;
use brmi_transport::{RequestHandler, Transport};
use brmi_wire::invocation::{BatchResponse, CallSeq, CursorResult, SessionId, SlotOutcome};
use brmi_wire::protocol::Frame;
use brmi_wire::{ObjectId, RemoteError, RemoteErrorKind, Value};
use common::BNode;

/// A "server" that answers every batch with a canned response.
struct CannedServer {
    response: BatchResponse,
}

impl RequestHandler for CannedServer {
    fn handle(&self, frame: Frame) -> Frame {
        match frame {
            Frame::BatchCall(_) => Frame::BatchReturn(self.response.clone()),
            Frame::ReleaseSession(_) => Frame::Released,
            _ => Frame::Return(Value::Null),
        }
    }
}

struct DirectTransport(Arc<dyn RequestHandler>);

impl Transport for DirectTransport {
    fn request(&self, frame: Frame) -> Result<Frame, RemoteError> {
        Ok(self.0.handle(frame))
    }
}

fn rig_with(response: BatchResponse) -> (Batch, BNode) {
    let conn = Connection::new(Arc::new(DirectTransport(Arc::new(CannedServer {
        response,
    }))));
    let reference = conn.reference(ObjectId(1));
    let batch = Batch::new(conn, AbortPolicy);
    let root = BNode::new(&batch, &reference);
    (batch, root)
}

#[test]
fn missing_results_become_protocol_errors() {
    // The server acknowledges the batch but returns no slots at all.
    let (batch, root) = rig_with(BatchResponse::default());
    let a = root.value();
    let b = root.name();
    batch.flush().unwrap();
    for err in [a.get().unwrap_err(), b.get().unwrap_err()] {
        assert_eq!(err.kind(), RemoteErrorKind::Protocol);
        assert!(err.message().contains("missing result"), "{err}");
    }
}

#[test]
fn unsolicited_session_is_released_defensively() {
    // keep_session == false, yet the server returns a session id: the
    // client must not retain it.
    let (batch, root) = rig_with(BatchResponse {
        session: Some(SessionId(9)),
        slots: vec![(CallSeq(0), SlotOutcome::Ok(Value::I32(1)))],
        cursors: vec![],
        restarts: 0,
    });
    let value = root.value();
    batch.flush().unwrap();
    assert_eq!(value.get().unwrap(), 1);
    assert_eq!(batch.session(), None);
    assert!(batch.is_finished());
}

#[test]
fn unknown_cursor_metadata_is_ignored() {
    // A cursor result for a cursor the client never created.
    let (batch, root) = rig_with(BatchResponse {
        session: None,
        slots: vec![(CallSeq(0), SlotOutcome::Ok(Value::I32(5)))],
        cursors: vec![CursorResult {
            cursor_seq: CallSeq(77),
            len: 3,
            members: vec![CallSeq(78)],
            rows: vec![vec![SlotOutcome::Ok(Value::Null)]; 3],
        }],
        restarts: 0,
    });
    let value = root.value();
    batch.flush().unwrap();
    assert_eq!(value.get().unwrap(), 5);
}

#[test]
fn extra_unknown_slots_are_ignored() {
    let (batch, root) = rig_with(BatchResponse {
        session: None,
        slots: vec![
            (CallSeq(0), SlotOutcome::Ok(Value::I32(5))),
            (CallSeq(999), SlotOutcome::Ok(Value::I32(6))),
        ],
        cursors: vec![],
        restarts: 0,
    });
    let value = root.value();
    batch.flush().unwrap();
    assert_eq!(value.get().unwrap(), 5);
}

#[test]
fn hostile_slot_seqs_never_index_or_size_anything() {
    // Seq u32::MAX must not size the bookkeeping (that would be a 4 GiB
    // allocation), a duplicate must not panic, and an `InCursor` outcome
    // for a call outside any cursor is no result at all.
    let (batch, root) = rig_with(BatchResponse {
        session: None,
        slots: vec![
            (CallSeq(u32::MAX), SlotOutcome::Ok(Value::I32(9))),
            (CallSeq(0), SlotOutcome::Ok(Value::I32(1))),
            (CallSeq(0), SlotOutcome::Ok(Value::I32(2))),
            (CallSeq(1), SlotOutcome::InCursor),
            (CallSeq(3), SlotOutcome::Ok(Value::I32(4))),
        ],
        cursors: vec![],
        restarts: 0,
    });
    let duplicated = root.value(); // seq 0
    let in_cursor = root.value(); // seq 1
    let missing = root.name(); // seq 2
    let answered = root.value(); // seq 3
    batch.flush().unwrap();

    assert!(matches!(duplicated.get(), Ok(1 | 2)));
    assert_eq!(answered.get().unwrap(), 4);
    for err in [in_cursor.get().unwrap_err(), missing.get().unwrap_err()] {
        assert_eq!(err.kind(), RemoteErrorKind::Protocol);
        assert!(
            err.message().contains("server response missing result"),
            "{err}"
        );
    }
    assert!(batch.first_failure_from(0).is_some());
}

#[test]
fn wrong_reply_frame_kind_is_a_protocol_error() {
    struct WrongReply;
    impl RequestHandler for WrongReply {
        fn handle(&self, _frame: Frame) -> Frame {
            Frame::Return(Value::Null) // not a BatchReturn
        }
    }
    let conn = Connection::new(Arc::new(DirectTransport(Arc::new(WrongReply))));
    let batch = Batch::new(conn.clone(), AbortPolicy);
    let root = BNode::new(&batch, &conn.reference(ObjectId(1)));
    let value = root.value();
    let err = batch.flush().unwrap_err();
    assert_eq!(err.kind(), RemoteErrorKind::Protocol);
    assert!(value.get().is_err());
}

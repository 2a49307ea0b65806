//! One hostile frame must not take a server down.
//!
//! The value decoder recurses once per `List`/`Record` level, so a frame
//! nesting a list 100 000 deep (200 001 bytes, far below the 64 MiB frame
//! cap) used to overflow the decoding thread's stack, which aborts the
//! whole process and every connection in it. The decoder now refuses the
//! frame past `MAX_DEPTH` levels: the reactor closes the hostile
//! connection, and the next client is served as usual.
//!
//! Kept in a binary of its own: a regression aborts the process, which
//! would take every other test in the binary down with it.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use brmi_apps::translator::{DictionaryTranslator, TranslatorSkeleton, TranslatorStub, Word};
use brmi_rmi::{Connection, RmiServer};
use brmi_transport::pool::TcpPool;
use brmi_transport::reactor::{ReactorConfig, ReactorServer};
use brmi_wire::codec::{WireCodec, MAX_DEPTH};
use brmi_wire::protocol::Frame;
use brmi_wire::value::{ObjectId, Value};

const DEPTH: usize = 100_000;

/// A plain `translate` call on `target` whose one argument is a list
/// nested `DEPTH` deep, encoded without ever building the value.
fn deep_call(target: ObjectId) -> Vec<u8> {
    let mut bytes = Frame::Call {
        key: None,
        target,
        method: "translate".into(),
        args: vec![Value::Null],
    }
    .to_wire_bytes();
    // The `Null` argument is the frame's last byte; nest lists in its place.
    assert_eq!(bytes.pop(), Some(0));
    bytes.extend([8u8, 1].repeat(DEPTH));
    bytes.push(0);
    bytes
}

#[test]
fn deeply_nested_call_is_refused_and_the_server_keeps_serving() {
    const { assert!(DEPTH > MAX_DEPTH) };
    // Inline dispatch decodes on the reactor thread; a worker pool
    // validates on the reactor thread before the hand-off.
    for dispatch_workers in [0, 1] {
        let server = RmiServer::new();
        let id = server
            .bind(
                "translator",
                TranslatorSkeleton::remote_arc(DictionaryTranslator::english_to_french()),
            )
            .unwrap();
        let reactor = ReactorServer::bind_with(
            "127.0.0.1:0",
            server,
            ReactorConfig {
                reactor_threads: 1,
                dispatch_workers,
                ..ReactorConfig::default()
            },
        )
        .unwrap();

        let frame = deep_call(id);
        let mut hostile = TcpStream::connect(reactor.local_addr()).unwrap();
        hostile
            .write_all(&(frame.len() as u32).to_le_bytes())
            .unwrap();
        hostile.write_all(&frame).unwrap();
        // The reactor closes the hostile connection without a reply.
        let mut rest = Vec::new();
        let _ = hostile.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no reply to an undecodable frame");

        // The process is alive, and a second client's call succeeds.
        let conn = Connection::new(Arc::new(TcpPool::connect(reactor.local_addr()).unwrap()));
        let translator = TranslatorStub::new(conn.reference(id));
        assert_eq!(
            translator.translate(Word::new("hello", "en")).unwrap(),
            Word::new("bonjour", "fr")
        );
    }
}

//! # brmi — Batched Remote Method Invocation
//!
//! A Rust reproduction of **"Explicit Batching for Distributed Objects"**
//! (Eli Tilevich and William R. Cook, ICDCS 2009). BRMI extends the RMI
//! substrate in [`brmi_rmi`] with *explicit batching*: clients record
//! multiple remote method calls — across any number of objects — and ship
//! them to the server in a single round trip.
//!
//! The pieces, mapped to the paper:
//!
//! * [`remote_interface!`] — the interface generator (`rmic -batch`,
//!   Section 3.2): derives batch interfaces (`BFoo`), cursors (`CFoo`),
//!   RMI stubs, skeletons and loopback proxies from one declaration.
//! * [`Batch`] / [`BatchStub`] — invocation monitoring (Section 4.1):
//!   calls are recorded, futures returned.
//! * [`BatchFuture`] — placeholders populated at `flush`; `get`
//!   re-throws exceptions of anything the value depends on (Section 3.3).
//! * [`policy`] — `Abort` / `Continue` / `Custom` exception policies with
//!   `Break` / `Continue` / `Repeat` / `Restart` actions (Section 3.3).
//! * [`CursorHandle`] — array cursors: one batch operates on every element
//!   of a server-side array, then iterates the results (Section 3.4).
//! * [`Batch::flush_and_continue`] — chained batches over a server-side
//!   session (Section 3.5).
//! * [`BatchExecutor`] — the server runtime (`invokeBatch`, Figure 2),
//!   which also preserves remote reference identity (Section 4.4).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use brmi::{remote_interface, Batch, BatchExecutor};
//! use brmi::policy::AbortPolicy;
//! use brmi_rmi::{Connection, RmiServer};
//! use brmi_transport::inproc::InProcTransport;
//! use brmi_wire::RemoteError;
//!
//! remote_interface! {
//!     pub interface Greeter {
//!         fn greet(name: String) -> String;
//!     }
//! }
//!
//! struct English;
//! impl Greeter for English {
//!     fn greet(&self, name: String) -> Result<String, RemoteError> {
//!         Ok(format!("hello, {name}"))
//!     }
//! }
//!
//! # fn main() -> Result<(), RemoteError> {
//! // Server: export the service and enable batching.
//! let server = RmiServer::new();
//! BatchExecutor::install(&server);
//! server.bind("greeter", GreeterSkeleton::remote_arc(Arc::new(English)))?;
//!
//! // Client: look up the service and run a batch.
//! let conn = Connection::new(Arc::new(InProcTransport::new(server.clone())));
//! let remote = conn.lookup("greeter")?;
//! let batch = Batch::new(conn, AbortPolicy);
//! let greeter = BGreeter::new(&batch, &remote);
//! let alice = greeter.greet("alice".into());
//! let bob = greeter.greet("bob".into());
//! batch.flush()?; // one round trip for both calls
//! assert_eq!(alice.get()?, "hello, alice");
//! assert_eq!(bob.get()?, "hello, bob");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod batch;
pub mod executor;
pub mod future;
pub mod interface;
pub mod macros;
pub mod policy;
pub mod stats;
pub mod stub;

pub use batch::{Batch, PendingFlush};
pub use executor::BatchExecutor;
pub use future::BatchFuture;
pub use interface::{BatchCtor, BatchParam, Companions, CursorCtor, StubCtor};
pub use stats::BatchStats;
pub use stub::{BatchStub, CursorHandle, RecordArg};

/// Runtime support for macro-generated code. Not part of the public API.
#[doc(hidden)]
pub mod __rt {
    pub use crate::interface::{
        expect_ref_list, expect_remote_ref, loopback_arg_id, value_arg, wrong_remote_type,
    };
    pub use brmi_rmi::{
        bad_arity, no_such_method, CallCtx, Connection, InArg, Loopback, OutValue, RemoteObject,
        RemoteRef,
    };
    pub use brmi_wire::{
        FromValue, InterfaceMeta, MethodMeta, ObjectId, RemoteError, ToValue, Value, ValueRef,
    };
    pub use paste::paste;
    pub use std::any::Any;
    pub use std::sync::Arc;
}

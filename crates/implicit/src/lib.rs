//! # brmi-implicit — an implicit-batching baseline for BRMI
//!
//! The paper's related-work section contrasts *explicit* batching (BRMI)
//! with *implicit* batching: Thor's batched futures (Bogle & Liskov),
//! Yeung & Kelly's communication restructuring, and Future-based RMI
//! (Alt & Gorlatch). Those systems delay remote calls transparently and
//! flush the accumulated batch when the program *demands* a value. The
//! paper could compare against them only subjectively ("we do not know
//! of a publicly available implementation of implicit batching for
//! Java"); this crate provides that missing comparator so the benchmark
//! suite can quantify the comparison.
//!
//! ## What it models
//!
//! An [`ImplicitRuntime`] plays the role of the bytecode rewriter /
//! modified runtime of the implicit systems:
//!
//! * remote calls made through batch stubs are **delayed**, not sent;
//! * a [`Lazy<T>`] value stands for a delayed result, and forcing it
//!   ([`Lazy::get`]) flushes every delayed call in one round trip —
//!   Thor's *batched futures* rule;
//! * calls that return remote references chain **without** any flush
//!   (Future-based RMI keeps remote results server-side; this baseline
//!   inherits the same behaviour from the BRMI session machinery);
//! * [`ImplicitRuntime::barrier`] models the *forced flush points* that
//!   the static analyses of implicit systems must insert — entry into an
//!   exception handler, a local side effect that must be ordered with
//!   remote effects, an assignment that escapes the analysis — the exact
//!   situations Section 1 of the paper lists as defeating implicit
//!   batching. Client code in the benchmarks calls `barrier()` precisely
//!   where Yeung & Kelly's analysis would flush, making the baseline's
//!   round-trip count a faithful (in fact slightly optimistic) model.
//!
//! ## What it deliberately cannot do
//!
//! Implicit batching has no analogue of the paper's *array cursors*: a
//! loop over a remote collection demands a value in every iteration, so
//! each iteration costs a round trip. It also cannot express *exception
//! policies*: the server aborts at the first exception (the only
//! semantics-preserving choice, since later delayed calls might never
//! have executed under RMI). The `implicit_vs_explicit` benchmark
//! binary measures both gaps.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use brmi::{remote_interface, BatchExecutor};
//! use brmi_implicit::ImplicitRuntime;
//! use brmi_rmi::{Connection, RmiServer};
//! use brmi_transport::sim::SimTransport;
//! use brmi_wire::RemoteError;
//!
//! remote_interface! {
//!     pub interface Counter {
//!         fn increment(by: i32) -> i32;
//!     }
//! }
//!
//! struct State(std::sync::atomic::AtomicI32);
//! impl Counter for State {
//!     fn increment(&self, by: i32) -> Result<i32, RemoteError> {
//!         Ok(self.0.fetch_add(by, std::sync::atomic::Ordering::Relaxed) + by)
//!     }
//! }
//!
//! # fn main() -> Result<(), RemoteError> {
//! let server = RmiServer::new();
//! BatchExecutor::install(&server);
//! server.bind("counter", CounterSkeleton::remote_arc(Arc::new(State(0.into()))))?;
//! let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
//!
//! let rt = ImplicitRuntime::new(conn.clone());
//! let counter: BCounter = rt.stub(&conn.lookup("counter")?);
//! let a = rt.lazy(counter.increment(1)); // delayed
//! let b = rt.lazy(counter.increment(2)); // delayed
//! assert_eq!(b.get()?, 3); // forces ONE round trip for both calls
//! assert_eq!(a.get()?, 1); // already resolved, no round trip
//! assert_eq!(rt.round_trips(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod lazy;
mod runtime;

pub use lazy::Lazy;
pub use runtime::ImplicitRuntime;

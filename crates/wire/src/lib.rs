//! # brmi-wire
//!
//! Wire-level foundation of the BRMI middleware: the [`Value`] data model,
//! a compact binary [codec], batch [invocation descriptors](invocation)
//! and the request/response [protocol frames](protocol).
//!
//! The request model — [`Value`](value::ValueIn), [`Arg`](invocation::ArgIn),
//! [`InvocationData`](invocation::InvocationDataIn),
//! [`BatchRequest`](invocation::BatchRequestIn) and
//! [`BatchCall`](protocol::BatchCallIn) — is written once, generic over a
//! payload storage [`Repr`]: [`Owned`] (`String`, `Vec<u8>`) for what
//! clients build and encode, [`Borrowed`] (slices of the frame buffer) for
//! the server's zero-copy dispatch path. Today's names are aliases of the
//! two instantiations (`Value` and `ValueRef`, …), and each type has one
//! decoder, parameterized by [`DecodeRepr`].
//!
//! This crate is the Rust analogue of the serialization layer that Java RMI
//! gets for free from the JVM. It is deliberately dependency-light because
//! the bytes it produces are a measured quantity in the paper's experiments:
//! the simulated network charges transmission time proportional to encoded
//! frame size.
//!
//! ## Example
//!
//! ```
//! use brmi_wire::codec::WireCodec;
//! use brmi_wire::value::{ObjectId, Value};
//!
//! let value = Value::List(vec![
//!     Value::Str("index.html".into()),
//!     Value::RemoteRef(ObjectId(7)),
//! ]);
//! let bytes = value.to_wire_bytes();
//! assert_eq!(Value::from_wire_bytes(&bytes).unwrap(), value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod codec;
pub mod error;
pub mod invocation;
pub mod meta;
pub mod protocol;
pub mod value;

pub use codec::{DecodeRepr, WireCodec};
pub use error::{RemoteError, RemoteErrorKind, WireError};
pub use meta::{InterfaceMeta, MethodMeta, MethodRegistry};
pub use value::{Borrowed, DateMillis, FromValue, ObjectId, Owned, Repr, ToValue, Value, ValueRef};

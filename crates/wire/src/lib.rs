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
//! Names — record field names and method names — are a storage type of
//! their own, [`Repr::Name`]: `Cow<'static, str>` when owned, `&str` when
//! borrowed. A name known at compile time (`"text".into()`, a method's
//! `stringify!`) is stored without a heap copy, and encodes to the same
//! bytes as an owned one.
//!
//! Rust types convert to and from values with [`ToValue`] and
//! [`FromValue`]. Besides [`FromValue::from_value`], which takes an owned
//! [`Value`], every type has [`FromValue::from_value_in`], which converts
//! from a value *viewed* in either storage: the server hands each argument
//! to the application as the [`ValueRef`] it decoded, and a batch future
//! converts the value it stores without cloning it first. Its default
//! makes one owned copy; `String`, `Vec<u8>`, `Option<T>` and `Vec<T>`
//! override it to copy each payload once, straight into the result.
//!
//! Decoding is bounded: besides [`codec::MAX_LENGTH`] on every declared
//! length, `List` and `Record` values may nest at most
//! [`codec::MAX_DEPTH`] levels, so no frame can overflow the decoding
//! thread's stack ([`WireError::TooDeep`]).
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

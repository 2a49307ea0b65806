//! Runtime support for code generated by
//! [`remote_interface!`](crate::remote_interface).
//!
//! Nothing here is intended to be called by hand; the macro-generated
//! skeletons, stubs and loopback proxies use these helpers to convert
//! between wire values and typed signatures.

use std::sync::Arc;

use brmi_rmi::{CallCtx, InArg, Loopback, RemoteObject, RemoteRef};
use brmi_wire::{FromValue, InterfaceMeta, ObjectId, RemoteError, RemoteErrorKind, Value};

use crate::stub::{BatchStub, CursorHandle, RecordArg};

/// A typed stub or cursor usable as the `remote I` argument of a batched
/// call. Implemented by the generated `BFoo` and `CFoo` types for their
/// interface `Foo`; passing a cursor makes the call per-element
/// (paper Section 3.4).
pub trait BatchParam<I: ?Sized> {
    /// The recording representation of this argument.
    fn record_arg(&self) -> RecordArg;
}

/// Constructor for generated batch-interface types (`BFoo`).
pub trait BatchCtor {
    /// Wraps an untyped batch stub.
    fn from_stub(stub: BatchStub) -> Self;
}

/// Constructor for generated cursor types (`CFoo`).
pub trait CursorCtor {
    /// Wraps an untyped cursor handle.
    fn from_cursor(cursor: CursorHandle) -> Self;
}

/// Constructor for generated RMI stub types (`FooStub`).
pub trait StubCtor {
    /// Wraps a remote reference.
    fn from_remote_ref(reference: RemoteRef) -> Self;
}

/// Compile-time link from a remote interface `dyn Foo` to its generated
/// companion types and conversion glue. Implemented by
/// [`remote_interface!`](crate::remote_interface); generated code uses it
/// so that interfaces can reference each other without name mangling.
pub trait Companions {
    /// The batch interface type (`BFoo`).
    type Batch: BatchCtor;
    /// The cursor type (`CFoo`).
    type Cursor: CursorCtor;
    /// The RMI stub type (`FooStub`).
    type Stub: StubCtor;

    /// The interface's static method table: one [`MethodMeta`] per
    /// declared method, carrying name, `#[read_only]` mutability, arity
    /// and result kind.
    ///
    /// [`MethodMeta`]: brmi_wire::MethodMeta
    fn interface_meta() -> &'static InterfaceMeta;

    /// Wraps a service as a dispatchable remote object (its skeleton).
    fn skeleton_of(inner: Arc<Self>) -> Arc<dyn RemoteObject>;

    /// Builds a loopback proxy for a marshalled stub (RMI identity
    /// semantics, paper Section 4.4).
    fn loopback_proxy(id: ObjectId, loopback: Arc<dyn Loopback>) -> Arc<Self>;

    /// Recovers a typed service from a dispatched `remote I` argument.
    ///
    /// # Errors
    ///
    /// `BadArguments` when the argument is not (a reference to) an `I`.
    fn extract_arg(arg: &InArg<'_>, ctx: &CallCtx) -> Result<Arc<Self>, RemoteError>;
}

/// Converts a by-copy argument straight from its borrowed view, rejecting
/// remote objects.
///
/// # Errors
///
/// `BadArguments` when the argument is a remote object or fails typed
/// conversion.
pub fn value_arg<T: FromValue>(arg: &InArg<'_>) -> Result<T, RemoteError> {
    match arg {
        InArg::Value(value) => T::from_value_in(value),
        InArg::Remote(_) => Err(RemoteError::new(
            RemoteErrorKind::BadArguments,
            "expected a value argument, got a remote object",
        )),
    }
}

/// Unwraps a remote reference returned by a plain RMI call.
///
/// # Errors
///
/// A marshalling error when the value is not a reference.
pub fn expect_remote_ref(value: Value) -> Result<ObjectId, RemoteError> {
    match value {
        Value::RemoteRef(id) => Ok(id),
        other => Err(RemoteError::marshal(format!(
            "expected a remote reference, got {}",
            other.type_name()
        ))),
    }
}

/// Unwraps a list of remote references returned by a plain RMI call.
///
/// # Errors
///
/// A marshalling error when the value is not a list of references.
pub fn expect_ref_list(value: Value) -> Result<Vec<ObjectId>, RemoteError> {
    value
        .into_list()?
        .into_iter()
        .map(expect_remote_ref)
        .collect()
}

/// The id to marshal for a `remote I` argument travelling through a
/// loopback proxy.
///
/// # Errors
///
/// A marshalling error when the object is server-local (only objects that
/// arrived as references can be re-marshalled without an export table).
pub fn loopback_arg_id(id: Option<ObjectId>) -> Result<Value, RemoteError> {
    match id {
        Some(id) => Ok(Value::RemoteRef(id)),
        None => Err(RemoteError::marshal(
            "cannot marshal a server-local object through a loopback proxy",
        )),
    }
}

/// Downcast failure for a skeleton argument.
pub fn wrong_remote_type(expected: &str, got: &str) -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::BadArguments,
        format!("expected a remote {expected}, got {got}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::ValueRef;

    #[test]
    fn value_arg_converts() {
        let n: i32 = value_arg(&InArg::Value(ValueRef::I32(5))).unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn value_arg_rejects_mismatch() {
        let err = value_arg::<i32>(&InArg::Value(ValueRef::Str("x"))).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::BadArguments);
    }

    #[test]
    fn expect_remote_ref_unwraps() {
        assert_eq!(
            expect_remote_ref(Value::RemoteRef(ObjectId(4))).unwrap(),
            ObjectId(4)
        );
        assert!(expect_remote_ref(Value::I32(1)).is_err());
    }

    #[test]
    fn expect_ref_list_unwraps() {
        let list = Value::List(vec![
            Value::RemoteRef(ObjectId(1)),
            Value::RemoteRef(ObjectId(2)),
        ]);
        assert_eq!(
            expect_ref_list(list).unwrap(),
            vec![ObjectId(1), ObjectId(2)]
        );
        assert!(expect_ref_list(Value::Null).is_err());
        assert!(expect_ref_list(Value::List(vec![Value::I32(1)])).is_err());
    }

    #[test]
    fn loopback_arg_id_requires_identity() {
        assert_eq!(
            loopback_arg_id(Some(ObjectId(3))).unwrap(),
            Value::RemoteRef(ObjectId(3))
        );
        assert!(loopback_arg_id(None).is_err());
    }
}

//! The remote-object abstraction: what servers export and how calls reach it.
//!
//! In Java RMI a remote object is any class extending `UnicastRemoteObject`;
//! the runtime dispatches into it reflectively. Rust has no reflection, so
//! the dispatch glue is generated by the `remote_interface!` macro in the
//! `brmi` crate: every service gets a *skeleton* type implementing
//! [`RemoteObject`], which matches method names and converts arguments.

use std::any::Any;
use std::sync::Arc;

use brmi_wire::{MethodMeta, RemoteError, RemoteErrorKind, Value, ValueRef};

/// An argument as delivered to a skeleton.
///
/// Plain RMI calls deliver every argument as [`InArg::Value`]; remote
/// references stay as [`ValueRef::RemoteRef`] and the skeleton turns them
/// into loopback proxies — Java RMI's behaviour of marshalling a stub as
/// itself even when it returns home (paper Section 4.4). The batch executor
/// instead resolves references to earlier batch results *before* dispatch
/// and delivers [`InArg::Remote`], preserving object identity.
///
/// A value argument is the borrowed view the request decode already built:
/// its payloads are slices of the frame, and the skeleton converts it
/// straight to the parameter's Rust type with
/// [`FromValue::from_value_in`](brmi_wire::FromValue::from_value_in), so
/// each payload is copied at most once, into the argument itself.
#[derive(Clone)]
pub enum InArg<'a> {
    /// A marshalled value (possibly a remote reference id), borrowed from
    /// the request frame.
    Value(ValueRef<'a>),
    /// A server-local object, already resolved by the batch executor.
    Remote(Arc<dyn RemoteObject>),
}

impl std::fmt::Debug for InArg<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InArg::Value(v) => f.debug_tuple("Value").field(v).finish(),
            InArg::Remote(obj) => f
                .debug_tuple("Remote")
                .field(&obj.interface_name())
                .finish(),
        }
    }
}

/// A method result before marshalling.
///
/// Keeping remote results symbolic lets the two runtimes diverge exactly
/// where the paper says they must: the RMI server *exports* the object and
/// sends a reference (creating a stub), while the BRMI batch executor stores
/// the object in its local array and sends nothing (Section 4.4).
#[derive(Clone)]
pub enum OutValue {
    /// A plain value, passed by copy.
    Data(Value),
    /// A remote object produced by the call.
    Remote(Arc<dyn RemoteObject>),
    /// An array of remote objects (a cursor source in batch mode).
    RemoteList(Vec<Arc<dyn RemoteObject>>),
}

impl std::fmt::Debug for OutValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutValue::Data(v) => f.debug_tuple("Data").field(v).finish(),
            OutValue::Remote(obj) => f
                .debug_tuple("Remote")
                .field(&obj.interface_name())
                .finish(),
            OutValue::RemoteList(items) => f.debug_tuple("RemoteList").field(&items.len()).finish(),
        }
    }
}

/// Context a skeleton may need while dispatching one call.
///
/// Currently this carries the loopback invoker used to proxy remote-
/// reference arguments in plain RMI mode; generated proxies keep a clone of
/// it, so it is shared ownership rather than a borrow.
#[derive(Clone)]
pub struct CallCtx {
    /// Invoker for same-server calls made through a marshalled stub.
    pub loopback: Arc<dyn Loopback>,
}

impl std::fmt::Debug for CallCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallCtx").finish_non_exhaustive()
    }
}

/// Dispatches a call back into the local server, as a marshalled stub would.
///
/// Implemented by the RMI server; each call through it pays the configured
/// loopback cost, reproducing the performance penalty the paper measures
/// when RMI fails to preserve remote reference identity.
pub trait Loopback: Send + Sync {
    /// Invokes `method` on the exported object `target`.
    ///
    /// # Errors
    ///
    /// Returns any error the dispatched method produces, plus the usual
    /// middleware failures (`NoSuchObject`, `NoSuchMethod`, ...).
    fn invoke(
        &self,
        target: brmi_wire::ObjectId,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RemoteError>;
}

/// A dispatchable server-side object (the skeleton side of a service).
///
/// Implementations are generated by the `remote_interface!` macro; they wrap
/// an `Arc<dyn ServiceTrait>` and translate between wire values and typed
/// methods.
pub trait RemoteObject: Send + Sync + 'static {
    /// The interface this object implements, for diagnostics.
    fn interface_name(&self) -> &'static str;

    /// Dispatches one call. The arguments are only borrowed, so a caller
    /// may invoke again with the same slice (the batch executor's `Repeat`).
    ///
    /// # Errors
    ///
    /// Returns [`RemoteErrorKind::NoSuchMethod`] for unknown method names,
    /// [`RemoteErrorKind::BadArguments`] for arity or type mismatches, and
    /// whatever the application method itself raises.
    fn invoke(
        &self,
        method: &str,
        args: &[InArg<'_>],
        ctx: &CallCtx,
    ) -> Result<OutValue, RemoteError>;

    /// The compile-time descriptor of `method`, when this object's
    /// interface declares it.
    ///
    /// Generated skeletons override this with a lookup into their static
    /// `METHOD_META` table, giving the batch executor and exception
    /// policies one queryable surface for name, mutability and arity. The
    /// default — for hand-written objects — reports no metadata, which
    /// every consumer must treat as "assume a write".
    fn method_meta(&self, method: &str) -> Option<&'static MethodMeta> {
        let _ = method;
        None
    }

    /// Downcasting support so generated skeletons can recover their typed
    /// inner service from an `Arc<dyn RemoteObject>` (used by the batch
    /// executor to preserve reference identity).
    fn as_any(&self) -> &dyn Any;
}

/// Convenience: the error for a method name the skeleton does not know.
pub fn no_such_method(interface: &str, method: &str) -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::NoSuchMethod,
        format!("interface {interface} has no method {method}"),
    )
}

/// Convenience: the error for an argument-count mismatch.
pub fn bad_arity(method: &str, expected: usize, got: usize) -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::BadArguments,
        format!("method {method} expects {expected} arguments, got {got}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use brmi_wire::ObjectId;

    struct Dummy;

    impl RemoteObject for Dummy {
        fn interface_name(&self) -> &'static str {
            "dummy"
        }

        fn invoke(
            &self,
            method: &str,
            _args: &[InArg<'_>],
            _ctx: &CallCtx,
        ) -> Result<OutValue, RemoteError> {
            Err(no_such_method("dummy", method))
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn helper_errors_have_expected_kinds() {
        assert_eq!(
            no_such_method("i", "m").kind(),
            RemoteErrorKind::NoSuchMethod
        );
        assert_eq!(bad_arity("m", 2, 1).kind(), RemoteErrorKind::BadArguments);
        assert!(bad_arity("m", 2, 1).message().contains("expects 2"));
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let arg = InArg::Value(ValueRef::I32(1));
        assert!(!format!("{arg:?}").is_empty());
        let remote = InArg::Remote(Arc::new(Dummy));
        assert!(format!("{remote:?}").contains("dummy"));
        let out = OutValue::RemoteList(vec![Arc::new(Dummy)]);
        assert!(format!("{out:?}").contains("1"));
        let _ = format!("{:?}", OutValue::Data(Value::Null));
        let _ = format!("{:?}", OutValue::Remote(Arc::new(Dummy)));
        let _ = InArg::Value(ValueRef::RemoteRef(ObjectId(1))).clone();
    }
}

//! The naming registry, itself an ordinary remote object at
//! [`ObjectId::REGISTRY`] — just as the RMI registry is a remote object in
//! Java RMI.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use brmi_wire::protocol::registry_methods;
use brmi_wire::{ObjectId, RemoteError, RemoteErrorKind, Value, ValueRef};
use parking_lot::RwLock;

use crate::journal::{JournalCell, JournalRecord};
use crate::object::{bad_arity, no_such_method, CallCtx, InArg, OutValue, RemoteObject};

/// Name → object-id bindings served at the well-known registry id.
///
/// When the owning server has a durable journal attached, every successful
/// mutation (`bind`/`rebind`/`unbind`) is journaled so a restarted origin
/// recovers its name table. Mutations dispatched *inside* a keyed
/// execution are covered by that execution's journal record instead.
#[derive(Debug, Default)]
pub struct RegistryObject {
    bindings: RwLock<BTreeMap<String, ObjectId>>,
    journal: JournalCell,
}

impl RegistryObject {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(RegistryObject::default())
    }

    /// Wires the registry's mutation paths to `journal`.
    pub(crate) fn attach_journal(&self, journal: &Arc<crate::journal::Journal>) {
        self.journal.attach(journal);
    }

    /// All bindings, sorted by name — snapshot capture.
    pub(crate) fn export_bindings(&self) -> Vec<(String, ObjectId)> {
        self.bindings
            .read()
            .iter()
            .map(|(name, id)| (name.clone(), *id))
            .collect()
    }

    /// Binds `name` to `id` locally (server-side convenience).
    ///
    /// # Errors
    ///
    /// Fails with [`RemoteErrorKind::AlreadyBound`] when the name is taken.
    pub fn bind(&self, name: &str, id: ObjectId) -> Result<(), RemoteError> {
        {
            let mut bindings = self.bindings.write();
            if bindings.contains_key(name) {
                return Err(RemoteError::new(
                    RemoteErrorKind::AlreadyBound,
                    format!("name already bound: {name}"),
                ));
            }
            bindings.insert(name.to_owned(), id);
        }
        self.journal.record(|| JournalRecord::Bind {
            name: name.to_owned(),
            id,
        });
        Ok(())
    }

    /// Binds or replaces `name`.
    pub fn rebind(&self, name: &str, id: ObjectId) {
        self.bindings.write().insert(name.to_owned(), id);
        self.journal.record(|| JournalRecord::Rebind {
            name: name.to_owned(),
            id,
        });
    }

    /// Removes a binding.
    ///
    /// # Errors
    ///
    /// Fails with [`RemoteErrorKind::NotBound`] when the name is unknown.
    pub fn unbind(&self, name: &str) -> Result<(), RemoteError> {
        if self.bindings.write().remove(name).is_none() {
            return Err(not_bound(name));
        }
        self.journal.record(|| JournalRecord::Unbind {
            name: name.to_owned(),
        });
        Ok(())
    }

    /// Resolves a binding.
    ///
    /// # Errors
    ///
    /// Fails with [`RemoteErrorKind::NotBound`] when the name is unknown.
    pub fn lookup(&self, name: &str) -> Result<ObjectId, RemoteError> {
        self.bindings
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| not_bound(name))
    }

    /// All bound names, sorted.
    pub fn list(&self) -> Vec<String> {
        self.bindings.read().keys().cloned().collect()
    }
}

fn not_bound(name: &str) -> RemoteError {
    RemoteError::new(RemoteErrorKind::NotBound, format!("name not bound: {name}"))
}

fn str_arg<'a>(args: &[InArg<'a>], method: &str, index: usize) -> Result<&'a str, RemoteError> {
    match args.get(index) {
        Some(InArg::Value(ValueRef::Str(s))) => Ok(*s),
        _ => Err(RemoteError::new(
            RemoteErrorKind::BadArguments,
            format!("registry method {method} expects a string at position {index}"),
        )),
    }
}

fn ref_arg(args: &[InArg<'_>], method: &str, index: usize) -> Result<ObjectId, RemoteError> {
    match args.get(index) {
        Some(InArg::Value(ValueRef::RemoteRef(id))) => Ok(*id),
        _ => Err(RemoteError::new(
            RemoteErrorKind::BadArguments,
            format!("registry method {method} expects a remote reference at position {index}"),
        )),
    }
}

impl RemoteObject for RegistryObject {
    fn interface_name(&self) -> &'static str {
        "registry"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[InArg<'_>],
        _ctx: &CallCtx,
    ) -> Result<OutValue, RemoteError> {
        match method {
            registry_methods::LOOKUP => {
                if args.len() != 1 {
                    return Err(bad_arity(method, 1, args.len()));
                }
                let name = str_arg(args, method, 0)?;
                Ok(OutValue::Data(Value::RemoteRef(self.lookup(name)?)))
            }
            registry_methods::BIND => {
                if args.len() != 2 {
                    return Err(bad_arity(method, 2, args.len()));
                }
                let id = ref_arg(args, method, 1)?;
                let name = str_arg(args, method, 0)?;
                self.bind(name, id)?;
                Ok(OutValue::Data(Value::Null))
            }
            registry_methods::REBIND => {
                if args.len() != 2 {
                    return Err(bad_arity(method, 2, args.len()));
                }
                let id = ref_arg(args, method, 1)?;
                let name = str_arg(args, method, 0)?;
                self.rebind(name, id);
                Ok(OutValue::Data(Value::Null))
            }
            registry_methods::UNBIND => {
                if args.len() != 1 {
                    return Err(bad_arity(method, 1, args.len()));
                }
                let name = str_arg(args, method, 0)?;
                self.unbind(name)?;
                Ok(OutValue::Data(Value::Null))
            }
            registry_methods::LIST => {
                if !args.is_empty() {
                    return Err(bad_arity(method, 0, args.len()));
                }
                Ok(OutValue::Data(Value::List(
                    self.list().into_iter().map(Value::Str).collect(),
                )))
            }
            other => Err(no_such_method("registry", other)),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Loopback;

    struct NoLoopback;

    impl Loopback for NoLoopback {
        fn invoke(
            &self,
            _target: ObjectId,
            _method: &str,
            _args: Vec<Value>,
        ) -> Result<Value, RemoteError> {
            unreachable!("registry never loops back")
        }
    }

    fn ctx_call(
        registry: &RegistryObject,
        method: &str,
        args: &[InArg<'_>],
    ) -> Result<OutValue, RemoteError> {
        registry.invoke(
            method,
            args,
            &CallCtx {
                loopback: Arc::new(NoLoopback),
            },
        )
    }

    #[test]
    fn bind_then_lookup() {
        let registry = RegistryObject::new();
        registry.bind("files", ObjectId(5)).unwrap();
        assert_eq!(registry.lookup("files").unwrap(), ObjectId(5));
    }

    #[test]
    fn double_bind_fails() {
        let registry = RegistryObject::new();
        registry.bind("x", ObjectId(1)).unwrap();
        let err = registry.bind("x", ObjectId(2)).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::AlreadyBound);
        // The original binding is untouched.
        assert_eq!(registry.lookup("x").unwrap(), ObjectId(1));
    }

    #[test]
    fn rebind_replaces() {
        let registry = RegistryObject::new();
        registry.bind("x", ObjectId(1)).unwrap();
        registry.rebind("x", ObjectId(2));
        assert_eq!(registry.lookup("x").unwrap(), ObjectId(2));
    }

    #[test]
    fn unbind_and_missing_lookups() {
        let registry = RegistryObject::new();
        registry.bind("x", ObjectId(1)).unwrap();
        registry.unbind("x").unwrap();
        assert_eq!(
            registry.lookup("x").unwrap_err().kind(),
            RemoteErrorKind::NotBound
        );
        assert_eq!(
            registry.unbind("x").unwrap_err().kind(),
            RemoteErrorKind::NotBound
        );
    }

    #[test]
    fn list_is_sorted() {
        let registry = RegistryObject::new();
        registry.bind("zeta", ObjectId(1)).unwrap();
        registry.bind("alpha", ObjectId(2)).unwrap();
        assert_eq!(registry.list(), vec!["alpha".to_owned(), "zeta".to_owned()]);
    }

    #[test]
    fn invoke_lookup_returns_remote_ref() {
        let registry = RegistryObject::new();
        registry.bind("svc", ObjectId(9)).unwrap();
        let out = ctx_call(
            &registry,
            registry_methods::LOOKUP,
            &[InArg::Value(ValueRef::Str("svc"))],
        )
        .unwrap();
        match out {
            OutValue::Data(Value::RemoteRef(id)) => assert_eq!(id, ObjectId(9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invoke_bind_unbind_list() {
        let registry = RegistryObject::new();
        ctx_call(
            &registry,
            registry_methods::BIND,
            &[
                InArg::Value(ValueRef::Str("a")),
                InArg::Value(ValueRef::RemoteRef(ObjectId(3))),
            ],
        )
        .unwrap();
        let out = ctx_call(&registry, registry_methods::LIST, &[]).unwrap();
        match out {
            OutValue::Data(Value::List(items)) => {
                assert_eq!(items, vec![Value::Str("a".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
        ctx_call(
            &registry,
            registry_methods::UNBIND,
            &[InArg::Value(ValueRef::Str("a"))],
        )
        .unwrap();
        assert!(registry.list().is_empty());
    }

    #[test]
    fn invoke_rejects_bad_arity_and_types() {
        let registry = RegistryObject::new();
        let err = ctx_call(&registry, registry_methods::LOOKUP, &[]).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::BadArguments);
        let err = ctx_call(
            &registry,
            registry_methods::LOOKUP,
            &[InArg::Value(ValueRef::I32(3))],
        )
        .unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::BadArguments);
        let err = ctx_call(&registry, "bogus", &[]).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::NoSuchMethod);
    }
}

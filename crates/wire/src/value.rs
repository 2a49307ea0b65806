//! The self-describing data model that crosses the wire.
//!
//! [`Value`] plays the role Java serialization plays for RMI: every method
//! argument and return value is converted to a `Value` before transmission.
//! Remote references travel as [`Value::RemoteRef`]; everything else is
//! passed by copy, matching RMI's split between `Remote` and `Serializable`
//! parameters.

use std::borrow::Cow;
use std::fmt;
use std::marker::PhantomData;

use crate::error::{RemoteError, RemoteErrorKind};

/// Identifies an exported remote object within one server.
///
/// Object id `0` is reserved for the server's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The well-known id of the server-side registry object.
    pub const REGISTRY: ObjectId = ObjectId(0);
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// How a wire type stores its string and byte payloads.
///
/// The request model ([`ValueIn`] and the batch types built on it) is
/// written once over this parameter. [`Owned`] storage copies payloads out
/// of the frame into `String`/`Vec<u8>`; [`Borrowed`] storage keeps them as
/// slices of the frame buffer — the server dispatch path's zero-copy form.
/// The payload bounds let every form derive `Debug`, `Clone` and
/// `PartialEq`.
pub trait Repr {
    /// A UTF-8 string payload (`Str` values).
    type Str: AsRef<str> + Clone + fmt::Debug + PartialEq;
    /// An opaque byte payload.
    type Bytes: AsRef<[u8]> + Clone + fmt::Debug + PartialEq;
    /// A name: a record field name or a method name. Owned names are a
    /// `Cow<'static, str>`, so a name known at compile time (`"text"`, a
    /// `stringify!`d method) is stored without a heap copy; names decoded
    /// from a frame are `Cow::Owned`. Both encode the same bytes.
    type Name: AsRef<str> + Clone + fmt::Debug + PartialEq;
}

/// Owned storage: payloads live in `String` and `Vec<u8>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owned;

/// Borrowed storage: payloads are `&'a str` and `&'a [u8]` slices of the
/// byte buffer the value was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Borrowed<'a>(PhantomData<&'a [u8]>);

impl Repr for Owned {
    type Str = String;
    type Bytes = Vec<u8>;
    type Name = Cow<'static, str>;
}

impl<'a> Repr for Borrowed<'a> {
    type Str = &'a str;
    type Bytes = &'a [u8];
    type Name = &'a str;
}

/// A wire-transmissible value, over payload storage `R`.
///
/// The model is deliberately small: enough to express the paper's case
/// studies (strings, numbers, dates, byte blobs, arrays, records) plus
/// remote references. Application code sees the owned form, [`Value`];
/// the server dispatch path decodes the borrowed form, [`ValueRef`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValueIn<R: Repr> {
    /// Absence of a value; also the return "value" of `void` methods.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 32-bit signed integer.
    I32(i32),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A UTF-8 string, passed by copy.
    Str(R::Str),
    /// An opaque byte blob (file contents, serialized payloads).
    Bytes(R::Bytes),
    /// A timestamp in milliseconds since the Unix epoch (Java `Date`).
    Date(i64),
    /// An ordered list of values.
    List(Vec<ValueIn<R>>),
    /// A record: ordered field name/value pairs (a struct by copy).
    Record(Vec<(R::Name, ValueIn<R>)>),
    /// A reference to a remote object exported by the peer.
    RemoteRef(ObjectId),
}

/// An owned wire value: what every method argument and return value is
/// converted to before transmission.
pub type Value = ValueIn<Owned>;

/// A borrowed view of a wire value: the zero-copy decode fast path.
///
/// Decoding an owned [`Value`] copies every `Str`/`Bytes` payload (and every
/// record field name) out of the frame. On the server dispatch path those
/// copies are pure overhead — the frame buffer outlives dispatch — so the
/// hot path decodes a `ValueRef` and hands it to the application as is:
/// each argument converts straight to its Rust type with
/// [`FromValue::from_value_in`], copying only what that type keeps. Both
/// forms share one decoder, [`ValueIn::decode`].
///
/// Lifetime contract: a `ValueRef<'a>` borrows the byte buffer it was
/// decoded from and must not outlive it. Keep the frame buffer alive for
/// the whole dispatch, then let both go together.
pub type ValueRef<'a> = ValueIn<Borrowed<'a>>;

impl<R: Repr> ValueIn<R> {
    /// A short name for the value's variant, used in conversion errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            ValueIn::Null => "null",
            ValueIn::Bool(_) => "bool",
            ValueIn::I32(_) => "i32",
            ValueIn::I64(_) => "i64",
            ValueIn::F64(_) => "f64",
            ValueIn::Str(_) => "string",
            ValueIn::Bytes(_) => "bytes",
            ValueIn::Date(_) => "date",
            ValueIn::List(_) => "list",
            ValueIn::Record(_) => "record",
            ValueIn::RemoteRef(_) => "remote-ref",
        }
    }

    /// A deep owned copy of this value, whatever its storage.
    pub fn to_owned_value(&self) -> Value {
        match self {
            ValueIn::Null => Value::Null,
            ValueIn::Bool(b) => Value::Bool(*b),
            ValueIn::I32(n) => Value::I32(*n),
            ValueIn::I64(n) => Value::I64(*n),
            ValueIn::F64(x) => Value::F64(*x),
            ValueIn::Str(s) => Value::Str(s.as_ref().to_owned()),
            ValueIn::Bytes(b) => Value::Bytes(b.as_ref().to_vec()),
            ValueIn::Date(ms) => Value::Date(*ms),
            ValueIn::List(items) => Value::List(items.iter().map(Self::to_owned_value).collect()),
            ValueIn::Record(fields) => Value::Record(
                fields
                    .iter()
                    .map(|(name, value)| {
                        (Cow::Owned(name.as_ref().to_owned()), value.to_owned_value())
                    })
                    .collect(),
            ),
            ValueIn::RemoteRef(id) => Value::RemoteRef(*id),
        }
    }
}

impl Value {
    /// Counts the remote references contained in this value, recursively.
    ///
    /// The simulated network charges a per-reference marshalling cost, which
    /// is how the reproduction models RMI's stub-creation overhead
    /// (paper Section 5.3, Figure 9).
    pub fn count_remote_refs(&self) -> usize {
        match self {
            Value::RemoteRef(_) => 1,
            Value::List(items) => items.iter().map(Value::count_remote_refs).sum(),
            Value::Record(fields) => fields.iter().map(|(_, v)| v.count_remote_refs()).sum(),
            _ => 0,
        }
    }

    /// Returns the contained record fields, or a conversion error.
    pub fn into_record(self) -> Result<Vec<(Cow<'static, str>, Value)>, RemoteError> {
        match self {
            Value::Record(fields) => Ok(fields),
            other => Err(conversion_error("record", &other)),
        }
    }

    /// Returns the contained list items, or a conversion error.
    pub fn into_list(self) -> Result<Vec<Value>, RemoteError> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(conversion_error("list", &other)),
        }
    }
}

impl ValueRef<'_> {
    /// Converts the borrowed view into an owned [`Value`], copying the
    /// borrowed payloads.
    pub fn into_owned(self) -> Value {
        self.to_owned_value()
    }
}

impl Value {
    /// A borrowed view of this value: `Str`/`Bytes` payloads become slices
    /// into `self`. Bridges owned frames onto the borrowed dispatch path
    /// without copying payloads (compound values still allocate their
    /// spine).
    pub fn to_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::I32(n) => ValueRef::I32(*n),
            Value::I64(n) => ValueRef::I64(*n),
            Value::F64(x) => ValueRef::F64(*x),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
            Value::Date(ms) => ValueRef::Date(*ms),
            Value::List(items) => ValueRef::List(items.iter().map(Value::to_ref).collect()),
            Value::Record(fields) => ValueRef::Record(
                fields
                    .iter()
                    .map(|(name, value)| (name.as_ref(), value.to_ref()))
                    .collect(),
            ),
            Value::RemoteRef(id) => ValueRef::RemoteRef(*id),
        }
    }
}

fn conversion_error<R: Repr>(expected: &str, got: &ValueIn<R>) -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::BadArguments,
        format!("expected {expected}, got {}", got.type_name()),
    )
}

/// Conversion of a Rust type into a wire [`Value`].
///
/// Implemented for primitives, strings, byte vectors, `Option`, `Vec` and
/// tuples; application "serializable" types implement it to act like Java
/// `Serializable` classes.
pub trait ToValue {
    /// Converts `self` into a wire value.
    fn to_value(&self) -> Value;

    /// Converts an owned `self` into a wire value.
    ///
    /// The default delegates to [`ToValue::to_value`], which is free for
    /// `Copy` types but clones owned buffers; `String`, `Vec<u8>` and the
    /// container impls override it to *move* their storage into the value,
    /// so marshalling an owned argument costs no copy before the encoder's.
    fn into_value(self) -> Value
    where
        Self: Sized,
    {
        self.to_value()
    }
}

/// Conversion of a wire [`Value`] back into a Rust type.
///
/// # Errors
///
/// Implementations return a [`RemoteError`] of kind
/// [`RemoteErrorKind::BadArguments`] when the value has the wrong shape.
pub trait FromValue: Sized {
    /// Converts a wire value into `Self`.
    fn from_value(value: Value) -> Result<Self, RemoteError>;

    /// Converts a value *viewed* in any storage — a future's stored owned
    /// [`Value`], or a [`ValueRef`] borrowed from a request frame — without
    /// taking it.
    ///
    /// The default makes one owned copy and calls
    /// [`FromValue::from_value`]. Types that keep only part of the value,
    /// or can copy straight out of a borrowed payload, override it:
    /// `String`, `Vec<u8>`, `Option<T>` and `Vec<T>` here copy each payload
    /// once, into the result. An override must agree with `from_value`:
    /// the same `Ok` value, or an error of the same kind.
    fn from_value_in<R: Repr>(value: &ValueIn<R>) -> Result<Self, RemoteError> {
        Self::from_value(value.to_owned_value())
    }
}

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn into_value(self) -> Value {
        self
    }
}

impl FromValue for Value {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        Ok(value)
    }
}

impl ToValue for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl FromValue for () {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::Null => Ok(()),
            other => Err(conversion_error("null", &other)),
        }
    }
}

impl ToValue for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromValue for bool {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::Bool(b) => Ok(b),
            other => Err(conversion_error("bool", &other)),
        }
    }
}

impl ToValue for i32 {
    fn to_value(&self) -> Value {
        Value::I32(*self)
    }
}

impl FromValue for i32 {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::I32(n) => Ok(n),
            other => Err(conversion_error("i32", &other)),
        }
    }
}

impl ToValue for i64 {
    fn to_value(&self) -> Value {
        Value::I64(*self)
    }
}

impl FromValue for i64 {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::I64(n) => Ok(n),
            // Widening an i32 is always safe and lets servers return the
            // narrower type where convenient.
            Value::I32(n) => Ok(i64::from(n)),
            other => Err(conversion_error("i64", &other)),
        }
    }
}

impl ToValue for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromValue for f64 {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::F64(x) => Ok(x),
            other => Err(conversion_error("f64", &other)),
        }
    }
}

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn into_value(self) -> Value {
        Value::Str(self)
    }
}

impl FromValue for String {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::Str(s) => Ok(s),
            other => Err(conversion_error("string", &other)),
        }
    }

    fn from_value_in<R: Repr>(value: &ValueIn<R>) -> Result<Self, RemoteError> {
        match value {
            ValueIn::Str(s) => Ok(s.as_ref().to_owned()),
            other => Err(conversion_error("string", other)),
        }
    }
}

impl ToValue for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_owned())
    }
}

impl ToValue for Vec<u8> {
    fn to_value(&self) -> Value {
        Value::Bytes(self.clone())
    }

    fn into_value(self) -> Value {
        Value::Bytes(self)
    }
}

impl FromValue for Vec<u8> {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::Bytes(b) => Ok(b),
            other => Err(conversion_error("bytes", &other)),
        }
    }

    fn from_value_in<R: Repr>(value: &ValueIn<R>) -> Result<Self, RemoteError> {
        match value {
            ValueIn::Bytes(b) => Ok(b.as_ref().to_vec()),
            other => Err(conversion_error("bytes", other)),
        }
    }
}

impl<T: ToValue> ToValue for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }

    fn into_value(self) -> Value {
        match self {
            Some(v) => v.into_value(),
            None => Value::Null,
        }
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_value_in<R: Repr>(value: &ValueIn<R>) -> Result<Self, RemoteError> {
        match value {
            ValueIn::Null => Ok(None),
            other => T::from_value_in(other).map(Some),
        }
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        Value::List(self.iter().map(ToValue::to_value).collect())
    }

    fn into_value(self) -> Value {
        Value::List(self.into_iter().map(ToValue::into_value).collect())
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        value.into_list()?.into_iter().map(T::from_value).collect()
    }

    fn from_value_in<R: Repr>(value: &ValueIn<R>) -> Result<Self, RemoteError> {
        match value {
            ValueIn::List(items) => items.iter().map(T::from_value_in).collect(),
            other => Err(conversion_error("list", other)),
        }
    }
}

impl<A: ToValue, B: ToValue> ToValue for (A, B) {
    fn to_value(&self) -> Value {
        Value::List(vec![self.0.to_value(), self.1.to_value()])
    }

    fn into_value(self) -> Value {
        Value::List(vec![self.0.into_value(), self.1.into_value()])
    }
}

impl<A: FromValue, B: FromValue> FromValue for (A, B) {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        let mut items = value.into_list()?;
        if items.len() != 2 {
            return Err(RemoteError::new(
                RemoteErrorKind::BadArguments,
                format!("expected 2-tuple, got {} items", items.len()),
            ));
        }
        let b = B::from_value(items.pop().expect("len checked"))?;
        let a = A::from_value(items.pop().expect("len checked"))?;
        Ok((a, b))
    }
}

/// A timestamp in milliseconds since the Unix epoch.
///
/// Mirrors `java.util.Date` in the paper's file-server example, where batch
/// clients compare file modification dates against a cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DateMillis(pub i64);

impl DateMillis {
    /// Returns true when `self` is strictly earlier than `other`.
    pub fn before(self, other: DateMillis) -> bool {
        self.0 < other.0
    }

    /// Returns true when `self` is strictly later than `other`.
    pub fn after(self, other: DateMillis) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for DateMillis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl ToValue for DateMillis {
    fn to_value(&self) -> Value {
        Value::Date(self.0)
    }
}

impl FromValue for DateMillis {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        match value {
            Value::Date(ms) => Ok(DateMillis(ms)),
            other => Err(conversion_error("date", &other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert!(bool::from_value(true.to_value()).unwrap());
        assert_eq!(i32::from_value(42.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(7i64.to_value()).unwrap(), 7);
        assert_eq!(f64::from_value(1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value("hi".to_value()).unwrap(),
            "hi".to_owned()
        );
        assert_eq!(<()>::from_value(().to_value()).unwrap(), ());
        assert_eq!(
            Vec::<u8>::from_value(vec![1u8, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn i64_accepts_widened_i32() {
        assert_eq!(i64::from_value(Value::I32(-5)).unwrap(), -5);
    }

    #[test]
    fn option_round_trips() {
        assert_eq!(Option::<i32>::from_value(Value::Null).unwrap(), None);
        assert_eq!(
            Option::<i32>::from_value(Some(3).to_value()).unwrap(),
            Some(3)
        );
        assert_eq!(None::<i32>.to_value(), Value::Null);
    }

    #[test]
    fn vec_round_trips() {
        let v = vec!["a".to_owned(), "b".to_owned()];
        assert_eq!(Vec::<String>::from_value(v.to_value()).unwrap(), v);
    }

    #[test]
    fn tuple_round_trips() {
        let t = (3i32, "x".to_owned());
        assert_eq!(<(i32, String)>::from_value(t.to_value()).unwrap(), t);
    }

    #[test]
    fn tuple_wrong_arity_is_rejected() {
        let err = <(i32, String)>::from_value(Value::List(vec![Value::I32(1)])).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::BadArguments);
    }

    #[test]
    fn conversion_mismatch_reports_both_types() {
        let err = i32::from_value(Value::Str("x".into())).unwrap_err();
        assert!(err.message().contains("expected i32"));
        assert!(err.message().contains("got string"));
    }

    #[test]
    fn date_comparisons() {
        let early = DateMillis(100);
        let late = DateMillis(200);
        assert!(early.before(late));
        assert!(late.after(early));
        assert!(!early.before(early));
        assert_eq!(DateMillis::from_value(early.to_value()).unwrap(), early);
    }

    #[test]
    fn count_remote_refs_recurses() {
        let v = Value::List(vec![
            Value::RemoteRef(ObjectId(1)),
            Value::Record(vec![
                ("a".into(), Value::RemoteRef(ObjectId(2))),
                ("b".into(), Value::I32(3)),
            ]),
            Value::Str("x".into()),
        ]);
        assert_eq!(v.count_remote_refs(), 2);
        assert_eq!(Value::Null.count_remote_refs(), 0);
    }

    #[test]
    fn into_value_moves_owned_buffers() {
        let s = String::from("owned");
        let ptr = s.as_ptr();
        match s.into_value() {
            Value::Str(back) => assert_eq!(back.as_ptr(), ptr, "string must move, not copy"),
            other => panic!("expected Str, got {other:?}"),
        }
        let b = vec![1u8, 2, 3];
        let ptr = b.as_ptr();
        match b.into_value() {
            Value::Bytes(back) => assert_eq!(back.as_ptr(), ptr, "bytes must move, not copy"),
            other => panic!("expected Bytes, got {other:?}"),
        }
    }

    #[test]
    fn into_value_matches_to_value_for_containers() {
        let v = vec![Some("a".to_owned()), None];
        assert_eq!(v.to_value(), v.into_value());
        let t = (1i32, "x".to_owned());
        assert_eq!(t.to_value(), t.into_value());
    }

    #[test]
    fn value_ref_round_trips_through_to_ref() {
        let v = Value::Record(vec![
            ("name".into(), Value::Str("index.html".into())),
            ("data".into(), Value::Bytes(vec![1, 2, 3])),
            (
                "refs".into(),
                Value::List(vec![Value::RemoteRef(ObjectId(4))]),
            ),
        ]);
        assert_eq!(v.to_ref().into_owned(), v);
    }

    #[test]
    fn value_ref_borrows_without_copying() {
        let v = Value::Str("borrowed".into());
        match v.to_ref() {
            ValueRef::Str(s) => {
                let Value::Str(owned) = &v else {
                    unreachable!()
                };
                assert_eq!(s.as_ptr(), owned.as_ptr());
            }
            other => panic!("expected Str, got {other:?}"),
        }
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId(7).to_string(), "obj#7");
        assert_eq!(ObjectId::REGISTRY, ObjectId(0));
    }

    #[test]
    fn type_names_cover_all_variants() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::I32(1),
            Value::I64(1),
            Value::F64(1.0),
            Value::Str(String::new()),
            Value::Bytes(vec![]),
            Value::Date(0),
            Value::List(vec![]),
            Value::Record(vec![]),
            Value::RemoteRef(ObjectId(1)),
        ];
        let names: Vec<_> = values.iter().map(|v| v.type_name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "type names must be distinct");
    }
}

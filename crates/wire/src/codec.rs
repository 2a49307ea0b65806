//! Binary encoding of the wire data model.
//!
//! The codec is hand-rolled because it is itself a measured artifact: the
//! benchmarks charge network time proportional to the bytes this module
//! produces, so the encoding must be compact and deterministic.
//!
//! Layout conventions:
//!
//! * integers — LEB128 varints, zig-zag encoded when signed;
//! * strings / byte blobs — varint length prefix, then raw bytes;
//! * compound values — a one-byte tag, then fields in order.

use std::borrow::Cow;

use crate::error::WireError;
use crate::value::{Borrowed, Owned, Repr};

/// Upper bound on any declared length, to stop hostile frames from causing
/// huge allocations.
pub const MAX_LENGTH: u64 = 64 * 1024 * 1024;

/// Upper bound on how deeply `List` and `Record` values may nest in one
/// decode. The value decoder recurses once per level, and a frame of up to
/// 64 MiB could otherwise declare millions of levels: running out of stack
/// aborts the whole process, so a hostile peer could take down every
/// connection with one frame. Past this depth decoding fails with
/// [`WireError::TooDeep`] instead.
///
/// The deepest value any in-tree application or test builds nests 4 levels
/// (the property tests' recursive value strategy); 64 leaves a wide margin
/// and costs well under a page of stack per level.
pub const MAX_DEPTH: usize = 64;

/// How the codec writes integers (lengths, ids, signed values).
///
/// The default is LEB128 varints. The fixed-width mode exists for the
/// codec ablation (`ablation_codec` in `brmi-bench`'s figures): Java
/// serialization writes fixed-width ints, and the ablation measures what
/// that costs in bytes — and hence transmission time — on the paper's
/// workloads. Both ends of a connection must agree on the width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntWidth {
    /// LEB128 varints, zig-zag for signed values (the wire default).
    #[default]
    Varint,
    /// Every integer as 8 little-endian bytes (Java-serialization-like).
    Fixed8,
}

/// An append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    width: IntWidth,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an empty encoder writing integers at the given width.
    pub fn with_width(width: IntWidth) -> Self {
        Encoder {
            buf: Vec::new(),
            width,
        }
    }

    /// Creates an encoder over an existing buffer, clearing it first.
    ///
    /// The buffer's capacity is kept, so batch senders that encode into the
    /// same buffer on every flush amortize the allocation to zero after the
    /// first frame. Take the bytes back with [`Encoder::into_bytes`] or read
    /// them in place via [`Encoder::as_slice`].
    pub fn with_buffer(buf: Vec<u8>) -> Self {
        Encoder::with_buffer_and_width(buf, IntWidth::Varint)
    }

    /// As [`Encoder::with_buffer`], at the given integer width.
    pub fn with_buffer_and_width(mut buf: Vec<u8>, width: IntWidth) -> Self {
        buf.clear();
        Encoder { buf, width }
    }

    /// Clears the written bytes for reuse, keeping capacity and width.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single raw byte.
    pub fn put_u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Writes an unsigned integer at the encoder's [`IntWidth`]
    /// (LEB128 varint by default).
    pub fn put_varint(&mut self, mut n: u64) {
        match self.width {
            IntWidth::Varint => loop {
                let low = (n & 0x7f) as u8;
                n >>= 7;
                if n == 0 {
                    self.buf.push(low);
                    return;
                }
                self.buf.push(low | 0x80);
            },
            IntWidth::Fixed8 => self.buf.extend_from_slice(&n.to_le_bytes()),
        }
    }

    /// Writes a signed integer (zig-zag + LEB128 by default, raw 8 bytes
    /// in fixed-width mode).
    pub fn put_signed(&mut self, n: i64) {
        match self.width {
            IntWidth::Varint => self.put_varint(zigzag_encode(n)),
            IntWidth::Fixed8 => self.buf.extend_from_slice(&n.to_le_bytes()),
        }
    }

    /// Writes an `f64` as its 8 IEEE-754 bytes, little-endian.
    pub fn put_f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, b: bool) {
        self.buf.push(u8::from(b));
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A cursor-style decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
    width: IntWidth,
    /// `List`/`Record` levels currently open, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Decoder::with_width(input, IntWidth::Varint)
    }

    /// Creates a decoder reading integers at the given width.
    pub fn with_width(input: &'a [u8], width: IntWidth) -> Self {
        Decoder {
            input,
            pos: 0,
            width,
            depth: 0,
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless all input is consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Reads one raw byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        let byte = *self
            .input
            .get(self.pos)
            .ok_or(WireError::UnexpectedEof { context })?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads an unsigned integer at the decoder's [`IntWidth`].
    pub fn take_varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        match self.width {
            IntWidth::Varint => {
                let mut result: u64 = 0;
                let mut shift = 0u32;
                loop {
                    let byte = self.take_u8(context)?;
                    if shift >= 64 {
                        return Err(WireError::VarintOverflow);
                    }
                    let low = u64::from(byte & 0x7f);
                    if shift == 63 && low > 1 {
                        return Err(WireError::VarintOverflow);
                    }
                    result |= low << shift;
                    if byte & 0x80 == 0 {
                        return Ok(result);
                    }
                    shift += 7;
                }
            }
            IntWidth::Fixed8 => {
                if self.remaining() < 8 {
                    return Err(WireError::UnexpectedEof { context });
                }
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&self.input[self.pos..self.pos + 8]);
                self.pos += 8;
                Ok(u64::from_le_bytes(raw))
            }
        }
    }

    /// Reads an unsigned integer that must fit 32 bits (sequence numbers,
    /// indexes, counts), failing with [`WireError::VarintOverflow`] above
    /// `u32::MAX` instead of truncating.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        u32::try_from(self.take_varint(context)?).map_err(|_| WireError::VarintOverflow)
    }

    /// Reads a signed integer at the decoder's [`IntWidth`].
    pub fn take_signed(&mut self, context: &'static str) -> Result<i64, WireError> {
        match self.width {
            IntWidth::Varint => Ok(zigzag_decode(self.take_varint(context)?)),
            IntWidth::Fixed8 => {
                if self.remaining() < 8 {
                    return Err(WireError::UnexpectedEof { context });
                }
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&self.input[self.pos..self.pos + 8]);
                self.pos += 8;
                Ok(i64::from_le_bytes(raw))
            }
        }
    }

    /// Reads an `f64` from 8 little-endian bytes.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::UnexpectedEof { context });
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.input[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_le_bytes(raw))
    }

    /// Reads a boolean byte; any nonzero value is `true`.
    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        Ok(self.take_u8(context)? != 0)
    }

    /// Reads a length-prefixed byte slice.
    pub fn take_bytes(&mut self, context: &'static str) -> Result<Vec<u8>, WireError> {
        Ok(self.take_bytes_ref(context)?.to_vec())
    }

    /// Reads a length-prefixed byte slice *borrowed from the input frame* —
    /// the zero-copy fast path. The returned slice lives as long as the
    /// input, independent of the decoder.
    pub fn take_bytes_ref(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.take_length(context)?;
        if self.remaining() < len {
            return Err(WireError::UnexpectedEof { context });
        }
        let bytes = &self.input[self.pos..self.pos + len];
        self.pos += len;
        Ok(bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self, context: &'static str) -> Result<String, WireError> {
        Ok(self.take_str_ref(context)?.to_owned())
    }

    /// Reads a length-prefixed UTF-8 string *borrowed from the input frame*
    /// (validated in place, no heap copy).
    pub fn take_str_ref(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.take_bytes_ref(context)?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a length-prefixed sequence, one `item` per element. The
    /// declared count presizes the vector only up to 1024 items, so a
    /// hostile length cannot force a huge allocation up front. Inlined: left
    /// to the compiler, the borrowed request decode measured ~20 % slower.
    #[inline]
    pub(crate) fn take_vec<T>(
        &mut self,
        context: &'static str,
        mut item: impl FnMut(&mut Decoder<'a>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.take_length(context)?;
        let mut items = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Opens one `List`/`Record` level, failing with
    /// [`WireError::TooDeep`] once [`MAX_DEPTH`] levels are open. A
    /// decode that fails leaves its levels open; no decode resumes after
    /// an error, so the count never matters again. (A closure-taking
    /// `nested` helper measured ~7 % slower on the owned reply decode.)
    #[inline]
    pub(crate) fn enter(&mut self) -> Result<(), WireError> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        Ok(())
    }

    /// Closes the level the matching [`Decoder::enter`] opened.
    #[inline]
    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Reads an optional field: a `0` byte for `None`, or a `1` byte and
    /// then the `item`.
    #[inline]
    pub(crate) fn take_option<T>(
        &mut self,
        context: &'static str,
        item: impl FnOnce(&mut Decoder<'a>) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.take_u8(context)? {
            0 => Ok(None),
            1 => item(self).map(Some),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    /// Reads a varint length, enforcing [`MAX_LENGTH`].
    pub fn take_length(&mut self, context: &'static str) -> Result<usize, WireError> {
        let declared = self.take_varint(context)?;
        if declared > MAX_LENGTH {
            return Err(WireError::LengthLimitExceeded {
                declared,
                limit: MAX_LENGTH,
            });
        }
        Ok(declared as usize)
    }
}

fn zigzag_encode(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn zigzag_decode(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

/// A payload storage the decoder can fill from a frame that lives for
/// `'de`: the one difference between the owned and the borrowed decode of
/// every request type.
pub trait DecodeRepr<'de>: Repr {
    /// Reads a length-prefixed UTF-8 string.
    fn take_str(dec: &mut Decoder<'de>, context: &'static str) -> Result<Self::Str, WireError>;

    /// Reads a length-prefixed byte blob.
    fn take_bytes(dec: &mut Decoder<'de>, context: &'static str) -> Result<Self::Bytes, WireError>;

    /// Reads a length-prefixed name (a record field or a method name).
    fn take_name(dec: &mut Decoder<'de>, context: &'static str) -> Result<Self::Name, WireError>;
}

impl<'de> DecodeRepr<'de> for Owned {
    fn take_str(dec: &mut Decoder<'de>, context: &'static str) -> Result<String, WireError> {
        dec.take_str(context)
    }

    fn take_bytes(dec: &mut Decoder<'de>, context: &'static str) -> Result<Vec<u8>, WireError> {
        dec.take_bytes(context)
    }

    fn take_name(
        dec: &mut Decoder<'de>,
        context: &'static str,
    ) -> Result<Cow<'static, str>, WireError> {
        dec.take_str(context).map(Cow::Owned)
    }
}

impl<'de> DecodeRepr<'de> for Borrowed<'de> {
    fn take_str(dec: &mut Decoder<'de>, context: &'static str) -> Result<&'de str, WireError> {
        dec.take_str_ref(context)
    }

    fn take_bytes(dec: &mut Decoder<'de>, context: &'static str) -> Result<&'de [u8], WireError> {
        dec.take_bytes_ref(context)
    }

    fn take_name(dec: &mut Decoder<'de>, context: &'static str) -> Result<&'de str, WireError> {
        dec.take_str_ref(context)
    }
}

/// Anything that can write itself to an [`Encoder`] and read itself back.
pub trait WireCodec: Sized {
    /// Appends the wire form of `self` to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Reads one item from `dec`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Encodes `self` into `buf`, clearing it first but keeping its
    /// capacity — the scratch-buffer fast path for senders that encode a
    /// frame per flush into the same buffer.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.encode_into_with(buf, IntWidth::Varint);
    }

    /// As [`WireCodec::encode_into`], writing integers at the given width.
    fn encode_into_with(&self, buf: &mut Vec<u8>, width: IntWidth) {
        let mut enc = Encoder::with_buffer_and_width(std::mem::take(buf), width);
        self.encode(&mut enc);
        *buf = enc.into_bytes();
    }

    /// Decodes exactly one item from `bytes`, rejecting trailing garbage.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(bytes);
        let item = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(item)
    }

    /// Encodes `self` with the given integer width (codec ablation).
    fn to_wire_bytes_with(&self, width: IntWidth) -> Vec<u8> {
        let mut enc = Encoder::with_width(width);
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decodes one item written with the given integer width.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated, malformed, or
    /// was written at a different width.
    fn from_wire_bytes_with(bytes: &[u8], width: IntWidth) -> Result<Self, WireError> {
        let mut dec = Decoder::with_width(bytes, width);
        let item = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(item)
    }
}

mod value_codec {
    use super::*;
    use crate::value::{ObjectId, Value, ValueIn, ValueRef};

    // Tag bytes for Value variants. Stable wire contract; do not reorder.
    const TAG_NULL: u8 = 0;
    const TAG_BOOL: u8 = 1;
    const TAG_I32: u8 = 2;
    const TAG_I64: u8 = 3;
    const TAG_F64: u8 = 4;
    const TAG_STR: u8 = 5;
    const TAG_BYTES: u8 = 6;
    const TAG_DATE: u8 = 7;
    const TAG_LIST: u8 = 8;
    const TAG_RECORD: u8 = 9;
    const TAG_REMOTE: u8 = 10;

    impl WireCodec for Value {
        fn encode(&self, enc: &mut Encoder) {
            match self {
                Value::Null => enc.put_u8(TAG_NULL),
                Value::Bool(b) => {
                    enc.put_u8(TAG_BOOL);
                    enc.put_bool(*b);
                }
                Value::I32(n) => {
                    enc.put_u8(TAG_I32);
                    enc.put_signed(i64::from(*n));
                }
                Value::I64(n) => {
                    enc.put_u8(TAG_I64);
                    enc.put_signed(*n);
                }
                Value::F64(x) => {
                    enc.put_u8(TAG_F64);
                    enc.put_f64(*x);
                }
                Value::Str(s) => {
                    enc.put_u8(TAG_STR);
                    enc.put_str(s);
                }
                Value::Bytes(b) => {
                    enc.put_u8(TAG_BYTES);
                    enc.put_bytes(b);
                }
                Value::Date(ms) => {
                    enc.put_u8(TAG_DATE);
                    enc.put_signed(*ms);
                }
                Value::List(items) => {
                    enc.put_u8(TAG_LIST);
                    enc.put_varint(items.len() as u64);
                    for item in items {
                        item.encode(enc);
                    }
                }
                Value::Record(fields) => {
                    enc.put_u8(TAG_RECORD);
                    enc.put_varint(fields.len() as u64);
                    for (name, value) in fields {
                        enc.put_str(name);
                        value.encode(enc);
                    }
                }
                Value::RemoteRef(id) => {
                    enc.put_u8(TAG_REMOTE);
                    enc.put_varint(id.0);
                }
            }
        }

        fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
            // The inherent, storage-generic decoder below.
            Value::decode(dec)
        }
    }

    impl<R: Repr> ValueIn<R> {
        /// Decodes one value into storage `R`: owned copies for [`Value`],
        /// slices of the decoder's input for [`ValueRef`] (no per-payload
        /// heap copy). Both read the same wire format.
        ///
        /// # Errors
        ///
        /// Returns a [`WireError`] when the input is truncated or malformed.
        pub fn decode<'de>(dec: &mut Decoder<'de>) -> Result<Self, WireError>
        where
            R: DecodeRepr<'de>,
        {
            const CTX: &str = "value";
            let tag = dec.take_u8(CTX)?;
            Ok(match tag {
                TAG_NULL => ValueIn::Null,
                TAG_BOOL => ValueIn::Bool(dec.take_bool(CTX)?),
                TAG_I32 => {
                    let wide = dec.take_signed(CTX)?;
                    ValueIn::I32(i32::try_from(wide).map_err(|_| WireError::VarintOverflow)?)
                }
                TAG_I64 => ValueIn::I64(dec.take_signed(CTX)?),
                TAG_F64 => ValueIn::F64(dec.take_f64(CTX)?),
                TAG_STR => ValueIn::Str(R::take_str(dec, CTX)?),
                TAG_BYTES => ValueIn::Bytes(R::take_bytes(dec, CTX)?),
                TAG_DATE => ValueIn::Date(dec.take_signed(CTX)?),
                TAG_LIST => {
                    dec.enter()?;
                    let items = dec.take_vec(CTX, ValueIn::decode)?;
                    dec.leave();
                    ValueIn::List(items)
                }
                TAG_RECORD => {
                    dec.enter()?;
                    let fields = dec.take_vec(CTX, |dec| {
                        Ok((R::take_name(dec, CTX)?, ValueIn::decode(dec)?))
                    })?;
                    dec.leave();
                    ValueIn::Record(fields)
                }
                TAG_REMOTE => ValueIn::RemoteRef(ObjectId(dec.take_varint(CTX)?)),
                tag => return Err(WireError::UnknownTag { context: CTX, tag }),
            })
        }
    }

    impl<'a> ValueRef<'a> {
        /// Decodes exactly one borrowed value from `bytes`, rejecting
        /// trailing garbage.
        ///
        /// # Errors
        ///
        /// Returns a [`WireError`] when the input is truncated, malformed,
        /// or longer than one value.
        pub fn from_wire_bytes(bytes: &'a [u8]) -> Result<ValueRef<'a>, WireError> {
            let mut dec = Decoder::new(bytes);
            let value = ValueRef::decode(&mut dec)?;
            dec.finish()?;
            Ok(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ObjectId, Value, ValueRef};

    fn round_trip(v: &Value) -> Value {
        Value::from_wire_bytes(&v.to_wire_bytes()).expect("round trip")
    }

    #[test]
    fn varint_boundaries() {
        let cases = [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX];
        for n in cases {
            let mut enc = Encoder::new();
            enc.put_varint(n);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.take_varint("test").unwrap(), n);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn signed_boundaries() {
        let cases = [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -54321];
        for n in cases {
            let mut enc = Encoder::new();
            enc.put_signed(n);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.take_signed("test").unwrap(), n);
        }
    }

    #[test]
    fn small_ints_are_one_byte() {
        let mut enc = Encoder::new();
        enc.put_signed(5);
        assert_eq!(enc.len(), 1, "small ints should be compact");
    }

    #[test]
    fn varint_overflow_rejected() {
        // Eleven continuation bytes exceed 64 bits of payload.
        let bytes = [0xffu8; 11];
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            dec.take_varint("test").unwrap_err(),
            WireError::VarintOverflow
        );
    }

    #[test]
    fn u32_reads_reject_values_past_u32_max() {
        let mut enc = Encoder::new();
        enc.put_varint(u64::from(u32::MAX));
        enc.put_varint(u64::from(u32::MAX) + 1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u32("test").unwrap(), u32::MAX);
        assert_eq!(dec.take_u32("test").unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn value_round_trips() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I32(-7),
            Value::I32(i32::MAX),
            Value::I32(i32::MIN),
            Value::I64(i64::MIN),
            Value::F64(std::f64::consts::PI),
            Value::F64(-0.0),
            Value::Str("héllo wörld".into()),
            Value::Str(String::new()),
            Value::Bytes(vec![0, 255, 127]),
            Value::Date(1_700_000_000_000),
            Value::List(vec![Value::I32(1), Value::Str("x".into()), Value::Null]),
            Value::Record(vec![
                ("name".into(), Value::Str("index.html".into())),
                ("size".into(), Value::I64(1024)),
            ]),
            Value::RemoteRef(ObjectId(42)),
        ];
        for v in &values {
            assert_eq!(&round_trip(v), v);
        }
    }

    #[test]
    fn nested_value_round_trips() {
        let v = Value::List(vec![Value::Record(vec![(
            "files".into(),
            Value::List(vec![
                Value::RemoteRef(ObjectId(1)),
                Value::RemoteRef(ObjectId(2)),
            ]),
        )])]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = Value::Str("hello".into()).to_wire_bytes();
        let err = Value::from_wire_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = Value::from_wire_bytes(&[200]).unwrap_err();
        assert!(matches!(err, WireError::UnknownTag { tag: 200, .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Value::Null.to_wire_bytes();
        bytes.push(9);
        let err = Value::from_wire_bytes(&bytes).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn oversized_length_is_rejected() {
        // TAG_LIST with a declared length beyond MAX_LENGTH.
        let mut enc = Encoder::new();
        enc.put_u8(8);
        enc.put_varint(MAX_LENGTH + 1);
        let err = Value::from_wire_bytes(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::LengthLimitExceeded { .. }));
    }

    /// `depth` lists nested in each other around a `Null`: `08 01` per
    /// level, then `00`.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let mut bytes = [8u8, 1].repeat(depth);
        bytes.push(0);
        bytes
    }

    /// `depth` single-field records nested in each other around a `Null`.
    fn nested_records(depth: usize) -> Vec<u8> {
        let mut bytes = [9u8, 1, 1, b'f'].repeat(depth);
        bytes.push(0);
        bytes
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for nested in [nested_lists, nested_records] {
            for depth in [MAX_DEPTH - 1, MAX_DEPTH] {
                let bytes = nested(depth);
                let owned = Value::from_wire_bytes(&bytes).unwrap();
                assert_eq!(owned.to_wire_bytes(), bytes);
                assert_eq!(
                    ValueRef::from_wire_bytes(&bytes).unwrap().into_owned(),
                    owned
                );
            }
            let too_deep = nested(MAX_DEPTH + 1);
            let refused = WireError::TooDeep { limit: MAX_DEPTH };
            assert_eq!(Value::from_wire_bytes(&too_deep).unwrap_err(), refused);
            assert_eq!(ValueRef::from_wire_bytes(&too_deep).unwrap_err(), refused);
        }
    }

    #[test]
    fn sibling_values_do_not_add_up_to_the_depth() {
        let deep = Value::from_wire_bytes(&nested_lists(MAX_DEPTH)).unwrap();
        let wide = Value::List(vec![deep.clone(), deep]);
        let bytes = Value::List(vec![wide.clone(), wide]).to_wire_bytes();
        // Two levels above a MAX_DEPTH-deep value is too deep; the siblings
        // alone are not.
        assert_eq!(
            Value::from_wire_bytes(&bytes).unwrap_err(),
            WireError::TooDeep { limit: MAX_DEPTH }
        );
        let shallow = Value::from_wire_bytes(&nested_lists(MAX_DEPTH - 1)).unwrap();
        let siblings = Value::List(vec![shallow; 3]);
        assert_eq!(round_trip(&siblings), siblings);
    }

    #[test]
    fn hostile_deep_list_is_refused_not_a_stack_overflow() {
        let bytes = nested_lists(100_000);
        assert!(matches!(
            ValueRef::from_wire_bytes(&bytes).unwrap_err(),
            WireError::TooDeep { .. }
        ));
        assert!(matches!(
            Value::from_wire_bytes(&bytes).unwrap_err(),
            WireError::TooDeep { .. }
        ));
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(5); // TAG_STR
        enc.put_bytes(&[0xff, 0xfe]);
        let err = Value::from_wire_bytes(&enc.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8);
    }

    #[test]
    fn i32_wire_value_out_of_range_rejected() {
        // Hand-craft TAG_I32 carrying an i64-sized payload.
        let mut enc = Encoder::new();
        enc.put_u8(2); // TAG_I32
        enc.put_signed(i64::from(i32::MAX) + 1);
        let err = Value::from_wire_bytes(&enc.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::VarintOverflow);
    }

    #[test]
    fn fixed_width_round_trips_all_boundaries() {
        for n in [0u64, 1, 127, 128, u64::MAX] {
            let mut enc = Encoder::with_width(IntWidth::Fixed8);
            enc.put_varint(n);
            let bytes = enc.into_bytes();
            assert_eq!(bytes.len(), 8);
            let mut dec = Decoder::with_width(&bytes, IntWidth::Fixed8);
            assert_eq!(dec.take_varint("test").unwrap(), n);
            dec.finish().unwrap();
        }
        for n in [0i64, -1, i64::MIN, i64::MAX] {
            let mut enc = Encoder::with_width(IntWidth::Fixed8);
            enc.put_signed(n);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::with_width(&bytes, IntWidth::Fixed8);
            assert_eq!(dec.take_signed("test").unwrap(), n);
        }
    }

    #[test]
    fn fixed_width_values_round_trip_and_are_larger() {
        let v = Value::List(vec![
            Value::I32(1),
            Value::I64(2),
            Value::Str("abc".into()),
            Value::RemoteRef(ObjectId(3)),
        ]);
        let fixed = v.to_wire_bytes_with(IntWidth::Fixed8);
        assert_eq!(
            Value::from_wire_bytes_with(&fixed, IntWidth::Fixed8).unwrap(),
            v
        );
        assert!(
            fixed.len() > v.to_wire_bytes().len(),
            "fixed-width ints cost more bytes for small values"
        );
    }

    #[test]
    fn truncated_fixed_width_is_eof() {
        let mut dec = Decoder::with_width(&[1, 2, 3], IntWidth::Fixed8);
        assert!(matches!(
            dec.take_varint("test").unwrap_err(),
            WireError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn encoder_len_tracks_writes() {
        let mut enc = Encoder::new();
        assert!(enc.is_empty());
        enc.put_str("abc");
        assert_eq!(enc.len(), 4); // 1 length byte + 3 payload bytes
    }

    #[test]
    fn encoder_reset_matches_fresh_encoder() {
        let mut enc = Encoder::new();
        Value::Str("first".into()).encode(&mut enc);
        enc.reset();
        assert!(enc.is_empty());
        let v = Value::List(vec![Value::I32(9), Value::Bytes(vec![1, 2])]);
        v.encode(&mut enc);
        assert_eq!(enc.as_slice(), v.to_wire_bytes().as_slice());
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_fresh() {
        let v = Value::Str("payload".into());
        let mut buf = Value::Bytes(vec![0; 256]).to_wire_bytes();
        let capacity = buf.capacity();
        v.encode_into(&mut buf);
        assert_eq!(buf, v.to_wire_bytes());
        assert_eq!(buf.capacity(), capacity, "capacity must be kept");
    }

    #[test]
    fn borrowed_reads_match_owned_reads() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[1, 2, 3]);
        enc.put_str("héllo");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_bytes_ref("t").unwrap(), &[1, 2, 3]);
        assert_eq!(dec.take_str_ref("t").unwrap(), "héllo");
        dec.finish().unwrap();
    }

    #[test]
    fn borrowed_slice_outlives_decoder() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"still here");
        let bytes = enc.into_bytes();
        let slice = {
            let mut dec = Decoder::new(&bytes);
            dec.take_bytes_ref("t").unwrap()
        };
        assert_eq!(slice, b"still here");
    }

    #[test]
    fn borrowed_str_rejects_invalid_utf8() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_str_ref("t").unwrap_err(), WireError::InvalidUtf8);
    }
}

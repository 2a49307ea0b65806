//! Request/response frames exchanged between client and server.
//!
//! Every transport carries exactly these frames. Registry operations are
//! ordinary [`Frame::Call`]s on the well-known registry object
//! ([`ObjectId::REGISTRY`]), mirroring how the RMI registry is itself a
//! remote object.
//!
//! One request is one round trip, and it has one of three shapes: a
//! [`Frame::Call`], a [`Frame::BatchCall`], or a [`Frame::SuperBatchCall`]
//! of several batches. The two things that can be said *about* a request
//! are annotations on those shapes, not further shapes:
//!
//! * **The idempotency key is a field.** A call, a batch and every member
//!   of a super-batch carry `key: Option<IdemKey>`; tiers match the shape
//!   once and read the key where they need it. Only the codec knows that a
//!   keyed request travels under its own tag (13/14/15 beside 0/3/11) with
//!   the key spliced in after it, so the unkeyed encodings are unchanged.
//! * **The trace context is an envelope.** [`Frame::Traced`] wraps any
//!   frame, replies included. A tier peels it once at the top
//!   ([`Frame::split_trace`], [`FrameRef::split_trace`]), handles the bare
//!   frame, and re-wraps what it forwards and returns
//!   ([`Frame::with_trace`]).

use crate::codec::{DecodeRepr, Decoder, Encoder, IntWidth, WireCodec};
use crate::error::WireError;
use crate::invocation::{BatchRequest, BatchRequestIn, BatchResponse, ErrorEnvelope, SessionId};
use crate::value::{Borrowed, ObjectId, Owned, Repr, Value, ValueIn, ValueRef};

/// A client-generated idempotency key: `(client_id, seq)` names one logical
/// request, and `acked` piggybacks the client's acknowledgement watermark —
/// every `seq` below it has had its reply delivered, so the origin may drop
/// those cached replies.
///
/// A keyed request may be re-sent verbatim after a transport failure; the
/// origin's reply cache answers the repeat with the original reply instead
/// of re-executing (exactly-once *visible* semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdemKey {
    /// Process-unique client identity (one per key source, not per
    /// connection — reconnects keep the same id so retries still match).
    pub client_id: u64,
    /// Monotonic per-client sequence number.
    pub seq: u64,
    /// Acknowledgement watermark: all replies with `seq < acked` were
    /// delivered to the caller and may be evicted from the origin's cache.
    pub acked: u64,
}

impl WireCodec for IdemKey {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.client_id);
        enc.put_varint(self.seq);
        enc.put_varint(self.acked);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(IdemKey {
            client_id: dec.take_varint(CTX)?,
            seq: dec.take_varint(CTX)?,
            acked: dec.take_varint(CTX)?,
        })
    }
}

/// A compact trace context carried by a [`Frame::Traced`] envelope: the
/// observability layer's wire-propagated span identity.
///
/// `trace_id` names one end-to-end journey (a client flush and everything it
/// causes downstream); `span_id` names the sender's span within it; `parent`
/// is the span that caused this one (`0` for a root span). Each tier that
/// forwards a traced frame re-wraps it with its *own* span as the new
/// `span_id` and the received span as `parent`, so a test-side collector can
/// reassemble the client → relay → origin waterfall from the recorded spans
/// alone.
///
/// All three fields encode as varints, so a typical envelope costs a tag
/// byte plus three short varints — small enough to stay under the bench
/// suite's instrumentation-overhead budget on batched traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// End-to-end trace identity, minted once at the root tier.
    pub trace_id: u64,
    /// The sending tier's span within the trace.
    pub span_id: u64,
    /// The span that caused this one; `0` marks a root span.
    pub parent: u64,
}

impl WireCodec for TraceCtx {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.trace_id);
        enc.put_varint(self.span_id);
        enc.put_varint(self.parent);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(TraceCtx {
            trace_id: dec.take_varint(CTX)?,
            span_id: dec.take_varint(CTX)?,
            parent: dec.take_varint(CTX)?,
        })
    }
}

/// One recorded batch and the idempotency key it travels under, if any:
/// the payload of a [`Frame::BatchCall`] and of every member of a
/// [`Frame::SuperBatchCall`]. The key names *this* batch, so a relay may
/// regroup keyed batches across retries (singleton vs coalesced) without
/// confusing the origin's dedup. Generic over payload storage `R`; the key
/// is tiny and owned in both forms, only the batch payload borrows.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCallIn<R: Repr> {
    /// The idempotency key naming this batch; `None` keeps the
    /// at-most-once contract.
    pub key: Option<IdemKey>,
    /// The batch itself, executed the same with or without a key.
    pub request: BatchRequestIn<R>,
}

/// An owned batch call.
pub type BatchCall = BatchCallIn<Owned>;

/// Borrowed view of a [`BatchCall`]: call descriptors borrowed from the
/// frame buffer.
pub type BatchCallRef<'a> = BatchCallIn<Borrowed<'a>>;

impl From<BatchRequest> for BatchCall {
    /// An unkeyed batch call.
    fn from(request: BatchRequest) -> Self {
        BatchCall { key: None, request }
    }
}

impl BatchCall {
    /// A borrowed view of this call, bridging owned frames onto the
    /// borrowed execution path without copying payloads.
    pub fn to_ref(&self) -> BatchCallRef<'_> {
        BatchCallRef {
            key: self.key,
            request: self.request.to_ref(),
        }
    }
}

impl BatchCallRef<'_> {
    /// Converts to an owned [`BatchCall`], copying borrowed payloads.
    pub fn into_owned(self) -> BatchCall {
        BatchCall {
            key: self.key,
            request: self.request.into_owned(),
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Invoke `method` on the exported object `target` with `args`
    /// (a plain RMI call: one round trip per invocation).
    Call {
        /// The idempotency key naming this call. With one, the call may be
        /// re-sent after a transport failure because the origin dedupes on
        /// it; without, it keeps the at-most-once contract.
        key: Option<IdemKey>,
        /// The exported receiver.
        target: ObjectId,
        /// Method name.
        method: String,
        /// Arguments, marshalled by copy or as remote references.
        args: Vec<Value>,
    },
    /// Successful reply to a [`Frame::Call`].
    Return(Value),
    /// Failed reply to any request frame.
    Error(ErrorEnvelope),
    /// Execute a recorded batch (the BRMI `invoke_batch` entry point),
    /// under its idempotency key when it carries one.
    BatchCall(BatchCall),
    /// Reply to a [`Frame::BatchCall`].
    BatchReturn(BatchResponse),
    /// Execute several independent batches in one round trip — the
    /// multi-tier relay's upstream frame. An edge node coalesces in-flight
    /// batches from many downstream clients into one of these; the origin
    /// executes each member exactly as if it had arrived alone, so
    /// per-batch sessions, policies and exception cursors are preserved,
    /// and each keyed member's reply is cached under its *own* key (the
    /// members come from different downstream clients).
    ///
    /// The relay never mixes keyed and unkeyed members, and the wire
    /// cannot carry a mix: a super-batch travels keyed only when every
    /// member is (see [`Frame::is_retry_safe`]); otherwise it is encoded
    /// unkeyed — stray keys are dropped — and is not retry-safe.
    SuperBatchCall(Vec<BatchCall>),
    /// Reply to a [`Frame::SuperBatchCall`]: one entry per member, in
    /// request order — either that batch's response or the protocol error
    /// that prevented it from running (other entries are unaffected).
    SuperBatchReturn(Vec<Result<BatchResponse, ErrorEnvelope>>),
    /// Discard a chained-batch session and the objects it pinned.
    ReleaseSession(SessionId),
    /// Acknowledgement of a [`Frame::ReleaseSession`].
    Released,
    /// Distributed-GC lease request (Java RMI's `DGC.dirty`): the client
    /// still holds references to `ids` and asks for their leases to be
    /// (re)granted for `lease_millis`.
    Dirty {
        /// The referenced exported objects.
        ids: Vec<ObjectId>,
        /// Requested lease duration in milliseconds.
        lease_millis: u64,
    },
    /// Reply to [`Frame::Dirty`]: the duration actually granted.
    Leased {
        /// Granted lease duration in milliseconds (the server may clamp
        /// the request).
        lease_millis: u64,
    },
    /// Distributed-GC release (Java RMI's `DGC.clean`): the client
    /// dropped its references to `ids`.
    Clean {
        /// The no-longer-referenced exported objects.
        ids: Vec<ObjectId>,
    },
    /// Acknowledgement of a [`Frame::Clean`].
    Cleaned,
    /// An observability envelope: any frame, stamped with a [`TraceCtx`].
    /// Semantically transparent — every tier peels it once
    /// ([`Frame::split_trace`]), behaves exactly as if the inner frame had
    /// arrived bare, records a span for its share of the work and re-wraps
    /// what it forwards and returns ([`Frame::with_trace`]) so the trace
    /// propagates end to end. Only frames from tracing-enabled senders pay
    /// the envelope cost, so golden encodings of all other tags are
    /// untouched.
    Traced {
        /// The sender's span identity.
        ctx: TraceCtx,
        /// The enveloped frame, executed exactly as if it were bare.
        inner: Box<Frame>,
    },
}

/// A super-batch is keyed iff it has members and every one of them is —
/// the one predicate behind both its wire tag and its retry-safety. (An
/// empty super-batch, which no tier produces, is therefore unkeyed.)
fn all_keyed(members: &[BatchCall]) -> bool {
    !members.is_empty() && members.iter().all(|member| member.key.is_some())
}

impl Frame {
    /// A short name for logging and errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Call { .. } => "call",
            Frame::Return(_) => "return",
            Frame::Error(_) => "error",
            Frame::BatchCall(_) => "batch-call",
            Frame::BatchReturn(_) => "batch-return",
            Frame::SuperBatchCall(_) => "super-batch-call",
            Frame::SuperBatchReturn(_) => "super-batch-return",
            Frame::ReleaseSession(_) => "release-session",
            Frame::Released => "released",
            Frame::Dirty { .. } => "dirty",
            Frame::Leased { .. } => "leased",
            Frame::Clean { .. } => "clean",
            Frame::Cleaned => "cleaned",
            Frame::Traced { .. } => "traced",
        }
    }

    /// This frame without its trace envelope, by reference: what every
    /// classification below looks at.
    pub fn bare(&self) -> &Frame {
        match self {
            Frame::Traced { inner, .. } => inner.bare(),
            frame => frame,
        }
    }

    /// True for frames a client sends; false for reply frames. A traced
    /// envelope classifies as its inner frame.
    pub fn is_request(&self) -> bool {
        matches!(
            self.bare(),
            Frame::Call { .. }
                | Frame::BatchCall(_)
                | Frame::SuperBatchCall(_)
                | Frame::ReleaseSession(_)
                | Frame::Dirty { .. }
                | Frame::Clean { .. }
        )
    }

    /// True when this frame may be re-sent verbatim after a transport
    /// failure: it carries an idempotency key (a super-batch: one on every
    /// member), so the origin's reply cache answers a repeat with the
    /// original reply instead of re-executing. Everything else keeps the
    /// at-most-once contract. A traced envelope classifies as its inner
    /// frame (the trace context is payload-neutral, so re-sending it
    /// verbatim re-sends the same keyed request).
    pub fn is_retry_safe(&self) -> bool {
        match self.bare() {
            Frame::Call { key, .. } => key.is_some(),
            Frame::BatchCall(call) => call.key.is_some(),
            Frame::SuperBatchCall(members) => all_keyed(members),
            _ => false,
        }
    }

    /// The trace context, when this frame is a [`Frame::Traced`] envelope.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        match self {
            Frame::Traced { ctx, .. } => Some(*ctx),
            _ => None,
        }
    }

    /// Splits a traced envelope into its context and inner frame; a bare
    /// frame comes back unchanged with no context. Nested envelopes are
    /// not produced by any tier, but for robustness the outermost context
    /// wins and the rest unwrap.
    pub fn split_trace(self) -> (Option<TraceCtx>, Frame) {
        match self {
            Frame::Traced { ctx, inner } => (Some(ctx), inner.split_trace().1),
            frame => (None, frame),
        }
    }

    /// Wraps this frame in a [`Frame::Traced`] envelope when a context is
    /// given; returns it bare otherwise.
    pub fn with_trace(self, ctx: Option<TraceCtx>) -> Frame {
        match ctx {
            Some(ctx) => Frame::Traced {
                ctx,
                inner: Box::new(self),
            },
            None => self,
        }
    }

    /// A borrowed view of this frame, bridging an owned request onto the
    /// borrowed dispatch path: call and batch payloads become slices of
    /// `self`; control and reply frames, which have no bulk payload, are
    /// cloned into [`FrameRef::Other`].
    pub fn to_ref(&self) -> FrameRef<'_> {
        match self {
            Frame::Call {
                key,
                target,
                method,
                args,
            } => FrameRef::Call {
                key: *key,
                target: *target,
                method,
                args: args.iter().map(Value::to_ref).collect(),
            },
            Frame::BatchCall(call) => FrameRef::BatchCall(call.to_ref()),
            Frame::SuperBatchCall(members) => {
                FrameRef::SuperBatchCall(members.iter().map(BatchCall::to_ref).collect())
            }
            Frame::Traced { ctx, inner } => FrameRef::Traced {
                ctx: *ctx,
                inner: Box::new(inner.to_ref()),
            },
            other => FrameRef::Other(other.clone()),
        }
    }
}

const CTX: &str = "frame";

const TAG_CALL: u8 = 0;
const TAG_RETURN: u8 = 1;
const TAG_ERROR: u8 = 2;
const TAG_BATCH_CALL: u8 = 3;
const TAG_BATCH_RETURN: u8 = 4;
const TAG_RELEASE: u8 = 5;
const TAG_RELEASED: u8 = 6;
const TAG_DIRTY: u8 = 7;
const TAG_LEASED: u8 = 8;
const TAG_CLEAN: u8 = 9;
const TAG_CLEANED: u8 = 10;
const TAG_SUPER_BATCH_CALL: u8 = 11;
const TAG_SUPER_BATCH_RETURN: u8 = 12;
// The keyed tags announce the same three request bodies with idempotency
// keys spliced in: one key right after the tag for a call or a batch, one
// key in front of every member for a super-batch.
const TAG_KEYED_CALL: u8 = 13;
const TAG_KEYED_BATCH_CALL: u8 = 14;
const TAG_KEYED_SUPER_BATCH_CALL: u8 = 15;
const TAG_TRACED: u8 = 16;

/// Writes a call's or a batch's tag — `keyed_tag` and the key when it
/// carries one, `tag` alone otherwise. The body that follows is the same
/// either way.
fn put_tag_and_key(enc: &mut Encoder, tag: u8, keyed_tag: u8, key: &Option<IdemKey>) {
    match key {
        Some(key) => {
            enc.put_u8(keyed_tag);
            key.encode(enc);
        }
        None => enc.put_u8(tag),
    }
}

/// Reads the key a keyed tag announces; an unkeyed tag has none.
fn take_key(keyed: bool, dec: &mut Decoder<'_>) -> Result<Option<IdemKey>, WireError> {
    keyed.then(|| IdemKey::decode(dec)).transpose()
}

/// Reads the body of a call: its key, receiver, method name and arguments.
#[allow(clippy::type_complexity)]
fn take_call<'de, R: DecodeRepr<'de>>(
    keyed: bool,
    dec: &mut Decoder<'de>,
) -> Result<(Option<IdemKey>, ObjectId, R::Str, Vec<ValueIn<R>>), WireError> {
    let key = take_key(keyed, dec)?;
    let target = ObjectId(dec.take_varint(CTX)?);
    let method = R::take_str(dec, CTX)?;
    Ok((key, target, method, dec.take_vec(CTX, ValueIn::decode)?))
}

/// Reads one batch call: its key, then the batch.
fn take_batch<'de, R: DecodeRepr<'de>>(
    keyed: bool,
    dec: &mut Decoder<'de>,
) -> Result<BatchCallIn<R>, WireError> {
    Ok(BatchCallIn {
        key: take_key(keyed, dec)?,
        request: BatchRequestIn::decode(dec)?,
    })
}

/// Reads a super-batch's members, each keyed when the tag says so.
fn take_members<'de, R: DecodeRepr<'de>>(
    keyed: bool,
    dec: &mut Decoder<'de>,
) -> Result<Vec<BatchCallIn<R>>, WireError> {
    dec.take_vec(CTX, |dec| take_batch(keyed, dec))
}

fn put_ids(enc: &mut Encoder, ids: &[ObjectId]) {
    enc.put_varint(ids.len() as u64);
    for id in ids {
        enc.put_varint(id.0);
    }
}

fn take_ids(dec: &mut Decoder<'_>) -> Result<Vec<ObjectId>, WireError> {
    dec.take_vec(CTX, |dec| Ok(ObjectId(dec.take_varint(CTX)?)))
}

/// Reads a traced envelope's context and the tag of the frame inside it.
/// No tier nests envelopes, so a traced-in-traced stream is rejected
/// outright — this also bounds decode recursion.
fn take_trace_header(dec: &mut Decoder<'_>) -> Result<(TraceCtx, u8), WireError> {
    let ctx = TraceCtx::decode(dec)?;
    match dec.take_u8(CTX)? {
        TAG_TRACED => Err(WireError::UnknownTag {
            context: "traced-inner",
            tag: TAG_TRACED,
        }),
        inner_tag => Ok((ctx, inner_tag)),
    }
}

impl WireCodec for Frame {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Frame::Call {
                key,
                target,
                method,
                args,
            } => {
                put_tag_and_key(enc, TAG_CALL, TAG_KEYED_CALL, key);
                enc.put_varint(target.0);
                enc.put_str(method);
                enc.put_varint(args.len() as u64);
                for arg in args {
                    arg.encode(enc);
                }
            }
            Frame::Return(value) => {
                enc.put_u8(TAG_RETURN);
                value.encode(enc);
            }
            Frame::Error(env) => {
                enc.put_u8(TAG_ERROR);
                env.encode(enc);
            }
            Frame::BatchCall(call) => {
                put_tag_and_key(enc, TAG_BATCH_CALL, TAG_KEYED_BATCH_CALL, &call.key);
                call.request.encode(enc);
            }
            Frame::BatchReturn(resp) => {
                enc.put_u8(TAG_BATCH_RETURN);
                resp.encode(enc);
            }
            Frame::SuperBatchCall(members) => {
                let keyed = all_keyed(members);
                enc.put_u8(if keyed {
                    TAG_KEYED_SUPER_BATCH_CALL
                } else {
                    TAG_SUPER_BATCH_CALL
                });
                enc.put_varint(members.len() as u64);
                for member in members {
                    if let (true, Some(key)) = (keyed, &member.key) {
                        key.encode(enc);
                    }
                    member.request.encode(enc);
                }
            }
            Frame::SuperBatchReturn(replies) => {
                enc.put_u8(TAG_SUPER_BATCH_RETURN);
                enc.put_varint(replies.len() as u64);
                for reply in replies {
                    match reply {
                        Ok(resp) => {
                            enc.put_u8(0);
                            resp.encode(enc);
                        }
                        Err(env) => {
                            enc.put_u8(1);
                            env.encode(enc);
                        }
                    }
                }
            }
            Frame::ReleaseSession(SessionId(id)) => {
                enc.put_u8(TAG_RELEASE);
                enc.put_varint(*id);
            }
            Frame::Released => enc.put_u8(TAG_RELEASED),
            Frame::Dirty { ids, lease_millis } => {
                enc.put_u8(TAG_DIRTY);
                put_ids(enc, ids);
                enc.put_varint(*lease_millis);
            }
            Frame::Leased { lease_millis } => {
                enc.put_u8(TAG_LEASED);
                enc.put_varint(*lease_millis);
            }
            Frame::Clean { ids } => {
                enc.put_u8(TAG_CLEAN);
                put_ids(enc, ids);
            }
            Frame::Cleaned => enc.put_u8(TAG_CLEANED),
            Frame::Traced { ctx, inner } => {
                enc.put_u8(TAG_TRACED);
                ctx.encode(enc);
                inner.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = dec.take_u8(CTX)?;
        Frame::decode_body(tag, dec)
    }
}

impl Frame {
    /// Decodes the body of a frame whose tag byte was already consumed.
    fn decode_body(tag: u8, dec: &mut Decoder<'_>) -> Result<Frame, WireError> {
        match tag {
            TAG_CALL | TAG_KEYED_CALL => {
                let (key, target, method, args) = take_call(tag == TAG_KEYED_CALL, dec)?;
                Ok(Frame::Call {
                    key,
                    target,
                    method,
                    args,
                })
            }
            TAG_RETURN => Ok(Frame::Return(Value::decode(dec)?)),
            TAG_ERROR => Ok(Frame::Error(ErrorEnvelope::decode(dec)?)),
            TAG_BATCH_CALL | TAG_KEYED_BATCH_CALL => Ok(Frame::BatchCall(take_batch(
                tag == TAG_KEYED_BATCH_CALL,
                dec,
            )?)),
            TAG_BATCH_RETURN => Ok(Frame::BatchReturn(BatchResponse::decode(dec)?)),
            TAG_SUPER_BATCH_CALL | TAG_KEYED_SUPER_BATCH_CALL => Ok(Frame::SuperBatchCall(
                take_members(tag == TAG_KEYED_SUPER_BATCH_CALL, dec)?,
            )),
            TAG_SUPER_BATCH_RETURN => {
                let replies = dec.take_vec(CTX, |dec| match dec.take_u8(CTX)? {
                    0 => Ok(Ok(BatchResponse::decode(dec)?)),
                    1 => Ok(Err(ErrorEnvelope::decode(dec)?)),
                    tag => Err(WireError::UnknownTag { context: CTX, tag }),
                })?;
                Ok(Frame::SuperBatchReturn(replies))
            }
            TAG_RELEASE => Ok(Frame::ReleaseSession(SessionId(dec.take_varint(CTX)?))),
            TAG_RELEASED => Ok(Frame::Released),
            TAG_DIRTY => Ok(Frame::Dirty {
                ids: take_ids(dec)?,
                lease_millis: dec.take_varint(CTX)?,
            }),
            TAG_LEASED => Ok(Frame::Leased {
                lease_millis: dec.take_varint(CTX)?,
            }),
            TAG_CLEAN => Ok(Frame::Clean {
                ids: take_ids(dec)?,
            }),
            TAG_CLEANED => Ok(Frame::Cleaned),
            TAG_TRACED => {
                let (ctx, inner_tag) = take_trace_header(dec)?;
                Ok(Frame::Traced {
                    ctx,
                    inner: Box::new(Frame::decode_body(inner_tag, dec)?),
                })
            }
            tag => Err(WireError::UnknownTag { context: CTX, tag }),
        }
    }
}

/// A request frame decoded as a borrowed view: the server dispatch path's
/// zero-copy form of [`Frame`].
///
/// Only the three requests that carry per-call payloads — plain calls,
/// batches and super-batches, keyed or not — have borrowed variants; every
/// other frame is a small control or reply message and decodes owned via
/// [`FrameRef::Other`].
///
/// Lifetime contract: a `FrameRef<'a>` borrows the frame buffer it was
/// decoded from. Transports keep that buffer alive (and unmodified) until
/// the handler returns its reply, then reuse it for the next frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRef<'a> {
    /// A plain RMI call; method name and argument payloads are borrowed.
    Call {
        /// The idempotency key naming this call, if any (owned: it is
        /// tiny).
        key: Option<IdemKey>,
        /// The exported receiver.
        target: ObjectId,
        /// Method name, borrowed from the frame.
        method: &'a str,
        /// Arguments, payloads borrowed from the frame.
        args: Vec<ValueRef<'a>>,
    },
    /// A recorded batch; call descriptors are borrowed.
    BatchCall(BatchCallRef<'a>),
    /// A relay super-batch; every member's call descriptors are borrowed.
    SuperBatchCall(Vec<BatchCallRef<'a>>),
    /// A traced envelope; the inner frame keeps its borrowed form so the
    /// zero-copy dispatch path survives tracing.
    Traced {
        /// The sender's span identity.
        ctx: TraceCtx,
        /// The enveloped frame, dispatched exactly as if it were bare.
        inner: Box<FrameRef<'a>>,
    },
    /// Any other frame, decoded owned (no bulk payload to borrow).
    Other(Frame),
}

impl<'a> FrameRef<'a> {
    /// Decodes one frame as a borrowed view. Reads the same wire format as
    /// [`Frame`]'s [`WireCodec::decode`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    pub fn decode(dec: &mut Decoder<'a>) -> Result<FrameRef<'a>, WireError> {
        let tag = dec.take_u8(CTX)?;
        FrameRef::decode_body(tag, dec)
    }

    /// Decodes the body of a borrowed frame whose tag byte was already
    /// consumed.
    fn decode_body(tag: u8, dec: &mut Decoder<'a>) -> Result<FrameRef<'a>, WireError> {
        match tag {
            TAG_CALL | TAG_KEYED_CALL => {
                let (key, target, method, args) = take_call(tag == TAG_KEYED_CALL, dec)?;
                Ok(FrameRef::Call {
                    key,
                    target,
                    method,
                    args,
                })
            }
            TAG_BATCH_CALL | TAG_KEYED_BATCH_CALL => Ok(FrameRef::BatchCall(take_batch(
                tag == TAG_KEYED_BATCH_CALL,
                dec,
            )?)),
            TAG_SUPER_BATCH_CALL | TAG_KEYED_SUPER_BATCH_CALL => Ok(FrameRef::SuperBatchCall(
                take_members(tag == TAG_KEYED_SUPER_BATCH_CALL, dec)?,
            )),
            TAG_TRACED => {
                let (ctx, inner_tag) = take_trace_header(dec)?;
                Ok(FrameRef::Traced {
                    ctx,
                    inner: Box::new(FrameRef::decode_body(inner_tag, dec)?),
                })
            }
            other => Ok(FrameRef::Other(Frame::decode_body(other, dec)?)),
        }
    }

    /// Decodes exactly one borrowed frame from `bytes`, rejecting trailing
    /// garbage.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated, malformed, or
    /// longer than one frame.
    pub fn from_wire_bytes(bytes: &'a [u8]) -> Result<FrameRef<'a>, WireError> {
        FrameRef::from_wire_bytes_with(bytes, IntWidth::Varint)
    }

    /// As [`FrameRef::from_wire_bytes`], reading integers at the given
    /// width (codec ablation).
    ///
    /// # Errors
    ///
    /// As [`FrameRef::from_wire_bytes`], plus width mismatches.
    pub fn from_wire_bytes_with(
        bytes: &'a [u8],
        width: IntWidth,
    ) -> Result<FrameRef<'a>, WireError> {
        let mut dec = Decoder::with_width(bytes, width);
        let frame = FrameRef::decode(&mut dec)?;
        dec.finish()?;
        Ok(frame)
    }

    /// Converts to an owned [`Frame`], copying any borrowed payloads.
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Call {
                key,
                target,
                method,
                args,
            } => Frame::Call {
                key,
                target,
                method: method.to_owned(),
                args: args.into_iter().map(ValueRef::into_owned).collect(),
            },
            FrameRef::BatchCall(call) => Frame::BatchCall(call.into_owned()),
            FrameRef::SuperBatchCall(members) => {
                Frame::SuperBatchCall(members.into_iter().map(BatchCallRef::into_owned).collect())
            }
            FrameRef::Traced { ctx, inner } => Frame::Traced {
                ctx,
                inner: Box::new(inner.into_owned()),
            },
            FrameRef::Other(frame) => frame,
        }
    }

    /// The borrowed twin of [`Frame::split_trace`]: a traced envelope's
    /// context and inner frame, or a bare frame unchanged with no context.
    pub fn split_trace(self) -> (Option<TraceCtx>, FrameRef<'a>) {
        match self {
            FrameRef::Traced { ctx, inner } => (Some(ctx), inner.split_trace().1),
            frame => (None, frame),
        }
    }
}

/// Well-known method names understood by the registry object.
pub mod registry_methods {
    /// `lookup(name) -> RemoteRef`
    pub const LOOKUP: &str = "lookup";
    /// `bind(name, ref) -> null`; fails if already bound.
    pub const BIND: &str = "bind";
    /// `rebind(name, ref) -> null`; replaces any existing binding.
    pub const REBIND: &str = "rebind";
    /// `unbind(name) -> null`; fails if not bound.
    pub const UNBIND: &str = "unbind";
    /// `list() -> List<Str>` of bound names.
    pub const LIST: &str = "list";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::PolicySpec;

    fn round_trip(frame: &Frame) -> Frame {
        Frame::from_wire_bytes(&frame.to_wire_bytes()).expect("round trip")
    }

    #[test]
    fn call_frame_round_trips() {
        let frame = Frame::Call {
            key: None,
            target: ObjectId(5),
            method: "get_name".into(),
            args: vec![Value::Str("x".into()), Value::RemoteRef(ObjectId(2))],
        };
        assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn return_and_error_round_trip() {
        let ret = Frame::Return(Value::I64(9));
        assert_eq!(round_trip(&ret), ret);
        let err = Frame::Error(ErrorEnvelope {
            kind: "application".into(),
            exception: "E".into(),
            message: "m".into(),
        });
        assert_eq!(round_trip(&err), err);
    }

    #[test]
    fn batch_frames_round_trip() {
        let call = Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Abort,
                keep_session: true,
            }
            .into(),
        );
        assert_eq!(round_trip(&call), call);
        let ret = Frame::BatchReturn(BatchResponse::default());
        assert_eq!(round_trip(&ret), ret);
    }

    #[test]
    fn super_batch_frames_round_trip() {
        let call = Frame::SuperBatchCall(vec![
            BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Abort,
                keep_session: false,
            }
            .into(),
            BatchRequest {
                session: Some(SessionId(4)),
                calls: vec![],
                policy: PolicySpec::Continue,
                keep_session: true,
            }
            .into(),
        ]);
        assert_eq!(round_trip(&call), call);
        let ret = Frame::SuperBatchReturn(vec![
            Ok(BatchResponse::default()),
            Err(ErrorEnvelope {
                kind: "protocol".into(),
                exception: "protocol".into(),
                message: "unknown session".into(),
            }),
        ]);
        assert_eq!(round_trip(&ret), ret);
        // Empty super-batches are legal on the wire too.
        let empty = Frame::SuperBatchCall(vec![]);
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn borrowed_super_batch_matches_owned_decode() {
        let frame = Frame::SuperBatchCall(vec![BatchRequest {
            session: None,
            calls: vec![crate::invocation::InvocationData {
                seq: crate::invocation::CallSeq(0),
                target: crate::invocation::Target::Remote(ObjectId(3)),
                method: "get_file".into(),
                args: vec![crate::invocation::Arg::Value(Value::Str("x".into()))],
                cursor: None,
                opens_cursor: false,
            }],
            policy: PolicySpec::Abort,
            keep_session: false,
        }
        .into()]);
        let bytes = frame.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        match &borrowed {
            FrameRef::SuperBatchCall(batches) => {
                let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                let method = batches[0].request.calls[0].method;
                assert!(range.contains(&(method.as_ptr() as usize)));
            }
            other => panic!("expected super-batch call, got {other:?}"),
        }
        assert_eq!(borrowed.into_owned(), frame);
    }

    #[test]
    fn super_batch_classification() {
        assert!(Frame::SuperBatchCall(vec![]).is_request());
        assert!(!Frame::SuperBatchReturn(vec![]).is_request());
    }

    #[test]
    fn session_frames_round_trip() {
        let release = Frame::ReleaseSession(SessionId(77));
        assert_eq!(round_trip(&release), release);
        assert_eq!(round_trip(&Frame::Released), Frame::Released);
    }

    #[test]
    fn dgc_frames_round_trip() {
        let dirty = Frame::Dirty {
            ids: vec![ObjectId(3), ObjectId(9)],
            lease_millis: 600_000,
        };
        assert_eq!(round_trip(&dirty), dirty);
        let leased = Frame::Leased {
            lease_millis: 300_000,
        };
        assert_eq!(round_trip(&leased), leased);
        let clean = Frame::Clean {
            ids: vec![ObjectId(3)],
        };
        assert_eq!(round_trip(&clean), clean);
        assert_eq!(round_trip(&Frame::Cleaned), Frame::Cleaned);
        // Empty id lists are fine too.
        let empty = Frame::Dirty {
            ids: vec![],
            lease_millis: 0,
        };
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn dgc_request_classification() {
        assert!(Frame::Dirty {
            ids: vec![],
            lease_millis: 1
        }
        .is_request());
        assert!(Frame::Clean { ids: vec![] }.is_request());
        assert!(!Frame::Leased { lease_millis: 1 }.is_request());
        assert!(!Frame::Cleaned.is_request());
    }

    #[test]
    fn request_classification() {
        assert!(Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "m".into(),
            args: vec![]
        }
        .is_request());
        assert!(Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Abort,
                keep_session: false
            }
            .into()
        )
        .is_request());
        assert!(Frame::ReleaseSession(SessionId(1)).is_request());
        assert!(!Frame::Return(Value::Null).is_request());
        assert!(!Frame::Released.is_request());
    }

    #[test]
    fn kind_names_are_distinct() {
        let frames = [
            Frame::Call {
                key: None,
                target: ObjectId(1),
                method: "m".into(),
                args: vec![],
            },
            Frame::Return(Value::Null),
            Frame::Error(ErrorEnvelope {
                kind: "k".into(),
                exception: "e".into(),
                message: "m".into(),
            }),
            Frame::BatchCall(
                BatchRequest {
                    session: None,
                    calls: vec![],
                    policy: PolicySpec::Abort,
                    keep_session: false,
                }
                .into(),
            ),
            Frame::BatchReturn(BatchResponse::default()),
            Frame::SuperBatchCall(vec![]),
            Frame::SuperBatchReturn(vec![]),
            Frame::ReleaseSession(SessionId(0)),
            Frame::Released,
            Frame::Dirty {
                ids: vec![],
                lease_millis: 0,
            },
            Frame::Leased { lease_millis: 0 },
            Frame::Clean { ids: vec![] },
            Frame::Cleaned,
            Frame::Released.with_trace(Some(TraceCtx {
                trace_id: 1,
                span_id: 1,
                parent: 0,
            })),
        ];
        let mut names: Vec<_> = frames.iter().map(Frame::kind_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), frames.len());
    }

    #[test]
    fn keyed_frames_round_trip() {
        let key = IdemKey {
            client_id: 7,
            seq: 300,
            acked: 297,
        };
        let call = Frame::Call {
            key: Some(key),
            target: ObjectId(5),
            method: "make_purchase".into(),
            args: vec![Value::F64(19.99)],
        };
        assert_eq!(round_trip(&call), call);
        let batch = Frame::BatchCall(BatchCall {
            key: Some(key),
            request: BatchRequest {
                session: Some(SessionId(4)),
                calls: vec![],
                policy: PolicySpec::Continue,
                keep_session: true,
            },
        });
        assert_eq!(round_trip(&batch), batch);
        let super_batch = Frame::SuperBatchCall(vec![
            BatchCall {
                key: Some(key),
                request: BatchRequest {
                    session: None,
                    calls: vec![],
                    policy: PolicySpec::Abort,
                    keep_session: false,
                },
            },
            BatchCall {
                key: Some(IdemKey {
                    client_id: 8,
                    seq: 1,
                    acked: 0,
                }),
                request: BatchRequest {
                    session: None,
                    calls: vec![],
                    policy: PolicySpec::Continue,
                    keep_session: false,
                },
            },
        ]);
        assert_eq!(round_trip(&super_batch), super_batch);
        assert_eq!(super_batch.to_wire_bytes()[0], TAG_KEYED_SUPER_BATCH_CALL);
        // An empty super-batch has no member to key: both tags decode to
        // the same value, and it re-encodes under the unkeyed one.
        let empty = Frame::SuperBatchCall(vec![]);
        assert_eq!(Frame::from_wire_bytes(&[0x0f, 0x00]).unwrap(), empty);
        assert_eq!(Frame::from_wire_bytes(&[0x0b, 0x00]).unwrap(), empty);
        assert_eq!(empty.to_wire_bytes(), [0x0b, 0x00]);
    }

    #[test]
    fn half_keyed_super_batch_travels_unkeyed_and_is_not_retry_safe() {
        // The relay never builds one, but the type can: it must not be
        // mistaken for a frame the origin dedupes as a whole.
        let request = BatchRequest {
            session: None,
            calls: vec![],
            policy: PolicySpec::Abort,
            keep_session: false,
        };
        let half = Frame::SuperBatchCall(vec![
            BatchCall {
                key: Some(IdemKey {
                    client_id: 1,
                    seq: 1,
                    acked: 0,
                }),
                request: request.clone(),
            },
            request.clone().into(),
        ]);
        assert!(!half.is_retry_safe());
        let unkeyed = Frame::SuperBatchCall(vec![request.clone().into(), request.into()]);
        assert_eq!(half.to_wire_bytes(), unkeyed.to_wire_bytes());
        assert_eq!(round_trip(&half), unkeyed);
    }

    #[test]
    fn keyed_classification() {
        let key = IdemKey {
            client_id: 1,
            seq: 1,
            acked: 0,
        };
        let keyed = Frame::Call {
            key: Some(key),
            target: ObjectId(1),
            method: "m".into(),
            args: vec![],
        };
        assert!(keyed.is_request());
        assert!(keyed.is_retry_safe());
        let keyed_batch = BatchCall {
            key: Some(key),
            request: BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Abort,
                keep_session: false,
            },
        };
        assert!(Frame::BatchCall(keyed_batch.clone()).is_retry_safe());
        assert!(Frame::SuperBatchCall(vec![keyed_batch]).is_retry_safe());
        // Nothing in an empty super-batch is keyed.
        assert!(!Frame::SuperBatchCall(vec![]).is_retry_safe());
        // Unkeyed traffic keeps the at-most-once contract.
        assert!(!Frame::Call {
            key: None,
            target: ObjectId(1),
            method: "m".into(),
            args: vec![]
        }
        .is_retry_safe());
        assert!(!Frame::BatchCall(
            BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Abort,
                keep_session: false,
            }
            .into()
        )
        .is_retry_safe());
        assert!(!Frame::Return(Value::Null).is_retry_safe());
    }

    #[test]
    fn borrowed_keyed_frames_match_owned_decode() {
        let key = IdemKey {
            client_id: 9,
            seq: 42,
            acked: 40,
        };
        let call = Frame::Call {
            key: Some(key),
            target: ObjectId(5),
            method: "get_name".into(),
            args: vec![Value::Str("x".into())],
        };
        let bytes = call.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        match &borrowed {
            FrameRef::Call { key: k, method, .. } => {
                assert_eq!(*k, Some(key));
                let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                assert!(range.contains(&(method.as_ptr() as usize)));
            }
            other => panic!("expected keyed call, got {other:?}"),
        }
        assert_eq!(borrowed.into_owned(), call);

        let batch = Frame::BatchCall(BatchCall {
            key: Some(key),
            request: BatchRequest {
                session: None,
                calls: vec![crate::invocation::InvocationData {
                    seq: crate::invocation::CallSeq(0),
                    target: crate::invocation::Target::Remote(ObjectId(3)),
                    method: "get_file".into(),
                    args: vec![crate::invocation::Arg::Value(Value::Str("x".into()))],
                    cursor: None,
                    opens_cursor: false,
                }],
                policy: PolicySpec::Abort,
                keep_session: false,
            },
        });
        let bytes = batch.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        match &borrowed {
            FrameRef::BatchCall(kb) => {
                assert_eq!(kb.key, Some(key));
                let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                let method = kb.request.calls[0].method;
                assert!(range.contains(&(method.as_ptr() as usize)));
            }
            other => panic!("expected keyed batch call, got {other:?}"),
        }
        assert_eq!(borrowed.into_owned(), batch);

        let super_batch = Frame::SuperBatchCall(vec![BatchCall {
            key: Some(key),
            request: BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Continue,
                keep_session: true,
            },
        }]);
        let bytes = super_batch.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        assert!(
            matches!(&borrowed, FrameRef::SuperBatchCall(b) if b.len() == 1 && b[0].key == Some(key))
        );
        assert_eq!(borrowed.into_owned(), super_batch);
    }

    #[test]
    fn traced_frames_round_trip_and_classify_as_inner() {
        let ctx = TraceCtx {
            trace_id: 7,
            span_id: 9,
            parent: 7,
        };
        let inner = Frame::BatchCall(BatchCall {
            key: Some(IdemKey {
                client_id: 1,
                seq: 2,
                acked: 0,
            }),
            request: BatchRequest {
                session: None,
                calls: vec![],
                policy: PolicySpec::Abort,
                keep_session: false,
            },
        });
        let traced = inner.clone().with_trace(Some(ctx));
        assert_eq!(round_trip(&traced), traced);
        assert_eq!(traced.kind_name(), "traced");
        assert_eq!(traced.trace_ctx(), Some(ctx));
        // Classification delegates to the enveloped frame.
        assert!(traced.is_request());
        assert!(traced.is_retry_safe());
        let unkeyed = Frame::Return(Value::Null).with_trace(Some(ctx));
        assert!(!unkeyed.is_request());
        assert!(!unkeyed.is_retry_safe());
        // split_trace recovers both halves; with_trace(None) is identity.
        let (got_ctx, got_inner) = traced.split_trace();
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(got_inner, inner);
        assert_eq!(inner.clone().with_trace(None), inner);
        assert_eq!(inner.trace_ctx(), None);
    }

    #[test]
    fn traced_envelope_is_a_pure_prefix_of_the_bare_encoding() {
        // The envelope must not perturb the inner frame's bytes: a traced
        // frame is exactly `TAG_TRACED + ctx` followed by the bare frame's
        // golden encoding. This is what keeps existing baselines intact.
        let inner = Frame::BatchCall(
            BatchRequest {
                session: Some(SessionId(4)),
                calls: vec![],
                policy: PolicySpec::Continue,
                keep_session: true,
            }
            .into(),
        );
        let bare = inner.to_wire_bytes();
        let ctx = TraceCtx {
            trace_id: 1,
            span_id: 2,
            parent: 0,
        };
        let traced = inner.with_trace(Some(ctx)).to_wire_bytes();
        assert_eq!(traced[0], 16);
        assert_eq!(&traced[1..4], &[1, 2, 0]);
        assert_eq!(&traced[4..], &bare[..]);
    }

    #[test]
    fn borrowed_traced_frame_stays_zero_copy() {
        let ctx = TraceCtx {
            trace_id: 3,
            span_id: 4,
            parent: 3,
        };
        let frame = Frame::Call {
            key: None,
            target: ObjectId(5),
            method: "get_name".into(),
            args: vec![Value::Str("x".into())],
        }
        .with_trace(Some(ctx));
        let bytes = frame.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        match &borrowed {
            FrameRef::Traced { ctx: got, inner } => {
                assert_eq!(*got, ctx);
                match inner.as_ref() {
                    FrameRef::Call { method, .. } => {
                        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                        assert!(range.contains(&(method.as_ptr() as usize)));
                    }
                    other => panic!("expected borrowed call, got {other:?}"),
                }
            }
            other => panic!("expected traced, got {other:?}"),
        }
        assert_eq!(borrowed.into_owned(), frame);
    }

    #[test]
    fn to_ref_is_the_borrowed_decode_and_splits_like_the_owned_frame() {
        let key = IdemKey {
            client_id: 4,
            seq: 9,
            acked: 3,
        };
        let ctx = TraceCtx {
            trace_id: 3,
            span_id: 4,
            parent: 3,
        };
        let batch = BatchCall {
            key: Some(key),
            request: BatchRequest {
                session: Some(SessionId(2)),
                calls: vec![],
                policy: PolicySpec::Continue,
                keep_session: true,
            },
        };
        for frame in [
            Frame::Call {
                key: Some(key),
                target: ObjectId(5),
                method: "get_name".into(),
                args: vec![Value::Str("x".into()), Value::List(vec![Value::I32(1)])],
            }
            .with_trace(Some(ctx)),
            Frame::BatchCall(batch.clone()),
            Frame::SuperBatchCall(vec![batch.clone(), batch]).with_trace(Some(ctx)),
            Frame::Clean {
                ids: vec![ObjectId(1)],
            }
            .with_trace(Some(ctx)),
            Frame::Released,
        ] {
            let bytes = frame.to_wire_bytes();
            assert_eq!(frame.to_ref(), FrameRef::from_wire_bytes(&bytes).unwrap());
            let (got_ctx, bare) = frame.to_ref().split_trace();
            assert_eq!((got_ctx, bare.into_owned()), frame.split_trace());
        }
    }

    #[test]
    fn nested_traced_envelopes_are_rejected_on_the_wire() {
        let ctx = TraceCtx {
            trace_id: 1,
            span_id: 1,
            parent: 0,
        };
        let nested = Frame::Traced {
            ctx,
            inner: Box::new(Frame::Released.with_trace(Some(ctx))),
        };
        let bytes = nested.to_wire_bytes();
        assert!(Frame::from_wire_bytes(&bytes).is_err());
        assert!(FrameRef::from_wire_bytes(&bytes).is_err());
        // split_trace still flattens the in-process form.
        let (got, inner) = nested.split_trace();
        assert_eq!(got, Some(ctx));
        assert_eq!(inner, Frame::Released);
    }

    #[test]
    fn garbage_frame_is_rejected() {
        assert!(Frame::from_wire_bytes(&[99, 1, 2, 3]).is_err());
        assert!(Frame::from_wire_bytes(&[]).is_err());
        assert!(FrameRef::from_wire_bytes(&[99, 1, 2, 3]).is_err());
        assert!(FrameRef::from_wire_bytes(&[]).is_err());
    }

    #[test]
    fn borrowed_call_frame_matches_owned_decode() {
        let frame = Frame::Call {
            key: None,
            target: ObjectId(5),
            method: "get_name".into(),
            args: vec![Value::Str("x".into()), Value::Bytes(vec![1, 2, 3])],
        };
        let bytes = frame.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        match &borrowed {
            FrameRef::Call { method, args, .. } => {
                // The payloads are slices into `bytes`, not copies.
                let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                assert!(range.contains(&(method.as_ptr() as usize)));
                assert!(matches!(args[0], ValueRef::Str("x")));
            }
            other => panic!("expected call, got {other:?}"),
        }
        assert_eq!(borrowed.into_owned(), frame);
    }

    #[test]
    fn borrowed_batch_frame_matches_owned_decode() {
        let frame = Frame::BatchCall(
            BatchRequest {
                session: Some(SessionId(3)),
                calls: vec![],
                policy: PolicySpec::Continue,
                keep_session: true,
            }
            .into(),
        );
        let bytes = frame.to_wire_bytes();
        let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
        assert!(matches!(borrowed, FrameRef::BatchCall(_)));
        assert_eq!(borrowed.into_owned(), frame);
    }

    #[test]
    fn control_frames_decode_as_other() {
        for frame in [
            Frame::Return(Value::Str("reply".into())),
            Frame::Released,
            Frame::Dirty {
                ids: vec![ObjectId(1)],
                lease_millis: 10,
            },
        ] {
            let bytes = frame.to_wire_bytes();
            let borrowed = FrameRef::from_wire_bytes(&bytes).unwrap();
            assert!(matches!(borrowed, FrameRef::Other(_)));
            assert_eq!(borrowed.into_owned(), frame);
        }
    }

    #[test]
    fn borrowed_frame_decodes_fixed_width() {
        use crate::codec::IntWidth;
        let frame = Frame::Call {
            key: None,
            target: ObjectId(300),
            method: "m".into(),
            args: vec![Value::I64(1)],
        };
        let bytes = frame.to_wire_bytes_with(IntWidth::Fixed8);
        let borrowed = FrameRef::from_wire_bytes_with(&bytes, IntWidth::Fixed8).unwrap();
        assert_eq!(borrowed.into_owned(), frame);
    }
}

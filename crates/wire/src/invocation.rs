//! Batch invocation descriptors — the wire form of a recorded batch.
//!
//! During *invocation monitoring* (paper Section 4.1) the client records each
//! call as an [`InvocationData`]: target, method name, arguments and a
//! sequence number. `flush` ships the whole list as a [`BatchRequest`]; the
//! server replays it and answers with a [`BatchResponse`] carrying one
//! [`SlotOutcome`] per call plus per-element results for every cursor.

use crate::codec::{DecodeRepr, Decoder, Encoder, WireCodec};
use crate::error::{RemoteError, WireError};
use crate::value::{Borrowed, ObjectId, Owned, Repr, Value, ValueIn};

/// Sequence number of a call within one batch chain.
///
/// Sequence numbers identify calls, the futures they populate and the
/// server-side objects their results create (paper Section 4.1). They keep
/// increasing across chained batches so a later batch can reference results
/// of an earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSeq(pub u32);

impl std::fmt::Display for CallSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "call#{}", self.0)
    }
}

/// Identifies a server-side batch session kept alive between chained batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// The receiver of a batched call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// An object exported in the server's object table (a batch root or any
    /// other wrapped remote reference).
    Remote(ObjectId),
    /// The remote object produced by an earlier call in this batch chain.
    Result(CallSeq),
    /// One element of a cursor's array, addressed by iteration index. Used
    /// only in chained batches, after the cursor's creating batch was
    /// flushed (paper Section 3.5).
    CursorElement(CallSeq, u32),
}

/// One argument of a batched call, over payload storage `R`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgIn<R: Repr> {
    /// A value passed by copy (or a pre-existing remote reference passed as
    /// [`Value::RemoteRef`]).
    Value(ValueIn<R>),
    /// The remote object produced by an earlier call in this batch chain.
    /// Only the sequence number crosses the wire (paper Section 4.1).
    Result(CallSeq),
    /// One element of a flushed cursor's array.
    CursorElement(CallSeq, u32),
}

/// One owned argument of a batched call.
pub type Arg = ArgIn<Owned>;

/// One argument of a batched call, decoded as a borrowed view — see
/// [`BatchRequestRef`].
pub type ArgRef<'a> = ArgIn<Borrowed<'a>>;

/// A recorded method call: the paper's `InvocationData` class, over
/// payload storage `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationDataIn<R: Repr> {
    /// This call's sequence number.
    pub seq: CallSeq,
    /// The receiver.
    pub target: Target,
    /// Method name, as generated by the interface tool.
    pub method: R::Name,
    /// Arguments in positional order.
    pub args: Vec<ArgIn<R>>,
    /// When set, this call belongs to the sub-batch of the cursor created by
    /// the given call, and the server repeats it for every array element.
    pub cursor: Option<CallSeq>,
    /// True when this call returns an array of remote objects and therefore
    /// opens a cursor.
    pub opens_cursor: bool,
}

/// An owned recorded call.
pub type InvocationData = InvocationDataIn<Owned>;

/// A recorded method call decoded as a borrowed view — see
/// [`BatchRequestRef`].
pub type InvocationDataRef<'a> = InvocationDataIn<Borrowed<'a>>;

/// What the server should do when a batched call throws
/// (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionAction {
    /// Stop executing the batch; remaining calls are skipped.
    Break,
    /// Keep executing subsequent calls (dependents of the failed call are
    /// still skipped — their target does not exist).
    Continue,
    /// Re-invoke the failing call, up to the server's retry bound, then
    /// break.
    Repeat,
    /// Replay the whole batch from the first call, up to the server's
    /// restart bound, then break.
    Restart,
}

/// One rule of a custom exception policy. All populated fields must match
/// for the rule to apply; the first matching rule wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRule {
    /// Exception name to match (e.g. `"DuplicateAccountException"`), or any.
    pub exception: Option<String>,
    /// Method name to match, or any.
    pub method: Option<String>,
    /// Position of the call in the batch to match, or any.
    pub index: Option<u32>,
    /// Action taken when the rule matches.
    pub action: ExceptionAction,
}

/// Serializable description of an exception policy.
///
/// Policies travel by description, never by code: this is how the paper
/// avoids mobile code (Section 3.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PolicySpec {
    /// Abort the batch on any exception (the default).
    #[default]
    Abort,
    /// Always continue past exceptions.
    Continue,
    /// Rule-based policy with a default action.
    Custom {
        /// Action when no rule matches.
        default: ExceptionAction,
        /// Ordered rules; first match wins.
        rules: Vec<PolicyRule>,
    },
}

impl PolicySpec {
    /// Resolves the action for an exception raised by the call at position
    /// `index` invoking `method`.
    pub fn action_for(&self, error: &RemoteError, method: &str, index: u32) -> ExceptionAction {
        match self {
            PolicySpec::Abort => ExceptionAction::Break,
            PolicySpec::Continue => ExceptionAction::Continue,
            PolicySpec::Custom { default, rules } => rules
                .iter()
                .find(|rule| {
                    rule.exception
                        .as_deref()
                        .is_none_or(|e| e == error.exception())
                        && rule.method.as_deref().is_none_or(|m| m == method)
                        && rule.index.is_none_or(|i| i == index)
                })
                .map_or(*default, |rule| rule.action),
        }
    }
}

impl ArgRef<'_> {
    /// Converts to an owned [`Arg`], copying any borrowed payloads.
    pub fn into_owned(self) -> Arg {
        match self {
            ArgRef::Value(value) => Arg::Value(value.into_owned()),
            ArgRef::Result(seq) => Arg::Result(seq),
            ArgRef::CursorElement(seq, index) => Arg::CursorElement(seq, index),
        }
    }
}

impl Arg {
    /// A borrowed view of this argument (payloads become frame slices).
    pub fn to_ref(&self) -> ArgRef<'_> {
        match self {
            Arg::Value(value) => ArgRef::Value(value.to_ref()),
            Arg::Result(seq) => ArgRef::Result(*seq),
            Arg::CursorElement(seq, index) => ArgRef::CursorElement(*seq, *index),
        }
    }
}

impl InvocationDataRef<'_> {
    /// Converts to an owned [`InvocationData`], copying borrowed payloads.
    pub fn into_owned(self) -> InvocationData {
        InvocationData {
            seq: self.seq,
            target: self.target,
            method: self.method.to_owned().into(),
            args: self.args.into_iter().map(ArgRef::into_owned).collect(),
            cursor: self.cursor,
            opens_cursor: self.opens_cursor,
        }
    }
}

impl InvocationData {
    /// A borrowed view of this call (method name and value payloads become
    /// slices).
    pub fn to_ref(&self) -> InvocationDataRef<'_> {
        InvocationDataRef {
            seq: self.seq,
            target: self.target,
            method: &self.method,
            args: self.args.iter().map(Arg::to_ref).collect(),
            cursor: self.cursor,
            opens_cursor: self.opens_cursor,
        }
    }
}

/// A whole recorded batch, sent to the server by `flush`, over payload
/// storage `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequestIn<R: Repr> {
    /// Session to continue, when this batch chains onto a previous one.
    pub session: Option<SessionId>,
    /// Recorded calls, in invocation order.
    pub calls: Vec<InvocationDataIn<R>>,
    /// Exception policy for the batch.
    pub policy: PolicySpec,
    /// True for `flush_and_continue`: the server must keep the object array
    /// alive and return a session id.
    pub keep_session: bool,
}

/// An owned batch request: what the client records and encodes.
pub type BatchRequest = BatchRequestIn<Owned>;

/// A batch request decoded as a borrowed view: the server dispatch path's
/// zero-copy form of [`BatchRequest`].
///
/// Method names and `Str`/`Bytes` argument payloads are slices into the
/// frame buffer the request was decoded from; the executor hands each
/// argument to the application as this view, and the application copies
/// out of it only what it keeps.
/// The policy is decoded owned — it is per batch, not per call, so its
/// strings are off the hot path.
pub type BatchRequestRef<'a> = BatchRequestIn<Borrowed<'a>>;

impl BatchRequestRef<'_> {
    /// Converts to an owned [`BatchRequest`], copying borrowed payloads.
    pub fn into_owned(self) -> BatchRequest {
        BatchRequest {
            session: self.session,
            calls: self
                .calls
                .into_iter()
                .map(InvocationDataRef::into_owned)
                .collect(),
            policy: self.policy,
            keep_session: self.keep_session,
        }
    }
}

impl BatchRequest {
    /// A borrowed view of this request, bridging owned frames onto the
    /// borrowed execution path without copying payloads.
    pub fn to_ref(&self) -> BatchRequestRef<'_> {
        BatchRequestRef {
            session: self.session,
            calls: self.calls.iter().map(InvocationData::to_ref).collect(),
            policy: self.policy.clone(),
            keep_session: self.keep_session,
        }
    }
}

/// Wire form of a [`RemoteError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorEnvelope {
    /// Error kind wire name.
    pub kind: String,
    /// Exception name.
    pub exception: String,
    /// Detail message.
    pub message: String,
}

impl From<&RemoteError> for ErrorEnvelope {
    fn from(err: &RemoteError) -> Self {
        ErrorEnvelope {
            kind: err.kind().as_str().to_owned(),
            exception: err.exception().to_owned(),
            message: err.message().to_owned(),
        }
    }
}

impl From<&ErrorEnvelope> for RemoteError {
    fn from(env: &ErrorEnvelope) -> Self {
        RemoteError::from_wire_parts(&env.kind, &env.exception, &env.message)
    }
}

/// Outcome of one batched call (or of one cursor member on one element).
#[derive(Debug, Clone, PartialEq)]
pub enum SlotOutcome {
    /// The call succeeded. Remote-returning calls report `Value::Null`; the
    /// object stays in the server's array (paper Section 4.4).
    Ok(Value),
    /// The call executed and threw.
    Err(ErrorEnvelope),
    /// The call never executed because something it depends on failed; the
    /// envelope is the root cause, which `Future::get` re-throws.
    Skipped(ErrorEnvelope),
    /// The call is a cursor member; its results are in the corresponding
    /// [`CursorResult`].
    InCursor,
}

/// Results of one cursor's sub-batch, for every array element.
#[derive(Debug, Clone, PartialEq)]
pub struct CursorResult {
    /// The call that created the cursor.
    pub cursor_seq: CallSeq,
    /// Number of elements in the server-side array.
    pub len: u32,
    /// Sequence numbers of the member calls, in recorded order.
    pub members: Vec<CallSeq>,
    /// `len` rows, each with one [`SlotOutcome`] per member call.
    pub rows: Vec<Vec<SlotOutcome>>,
}

/// The server's reply to a [`BatchRequest`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchResponse {
    /// Session id, present when the request asked to keep the session.
    pub session: Option<SessionId>,
    /// `(seq, outcome)` for every call in the request, in order.
    pub slots: Vec<(CallSeq, SlotOutcome)>,
    /// Per-cursor element results.
    pub cursors: Vec<CursorResult>,
    /// How many times the batch was restarted by a `Restart` action.
    pub restarts: u32,
}

// ---------------------------------------------------------------------------
// Wire encodings
// ---------------------------------------------------------------------------

const CTX: &str = "invocation";

impl WireCodec for CallSeq {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(u64::from(self.0));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.take_u32(CTX).map(CallSeq)
    }
}

impl WireCodec for Target {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Target::Remote(id) => {
                enc.put_u8(0);
                enc.put_varint(id.0);
            }
            Target::Result(seq) => {
                enc.put_u8(1);
                seq.encode(enc);
            }
            Target::CursorElement(seq, index) => {
                enc.put_u8(2);
                seq.encode(enc);
                enc.put_varint(u64::from(*index));
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.take_u8(CTX)? {
            0 => Target::Remote(ObjectId(dec.take_varint(CTX)?)),
            1 => Target::Result(CallSeq::decode(dec)?),
            2 => Target::CursorElement(CallSeq::decode(dec)?, dec.take_u32(CTX)?),
            tag => return Err(WireError::UnknownTag { context: CTX, tag }),
        })
    }
}

impl WireCodec for Arg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Arg::Value(v) => {
                enc.put_u8(0);
                v.encode(enc);
            }
            Arg::Result(seq) => {
                enc.put_u8(1);
                seq.encode(enc);
            }
            Arg::CursorElement(seq, index) => {
                enc.put_u8(2);
                seq.encode(enc);
                enc.put_varint(u64::from(*index));
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Arg::decode(dec)
    }
}

impl<R: Repr> ArgIn<R> {
    /// Decodes one argument into storage `R` (see [`ValueIn::decode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    pub fn decode<'de>(dec: &mut Decoder<'de>) -> Result<Self, WireError>
    where
        R: DecodeRepr<'de>,
    {
        Ok(match dec.take_u8(CTX)? {
            0 => ArgIn::Value(ValueIn::decode(dec)?),
            1 => ArgIn::Result(CallSeq::decode(dec)?),
            2 => ArgIn::CursorElement(CallSeq::decode(dec)?, dec.take_u32(CTX)?),
            tag => return Err(WireError::UnknownTag { context: CTX, tag }),
        })
    }
}

impl WireCodec for InvocationData {
    fn encode(&self, enc: &mut Encoder) {
        self.seq.encode(enc);
        self.target.encode(enc);
        enc.put_str(&self.method);
        enc.put_varint(self.args.len() as u64);
        for arg in &self.args {
            arg.encode(enc);
        }
        match self.cursor {
            None => enc.put_u8(0),
            Some(seq) => {
                enc.put_u8(1);
                seq.encode(enc);
            }
        }
        enc.put_bool(self.opens_cursor);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        InvocationData::decode(dec)
    }
}

impl<R: Repr> InvocationDataIn<R> {
    /// Decodes one recorded call into storage `R` (see
    /// [`ValueIn::decode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    pub fn decode<'de>(dec: &mut Decoder<'de>) -> Result<Self, WireError>
    where
        R: DecodeRepr<'de>,
    {
        Ok(InvocationDataIn {
            seq: CallSeq::decode(dec)?,
            target: Target::decode(dec)?,
            method: R::take_name(dec, CTX)?,
            args: dec.take_vec(CTX, ArgIn::decode)?,
            cursor: dec.take_option(CTX, CallSeq::decode)?,
            opens_cursor: dec.take_bool(CTX)?,
        })
    }
}

impl WireCodec for ExceptionAction {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            ExceptionAction::Break => 0,
            ExceptionAction::Continue => 1,
            ExceptionAction::Repeat => 2,
            ExceptionAction::Restart => 3,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.take_u8(CTX)? {
            0 => ExceptionAction::Break,
            1 => ExceptionAction::Continue,
            2 => ExceptionAction::Repeat,
            3 => ExceptionAction::Restart,
            tag => return Err(WireError::UnknownTag { context: CTX, tag }),
        })
    }
}

fn encode_opt_str(enc: &mut Encoder, s: &Option<String>) {
    match s {
        None => enc.put_u8(0),
        Some(s) => {
            enc.put_u8(1);
            enc.put_str(s);
        }
    }
}

impl WireCodec for PolicyRule {
    fn encode(&self, enc: &mut Encoder) {
        encode_opt_str(enc, &self.exception);
        encode_opt_str(enc, &self.method);
        match self.index {
            None => enc.put_u8(0),
            Some(i) => {
                enc.put_u8(1);
                enc.put_varint(u64::from(i));
            }
        }
        self.action.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(PolicyRule {
            exception: dec.take_option(CTX, |dec| dec.take_str(CTX))?,
            method: dec.take_option(CTX, |dec| dec.take_str(CTX))?,
            index: dec.take_option(CTX, |dec| dec.take_u32(CTX))?,
            action: ExceptionAction::decode(dec)?,
        })
    }
}

impl WireCodec for PolicySpec {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PolicySpec::Abort => enc.put_u8(0),
            PolicySpec::Continue => enc.put_u8(1),
            PolicySpec::Custom { default, rules } => {
                enc.put_u8(2);
                default.encode(enc);
                enc.put_varint(rules.len() as u64);
                for rule in rules {
                    rule.encode(enc);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.take_u8(CTX)? {
            0 => PolicySpec::Abort,
            1 => PolicySpec::Continue,
            2 => {
                let default = ExceptionAction::decode(dec)?;
                let rules = dec.take_vec(CTX, PolicyRule::decode)?;
                PolicySpec::Custom { default, rules }
            }
            tag => return Err(WireError::UnknownTag { context: CTX, tag }),
        })
    }
}

impl WireCodec for BatchRequest {
    fn encode(&self, enc: &mut Encoder) {
        match self.session {
            None => enc.put_u8(0),
            Some(SessionId(id)) => {
                enc.put_u8(1);
                enc.put_varint(id);
            }
        }
        enc.put_varint(self.calls.len() as u64);
        for call in &self.calls {
            call.encode(enc);
        }
        self.policy.encode(enc);
        enc.put_bool(self.keep_session);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        BatchRequest::decode(dec)
    }
}

impl<R: Repr> BatchRequestIn<R> {
    /// Decodes one batch request into storage `R` (see
    /// [`ValueIn::decode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated or malformed.
    pub fn decode<'de>(dec: &mut Decoder<'de>) -> Result<Self, WireError>
    where
        R: DecodeRepr<'de>,
    {
        Ok(BatchRequestIn {
            session: dec.take_option(CTX, |dec| Ok(SessionId(dec.take_varint(CTX)?)))?,
            calls: dec.take_vec(CTX, InvocationDataIn::decode)?,
            policy: PolicySpec::decode(dec)?,
            keep_session: dec.take_bool(CTX)?,
        })
    }
}

impl<'a> BatchRequestRef<'a> {
    /// Decodes exactly one borrowed batch request from `bytes`, rejecting
    /// trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the input is truncated, malformed, or
    /// longer than one request.
    pub fn from_wire_bytes(bytes: &'a [u8]) -> Result<BatchRequestRef<'a>, WireError> {
        let mut dec = Decoder::new(bytes);
        let request = BatchRequestRef::decode(&mut dec)?;
        dec.finish()?;
        Ok(request)
    }
}

impl WireCodec for ErrorEnvelope {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.kind);
        enc.put_str(&self.exception);
        enc.put_str(&self.message);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ErrorEnvelope {
            kind: dec.take_str(CTX)?,
            exception: dec.take_str(CTX)?,
            message: dec.take_str(CTX)?,
        })
    }
}

impl WireCodec for SlotOutcome {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SlotOutcome::Ok(v) => {
                enc.put_u8(0);
                v.encode(enc);
            }
            SlotOutcome::Err(env) => {
                enc.put_u8(1);
                env.encode(enc);
            }
            SlotOutcome::Skipped(env) => {
                enc.put_u8(2);
                env.encode(enc);
            }
            SlotOutcome::InCursor => enc.put_u8(3),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.take_u8(CTX)? {
            0 => SlotOutcome::Ok(Value::decode(dec)?),
            1 => SlotOutcome::Err(ErrorEnvelope::decode(dec)?),
            2 => SlotOutcome::Skipped(ErrorEnvelope::decode(dec)?),
            3 => SlotOutcome::InCursor,
            tag => return Err(WireError::UnknownTag { context: CTX, tag }),
        })
    }
}

impl WireCodec for CursorResult {
    fn encode(&self, enc: &mut Encoder) {
        self.cursor_seq.encode(enc);
        enc.put_varint(u64::from(self.len));
        enc.put_varint(self.members.len() as u64);
        for member in &self.members {
            member.encode(enc);
        }
        enc.put_varint(self.rows.len() as u64);
        for row in &self.rows {
            enc.put_varint(row.len() as u64);
            for outcome in row {
                outcome.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(CursorResult {
            cursor_seq: CallSeq::decode(dec)?,
            len: dec.take_u32(CTX)?,
            members: dec.take_vec(CTX, CallSeq::decode)?,
            rows: dec.take_vec(CTX, |dec| dec.take_vec(CTX, SlotOutcome::decode))?,
        })
    }
}

impl WireCodec for BatchResponse {
    fn encode(&self, enc: &mut Encoder) {
        match self.session {
            None => enc.put_u8(0),
            Some(SessionId(id)) => {
                enc.put_u8(1);
                enc.put_varint(id);
            }
        }
        enc.put_varint(self.slots.len() as u64);
        for (seq, outcome) in &self.slots {
            seq.encode(enc);
            outcome.encode(enc);
        }
        enc.put_varint(self.cursors.len() as u64);
        for cursor in &self.cursors {
            cursor.encode(enc);
        }
        enc.put_varint(u64::from(self.restarts));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(BatchResponse {
            session: dec.take_option(CTX, |dec| Ok(SessionId(dec.take_varint(CTX)?)))?,
            slots: dec.take_vec(CTX, |dec| {
                Ok((CallSeq::decode(dec)?, SlotOutcome::decode(dec)?))
            })?,
            cursors: dec.take_vec(CTX, CursorResult::decode)?,
            restarts: dec.take_u32(CTX)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueRef;

    fn sample_request() -> BatchRequest {
        BatchRequest {
            session: Some(SessionId(9)),
            calls: vec![
                InvocationData {
                    seq: CallSeq(0),
                    target: Target::Remote(ObjectId(3)),
                    method: "get_file".into(),
                    args: vec![Arg::Value(Value::Str("index.html".into()))],
                    cursor: None,
                    opens_cursor: false,
                },
                InvocationData {
                    seq: CallSeq(1),
                    target: Target::Result(CallSeq(0)),
                    method: "get_name".into(),
                    args: vec![],
                    cursor: None,
                    opens_cursor: false,
                },
                InvocationData {
                    seq: CallSeq(2),
                    target: Target::Remote(ObjectId(3)),
                    method: "all_files".into(),
                    args: vec![],
                    cursor: None,
                    opens_cursor: true,
                },
                InvocationData {
                    seq: CallSeq(3),
                    target: Target::Result(CallSeq(2)),
                    method: "get_size".into(),
                    args: vec![Arg::Result(CallSeq(0)), Arg::CursorElement(CallSeq(2), 1)],
                    cursor: Some(CallSeq(2)),
                    opens_cursor: false,
                },
                InvocationData {
                    seq: CallSeq(4),
                    target: Target::CursorElement(CallSeq(2), 7),
                    method: "delete".into(),
                    args: vec![],
                    cursor: None,
                    opens_cursor: false,
                },
            ],
            policy: PolicySpec::Custom {
                default: ExceptionAction::Continue,
                rules: vec![PolicyRule {
                    exception: Some("DuplicateAccountException".into()),
                    method: Some("find_credit_account".into()),
                    index: Some(0),
                    action: ExceptionAction::Break,
                }],
            },
            keep_session: true,
        }
    }

    fn sample_response() -> BatchResponse {
        BatchResponse {
            session: Some(SessionId(10)),
            slots: vec![
                (CallSeq(0), SlotOutcome::Ok(Value::Null)),
                (CallSeq(1), SlotOutcome::Ok(Value::Str("index.html".into()))),
                (
                    CallSeq(2),
                    SlotOutcome::Err(ErrorEnvelope {
                        kind: "application".into(),
                        exception: "PermissionError".into(),
                        message: "denied".into(),
                    }),
                ),
                (
                    CallSeq(3),
                    SlotOutcome::Skipped(ErrorEnvelope {
                        kind: "application".into(),
                        exception: "PermissionError".into(),
                        message: "denied".into(),
                    }),
                ),
                (CallSeq(4), SlotOutcome::InCursor),
            ],
            cursors: vec![CursorResult {
                cursor_seq: CallSeq(2),
                len: 2,
                members: vec![CallSeq(4)],
                rows: vec![
                    vec![SlotOutcome::Ok(Value::I64(10))],
                    vec![SlotOutcome::Ok(Value::I64(20))],
                ],
            }],
            restarts: 1,
        }
    }

    #[test]
    fn batch_request_round_trips() {
        let req = sample_request();
        let decoded = BatchRequest::from_wire_bytes(&req.to_wire_bytes()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn borrowed_batch_request_matches_owned_decode() {
        let req = sample_request();
        let bytes = req.to_wire_bytes();
        let borrowed = BatchRequestRef::from_wire_bytes(&bytes).unwrap();
        assert_eq!(borrowed.into_owned(), req);
        assert_eq!(req.to_ref().into_owned(), req);
    }

    #[test]
    fn borrowed_batch_request_payloads_point_into_frame() {
        let req = sample_request();
        let bytes = req.to_wire_bytes();
        let borrowed = BatchRequestRef::from_wire_bytes(&bytes).unwrap();
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        for call in &borrowed.calls {
            assert!(range.contains(&(call.method.as_ptr() as usize)));
            for arg in &call.args {
                if let ArgRef::Value(ValueRef::Str(s)) = arg {
                    assert!(range.contains(&(s.as_ptr() as usize)));
                }
            }
        }
    }

    #[test]
    fn batch_response_round_trips() {
        let resp = sample_response();
        let decoded = BatchResponse::from_wire_bytes(&resp.to_wire_bytes()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn empty_request_round_trips() {
        let req = BatchRequest {
            session: None,
            calls: vec![],
            policy: PolicySpec::Abort,
            keep_session: false,
        };
        let decoded = BatchRequest::from_wire_bytes(&req.to_wire_bytes()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn abort_policy_always_breaks() {
        let err = RemoteError::application("Anything", "x");
        assert_eq!(
            PolicySpec::Abort.action_for(&err, "m", 3),
            ExceptionAction::Break
        );
    }

    #[test]
    fn continue_policy_always_continues() {
        let err = RemoteError::application("Anything", "x");
        assert_eq!(
            PolicySpec::Continue.action_for(&err, "m", 0),
            ExceptionAction::Continue
        );
    }

    #[test]
    fn custom_policy_first_match_wins() {
        let policy = PolicySpec::Custom {
            default: ExceptionAction::Continue,
            rules: vec![
                PolicyRule {
                    exception: Some("A".into()),
                    method: None,
                    index: None,
                    action: ExceptionAction::Repeat,
                },
                PolicyRule {
                    exception: Some("A".into()),
                    method: Some("m".into()),
                    index: None,
                    action: ExceptionAction::Break,
                },
            ],
        };
        let err = RemoteError::application("A", "x");
        // The first rule matches even though the second is more specific.
        assert_eq!(policy.action_for(&err, "m", 0), ExceptionAction::Repeat);
    }

    #[test]
    fn custom_policy_matches_all_fields() {
        let policy = PolicySpec::Custom {
            default: ExceptionAction::Continue,
            rules: vec![PolicyRule {
                exception: Some("DuplicateAccountException".into()),
                method: Some("find_credit_account".into()),
                index: Some(0),
                action: ExceptionAction::Break,
            }],
        };
        let err = RemoteError::application("DuplicateAccountException", "dup");
        assert_eq!(
            policy.action_for(&err, "find_credit_account", 0),
            ExceptionAction::Break
        );
        // Wrong index: default applies.
        assert_eq!(
            policy.action_for(&err, "find_credit_account", 1),
            ExceptionAction::Continue
        );
        // Wrong method: default applies.
        assert_eq!(
            policy.action_for(&err, "other", 0),
            ExceptionAction::Continue
        );
        // Wrong exception: default applies.
        let other = RemoteError::application("Other", "x");
        assert_eq!(
            policy.action_for(&other, "find_credit_account", 0),
            ExceptionAction::Continue
        );
    }

    #[test]
    fn wildcard_rule_matches_everything() {
        let policy = PolicySpec::Custom {
            default: ExceptionAction::Break,
            rules: vec![PolicyRule {
                exception: None,
                method: None,
                index: None,
                action: ExceptionAction::Restart,
            }],
        };
        let err = RemoteError::application("Whatever", "x");
        assert_eq!(policy.action_for(&err, "m", 42), ExceptionAction::Restart);
    }

    #[test]
    fn error_envelope_round_trips_through_remote_error() {
        let original = RemoteError::application("FileNotFoundException", "gone");
        let env = ErrorEnvelope::from(&original);
        let back = RemoteError::from(&env);
        assert_eq!(back, original);
    }

    #[test]
    fn default_policy_is_abort() {
        assert_eq!(PolicySpec::default(), PolicySpec::Abort);
    }

    #[test]
    fn truncated_request_fails_cleanly() {
        let bytes = sample_request().to_wire_bytes();
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(BatchRequest::from_wire_bytes(&bytes[..cut]).is_err());
        }
    }

    /// One past `u32::MAX`: a decoder that truncates reads it as 1.
    const PAST_U32: u64 = (1 << 32) + 1;

    /// The bytes `prefix` writes, then [`PAST_U32`] where a `u32` is read.
    fn past_u32(prefix: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut enc = Encoder::new();
        prefix(&mut enc);
        enc.put_varint(PAST_U32);
        enc.into_bytes()
    }

    /// A cursor-element reference to call 0, up to its index.
    fn cursor_element_of_call_0(enc: &mut Encoder) {
        enc.put_u8(2);
        CallSeq(0).encode(enc);
    }

    #[test]
    fn call_seq_past_u32_is_rejected() {
        let bytes = past_u32(|_| {});
        assert_eq!(
            CallSeq::from_wire_bytes(&bytes),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn target_cursor_index_past_u32_is_rejected() {
        let bytes = past_u32(cursor_element_of_call_0);
        assert_eq!(
            Target::from_wire_bytes(&bytes),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn arg_cursor_index_past_u32_is_rejected_owned_and_borrowed() {
        let bytes = past_u32(cursor_element_of_call_0);
        assert_eq!(Arg::from_wire_bytes(&bytes), Err(WireError::VarintOverflow));
        let borrowed = ArgRef::decode(&mut Decoder::new(&bytes));
        assert_eq!(borrowed, Err(WireError::VarintOverflow));
    }

    #[test]
    fn policy_rule_index_past_u32_is_rejected() {
        // No exception name, no method name, then a present index.
        let bytes = past_u32(|enc| {
            enc.put_u8(0);
            enc.put_u8(0);
            enc.put_u8(1);
        });
        assert_eq!(
            PolicyRule::from_wire_bytes(&bytes),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn cursor_result_len_past_u32_is_rejected() {
        let bytes = past_u32(|enc| CallSeq(2).encode(enc));
        assert_eq!(
            CursorResult::from_wire_bytes(&bytes),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn batch_response_restarts_past_u32_is_rejected() {
        // No session, no slots, no cursors, then the restart count.
        let bytes = past_u32(|enc| {
            enc.put_u8(0);
            enc.put_varint(0);
            enc.put_varint(0);
        });
        assert_eq!(
            BatchResponse::from_wire_bytes(&bytes),
            Err(WireError::VarintOverflow)
        );
    }
}

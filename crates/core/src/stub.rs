//! Untyped batch stubs and cursors — the recording handles that generated
//! typed stubs (`BFoo`, `CFoo`) wrap.

use std::sync::Arc;

use brmi_wire::{ObjectId, RemoteError, Value};

use crate::batch::{Batch, Receiver};
use crate::future::{BatchFuture, FutureSlot};

/// What a [`BatchStub`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StubKind {
    /// A pre-existing exported object (a batch root).
    Remote(ObjectId),
    /// The remote result of call `seq` in this chain; `cursor_of` is set
    /// when the stub was produced inside a cursor's sub-batch.
    Call { seq: u32, cursor_of: Option<u32> },
}

/// An untyped client-side proxy for a remote object inside a batch.
///
/// Method calls are recorded, not sent; see the paper's invocation
/// monitoring phase (Section 4.1). Typed wrappers are generated by
/// [`remote_interface!`](crate::remote_interface).
#[derive(Debug, Clone)]
pub struct BatchStub {
    batch: Batch,
    kind: StubKind,
}

impl BatchStub {
    pub(crate) fn new_root(batch: Batch, id: ObjectId) -> Self {
        BatchStub {
            batch,
            kind: StubKind::Remote(id),
        }
    }

    pub(crate) fn kind(&self) -> StubKind {
        self.kind
    }

    /// The batch this stub records into.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Records a call whose (non-remote) result will be delivered through
    /// the returned future after `flush`.
    pub fn call_future<T: brmi_wire::FromValue>(
        &self,
        method: &'static str,
        args: impl IntoIterator<Item = RecordArg>,
    ) -> BatchFuture<T> {
        let recorded = self.batch.record(Receiver::Stub(self), method, args, false);
        BatchFuture::from_slot(recorded.slot)
    }

    /// Records a call returning a remote object; the result is a new stub
    /// usable later in the same chain.
    pub fn call_remote(
        &self,
        method: &'static str,
        args: impl IntoIterator<Item = RecordArg>,
    ) -> BatchStub {
        let recorded = self.batch.record(Receiver::Stub(self), method, args, false);
        BatchStub {
            batch: self.batch.clone(),
            kind: StubKind::Call {
                seq: recorded.seq,
                cursor_of: self.cursor_context(),
            },
        }
    }

    /// Records a call returning an array of remote objects, opening a
    /// cursor over it (paper Section 3.4).
    pub fn call_cursor(
        &self,
        method: &'static str,
        args: impl IntoIterator<Item = RecordArg>,
    ) -> CursorHandle {
        let recorded = self.batch.record(Receiver::Stub(self), method, args, true);
        CursorHandle {
            batch: self.batch.clone(),
            seq: recorded.seq,
            slot: recorded.slot,
        }
    }

    /// Checks whether the call that created this stub succeeded, re-throwing
    /// its (or its dependencies') exception — the paper's `ok()`
    /// (Section 3.3).
    ///
    /// # Errors
    ///
    /// The creating call's exception; a protocol error before `flush`.
    pub fn ok(&self) -> Result<(), RemoteError> {
        match self.kind {
            // A root stub wraps an existing object: always fine.
            StubKind::Remote(_) => Ok(()),
            StubKind::Call { seq, .. } => match self.batch.slot_of(seq) {
                Some(slot) => slot.check(),
                None => Ok(()),
            },
        }
    }

    fn cursor_context(&self) -> Option<u32> {
        match self.kind {
            StubKind::Remote(_) => None,
            StubKind::Call { cursor_of, .. } => cursor_of,
        }
    }
}

/// An untyped cursor: stands for *every* element of a server-side array
/// before `flush`, and iterates over per-element results afterwards.
#[derive(Debug, Clone)]
pub struct CursorHandle {
    batch: Batch,
    seq: u32,
    slot: Arc<FutureSlot>,
}

impl CursorHandle {
    pub(crate) fn seq(&self) -> u32 {
        self.seq
    }

    /// The batch this cursor records into.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Records a future-returning call on the cursor. Before `flush` this
    /// is applied to every element; after `flush` (in a chained batch) it
    /// applies to the current element only (paper Section 3.5).
    pub fn call_future<T: brmi_wire::FromValue>(
        &self,
        method: &'static str,
        args: impl IntoIterator<Item = RecordArg>,
    ) -> BatchFuture<T> {
        let recorded = self
            .batch
            .record(Receiver::Cursor(self), method, args, false);
        BatchFuture::from_slot(recorded.slot)
    }

    /// Records a remote-returning call on the cursor; the resulting stub is
    /// itself per-element (a member of this cursor's sub-batch).
    pub fn call_remote(
        &self,
        method: &'static str,
        args: impl IntoIterator<Item = RecordArg>,
    ) -> BatchStub {
        let recorded = self
            .batch
            .record(Receiver::Cursor(self), method, args, false);
        BatchStub {
            batch: self.batch.clone(),
            kind: StubKind::Call {
                seq: recorded.seq,
                cursor_of: Some(self.seq),
            },
        }
    }

    /// Records an array-returning call on the cursor. Nested cursors are
    /// not supported; the call is recorded as a recording error that
    /// surfaces at `flush` (and on the returned handle's `ok()`).
    pub fn call_cursor(
        &self,
        method: &'static str,
        args: impl IntoIterator<Item = RecordArg>,
    ) -> CursorHandle {
        let recorded = self
            .batch
            .record(Receiver::Cursor(self), method, args, true);
        CursorHandle {
            batch: self.batch.clone(),
            seq: recorded.seq,
            slot: recorded.slot,
        }
    }

    /// Advances to the next element, updating every future created on this
    /// cursor. Returns `false` when the cursor is exhausted (or the batch
    /// has not been flushed yet).
    pub fn next(&self) -> bool {
        self.batch.cursor_next(self.seq)
    }

    /// Number of elements in the server-side array; `None` before `flush`.
    pub fn len(&self) -> Option<u32> {
        self.batch.cursor_len(self.seq)
    }

    /// True when the flushed cursor has no elements.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|len| len == 0)
    }

    /// Checks whether the cursor-creating call succeeded (see
    /// [`BatchStub::ok`]).
    ///
    /// # Errors
    ///
    /// The creating call's exception; a protocol error before `flush`.
    pub fn ok(&self) -> Result<(), RemoteError> {
        self.slot.check()
    }
}

/// One argument of a recorded call.
#[derive(Debug, Clone)]
pub enum RecordArg {
    /// A value passed by copy.
    Value(Value),
    /// A batch stub from the same chain (sent as a sequence number).
    Stub(BatchStub),
    /// A cursor from the same chain (the call becomes per-element).
    Cursor(CursorHandle),
}

impl RecordArg {
    /// Convenience constructor from anything convertible to a wire value.
    pub fn of(value: &impl brmi_wire::ToValue) -> Self {
        RecordArg::Value(value.to_value())
    }
}

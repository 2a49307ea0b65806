//! Futures populated by batch execution.
//!
//! A [`BatchFuture`] is the placeholder returned by every value-returning
//! batched call (paper Section 2): empty until `flush`, then holding either
//! the call's result or the exception it — or anything it depends on —
//! raised. Futures created inside a cursor change value on every
//! `next()` (Section 4.3).

use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use brmi_wire::{FromValue, RemoteError, RemoteErrorKind, Value};
use parking_lot::Mutex;

/// Completion cell for one pipelined flush ([`Batch::flush_async`]): the
/// worker thread performing the round trip completes it after the
/// response has been applied to every slot, and anyone joining the flush —
/// the [`PendingFlush`] handle or a future touched before the reply
/// arrived — blocks here.
///
/// [`Batch::flush_async`]: crate::Batch::flush_async
/// [`PendingFlush`]: crate::batch::PendingFlush
#[derive(Debug)]
pub(crate) struct FlushGate {
    result: StdMutex<Option<Result<(), RemoteError>>>,
    done: Condvar,
}

impl FlushGate {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(FlushGate {
            result: StdMutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Publishes the flush outcome and wakes every waiter. Call only after
    /// the response (or failure) has been applied to the slots.
    pub(crate) fn complete(&self, result: Result<(), RemoteError>) {
        *self.result.lock().expect("flush gate lock") = Some(result);
        self.done.notify_all();
    }

    /// Blocks until the flush completes; returns its outcome.
    pub(crate) fn wait(&self) -> Result<(), RemoteError> {
        let mut guard = self.result.lock().expect("flush gate lock");
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = self.done.wait(guard).expect("flush gate lock");
        }
    }

    /// The outcome if the flush has completed, without blocking.
    pub(crate) fn try_result(&self) -> Option<Result<(), RemoteError>> {
        self.result.lock().expect("flush gate lock").clone()
    }
}

/// The shared state behind one future (and behind stub `ok()` checks).
#[derive(Debug)]
pub(crate) struct FutureSlot {
    state: Mutex<SlotState>,
    /// Set while a pipelined flush covering this slot is in flight; the
    /// first `get()`/`ok()` touch claims the reply by waiting on it
    /// (paper-style "replies claimed on first future touch").
    flush: Mutex<Option<Arc<FlushGate>>>,
}

#[derive(Debug)]
pub(crate) enum SlotState {
    /// No result yet: the batch has not been flushed (or the cursor not
    /// advanced).
    Pending,
    /// The call succeeded with this value.
    Ready(Value),
    /// The call failed, or something it depends on failed.
    Failed(RemoteError),
}

impl FutureSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(FutureSlot {
            state: Mutex::new(SlotState::Pending),
            flush: Mutex::new(None),
        })
    }

    /// Marks this slot as covered by an in-flight pipelined flush.
    pub(crate) fn attach_flush(&self, gate: Arc<FlushGate>) {
        *self.flush.lock() = Some(gate);
    }

    /// Claims the slot's state and views it through `view` under the
    /// lock: when a pipelined flush is in flight, a touch blocks until the
    /// flush completes (the worker populates every slot before releasing
    /// waiters), then re-reads the state. The view decides what to copy
    /// out — `get` clones the value once, state checks clone nothing.
    ///
    /// The gate is *cloned*, not taken: any number of threads may touch
    /// futures of the same segment concurrently, and each must find the
    /// gate to wait on. It is cleared only after the wait, once the flush
    /// is known to be complete.
    pub(crate) fn claim<R>(&self, view: impl Fn(&SlotState) -> R) -> R {
        {
            let state = self.state.lock();
            if !matches!(*state, SlotState::Pending) {
                return view(&state);
            }
        }
        let gate = self.flush.lock().clone();
        if let Some(gate) = gate {
            let _ = gate.wait();
            *self.flush.lock() = None;
        }
        // Re-read either way: a flush may have applied the result between
        // the first look and the gate lookup.
        view(&self.state.lock())
    }

    pub(crate) fn set_ready(&self, value: Value) {
        *self.state.lock() = SlotState::Ready(value);
    }

    pub(crate) fn set_failed(&self, error: RemoteError) {
        *self.state.lock() = SlotState::Failed(error);
    }

    /// The `ok()` view: succeeded, failed, or not yet executed. Claims the
    /// reply of an in-flight pipelined flush first.
    pub(crate) fn check(&self) -> Result<(), RemoteError> {
        self.claim(SlotState::outcome)
    }

    /// As [`FutureSlot::check`] but *without* claiming an in-flight flush —
    /// for callers inside the flush-apply path itself, where waiting on the
    /// current flush's own gate would self-deadlock.
    pub(crate) fn check_applied(&self) -> Result<(), RemoteError> {
        self.state.lock().outcome()
    }

    /// Failure-only view: `Err` when the slot holds a failure, `Ok` for
    /// both pending and ready slots.
    pub(crate) fn check_failed(&self) -> Result<(), RemoteError> {
        match &*self.state.lock() {
            SlotState::Failed(err) => Err(err.clone()),
            _ => Ok(()),
        }
    }
}

impl SlotState {
    /// Success, failure or not-yet-executed, without copying a value.
    fn outcome(&self) -> Result<(), RemoteError> {
        match self {
            SlotState::Pending => Err(not_flushed()),
            SlotState::Ready(_) => Ok(()),
            SlotState::Failed(err) => Err(err.clone()),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            SlotState::Pending => "pending",
            SlotState::Ready(_) => "ready",
            SlotState::Failed(_) => "failed",
        }
    }
}

pub(crate) fn not_flushed() -> RemoteError {
    RemoteError::new(
        RemoteErrorKind::Protocol,
        "future accessed before the batch was flushed",
    )
}

/// A typed placeholder for the result of one batched call.
///
/// Call [`get`](BatchFuture::get) after `flush` to obtain the value.
///
/// # Example
///
/// ```no_run
/// # use brmi::BatchFuture;
/// # fn demo(name: BatchFuture<String>, size: BatchFuture<i64>) -> Result<(), brmi_wire::RemoteError> {
/// // after batch.flush():
/// println!("file {} size: {}", name.get()?, size.get()?);
/// # Ok(())
/// # }
/// ```
pub struct BatchFuture<T> {
    slot: Arc<FutureSlot>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for BatchFuture<T> {
    fn clone(&self) -> Self {
        BatchFuture {
            slot: Arc::clone(&self.slot),
            _marker: PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for BatchFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.slot.state.lock().name();
        f.debug_struct("BatchFuture")
            .field("state", &state)
            .finish()
    }
}

impl<T: FromValue> BatchFuture<T> {
    pub(crate) fn from_slot(slot: Arc<FutureSlot>) -> Self {
        BatchFuture {
            slot,
            _marker: PhantomData,
        }
    }

    /// Retrieves the value.
    ///
    /// # Errors
    ///
    /// * before `flush` (or before `next()` for cursor futures) — a
    ///   protocol error;
    /// * when the call threw — that exception;
    /// * when any call this result depends on threw — that exception,
    ///   re-thrown here (paper Section 3.3);
    /// * when the value cannot convert to `T` — a marshalling error.
    ///
    /// When the batch was shipped with [`Batch::flush_async`], the first
    /// touch of any of its futures blocks until the in-flight round trip
    /// completes, then behaves as above.
    ///
    /// [`Batch::flush_async`]: crate::Batch::flush_async
    pub fn get(&self) -> Result<T, RemoteError> {
        // The one deep copy of the value; the slot keeps its own so `get`
        // stays repeatable.
        let value = self.slot.claim(|state| match state {
            SlotState::Pending => Err(not_flushed()),
            SlotState::Ready(value) => Ok(value.clone()),
            SlotState::Failed(err) => Err(err.clone()),
        })?;
        T::from_value(value)
    }

    /// True once the future holds a value or an error.
    pub fn is_done(&self) -> bool {
        !matches!(*self.slot.state.lock(), SlotState::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_future_refuses_get() {
        let fut: BatchFuture<i32> = BatchFuture::from_slot(FutureSlot::new());
        let err = fut.get().unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::Protocol);
        assert!(!fut.is_done());
    }

    #[test]
    fn ready_future_converts_value() {
        let slot = FutureSlot::new();
        slot.set_ready(Value::I32(41));
        let fut: BatchFuture<i32> = BatchFuture::from_slot(slot);
        assert_eq!(fut.get().unwrap(), 41);
        assert!(fut.is_done());
        // get is repeatable
        assert_eq!(fut.get().unwrap(), 41);
    }

    #[test]
    fn failed_future_rethrows() {
        let slot = FutureSlot::new();
        slot.set_failed(RemoteError::application("PermissionError", "denied"));
        let fut: BatchFuture<String> = BatchFuture::from_slot(slot);
        let err = fut.get().unwrap_err();
        assert_eq!(err.exception(), "PermissionError");
    }

    #[test]
    fn type_mismatch_is_marshal_error() {
        let slot = FutureSlot::new();
        slot.set_ready(Value::Str("x".into()));
        let fut: BatchFuture<i32> = BatchFuture::from_slot(slot);
        let err = fut.get().unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::BadArguments);
    }

    #[test]
    fn cursor_style_reassignment_changes_value() {
        let slot = FutureSlot::new();
        let fut: BatchFuture<i64> = BatchFuture::from_slot(Arc::clone(&slot));
        slot.set_ready(Value::I64(1));
        assert_eq!(fut.get().unwrap(), 1);
        slot.set_ready(Value::I64(2));
        assert_eq!(fut.get().unwrap(), 2);
        slot.set_failed(RemoteError::application("E", "gone"));
        assert!(fut.get().is_err());
    }

    #[test]
    fn clones_share_the_slot() {
        let slot = FutureSlot::new();
        let fut: BatchFuture<i32> = BatchFuture::from_slot(Arc::clone(&slot));
        let cloned = fut.clone();
        slot.set_ready(Value::I32(9));
        assert_eq!(cloned.get().unwrap(), 9);
    }

    #[test]
    fn check_mirrors_states() {
        let slot = FutureSlot::new();
        assert!(slot.check().is_err());
        slot.set_ready(Value::Null);
        assert!(slot.check().is_ok());
        slot.set_failed(RemoteError::application("E", "x"));
        assert!(slot.check().is_err());
    }

    #[test]
    fn debug_shows_state() {
        let slot = FutureSlot::new();
        let fut: BatchFuture<i32> = BatchFuture::from_slot(Arc::clone(&slot));
        assert!(format!("{fut:?}").contains("pending"));
        slot.set_ready(Value::I32(1));
        assert!(format!("{fut:?}").contains("ready"));
    }
}

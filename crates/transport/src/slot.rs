//! The fill-once reply slot: one thread stores a value, others block until
//! it is there.
//!
//! Every tier hands one round trip's outcome to its waiting caller through
//! this cell: the mux reader thread to a blocked caller, the relay flusher
//! to a downstream handler, a fetcher probe to every caller coalesced onto
//! it, and a pipelined flush worker to whoever touches one of its futures.
//! A wait is a plain `Mutex` + `Condvar` park, with no spin and no timeout.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A cell that one thread fills with [`OneShot::set`] and others wait on:
/// a single waiter moves the value out with [`OneShot::take`], any number
/// of waiters copy it with [`OneShot::get`].
#[derive(Debug)]
pub struct OneShot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        OneShot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

impl<T> OneShot<T> {
    /// Stores `value`, then wakes every waiter.
    pub fn set(&self, value: T) {
        *self.lock() = Some(value);
        self.ready.notify_all();
    }

    /// Blocks until the value is set, then moves it out — no copy, so a
    /// reply frame carrying hundreds of results is handed over as is. For
    /// a slot with exactly one waiter: the slot is empty afterwards.
    pub fn take(&self) -> T {
        self.wait().take().expect("woken with a value")
    }

    // The lock guards one store or read of the `Option`, which a panic
    // cannot leave half done, so a poisoned lock is still consistent.
    fn lock(&self) -> MutexGuard<'_, Option<T>> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait(&self) -> MutexGuard<'_, Option<T>> {
        self.ready
            .wait_while(self.lock(), |value| value.is_none())
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Clone> OneShot<T> {
    /// Blocks until the value is set, then returns a copy of it.
    pub fn get(&self) -> T {
        self.wait().as_ref().expect("woken with a value").clone()
    }

    /// A copy of the value if it is set, without blocking.
    pub fn try_get(&self) -> Option<T> {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn set_before_wait_returns_at_once() {
        let slot = OneShot::default();
        slot.set(7);
        assert_eq!(slot.get(), 7);
        assert_eq!(slot.take(), 7);
    }

    #[test]
    fn waiter_blocked_before_set_is_released_by_it() {
        let slot = Arc::new(OneShot::default());
        let waiter = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.take())
        };
        // A parked waiter is not observable, so the pause only makes the
        // wait-first order likely; the assertions hold in either order.
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "nothing set yet");
        slot.set("reply".to_owned());
        assert_eq!(waiter.join().unwrap(), "reply");
    }

    #[test]
    fn one_set_releases_every_getter() {
        let slot = Arc::new(OneShot::default());
        let started = Arc::new(Barrier::new(9));
        let getters: Vec<_> = (0..8)
            .map(|_| {
                let (slot, started) = (Arc::clone(&slot), Arc::clone(&started));
                thread::spawn(move || {
                    started.wait();
                    slot.get()
                })
            })
            .collect();
        started.wait();
        slot.set(vec![1u8, 2, 3]);
        for getter in getters {
            assert_eq!(getter.join().unwrap(), vec![1, 2, 3]);
        }
        assert_eq!(slot.try_get(), Some(vec![1, 2, 3]), "get leaves it set");
    }

    #[test]
    fn try_get_does_not_block() {
        let slot = OneShot::default();
        assert_eq!(slot.try_get(), None);
        slot.set(Ok::<(), String>(()));
        assert_eq!(slot.try_get(), Some(Ok(())));
    }

    #[test]
    fn take_moves_a_payload_that_cannot_be_cloned() {
        struct Frame(Vec<u64>);
        let slot = Arc::new(OneShot::default());
        let setter = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.set(Frame((0..512).collect())))
        };
        let Frame(results) = slot.take();
        assert_eq!(results.len(), 512);
        setter.join().unwrap();
    }
}

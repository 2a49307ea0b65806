//! Property test: for arbitrary programs and arbitrary *demand points*,
//! the implicit runtime never lets the program observe anything plain
//! RMI would not — the transparency requirement that defines implicit
//! batching — and leaves the server in exactly the state RMI leaves it.
//!
//! The demand schedule is part of the generated program: after each call
//! the program may or may not immediately demand the value. Late demands
//! are the degree of freedom an implicit system exploits (they batch
//! more); the invariant is that they must not change semantics.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use brmi::{remote_interface, BatchExecutor};
use brmi_implicit::{ImplicitRuntime, Lazy};
use brmi_rmi::{Connection, RemoteRef, RmiServer};
use brmi_transport::sim::SimTransport;
use brmi_wire::RemoteError;
use parking_lot::Mutex;
use proptest::prelude::*;

remote_interface! {
    /// A register bank with failure injection.
    pub interface Bank {
        fn get(index: i32) -> i32;
        fn put(index: i32, v: i32);
        fn fail_if_negative(v: i32) -> i32;
    }
}

struct Registers {
    slots: Mutex<Vec<i32>>,
    executed: AtomicU32,
}

impl Bank for Registers {
    fn get(&self, index: i32) -> Result<i32, RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.slots
            .lock()
            .get(index as usize)
            .copied()
            .ok_or_else(|| RemoteError::application("OutOfRange", "no such register"))
    }

    fn put(&self, index: i32, v: i32) -> Result<(), RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        match self.slots.lock().get_mut(index as usize) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(RemoteError::application("OutOfRange", "no such register")),
        }
    }

    fn fail_if_negative(&self, v: i32) -> Result<i32, RemoteError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        if v < 0 {
            Err(RemoteError::application("Negative", "rejected"))
        } else {
            Ok(v)
        }
    }
}

/// One step of a generated client program. `eager` controls the demand
/// schedule under the implicit runtime; under RMI every call is
/// synchronous and `eager` is irrelevant.
#[derive(Debug, Clone)]
enum Step {
    Get { index: i32, eager: bool },
    Put { index: i32, v: i32 },
    Check { v: i32, eager: bool },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..8i32, any::<bool>()).prop_map(|(index, eager)| Step::Get { index, eager }),
        (0..8i32, -50..50i32).prop_map(|(index, v)| Step::Put { index, v }),
        (-3..40i32, any::<bool>()).prop_map(|(v, eager)| Step::Check { v, eager }),
    ]
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Val(i32),
    Unit,
    Error(String),
    /// The program unwound (or discarded the call) before observing it.
    Unreached,
}

fn fresh(values: &[i32]) -> (Connection, RemoteRef, Arc<Registers>) {
    let registers = Arc::new(Registers {
        slots: Mutex::new(values.to_vec()),
        executed: AtomicU32::new(0),
    });
    let server = RmiServer::new();
    BatchExecutor::install(&server);
    let id = server
        .bind("bank", BankSkeleton::remote_arc(registers.clone()))
        .expect("bind");
    let conn = Connection::new(Arc::new(SimTransport::in_process(server.clone())));
    let root = conn.reference(id);
    (conn, root, registers)
}

/// Sequential RMI execution: every call runs at its program point; the
/// first exception unwinds, leaving the rest unreached.
fn run_rmi(values: &[i32], steps: &[Step]) -> (Vec<Seen>, Vec<i32>, u32) {
    let (_conn, root, registers) = fresh(values);
    let stub = BankStub::new(root);
    let mut seen = vec![Seen::Unreached; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let outcome = match step {
            Step::Get { index, .. } => stub.get(*index).map(Seen::Val),
            Step::Put { index, v } => stub.put(*index, *v).map(|()| Seen::Unit),
            Step::Check { v, .. } => stub.fail_if_negative(*v).map(Seen::Val),
        };
        match outcome {
            Ok(observed) => seen[i] = observed,
            Err(err) => {
                seen[i] = Seen::Error(err.exception().to_owned());
                break; // uncaught: the program unwinds
            }
        }
    }
    let state = registers.slots.lock().clone();
    let executed = registers.executed.load(Ordering::Relaxed);
    (seen, state, executed)
}

/// The same program under the implicit runtime. Eager steps demand their
/// value immediately; late steps are demanded at program end. The program
/// is exception-oblivious (it never catches), so the first error it
/// *observes* ends it — mirroring the unwinding RMI program.
fn run_implicit(values: &[i32], steps: &[Step]) -> (Vec<Seen>, Vec<i32>, u32) {
    let (conn, root, registers) = fresh(values);
    let rt = ImplicitRuntime::new(conn);
    let bank: BBank = rt.stub(&root);
    let mut seen = vec![Seen::Unreached; steps.len()];
    let mut late_values: Vec<(usize, Lazy<i32>)> = Vec::new();
    let mut late_puts: Vec<(usize, Lazy<()>)> = Vec::new();
    let mut unwound = false;
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Get { index, eager } => {
                let lazy = rt.lazy(bank.get(*index));
                if *eager {
                    match lazy.get() {
                        Ok(v) => seen[i] = Seen::Val(v),
                        Err(e) => {
                            seen[i] = Seen::Error(e.exception().to_owned());
                            unwound = true;
                            break;
                        }
                    }
                } else {
                    late_values.push((i, lazy));
                }
            }
            Step::Check { v, eager } => {
                let lazy = rt.lazy(bank.fail_if_negative(*v));
                if *eager {
                    match lazy.get() {
                        Ok(v) => seen[i] = Seen::Val(v),
                        Err(e) => {
                            seen[i] = Seen::Error(e.exception().to_owned());
                            unwound = true;
                            break;
                        }
                    }
                } else {
                    late_values.push((i, lazy));
                }
            }
            Step::Put { index, v } => {
                late_puts.push((i, rt.lazy(bank.put(*index, *v))));
            }
        }
    }
    // Program end (or unwind): flush/release, then read back every late
    // demand that was actually shipped. After an unwind only the already
    // resolved ones are read — a real unwinding program observes nothing
    // more, but reading the resolved slots lets the property check them
    // against RMI's observations.
    let _ = rt.finish();
    for (i, lazy) in late_puts {
        if unwound && !lazy.is_done() {
            continue;
        }
        seen[i] = match lazy.get() {
            Ok(()) => Seen::Unit,
            Err(e) => Seen::Error(e.exception().to_owned()),
        };
    }
    for (i, lazy) in late_values {
        if unwound && !lazy.is_done() {
            continue;
        }
        seen[i] = match lazy.get() {
            Ok(v) => Seen::Val(v),
            Err(e) => Seen::Error(e.exception().to_owned()),
        };
    }
    let state = registers.slots.lock().clone();
    let executed = registers.executed.load(Ordering::Relaxed);
    (seen, state, executed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two-part transparency property.
    ///
    /// 1. **Observation agreement**: any step the RMI program reached
    ///    must be observed identically under the implicit runtime.
    ///    (The implicit runtime may know *more*: a late demand after an
    ///    unobserved failure reports the abort cause where RMI simply
    ///    never got there — that is unobservable to a real unwinding
    ///    program, which is gone by then.)
    /// 2. **Server-state agreement**: the registers end identical, i.e.
    ///    the implicit runtime executed exactly the mutations RMI did —
    ///    no speculative call escaped.
    #[test]
    fn implicit_is_transparent(
        values in proptest::collection::vec(-20i32..20, 6..9),
        steps in proptest::collection::vec(arb_step(), 0..20),
    ) {
        let (rmi_seen, rmi_state, rmi_executed) = run_rmi(&values, &steps);
        let (imp_seen, imp_state, imp_executed) = run_implicit(&values, &steps);
        let first_rmi_error = rmi_seen
            .iter()
            .position(|s| matches!(s, Seen::Error(_)));
        for (i, (r, m)) in rmi_seen.iter().zip(&imp_seen).enumerate() {
            match r {
                Seen::Unreached => {}
                // Steps at or before RMI's unwind point (and every step
                // when RMI finished cleanly) must agree exactly...
                reached if first_rmi_error.is_none_or(|e| i <= e) => {
                    prop_assert_eq!(reached, m, "step {}", i);
                }
                // ...steps RMI reached only *after* an error cannot
                // exist (it unwound), so nothing to compare.
                _ => {}
            }
        }
        prop_assert_eq!(rmi_state, imp_state, "server end state");
        // The strongest form of transparency: the server executed
        // *exactly* the same calls — batching changed when calls were
        // shipped, never which calls ran. (Speculative calls recorded
        // after an unobserved failure are discarded, matching RMI's
        // unwinding; abort-on-exception skips the rest of a batch.)
        prop_assert_eq!(rmi_executed, imp_executed, "server-side executions");
    }
}

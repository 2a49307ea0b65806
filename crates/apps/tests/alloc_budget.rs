//! Heap allocations per call on the paper's headline case: one 512-word
//! `brmi_translate_all` batch (510 known words, 2 unknown) recorded,
//! encoded, executed, decoded and claimed over the in-process transport.
//!
//! A counting global allocator makes the per-call middleware cost a
//! deterministic number. Before futures were kept in a seq-indexed `Vec`,
//! `get` cloned each result once instead of twice and the executor moved
//! arguments into the invoke, this path made 47.1 allocations per call
//! (debug and release alike); the budget below pins the cheaper path.
//!
//! Keep this binary to one test: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use brmi_apps::testkit::AppRig;
use brmi_apps::translator::{brmi_translate_all, DictionaryTranslator, TranslatorSkeleton, Word};

/// Allocations per call the batch may make: 36.1 measured under both
/// `cargo test` and `cargo test --release`, plus under one of margin.
const BUDGET_PER_CALL: f64 = 37.0;

const CALLS: usize = 512;
const UNKNOWN_AT: [usize; 2] = [97, 401];

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; counting is a
// relaxed atomic increment with no other effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn wide_translate_batch_stays_within_its_allocation_budget() {
    let translator = DictionaryTranslator::english_to_french();
    let known = translator.known_words();
    let rig = AppRig::serve("translator", TranslatorSkeleton::remote_arc(translator));
    let mut known = known.iter().cycle();
    let words: Vec<Word> = (0..CALLS)
        .map(|i| match UNKNOWN_AT.iter().position(|&at| at == i) {
            Some(n) => Word::new(&format!("zz-unknown-{n}"), "en"),
            None => Word::new(known.next().unwrap(), "en"),
        })
        .collect();

    let run = || {
        let out = brmi_translate_all(&rig.conn, &rig.root, &words).unwrap();
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), UNKNOWN_AT.len());
    };
    for _ in 0..3 {
        run();
    }

    const RUNS: u64 = 5;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..RUNS {
        run();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_call = allocations as f64 / (RUNS as f64 * CALLS as f64);
    println!("{per_call:.1} allocations per call");
    assert!(
        per_call <= BUDGET_PER_CALL,
        "{per_call:.1} allocations per call, budget {BUDGET_PER_CALL}"
    );
}

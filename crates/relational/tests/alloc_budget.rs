//! Allocation budgets of the bag calls on the maintenance hot path:
//! a lookup and an adjusting write in a large view allocate nothing.
//!
//! A counting global allocator in this test binary only (the library is
//! untouched) counts the allocations each thread makes, so the counts are
//! exact and do not depend on the other tests running beside these.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eca_relational::{SignedBag, Tuple};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

fn bump() {
    // `try_with`: the counter needs no destructor, but a thread being
    // torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const N: i64 = 100_000;

/// A 100k-tuple view built in scattered order, as a join's output
/// arrives, and fresh copies of its tuples to probe with (so no probe is
/// the very allocation the bag holds).
fn view_and_probes() -> (SignedBag, Vec<Tuple>) {
    let tuples = || (0..N).map(|i| Tuple::ints([(i * 7_919) % N, i % 7]));
    (tuples().collect(), tuples().step_by(97).collect())
}

#[test]
fn count_allocates_nothing() {
    let (view, probes) = view_and_probes();
    let absent: Vec<Tuple> = (0..100).map(|i| Tuple::ints([i * 991, -1])).collect();
    let (found, allocs) = allocations(|| {
        let present: i64 = probes.iter().map(|t| view.count(t)).sum();
        let missing: i64 = absent.iter().map(|t| view.count(t)).sum();
        (present, missing)
    });
    assert_eq!(found, (probes.len() as i64, 0));
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations in {} counts",
        probes.len() + 100
    );
}

#[test]
fn adjusting_add_allocates_nothing() {
    let (mut view, probes) = view_and_probes();
    let (_, allocs) = allocations(|| {
        // Up and back down: every write adjusts an entry that stays.
        for t in &probes {
            view.add(t.clone(), 2);
        }
        for t in &probes {
            view.add(t.clone(), -2);
        }
    });
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations in {} adds",
        2 * probes.len()
    );
    assert!(probes.iter().all(|t| view.count(t) == 1));
    assert_eq!(view.distinct_len(), N as usize);
}

//! Allocation budgets of the calls on the maintenance hot path: a
//! lookup and an adjusting write in a large view allocate nothing, and
//! an SPJ term allocates per output row, not per input row or per join
//! stage.
//!
//! A counting global allocator in this test binary only (the library is
//! untouched) counts the allocations each thread makes, so the counts are
//! exact and do not depend on the other tests running beside these.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eca_relational::algebra::spj;
use eca_relational::{Predicate, SignedBag, Tuple};

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

/// Join rows of a term: the distinct tuples of its answer projected onto
/// every column (rows of distinct input tuples are distinct).
fn joined_rows(inputs: &[&SignedBag], cond: &Predicate) -> u64 {
    let width: usize = inputs
        .iter()
        .map(|b| b.iter().next().map_or(0, |(t, _)| t.arity()))
        .sum();
    let all: Vec<usize> = (0..width).collect();
    spj(inputs, cond, &all).unwrap().distinct_len() as u64
}

#[test]
fn spj_of_a_bound_tuple_allocates_per_output_row() {
    // One bound r1 tuple against all of a 10k-row r2 whose X repeats
    // every 1,000 rows: 10 matches. The term a substituted query asks.
    let r2: SignedBag = (0..10_000).map(|i| Tuple::ints([i % 1_000, i])).collect();
    let bound = SignedBag::singleton(Tuple::ints([7, 42]));
    let inputs = [&bound, &r2];
    let cond = Predicate::col_eq(1, 2);
    let (answer, allocs) = allocations(|| spj(&inputs, &cond, &[0, 3]).unwrap());
    assert_eq!(answer.distinct_len(), 10);
    assert!(
        allocs <= 2 * 10 + 64,
        "{allocs} allocations for 10 output rows from a 10k-row input"
    );
}

#[test]
fn chain3_spj_allocates_one_tuple_per_output_row() {
    // V2's shape, π_{W,Z}(r1(W,X) ⋈ r2(X,Y) ⋈ r3(Y,Z)) over distinct
    // tuples: every X and Y value occurs twice per relation, so the first
    // join has 4k rows and the term 8k.
    let r1: SignedBag = (0..2_000).map(|i| Tuple::ints([i, i % 1_000])).collect();
    let r2: SignedBag = (0..2_000)
        .map(|i| Tuple::ints([i % 1_000, (7 * i + i / 1_000) % 1_000]))
        .collect();
    let r3: SignedBag = (0..2_000).map(|i| Tuple::ints([i % 1_000, i])).collect();
    let inputs = [&r1, &r2, &r3];
    let cond = Predicate::col_eq(1, 2).and(Predicate::col_eq(3, 4));
    let rows = joined_rows(&inputs, &cond);
    assert_eq!(rows, 8_000);
    let (answer, allocs) = allocations(|| spj(&inputs, &cond, &[0, 5]).unwrap());
    assert_eq!(answer.pos_len(), rows);
    // One projected tuple per row; the rest is the output bag's chunks
    // and pages (two allocations per 64 entries, fewer per page) and a
    // constant number of buffers with their growth.
    assert!(
        allocs <= rows + rows / 16 + 64,
        "{allocs} allocations for {rows} output rows"
    );
}

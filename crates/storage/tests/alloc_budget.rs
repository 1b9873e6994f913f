//! Allocation budget of the source's term evaluator: what evaluating
//! Example 6's 3-term compensating query costs in allocations.
//!
//! A counting global allocator in this test binary only (the library is
//! untouched) counts the allocations each thread makes, so the count is
//! exact and does not depend on the other tests running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eca_core::{BaseDb, Query, ViewDef};
use eca_relational::{CmpOp, Predicate, Schema, Tuple, Update};
use eca_storage::{Scenario, StorageEngine};

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

/// Example 6: `V = π_{W,Z} σ_{W>Z} (r1(W,X) ⋈_X r2(X,Y) ⋈_Y r3(Y,Z))`.
fn example6_view() -> ViewDef {
    ViewDef::new(
        "V",
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
            Schema::new("r3", &["Y", "Z"]),
        ],
        Predicate::col_eq(1, 2)
            .and(Predicate::col_eq(3, 4))
            .and(Predicate::col_cmp(0, CmpOp::Gt, 5)),
        vec![0, 5],
    )
    .unwrap()
}

/// 300 tuples per relation over 100 join values: each join value
/// matches three tuples.
fn rows(rel: usize) -> impl Iterator<Item = Tuple> {
    (0..300i64).map(move |i| match rel {
        0 => Tuple::ints([(i * 37) % 1_000, i % 100]),
        1 => Tuple::ints([i % 100, (i * 7) % 100]),
        _ => Tuple::ints([i % 100, (i * 53) % 1_000]),
    })
}

/// Scenario 1's layout: clustered on X, X and Y, r2 also indexed on Y;
/// 20 tuples per block.
fn example6_engine() -> StorageEngine {
    let mut engine = StorageEngine::new(Scenario::Indexed);
    let layouts: [(&str, &[&str], &str, &[&str]); 3] = [
        ("r1", &["W", "X"], "X", &[]),
        ("r2", &["X", "Y"], "X", &["Y"]),
        ("r3", &["Y", "Z"], "Y", &[]),
    ];
    for (rel, (name, attrs, clustered, unclustered)) in layouts.into_iter().enumerate() {
        engine
            .create_table(Schema::new(name, attrs), 20, Some(clustered), unclustered)
            .unwrap();
        engine.load(name, rows(rel)).unwrap();
    }
    engine
}

/// The same base relations, for the logical evaluator.
fn base_db(view: &ViewDef) -> BaseDb {
    let mut db = BaseDb::for_view(view);
    for (rel, schema) in view.base().iter().enumerate() {
        for t in rows(rel) {
            db.insert(schema.relation(), t);
        }
    }
    db
}

/// Example 6's updates on r1, r3 and r2, with only the second query
/// still pending when the third arrives: `Q3 = V⟨U3⟩ − Q2⟨U3⟩`, where
/// `Q2 = V⟨U2⟩ − Q1⟨U2⟩` — three terms, with one, two and three bound
/// tuples.
fn compensating_query(view: &ViewDef) -> Query {
    let u1 = Update::insert("r1", Tuple::ints([400, 2]));
    let u2 = Update::insert("r3", Tuple::ints([5, 3]));
    let u3 = Update::insert("r2", Tuple::ints([2, 5]));
    let q1 = view.substitute(&u1).unwrap();
    let q2 = view.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
    let q3 = view.substitute(&u3).unwrap().minus(&q2.substitute(&u3));
    assert_eq!(q3.terms().len(), 3);
    q3
}

/// The measured count for the query below; the evaluator lends the heap's
/// tuples to one flat row buffer, so what is left is per output tuple
/// (its projection and its bag slot) plus a few buffers per query.
const EVAL_QUERY_BUDGET: u64 = 28;

#[test]
fn compensating_query_evaluation_stays_within_its_allocation_budget() {
    let view = example6_view();
    let engine = example6_engine();
    let query = compensating_query(&view);
    let (answer, allocs) = allocations(|| engine.eval_query(&query).unwrap());
    assert_eq!(answer, query.eval(&base_db(&view)).unwrap());
    assert!(!answer.is_empty());
    assert!(
        allocs <= EVAL_QUERY_BUDGET,
        "{allocs} allocations, budget {EVAL_QUERY_BUDGET} ({} answer tuples)",
        answer.distinct_len()
    );
}

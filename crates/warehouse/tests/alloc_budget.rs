//! Allocation budget of the query path: what an update event costs the
//! warehouse, what answering a query of a known header costs the source,
//! and that copying a query or its message allocates nothing — every
//! compensating query is built once and shared from the maintainer's
//! `UQS` to the source.
//!
//! A counting global allocator in this test binary only (the library is
//! untouched) counts the allocations each thread makes, so the counts are
//! exact and do not depend on the other tests running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eca_core::algorithms::Eca;
use eca_core::{BaseDb, QueryId, ViewDef, ViewMaintainer};
use eca_relational::{CmpOp, Predicate, Schema, SignedBag, Tuple, Update};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{SourceId, Warehouse};
use eca_wire::{Message, WireQuery};

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

fn schemas() -> Vec<Schema> {
    vec![
        Schema::new("r1", &["W", "X"]),
        Schema::new("r2", &["X", "Y"]),
        Schema::new("r3", &["Y", "Z"]),
    ]
}

/// Three views over Example 6's relations: the paper's `π_{W,Z}
/// σ_{W>Z}(r1 ⋈ r2 ⋈ r3)`, the same join projected on `W`, and
/// `r1 ⋈ r2` alone.
fn views() -> Vec<ViewDef> {
    let chain = Predicate::col_eq(1, 2).and(Predicate::col_eq(3, 4));
    vec![
        ViewDef::new(
            "V",
            schemas(),
            chain.clone().and(Predicate::col_cmp(0, CmpOp::Gt, 5)),
            vec![0, 5],
        )
        .unwrap(),
        ViewDef::new("W", schemas(), chain, vec![0]).unwrap(),
        ViewDef::new(
            "J",
            schemas()[..2].to_vec(),
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap(),
    ]
}

/// The source's contents: each join value matches three tuples.
fn rows(rel: usize) -> impl Iterator<Item = Tuple> {
    (0..60i64).map(move |i| match rel {
        0 => Tuple::ints([(i * 37) % 1_000, i % 20]),
        1 => Tuple::ints([i % 20, (i * 7) % 20]),
        _ => Tuple::ints([i % 20, (i * 53) % 1_000]),
    })
}

fn source() -> Source {
    let mut source = Source::new(Scenario::Indexed);
    let layouts: [(&str, &[&str]); 3] = [("X", &[]), ("X", &["Y"]), ("Y", &[])];
    for (rel, (schema, (clustered, unclustered))) in schemas().into_iter().zip(layouts).enumerate()
    {
        let name = schema.relation().to_owned();
        source
            .add_relation(schema, 20, Some(clustered), unclustered)
            .unwrap();
        source.load(&name, rows(rel)).unwrap();
    }
    source
}

/// A warehouse hosting [`views`] over one source, as a throughput run
/// deploys it: ECA, no state history.
fn warehouse(source: &Source) -> (Warehouse, SourceId) {
    let db: BaseDb = source.snapshot();
    let mut wh = Warehouse::new();
    wh.set_record_history(false);
    let src = wh.add_source("s");
    for view in views() {
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, Box::new(Eca::new(view, initial))).unwrap();
    }
    (wh, src)
}

fn notify(relation: &str, tuple: Tuple) -> Message {
    Message::UpdateNotification {
        update: Update::insert(relation, tuple),
    }
}

/// Measured: per view, the substituted and compensating terms (their
/// atom vectors), the one shared term array, the session's pending
/// entry, and the returned lists.
const ON_UPDATE_BUDGET: u64 = 24;

/// Measured: the answer's tuples and bag, and the evaluator's per-query
/// buffers; resolving the header and copying the terms cost nothing.
const ANSWER_BUDGET: u64 = 28;

/// The third update event reaches three views, each with two queries in
/// `UQS`: each view substitutes, compensates both, and ships one query.
#[test]
fn an_update_event_stays_within_its_allocation_budget() {
    let source = source();
    let (mut wh, src) = warehouse(&source);
    let first = wh
        .on_message(src, notify("r1", Tuple::ints([400, 2])))
        .unwrap();
    let second = wh
        .on_message(src, notify("r3", Tuple::ints([5, 3])))
        .unwrap();
    assert_eq!((first.len(), second.len()), (3, 2));
    let third = notify("r2", Tuple::ints([2, 5]));
    let (queries, allocs) = allocations(|| wh.on_message(src, third).unwrap());
    assert_eq!(queries.len(), 3);
    assert_eq!(allocs, ON_UPDATE_BUDGET, "allocations per update event");
}

/// A source answering a query whose header it has seen before.
#[test]
fn a_prepared_answer_stays_within_its_allocation_budget() {
    let mut source = source();
    let (mut wh, src) = warehouse(&source);
    wh.on_message(src, notify("r1", Tuple::ints([400, 2])))
        .unwrap();
    let replies = wh
        .on_message(src, notify("r3", Tuple::ints([5, 3])))
        .unwrap();
    let Message::QueryRequest { query, .. } = &replies[0] else {
        panic!("expected a query, got {:?}", replies[0]);
    };
    assert_eq!(query.terms.len(), 2);
    let first = source.answer(query).unwrap();
    let (again, allocs) = allocations(|| source.answer(query).unwrap());
    assert_eq!(again, first);
    assert!(!again.is_empty());
    assert_eq!(allocs, ANSWER_BUDGET, "allocations per prepared answer");
}

/// Copying a query — into `UQS`, the session's re-issue copy, an
/// outbound message, a FIFO — only counts references.
#[test]
fn copying_a_query_allocates_nothing() {
    let view = views().remove(0);
    let mut eca = Eca::new(view, SignedBag::new());
    eca.on_update(&Update::insert("r1", Tuple::ints([4, 2])))
        .unwrap();
    let q = eca
        .on_update(&Update::insert("r3", Tuple::ints([5, 3])))
        .unwrap()
        .remove(0)
        .query;
    assert_eq!(q.terms().len(), 2);
    let (copy, allocs) = allocations(|| q.clone());
    assert_eq!(allocs, 0, "Query::clone");
    assert_eq!(copy, q);

    let msg = Message::QueryRequest {
        id: QueryId(7),
        query: WireQuery::from_query(&q),
    };
    let (copy, allocs) = allocations(|| msg.clone());
    assert_eq!(allocs, 0, "Message::clone of a QueryRequest");
    assert_eq!(copy, msg);
    let (_, allocs) = allocations(|| WireQuery::from_query(&q));
    assert_eq!(allocs, 0, "WireQuery::from_query");
}

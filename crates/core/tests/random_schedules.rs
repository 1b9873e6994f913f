//! Property tests: the algorithm family under *arbitrary* event
//! interleavings, driven by proptest.
//!
//! A mini-scheduler owns the base data and a FIFO of outstanding queries;
//! a proptest-generated decision string chooses, at every step, whether
//! the source executes the next update or answers the oldest query (the
//! only degrees of freedom the paper's event model allows, given in-order
//! delivery). Assertions encode the paper's theorems:
//!
//! * ECA (plain and optimized), Batch-ECA: the final view equals the view
//!   over the final source state, on every schedule.
//! * LCA: additionally, the view's state history equals the source's.
//! * Basic: converges on the all-serial schedule (but not in general).

use eca_core::algorithms::{AlgorithmKind, Eca, Lca};
use eca_core::maintainer::{OutboundQuery, ViewMaintainer};
use eca_core::{BaseDb, ViewDef};
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use proptest::prelude::*;
use std::collections::VecDeque;

fn view2() -> ViewDef {
    ViewDef::new(
        "V",
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
        ],
        Predicate::col_eq(1, 2),
        vec![0],
    )
    .unwrap()
}

/// Strategy: a workload of effective updates over small value domains.
/// Deletions target tuples known to exist at that point.
fn workload() -> impl Strategy<Value = (Vec<(String, Tuple)>, Vec<Update>)> {
    // Initial tuples: (relation choice, a, b) triples.
    let initial = prop::collection::vec((0..2usize, 0i64..4, 0i64..4), 0..8);
    // Update intents: (relation, a, b, try-delete?).
    let intents = prop::collection::vec((0..2usize, 0i64..4, 0i64..4, any::<bool>()), 1..12);
    (initial, intents).prop_map(|(initial, intents)| {
        let rels = ["r1", "r2"];
        let init: Vec<(String, Tuple)> = initial
            .into_iter()
            .map(|(r, a, b)| (rels[r].to_owned(), Tuple::ints([a, b])))
            .collect();
        let mut live: Vec<Vec<Tuple>> = vec![Vec::new(), Vec::new()];
        for (r, t) in &init {
            let idx = if r == "r1" { 0 } else { 1 };
            live[idx].push(t.clone());
        }
        let mut updates = Vec::new();
        for (r, a, b, del) in intents {
            if del && !live[r].is_empty() {
                let t = live[r].remove(0);
                updates.push(Update::delete(rels[r], t));
            } else {
                let t = Tuple::ints([a, b]);
                live[r].push(t.clone());
                updates.push(Update::insert(rels[r], t));
            }
        }
        (init, updates)
    })
}

/// Drive a maintainer through the workload with the given interleaving
/// decisions; returns (final source view, final MV, per-update source
/// view states, warehouse state history).
fn drive(
    alg: &mut dyn ViewMaintainer,
    view: &ViewDef,
    init: &[(String, Tuple)],
    updates: &[Update],
    decisions: &[bool],
) -> (SignedBag, SignedBag, Vec<SignedBag>, Vec<SignedBag>) {
    let mut db = BaseDb::for_view(view);
    for (r, t) in init {
        db.insert(r, t.clone());
    }
    let mut source_states = vec![view.eval(&db).unwrap()];
    let mut warehouse_states = vec![alg.materialized().clone()];
    let mut pending: VecDeque<OutboundQuery> = VecDeque::new();
    let mut next_update = 0usize;
    let mut di = 0usize;

    loop {
        let can_update = next_update < updates.len();
        let can_answer = !pending.is_empty();
        if !can_update && !can_answer {
            break;
        }
        // Decision bit: true = execute update (when possible).
        let take_update = if can_update && can_answer {
            let d = decisions.get(di).copied().unwrap_or(true);
            di += 1;
            d
        } else {
            can_update
        };
        if take_update {
            let u = &updates[next_update];
            next_update += 1;
            if db.apply(u) {
                source_states.push(view.eval(&db).unwrap());
                pending.extend(alg.on_update(u).unwrap());
                record(alg, &mut warehouse_states);
            }
        } else {
            let q = pending.pop_front().unwrap();
            let answer = q.query.eval(&db).unwrap();
            pending.extend(alg.on_answer(q.id, answer).unwrap());
            record(alg, &mut warehouse_states);
        }
    }
    (
        view.eval(&db).unwrap(),
        alg.materialized().clone(),
        source_states,
        warehouse_states,
    )
}

fn record(alg: &mut dyn ViewMaintainer, states: &mut Vec<SignedBag>) {
    let mids = alg.drain_intermediate_states();
    if mids.is_empty() {
        states.push(alg.materialized().clone());
    } else {
        states.extend(mids);
    }
}

fn initial_view(view: &ViewDef, init: &[(String, Tuple)]) -> SignedBag {
    let mut db = BaseDb::for_view(view);
    for (r, t) in init {
        db.insert(r, t.clone());
    }
    view.eval(&db).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn eca_converges_on_any_schedule(
        (init, updates) in workload(),
        decisions in prop::collection::vec(any::<bool>(), 0..40),
    ) {
        let view = view2();
        for kind in [AlgorithmKind::Eca, AlgorithmKind::EcaOptimized] {
            let mut alg = kind.instantiate(&view, initial_view(&view, &init)).unwrap();
            let (src, mv, src_states, wh_states) =
                drive(alg.as_mut(), &view, &init, &updates, &decisions);
            prop_assert_eq!(&mv, &src, "{} diverged", kind.label());
            prop_assert!(alg.is_quiescent());
            let check = eca_consistency::check(&src_states, &wh_states);
            prop_assert!(check.strongly_consistent, "{}: {:?}", kind.label(), check.violation);
        }
    }

    #[test]
    fn lca_is_complete_on_any_schedule(
        (init, updates) in workload(),
        decisions in prop::collection::vec(any::<bool>(), 0..40),
    ) {
        let view = view2();
        let mut alg = Lca::new(view.clone(), initial_view(&view, &init));
        let (src, mv, src_states, wh_states) =
            drive(&mut alg, &view, &init, &updates, &decisions);
        prop_assert_eq!(&mv, &src);
        // LCA's own history must equal the source's state sequence ...
        prop_assert_eq!(alg.state_history(), &src_states[..]);
        // ... and the recorded warehouse history is complete.
        let check = eca_consistency::check(&src_states, &wh_states);
        prop_assert!(check.complete, "{:?}", check.violation);
    }

    #[test]
    fn batch_eca_converges_on_any_schedule(
        (init, updates) in workload(),
        decisions in prop::collection::vec(any::<bool>(), 0..40),
        batch_size in 1usize..4,
    ) {
        let view = view2();
        let mut alg = Eca::batched(view.clone(), initial_view(&view, &init), batch_size).unwrap();
        let (src, _, _, _) = drive(&mut alg, &view, &init, &updates, &decisions);
        // Flush the possibly-partial trailing batch, then settle by
        // answering on the final state.
        let mut db = BaseDb::for_view(&view);
        for (r, t) in &init {
            db.insert(r, t.clone());
        }
        db.apply_all(&updates);
        let mut queries: VecDeque<OutboundQuery> = alg.flush().into();
        while let Some(q) = queries.pop_front() {
            let answer = q.query.eval(&db).unwrap();
            queries.extend(alg.on_answer(q.id, answer).unwrap());
        }
        prop_assert!(alg.is_quiescent());
        prop_assert_eq!(alg.materialized(), &src);
    }

    #[test]
    fn basic_converges_on_the_serial_schedule((init, updates) in workload()) {
        let view = view2();
        let mut alg = AlgorithmKind::Basic.instantiate(&view, initial_view(&view, &init)).unwrap();
        // decisions = all-false would answer-first; the drive() helper
        // only offers the answer choice when a query is pending, and with
        // 0 decision bits defaulting to updates we emulate seriality by
        // answering after each update: force it with alternating choices.
        let mut db = BaseDb::for_view(&view);
        for (r, t) in &init {
            db.insert(r, t.clone());
        }
        for u in &updates {
            if db.apply(u) {
                for q in alg.on_update(u).unwrap() {
                    let answer = q.query.eval(&db).unwrap();
                    alg.on_answer(q.id, answer).unwrap();
                }
            }
        }
        prop_assert_eq!(alg.materialized(), &view.eval(&db).unwrap());
    }

    /// Lemma B.2 as a workload-level property: for any state and any
    /// effective update, Q[before] = Q[after] − Q⟨U⟩[after].
    #[test]
    fn lemma_b2_holds_for_random_states((init, updates) in workload()) {
        let view = view2();
        let mut db = BaseDb::for_view(&view);
        for (r, t) in &init {
            db.insert(r, t.clone());
        }
        let q = view.as_query();
        for u in &updates {
            let before = q.eval(&db).unwrap();
            if !db.apply(u) {
                continue;
            }
            let after = q.eval(&db).unwrap();
            let correction = q.substitute(u).eval(&db).unwrap();
            prop_assert_eq!(&before, &after.minus(&correction), "update {:?}", u);
        }
    }
}

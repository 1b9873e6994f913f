//! Property-based tests for the signed-bag algebra laws of paper §4.1.

use std::collections::BTreeMap;

use eca_relational::algebra::{cross, project, select, spj};
use eca_relational::{CmpOp, Predicate, SignedBag, Tuple, Value};
use proptest::prelude::*;

/// Strategy: a small signed bag of 2-attribute integer tuples with counts in
/// −3..=3.
fn signed_bag() -> impl Strategy<Value = SignedBag> {
    prop::collection::vec(((0i64..6, 0i64..6), -3i64..=3), 0..12).prop_map(|entries| {
        let mut bag = SignedBag::new();
        for ((a, b), c) in entries {
            bag.add(Tuple::ints([a, b]), c);
        }
        bag
    })
}

/// One step of the model test. Keys are drawn from a domain wide enough
/// that a run of up to 120 steps grows the bag through several chunk
/// splits (half the runs end above 128 tuples) and narrow enough that
/// adds collide and cancel.
#[derive(Clone, Debug)]
enum Op {
    Add(i64, i64),
    Merge(Vec<(i64, i64)>),
    MergeNegated(Vec<(i64, i64)>),
    MergeDistinct(Vec<(i64, i64)>),
    /// Remove every tuple whose key is `r` modulo `m`.
    RemoveWhere(i64, i64),
    /// Keep a clone and the model state it must forever equal.
    Snapshot,
}

fn entries() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..400, -2i64..=2), 0..40)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..400, -2i64..=2).prop_map(|(k, c)| Op::Add(k, c)),
        // A second, positive-only add keeps the bag growing on balance.
        (0i64..400, 1i64..=2).prop_map(|(k, c)| Op::Add(k, c)),
        entries().prop_map(Op::Merge),
        entries().prop_map(Op::MergeNegated),
        entries().prop_map(Op::MergeDistinct),
        (2i64..9).prop_map(|m| Op::RemoveWhere(m - 2, m)),
        Just(Op::Snapshot),
    ]
}

fn key(k: i64) -> Tuple {
    Tuple::ints([k, k % 3])
}

fn bag_of(entries: &[(i64, i64)]) -> SignedBag {
    let mut bag = SignedBag::new();
    for (k, c) in entries {
        bag.add(key(*k), *c);
    }
    bag
}

/// The reference semantics: a plain ordered map, zero counts pruned.
type Model = BTreeMap<Tuple, i64>;

fn model_add(model: &mut Model, t: Tuple, delta: i64) {
    let c = model.entry(t.clone()).or_insert(0);
    *c += delta;
    if *c == 0 {
        model.remove(&t);
    }
}

fn model_apply(model: &mut Model, op: &Op) {
    match op {
        Op::Add(k, c) => model_add(model, key(*k), *c),
        Op::Merge(es) => {
            for (t, c) in bag_of(es).iter() {
                model_add(model, t.clone(), c);
            }
        }
        Op::MergeNegated(es) => {
            for (t, c) in bag_of(es).iter() {
                model_add(model, t.clone(), -c);
            }
        }
        Op::MergeDistinct(es) => {
            for (t, c) in bag_of(es).iter() {
                if c < 0 {
                    model_add(model, t.clone(), c);
                } else if model.get(t).copied().unwrap_or(0) <= 0 {
                    model_add(model, t.clone(), 1);
                }
            }
        }
        Op::RemoveWhere(r, m) => model.retain(|t, _| !residue_is(t, *r, *m)),
        Op::Snapshot => {}
    }
}

fn residue_is(t: &Tuple, r: i64, m: i64) -> bool {
    matches!(t.get(0), Some(Value::Int(k)) if k % m == r)
}

fn assert_matches(bag: &SignedBag, model: &Model) {
    assert_eq!(bag.distinct_len(), model.len());
    assert_eq!(bag.is_empty(), model.is_empty());
    assert!(bag.iter().eq(model.iter().map(|(t, c)| (t, *c))));
}

fn assert_counts_match(bag: &SignedBag, model: &Model) {
    assert_matches(bag, model);
    for k in 0..400 {
        assert_eq!(bag.count(&key(k)), model.get(&key(k)).copied().unwrap_or(0));
    }
}

/// Run one step of the model test on a bag.
fn apply(bag: &mut SignedBag, op: &Op) {
    match op {
        Op::Add(k, c) => bag.add(key(*k), *c),
        Op::Merge(es) => bag.merge(&bag_of(es)),
        Op::MergeNegated(es) => bag.merge_negated(&bag_of(es)),
        Op::MergeDistinct(es) => bag.merge_distinct(&bag_of(es)),
        Op::RemoveWhere(r, m) => {
            bag.remove_where(|t| residue_is(t, *r, *m));
        }
        Op::Snapshot => {}
    }
}

/// Keys of the many-page model test: wide enough that a run of it grows
/// the bag to several thousand chunks in dozens of pages.
const WIDE: i64 = 24_000;

/// One step of the many-page model test. Each merges a whole bag, so a
/// step crosses chunk and page boundaries by the hundred: splits as runs
/// land inside pages, merges as negative runs empty them.
#[derive(Clone, Debug)]
enum WideOp {
    /// Merge `len` consecutive keys from `start`, each with `count`: one
    /// sorted run.
    Run { start: i64, len: i64, count: i64 },
    /// Merge `len` keys `start + i · stride` (mod `WIDE`), each with
    /// `count`: the same volume, scattered over every page.
    Scatter {
        start: i64,
        len: i64,
        stride: i64,
        count: i64,
    },
    /// Remove every tuple whose key is `r` modulo `m`: a page-wide
    /// `remove_where`.
    RemoveWhere(i64, i64),
    /// Remove every tuple whose key lies in `lo..hi`: one that empties a
    /// stretch of pages and leaves the rest alone.
    RemoveRange(i64, i64),
    /// Keep a clone and the model state it must forever equal.
    Snapshot,
}

/// Positive counts twice as likely as negative ones, so bags grow.
fn wide_count() -> impl Strategy<Value = i64> {
    prop_oneof![1i64..=2, 1i64..=2, -2i64..=-1]
}

fn wide_op() -> impl Strategy<Value = WideOp> {
    prop_oneof![
        (0..WIDE, 1i64..8_000, wide_count()).prop_map(|(start, len, count)| WideOp::Run {
            start,
            len,
            count
        }),
        (
            0..WIDE,
            1i64..8_000,
            prop_oneof![Just(7_919i64), Just(104_729), Just(13)],
            wide_count()
        )
            .prop_map(|(start, len, stride, count)| WideOp::Scatter {
                start,
                len,
                stride,
                count
            }),
        (2i64..9).prop_map(|m| WideOp::RemoveWhere(m - 2, m)),
        (0..WIDE, 0i64..6_000).prop_map(|(lo, len)| WideOp::RemoveRange(lo, lo + len)),
        Just(WideOp::Snapshot),
    ]
}

/// The bag a `Run` or `Scatter` step merges (keys past `WIDE` wrap).
fn wide_delta(op: &WideOp) -> SignedBag {
    let keys: Box<dyn Iterator<Item = i64>> = match *op {
        WideOp::Run { start, len, .. } => Box::new(start..start + len),
        WideOp::Scatter {
            start, len, stride, ..
        } => Box::new((0..len).map(move |i| start + i * stride)),
        _ => Box::new(std::iter::empty()),
    };
    let count = match *op {
        WideOp::Run { count, .. } | WideOp::Scatter { count, .. } => count,
        _ => 0,
    };
    let mut delta = SignedBag::new();
    for k in keys {
        delta.add(key(k % WIDE), count);
    }
    delta
}

fn in_range(t: &Tuple, lo: i64, hi: i64) -> bool {
    matches!(t.get(0), Some(Value::Int(k)) if (lo..hi).contains(k))
}

/// Every key's count, probed through `count` (not iteration) at a
/// stride, against the model.
fn assert_wide_counts_match(bag: &SignedBag, model: &Model) {
    assert_matches(bag, model);
    for k in (0..WIDE).step_by(37) {
        assert_eq!(bag.count(&key(k)), model.get(&key(k)).copied().unwrap_or(0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn bag_spanning_many_pages_follows_the_model(
        ops in prop::collection::vec(wide_op(), 1..24),
    ) {
        let mut bag = SignedBag::new();
        let mut model = Model::new();
        let mut snapshots: Vec<(SignedBag, Model)> = Vec::new();
        for op in &ops {
            match *op {
                WideOp::Run { .. } | WideOp::Scatter { .. } => {
                    let delta = wide_delta(op);
                    bag.merge(&delta);
                    for (t, c) in delta.iter() {
                        model_add(&mut model, t.clone(), c);
                    }
                }
                WideOp::RemoveWhere(r, m) => {
                    let before = bag.distinct_len();
                    let removed = bag.remove_where(|t| residue_is(t, r, m));
                    prop_assert_eq!(before - removed, bag.distinct_len());
                    model.retain(|t, _| !residue_is(t, r, m));
                }
                WideOp::RemoveRange(lo, hi) => {
                    bag.remove_where(|t| in_range(t, lo, hi));
                    model.retain(|t, _| !in_range(t, lo, hi));
                }
                WideOp::Snapshot => snapshots.push((bag.clone(), model.clone())),
            }
            assert_matches(&bag, &model);
        }
        assert_wide_counts_match(&bag, &model);
        for (snap, at) in &snapshots {
            assert_wide_counts_match(snap, at);
        }
        // Rebuilt from sorted input, the same content packs into other
        // chunks and pages and is still equal in every rendering.
        let rebuilt: SignedBag = {
            let mut b = SignedBag::new();
            for (t, c) in &model {
                b.add(t.clone(), *c);
            }
            b
        };
        prop_assert_eq!(&rebuilt, &bag);
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{bag:?}"));
        prop_assert_eq!(rebuilt.encoded_len(), bag.encoded_len());
    }
}

proptest! {
    #[test]
    fn bag_follows_a_btreemap_model_and_clones_are_snapshots(
        ops in prop::collection::vec(op(), 0..120),
    ) {
        let mut bag = SignedBag::new();
        let mut model = Model::new();
        let mut snapshots: Vec<(SignedBag, Model)> = Vec::new();
        for op in &ops {
            match op {
                Op::Add(k, c) => bag.add(key(*k), *c),
                Op::Merge(es) => bag.merge(&bag_of(es)),
                Op::MergeNegated(es) => bag.merge_negated(&bag_of(es)),
                Op::MergeDistinct(es) => bag.merge_distinct(&bag_of(es)),
                Op::RemoveWhere(r, m) => {
                    let before = bag.distinct_len();
                    let removed = bag.remove_where(|t| residue_is(t, *r, *m));
                    prop_assert_eq!(before - removed, bag.distinct_len());
                }
                Op::Snapshot => snapshots.push((bag.clone(), model.clone())),
            }
            model_apply(&mut model, op);
            assert_matches(&bag, &model);
        }
        // Snapshot isolation: no later write reached an earlier clone.
        assert_counts_match(&bag, &model);
        for (snap, at) in &snapshots {
            assert_counts_match(snap, at);
        }
        // Content decides equality and every rendering, not the order of
        // insertion (and so not where the chunk boundaries fell).
        let mut rebuilt = SignedBag::new();
        for (t, c) in model.iter().rev() {
            rebuilt.add(t.clone(), *c);
        }
        prop_assert_eq!(&rebuilt, &bag);
        prop_assert!(rebuilt.iter().eq(bag.iter()));
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{bag:?}"));
        prop_assert_eq!(rebuilt.encoded_len(), bag.encoded_len());
    }

    #[test]
    fn sharing_every_chunk_implies_equal_content(
        history in prop::collection::vec(op(), 0..80),
        ops in prop::collection::vec((op(), 0usize..1_000), 0..40),
    ) {
        let mut original = SignedBag::new();
        for op in &history {
            apply(&mut original, op);
        }
        prop_assert!(SignedBag::new().shares_every_chunk(&SignedBag::new()));
        prop_assert!(original.shares_every_chunk(&original.clone()));
        // Each write runs on a clone while the previous state is held, as
        // a maintainer writes while the registry holds its newest epoch:
        // every op, then a cancel-to-zero of one present tuple.
        let mut bag = original.clone();
        for (op, victim) in &ops {
            for cancel in [false, true] {
                let before = bag.clone();
                if !cancel {
                    apply(&mut bag, op);
                } else if !bag.is_empty() {
                    let i = victim % bag.distinct_len();
                    let (t, c) = bag.iter().nth(i).map(|(t, c)| (t.clone(), c)).unwrap();
                    bag.add(t, -c);
                }
                if bag != before {
                    prop_assert!(!bag.shares_every_chunk(&before), "{:?} kept every chunk", op);
                }
                for other in [&before, &original] {
                    if bag.shares_every_chunk(other) {
                        prop_assert_eq!(&bag, other);
                    }
                }
            }
        }
        // Identity, not equality: the same content built separately.
        let entries: Vec<_> = bag.iter().collect();
        let mut rebuilt = SignedBag::new();
        for (t, c) in entries.into_iter().rev() {
            rebuilt.add(t.clone(), c);
        }
        prop_assert_eq!(&rebuilt, &bag);
        prop_assert_eq!(rebuilt.shares_every_chunk(&bag), bag.is_empty());
    }

    #[test]
    fn plus_is_commutative(a in signed_bag(), b in signed_bag()) {
        prop_assert_eq!(a.plus(&b), b.plus(&a));
    }

    #[test]
    fn plus_is_associative(a in signed_bag(), b in signed_bag(), c in signed_bag()) {
        prop_assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)));
    }

    #[test]
    fn minus_self_is_empty(a in signed_bag()) {
        prop_assert!(a.minus(&a).is_empty());
    }

    #[test]
    fn double_negation_is_identity(a in signed_bag()) {
        prop_assert_eq!(a.negated().negated(), a);
    }

    #[test]
    fn pos_neg_decomposition(a in signed_bag()) {
        // r == pos(r) − neg(r)
        prop_assert_eq!(a.positive_part().minus(&a.negative_part()), a);
    }

    #[test]
    fn cross_distributes_over_plus(a in signed_bag(), b in signed_bag(), c in signed_bag()) {
        let lhs = cross(&a.plus(&b), &c);
        let rhs = cross(&a, &c).plus(&cross(&b, &c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn cross_distributes_over_minus(a in signed_bag(), b in signed_bag(), c in signed_bag()) {
        let lhs = cross(&c, &a.minus(&b));
        let rhs = cross(&c, &a).minus(&cross(&c, &b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn select_commutes_with_plus(a in signed_bag(), b in signed_bag()) {
        let p = Predicate::col_cmp(0, CmpOp::Lt, 1);
        let lhs = select(&a.plus(&b), &p).unwrap();
        let rhs = select(&a, &p).unwrap().plus(&select(&b, &p).unwrap());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn project_commutes_with_plus(a in signed_bag(), b in signed_bag()) {
        let lhs = project(&a.plus(&b), &[0]).unwrap();
        let rhs = project(&a, &[0]).unwrap().plus(&project(&b, &[0]).unwrap());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn equijoin_equals_cross_then_select(a in signed_bag(), b in signed_bag()) {
        // An SPJ term of one edge, projecting every column.
        let joined = spj(&[&a, &b], &Predicate::col_eq(1, 2), &[0, 1, 2, 3]).unwrap();
        let expected = select(&cross(&a, &b), &Predicate::col_eq(1, 2)).unwrap();
        prop_assert_eq!(joined, expected);
    }

    #[test]
    fn signed_len_is_additive(a in signed_bag(), b in signed_bag()) {
        prop_assert_eq!(a.plus(&b).signed_len(), a.signed_len() + b.signed_len());
    }

    #[test]
    fn distinct_is_idempotent(a in signed_bag()) {
        let d = a.distinct();
        prop_assert_eq!(d.distinct(), d);
    }

    #[test]
    fn select_partition(a in signed_bag()) {
        // σ_p(r) + σ_¬p(r) == r
        let p = Predicate::col_cmp(0, CmpOp::Ge, 1);
        let yes = select(&a, &p).unwrap();
        let no = select(&a, &p.clone().not()).unwrap();
        prop_assert_eq!(yes.plus(&no), a);
    }
}

/// Integers on both sides of the 32-bit boundary, of where exact integer
/// prefixes stop (2^31 − 256), and of the 64-bit extremes.
const EDGE_INTS: [i64; 19] = [
    i64::MIN,
    i64::MIN + 1,
    -(1 << 31) - 3,
    -(1 << 31),
    -(1 << 31) + 3,
    -(1 << 31) + 255,
    -(1 << 31) + 256,
    -(1 << 31) + 257,
    -1,
    0,
    1,
    (1 << 31) - 257,
    (1 << 31) - 256,
    (1 << 31) - 255,
    (1 << 31) - 3,
    1 << 31,
    (1 << 31) + 3,
    i64::MAX - 1,
    i64::MAX,
];

const EDGE_STRS: [&str; 6] = ["", "\0", "a", "ab", "b", "\u{ff}"];

/// A value from a mixed domain: the edge integers, a few small ones (so
/// tuples share first values and tie on any prefix of them), and strings
/// that share first bytes.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..EDGE_INTS.len()).prop_map(|i| Value::Int(EDGE_INTS[i])),
        (0i64..4).prop_map(Value::Int),
        (0..EDGE_STRS.len()).prop_map(|i| Value::str(EDGE_STRS[i])),
    ]
}

/// A tuple of arity 0–4 over the mixed domain.
fn mixed_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(mixed_value(), 0..5).prop_map(Tuple::new)
}

/// One step of the mixed-domain model test.
#[derive(Clone, Debug)]
enum MixedOp {
    Add(Tuple, i64),
    Merge(Vec<(Tuple, i64)>),
    MergeNegated(Vec<(Tuple, i64)>),
    MergeDistinct(Vec<(Tuple, i64)>),
}

fn mixed_entries() -> impl Strategy<Value = Vec<(Tuple, i64)>> {
    prop::collection::vec((mixed_tuple(), -2i64..=3), 0..60)
}

fn mixed_op() -> impl Strategy<Value = MixedOp> {
    prop_oneof![
        (mixed_tuple(), -2i64..=2).prop_map(|(t, c)| MixedOp::Add(t, c)),
        mixed_entries().prop_map(MixedOp::Merge),
        mixed_entries().prop_map(MixedOp::Merge),
        mixed_entries().prop_map(MixedOp::MergeNegated),
        mixed_entries().prop_map(MixedOp::MergeDistinct),
    ]
}

fn mixed_bag(entries: &[(Tuple, i64)]) -> SignedBag {
    let mut bag = SignedBag::new();
    for (t, c) in entries {
        bag.add(t.clone(), *c);
    }
    bag
}

proptest! {
    /// Tuple order on the mixed domain is what the bag iterates, and the
    /// order its searches rely on: for any two tuples, a bag holding both
    /// lists them in `Ord` order, finds each, and finds nothing between.
    #[test]
    fn bag_orders_and_finds_mixed_tuples_as_ord_does(
        pairs in prop::collection::vec((mixed_tuple(), mixed_tuple()), 1..64),
    ) {
        for (a, b) in &pairs {
            let bag = SignedBag::from_tuples([a.clone(), b.clone()]);
            let listed: Vec<&Tuple> = bag.iter().map(|(t, _)| t).collect();
            let mut sorted = vec![a, b];
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(listed, sorted);
            let both = if a == b { 2 } else { 1 };
            prop_assert_eq!(bag.count(a), both);
            prop_assert_eq!(bag.count(b), both);
        }
        // Every tuple probed against a bag of all of them.
        let all: Vec<Tuple> = pairs.iter().flat_map(|(a, b)| [a.clone(), b.clone()]).collect();
        let bag: SignedBag = all.iter().cloned().collect();
        let mut model = Model::new();
        for t in &all {
            model_add(&mut model, t.clone(), 1);
        }
        assert_counts_match_on(&bag, &model, &all);
    }

    /// The model test over the mixed domain: adds, merges (which reuse
    /// the other bag's stored keys) and duplicate-suppressing merges,
    /// with bags large enough to span several chunks and pages, so
    /// searches run through fences whose leading values tie.
    #[test]
    fn bag_of_mixed_tuples_follows_a_btreemap_model(
        ops in prop::collection::vec(mixed_op(), 0..120),
        probes in prop::collection::vec(mixed_tuple(), 0..64),
    ) {
        let mut bag = SignedBag::new();
        let mut model = Model::new();
        for op in &ops {
            match op {
                MixedOp::Add(t, c) => {
                    bag.add(t.clone(), *c);
                    model_add(&mut model, t.clone(), *c);
                }
                MixedOp::Merge(es) => {
                    let other = mixed_bag(es);
                    bag.merge(&other);
                    for (t, c) in other.iter() {
                        model_add(&mut model, t.clone(), c);
                    }
                }
                MixedOp::MergeNegated(es) => {
                    let other = mixed_bag(es);
                    bag.merge_negated(&other);
                    for (t, c) in other.iter() {
                        model_add(&mut model, t.clone(), -c);
                    }
                }
                MixedOp::MergeDistinct(es) => {
                    let other = mixed_bag(es);
                    bag.merge_distinct(&other);
                    for (t, c) in other.iter() {
                        if c < 0 {
                            model_add(&mut model, t.clone(), c);
                        } else if model.get(t).copied().unwrap_or(0) <= 0 {
                            model_add(&mut model, t.clone(), 1);
                        }
                    }
                }
            }
            assert_matches(&bag, &model);
        }
        let present: Vec<Tuple> = model.keys().cloned().collect();
        assert_counts_match_on(&bag, &model, &present);
        assert_counts_match_on(&bag, &model, &probes);
    }
}

/// `bag` and `model` agree on content and on the count of every tuple in
/// `probes` (present or not).
fn assert_counts_match_on(bag: &SignedBag, model: &Model, probes: &[Tuple]) {
    assert_matches(bag, model);
    for t in probes {
        assert_eq!(bag.count(t), model.get(t).copied().unwrap_or(0), "{t:?}");
    }
}

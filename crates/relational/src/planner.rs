//! Per-term SPJ planning and execution: predicate pushdown, composite
//! hash-join keys, greedy data-dependent join order, and a pipelined
//! executor that joins borrowed rows and builds only the output bag.
//!
//! An SPJ term `π_proj(σ_cond(r1 × … × rn))` names its columns relative
//! to the full product. The planner splits `cond` into its AND-skeleton
//! conjuncts and classifies each one:
//!
//! * every referenced column falls inside one input's slice → **pushdown**:
//!   the conjunct is rewritten into that input's local coordinates and
//!   applied as a pre-selection before any join;
//! * `Column = Column` equality spanning two inputs → **join edge**: it
//!   becomes (part of) a composite hash-join key and is never re-checked;
//! * anything else (cross-input inequalities, disjunctions, column-free
//!   conjuncts) → **residual**: re-applied once on each joined row.
//!
//! Join order is chosen greedily at execution time from the actual
//! post-pushdown input sizes: start from the smallest input, then
//! repeatedly attach the candidate minimizing the estimated cardinality
//! `|acc| · |cand| / distinct-keys(cand)` (or the plain product for a
//! cross); the last input left needs no estimate.
//!
//! Nothing is materialized between the stages. Pushdown lends each
//! input's tuples as rows of one borrowed tuple; each join appends to a
//! flat buffer of borrowed tuples per row (one per input joined so far,
//! in join order) plus the row's multiplied count. The residual runs on
//! a row's values in canonical order. The surviving rows are sorted by
//! their projected values and each is projected once, in that order, so
//! the output bag is built by appends alone.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

use crate::algebra::{project, select};
use crate::bag::{prefix_of, SignedBag};
use crate::error::RelationalError;
use crate::predicate::{CmpOp, Operand, Predicate};
use crate::tuple::Tuple;
use crate::value::Value;

/// Where each conjunct of a term's predicate ended up, for a fixed list
/// of input arities. Columns in [`Self::pushdown`] are input-local; all
/// other columns are canonical (product-relative).
#[derive(Debug, Clone)]
pub struct TermPlan {
    arities: Vec<usize>,
    offsets: Vec<usize>,
    total: usize,
    /// Per input: the conjunction pushed below the joins, rewritten to
    /// that input's local columns (`True` when nothing pushed).
    pub pushdown: Vec<Predicate>,
    /// Cross-input equality edges in canonical columns. Every edge is
    /// consumed as (part of) a composite join key and never re-checked.
    pub edges: Vec<(usize, usize)>,
    /// Conjuncts that survive to a final selection on the joined result,
    /// in canonical columns (`True` when everything was consumed).
    pub residual: Predicate,
}

impl TermPlan {
    /// Classify the conjuncts of `cond` for inputs with these arities.
    #[must_use]
    pub fn new(arities: Vec<usize>, cond: &Predicate) -> TermPlan {
        let mut offsets = Vec::with_capacity(arities.len());
        let mut total = 0usize;
        for &a in &arities {
            offsets.push(total);
            total += a;
        }
        let mut plan = TermPlan {
            pushdown: vec![Predicate::True; arities.len()],
            edges: Vec::new(),
            residual: Predicate::True,
            arities,
            offsets,
            total,
        };
        for conj in cond.conjuncts() {
            plan.classify(conj);
        }
        plan
    }

    /// The input owning canonical column `col`, if it is in range.
    fn owner(&self, col: usize) -> Option<usize> {
        (col < self.total).then(|| self.locate(col).0)
    }

    /// The input owning in-range canonical column `col`, and the column's
    /// position within that input.
    fn locate(&self, col: usize) -> (usize, usize) {
        let owner = self.offsets.partition_point(|&o| o <= col) - 1;
        (owner, col - self.offsets[owner])
    }

    fn classify(&mut self, conj: &Predicate) {
        if let Predicate::Cmp {
            lhs: Operand::Column(a),
            op: CmpOp::Eq,
            rhs: Operand::Column(b),
        } = conj
        {
            if let (Some(oa), Some(ob)) = (self.owner(*a), self.owner(*b)) {
                if oa != ob {
                    self.edges.push((*a, *b));
                    return;
                }
            }
        }
        let cols = conj.columns();
        let single_owner = match (cols.first(), cols.last()) {
            (Some(&lo), Some(&hi)) => match (self.owner(lo), self.owner(hi)) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            // Column-free conjunct (True/False/const comparison): keep it
            // residual so a `False` still empties the result.
            _ => None,
        };
        match single_owner {
            Some(i) => {
                let lo = self.offsets[i];
                let local = conj.map_columns(&|c| c - lo);
                self.pushdown[i] =
                    std::mem::replace(&mut self.pushdown[i], Predicate::True).and(local);
            }
            None => {
                self.residual =
                    std::mem::replace(&mut self.residual, Predicate::True).and(conj.clone());
            }
        }
    }

    /// The canonical join-key columns `(acc_side, cand_side)` linking
    /// input `cand` to the set of already-joined inputs.
    fn edges_to(&self, cand: usize, joined: &[bool]) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                let (oa, ob) = (self.owner(a)?, self.owner(b)?);
                if ob == cand && joined[oa] {
                    Some((a, b))
                } else if oa == cand && joined[ob] {
                    Some((b, a))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// The rows of a join in progress, in one flat buffer: `width` borrowed
/// tuples per row (one per input joined so far, in join order) and one
/// multiplied count per row. An input after pushdown is a `Rows` of
/// width 1. Nothing is copied out of the input bags until a surviving
/// row is projected.
struct Rows<'a> {
    width: usize,
    tuples: Vec<&'a Tuple>,
    counts: Vec<i64>,
}

impl<'a> Rows<'a> {
    fn with_capacity(width: usize, rows: usize) -> Self {
        Rows {
            width,
            tuples: Vec::with_capacity(width * rows),
            counts: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    fn row(&self, r: usize) -> &[&'a Tuple] {
        &self.tuples[r * self.width..(r + 1) * self.width]
    }

    /// Append the row `left ++ [right]` with count `count`.
    fn push(&mut self, left: &[&'a Tuple], right: &'a Tuple, count: i64) {
        self.tuples.extend_from_slice(left);
        self.tuples.push(right);
        self.counts.push(count);
    }

    /// Total tuple occurrences (duplicates and pending deletions
    /// included) — the real cost of hashing or probing these rows.
    fn occurrences(&self) -> f64 {
        self.counts.iter().map(|c| c.unsigned_abs() as f64).sum()
    }
}

/// `σ_pred(input)` as borrowed width-1 rows. Every tuple must have
/// `arity` attributes, so later steps index tuples without a check.
fn pushdown<'a>(
    input: &'a SignedBag,
    pred: &Predicate,
    arity: usize,
) -> Result<Rows<'a>, RelationalError> {
    let mut rows = Rows::with_capacity(1, input.distinct_len());
    for (tuple, count) in input.iter() {
        if tuple.arity() != arity {
            return Err(RelationalError::ArityMismatch {
                context: "SPJ term input".into(),
                expected: arity,
                actual: tuple.arity(),
            });
        }
        if pred.eval(tuple)? {
            rows.tuples.push(tuple);
            rows.counts.push(count);
        }
    }
    Ok(rows)
}

/// One side of a hash join: rows, and the `(slot, column)` each key
/// component reads from a row.
struct KeySide<'r, 'a> {
    rows: &'r Rows<'a>,
    cols: Vec<(usize, usize)>,
}

impl<'r, 'a> KeySide<'r, 'a> {
    fn value(&self, r: usize, k: usize) -> &'a Value {
        let (slot, col) = self.cols[k];
        &self.rows.row(r)[slot].values()[col]
    }

    fn hash(&self, state: &RandomState, r: usize) -> u64 {
        let mut h = state.build_hasher();
        for k in 0..self.cols.len() {
            self.value(r, k).hash(&mut h);
        }
        h.finish()
    }

    fn key_eq(&self, r: usize, other: &KeySide<'_, '_>, s: usize) -> bool {
        (0..self.cols.len()).all(|k| self.value(r, k) == other.value(s, k))
    }
}

/// No further row in a hash chain.
const END: usize = usize::MAX;

/// Join `next` (width-1 rows) onto `acc` on the composite key `keys`
/// (`(acc slot, acc column)` paired with a column of `next`), or cross
/// the two when `keys` is empty. Output rows are `acc`'s followed by
/// `next`'s tuple, counts multiplied.
///
/// The hash table is built on the side with fewer total occurrences
/// (duplicates included: a distinct count undercounts a skewed side, and
/// the table holds every row). It is one map from key hash to the first
/// build row, and a chain through the build rows sharing a hash. Probes
/// compare key values in place, so no key is ever built.
fn join<'a>(acc: &Rows<'a>, next: &Rows<'a>, keys: &[((usize, usize), usize)]) -> Rows<'a> {
    let mut out = Rows::with_capacity(acc.width + 1, acc.len().max(next.len()));
    if keys.is_empty() {
        for a in 0..acc.len() {
            for n in 0..next.len() {
                out.push(acc.row(a), next.tuples[n], acc.counts[a] * next.counts[n]);
            }
        }
        return out;
    }
    let acc_side = KeySide {
        rows: acc,
        cols: keys.iter().map(|&(a, _)| a).collect(),
    };
    let next_side = KeySide {
        rows: next,
        cols: keys.iter().map(|&(_, n)| (0, n)).collect(),
    };
    let build_is_acc = acc.occurrences() <= next.occurrences();
    let (build, probe) = if build_is_acc {
        (&acc_side, &next_side)
    } else {
        (&next_side, &acc_side)
    };
    let state = RandomState::new();
    let mut heads: HashMap<u64, usize> = HashMap::with_capacity(build.rows.len());
    let mut chain = vec![END; build.rows.len()];
    for (b, link) in chain.iter_mut().enumerate() {
        *link = heads.insert(build.hash(&state, b), b).unwrap_or(END);
    }
    for p in 0..probe.rows.len() {
        let mut b = heads.get(&probe.hash(&state, p)).copied().unwrap_or(END);
        while b != END {
            if build.key_eq(b, probe, p) {
                let (a, n) = if build_is_acc { (b, p) } else { (p, b) };
                out.push(acc.row(a), next.tuples[n], acc.counts[a] * next.counts[n]);
            }
            b = chain[b];
        }
    }
    out
}

/// [`crate::algebra::equijoin_multi`]: the executor's join over two
/// bags, each output row concatenated and the bag built in tuple order.
pub(crate) fn equijoin_bags(
    left: &SignedBag,
    right: &SignedBag,
    keys: &[(usize, usize)],
) -> SignedBag {
    /// `bag` as width-1 rows, without the tuples too short to have
    /// column `need`: they join nothing.
    fn rows(bag: &SignedBag, need: Option<usize>) -> Rows<'_> {
        let mut rows = Rows::with_capacity(1, bag.distinct_len());
        for (tuple, count) in bag.iter() {
            if need.map_or(true, |col| col < tuple.arity()) {
                rows.tuples.push(tuple);
                rows.counts.push(count);
            }
        }
        rows
    }
    let left = rows(left, keys.iter().map(|&(l, _)| l).max());
    let right = rows(right, keys.iter().map(|&(_, r)| r).max());
    let keys: Vec<((usize, usize), usize)> = keys.iter().map(|&(l, r)| ((0, l), r)).collect();
    let joined = join(&left, &right, &keys);
    let mut concatenated: Vec<(Tuple, i64)> = (0..joined.len())
        .map(|r| {
            let row = joined.row(r);
            (row[0].concat(row[1]), joined.counts[r])
        })
        .collect();
    // Sorted, so that every `add` appends or adjusts the last entry.
    concatenated.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out = SignedBag::new();
    for (tuple, count) in concatenated {
        out.add(tuple, count);
    }
    out
}

/// Distinct composite-key count of width-1 `rows` over `cols`, floored
/// at 1. Keys are counted by hash: an estimate needs no exact count.
fn distinct_keys(rows: &Rows<'_>, cols: &[usize]) -> f64 {
    let side = KeySide {
        rows,
        cols: cols.iter().map(|&c| (0, c)).collect(),
    };
    let state = RandomState::new();
    let keys: HashSet<u64> = (0..rows.len()).map(|r| side.hash(&state, r)).collect();
    (keys.len().max(1)) as f64
}

/// Greedy join order over the post-pushdown inputs: start from the
/// smallest, then repeatedly pick the candidate with the smallest
/// estimated joined cardinality — `|acc| · |cand| / distinct-keys(cand)`
/// when an equality edge links it to the accumulator, `|acc| · |cand|`
/// for a cross product. The last input needs no estimate.
#[must_use]
fn greedy_order(plan: &TermPlan, selected: &[Rows<'_>]) -> Vec<usize> {
    let n = selected.len();
    let totals: Vec<f64> = selected.iter().map(Rows::occurrences).collect();
    let Some(start) = (0..n).min_by(|&a, &b| totals[a].total_cmp(&totals[b])) else {
        return Vec::new();
    };
    let mut order = Vec::with_capacity(n);
    order.push(start);
    let mut joined = vec![false; n];
    joined[start] = true;
    let mut acc_est = totals[start];
    for step in 1..n {
        if step == n - 1 {
            order.extend((0..n).filter(|&cand| !joined[cand]));
            break;
        }
        let mut best: Option<(f64, usize)> = None;
        for cand in 0..n {
            if joined[cand] {
                continue;
            }
            let key_cols: Vec<usize> = plan
                .edges_to(cand, &joined)
                .iter()
                .map(|&(_, c)| c - plan.offsets[cand])
                .collect();
            let est = if key_cols.is_empty() {
                acc_est * totals[cand]
            } else {
                acc_est * totals[cand] / distinct_keys(&selected[cand], &key_cols)
            };
            if best.map_or(true, |(b, _)| est < b) {
                best = Some((est, cand));
            }
        }
        let Some((est, cand)) = best else {
            break;
        };
        order.push(cand);
        joined[cand] = true;
        acc_est = est.max(1.0);
    }
    order
}

/// Planned evaluation of `π_proj(σ_cond(inputs[0] × … ))`: pushdown,
/// composite-key hash joins in greedy order over borrowed rows, then the
/// residual selection and one projection per surviving row. Answers
/// equal [`crate::algebra::spj_naive`] exactly.
///
/// Only the output bag is built: rows are projected in the order of
/// their projected values, so the bag appends and packs its chunks full,
/// and its tuples are allocated in the order it holds them.
///
/// # Errors
/// Returns [`RelationalError::PositionOutOfRange`] when `cond` or `proj`
/// references a column outside the product,
/// [`RelationalError::ArityMismatch`] when an input mixes tuple arities,
/// and propagates predicate evaluation errors.
pub fn spj_planned(
    inputs: &[&SignedBag],
    cond: &Predicate,
    proj: &[usize],
) -> Result<SignedBag, RelationalError> {
    if inputs.is_empty() {
        // Zero-ary product is the unit bag {()}: nothing to plan.
        let selected = select(&SignedBag::singleton(Tuple::ints([])), cond)?;
        return project(&selected, proj);
    }
    if inputs.iter().any(|b| b.is_empty()) {
        return Ok(SignedBag::new());
    }
    // Arity of each input, inferred from any tuple (all are non-empty).
    let arities: Vec<usize> = inputs
        .iter()
        .map(|b| b.iter().next().map(|(t, _)| t.arity()).unwrap_or(0))
        .collect();
    let plan = TermPlan::new(arities, cond);
    if let Some(&position) = proj.iter().find(|&&p| p >= plan.total) {
        return Err(RelationalError::PositionOutOfRange {
            position,
            arity: plan.total,
        });
    }
    if let Some(position) = cond.columns().into_iter().find(|&c| c >= plan.total) {
        return Err(RelationalError::PositionOutOfRange {
            position,
            arity: plan.total,
        });
    }

    // Pushdown: borrowed rows per input; an emptied input empties the
    // term.
    let mut selected = Vec::with_capacity(inputs.len());
    for ((input, pred), &arity) in inputs.iter().zip(&plan.pushdown).zip(&plan.arities) {
        let rows = pushdown(input, pred, arity)?;
        if rows.is_empty() {
            return Ok(SignedBag::new());
        }
        selected.push(rows);
    }

    let order = greedy_order(&plan, &selected);

    // Join, tracking the slot each input's tuple takes in a row.
    let mut slot_of = vec![0usize; inputs.len()];
    let mut joined = vec![false; inputs.len()];
    let first = order[0];
    joined[first] = true;
    let mut acc = std::mem::replace(&mut selected[first], Rows::with_capacity(1, 0));
    for (slot, &next) in order.iter().enumerate().skip(1) {
        // Every edge into `next` starts at a column already joined.
        let keys: Vec<((usize, usize), usize)> = plan
            .edges_to(next, &joined)
            .into_iter()
            .map(|(acc_col, cand_col)| {
                let (owner, local) = plan.locate(acc_col);
                ((slot_of[owner], local), cand_col - plan.offsets[next])
            })
            .collect();
        acc = join(&acc, &selected[next], &keys);
        slot_of[next] = slot;
        joined[next] = true;
        if acc.is_empty() {
            return Ok(SignedBag::new());
        }
    }
    drop(selected);

    // Each surviving row keyed for bag order: the bag's order-preserving
    // prefix of its first two projected values, read in place; ties are
    // compared in full when sorting.
    let located: Vec<(usize, usize)> = proj
        .iter()
        .map(|&p| {
            let (owner, local) = plan.locate(p);
            (slot_of[owner], local)
        })
        .collect();
    let projected = |r: usize| {
        let row = acc.row(r);
        located
            .iter()
            .map(move |&(slot, local)| &row[slot].values()[local])
    };
    let keyed = |r: usize| {
        let mut values = projected(r);
        (prefix_of(values.next(), values.next()), r)
    };
    // The residual, once per joined row, on the row's values in
    // canonical order.
    let mut kept: Vec<(u64, usize)> = Vec::with_capacity(acc.len());
    if matches!(plan.residual, Predicate::True) {
        kept.extend((0..acc.len()).map(keyed));
    } else {
        let mut values: Vec<Value> = Vec::with_capacity(plan.total);
        for r in 0..acc.len() {
            values.clear();
            for &slot in &slot_of {
                values.extend_from_slice(acc.row(r)[slot].values());
            }
            if plan.residual.eval_values(&values)? {
                kept.push(keyed(r));
            }
        }
    }
    // The projection, once per surviving row, in bag order: every `add`
    // appends or adjusts the last entry, and the tuples are allocated in
    // the order the bag holds them.
    kept.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| projected(a.1).cmp(projected(b.1)))
    });
    let mut out = SignedBag::new();
    for (_, r) in kept {
        out.add(Tuple::new(projected(r).cloned()), acc.counts[r]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::spj_naive;
    use crate::predicate::CmpOp;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::ints(vals.iter().copied())
    }

    /// Each bag as unfiltered width-1 rows of binary tuples.
    fn rows<'a>(bags: &[&'a SignedBag]) -> Vec<Rows<'a>> {
        bags.iter()
            .map(|b| pushdown(b, &Predicate::True, 2).unwrap())
            .collect()
    }

    fn chain_cond() -> Predicate {
        // r1(W,X) ⋈ r2(X,Y) ⋈ r3(Y,Z), W > 5 — the Example-6 shape with
        // a single-relation constant filter on r1.
        Predicate::col_eq(1, 2)
            .and(Predicate::col_eq(3, 4))
            .and(Predicate::col_const(0, CmpOp::Gt, 5))
    }

    #[test]
    fn classification_splits_pushdown_edges_residual() {
        let plan = TermPlan::new(vec![2, 2, 2], &chain_cond());
        assert_eq!(plan.edges, vec![(1, 2), (3, 4)]);
        // W > 5 references only r1: pushed down, locally col 0.
        assert!(matches!(plan.pushdown[0], Predicate::Cmp { .. }));
        assert!(matches!(plan.pushdown[1], Predicate::True));
        assert!(matches!(plan.pushdown[2], Predicate::True));
        assert!(matches!(plan.residual, Predicate::True));
    }

    #[test]
    fn cross_input_inequality_stays_residual() {
        let cond = Predicate::col_eq(1, 2).and(Predicate::col_cmp(0, CmpOp::Lt, 3));
        let plan = TermPlan::new(vec![2, 2], &cond);
        assert_eq!(plan.edges, vec![(1, 2)]);
        assert!(matches!(plan.residual, Predicate::Cmp { .. }));
    }

    #[test]
    fn disjunction_within_one_input_is_pushed() {
        let cond = Predicate::col_const(0, CmpOp::Eq, 1).or(Predicate::col_const(1, CmpOp::Eq, 2));
        let plan = TermPlan::new(vec![2, 2], &cond);
        assert!(matches!(plan.pushdown[0], Predicate::Or(_, _)));
        assert!(matches!(plan.residual, Predicate::True));
    }

    #[test]
    fn same_input_equality_is_pushed_not_an_edge() {
        let plan = TermPlan::new(vec![3, 1], &Predicate::col_eq(0, 2));
        assert!(plan.edges.is_empty());
        assert!(matches!(plan.pushdown[0], Predicate::Cmp { .. }));
    }

    #[test]
    fn false_conjunct_empties_the_term() {
        let r = SignedBag::from_tuples([t(&[1])]);
        let cond = Predicate::False.and(Predicate::True);
        let v = spj_planned(&[&r, &r], &cond, &[0]).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn greedy_order_starts_with_smallest_bag() {
        let big = SignedBag::from_tuples((0..50).map(|i| t(&[i, i])));
        let small = SignedBag::from_tuples([t(&[1, 2])]);
        let plan = TermPlan::new(vec![2, 2], &Predicate::col_eq(1, 2));
        let order = greedy_order(&plan, &rows(&[&big, &small]));
        assert_eq!(order[0], 1);
    }

    #[test]
    fn greedy_order_prefers_linked_inputs_over_cross() {
        // r0 small; r1 linked to r0 by an edge, r2 unlinked. The linked
        // join estimate divides by distinct keys, so r1 must come before
        // the forced cross with r2.
        let r0 = SignedBag::from_tuples([t(&[1, 2])]);
        let r1 = SignedBag::from_tuples((0..10).map(|i| t(&[i, i])));
        let r2 = SignedBag::from_tuples((0..10).map(|i| t(&[i, i])));
        let plan = TermPlan::new(vec![2, 2, 2], &Predicate::col_eq(1, 2));
        let order = greedy_order(&plan, &rows(&[&r0, &r1, &r2]));
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn planned_matches_naive_on_chain_with_reordering() {
        // Data sized so the greedy order differs from input order: r3 is
        // the smallest input and becomes the start.
        let r1 = SignedBag::from_tuples((0..12).map(|i| t(&[i, i % 4])));
        let r2 = SignedBag::from_tuples((0..8).map(|i| t(&[i % 4, i % 3])));
        let r3 = SignedBag::from_tuples([t(&[1, 7]), t(&[2, 9])]);
        let cond = chain_cond();
        for proj in [&[0usize, 5][..], &[5, 0], &[2, 2, 4]] {
            let planned = spj_planned(&[&r1, &r2, &r3], &cond, proj).unwrap();
            let naive = spj_naive(&[&r1, &r2, &r3], &cond, proj).unwrap();
            assert_eq!(planned, naive, "proj {proj:?}");
        }
    }

    #[test]
    fn planned_matches_naive_with_signed_counts() {
        let mut r1 = SignedBag::new();
        r1.add(t(&[1, 2]), 3);
        r1.add(t(&[6, 2]), -2);
        let mut r2 = SignedBag::new();
        r2.add(t(&[2, 5]), -1);
        r2.add(t(&[2, 6]), 4);
        let cond = Predicate::col_eq(1, 2);
        let planned = spj_planned(&[&r1, &r2], &cond, &[0, 3]).unwrap();
        let naive = spj_naive(&[&r1, &r2], &cond, &[0, 3]).unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned.count(&t(&[1, 5])), -3);
    }

    #[test]
    fn planned_matches_naive_on_composite_edge() {
        // Two inputs linked by two equalities at once: one composite key.
        let r1 = SignedBag::from_tuples([t(&[1, 2, 0]), t(&[1, 3, 0]), t(&[2, 2, 1])]);
        let r2 = SignedBag::from_tuples([t(&[1, 2]), t(&[2, 2]), t(&[1, 3])]);
        let cond = Predicate::col_eq(0, 3).and(Predicate::col_eq(1, 4));
        let planned = spj_planned(&[&r1, &r2], &cond, &[0, 1, 2]).unwrap();
        let naive = spj_naive(&[&r1, &r2], &cond, &[0, 1, 2]).unwrap();
        assert_eq!(planned, naive);
    }

    #[test]
    fn planned_matches_naive_on_pure_cross_with_residual() {
        let r1 = SignedBag::from_tuples([t(&[1]), t(&[5])]);
        let r2 = SignedBag::from_tuples([t(&[3]), t(&[4])]);
        let cond = Predicate::col_cmp(0, CmpOp::Lt, 1);
        let planned = spj_planned(&[&r1, &r2], &cond, &[0, 1]).unwrap();
        let naive = spj_naive(&[&r1, &r2], &cond, &[0, 1]).unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned.pos_len(), 2); // (1,3), (1,4)
    }

    #[test]
    fn out_of_range_columns_error() {
        let r = SignedBag::from_tuples([t(&[1])]);
        let err = spj_planned(&[&r], &Predicate::col_const(4, CmpOp::Eq, 1), &[0]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::PositionOutOfRange {
                position: 4,
                arity: 1
            }
        ));
        let err = spj_planned(&[&r], &Predicate::True, &[2]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::PositionOutOfRange {
                position: 2,
                arity: 1
            }
        ));
    }
}

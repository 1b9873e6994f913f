//! Per-term SPJ planning: predicate pushdown, composite hash-join keys,
//! and greedy data-dependent join ordering.
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
//!   conjuncts) → **residual**: re-applied once on the joined result.
//!
//! Join order is chosen greedily at execution time from the actual
//! post-pushdown bag sizes: start from the smallest input, then repeatedly
//! attach the candidate minimizing the estimated cardinality
//! `|acc| · |cand| / distinct-keys(cand)` (or the plain product for a
//! cross). Because joins are no longer performed in input order, the
//! executor tracks a *layout* mapping accumulator positions back to
//! canonical product columns; the residual predicate and the projection
//! are remapped through it at the end.

use std::collections::{HashMap, HashSet};

use crate::algebra::{cross, equijoin_multi, project, select};
use crate::bag::SignedBag;
use crate::error::RelationalError;
use crate::predicate::{CmpOp, Operand, Predicate};
use crate::tuple::Tuple;

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
        if col >= self.total {
            return None;
        }
        Some(self.offsets.partition_point(|&o| o <= col) - 1)
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

/// Total tuple occurrences (duplicates and pending deletions included).
fn total_occurrences(bag: &SignedBag) -> f64 {
    (bag.pos_len() + bag.neg_len()) as f64
}

/// Distinct composite-key count of `bag` over `cols`, floored at 1.
fn distinct_keys(bag: &SignedBag, cols: &[usize]) -> f64 {
    let mut keys = HashSet::new();
    for (t, _) in bag.iter() {
        let key: Option<Vec<_>> = cols.iter().map(|&c| t.get(c)).collect();
        if let Some(k) = key {
            keys.insert(k);
        }
    }
    (keys.len().max(1)) as f64
}

/// Greedy join order over the post-pushdown inputs: start from the
/// smallest bag, then repeatedly pick the candidate with the smallest
/// estimated joined cardinality — `|acc| · |cand| / distinct-keys(cand)`
/// when an equality edge links it to the accumulator, `|acc| · |cand|`
/// for a cross product.
#[must_use]
fn greedy_order(plan: &TermPlan, selected: &[SignedBag]) -> Vec<usize> {
    let n = selected.len();
    let totals: Vec<f64> = selected.iter().map(total_occurrences).collect();
    let Some(start) = (0..n).min_by(|&a, &b| totals[a].total_cmp(&totals[b])) else {
        return Vec::new();
    };
    let mut order = Vec::with_capacity(n);
    order.push(start);
    let mut joined = vec![false; n];
    joined[start] = true;
    let mut acc_est = totals[start];
    for _ in 1..n {
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
/// composite-key hash joins in greedy order, then residual selection and
/// projection remapped through the executed layout. Answers equal
/// [`crate::algebra::spj_naive`] exactly.
///
/// # Errors
/// Returns [`RelationalError::PositionOutOfRange`] when `cond` or `proj`
/// references a column outside the product, and propagates predicate
/// evaluation errors.
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

    // Pushdown: pre-select each input; an emptied input empties the term.
    let mut selected = Vec::with_capacity(inputs.len());
    for (input, pred) in inputs.iter().zip(&plan.pushdown) {
        let s = select(input, pred)?;
        if s.is_empty() {
            return Ok(SignedBag::new());
        }
        selected.push(s);
    }

    let order = greedy_order(&plan, &selected);

    // Execute the joins, tracking which canonical column sits at each
    // accumulator position.
    let mut joined = vec![false; inputs.len()];
    let first = order[0];
    joined[first] = true;
    let mut layout: Vec<usize> =
        (plan.offsets[first]..plan.offsets[first] + plan.arities[first]).collect();
    let mut acc = selected[first].clone();
    for &next in &order[1..] {
        // Every edge into `next` starts at a column already joined.
        let keys = plan
            .edges_to(next, &joined)
            .into_iter()
            .map(|(acc_col, cand_col)| {
                let acc_pos = layout.iter().position(|&c| c == acc_col).ok_or(
                    RelationalError::PositionOutOfRange {
                        position: acc_col,
                        arity: layout.len(),
                    },
                )?;
                Ok((acc_pos, cand_col - plan.offsets[next]))
            })
            .collect::<Result<Vec<_>, RelationalError>>()?;
        acc = if keys.is_empty() {
            cross(&acc, &selected[next])
        } else {
            equijoin_multi(&acc, &selected[next], &keys)
        };
        layout.extend(plan.offsets[next]..plan.offsets[next] + plan.arities[next]);
        joined[next] = true;
        if acc.is_empty() {
            return Ok(SignedBag::new());
        }
    }

    // Remap residual and projection from canonical columns to the layout
    // the joins actually produced.
    let pos_of: HashMap<usize, usize> = layout.iter().enumerate().map(|(p, &c)| (c, p)).collect();
    let residual = plan.residual.map_columns(&|c| pos_of[&c]);
    let kept = select(&acc, &residual)?;
    let mapped_proj: Vec<usize> = proj.iter().map(|&p| pos_of[&p]).collect();
    project(&kept, &mapped_proj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::spj_naive;
    use crate::predicate::CmpOp;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::ints(vals.iter().copied())
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
        let order = greedy_order(&plan, &[big, small]);
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
        let order = greedy_order(&plan, &[r0, r1, r2]);
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

//! Relational operators over signed bags with the paper's sign-propagation
//! rules (§4.1): selection and projection preserve signs; cross products
//! combine them multiplicatively. In the counting formulation these rules
//! fall out of ordinary `i64` arithmetic on replication counts.

use crate::bag::SignedBag;
use crate::error::RelationalError;
use crate::predicate::Predicate;
use crate::tuple::Tuple;

/// `σ_pred(input)` — keep tuples satisfying `pred`, signs unchanged.
///
/// # Errors
/// Propagates predicate evaluation errors (bad column references).
pub fn select(input: &SignedBag, pred: &Predicate) -> Result<SignedBag, RelationalError> {
    if matches!(pred, Predicate::True) {
        return Ok(input.clone());
    }
    let mut out = SignedBag::new();
    for (tuple, count) in input.iter() {
        if pred.eval(tuple)? {
            out.add(tuple.clone(), count);
        }
    }
    Ok(out)
}

/// `π_positions(input)` — project onto positions, retaining duplicates:
/// counts of tuples that collapse to the same projection accumulate.
///
/// Positions are validated once against the bag's arity (all tuples in a
/// bag share one schema), not per tuple.
///
/// # Errors
/// Returns [`RelationalError::PositionOutOfRange`] on an invalid position.
pub fn project(input: &SignedBag, positions: &[usize]) -> Result<SignedBag, RelationalError> {
    let Some((first, _)) = input.iter().next() else {
        return Ok(SignedBag::new());
    };
    let arity = first.arity();
    if let Some(&position) = positions.iter().find(|&&p| p >= arity) {
        return Err(RelationalError::PositionOutOfRange { position, arity });
    }
    let mut out = SignedBag::new();
    for (tuple, count) in input.iter() {
        out.add(tuple.project(positions), count);
    }
    Ok(out)
}

/// `left × right` — cross product; counts (and therefore signs) multiply.
#[must_use]
pub fn cross(left: &SignedBag, right: &SignedBag) -> SignedBag {
    let mut out = SignedBag::new();
    for (lt, lc) in left.iter() {
        for (rt, rc) in right.iter() {
            out.add(lt.concat(rt), lc * rc);
        }
    }
    out
}

/// Evaluate a full SPJ term `π_proj(σ_cond(r1 × r2 × … × rn))`.
///
/// This is the *planned* path (see [`crate::planner`]): single-relation
/// conjuncts of `cond` are pushed down into pre-selections on each input,
/// cross-input equalities become (composite) hash-join keys, each next
/// input is the first one linked to the inputs joined so far
/// ([`crate::planner::Executor::next_input`]), and only the residual
/// conjuncts not consumed by pushdown or joins are re-applied at the end.
/// Answers are identical to [`spj_naive`].
///
/// # Errors
/// Propagates predicate and projection errors.
pub fn spj(
    inputs: &[&SignedBag],
    cond: &Predicate,
    proj: &[usize],
) -> Result<SignedBag, RelationalError> {
    crate::planner::spj_planned(inputs, cond, proj)
}

/// Naive oracle for [`spj`]: materialize the full cross product, then
/// select, then project. Exponential in the number of inputs — kept only
/// as the reference semantics for differential tests and benchmarks.
///
/// # Errors
/// Propagates predicate and projection errors.
pub fn spj_naive(
    inputs: &[&SignedBag],
    cond: &Predicate,
    proj: &[usize],
) -> Result<SignedBag, RelationalError> {
    let Some(first) = inputs.first() else {
        let selected = select(&SignedBag::singleton(Tuple::ints([])), cond)?;
        return project(&selected, proj);
    };
    let mut acc = (*first).clone();
    for input in &inputs[1..] {
        acc = cross(&acc, input);
    }
    let selected = select(&acc, cond)?;
    project(&selected, proj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::ints(vals.iter().copied())
    }

    #[test]
    fn select_preserves_signs() {
        let mut b = SignedBag::new();
        b.add(t(&[1]), 2);
        b.add(t(&[2]), -1);
        b.add(t(&[3]), 1);
        let s = select(&b, &Predicate::col_const(0, CmpOp::Le, 2)).unwrap();
        assert_eq!(s.count(&t(&[1])), 2);
        assert_eq!(s.count(&t(&[2])), -1);
        assert_eq!(s.count(&t(&[3])), 0);
    }

    #[test]
    fn select_true_is_identity() {
        let b = SignedBag::from_tuples([t(&[1]), t(&[2])]);
        assert_eq!(select(&b, &Predicate::True).unwrap(), b);
    }

    #[test]
    fn project_accumulates_duplicates() {
        let b = SignedBag::from_tuples([t(&[1, 2]), t(&[1, 3])]);
        let p = project(&b, &[0]).unwrap();
        assert_eq!(p.count(&t(&[1])), 2);
    }

    #[test]
    fn project_cancels_opposite_signs() {
        let mut b = SignedBag::new();
        b.add(t(&[1, 2]), 1);
        b.add(t(&[1, 3]), -1);
        let p = project(&b, &[0]).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn cross_multiplies_counts_and_signs() {
        let mut l = SignedBag::new();
        l.add(t(&[1]), 2);
        let mut r = SignedBag::new();
        r.add(t(&[9]), -1);
        let c = cross(&l, &r);
        // (+2) * (−1) = −2 : minus sign carries through, duplicates kept.
        assert_eq!(c.count(&t(&[1, 9])), -2);
    }

    #[test]
    fn cross_with_empty_is_empty() {
        let l = SignedBag::from_tuples([t(&[1])]);
        assert!(cross(&l, &SignedBag::new()).is_empty());
        assert!(cross(&SignedBag::new(), &l).is_empty());
    }

    #[test]
    fn cross_distributes_over_plus() {
        // (a + b) × c == a×c + b×c
        let a = SignedBag::from_tuples([t(&[1])]);
        let mut b = SignedBag::new();
        b.add(t(&[2]), -1);
        let c = SignedBag::from_tuples([t(&[7]), t(&[8])]);
        let lhs = cross(&a.plus(&b), &c);
        let rhs = cross(&a, &c).plus(&cross(&b, &c));
        assert_eq!(lhs, rhs);
    }

    /// `left ⋈ right` on the composite key `keys` (left column, right
    /// column), every column kept: an SPJ term over the two bags.
    fn join(left: &SignedBag, right: &SignedBag, keys: &[(usize, usize)]) -> SignedBag {
        let width = |b: &SignedBag| b.iter().next().map_or(0, |(t, _)| t.arity());
        let offset = width(left);
        let cond = keys.iter().fold(Predicate::True, |cond, &(l, r)| {
            cond.and(Predicate::col_eq(l, offset + r))
        });
        let all: Vec<usize> = (0..offset + width(right)).collect();
        spj(&[left, right], &cond, &all).unwrap()
    }

    #[test]
    fn equijoin_matches_cross_select() {
        let r1 = SignedBag::from_tuples([t(&[1, 2]), t(&[4, 2]), t(&[5, 9])]);
        let mut r2 = SignedBag::new();
        r2.add(t(&[2, 3]), 1);
        r2.add(t(&[2, 4]), -1);
        r2.add(t(&[9, 9]), 1);
        let joined = join(&r1, &r2, &[(1, 0)]);
        let expected = select(&cross(&r1, &r2), &Predicate::col_eq(1, 2)).unwrap();
        assert_eq!(joined, expected);
    }

    #[test]
    fn equijoin_build_side_choice_is_transparent() {
        // Either input first, so either side may build the hash table.
        let small = SignedBag::from_tuples([t(&[2, 3]), t(&[6, 1])]);
        let large = SignedBag::from_tuples([t(&[1, 2]), t(&[4, 2]), t(&[6, 7])]);
        let a = join(&large, &small, &[(1, 0)]);
        let b = select(&cross(&large, &small), &Predicate::col_eq(1, 2)).unwrap();
        assert_eq!(a, b);
        let a = join(&small, &large, &[(0, 1)]);
        let b = select(&cross(&small, &large), &Predicate::col_eq(0, 3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn equijoin_skewed_duplicates_match_cross_select() {
        // One distinct tuple with a huge replication count on the left:
        // `distinct_len` would call the left side "smaller" (2 distinct vs
        // 3), but by total occurrences it is far larger. Whichever side
        // builds, the answer must equal σ(×) with multiplied counts.
        let mut skewed = SignedBag::new();
        skewed.add(t(&[7, 2]), 1000);
        skewed.add(t(&[8, 9]), -500);
        let flat = SignedBag::from_tuples([t(&[2, 1]), t(&[2, 2]), t(&[3, 3])]);
        let joined = join(&skewed, &flat, &[(1, 0)]);
        let expected = select(&cross(&skewed, &flat), &Predicate::col_eq(1, 2)).unwrap();
        assert_eq!(joined, expected);
        assert_eq!(joined.count(&t(&[7, 2, 2, 1])), 1000);
        // And flipped operand order as well.
        let joined_rev = join(&flat, &skewed, &[(0, 1)]);
        let expected_rev = select(&cross(&flat, &skewed), &Predicate::col_eq(0, 3)).unwrap();
        assert_eq!(joined_rev, expected_rev);
    }

    #[test]
    fn equijoin_multi_composite_key_matches_cross_select() {
        let r1 = SignedBag::from_tuples([t(&[1, 2, 3]), t(&[1, 2, 4]), t(&[9, 9, 9])]);
        let mut r2 = SignedBag::new();
        r2.add(t(&[1, 2, 7]), 2);
        r2.add(t(&[1, 5, 7]), 1);
        r2.add(t(&[9, 9, 0]), -1);
        let joined = join(&r1, &r2, &[(0, 0), (1, 1)]);
        let cond = Predicate::col_eq(0, 3).and(Predicate::col_eq(1, 4));
        let expected = select(&cross(&r1, &r2), &cond).unwrap();
        assert_eq!(joined, expected);
        assert_eq!(joined.count(&t(&[1, 2, 3, 1, 2, 7])), 2);
        assert_eq!(joined.count(&t(&[9, 9, 9, 9, 9, 0])), -1);
    }

    #[test]
    fn equijoin_multi_empty_key_is_cross() {
        let l = SignedBag::from_tuples([t(&[1])]);
        let r = SignedBag::from_tuples([t(&[2]), t(&[3])]);
        assert_eq!(join(&l, &r, &[]), cross(&l, &r));
    }

    #[test]
    fn spj_rejects_an_input_that_mixes_arities() {
        // A tuple too short for its input's key column is an error, not a
        // row that joins nothing.
        let l = SignedBag::from_tuples([t(&[1, 5]), t(&[1])]);
        let r = SignedBag::from_tuples([t(&[5, 2])]);
        let err = spj(&[&l, &r], &Predicate::col_eq(1, 2), &[0]).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn project_rejects_out_of_range_once() {
        let b = SignedBag::from_tuples([t(&[1, 2]), t(&[3, 4])]);
        let err = project(&b, &[0, 2]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::PositionOutOfRange {
                position: 2,
                arity: 2
            }
        ));
        // Empty bag: nothing to validate against, projection is empty.
        assert!(project(&SignedBag::new(), &[17]).unwrap().is_empty());
    }

    #[test]
    fn spj_paper_example_1() {
        // V = π_W(r1 ⋈ r2) with r1 = ([1,2]), r2 = ([2,4]).
        let r1 = SignedBag::from_tuples([t(&[1, 2])]);
        let r2 = SignedBag::from_tuples([t(&[2, 4])]);
        let v = spj(&[&r1, &r2], &Predicate::col_eq(1, 2), &[0]).unwrap();
        assert_eq!(v, SignedBag::from_tuples([t(&[1])]));
    }

    #[test]
    fn spj_three_relations() {
        // V = π_W(r1 ⋈X r2 ⋈Y r3), Example 4 final state.
        let r1 = SignedBag::from_tuples([t(&[1, 2]), t(&[4, 2])]);
        let r2 = SignedBag::from_tuples([t(&[2, 5])]);
        let r3 = SignedBag::from_tuples([t(&[5, 3])]);
        let cond = Predicate::col_eq(1, 2).and(Predicate::col_eq(3, 4));
        let v = spj(&[&r1, &r2, &r3], &cond, &[0]).unwrap();
        assert_eq!(v, SignedBag::from_tuples([t(&[1]), t(&[4])]));
    }

    #[test]
    fn spj_empty_input_list_yields_unit() {
        let v = spj(&[], &Predicate::True, &[]).unwrap();
        assert_eq!(v.pos_len(), 1);
    }

    #[test]
    fn spj_short_circuits_on_empty() {
        let r1 = SignedBag::new();
        let r2 = SignedBag::from_tuples([t(&[1])]);
        let v = spj(&[&r1, &r2], &Predicate::True, &[0]).unwrap();
        assert!(v.is_empty());
    }
}

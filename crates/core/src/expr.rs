//! Query expressions (paper §4.2).
//!
//! A **term** is `π_proj(σ_cond(~r1 × ~r2 × … × ~rn))` where each `~ri` is
//! either the base relation `ri` or a bound (signed) updated tuple of `ri`.
//! A **query** is a sum of terms; the ECA compensating queries subtract
//! terms, which we represent with a per-term integer `factor` (±1, and more
//! general coefficients compose soundly).
//!
//! The substitution `Q⟨U⟩` replaces `U`'s relation by `U`'s signed tuple in
//! every term; a term that already binds that relation vanishes
//! (`Q⟨U1,…,Uk⟩ = ∅` when two updates hit the same relation — paper §4.2).

use std::fmt;
use std::sync::Arc;

use eca_relational::planner::{Executor, TermPlan};
use eca_relational::{RelationalError, SignedBag, SignedTuple, Update};

use crate::basedb::BaseLookup;
use crate::view::ViewDef;

/// Identifier of an in-flight warehouse query.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// One slot of a term: the base relation itself, or a bound updated tuple.
#[derive(Clone, PartialEq, Eq)]
pub enum Atom {
    /// The base relation at this index of the view's relation list.
    Rel(usize),
    /// A bound signed tuple substituted for the relation.
    Bound(SignedTuple),
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Rel(i) => write!(f, "r{}", i + 1),
            Atom::Bound(st) => write!(f, "{st:?}"),
        }
    }
}

/// A single SPJ term with an integer coefficient.
#[derive(Clone, PartialEq, Eq)]
pub struct Term {
    factor: i64,
    atoms: Vec<Atom>,
}

impl Term {
    /// Build a term with the given coefficient and atoms.
    pub fn new(factor: i64, atoms: Vec<Atom>) -> Self {
        Term { factor, atoms }
    }

    /// The coefficient (±1 in the paper's algorithms).
    pub fn factor(&self) -> i64 {
        self.factor
    }

    /// The atoms in relation order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms still referring to base relations (unbound).
    pub fn unbound_count(&self) -> usize {
        self.atoms
            .iter()
            .filter(|a| matches!(a, Atom::Rel(_)))
            .count()
    }

    /// `T⟨U⟩`, appended to `out`: full multi-occurrence substitution by
    /// inclusion–exclusion. Nothing is appended when every occurrence of
    /// `U`'s relation is already bound in this term, or the relation does
    /// not occur at all (the empty query).
    ///
    /// Let `O` be the unbound occurrences of `U`'s relation in this term
    /// and `Δ` the signed updated tuple. Multilinearity of the cross
    /// product in each slot gives
    ///
    /// ```text
    /// T[ss_{j-1}] = T[ss_j] − Σ_{∅≠S⊆O} (−1)^{|S|+1} · T[Δ at S][ss_j]
    /// ```
    ///
    /// so `T⟨U⟩ := Σ_{∅≠S⊆O} (−1)^{|S|+1} T[Δ@S]` preserves Lemma B.2 —
    /// the identity all the compensation proofs rest on. When the view
    /// references `U`'s relation once (the paper's standing assumption in
    /// §4) this is the paper's single-term substitution verbatim; views
    /// with **multiple occurrences** (self-joins, the extension §4
    /// sketches) append one term per subset.
    pub fn substitute_all_occurrences(&self, view: &ViewDef, update: &Update, out: &mut Vec<Term>) {
        let slots = view.slots_of(&update.relation, |i| {
            matches!(self.atoms.get(i), Some(Atom::Rel(_)))
        });
        let atom = |i: usize| self.atoms[i].clone();
        Term::expand(self.factor, slots, self.atoms.len(), atom, update, out);
    }

    /// Append one term per non-empty subset `S` of the `slots` mask, in
    /// increasing mask order: `atom(i)` outside `S`, `U`'s signed tuple
    /// inside, and `factor · (−1)^{|S|+1}`.
    pub(crate) fn expand(
        factor: i64,
        slots: u32,
        width: usize,
        atom: impl Fn(usize) -> Atom,
        update: &Update,
        out: &mut Vec<Term>,
    ) {
        // `(subset − slots) & slots` steps through the subsets of `slots`
        // in increasing order, back to 0 after the last.
        let mut subset = 0u32;
        loop {
            subset = subset.wrapping_sub(slots) & slots;
            if subset == 0 {
                return;
            }
            let atoms = (0..width)
                .map(|i| match subset & (1 << i) {
                    0 => atom(i),
                    _ => Atom::Bound(update.signed_tuple()),
                })
                .collect();
            // (−1)^{|S|+1}: + for odd |S|, − for even.
            let sign = if subset.count_ones() % 2 == 1 { 1 } else { -1 };
            out.push(Term {
                factor: factor * sign,
                atoms,
            });
        }
    }

    /// Negate the coefficient in place.
    pub(crate) fn negate(&mut self) {
        self.factor = -self.factor;
    }

    /// A copy with the coefficient negated.
    #[must_use]
    pub fn negated(&self) -> Term {
        Term {
            factor: -self.factor,
            atoms: self.atoms.clone(),
        }
    }

    /// Start `exec` on this term of a view with plan `plan`: its bound
    /// tuples in one row, counted by the coefficient times their signs.
    ///
    /// # Errors
    /// As [`Executor::seed`].
    pub fn seed<'a>(
        &'a self,
        plan: &TermPlan,
        exec: &mut Executor<'a>,
    ) -> Result<(), RelationalError> {
        let bound = self
            .atoms
            .iter()
            .enumerate()
            .filter_map(|(i, atom)| match atom {
                Atom::Bound(st) => Some((i, st)),
                Atom::Rel(_) => None,
            });
        let factor = bound
            .clone()
            .fold(self.factor, |f, (_, st)| f * st.sign.factor());
        exec.seed(plan, factor, bound.map(|(i, st)| (i, &st.tuple)))
    }

    /// Evaluate this term against base relation contents, including the
    /// coefficient.
    ///
    /// # Errors
    /// Propagates relational evaluation errors.
    pub fn eval(&self, view: &ViewDef, db: &impl BaseLookup) -> Result<SignedBag, RelationalError> {
        let mut out = SignedBag::new();
        self.eval_into(view, db, &mut Executor::default(), &mut out)?;
        Ok(out)
    }

    /// Add this term's value into `out`: seeded with its bound tuples,
    /// the relations it leaves joined from `db` in
    /// [`Executor::next_input`] order (a relation `db` lacks is empty).
    fn eval_into<'a>(
        &'a self,
        view: &ViewDef,
        db: &'a impl BaseLookup,
        exec: &mut Executor<'a>,
        out: &mut SignedBag,
    ) -> Result<(), RelationalError> {
        let plan = view.plan();
        self.seed(plan, exec)?;
        while let Some(i) = exec.next_input(plan) {
            let bag = db.bag(view.base()[i].relation());
            exec.join(plan, i, bag.into_iter().flat_map(SignedBag::iter))?;
        }
        exec.finish(plan, view.proj(), out)
    }

    /// Encoded payload size of this term under the wire codec: 1 byte
    /// factor sign, then per atom either a 1-byte relation tag or the
    /// signed-tuple encoding.
    pub fn encoded_len(&self) -> usize {
        1 + self
            .atoms
            .iter()
            .map(|a| match a {
                Atom::Rel(_) => 1,
                Atom::Bound(st) => 2 + st.tuple.encoded_len(),
            })
            .sum::<usize>()
    }
}

impl std::ops::Neg for Term {
    type Output = Term;

    /// The term with its coefficient negated, without copying its atoms.
    fn neg(mut self) -> Term {
        self.factor = -self.factor;
        self
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.factor != 1 {
            write!(f, "{}*", self.factor)?;
        }
        write!(f, "pi(sigma(")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{a:?}")?;
        }
        write!(f, "))")
    }
}

/// A query: a sum of terms over a view's relations (paper Eq. 4.2).
///
/// The terms sit behind one [`Arc`], so a clone costs two reference
/// counts: the maintainer's `UQS` entry, the session's re-issue copy and
/// the outbound message all share one body.
#[derive(Clone, PartialEq, Eq)]
pub struct Query {
    view: ViewDef,
    terms: Arc<[Term]>,
}

impl Query {
    /// Build a query from terms.
    pub fn from_terms(view: ViewDef, terms: Vec<Term>) -> Self {
        Query::from_shared(view, terms.into())
    }

    /// Build a query over terms another query (or message) already holds.
    pub fn from_shared(view: ViewDef, terms: Arc<[Term]>) -> Self {
        Query { view, terms }
    }

    /// The view the query maintains.
    pub fn view(&self) -> &ViewDef {
        &self.view
    }

    /// The terms.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The terms, as the shared body.
    pub fn shared_terms(&self) -> &Arc<[Term]> {
        &self.terms
    }

    /// Whether the query has no terms (evaluates to ∅ trivially).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// `Q⟨U⟩`: substitute into every term, dropping vanished ones. Views
    /// with repeated relations expand each term by inclusion–exclusion.
    #[must_use]
    pub fn substitute(&self, update: &Update) -> Query {
        let mut terms = Vec::new();
        for t in self.terms.iter() {
            t.substitute_all_occurrences(&self.view, update, &mut terms);
        }
        Query::from_terms(self.view.clone(), terms)
    }

    /// `Q⟨U1,…,Uk⟩` applied left to right.
    #[must_use]
    #[cfg(test)]
    fn substitute_all(&self, updates: &[Update]) -> Query {
        updates.iter().fold(self.clone(), |q, u| q.substitute(u))
    }

    /// Append `other`'s terms negated (the paper's `Q − Q'`).
    #[must_use]
    pub fn minus(&self, other: &Query) -> Query {
        let mut terms = self.terms.to_vec();
        terms.extend(other.terms.iter().map(Term::negated));
        Query::from_terms(self.view.clone(), terms)
    }

    /// Evaluate against base relation contents: the signed sum of all term
    /// results.
    ///
    /// # Errors
    /// Propagates relational evaluation errors.
    pub fn eval(&self, db: &impl BaseLookup) -> Result<SignedBag, RelationalError> {
        let mut exec = Executor::default();
        let mut out = SignedBag::new();
        for term in self.terms.iter() {
            term.eval_into(&self.view, db, &mut exec, &mut out)?;
        }
        Ok(out)
    }

    /// Encoded payload size under the wire codec: 2-byte term count plus
    /// term encodings.
    pub fn encoded_len(&self) -> usize {
        2 + self.terms.iter().map(Term::encoded_len).sum::<usize>()
    }

    /// Split into one single-term query per term (LCA sends terms
    /// individually so answers can be routed to their owning update).
    #[cfg(test)]
    fn split_terms(&self) -> Vec<Query> {
        self.terms
            .iter()
            .map(|t| Query::from_terms(self.view.clone(), vec![t.clone()]))
            .collect()
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "EMPTY");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basedb::BaseDb;
    use eca_relational::{Predicate, Schema, Tuple};

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

    #[test]
    fn substitution_binds_and_vanishes() {
        let v = view2();
        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let q1 = v.substitute(&u1).unwrap();
        // Q1⟨U⟩ for another r2 update must vanish (same relation bound).
        let u2 = Update::insert("r2", Tuple::ints([9, 9]));
        assert!(q1.substitute(&u2).is_empty());
        // But an r1 update binds the remaining atom.
        let u3 = Update::insert("r1", Tuple::ints([4, 2]));
        let q13 = q1.substitute(&u3);
        assert_eq!(q13.terms().len(), 1);
        assert_eq!(q13.terms()[0].unbound_count(), 0);
    }

    #[test]
    fn substitute_all_same_relation_twice_is_empty() {
        let v = view2();
        let q = v.as_query();
        let us = [
            Update::insert("r1", Tuple::ints([1, 1])),
            Update::insert("r1", Tuple::ints([2, 2])),
        ];
        assert!(q.substitute_all(&us).is_empty());
    }

    #[test]
    fn eval_example_2_q1_sees_anomalous_state() {
        // Paper Example 2 step 5: Q1 = π_W(r1 ⋈ [2,3]) evaluated on
        // r1 = ([1,2],[4,2]) yields ([1],[4]).
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([4, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let q1 = v
            .substitute(&Update::insert("r2", Tuple::ints([2, 3])))
            .unwrap();
        let a1 = q1.eval(&db).unwrap();
        assert_eq!(
            a1,
            SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])])
        );
    }

    #[test]
    fn deletion_substitution_carries_minus_sign() {
        // Example 8: Q1 = π_W((−[4,2]) ⋈ r2); with r2 = ([2,3]) the answer
        // is −[4].
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r2", Tuple::ints([2, 3]));
        let q = v
            .substitute(&Update::delete("r1", Tuple::ints([4, 2])))
            .unwrap();
        let a = q.eval(&db).unwrap();
        assert_eq!(a.count(&Tuple::ints([4])), -1);
    }

    #[test]
    fn minus_appends_negated_terms() {
        let v = view2();
        let q1 = v
            .substitute(&Update::insert("r2", Tuple::ints([2, 3])))
            .unwrap();
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        let q2 = v.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
        assert_eq!(q2.terms().len(), 2);
        assert_eq!(q2.terms()[0].factor(), 1);
        assert_eq!(q2.terms()[1].factor(), -1);
    }

    #[test]
    fn compensated_query_evaluates_like_paper_example_2() {
        // Step 7-8 of the ECA walk-through in §1.2: with compensation the
        // A2 answer is empty.
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([4, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        let q1 = v.substitute(&u1).unwrap();
        let q2 = v.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
        let a2 = q2.eval(&db).unwrap();
        assert!(
            a2.is_empty(),
            "compensation should cancel the anomaly, got {a2:?}"
        );
    }

    #[test]
    fn lemma_b2_property() {
        // Q[ss_{j-1}] = Q[ss_j] − Q⟨U_j⟩[ss_j] for insertions and deletions.
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 4]));
        let q = v.as_query();

        for u in [
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::delete("r1", Tuple::ints([1, 2])),
            Update::insert("r2", Tuple::ints([2, 9])),
        ] {
            let before = q.eval(&db).unwrap();
            let mut db2 = db.clone();
            db2.apply(&u);
            let after = q.eval(&db2).unwrap();
            let comp = q.substitute(&u).eval(&db2).unwrap();
            assert_eq!(before, after.minus(&comp), "Lemma B.2 failed for {u:?}");
        }
    }

    #[test]
    fn split_terms_preserves_sum() {
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([1, 2]));
        let q = v
            .substitute(&u2)
            .unwrap()
            .minus(&v.substitute(&u1).unwrap().substitute(&u2));
        let whole = q.eval(&db).unwrap();
        let mut sum = SignedBag::new();
        for part in q.split_terms() {
            sum.merge(&part.eval(&db).unwrap());
        }
        assert_eq!(whole, sum);
    }

    #[test]
    fn encoded_len_grows_with_bound_tuples() {
        let v = view2();
        let free = v.as_query();
        let bound = v
            .substitute(&Update::insert("r1", Tuple::ints([4, 2])))
            .unwrap();
        assert!(bound.encoded_len() > free.encoded_len());
    }

    #[test]
    fn debug_formats() {
        let v = view2();
        let q = v
            .substitute(&Update::delete("r1", Tuple::ints([4, 2])))
            .unwrap();
        let s = format!("{q:?}");
        assert!(s.contains("-[4,2]"), "{s}");
        assert_eq!(format!("{}", QueryId(3)), "Q3");
    }
}

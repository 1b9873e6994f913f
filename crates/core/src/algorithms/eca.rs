//! The Eager Compensating Algorithm (paper Alg. 5.2), with the paper's
//! two refinements as data: which terms the warehouse answers itself, and
//! how many updates share one query.
//!
//! When update `U_i` arrives while queries are pending (`UQS ≠ ∅`), those
//! queries will be evaluated at the source on a state that already reflects
//! `U_i`. ECA offsets this *eagerly* by attaching one compensating query per
//! pending query:
//!
//! ```text
//! Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩
//! ```
//!
//! Answers are buffered in `COLLECT` and installed into `MV` only when
//! `UQS = ∅`, so the view never assumes an invalid intermediate state —
//! this is what lifts ECA from convergent to strongly consistent
//! (paper §5.2 and Appendix B).
//!
//! # Local terms and batches
//!
//! A [`LocalRule`] names the terms of `Q_i` the warehouse evaluates
//! itself, at `ss_i`, into `COLLECT` instead of shipping them: none
//! (Alg. 5.2 verbatim), fully-bound terms (App. D.2), or those plus terms
//! over fresh auxiliary views. The remaining terms wait in a buffer, and
//! every later update compensates them as it compensates `UQS`:
//!
//! ```text
//! q_i = V⟨U_i⟩ − Σ_{Q ∈ UQS} Q⟨U_i⟩ − Σ_{q ∈ buffer} q⟨U_i⟩
//! ```
//!
//! With batch size `n` (§7 future work) the buffer ships as one query
//! once `n` updates have left remote terms in it. Summing per-update
//! queries is sound because answers are additive and `COLLECT` installs
//! only when `UQS` and the buffer are both empty; messages drop from `2k`
//! to `2⌈k/n⌉`. A trailing partial batch waits for [`Eca::flush`].

use std::collections::BTreeMap;

use eca_relational::{SignedBag, Update};

use super::eca_aux::AuxStore;
use crate::basedb::BaseDb;
use crate::error::CoreError;
use crate::expr::{Query, QueryId, Term};
use crate::maintainer::{
    AuxDurableState, OutboundQuery, QueryIdGen, SelfMaintStats, ViewMaintainer,
};
use crate::view::ViewDef;

/// Which terms of a compensated query the warehouse answers itself
/// instead of shipping them to the source.
///
/// ```
/// use eca_core::algorithms::{Eca, LocalRule};
/// use eca_core::maintainer::ViewMaintainer;
/// use eca_core::{BaseDb, ViewDef};
/// use eca_relational::{Predicate, Schema, Tuple, Update};
///
/// let (r1, r2) = (Schema::with_key("r1", &["W", "X"], &["W"])?, Schema::with_key("r2", &["X", "Y"], &["Y"])?);
/// let view = ViewDef::new("V", vec![r1, r2], Predicate::col_eq(1, 2), vec![0])?;
/// let mut source = BaseDb::for_view(&view);
/// source.insert("r1", Tuple::ints([1, 2]));
/// // Auxiliaries seeded from the initial base state: both keyed
/// // relations are covered, so every update is answered locally.
/// let rule = LocalRule::Auxiliaries(None);
/// let mut alg = Eca::with_rule(view.clone(), view.eval(&source)?, rule, 1, Some(&source))?;
/// for u in [Update::insert("r2", Tuple::ints([2, 3])), Update::insert("r1", Tuple::ints([4, 2]))] {
///     source.apply(&u);
///     assert!(alg.on_update(&u)?.is_empty()); // zero round-trips
/// }
/// assert_eq!(*alg.materialized(), view.eval(&source)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalRule {
    /// None: every term is shipped (Alg. 5.2 verbatim).
    Nothing,
    /// Terms whose atoms are all bound tuples (App. D.2): they mention no
    /// base relation, so "all data needed is already at the warehouse".
    FullyBound,
    /// Fully-bound terms plus terms whose unbound atoms all range over
    /// fresh warehouse-resident auxiliary views: per-relation bag
    /// projections onto the columns the view reads plus the key. `None`
    /// covers the keyed relations that occur once in the view;
    /// `Some(flags)` gives one flag per base relation, with repeated
    /// relations forced uncovered.
    Auxiliaries(Option<Vec<bool>>),
}

/// How [`LocalRule`] is carried out: the auxiliary rule owns its store.
enum Local {
    Nothing,
    FullyBound,
    Aux(Box<AuxStore>),
}

/// The Eager Compensating Algorithm.
///
/// ```
/// use eca_core::algorithms::Eca;
/// use eca_core::maintainer::ViewMaintainer;
/// use eca_core::{BaseDb, ViewDef};
/// use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
///
/// let view = ViewDef::new(
///     "V",
///     vec![Schema::new("r1", &["W", "X"]), Schema::new("r2", &["X", "Y"])],
///     Predicate::col_eq(1, 2),
///     vec![0],
/// )?;
/// let mut source = BaseDb::for_view(&view);
/// source.insert("r1", Tuple::ints([1, 2]));
/// let mut eca = Eca::new(view.clone(), SignedBag::new());
///
/// // Example 2's racing updates: both execute before any query answers.
/// let u1 = Update::insert("r2", Tuple::ints([2, 3]));
/// let u2 = Update::insert("r1", Tuple::ints([4, 2]));
/// source.apply(&u1);
/// let q1 = eca.on_update(&u1)?.remove(0);
/// source.apply(&u2);
/// let q2 = eca.on_update(&u2)?.remove(0); // carries a compensating term
///
/// eca.on_answer(q1.id, q1.query.eval(&source)?)?;
/// eca.on_answer(q2.id, q2.query.eval(&source)?)?;
/// assert_eq!(*eca.materialized(), view.eval(&source)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Eca {
    /// What [`ViewMaintainer::algorithm`] reports.
    label: &'static str,
    view: ViewDef,
    mv: SignedBag,
    collect: SignedBag,
    /// The unanswered query set, with each query's full expression kept so
    /// later updates can compensate it (`Q_j⟨U_i⟩`).
    uqs: BTreeMap<QueryId, Query>,
    ids: QueryIdGen,
    local: Local,
    batch_size: usize,
    /// Remote terms waiting for the batch to fill.
    buffered: Vec<Term>,
    /// Updates whose remote terms are in `buffered`.
    buffered_updates: usize,
    /// Updates answered entirely at the warehouse (zero round-trips).
    local_updates: u64,
    /// Updates that left a term for the source.
    remote_updates: u64,
}

impl Eca {
    /// Create with `initial` as the starting materialized state
    /// (`MV = V[ss0]`). Queries are sent verbatim as in Algorithm 5.2.
    pub fn new(view: ViewDef, initial: SignedBag) -> Self {
        Eca {
            label: "ECA",
            view,
            mv: initial,
            collect: SignedBag::new(),
            uqs: BTreeMap::new(),
            ids: QueryIdGen::new(),
            local: Local::Nothing,
            batch_size: 1,
            buffered: Vec::new(),
            buffered_updates: 0,
            local_updates: 0,
            remote_updates: 0,
        }
    }

    /// The `Batch-ECA` preset: fully-bound terms answered locally, one
    /// query per `batch_size` updates.
    ///
    /// # Errors
    /// [`CoreError::ZeroBatchSize`] when `batch_size == 0`.
    pub fn batched(
        view: ViewDef,
        initial: SignedBag,
        batch_size: usize,
    ) -> Result<Self, CoreError> {
        let mut eca = Self::with_rule(view, initial, LocalRule::FullyBound, batch_size, None)?;
        eca.label = "Batch-ECA";
        Ok(eca)
    }

    /// Any combination of the two choices: `rule` picks the terms
    /// answered locally, `batch_size` how many updates share a query.
    /// Auxiliaries are seeded fresh from `base` (the source's `ss_0`)
    /// when given; without it they start stale and the first update's
    /// rebuild queries fetch them.
    ///
    /// # Errors
    /// [`CoreError::ZeroBatchSize`] when `batch_size == 0`;
    /// [`CoreError::UnknownRelation`] when an explicit coverage is not
    /// one flag per base relation.
    pub fn with_rule(
        view: ViewDef,
        initial: SignedBag,
        rule: LocalRule,
        batch_size: usize,
        base: Option<&BaseDb>,
    ) -> Result<Self, CoreError> {
        if batch_size == 0 {
            return Err(CoreError::ZeroBatchSize);
        }
        let (label, local) = match rule {
            LocalRule::Nothing => ("ECA", Local::Nothing),
            LocalRule::FullyBound => ("ECA", Local::FullyBound),
            LocalRule::Auxiliaries(covered) => {
                let store = AuxStore::new(&view, covered.as_deref(), base)?;
                ("ECA-Aux", Local::Aux(Box::new(store)))
            }
        };
        Ok(Eca {
            label,
            local,
            batch_size,
            ..Eca::new(view, initial)
        })
    }

    /// The current `COLLECT` buffer (exposed for traces and tests).
    pub fn collect(&self) -> &SignedBag {
        &self.collect
    }

    /// Number of pending compensating queries `|UQS|` (auxiliary rebuild
    /// queries excluded).
    #[cfg(test)]
    fn pending_queries(&self) -> usize {
        self.uqs.len()
    }

    /// Ship the buffered remote terms now, as one query, however few
    /// updates left them. A driver calls this at the end of an update
    /// stream that is not a multiple of the batch size.
    pub fn flush(&mut self) -> Vec<OutboundQuery> {
        if self.buffered.is_empty() {
            return Vec::new();
        }
        self.buffered_updates = 0;
        let query = Query::from_terms(self.view.clone(), std::mem::take(&mut self.buffered));
        let id = self.ids.fresh();
        self.uqs.insert(id, query.clone());
        vec![OutboundQuery { id, query }]
    }

    /// Evaluate the terms the local rule answers into `COLLECT` and
    /// return the rest, in order.
    fn answer_locally(&mut self, terms: Vec<Term>) -> Result<Vec<Term>, CoreError> {
        let (local, remote): (Vec<Term>, Vec<Term>) = match &self.local {
            Local::Nothing => return Ok(terms),
            Local::FullyBound => terms.into_iter().partition(|t| t.unbound_count() == 0),
            Local::Aux(store) => terms.into_iter().partition(|t| store.answers(t)),
        };
        if !local.is_empty() {
            let value = match &self.local {
                Local::Aux(store) => store.eval(&local)?,
                // No base relation is touched; an empty lookup suffices.
                _ => Query::from_terms(self.view.clone(), local).eval(&BaseDb::new())?,
            };
            self.collect.merge(&value);
        }
        Ok(remote)
    }

    /// `MV ← MV + COLLECT; COLLECT ← ∅`, once nothing is pending or
    /// buffered.
    fn install_if_quiescent(&mut self) {
        if self.uqs.is_empty() && self.buffered.is_empty() {
            self.mv.merge(&self.collect);
            self.collect = SignedBag::new();
        }
    }

    /// Adopt `mv` with nothing pending, buffered or collected.
    fn clear_to(&mut self, mv: SignedBag) {
        self.mv = mv;
        self.collect = SignedBag::new();
        self.uqs.clear();
        self.buffered.clear();
        self.buffered_updates = 0;
    }
}

/// Append `−Σ_{t ∈ pending} t⟨U⟩` to `terms`.
fn compensate(terms: &mut Vec<Term>, view: &ViewDef, pending: &[Term], update: &Update) {
    let start = terms.len();
    for t in pending {
        t.substitute_all_occurrences(view, update, terms);
    }
    terms[start..].iter_mut().for_each(Term::negate);
}

impl ViewMaintainer for Eca {
    fn algorithm(&self) -> &'static str {
        self.label
    }

    fn view(&self) -> &ViewDef {
        &self.view
    }

    fn materialized(&self) -> &SignedBag {
        &self.mv
    }

    fn on_update(&mut self, update: &Update) -> Result<Vec<OutboundQuery>, CoreError> {
        if !self.view.involves(update) {
            return Ok(Vec::new());
        }
        // Fresh auxiliaries advance to ss_i before anything is evaluated
        // against them (Lemma B.2 wants the delta at ss_i); stale ones
        // ask for a rebuild first.
        let mut out = match &mut self.local {
            Local::Aux(store) => {
                store.absorb(&self.view, update);
                store.rebuild_stale(&mut self.ids)
            }
            _ => Vec::new(),
        };
        // q_i = V⟨U_i⟩ − Σ_{Q ∈ UQS} Q⟨U_i⟩ − Σ_{q ∈ buffer} q⟨U_i⟩
        let mut terms = Vec::new();
        self.view.substitute_into(update, &mut terms)?;
        for pending in self.uqs.values() {
            compensate(&mut terms, &self.view, pending.terms(), update);
        }
        compensate(&mut terms, &self.view, &self.buffered, update);

        let remote = self.answer_locally(terms)?;
        if remote.is_empty() {
            self.local_updates += 1;
        } else {
            self.remote_updates += 1;
            // An empty buffer takes `remote`'s allocation: with batch
            // size 1 (plain ECA) the terms are never copied.
            if self.buffered.is_empty() {
                self.buffered = remote;
            } else {
                self.buffered.extend(remote);
            }
            self.buffered_updates += 1;
            if self.buffered_updates == self.batch_size {
                out.extend(self.flush());
            }
        }
        self.install_if_quiescent();
        Ok(out)
    }

    fn on_answer(
        &mut self,
        id: QueryId,
        answer: SignedBag,
    ) -> Result<Vec<OutboundQuery>, CoreError> {
        let answer = match &mut self.local {
            Local::Aux(store) => match store.rebuilt(id, answer) {
                Some(answer) => answer,
                None => return Ok(Vec::new()),
            },
            _ => answer,
        };
        if self.uqs.remove(&id).is_none() {
            return Err(CoreError::UnknownQuery { id: id.0 });
        }
        self.collect.merge(&answer);
        self.install_if_quiescent();
        Ok(Vec::new())
    }

    fn is_quiescent(&self) -> bool {
        self.uqs.is_empty()
            && self.buffered.is_empty()
            && match &self.local {
                Local::Aux(store) => store.is_idle(),
                _ => true,
            }
    }

    fn reset_to(&mut self, state: SignedBag) -> Result<(), CoreError> {
        // RV-style resync (Alg. D.1): MV ← V(ss); UQS, COLLECT and the
        // buffer ← ∅, since V(ss) reflects every in-flight and buffered
        // update. Answers to the abandoned queries, if any straggle in,
        // are rejected as UnknownQuery by the id check in `on_answer`.
        // Notifications may have been lost, so auxiliaries turn stale.
        self.clear_to(state);
        if let Local::Aux(store) = &mut self.local {
            store.mark_stale();
        }
        Ok(())
    }

    fn checkpoint_aux(&self) -> Vec<AuxDurableState> {
        match &self.local {
            Local::Aux(store) => store.checkpoint(),
            _ => Vec::new(),
        }
    }

    fn restore_checkpoint(
        &mut self,
        mv: SignedBag,
        aux: Vec<AuxDurableState>,
    ) -> Result<(), CoreError> {
        if let Local::Aux(store) = &mut self.local {
            store.restore(aux)?;
        }
        self.clear_to(mv);
        Ok(())
    }

    fn selfmaint_stats(&self) -> Option<SelfMaintStats> {
        match &self.local {
            Local::Aux(store) => {
                Some(store.stats(&self.view, self.local_updates, self.remote_updates))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::{Predicate, Schema, Tuple};

    fn view2(proj: Vec<usize>) -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            proj,
        )
        .unwrap()
    }

    fn view3() -> ViewDef {
        // V = π_W(r1 ⋈X r2 ⋈Y r3), r2(X,Y), r3(X,Y) joined r2.Y = r3.X.
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
                Schema::new("r3", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2).and(Predicate::col_eq(3, 4)),
            vec![0],
        )
        .unwrap()
    }

    /// Paper §1.2 walk-through of Example 2: ECA repairs the insert anomaly.
    #[test]
    fn example_2_with_compensation() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));

        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);
        // Q2 must carry one compensating term.
        assert_eq!(q2.query.terms().len(), 2);

        let a1 = q1.query.eval(&db).unwrap();
        // A1 contains the anomalous extra [4] ...
        assert_eq!(a1.count(&Tuple::ints([4])), 1);
        alg.on_answer(q1.id, a1).unwrap();
        // ... but the view is not yet updated (UQS nonempty).
        assert!(alg.materialized().is_empty());
        assert!(!alg.is_quiescent());

        let a2 = q2.query.eval(&db).unwrap();
        // The compensation makes A2 empty (paper step 8).
        assert!(a2.is_empty());
        alg.on_answer(q2.id, a2).unwrap();

        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        assert_eq!(alg.materialized().count(&Tuple::ints([1])), 1);
        assert_eq!(alg.materialized().count(&Tuple::ints([4])), 1);
    }

    /// Paper Example 4: three insertions into three relations, all before
    /// any answer.
    #[test]
    fn example_4_three_inserts() {
        let v = view3();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());

        let u1 = Update::insert("r1", Tuple::ints([4, 2]));
        let u2 = Update::insert("r3", Tuple::ints([5, 3]));
        let u3 = Update::insert("r2", Tuple::ints([2, 5]));

        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        assert_eq!(q1.query.terms().len(), 1);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);
        assert_eq!(q2.query.terms().len(), 2);
        db.apply(&u3);
        let q3 = alg.on_update(&u3).unwrap().remove(0);
        // Q3 = V⟨U3⟩ − Q1⟨U3⟩ − Q2⟨U3⟩ where Q2⟨U3⟩ has 2 terms → 4 terms.
        assert_eq!(q3.query.terms().len(), 4);

        let a1 = q1.query.eval(&db).unwrap();
        assert_eq!(a1, SignedBag::from_tuples([Tuple::ints([4])]));
        alg.on_answer(q1.id, a1).unwrap();

        let a2 = q2.query.eval(&db).unwrap();
        assert_eq!(a2, SignedBag::from_tuples([Tuple::ints([1])]));
        alg.on_answer(q2.id, a2).unwrap();

        let a3 = q3.query.eval(&db).unwrap();
        assert!(a3.is_empty(), "A3 should be empty, got {a3:?}");
        alg.on_answer(q3.id, a3).unwrap();

        assert_eq!(
            *alg.materialized(),
            SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])])
        );
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// Appendix A Example 7: same updates as Example 4 but A1 arrives
    /// between U2 and U3.
    #[test]
    fn example_7_interleaved_answer() {
        let v = view3();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());

        let u1 = Update::insert("r1", Tuple::ints([4, 2]));
        let u2 = Update::insert("r3", Tuple::ints([5, 3]));
        let u3 = Update::insert("r2", Tuple::ints([2, 5]));

        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);

        // A1 evaluated now (after U1, U2; before U3): empty.
        let a1 = q1.query.eval(&db).unwrap();
        assert!(a1.is_empty());
        alg.on_answer(q1.id, a1).unwrap();

        db.apply(&u3);
        let q3 = alg.on_update(&u3).unwrap().remove(0);
        // Only Q2 is pending now: Q3 = V⟨U3⟩ − Q2⟨U3⟩ (paper: 3 terms).
        assert_eq!(q3.query.terms().len(), 3);

        let a2 = q2.query.eval(&db).unwrap();
        assert_eq!(a2, SignedBag::from_tuples([Tuple::ints([1])]));
        alg.on_answer(q2.id, a2).unwrap();
        let a3 = q3.query.eval(&db).unwrap();
        assert_eq!(a3, SignedBag::from_tuples([Tuple::ints([4])]));
        alg.on_answer(q3.id, a3).unwrap();

        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// Appendix A Example 8: two deletions.
    #[test]
    fn example_8_deletions() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([4, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let mut alg = Eca::new(v.clone(), v.eval(&db).unwrap());
        assert_eq!(alg.materialized().pos_len(), 2);

        let u1 = Update::delete("r1", Tuple::ints([4, 2]));
        let u2 = Update::delete("r2", Tuple::ints([2, 3]));
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);

        let a1 = q1.query.eval(&db).unwrap();
        assert!(a1.is_empty());
        alg.on_answer(q1.id, a1).unwrap();
        let a2 = q2.query.eval(&db).unwrap();
        // A2 = (−[4], −[1]) per the paper.
        assert_eq!(a2.count(&Tuple::ints([1])), -1);
        assert_eq!(a2.count(&Tuple::ints([4])), -1);
        alg.on_answer(q2.id, a2).unwrap();

        assert!(alg.materialized().is_empty());
        assert!(v.eval(&db).unwrap().is_empty());
    }

    /// Appendix A Example 9: mixed deletion and insertion.
    #[test]
    fn example_9_delete_then_insert() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([4, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());

        let u1 = Update::delete("r1", Tuple::ints([4, 2]));
        let u2 = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);

        let a1 = q1.query.eval(&db).unwrap();
        // A1 = (−[4]) — the deleted tuple joins the inserted r2 tuple.
        assert_eq!(a1.count(&Tuple::ints([4])), -1);
        alg.on_answer(q1.id, a1).unwrap();
        let a2 = q2.query.eval(&db).unwrap();
        // A2 = ([1] + [4]) per the paper.
        assert_eq!(a2.count(&Tuple::ints([1])), 1);
        assert_eq!(a2.count(&Tuple::ints([4])), 1);
        alg.on_answer(q2.id, a2).unwrap();

        assert_eq!(
            *alg.materialized(),
            SignedBag::from_tuples([Tuple::ints([1])])
        );
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// Property 3 of §5.6: with spaced updates, ECA behaves exactly like
    /// the basic algorithm (no compensating terms).
    #[test]
    fn degenerates_to_basic_when_quiescent() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());

        for i in 0..5 {
            let u = Update::insert("r2", Tuple::ints([2, 10 + i]));
            db.apply(&u);
            let q = alg.on_update(&u).unwrap().remove(0);
            assert_eq!(q.query.terms().len(), 1, "no compensation expected");
            let a = q.query.eval(&db).unwrap();
            alg.on_answer(q.id, a).unwrap();
            assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        }
    }

    #[test]
    fn collect_buffer_exposed() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());
        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r2", Tuple::ints([2, 4]));
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);
        assert_eq!(alg.pending_queries(), 2);
        alg.on_answer(q1.id, q1.query.eval(&db).unwrap()).unwrap();
        assert_eq!(alg.collect().count(&Tuple::ints([1])), 1);
        alg.on_answer(q2.id, q2.query.eval(&db).unwrap()).unwrap();
        assert!(alg.collect().is_empty(), "COLLECT reset after install");
    }

    fn optimized(v: &ViewDef) -> Eca {
        Eca::with_rule(v.clone(), SignedBag::new(), LocalRule::FullyBound, 1, None).unwrap()
    }

    #[test]
    fn unknown_answer_rejected() {
        let v = view2(vec![0]);
        let mut alg = Eca::new(v, SignedBag::new());
        assert!(alg.on_answer(QueryId(1), SignedBag::new()).is_err());
    }

    /// An RV-style resync mid-flight clears UQS/COLLECT, installs the
    /// recomputed state, and rejects answers to abandoned queries.
    #[test]
    fn reset_to_clears_pending_state() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::new(v.clone(), SignedBag::new());

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r2", Tuple::ints([2, 4]));
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);
        // One answer lands in COLLECT, one stays pending.
        alg.on_answer(q1.id, q1.query.eval(&db).unwrap()).unwrap();
        assert!(!alg.is_quiescent());
        assert!(!alg.collect().is_empty());

        let recomputed = v.eval(&db).unwrap();
        alg.reset_to(recomputed.clone()).unwrap();
        assert!(alg.is_quiescent());
        assert!(alg.collect().is_empty());
        assert_eq!(*alg.materialized(), recomputed);
        assert!(alg.reissue_safe());
        // The abandoned query's answer is now unknown.
        assert!(matches!(
            alg.on_answer(q2.id, SignedBag::new()),
            Err(CoreError::UnknownQuery { .. })
        ));
        // Incremental processing resumes cleanly from the resynced state.
        let u3 = Update::insert("r1", Tuple::ints([7, 2]));
        db.apply(&u3);
        let q3 = alg.on_update(&u3).unwrap().remove(0);
        alg.on_answer(q3.id, q3.query.eval(&db).unwrap()).unwrap();
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// The Appendix D.2 variant strips fully-bound compensating terms from
    /// shipped queries and still converges (Example 2 replay).
    #[test]
    fn local_eval_strips_bound_terms() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut plain = Eca::new(v.clone(), SignedBag::new());
        let mut opt = optimized(&v);

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        let p1 = plain.on_update(&u1).unwrap().remove(0);
        let o1 = opt.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let p2 = plain.on_update(&u2).unwrap().remove(0);
        let o2 = opt.on_update(&u2).unwrap().remove(0);
        // Plain ships the bound compensation; optimized does not.
        assert_eq!(p2.query.terms().len(), 2);
        assert_eq!(o2.query.terms().len(), 1);

        for (alg, q) in [(&mut plain, &p1), (&mut opt, &o1)] {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        for (alg, q) in [(&mut plain, &p2), (&mut opt, &o2)] {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        let correct = v.eval(&db).unwrap();
        assert_eq!(*plain.materialized(), correct);
        assert_eq!(*opt.materialized(), correct);
    }

    /// With local evaluation, a single-relation view needs no source at
    /// all — ECA degenerates to purely local maintenance.
    #[test]
    fn local_eval_single_relation_view_never_queries() {
        let v = ViewDef::new(
            "V",
            vec![Schema::new("r1", &["A", "B"])],
            Predicate::col_cmp(0, eca_relational::CmpOp::Lt, 1),
            vec![0],
        )
        .unwrap();
        let mut db = BaseDb::for_view(&v);
        let mut alg = optimized(&v);
        for u in [
            Update::insert("r1", Tuple::ints([1, 5])),
            Update::insert("r1", Tuple::ints([9, 2])),
            Update::delete("r1", Tuple::ints([1, 5])),
        ] {
            db.apply(&u);
            assert!(alg.on_update(&u).unwrap().is_empty());
            assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        }
        assert!(alg.is_quiescent());
    }

    #[test]
    fn zero_batch_size_rejected() {
        assert!(matches!(
            Eca::batched(view2(vec![0]), SignedBag::new(), 0),
            Err(CoreError::ZeroBatchSize)
        ));
    }

    /// Example 2's anomalous interleaving, batched into one message.
    #[test]
    fn example_2_in_one_batch() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::batched(v.clone(), SignedBag::new(), 2).unwrap();

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        assert!(alg.on_update(&u1).unwrap().is_empty(), "buffered");
        assert!(!alg.is_quiescent(), "one update buffered");
        db.apply(&u2);
        let qs = alg.on_update(&u2).unwrap();
        assert_eq!(qs.len(), 1, "one coalesced query");
        // V⟨U1⟩ + V⟨U2⟩ shipped; the batch-mate compensation V⟨U1⟩⟨U2⟩ is
        // fully bound and evaluated locally.
        assert_eq!(qs[0].query.terms().len(), 2);

        let a = qs[0].query.eval(&db).unwrap();
        alg.on_answer(qs[0].id, a).unwrap();
        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// Batch of 3 against a 3-relation view (Example 4's updates).
    #[test]
    fn example_4_in_one_batch() {
        let v = view3();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::batched(v.clone(), SignedBag::new(), 3).unwrap();

        let updates = [
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::insert("r3", Tuple::ints([5, 3])),
            Update::insert("r2", Tuple::ints([2, 5])),
        ];
        let mut queries = Vec::new();
        for u in &updates {
            db.apply(u);
            queries.extend(alg.on_update(u).unwrap());
        }
        assert_eq!(queries.len(), 1, "2k messages collapse to 2");
        let a = queries[0].query.eval(&db).unwrap();
        alg.on_answer(queries[0].id, a).unwrap();
        assert_eq!(
            *alg.materialized(),
            SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])])
        );
    }

    /// Batches racing batches: the second batch's updates arrive while
    /// the first batch's query is still unanswered, so the second batch
    /// compensates the first.
    #[test]
    fn consecutive_batches_compensate() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::batched(v.clone(), SignedBag::new(), 2).unwrap();

        let script = [
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r2", Tuple::ints([2, 4])),
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::delete("r2", Tuple::ints([2, 3])),
        ];
        let mut queries = Vec::new();
        for u in &script {
            db.apply(u);
            queries.extend(alg.on_update(u).unwrap());
        }
        assert_eq!(queries.len(), 2);
        // The second batch compensates the first, but those compensation
        // terms are fully bound (both tuples known) and are evaluated
        // locally — only the two unbound own-terms ship.
        assert_eq!(queries[1].query.terms().len(), 2);

        // All answers evaluated on the final state (worst case).
        for q in &queries {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    #[test]
    fn unknown_batch_answer_rejected() {
        let mut alg = Eca::batched(view2(vec![0]), SignedBag::new(), 2).unwrap();
        assert!(alg.on_answer(QueryId(9), SignedBag::new()).is_err());
    }

    /// A partial trailing batch is flushed explicitly.
    #[test]
    fn explicit_flush_of_partial_batch() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Eca::batched(v.clone(), SignedBag::new(), 10).unwrap();

        let u = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u);
        assert!(alg.on_update(&u).unwrap().is_empty());
        assert!(!alg.is_quiescent(), "buffered update outstanding");
        let qs = alg.flush();
        assert_eq!(qs.len(), 1);
        alg.on_answer(qs[0].id, qs[0].query.eval(&db).unwrap())
            .unwrap();
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        assert!(alg.flush().is_empty(), "nothing left");
    }

    /// Batch size 1 behaves exactly like optimized ECA.
    #[test]
    fn batch_size_one_equals_eca() {
        let v = view2(vec![0]);
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut batch = Eca::batched(v.clone(), SignedBag::new(), 1).unwrap();
        let mut eca = optimized(&v);
        assert_eq!((batch.algorithm(), eca.algorithm()), ("Batch-ECA", "ECA"));

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        let b1 = batch.on_update(&u1).unwrap().remove(0);
        let e1 = eca.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let b2 = batch.on_update(&u2).unwrap().remove(0);
        let e2 = eca.on_update(&u2).unwrap().remove(0);
        assert_eq!(b1.query.terms(), e1.query.terms());
        assert_eq!(b2.query.terms(), e2.query.terms());

        for (alg, qs) in [(&mut batch, [&b1, &b2]), (&mut eca, [&e1, &e2])] {
            for q in qs {
                alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
            }
        }
        assert_eq!(batch.materialized(), eca.materialized());
    }
}

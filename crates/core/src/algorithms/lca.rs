//! The Lazy Compensating Algorithm (paper §5.3).
//!
//! The paper sketches LCA in one paragraph: *"For each source update, LCA
//! waits until it has received all query answers (including compensation)
//! for the update, then applies the changes for that update to the view."*
//! The result is **completeness** — every source state `V[ss_i]` appears as
//! a warehouse state — at a cost in messages and latency.
//!
//! ## Our faithful interpretation (documented substitution)
//!
//! ECA's query `Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩` mixes terms that
//! belong to *different* updates: the `V⟨U_i⟩` part is `U_i`'s own delta;
//! each compensating term `−Q_j⟨U_i⟩` corrects the in-flight answer of the
//! *earlier* update that `Q_j`'s terms descend from. We therefore:
//!
//! 1. keep every in-flight term's **owner** beside it — the update whose
//!    `V⟨U⟩` it descends from; a compensating term inherits the owner of
//!    the term it was substituted from;
//! 2. send each term as its own single-term query so answers can be routed
//!    to owners (this is why LCA sends more messages than ECA);
//! 3. accumulate per-owner deltas; owner `j`'s delta is closed when all its
//!    terms are answered (new `j`-owned terms only arise by substituting
//!    into *unanswered* `j`-owned terms, so a zero pending count is final);
//! 4. apply closed deltas to `MV` strictly in update order.
//!
//! Step 4 makes `MV` pass through exactly `V[ss_0], V[ss_1], …, V[ss_n]`:
//! by Lemma B.2 each per-owner delta equals `V[ss_j] − V[ss_{j-1}]`.

use std::collections::BTreeMap;

use eca_relational::{SignedBag, Update};

use crate::error::CoreError;
use crate::expr::{Query, QueryId, Term};
use crate::maintainer::{OutboundQuery, QueryIdGen, ViewMaintainer};
use crate::view::ViewDef;

struct PendingDelta {
    remaining: usize,
    delta: SignedBag,
}

/// The Lazy Compensating Algorithm.
pub struct Lca {
    view: ViewDef,
    mv: SignedBag,
    /// In-flight single-term queries, with the update each one belongs to.
    unanswered: BTreeMap<QueryId, (u64, Term)>,
    /// Per-update accumulating deltas, keyed by update sequence number.
    pending: BTreeMap<u64, PendingDelta>,
    next_seq: u64,
    ids: QueryIdGen,
    /// Warehouse states the view has passed through (for completeness
    /// checking); starts with the initial state.
    history: Vec<SignedBag>,
    /// States applied during the current event, drained by the harness.
    fresh_states: Vec<SignedBag>,
}

impl Lca {
    /// Create with `initial = V[ss0]`.
    pub fn new(view: ViewDef, initial: SignedBag) -> Self {
        Lca {
            view,
            history: vec![initial.clone()],
            fresh_states: Vec::new(),
            mv: initial,
            unanswered: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_seq: 1,
            ids: QueryIdGen::new(),
        }
    }

    /// Every view state `MV` has assumed, in order (initial state first).
    /// LCA's completeness guarantee is that this equals
    /// `V[ss_0], V[ss_1], …`.
    pub fn state_history(&self) -> &[SignedBag] {
        &self.history
    }

    fn send_term(&mut self, owner: u64, term: Term, out: &mut Vec<OutboundQuery>) {
        self.pending
            .entry(owner)
            .or_insert_with(|| PendingDelta {
                remaining: 0,
                delta: SignedBag::new(),
            })
            .remaining += 1;
        let id = self.ids.fresh();
        self.unanswered.insert(id, (owner, term.clone()));
        out.push(OutboundQuery {
            id,
            query: Query::from_terms(self.view.clone(), vec![term]),
        });
    }

    fn flush(&mut self) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.get().remaining > 0 {
                break;
            }
            let closed = entry.remove();
            self.mv.merge(&closed.delta);
            self.history.push(self.mv.clone());
            self.fresh_states.push(self.mv.clone());
        }
    }
}

impl ViewMaintainer for Lca {
    fn algorithm(&self) -> &'static str {
        "LCA"
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
        let seq = self.next_seq;
        self.next_seq += 1;

        // Compensating terms for every unanswered term, keeping ownership.
        // Collected before the own term is registered so an update never
        // compensates itself.
        let mut compensations: Vec<(u64, Term)> = Vec::new();
        let mut substituted = Vec::new();
        for (owner, t) in self.unanswered.values() {
            t.substitute_all_occurrences(&self.view, update, &mut substituted);
            compensations.extend(substituted.drain(..).map(|c| (*owner, -c)));
        }

        // V⟨U⟩ may expand to several terms for self-join views; they all
        // belong to this update's delta.
        let mut own_terms = Vec::new();
        self.view.substitute_into(update, &mut own_terms)?;

        let mut out = Vec::with_capacity(own_terms.len() + compensations.len());
        for t in own_terms {
            self.send_term(seq, t, &mut out);
        }
        for (owner, c) in compensations {
            self.send_term(owner, c, &mut out);
        }
        Ok(out)
    }

    fn on_answer(
        &mut self,
        id: QueryId,
        answer: SignedBag,
    ) -> Result<Vec<OutboundQuery>, CoreError> {
        let unknown = || CoreError::UnknownQuery { id: id.0 };
        let (owner, _) = self.unanswered.remove(&id).ok_or_else(unknown)?;
        // `send_term` registers the owner before the term goes out.
        let pending = self.pending.get_mut(&owner).ok_or_else(unknown)?;
        pending.delta.merge(&answer);
        pending.remaining -= 1;
        self.flush();
        Ok(Vec::new())
    }

    fn is_quiescent(&self) -> bool {
        self.unanswered.is_empty() && self.pending.is_empty()
    }

    fn drain_intermediate_states(&mut self) -> Vec<SignedBag> {
        std::mem::take(&mut self.fresh_states)
    }

    fn reset_to(&mut self, state: SignedBag) -> Result<(), CoreError> {
        // The resynced state joins the history: LCA's completeness claim
        // continues from V(ss), with the per-update deltas of abandoned
        // queries discarded (their effects are inside V(ss) already).
        self.history.push(state.clone());
        self.fresh_states.clear();
        self.mv = state;
        self.unanswered.clear();
        self.pending.clear();
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

    fn view3() -> ViewDef {
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

    /// Example 2 under LCA: view passes through V[ss0]=∅, V[ss1]=([1]),
    /// V[ss2]=([1],[4]) — complete, not just convergent.
    #[test]
    fn example_2_complete_history() {
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Lca::new(v.clone(), SignedBag::new());

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        let qs1 = alg.on_update(&u1).unwrap();
        assert_eq!(qs1.len(), 1);
        db.apply(&u2);
        let qs2 = alg.on_update(&u2).unwrap();
        // Own term for U2 plus one compensation owned by U1.
        assert_eq!(qs2.len(), 2);

        // All answers evaluated on the final state.
        for q in qs1.iter().chain(&qs2) {
            let a = q.query.eval(&db).unwrap();
            alg.on_answer(q.id, a).unwrap();
        }
        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());

        let expected_states = [
            SignedBag::new(),
            SignedBag::from_tuples([Tuple::ints([1])]),
            SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])]),
        ];
        assert_eq!(alg.state_history(), &expected_states[..]);
    }

    /// Example 4's three inserts: per-update deltas are ∅, ∅, ([1],[4]).
    #[test]
    fn example_4_per_update_deltas() {
        let v = view3();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Lca::new(v.clone(), SignedBag::new());

        let updates = [
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::insert("r3", Tuple::ints([5, 3])),
            Update::insert("r2", Tuple::ints([2, 5])),
        ];
        let mut source_states = vec![v.eval(&db).unwrap()];
        let mut all_queries = Vec::new();
        for u in &updates {
            db.apply(u);
            source_states.push(v.eval(&db).unwrap());
            all_queries.extend(alg.on_update(u).unwrap());
        }
        for q in &all_queries {
            let a = q.query.eval(&db).unwrap();
            alg.on_answer(q.id, a).unwrap();
        }
        assert!(alg.is_quiescent());
        assert_eq!(alg.state_history(), &source_states[..]);
    }

    /// Deletions (Example 8) also produce a complete history.
    #[test]
    fn example_8_deletions_complete() {
        let v = view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([4, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let mut alg = Lca::new(v.clone(), v.eval(&db).unwrap());

        let updates = [
            Update::delete("r1", Tuple::ints([4, 2])),
            Update::delete("r2", Tuple::ints([2, 3])),
        ];
        let mut source_states = vec![v.eval(&db).unwrap()];
        let mut queries = Vec::new();
        for u in &updates {
            db.apply(u);
            source_states.push(v.eval(&db).unwrap());
            queries.extend(alg.on_update(u).unwrap());
        }
        for q in &queries {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert_eq!(alg.state_history(), &source_states[..]);
        assert!(alg.materialized().is_empty());
    }

    /// Answers arriving between updates (Example 7's interleaving) still
    /// yield a complete, in-order history.
    #[test]
    fn example_7_interleaved() {
        let v = view3();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = Lca::new(v.clone(), SignedBag::new());

        let u1 = Update::insert("r1", Tuple::ints([4, 2]));
        let u2 = Update::insert("r3", Tuple::ints([5, 3]));
        let u3 = Update::insert("r2", Tuple::ints([2, 5]));

        let mut source_states = vec![v.eval(&db).unwrap()];
        db.apply(&u1);
        source_states.push(v.eval(&db).unwrap());
        let qs1 = alg.on_update(&u1).unwrap();
        db.apply(&u2);
        source_states.push(v.eval(&db).unwrap());
        let qs2 = alg.on_update(&u2).unwrap();

        // Answer U1's own term now (evaluated after U2, before U3).
        for q in &qs1 {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }

        db.apply(&u3);
        source_states.push(v.eval(&db).unwrap());
        let qs3 = alg.on_update(&u3).unwrap();
        for q in qs2.iter().chain(&qs3) {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }

        assert!(alg.is_quiescent());
        assert_eq!(alg.state_history(), &source_states[..]);
    }

    #[test]
    fn unknown_answer_rejected() {
        let mut alg = Lca::new(view2(), SignedBag::new());
        assert!(alg.on_answer(QueryId(3), SignedBag::new()).is_err());
    }

    #[test]
    fn irrelevant_updates_skipped() {
        let mut alg = Lca::new(view2(), SignedBag::new());
        assert!(alg
            .on_update(&Update::insert("zz", Tuple::ints([1])))
            .unwrap()
            .is_empty());
        assert!(alg.is_quiescent());
    }
}

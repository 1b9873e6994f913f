//! The ECA-Key algorithm (paper §5.4).
//!
//! Applicable when the view contains a key of *every* base relation. Then:
//!
//! 1. `COLLECT` is a **working copy** of `MV`, not a delta buffer.
//! 2. Deletions are handled locally with `key-delete` — no source query.
//! 3. Insertions query the source with plain `V⟨U⟩` — no compensation.
//! 4. Answers merge into `COLLECT` with **duplicate suppression**: a keyed
//!    view cannot contain duplicates, so any duplicate is an anomaly echo
//!    and is ignored.
//! 5. When `UQS = ∅`, `MV ← COLLECT` (COLLECT is *not* reset).

use std::collections::BTreeSet;

use eca_relational::{SignedBag, Update, UpdateKind, Value};

use crate::error::CoreError;
use crate::expr::QueryId;
use crate::maintainer::{OutboundQuery, QueryIdGen, ViewMaintainer};
use crate::view::ViewDef;

/// A key-delete that must also be applied to answers of queries that were
/// in flight when the delete was processed.
///
/// The paper's Case II(a) proof argues that a query evaluated after a
/// delete "does not see one of the key values" — true when the key would
/// come from a base relation, but an in-flight insert query carries its
/// tuple *bound*, so the source reproduces the deleted key regardless of
/// base state. Tombstones close that gap: while `UQS ≠ ∅`, each local
/// key-delete is remembered and filtered out of answers to queries issued
/// before it.
struct Tombstone {
    rel_idx: usize,
    key_values: Vec<Value>,
    /// Applies to answers of queries with id ≤ this (sent before the
    /// delete was processed).
    applies_to_max: u64,
}

/// The ECA-Key maintainer. Construction fails unless the view is fully
/// keyed.
pub struct EcaKey {
    view: ViewDef,
    mv: SignedBag,
    collect: SignedBag,
    uqs: BTreeSet<QueryId>,
    ids: QueryIdGen,
    /// Per base relation, positions in the view output of its key columns.
    key_positions: Vec<Vec<usize>>,
    /// Key-deletes pending against in-flight answers.
    tombstones: Vec<Tombstone>,
    /// Highest query id issued so far.
    last_issued: u64,
}

impl EcaKey {
    /// Create with `initial = V[ss0]`.
    ///
    /// # Errors
    /// [`CoreError::ViewNotKeyed`] unless the view contains a key of every
    /// base relation.
    pub fn new(view: ViewDef, initial: SignedBag) -> Result<Self, CoreError> {
        if view.has_repeated_relations() {
            // Key-deletes identify derivations per relation occurrence;
            // the streamlining is only proven for distinct relations.
            return Err(CoreError::DuplicateBaseRelation {
                relation: view.name().to_owned(),
            });
        }
        let key_positions: Option<Vec<Vec<usize>>> = (0..view.base().len())
            .map(|i| view.key_view_positions(i))
            .collect();
        let key_positions = key_positions.ok_or_else(|| CoreError::ViewNotKeyed {
            view: view.name().to_owned(),
        })?;
        Ok(EcaKey {
            collect: initial.clone(),
            mv: initial,
            view,
            uqs: BTreeSet::new(),
            ids: QueryIdGen::new(),
            key_positions,
            tombstones: Vec::new(),
            last_issued: 0,
        })
    }

    /// The working copy (exposed for traces and tests).
    pub fn collect(&self) -> &SignedBag {
        &self.collect
    }

    /// `key-delete(COLLECT, r, t)`: remove every view tuple whose values at
    /// relation `r`'s key positions equal `t`'s key values (paper §5.4).
    fn key_delete(&mut self, rel_idx: usize, key_values: &[Value]) -> usize {
        let positions = self.key_positions[rel_idx].clone();
        self.collect.remove_where(|tuple| {
            positions
                .iter()
                .zip(key_values)
                .all(|(&p, kv)| tuple.get(p) == Some(kv))
        })
    }

    fn install_if_quiescent(&mut self) {
        if self.uqs.is_empty() {
            // MV ← COLLECT; COLLECT stays as the working copy.
            self.mv = self.collect.clone();
        }
    }
}

impl ViewMaintainer for EcaKey {
    fn algorithm(&self) -> &'static str {
        "ECA-Key"
    }

    fn view(&self) -> &ViewDef {
        &self.view
    }

    fn materialized(&self) -> &SignedBag {
        &self.mv
    }

    fn on_update(&mut self, update: &Update) -> Result<Vec<OutboundQuery>, CoreError> {
        let Some(rel_idx) = self.view.relation_index(&update.relation) else {
            return Ok(Vec::new());
        };
        match update.kind {
            UpdateKind::Delete => {
                // Local key-delete; no source query (paper §5.4 point 2).
                let Some(key_values) = self.view.update_key_values(update) else {
                    return Err(CoreError::ViewNotKeyed {
                        view: self.view.name().to_owned(),
                    });
                };
                self.key_delete(rel_idx, &key_values);
                if !self.uqs.is_empty() {
                    // In-flight answers may still carry this key (their
                    // bound tuples reproduce it); remember to filter.
                    self.tombstones.push(Tombstone {
                        rel_idx,
                        key_values,
                        applies_to_max: self.last_issued,
                    });
                }
                self.install_if_quiescent();
                Ok(Vec::new())
            }
            UpdateKind::Insert => {
                // Plain V⟨U⟩ — no compensating queries (point 3).
                let query = self.view.substitute(update)?;
                let id = self.ids.fresh();
                self.last_issued = id.0;
                self.uqs.insert(id);
                Ok(vec![OutboundQuery { id, query }])
            }
        }
    }

    fn on_answer(
        &mut self,
        id: QueryId,
        answer: SignedBag,
    ) -> Result<Vec<OutboundQuery>, CoreError> {
        if !self.uqs.remove(&id) {
            return Err(CoreError::UnknownQuery { id: id.0 });
        }
        // Filter tuples deleted locally while this query was in flight.
        let mut answer = answer;
        for tomb in self.tombstones.iter().filter(|t| t.applies_to_max >= id.0) {
            let positions = &self.key_positions[tomb.rel_idx];
            answer.remove_where(|tuple| {
                positions
                    .iter()
                    .zip(&tomb.key_values)
                    .all(|(&p, kv)| tuple.get(p) == Some(kv))
            });
        }
        // Merge with duplicate suppression (point 4).
        self.collect.merge_distinct(&answer);
        if self.uqs.is_empty() {
            self.tombstones.clear();
        }
        self.install_if_quiescent();
        Ok(Vec::new())
    }

    fn is_quiescent(&self) -> bool {
        self.uqs.is_empty()
    }

    fn reset_to(&mut self, state: SignedBag) -> Result<(), CoreError> {
        // RV-style resync: both MV and the COLLECT working copy become
        // V(ss); pending queries and tombstones are obsolete because the
        // recomputed state already reflects every in-flight update.
        self.collect = state.clone();
        self.mv = state;
        self.uqs.clear();
        self.tombstones.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basedb::BaseDb;
    use eca_relational::{Predicate, Schema, Tuple};

    /// V = π_{W,Y}(r1 ⋈ r2) with W key of r1 and Y key of r2.
    fn keyed_view() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap()
    }

    #[test]
    fn rejects_unkeyed_views() {
        let v = ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap();
        assert!(matches!(
            EcaKey::new(v, SignedBag::new()),
            Err(CoreError::ViewNotKeyed { .. })
        ));
    }

    /// Paper Example 3 revisited with keys (§1.2 ECAK discussion): both
    /// deletions handled locally, final view empty and correct.
    #[test]
    fn example_3_deletes_handled_locally() {
        let v = keyed_view();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let mut alg = EcaKey::new(v.clone(), v.eval(&db).unwrap()).unwrap();
        assert_eq!(alg.materialized().count(&Tuple::ints([1, 3])), 1);

        let u1 = Update::delete("r1", Tuple::ints([1, 2]));
        let u2 = Update::delete("r2", Tuple::ints([2, 3]));
        db.apply(&u1);
        assert!(
            alg.on_update(&u1).unwrap().is_empty(),
            "no query for deletes"
        );
        db.apply(&u2);
        assert!(alg.on_update(&u2).unwrap().is_empty());

        assert!(alg.materialized().is_empty());
        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// Paper Example 5: two inserts and one delete, all before any answer.
    #[test]
    fn example_5_full_trace() {
        let v = keyed_view();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let mut alg = EcaKey::new(v.clone(), v.eval(&db).unwrap()).unwrap();
        assert_eq!(
            *alg.materialized(),
            SignedBag::from_tuples([Tuple::ints([1, 3])])
        );

        let u1 = Update::insert("r2", Tuple::ints([2, 4]));
        let u2 = Update::insert("r1", Tuple::ints([3, 2]));
        let u3 = Update::delete("r1", Tuple::ints([1, 2]));

        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        assert_eq!(q1.query.terms().len(), 1, "no compensation in ECAK");
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);
        db.apply(&u3);
        assert!(alg.on_update(&u3).unwrap().is_empty());
        // key-delete removed [1,3] from COLLECT immediately.
        assert!(alg.collect().count(&Tuple::ints([1, 3])) == 0);
        // MV not yet updated: UQS nonempty.
        assert_eq!(alg.materialized().count(&Tuple::ints([1, 3])), 1);

        // A1 evaluated on the final source state: ([3,4]).
        let a1 = q1.query.eval(&db).unwrap();
        assert_eq!(a1, SignedBag::from_tuples([Tuple::ints([3, 4])]));
        alg.on_answer(q1.id, a1).unwrap();

        // A2 = ([3,3],[3,4]); the duplicate [3,4] is suppressed.
        let a2 = q2.query.eval(&db).unwrap();
        assert_eq!(
            a2,
            SignedBag::from_tuples([Tuple::ints([3, 3]), Tuple::ints([3, 4])])
        );
        alg.on_answer(q2.id, a2).unwrap();

        let expected = SignedBag::from_tuples([Tuple::ints([3, 3]), Tuple::ints([3, 4])]);
        assert_eq!(*alg.materialized(), expected);
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        // No duplicate [3,4] despite it arriving twice.
        assert_eq!(alg.materialized().count(&Tuple::ints([3, 4])), 1);
    }

    /// Spaced updates: ECAK behaves like the basic algorithm for inserts.
    #[test]
    fn spaced_inserts_are_exact() {
        let v = keyed_view();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = EcaKey::new(v.clone(), SignedBag::new()).unwrap();
        for i in 0..4 {
            let u = Update::insert("r2", Tuple::ints([2, 10 + i]));
            db.apply(&u);
            let q = alg.on_update(&u).unwrap().remove(0);
            let a = q.query.eval(&db).unwrap();
            alg.on_answer(q.id, a).unwrap();
            assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        }
    }

    #[test]
    fn irrelevant_updates_ignored() {
        let v = keyed_view();
        let mut alg = EcaKey::new(v, SignedBag::new()).unwrap();
        assert!(alg
            .on_update(&Update::delete("zz", Tuple::ints([1])))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_answer_rejected() {
        let v = keyed_view();
        let mut alg = EcaKey::new(v, SignedBag::new()).unwrap();
        assert!(alg.on_answer(QueryId(5), SignedBag::new()).is_err());
    }

    /// A delete that races the in-flight query of the *same tuple's*
    /// insert: the answer carries the deleted key (it is bound in the
    /// query), and the tombstone must filter it out.
    #[test]
    fn delete_racing_own_inserts_query() {
        let v = keyed_view();
        let mut db = BaseDb::for_view(&v);
        db.insert("r2", Tuple::ints([2, 9]));
        let mut alg = EcaKey::new(v.clone(), SignedBag::new()).unwrap();

        let ins = Update::insert("r1", Tuple::ints([1, 2]));
        let del = Update::delete("r1", Tuple::ints([1, 2]));
        db.apply(&ins);
        let q = alg.on_update(&ins).unwrap().remove(0);
        db.apply(&del);
        assert!(alg.on_update(&del).unwrap().is_empty());

        // The source evaluates Q after the delete — but the bound tuple
        // [1,2] still joins r2, so the raw answer contains [1,9].
        let a = q.query.eval(&db).unwrap();
        assert_eq!(a, SignedBag::from_tuples([Tuple::ints([1, 9])]));
        alg.on_answer(q.id, a).unwrap();

        // Without tombstones the phantom [1,9] would survive.
        assert!(
            alg.materialized().is_empty(),
            "phantom tuple: {:?}",
            alg.materialized()
        );
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    /// A re-insert of the same key after a delete must NOT be filtered:
    /// tombstones only apply to queries issued before the delete.
    #[test]
    fn tombstone_does_not_affect_later_reinsert() {
        let v = keyed_view();
        let mut db = BaseDb::for_view(&v);
        db.insert("r2", Tuple::ints([2, 8]));
        db.insert("r2", Tuple::ints([3, 9]));
        let mut alg = EcaKey::new(v.clone(), SignedBag::new()).unwrap();

        let u1 = Update::insert("r1", Tuple::ints([1, 2]));
        let u2 = Update::delete("r1", Tuple::ints([1, 2]));
        let u3 = Update::insert("r1", Tuple::ints([1, 3])); // same key, new join
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        assert!(alg.on_update(&u2).unwrap().is_empty());
        db.apply(&u3);
        let q3 = alg.on_update(&u3).unwrap().remove(0);

        // Both answers evaluated on the final state.
        alg.on_answer(q1.id, q1.query.eval(&db).unwrap()).unwrap();
        alg.on_answer(q3.id, q3.query.eval(&db).unwrap()).unwrap();

        // [1,8] (from the deleted insert) is filtered; [1,9] (from the
        // re-insert) survives.
        assert_eq!(
            *alg.materialized(),
            SignedBag::from_tuples([Tuple::ints([1, 9])])
        );
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }
}

//! The auxiliary-view store behind [`Eca`](super::Eca)'s
//! [`LocalRule::Auxiliaries`](super::LocalRule::Auxiliaries) rule:
//! self-maintenance through warehouse-resident auxiliary views, the
//! middle ground between ECA's round-trip per update (§5.2) and
//! Store-Copies' full replicas (§1.2).
//!
//! For base relation `r_i` of `V = π_proj(σ_cond(r1 × … × rn))` the
//! auxiliary is the bag projection `aux_i = π_{used(i) ∪ key(i)}(r_i)`,
//! where `used(i)` are the columns of `cond` and `proj` inside `r_i`'s
//! slot. Bag projection keeps multiplicities and drops only columns
//! neither `cond` nor `proj` reads, so a term evaluated over the
//! auxiliaries — with `cond` and `proj` remapped into retained-column
//! coordinates — equals its value over the full relations. By default a
//! relation is **covered** when its schema declares a key
//! ([`eca_relational::Schema::with_key`]); coverage can be set per
//! relation for storage/savings sweeps, and self-joined relations are
//! never covered.
//!
//! A term is **local** iff every unbound atom's relation has a fresh
//! auxiliary (App. D.2's "all data needed is already at the warehouse",
//! widened from fully-bound terms to covered relations). The auxiliaries
//! absorb `U_i` before any term is evaluated, so they hold the projected
//! `ss_i`; by Lemma B.2 the local value is the exact delta contribution,
//! and §5.2's strong-consistency argument carries over.
//!
//! **Drift-refresh invariant.** Fresh auxiliaries never drift: FIFO
//! notifications carry whole tuples (the Store-Copies argument). A resync
//! marks every auxiliary **stale** — notifications were lost — and a
//! stale auxiliary is never consulted. The next update emits one rebuild
//! query `π_retained(r_i)` per stale auxiliary; its answer reinstalls the
//! bag (sound by RV's FIFO argument: notifications for updates the source
//! applied before evaluating it arrive before the answer), so staleness
//! never outlives the first post-resync update.

use std::collections::BTreeMap;

use eca_relational::planner::{Executor, TermPlan};
use eca_relational::{Predicate, SignedBag, Tuple, Update};

use crate::basedb::{BaseDb, BaseLookup};
use crate::error::CoreError;
use crate::expr::{Atom, QueryId, Term};
use crate::maintainer::{AuxDurableState, AuxSnapshot, OutboundQuery, QueryIdGen, SelfMaintStats};
use crate::view::ViewDef;

/// One base-relation slot: `π_retained(r_i)` as a bag when covered.
struct Slot {
    /// Local column positions of the base relation kept in the auxiliary
    /// (used ∪ key, ascending). For uncovered relations this is every
    /// column, defining the coordinate system of local evaluation.
    retained: Vec<usize>,
    /// The resident bag. Meaningful only while fresh.
    bag: SignedBag,
    /// `π_retained(r_i)` as a one-relation view, the rebuild query;
    /// `None` when the relation is not covered.
    rebuild: Option<ViewDef>,
    /// Whether the bag reflects every notification received so far.
    /// Stale auxiliaries (post-resync, or never seeded) are never
    /// consulted and are rebuilt through a rebuild query.
    fresh: bool,
}

/// The auxiliary views of one maintained view, with `cond` and `proj`
/// remapped into their retained-column coordinates.
pub(super) struct AuxStore {
    slots: Vec<Slot>,
    /// In-flight rebuild queries → slot.
    refreshing: BTreeMap<QueryId, usize>,
    /// The view's condition planned over the retained columns.
    local_plan: TermPlan,
    local_proj: Vec<usize>,
    /// Rebuild queries sent for stale auxiliaries.
    refresh_queries: u64,
}

impl AuxStore {
    /// Auxiliaries for `view` under `covered` (one flag per base
    /// relation; `None` = keyed relations), seeded fresh from `base`
    /// when given and stale otherwise. Repeated relations are never
    /// covered.
    ///
    /// # Errors
    /// [`CoreError::UnknownRelation`] when `covered` is not one flag per
    /// base relation.
    pub(super) fn new(
        view: &ViewDef,
        covered: Option<&[bool]>,
        base: Option<&BaseDb>,
    ) -> Result<Self, CoreError> {
        let arity = view.base().len();
        if let Some(c) = covered.filter(|c| c.len() != arity) {
            return Err(CoreError::UnknownRelation {
                relation: format!("coverage spec has {} flags", c.len()),
            });
        }
        let cond_cols = view.cond().columns();
        let mut slots = Vec::with_capacity(arity);
        for (i, schema) in view.base().iter().enumerate() {
            let wanted = covered.map_or_else(|| schema.has_key(), |c| c[i]);
            let is_covered = wanted && view.relation_indices(schema.relation()).len() == 1;
            let (off, width) = (view.offset(i), schema.arity());
            // Used ∪ key for covered relations, every column otherwise
            // (uncovered slots only ever hold bound tuples in local
            // terms, which carry all columns anyway).
            let retained: Vec<usize> = if is_covered {
                let mut keep: Vec<usize> = cond_cols
                    .iter()
                    .chain(view.proj())
                    .filter(|&&c| c >= off && c < off + width)
                    .map(|&c| c - off)
                    .chain(schema.key_positions().iter().copied())
                    .collect();
                keep.sort_unstable();
                keep.dedup();
                keep
            } else {
                (0..width).collect()
            };
            let rebuild = if is_covered {
                Some(ViewDef::new(
                    format!("{}::aux{}", view.name(), i),
                    vec![schema.clone()],
                    Predicate::True,
                    retained.clone(),
                )?)
            } else {
                None
            };
            let mut bag = SignedBag::new();
            let seed = base.filter(|_| is_covered);
            if let Some(rel) = seed.and_then(|db| db.bag(schema.relation())) {
                for (t, c) in rel.iter() {
                    bag.add(t.project(&retained), c);
                }
            }
            slots.push(Slot {
                retained,
                bag,
                rebuild,
                fresh: seed.is_some(),
            });
        }
        // Old product column → retained-coordinate column.
        let mut map = vec![0usize; view.product_arity()];
        let mut new_off = 0usize;
        for (i, slot) in slots.iter().enumerate() {
            for (q, &p) in slot.retained.iter().enumerate() {
                map[view.offset(i) + p] = new_off + q;
            }
            new_off += slot.retained.len();
        }
        Ok(AuxStore {
            local_plan: TermPlan::new(
                slots.iter().map(|s| s.retained.len()).collect(),
                &view.cond().map_columns(&|c| map[c]),
            ),
            local_proj: view.proj().iter().map(|&c| map[c]).collect(),
            slots,
            refreshing: BTreeMap::new(),
            refresh_queries: 0,
        })
    }

    /// Apply the notified tuple to every fresh auxiliary of its relation.
    pub(super) fn absorb(&mut self, view: &ViewDef, update: &Update) {
        for i in view.relation_indices(&update.relation) {
            let slot = &mut self.slots[i];
            if slot.rebuild.is_some() && slot.fresh {
                let st = update.signed_tuple();
                slot.bag
                    .add(st.tuple.project(&slot.retained), st.sign.factor());
            }
        }
    }

    /// Rebuild queries for every stale covered auxiliary without one in
    /// flight.
    pub(super) fn rebuild_stale(&mut self, ids: &mut QueryIdGen) -> Vec<OutboundQuery> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(rebuild) = &slot.rebuild else {
                continue;
            };
            if !slot.fresh && !self.refreshing.values().any(|&j| j == i) {
                let id = ids.fresh();
                self.refreshing.insert(id, i);
                self.refresh_queries += 1;
                out.push(OutboundQuery {
                    id,
                    query: rebuild.as_query(),
                });
            }
        }
        out
    }

    /// Install `answer` if `id` is an in-flight rebuild query; otherwise
    /// hand the answer back. FIFO delivery guarantees a rebuild answer
    /// reflects every notification processed so far.
    pub(super) fn rebuilt(&mut self, id: QueryId, answer: SignedBag) -> Option<SignedBag> {
        let Some(i) = self.refreshing.remove(&id) else {
            return Some(answer);
        };
        let slot = &mut self.slots[i];
        slot.bag = answer;
        slot.fresh = true;
        None
    }

    /// Whether no rebuild query is in flight.
    pub(super) fn is_idle(&self) -> bool {
        self.refreshing.is_empty()
    }

    /// Whether every unbound atom of `term` has a fresh auxiliary.
    /// Fully-bound terms (the Appendix D.2 case) are trivially local.
    pub(super) fn answers(&self, term: &Term) -> bool {
        term.atoms()
            .iter()
            .zip(&self.slots)
            .all(|(a, slot)| match a {
                Atom::Rel(_) => slot.rebuild.is_some() && slot.fresh,
                Atom::Bound(_) => true,
            })
    }

    /// Evaluate local terms over the auxiliaries in retained coordinates.
    pub(super) fn eval(&self, terms: &[Term]) -> Result<SignedBag, CoreError> {
        let mut out = SignedBag::new();
        for term in terms {
            let bound: Vec<(usize, Tuple, i64)> = term
                .atoms()
                .iter()
                .zip(&self.slots)
                .enumerate()
                .filter_map(|(i, (atom, slot))| match atom {
                    Atom::Bound(st) => {
                        Some((i, st.tuple.project(&slot.retained), st.sign.factor()))
                    }
                    Atom::Rel(_) => None,
                })
                .collect();
            let factor = bound.iter().fold(term.factor(), |f, (_, _, sign)| f * sign);
            let plan = &self.local_plan;
            let mut exec = Executor::default();
            exec.seed(plan, factor, bound.iter().map(|(i, t, _)| (*i, t)))?;
            while let Some(i) = exec.next_input(plan) {
                exec.join(plan, i, self.slots[i].bag.iter())?;
            }
            exec.finish(plan, &self.local_proj, &mut out)?;
        }
        Ok(out)
    }

    /// Resync: notifications may have been lost, so every auxiliary
    /// becomes stale and is rebuilt lazily by the next update.
    pub(super) fn mark_stale(&mut self) {
        self.refreshing.clear();
        for slot in &mut self.slots {
            slot.bag = SignedBag::new();
            slot.fresh = false;
        }
    }

    /// Every slot's bag and freshness, in slot order.
    pub(super) fn checkpoint(&self) -> Vec<AuxDurableState> {
        self.slots
            .iter()
            .map(|s| AuxDurableState {
                fresh: s.fresh,
                bag: s.bag.clone(),
            })
            .collect()
    }

    /// Exact reinstall: unlike [`AuxStore::mark_stale`], freshness is
    /// trusted — the checkpoint was cut at a quiescent point, so a fresh
    /// bag there tracked the source exactly and replay resumes from it
    /// without emitting rebuild queries.
    ///
    /// # Errors
    /// [`CoreError::UnknownRelation`] when `aux` is not one state per
    /// slot.
    pub(super) fn restore(&mut self, aux: Vec<AuxDurableState>) -> Result<(), CoreError> {
        if aux.len() != self.slots.len() {
            return Err(CoreError::UnknownRelation {
                relation: format!("checkpoint has {} auxiliary slots", aux.len()),
            });
        }
        self.refreshing.clear();
        for (slot, durable) in self.slots.iter_mut().zip(aux) {
            slot.bag = durable.bag;
            slot.fresh = durable.fresh && slot.rebuild.is_some();
        }
        Ok(())
    }

    /// Locality counters plus the residency of every covered auxiliary.
    pub(super) fn stats(&self, view: &ViewDef, local: u64, remote: u64) -> SelfMaintStats {
        let covered = || {
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.rebuild.is_some())
        };
        SelfMaintStats {
            local_updates: local,
            remote_updates: remote,
            refresh_queries: self.refresh_queries,
            aux_tuples: covered()
                .map(|(_, s)| s.bag.pos_len() + s.bag.neg_len())
                .sum(),
            aux_bytes: covered().map(|(_, s)| s.bag.encoded_len() as u64).sum(),
            auxiliaries: covered()
                .map(|(i, s)| AuxSnapshot {
                    relation: view.base()[i].relation().to_owned(),
                    retained: s.retained.clone(),
                    bag: s.bag.clone(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Eca, LocalRule};
    use crate::maintainer::ViewMaintainer;
    use eca_relational::{CmpOp, Schema, Tuple};

    /// Example-2 shaped keyed view: V = π_W(r1 ⋈ r2).
    fn keyed_view2() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap()
    }

    /// Three-relation keyed chain with a projection that drops columns,
    /// so the auxiliaries are genuinely narrower than replicas.
    fn keyed_view3() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X", "P"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["X", "Y"]).unwrap(),
                Schema::with_key("r3", &["Y", "Z", "Q"], &["Z"]).unwrap(),
            ],
            Predicate::col_eq(1, 3).and(Predicate::col_eq(4, 5)),
            vec![0, 6],
        )
        .unwrap()
    }

    fn aux(view: &ViewDef, db: &BaseDb, covered: Option<Vec<bool>>, seed: bool) -> Eca {
        let initial = view.eval(db).unwrap();
        let rule = LocalRule::Auxiliaries(covered);
        Eca::with_rule(view.clone(), initial, rule, 1, seed.then_some(db)).unwrap()
    }

    fn seeded(view: &ViewDef, db: &BaseDb) -> Eca {
        aux(view, db, None, true)
    }

    fn stats(alg: &Eca) -> SelfMaintStats {
        alg.selfmaint_stats().unwrap()
    }

    /// The relations that have an auxiliary.
    fn covered(alg: &Eca) -> Vec<String> {
        stats(alg)
            .auxiliaries
            .into_iter()
            .map(|a| a.relation)
            .collect()
    }

    #[test]
    fn retained_columns_are_used_union_key() {
        let v = keyed_view3();
        let db = BaseDb::for_view(&v);
        let retained: Vec<Vec<usize>> = stats(&seeded(&v, &db))
            .auxiliaries
            .into_iter()
            .map(|a| a.retained)
            .collect();
        // r1(W,X,P): cond uses X (col 1), proj uses W (col 0), key W → {0,1}.
        assert_eq!(retained[0], vec![0, 1]);
        // r2(X,Y): both columns used by cond, key (X,Y) → {0,1}.
        assert_eq!(retained[1], vec![0, 1]);
        // r3(Y,Z,Q): cond uses Y (prod col 5 → local 0), proj uses Z
        // (prod col 6 → local 1), key Z → {0,1}; Q is dropped.
        assert_eq!(retained[2], vec![0, 1]);
    }

    #[test]
    fn racing_updates_are_answered_locally_and_exactly() {
        // Example 2's anomaly script, fully self-maintained.
        let v = keyed_view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = seeded(&v, &db);

        for u in [
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
        ] {
            db.apply(&u);
            assert!(alg.on_update(&u).unwrap().is_empty(), "{u:?}");
            // Strong consistency, per update: MV == V[ss_i].
            assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        }
        assert!(alg.is_quiescent());
        assert_eq!(stats(&alg).local_updates, 2);
        assert_eq!(stats(&alg).remote_updates, 0);
    }

    #[test]
    fn projected_auxiliaries_evaluate_terms_exactly() {
        // Columns P and Q never reach the auxiliaries, yet deltas match
        // the full evaluation, duplicates included.
        let v = keyed_view3();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2, 77]));
        db.insert("r1", Tuple::ints([1, 2, 88])); // same (W,X), distinct P
        db.insert("r2", Tuple::ints([2, 3]));
        db.insert("r3", Tuple::ints([3, 9, 55]));
        let mut alg = seeded(&v, &db);

        for u in [
            Update::insert("r3", Tuple::ints([3, 10, 66])),
            Update::delete("r1", Tuple::ints([1, 2, 88])),
            Update::insert("r2", Tuple::ints([2, 3])), // duplicate tuple
        ] {
            db.apply(&u);
            assert!(alg.on_update(&u).unwrap().is_empty(), "{u:?}");
            assert_eq!(*alg.materialized(), v.eval(&db).unwrap(), "{u:?}");
        }
    }

    #[test]
    fn unkeyed_relations_fall_back_to_round_trips() {
        let v = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::new("r2", &["X", "Y"]), // unkeyed → uncovered
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 4]));
        let mut alg = seeded(&v, &db);
        assert_eq!(covered(&alg), ["r1"]);

        // An r2 update binds the uncovered slot; the remaining atom (r1)
        // is covered → local, zero round-trips.
        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u1);
        assert!(alg.on_update(&u1).unwrap().is_empty());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());

        // An r1 update needs r2's contents → round-trip.
        let u2 = Update::insert("r1", Tuple::ints([7, 2]));
        db.apply(&u2);
        let q = alg.on_update(&u2).unwrap().remove(0);
        assert_eq!(stats(&alg).remote_updates, 1);
        alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    #[test]
    fn mixed_local_and_remote_interleavings_converge() {
        // Partial coverage, racing updates: local deltas buffer in
        // COLLECT while a remote query is pending, and install together.
        let v = keyed_view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 4]));
        let mut alg = aux(&v, &db, Some(vec![true, false]), true);

        // U1 on r1: needs r2 → remote, pending.
        let u1 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        // U2 on r2: local (r1 covered), buffered in COLLECT; the
        // compensating term −Q1⟨U2⟩ is fully bound, also local.
        let u2 = Update::insert("r2", Tuple::ints([2, 5]));
        db.apply(&u2);
        assert!(alg.on_update(&u2).unwrap().is_empty());
        assert!(!alg.collect().is_empty());

        // Q1 answered at the post-U2 state, as ECA allows.
        alg.on_answer(q1.id, q1.query.eval(&db).unwrap()).unwrap();
        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        assert_eq!(stats(&alg).local_updates, 1);
        assert_eq!(stats(&alg).remote_updates, 1);
    }

    #[test]
    fn reset_marks_auxes_stale_and_refresh_rebuilds_them() {
        let v = keyed_view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = seeded(&v, &db);

        // Resync: auxiliaries can no longer be trusted.
        alg.reset_to(v.eval(&db).unwrap()).unwrap();
        assert!(alg.is_quiescent());

        // Next update: rides the fallback, plus one rebuild query per
        // stale auxiliary. The compensating query itself is remote.
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u);
        let out = alg.on_update(&u).unwrap();
        assert_eq!(out.len(), 3, "2 rebuilds + 1 compensating query");
        assert!(!alg.is_quiescent());

        // Answer everything at the current source state (single-relation
        // projections for the rebuilds, the view delta for the rest).
        for q in out {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert!(alg.is_quiescent());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());

        // Auxiliaries are fresh again: the next update is local.
        let u2 = Update::insert("r1", Tuple::ints([9, 2]));
        db.apply(&u2);
        assert!(alg.on_update(&u2).unwrap().is_empty());
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    #[test]
    fn cold_start_without_base_snapshot_rebuilds_lazily() {
        let v = keyed_view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = aux(&v, &db, None, false);

        let u = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u);
        let out = alg.on_update(&u).unwrap();
        assert_eq!(out.len(), 3);
        for q in out {
            alg.on_answer(q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());

        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u2);
        assert!(
            alg.on_update(&u2).unwrap().is_empty(),
            "now self-maintained"
        );
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    #[test]
    fn self_join_views_are_never_covered() {
        let v = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["A", "B"], &["A"]).unwrap(),
                Schema::with_key("r1", &["A", "B"], &["A"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap();
        let db = BaseDb::for_view(&v);
        let alg = seeded(&v, &db);
        assert!(covered(&alg).is_empty());
    }

    #[test]
    fn stats_report_locality_and_residency() {
        let v = keyed_view2();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = seeded(&v, &db);
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u);
        alg.on_update(&u).unwrap();
        let stats = stats(&alg);
        assert_eq!(stats.local_updates, 1);
        assert_eq!(stats.remote_updates, 0);
        assert_eq!(stats.aux_tuples, 2, "r1 tuple + the new r2 tuple");
        assert!(stats.aux_bytes > 0);
        assert_eq!(stats.auxiliaries.len(), 2);
    }

    #[test]
    fn selection_condition_still_applies_locally() {
        // A comparison selection over retained columns must survive the
        // remap.
        let v = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X", "P"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Z"], &["Z"]).unwrap(),
            ],
            Predicate::col_eq(1, 3).and(Predicate::col_cmp(0, CmpOp::Gt, 4)),
            vec![0, 4],
        )
        .unwrap();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([10, 2, 111]));
        db.insert("r1", Tuple::ints([0, 2, 222]));
        let mut alg = seeded(&v, &db);
        let u = Update::insert("r2", Tuple::ints([2, 5]));
        db.apply(&u);
        assert!(alg.on_update(&u).unwrap().is_empty());
        // Only W=10 > Z=5 qualifies.
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        assert_eq!(alg.materialized().count(&Tuple::ints([10, 5])), 1);
        assert_eq!(alg.materialized().count(&Tuple::ints([0, 5])), 0);
    }
}

//! The view-maintenance algorithm family.
//!
//! | Algorithm | Paper section | Guarantee (over interleaved histories) |
//! |---|---|---|
//! | [`Basic`] | Alg. 5.1 (\[BLT86\] adapted) | none — exhibits anomalies |
//! | [`Eca`] | Alg. 5.2, App. D.2, §7 batching, auxiliary views | strong consistency |
//! | [`EcaKey`] | §5.4 | strong consistency (keyed views) |
//! | [`Lca`] | §5.3 (sketched in paper) | completeness |
//! | [`RecomputeView`] | Alg. D.1 | strong consistency |
//! | [`StoreCopies`] | §1.2 | completeness (local replicas) |
//!
//! [`Eca`] is the one compensating maintainer: a [`LocalRule`] and a
//! batch size give the `Eca`, `EcaOptimized`, `BatchEca` and `EcaAux`
//! presets of [`AlgorithmKind`]. `EcaLocal` (§5.5) is a dispatch over
//! the others by view shape.

pub mod basic;
pub mod eca;
mod eca_aux;
pub mod ecak;
pub mod lca;
pub mod rv;
pub mod sc;

pub use basic::Basic;
pub use eca::{Eca, LocalRule};
pub use ecak::EcaKey;
pub use lca::Lca;
pub use rv::RecomputeView;
pub use sc::StoreCopies;

use crate::error::CoreError;
use crate::maintainer::ViewMaintainer;
use crate::view::ViewDef;

/// Which algorithm to instantiate — used by the simulator, benches and
/// examples to parameterize runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlgorithmKind {
    /// The anomalous baseline (Alg. 5.1).
    Basic,
    /// The Eager Compensating Algorithm (Alg. 5.2), queries sent
    /// verbatim.
    Eca,
    /// ECA with the Appendix D.2 refinement: fully-bound terms are
    /// evaluated locally, never shipped. The §6 cost analysis assumes
    /// this variant.
    EcaOptimized,
    /// ECA with auxiliary-view self-maintenance: compensating queries
    /// are answered against warehouse-resident projections of keyed
    /// base relations, round-tripping to the source only when the
    /// auxiliaries cannot determine the delta.
    EcaAux,
    /// ECA-Key (§5.4); requires a fully keyed view.
    EcaKey,
    /// ECA-Local (§5.5): every update of a single-relation view is
    /// answered locally (`EcaOptimized`), a fully keyed view without
    /// repeated relations runs `EcaKey`, any other view plain `Eca`.
    EcaLocal,
    /// The Lazy Compensating Algorithm (§5.3).
    Lca,
    /// Recompute the view every `s` updates (Alg. D.1).
    RecomputeView {
        /// Recompute period `s ≥ 1`.
        period: u64,
    },
    /// Store copies of all base relations at the warehouse (§1.2).
    StoreCopies,
    /// ECA with update batching: one coalesced query per `batch_size`
    /// updates (§7 future work).
    BatchEca {
        /// Updates per batch (≥ 1).
        batch_size: usize,
    },
}

impl AlgorithmKind {
    /// Instantiate the algorithm for `view` with `initial` as the starting
    /// materialized state (which must equal `V[ss0]`). Store-Copies starts
    /// with empty replicas; use [`AlgorithmKind::instantiate_with_base`]
    /// when the source starts non-empty.
    ///
    /// # Errors
    /// Propagates per-algorithm construction errors (e.g. ECA-Key on an
    /// unkeyed view).
    pub fn instantiate(
        self,
        view: &ViewDef,
        initial: eca_relational::SignedBag,
    ) -> Result<Box<dyn ViewMaintainer>, CoreError> {
        self.instantiate_with_base(view, initial, None)
    }

    /// As [`AlgorithmKind::instantiate`], but supplies the source's initial
    /// base-relation contents so replica-keeping strategies (Store-Copies,
    /// ECA-Aux) start in sync.
    ///
    /// # Errors
    /// Propagates per-algorithm construction errors.
    pub fn instantiate_with_base(
        self,
        view: &ViewDef,
        initial: eca_relational::SignedBag,
        initial_base: Option<crate::BaseDb>,
    ) -> Result<Box<dyn ViewMaintainer>, CoreError> {
        Ok(match self {
            AlgorithmKind::Basic => Box::new(Basic::new(view.clone(), initial)),
            AlgorithmKind::Eca => Box::new(Eca::new(view.clone(), initial)),
            AlgorithmKind::EcaOptimized => Box::new(Eca::with_rule(
                view.clone(),
                initial,
                LocalRule::FullyBound,
                1,
                None,
            )?),
            AlgorithmKind::EcaAux => Box::new(Eca::with_rule(
                view.clone(),
                initial,
                LocalRule::Auxiliaries(None),
                1,
                initial_base.as_ref(),
            )?),
            AlgorithmKind::BatchEca { batch_size } => {
                Box::new(Eca::batched(view.clone(), initial, batch_size)?)
            }
            AlgorithmKind::EcaKey => Box::new(EcaKey::new(view.clone(), initial)?),
            AlgorithmKind::EcaLocal => {
                let kind = if view.base().len() == 1 {
                    AlgorithmKind::EcaOptimized
                } else if view.is_fully_keyed() && !view.has_repeated_relations() {
                    AlgorithmKind::EcaKey
                } else {
                    AlgorithmKind::Eca
                };
                return kind.instantiate_with_base(view, initial, initial_base);
            }
            AlgorithmKind::Lca => Box::new(Lca::new(view.clone(), initial)),
            AlgorithmKind::RecomputeView { period } => {
                Box::new(RecomputeView::new(view.clone(), initial, period)?)
            }
            AlgorithmKind::StoreCopies => match initial_base {
                Some(db) => Box::new(StoreCopies::with_replicas(view.clone(), initial, db)),
                None => Box::new(StoreCopies::new(view.clone(), initial)),
            },
        })
    }

    /// Display name matching the paper's abbreviations.
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmKind::Basic => "Basic",
            AlgorithmKind::Eca => "ECA",
            AlgorithmKind::EcaOptimized => "ECA*",
            AlgorithmKind::EcaAux => "ECA-Aux",
            AlgorithmKind::EcaKey => "ECA-Key",
            AlgorithmKind::EcaLocal => "ECA-Local",
            AlgorithmKind::Lca => "LCA",
            AlgorithmKind::RecomputeView { .. } => "RV",
            AlgorithmKind::StoreCopies => "SC",
            AlgorithmKind::BatchEca { .. } => "Batch-ECA",
        }
    }
}

#[cfg(test)]
mod tests {
    //! `EcaLocal` is a dispatch: each view shape runs another preset.

    use super::*;
    use crate::basedb::BaseDb;
    use crate::expr::QueryId;
    use eca_relational::{CmpOp, Predicate, Schema, SignedBag, Tuple, Update};

    fn ecal(view: &ViewDef, initial: SignedBag) -> Box<dyn ViewMaintainer> {
        AlgorithmKind::EcaLocal.instantiate(view, initial).unwrap()
    }

    fn single_rel_view() -> ViewDef {
        // V = π_A(σ_{A < B}(r1(A,B)))
        ViewDef::new(
            "V",
            vec![Schema::new("r1", &["A", "B"])],
            Predicate::col_cmp(0, CmpOp::Lt, 1),
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn single_relation_updates_are_local_and_exact() {
        let v = single_rel_view();
        let mut db = BaseDb::for_view(&v);
        let mut alg = ecal(&v, SignedBag::new());

        let script = [
            Update::insert("r1", Tuple::ints([1, 5])), // passes σ
            Update::insert("r1", Tuple::ints([9, 2])), // filtered out
            Update::insert("r1", Tuple::ints([1, 5])), // duplicate
            Update::delete("r1", Tuple::ints([1, 5])), // remove one copy
        ];
        for u in &script {
            db.apply(u);
            let qs = alg.on_update(u).unwrap();
            assert!(qs.is_empty(), "single-relation ECAL never queries");
            assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
        }
        assert_eq!(alg.materialized().count(&Tuple::ints([1])), 1);
    }

    #[test]
    fn single_relation_rejects_answers() {
        let mut alg = ecal(&single_rel_view(), SignedBag::new());
        assert!(alg.on_answer(QueryId(1), SignedBag::new()).is_err());
        assert!(alg.is_quiescent());
    }

    #[test]
    fn general_fallback_compensates_like_eca() {
        // Replay Example 2; the general fallback must repair the anomaly.
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
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut alg = ecal(&v, SignedBag::new());

        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        let q1 = alg.on_update(&u1).unwrap().remove(0);
        db.apply(&u2);
        let q2 = alg.on_update(&u2).unwrap().remove(0);
        assert_eq!(q2.query.terms().len(), 2, "compensation expected");
        alg.on_answer(q1.id, q1.query.eval(&db).unwrap()).unwrap();
        alg.on_answer(q2.id, q2.query.eval(&db).unwrap()).unwrap();
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }

    #[test]
    fn keyed_fallback_deletes_locally() {
        let v = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        let mut alg = ecal(&v, v.eval(&db).unwrap());
        let u = Update::delete("r1", Tuple::ints([1, 2]));
        db.apply(&u);
        assert!(
            alg.on_update(&u).unwrap().is_empty(),
            "delete handled locally"
        );
        assert_eq!(*alg.materialized(), v.eval(&db).unwrap());
    }
}

//! The common interface of all warehouse view-maintenance algorithms.
//!
//! The warehouse side of every algorithm is a state machine reacting to two
//! stimuli (paper §3's `W_up` and `W_ans` events):
//!
//! * an update notification arriving from the source, and
//! * an answer relation arriving for a previously sent query.
//!
//! Each reaction may emit queries to be sent to the source. Transport and
//! interleaving are supplied externally (by `eca-sim` or by a test
//! harness), which is exactly the decoupling the paper studies.

use eca_relational::{SignedBag, Update};

use crate::error::CoreError;
use crate::expr::{Query, QueryId};
use crate::view::ViewDef;

/// A query the warehouse wants evaluated at the source.
#[derive(Clone, Debug)]
pub struct OutboundQuery {
    /// Correlation id: the answer must be delivered with this id.
    pub id: QueryId,
    /// The query expression.
    pub query: Query,
}

/// A warehouse view-maintenance algorithm.
///
/// Implementations must be driven with in-order delivery: `on_update` calls
/// follow the source's update order, and `on_answer` calls follow the order
/// in which queries were emitted (FIFO channels, paper §3's message
/// ordering assumption).
///
/// `Send` is a supertrait because the reactor driver
/// (`ReactorWarehouse`, the one threaded warehouse driver) keeps each
/// source's shard behind a `Mutex` that whichever worker claims the
/// station locks; all implementations are plain owned data, so this
/// costs nothing.
pub trait ViewMaintainer: Send {
    /// Short algorithm name for traces and reports (e.g. `"ECA"`).
    fn algorithm(&self) -> &'static str;

    /// The maintained view definition.
    fn view(&self) -> &ViewDef;

    /// The current materialized view `MV`.
    fn materialized(&self) -> &SignedBag;

    /// React to an update notification (a `W_up` event). Returns queries
    /// to send to the source, in order.
    ///
    /// # Errors
    /// Implementation-specific validation errors.
    fn on_update(&mut self, update: &Update) -> Result<Vec<OutboundQuery>, CoreError>;

    /// React to a query answer (a `W_ans` event). Returns follow-up
    /// queries (none, for the paper's algorithms).
    ///
    /// # Errors
    /// [`CoreError::UnknownQuery`] when `id` is not pending.
    fn on_answer(
        &mut self,
        id: QueryId,
        answer: SignedBag,
    ) -> Result<Vec<OutboundQuery>, CoreError>;

    /// Whether no queries are outstanding (`UQS = ∅`) and all received
    /// information has been applied to `MV`.
    fn is_quiescent(&self) -> bool;

    /// Distinct states `MV` passed through during the *last* `on_update`/
    /// `on_answer` call, in order, when more than one delta was applied
    /// inside a single event (the Lazy Compensating Algorithm can close
    /// several buffered per-update deltas on one answer). The default —
    /// an empty vector — means "only the current [`materialized`] state".
    /// Harnesses recording state histories must consume this after every
    /// event or intermediate states are lost.
    ///
    /// [`materialized`]: ViewMaintainer::materialized
    fn drain_intermediate_states(&mut self) -> Vec<SignedBag> {
        Vec::new()
    }

    /// Atomically replace all algorithm state with a freshly recomputed
    /// view state `V(ss)` — the warehouse's RV-style resync (paper
    /// Alg. D.1) after an unrecoverable channel fault. Implementations
    /// must install `state` as `MV` and clear every pending structure
    /// (UQS, COLLECT, buffered deltas), leaving the maintainer quiescent
    /// and ready to resume incremental processing from `ss`.
    ///
    /// The default refuses: algorithms carrying auxiliary state that a
    /// bare `V(ss)` answer cannot restore (e.g. base-relation replicas)
    /// must not silently pretend to have resynced.
    ///
    /// # Errors
    /// [`CoreError::ResyncUnsupported`] from the default implementation.
    fn reset_to(&mut self, state: SignedBag) -> Result<(), CoreError> {
        let _ = state;
        Err(CoreError::ResyncUnsupported {
            algorithm: self.algorithm(),
        })
    }

    /// Whether a pending compensating query of this algorithm may be
    /// re-issued (same expression, new id) after a channel reset and
    /// still yield a correct view.
    ///
    /// True for the compensating family: an ECA query stays in `UQS`
    /// while pending, so every intervening update subtracts its effect
    /// from the re-issued query's answer no matter how late it is
    /// evaluated (§4's compensation argument does not depend on *when*
    /// the source evaluates the query). False for algorithms with no
    /// compensation machinery — re-evaluating their queries against a
    /// later source state reintroduces exactly the anomalies of §4.1, so
    /// recovery must go straight to a resync.
    fn reissue_safe(&self) -> bool {
        true
    }

    /// Self-maintenance statistics, for algorithms that answer
    /// compensating queries against warehouse-resident auxiliary views
    /// ([`Eca`](crate::algorithms::Eca) under
    /// [`LocalRule::Auxiliaries`](crate::algorithms::LocalRule::Auxiliaries)).
    /// `None` — the default — means the algorithm has no
    /// self-maintenance machinery; harnesses use this to report
    /// local-answer rates and auxiliary storage residency without
    /// downcasting.
    fn selfmaint_stats(&self) -> Option<SelfMaintStats> {
        None
    }

    /// Durable state beyond `MV` that a checkpoint must capture for this
    /// algorithm to restart *exactly* where it left off. Checkpoints are
    /// only taken at quiescent points (`UQS = ∅`, nothing in flight), so
    /// for the paper's algorithms `MV` alone suffices — the default. A
    /// self-maintaining algorithm (ECA under the auxiliary rule) additionally snapshots its
    /// auxiliary bags and their freshness, one [`AuxDurableState`] per
    /// base-relation slot, in slot order.
    fn checkpoint_aux(&self) -> Vec<AuxDurableState> {
        Vec::new()
    }

    /// Reinstall a checkpointed state: `mv` becomes the materialized
    /// view and `aux` (from [`ViewMaintainer::checkpoint_aux`]) restores
    /// any algorithm-specific durable state. Unlike
    /// [`ViewMaintainer::reset_to`] — which must assume notifications
    /// were lost and therefore distrusts auxiliary state — a checkpoint
    /// restore is exact: auxiliaries come back with the freshness they
    /// had, so replaying the logged tail re-emits byte-identical
    /// queries.
    ///
    /// # Errors
    /// [`CoreError::ResyncUnsupported`] when the algorithm can neither
    /// restore the extra state nor fall back to `reset_to`.
    fn restore_checkpoint(
        &mut self,
        mv: SignedBag,
        aux: Vec<AuxDurableState>,
    ) -> Result<(), CoreError> {
        let _ = aux;
        // At a quiescent point the default algorithms are fully
        // described by MV; reset_to installs it and clears the (already
        // empty) pending structures.
        self.reset_to(mv)
    }
}

/// The durable snapshot of one auxiliary-view slot, as captured by
/// [`ViewMaintainer::checkpoint_aux`] at a quiescent point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuxDurableState {
    /// Whether the auxiliary tracked the source exactly at checkpoint
    /// time (stale auxiliaries rebuild lazily after restore, exactly as
    /// they would have in the original run).
    pub fresh: bool,
    /// The resident bag, in retained-column coordinates.
    pub bag: SignedBag,
}

/// A snapshot of one warehouse-resident auxiliary view: the bag
/// projection of a base relation onto its retained columns.
#[derive(Clone, Debug)]
pub struct AuxSnapshot {
    /// Name of the projected base relation.
    pub relation: String,
    /// Retained column positions of that relation (ascending).
    pub retained: Vec<usize>,
    /// The resident bag.
    pub bag: SignedBag,
}

/// Counters and residency snapshot of a self-maintaining algorithm.
#[derive(Clone, Debug)]
pub struct SelfMaintStats {
    /// Updates answered entirely at the warehouse (zero round-trips).
    pub local_updates: u64,
    /// Updates that required a source round-trip.
    pub remote_updates: u64,
    /// Auxiliary rebuild queries sent after resyncs or cold starts.
    pub refresh_queries: u64,
    /// Total tuples resident across all auxiliary views.
    pub aux_tuples: u64,
    /// Total encoded bytes resident across all auxiliary views.
    pub aux_bytes: u64,
    /// Per-relation auxiliary contents, for honest storage accounting.
    pub auxiliaries: Vec<AuxSnapshot>,
}

/// Allocates fresh [`QueryId`]s. Shared by all algorithm implementations.
#[derive(Debug, Default, Clone)]
pub struct QueryIdGen {
    next: u64,
}

impl QueryIdGen {
    /// A generator starting at id 1.
    pub fn new() -> Self {
        QueryIdGen { next: 1 }
    }

    /// The next fresh id.
    pub fn fresh(&mut self) -> QueryId {
        let id = QueryId(self.next);
        self.next += 1;
        id
    }

    /// The value the next [`QueryIdGen::fresh`] call will hand out —
    /// what a checkpoint must persist for id allocation to resume
    /// deterministically after a restart.
    pub fn next_value(&self) -> u64 {
        self.next
    }

    /// Resume allocation at `next` (recovery only). Never rewinds: ids
    /// must stay unique across a process's whole life.
    pub fn resume_at(&mut self, next: u64) {
        self.next = self.next.max(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_gen_is_sequential() {
        let mut g = QueryIdGen::new();
        assert_eq!(g.fresh(), QueryId(1));
        assert_eq!(g.fresh(), QueryId(2));
    }
}

//! Per-source sessions: query-id allocation, epochs and strict answer
//! demux.
//!
//! Every source the warehouse talks to gets its own [`Session`] with its
//! own [`QueryIdGen`] and pending-query FIFO. Maintainers allocate
//! *local* query ids independently (each starts at 1); the session remaps
//! them onto a per-source global space so that many views can share one
//! channel to the source, and demultiplexes each answer **strictly by
//! [`QueryId`]** — an answer bearing an id that is not pending is rejected
//! before any maintainer state (`UQS`, `COLLECT`) can be touched.
//!
//! Sessions also carry an **epoch** counter, bumped on every channel
//! reset ([`Session::bump_epoch`]). Global ids are unique across epochs
//! (the generator is never rewound), so an answer addressed to a query of
//! a dead epoch routes to a retired id and is rejected by the same strict
//! demux — stale-epoch answers can never touch maintainer state. Each
//! pending query keeps its [`Query`] — the body the maintainer's `UQS`
//! and the sent [`WireQuery`] share, not a copy — and a retry count so
//! the warehouse can re-issue in-flight queries of a dead epoch under
//! fresh ids.

use std::collections::{BTreeMap, VecDeque};

use eca_core::maintainer::QueryIdGen;
use eca_core::{CoreError, Query, QueryId};
use eca_wire::WireQuery;

/// Why a pending query was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    /// An incremental maintenance query emitted by a maintainer's
    /// `on_update`/`on_answer` (answer is delivered to the maintainer
    /// under its local id).
    Update,
    /// A full-view recomputation issued by the warehouse's recovery
    /// policy (answer is installed wholesale via
    /// [`eca_core::ViewMaintainer::reset_to`]).
    Resync,
}

/// Where a pending query came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Index of the owning view within its source's shard — the
    /// shard-local index, not the global `ViewId`.
    pub view: usize,
    /// The maintainer-local id the answer must be delivered under
    /// (meaningless for [`RouteKind::Resync`] queries, which bypass the
    /// maintainer's id space).
    pub local: QueryId,
    /// Why the query was sent.
    pub kind: RouteKind,
}

/// One outstanding query, with everything needed to re-issue it after a
/// channel reset.
#[derive(Clone, Debug)]
pub struct PendingQuery {
    /// Demux destination.
    pub route: Route,
    /// The query, kept so a reset can re-send it; it shares its body
    /// with the maintainer's copy.
    pub query: Query,
    /// How many times this query has been re-issued already.
    pub retries: u32,
}

/// The warehouse-side state of one source channel.
#[derive(Debug, Default)]
pub struct Session {
    ids: QueryIdGen,
    epoch: u64,
    pending: BTreeMap<QueryId, PendingQuery>,
    /// Global ids in emission order — the FIFO the paper's §3 ordering
    /// assumption says answers will respect. Demux never *relies* on it
    /// (answers route by id), but it names the oldest outstanding query
    /// for introspection and back-pressure decisions.
    fifo: VecDeque<QueryId>,
}

impl Session {
    /// A fresh session with no outstanding queries, at epoch 0.
    pub fn new() -> Self {
        Session {
            ids: QueryIdGen::new(),
            epoch: 0,
            pending: BTreeMap::new(),
            fifo: VecDeque::new(),
        }
    }

    /// The current channel epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The next session-global query id this session would allocate —
    /// checkpointed so a recovered session re-allocates the exact ids
    /// the pre-crash run used (answers route by id).
    pub fn next_global_id(&self) -> u64 {
        self.ids.next_value()
    }

    /// Restore the epoch and id allocator from a durable checkpoint.
    /// Only meaningful on a fresh session, before any traffic: the
    /// replayed log re-derives the pending table through the ordinary
    /// register/take paths.
    pub fn restore_durable(&mut self, epoch: u64, next_global_id: u64) {
        self.epoch = epoch;
        self.ids.resume_at(next_global_id);
    }

    /// Allocate a global id for a maintenance query emitted by `view`
    /// under `local`, remembering its body for possible re-issue.
    pub fn register(&mut self, view: usize, local: QueryId, query: Query) -> QueryId {
        self.insert(PendingQuery {
            route: Route {
                view,
                local,
                kind: RouteKind::Update,
            },
            query,
            retries: 0,
        })
    }

    /// Allocate a global id for a recovery resync of `view` (the full
    /// view expression; its answer will be installed via `reset_to`).
    pub fn register_resync(&mut self, view: usize, query: Query) -> QueryId {
        self.insert(PendingQuery {
            route: Route {
                view,
                local: QueryId(0),
                kind: RouteKind::Resync,
            },
            query,
            retries: 0,
        })
    }

    /// Re-issue a query drained by [`Session::bump_epoch`] under a fresh
    /// global id, counting the retry. Returns the new id and the body to
    /// put on the wire.
    pub fn reissue(&mut self, mut pq: PendingQuery) -> (QueryId, WireQuery) {
        pq.retries += 1;
        let body = WireQuery::from_query(&pq.query);
        let id = self.insert(pq);
        (id, body)
    }

    fn insert(&mut self, pq: PendingQuery) -> QueryId {
        let global = self.ids.fresh();
        self.pending.insert(global, pq);
        self.fifo.push_back(global);
        global
    }

    /// Resolve and retire a pending global id.
    ///
    /// # Errors
    /// [`CoreError::UnknownQuery`] when `id` was never issued, is already
    /// answered, or belongs to a dead epoch (its entry was drained by
    /// [`Session::bump_epoch`]); the session (and every maintainer behind
    /// it) is left untouched.
    pub fn take(&mut self, id: QueryId) -> Result<Route, CoreError> {
        let pq = self
            .pending
            .remove(&id)
            .ok_or(CoreError::UnknownQuery { id: id.0 })?;
        self.fifo.retain(|&q| q != id);
        Ok(pq.route)
    }

    /// Start a new epoch after a channel reset: every in-flight query is
    /// drained (in emission order) and returned to the caller, who
    /// decides per query whether to [`Session::reissue`] it or abandon
    /// its view to a resync. Once drained, answers to the old ids are
    /// rejected by [`Session::take`] — stale-epoch answers cannot reach
    /// maintainer state.
    pub fn bump_epoch(&mut self) -> Vec<PendingQuery> {
        self.epoch += 1;
        let mut drained = Vec::with_capacity(self.fifo.len());
        for id in std::mem::take(&mut self.fifo) {
            if let Some(pq) = self.pending.remove(&id) {
                drained.push(pq);
            }
        }
        self.pending.clear();
        drained
    }

    /// Number of outstanding queries on this channel.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The oldest outstanding global id, if any.
    pub fn oldest_pending(&self) -> Option<QueryId> {
        self.fifo.front().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal stand-in query (sessions never interpret it).
    fn q() -> Query {
        eca_core::ViewDef::new(
            "V",
            vec![eca_relational::Schema::new("r", &["A"])],
            eca_relational::Predicate::True,
            vec![0],
        )
        .unwrap()
        .as_query()
    }

    #[test]
    fn ids_are_global_and_fifo_tracked() {
        let mut s = Session::new();
        let a = s.register(0, QueryId(1), q());
        let b = s.register(1, QueryId(1), q());
        assert_ne!(a, b);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.oldest_pending(), Some(a));

        let ra = s.take(a).unwrap();
        assert_eq!(
            (ra.view, ra.local, ra.kind),
            (0, QueryId(1), RouteKind::Update)
        );
        assert_eq!(s.oldest_pending(), Some(b));
        let rb = s.take(b).unwrap();
        assert_eq!((rb.view, rb.local), (1, QueryId(1)));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn round_robin_registration_takes_in_any_order_without_leakage() {
        // Many views registering round-robin: view v's r-th query uses
        // local id r+1, so the (global → route) map is fully known.
        let mut s = Session::new();
        let views = 8usize;
        let rounds = 10u64;
        let mut expected = BTreeMap::new();
        for r in 0..rounds {
            for v in 0..views {
                let global = s.register(v, QueryId(r + 1), q());
                assert!(
                    expected.insert(global, (v, QueryId(r + 1))).is_none(),
                    "global ids must never repeat"
                );
            }
        }
        assert_eq!(s.pending(), views * rounds as usize);

        // Retire in a scrambled order (deterministic stride permutation
        // of the 80 ids): every take must route to exactly the view and
        // local id it was registered under — never a neighbour's.
        let ids: Vec<QueryId> = expected.keys().copied().collect();
        let n = ids.len();
        for k in 0..n {
            let id = ids[(k * 37) % n]; // 37 ⊥ 80 → a permutation
            let route = s.take(id).unwrap();
            assert_eq!((route.view, route.local), expected[&id]);
        }
        assert_eq!(s.pending(), 0);
        assert_eq!(s.oldest_pending(), None);
    }

    #[test]
    fn unknown_and_duplicate_ids_are_rejected() {
        let mut s = Session::new();
        let a = s.register(0, QueryId(1), q());
        assert!(matches!(
            s.take(QueryId(99)),
            Err(CoreError::UnknownQuery { id: 99 })
        ));
        s.take(a).unwrap();
        assert!(matches!(s.take(a), Err(CoreError::UnknownQuery { .. })));
    }

    #[test]
    fn bump_epoch_drains_in_order_and_retires_old_ids() {
        let mut s = Session::new();
        assert_eq!(s.epoch(), 0);
        let a = s.register(0, QueryId(1), q());
        let b = s.register(1, QueryId(1), q());
        let r = s.register_resync(2, q());

        let drained = s.bump_epoch();
        assert_eq!(s.epoch(), 1);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].route.view, 0);
        assert_eq!(drained[1].route.view, 1);
        assert_eq!(drained[2].route.kind, RouteKind::Resync);
        assert_eq!(s.pending(), 0);

        // Stale-epoch answers (old global ids) are rejected strictly.
        for id in [a, b, r] {
            assert!(matches!(s.take(id), Err(CoreError::UnknownQuery { .. })));
        }

        // Re-issue under the new epoch: fresh ids, retry counted.
        let (a2, _) = s.reissue(drained[0].clone());
        assert!(a2 > r, "ids keep growing across epochs");
        let route = s.take(a2).unwrap();
        assert_eq!((route.view, route.local), (0, QueryId(1)));
    }
}

//! The warehouse runtime (paper §1 Figure 1.1, §7).
//!
//! A [`Warehouse`] owns a set of [`ViewMaintainer`]s spread over any
//! number of autonomous sources. Each source channel is one
//! `Shard` — a [`Session`] with its own query-id space and
//! pending-query FIFO plus the views over that source; each inbound
//! update notification is routed to every view over that source
//! (paper §7: *"in a warehouse consisting of multiple views where each
//! view is over data from a single source, ECA is simply applied to each
//! view separately"*), and each answer is demultiplexed back to the
//! owning maintainer **strictly by query id**. The shard is the only
//! state machine: this serial `Warehouse` and the pooled
//! [`ReactorWarehouse`] (`workers = 1..N`, the one threaded driver) are
//! two drivers over the same shards.
//!
//! The runtime is sans-IO at its core: [`Warehouse::on_message`] takes
//! one already-delivered [`eca_wire::Message`] and returns the queries to
//! send back, and [`Warehouse::ack`] the acknowledgement a source trims
//! its outbox by. The simulator steps exactly these calls, and
//! [`Warehouse::pump`] loops them over any [`Transport`], e.g. the real
//! TCP link of `examples/tcp_warehouse.rs`. [`Warehouse::on_update`] /
//! [`Warehouse::on_answer`] apply a `W_up`/`W_ans` with the wire
//! conversion left out. Interleaving is always supplied from outside —
//! exactly the decoupling the paper studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod durability;
pub mod publish;
pub mod reactor;
pub mod session;
mod shard;

use std::sync::{Arc, Mutex, MutexGuard};

use eca_core::maintainer::OutboundQuery;
use eca_core::{CoreError, QueryId, ViewMaintainer};
use eca_relational::{SignedBag, Update};
use eca_wire::{Message, Transport, TransportError};

pub use durability::RecoveryOutcome;
pub use eca_durable::{DurabilityConfig, DurableError, FsyncPolicy};
pub use publish::{EpochRegistry, ReadSnapshot};
pub use reactor::{connect_source, ReactorWarehouse};
pub use session::{PendingQuery, Route, RouteKind, Session};
use shard::{Settings, Shard};

/// Crate-wide lock helper: recovers from poisoning, so a panicked
/// worker cannot wedge its peers or the result accessors.
/// Every mutex in this crate guards data that is a consistent prefix
/// after each single update — maintainers mutate under the shard lock
/// one event at a time; inboxes and snapshot rings change by whole
/// pushes and pops.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Handle to a registered source channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceId(pub usize);

/// Handle to a hosted view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViewId(pub usize);

/// Errors raised by the warehouse runtime.
#[derive(Debug)]
pub enum WarehouseError {
    /// A maintainer or routing failure (including
    /// [`CoreError::UnknownQuery`] for unrouted answer ids).
    Core(CoreError),
    /// An operation referenced an unregistered source.
    UnknownSource {
        /// The offending handle.
        id: usize,
    },
    /// A message kind arrived that never travels source → warehouse.
    UnexpectedMessage {
        /// The offending kind.
        kind: &'static str,
    },
    /// The underlying transport failed.
    Transport(TransportError),
    /// A source disconnected before its shard settled (the reactor; the
    /// non-blocking [`Warehouse::pump`] treats hang-up as end of input).
    SourceHungUp {
        /// The offending source's shard index.
        source: usize,
    },
    /// The reactor handled no message on any station for its full stall
    /// timeout ([`ReactorWarehouse::set_stall_timeout`]) while this
    /// source was unsettled. The channel may be wedged; the caller
    /// should reset it and run [`Warehouse::on_reset`].
    SourceStalled {
        /// The offending source's index.
        source: usize,
    },
    /// A transport handed to the reactor can neither notify its worker's
    /// [`eca_wire::PollWaker`] (`set_waker` returned `false`) nor hand
    /// the worker a descriptor to poll (`poll_fd` returned `None`). A
    /// parked worker learns of arrivals only through one of them;
    /// silently degrading to a timed poll would hide the
    /// misconfiguration, so registration fails instead.
    WakerRejected {
        /// The offending source's shard index.
        source: usize,
    },
    /// The reactor was handed a second channel for a source that already
    /// has one: two FIFOs into one session would break the per-channel
    /// order the §3 argument relies on.
    DuplicateSource {
        /// The offending source's shard index.
        source: usize,
    },
    /// The durability layer failed (WAL append, checkpoint write, or
    /// recovery I/O).
    Durability(DurableError),
}

impl std::fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarehouseError::Core(e) => write!(f, "maintenance error: {e}"),
            WarehouseError::UnknownSource { id } => write!(f, "unknown source #{id}"),
            WarehouseError::UnexpectedMessage { kind } => {
                write!(f, "unexpected {kind} message from source")
            }
            WarehouseError::Transport(e) => write!(f, "transport error: {e}"),
            WarehouseError::SourceHungUp { source } => {
                write!(f, "source #{source} hung up before its shard settled")
            }
            WarehouseError::SourceStalled { source } => {
                write!(
                    f,
                    "source #{source} sent nothing for a full stall timeout with queries pending"
                )
            }
            WarehouseError::WakerRejected { source } => {
                write!(
                    f,
                    "source #{source}'s transport can neither wake nor be polled by the reactor"
                )
            }
            WarehouseError::DuplicateSource { source } => {
                write!(f, "source #{source} already has a channel")
            }
            WarehouseError::Durability(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl std::error::Error for WarehouseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarehouseError::Core(e) => Some(e),
            WarehouseError::Transport(e) => Some(e),
            WarehouseError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DurableError> for WarehouseError {
    fn from(e: DurableError) -> Self {
        WarehouseError::Durability(e)
    }
}

impl From<CoreError> for WarehouseError {
    fn from(e: CoreError) -> Self {
        WarehouseError::Core(e)
    }
}

impl From<TransportError> for WarehouseError {
    fn from(e: TransportError) -> Self {
        WarehouseError::Transport(e)
    }
}

/// Health of a hosted view with respect to channel faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewStatus {
    /// Normal incremental maintenance.
    Active,
    /// The view lost state it cannot recover incrementally (exhausted
    /// retries, unsafe re-issue, or lost notifications) and is waiting
    /// for the answer to a full-view resync query. Updates are skipped
    /// until the resync answer installs `V(ss)` via
    /// [`eca_core::ViewMaintainer::reset_to`].
    Degraded,
}

/// Recovery activity counters (monotonic over the warehouse's life).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// In-flight queries re-issued under a new epoch after resets.
    pub reissued: u64,
    /// Full-view resyncs started (views degraded).
    pub resyncs_started: u64,
    /// Resync answers installed (views returned to [`ViewStatus::Active`]).
    pub resyncs_completed: u64,
}

/// A warehouse runtime hosting many views over many sources: one
/// `Shard` per source, driven serially.
pub struct Warehouse {
    /// Registered source names; `names[s]` belongs to `shards[s]`.
    names: Vec<String>,
    shards: Vec<Shard>,
    /// Global [`ViewId`] → (shard, shard-local index).
    view_index: Vec<(usize, usize)>,
    /// What the next registered shard starts with; setters also update
    /// every existing shard's copy.
    settings: Settings,
}

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse::new()
    }
}

impl Warehouse {
    /// An empty warehouse.
    pub fn new() -> Self {
        Warehouse {
            names: Vec::new(),
            shards: Vec::new(),
            view_index: Vec::new(),
            settings: Settings {
                record_history: true,
                publisher: None,
            },
        }
    }

    fn configure(&mut self, set: impl Fn(&mut Settings)) {
        set(&mut self.settings);
        for shard in &mut self.shards {
            set(&mut shard.settings);
        }
    }

    /// The shard behind a source handle.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`] for an unregistered handle.
    fn shard_mut(&mut self, source: SourceId) -> Result<&mut Shard, WarehouseError> {
        let s = shard::checked(source, self.shards.len())?;
        Ok(&mut self.shards[s])
    }

    fn view(&self, view: ViewId) -> &shard::ShardView {
        let (shard, local) = self.view_index[view.0];
        &self.shards[shard].views[local]
    }

    /// Turn on epoch publication for the read-serving layer: every view
    /// registered so far is published (initial state = epoch 0,
    /// quiesced), and from now on every processed event publishes the
    /// affected view's state into the returned [`EpochRegistry`]. An
    /// unchanged state re-publishes the previous snapshot by reference;
    /// a changed one is cloned once, sharing its pages with the
    /// maintainer's bag, so a publish costs one pointer pair per page
    /// and no per-chunk or per-tuple work. Readers
    /// share only the per-view slot lock with maintenance, held for a
    /// ring push or an `Arc` clone, never during query evaluation.
    /// `ring_cap` bounds each view's window of retained epochs. Call
    /// after [`Warehouse::add_view`]; views added later are maintained
    /// but not served.
    ///
    /// The registry survives [`Warehouse::into_reactor`] — the shards
    /// keep publishing into the same store.
    pub fn enable_serving(&mut self, ring_cap: usize) -> Arc<EpochRegistry> {
        let initial = (0..self.view_index.len()).map(|v| self.materialized(ViewId(v)).clone());
        let registry = Arc::new(EpochRegistry::new(initial, ring_cap));
        self.configure(|s| s.publisher = Some(Arc::clone(&registry)));
        registry
    }

    /// Recovery activity so far, summed over every source channel.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut total = RecoveryStats::default();
        for shard in &self.shards {
            total.reissued += shard.recovery.reissued;
            total.resyncs_started += shard.recovery.resyncs_started;
            total.resyncs_completed += shard.recovery.resyncs_completed;
        }
        total
    }

    /// Toggle per-event state-history recording (on by default). The
    /// history feeds the §3.1 consistency checker ([`Warehouse::view_states`]).
    /// Each recorded state is a clone of `MV`, which shares its pages with
    /// the live bag and with its neighbours in the history, so an entry
    /// costs its page vector (one pointer pair per page, a page per
    /// 900–2,048 tuples) plus the pages and chunks that event changed —
    /// not a copy of the view. But every entry, the first included, pins
    /// the chunks it shares: the live bag's first write to one copies it.
    ///
    /// Off means no history at all: no view keeps a state, not even its
    /// initial one, so the warehouse holds each view once. Switching off
    /// drops what was recorded; switching on starts every view's history
    /// at its current `MV`. Views added and channels recovered while it
    /// is off record nothing.
    pub fn set_record_history(&mut self, on: bool) {
        self.settings.record_history = on;
        for shard in &mut self.shards {
            shard.set_record_history(on);
        }
    }

    /// Register a source channel.
    pub fn add_source(&mut self, name: impl Into<String>) -> SourceId {
        self.names.push(name.into());
        self.shards.push(Shard::new(self.settings.clone()));
        SourceId(self.shards.len() - 1)
    }

    /// Host a view maintained over `source`'s base relations.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`] for an unregistered handle.
    pub fn add_view(
        &mut self,
        source: SourceId,
        maintainer: Box<dyn ViewMaintainer>,
    ) -> Result<ViewId, WarehouseError> {
        let id = ViewId(self.view_index.len());
        let local = self.shard_mut(source)?.add_view(id, maintainer);
        self.view_index.push((source.0, local));
        Ok(id)
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of hosted views.
    pub fn view_count(&self) -> usize {
        self.view_index.len()
    }

    /// The name a source was registered under.
    pub fn source_name(&self, source: SourceId) -> &str {
        &self.names[source.0]
    }

    /// The session state of a source channel.
    pub fn session(&self, source: SourceId) -> &Session {
        &self.shards[source.0].session
    }

    /// The maintainer behind a view handle.
    pub fn maintainer(&self, view: ViewId) -> &dyn ViewMaintainer {
        self.view(view).maintainer.as_ref()
    }

    /// The current materialized state of a view.
    pub fn materialized(&self, view: ViewId) -> &SignedBag {
        self.view(view).maintainer.materialized()
    }

    /// Every `MV` state a view passed through since its history started,
    /// starting with the state it started at — the warehouse half of the
    /// §3.1 consistency check. A history starts when the view is added
    /// (at its initial state), when its channel is recovered from disk
    /// (at the recovered state) and when recording is switched on (at
    /// the current state). Empty while recording is off
    /// ([`Warehouse::set_record_history`]).
    pub fn view_states(&self, view: ViewId) -> &[SignedBag] {
        &self.view(view).states
    }

    /// Handles of the views maintained over `source`, in registration
    /// order. Served from the shard's own table — no scan, no
    /// allocation.
    #[cfg(test)]
    fn views_over(&self, source: SourceId) -> &[ViewId] {
        &self.shards[source.0].view_ids
    }

    /// The fault status of a view.
    pub fn view_status(&self, view: ViewId) -> ViewStatus {
        self.view(view).status
    }

    /// The current epoch of a source channel.
    pub fn epoch(&self, source: SourceId) -> u64 {
        self.shards[source.0].session.epoch()
    }

    /// Whether every view is quiescent (and healthy) and no query is
    /// outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(Shard::is_quiescent)
    }

    /// Whether one source's channel is settled: nothing pending on its
    /// session and every view over it healthy and quiescent.
    #[cfg(test)]
    fn source_quiescent(&self, source: SourceId) -> bool {
        self.shards[source.0].is_quiescent()
    }

    /// A `W_up` event: route an update notification from `source` to
    /// every view over it. Returned queries carry session-global ids.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`]; maintainer failures.
    pub fn on_update(
        &mut self,
        source: SourceId,
        update: &Update,
    ) -> Result<Vec<OutboundQuery>, WarehouseError> {
        self.shard_mut(source)?.on_update(update)
    }

    /// A `W_ans` event: deliver an answer from `source` to the view that
    /// issued the query. Demux is strictly by id — an unknown id yields
    /// [`CoreError::UnknownQuery`] without touching any maintainer.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`]; `UnknownQuery` for unrouted
    /// ids; maintainer failures.
    pub fn on_answer(
        &mut self,
        source: SourceId,
        id: QueryId,
        answer: SignedBag,
    ) -> Result<Vec<OutboundQuery>, WarehouseError> {
        self.shard_mut(source)?.on_answer(id, answer)
    }

    /// React to a reset of `source`'s channel: bump the session epoch
    /// (retiring every in-flight global id, so stale-epoch answers are
    /// rejected before touching any maintainer) and decide, per view, how
    /// to recover. `notifications_lost` distinguishes the two severities:
    ///
    /// * `false` — a connection reset with no data loss on our side
    ///   (e.g. the source resumes its outbox on a new connection).
    ///   Pending queries of compensation-safe views are re-issued under
    ///   fresh ids (the §4 compensation argument holds no matter how
    ///   late a query is evaluated, because it stays in `UQS` and every
    ///   intervening update compensates it). A view is instead
    ///   **degraded** to a full resync when a query was already
    ///   re-issued three times or its algorithm says re-issue is unsafe
    ///   ([`eca_core::ViewMaintainer::reissue_safe`]).
    /// * `true` — a source restart: update notifications may have been
    ///   lost, so incremental state is unsalvageable and **every** view
    ///   over the source degrades to a resync.
    ///
    /// Degraded views skip updates until their resync answer arrives;
    /// the answer installs `V(ss)` wholesale (RV semantics, Alg. D.1) —
    /// sound because per-channel FIFO puts it after every notification
    /// whose update the evaluation saw. Resync queries are always
    /// re-issued on later resets (never capped): resyncing is already
    /// the recovery of last resort.
    ///
    /// Returns the query messages to send on the (fresh) channel.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`] for an unregistered handle.
    pub fn on_reset(
        &mut self,
        source: SourceId,
        notifications_lost: bool,
    ) -> Result<Vec<Message>, WarehouseError> {
        self.shard_mut(source)?.on_reset(notifications_lost)
    }

    /// Process one decoded inbound message from `source`, returning the
    /// encoded-ready query messages to send back.
    ///
    /// # Errors
    /// [`WarehouseError::UnexpectedMessage`] for [`Message::QueryRequest`]
    /// (queries never travel source → warehouse); routing and maintainer
    /// failures as in [`Warehouse::on_update`]/[`Warehouse::on_answer`].
    pub fn on_message(
        &mut self,
        source: SourceId,
        msg: Message,
    ) -> Result<Vec<Message>, WarehouseError> {
        self.shard_mut(source)?.on_message(msg)
    }

    /// Drain and process every message currently available on `source`'s
    /// transport, sending emitted queries back. Answer payloads are
    /// charged to the transport's meter (the paper's `B`). Returns the
    /// number of messages processed.
    ///
    /// # Errors
    /// Transport, routing and maintainer failures.
    pub fn pump(
        &mut self,
        source: SourceId,
        transport: &mut dyn Transport,
    ) -> Result<usize, WarehouseError> {
        let mut processed = 0;
        while let Some(msg) = transport.try_recv()? {
            if let Message::QueryAnswer { answer, .. } = &msg {
                transport.meter().record_answer(answer);
            }
            for reply in self.on_message(source, msg)? {
                transport.send(&reply)?;
            }
            processed += 1;
        }
        Ok(processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::{BaseDb, ViewDef};
    use eca_relational::{Predicate, Schema, Tuple};
    use eca_wire::WireQuery;

    /// Two views sharing r2: V1 = π_W(r1 ⋈ r2), V2 = π_Y(r2 ⋈ r3).
    fn two_views() -> (ViewDef, ViewDef) {
        let v1 = ViewDef::new(
            "V1",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap();
        let v2 = ViewDef::new(
            "V2",
            vec![
                Schema::new("r2", &["X", "Y"]),
                Schema::new("r3", &["Y", "Z"]),
            ],
            Predicate::col_eq(1, 2),
            vec![1],
        )
        .unwrap();
        (v1, v2)
    }

    fn shared_db(v1: &ViewDef, v2: &ViewDef) -> BaseDb {
        let mut db = BaseDb::new();
        for v in [v1, v2] {
            for s in v.base() {
                db.register(s.relation());
            }
        }
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 7]));
        db.insert("r3", Tuple::ints([7, 9]));
        db
    }

    fn hub_over_one_source() -> (
        Warehouse,
        SourceId,
        ViewId,
        ViewId,
        ViewDef,
        ViewDef,
        BaseDb,
    ) {
        let (v1, v2) = two_views();
        let db = shared_db(&v1, &v2);
        let mut wh = Warehouse::new();
        let src = wh.add_source("src");
        let i1 = wh
            .add_view(
                src,
                AlgorithmKind::Eca
                    .instantiate(&v1, v1.eval(&db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        let i2 = wh
            .add_view(
                src,
                AlgorithmKind::Eca
                    .instantiate(&v2, v2.eval(&db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        (wh, src, i1, i2, v1, v2, db)
    }

    /// The MultiView fan-out scenario, now through the runtime: updates
    /// land adversarially (queries all answered on the final state).
    #[test]
    fn shared_relation_updates_fan_out() {
        let (mut wh, src, i1, i2, v1, v2, mut db) = hub_over_one_source();
        let updates = [
            Update::insert("r2", Tuple::ints([2, 8])), // involves both views
            Update::insert("r1", Tuple::ints([4, 2])), // only V1
            Update::insert("r3", Tuple::ints([8, 5])), // only V2
        ];
        let mut queries = Vec::new();
        for u in &updates {
            db.apply(u);
            queries.extend(wh.on_update(src, u).unwrap());
        }
        // r2 update fans out to both views; the others hit one each.
        assert_eq!(queries.len(), 4);

        for q in &queries {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert!(wh.is_quiescent());
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());
        assert_eq!(*wh.materialized(i2), v2.eval(&db).unwrap());
    }

    /// Self-maintenance through the session path: a locally-answered
    /// update produces no outbound query, registers nothing in the
    /// session's pending table, and still tracks the source exactly.
    #[test]
    fn eca_aux_session_path_emits_no_queries() {
        let view = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap();
        let mut db = BaseDb::for_view(&view);
        db.insert("r1", Tuple::ints([1, 2]));
        let mut wh = Warehouse::new();
        let src = wh.add_source("src");
        let id = wh
            .add_view(
                src,
                AlgorithmKind::EcaAux
                    .instantiate_with_base(&view, view.eval(&db).unwrap(), Some(db.clone()))
                    .unwrap(),
            )
            .unwrap();
        for u in [
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::delete("r1", Tuple::ints([1, 2])),
        ] {
            db.apply(&u);
            let queries = wh.on_update(src, &u).unwrap();
            assert!(queries.is_empty(), "{u:?} must be answered locally");
            assert_eq!(wh.session(src).pending(), 0);
            assert_eq!(*wh.materialized(id), view.eval(&db).unwrap());
        }
        assert!(wh.is_quiescent());
        let stats = wh.maintainer(id).selfmaint_stats().unwrap();
        assert_eq!(stats.local_updates, 3);
        assert_eq!(stats.remote_updates, 0);
    }

    #[test]
    fn global_ids_do_not_collide_across_views() {
        let (mut wh, src, ..) = hub_over_one_source();
        // Both maintainers locally use Q1 for their first query; the
        // session must hand out distinct global ids.
        let qs = wh
            .on_update(src, &Update::insert("r2", Tuple::ints([2, 3])))
            .unwrap();
        assert_eq!(qs.len(), 2);
        assert_ne!(qs[0].id, qs[1].id);
        assert_eq!(wh.session(src).pending(), 2);
        assert_eq!(wh.session(src).oldest_pending(), Some(qs[0].id));
    }

    /// Satellite regression: many views register queries round-robin on
    /// one session; answers come back out of registration order *across*
    /// views (each view's own answers stay FIFO, as the per-id routing
    /// contract requires). No answer may leak into another view.
    #[test]
    fn interleaved_registration_answers_out_of_order_across_views() {
        // Six distinct projections of r1(W,X) ⋈ r2(X,Y): a leaked answer
        // would corrupt a view with tuples of the wrong shape or value.
        let projections: [&[usize]; 6] = [&[0], &[1], &[2], &[3], &[0, 3], &[1, 2]];
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 7]));

        let mut wh = Warehouse::new();
        let src = wh.add_source("src");
        let mut views = Vec::new();
        let mut ids = Vec::new();
        for (v, proj) in projections.iter().enumerate() {
            let view = ViewDef::new(
                format!("V{v}"),
                vec![
                    Schema::new("r1", &["W", "X"]),
                    Schema::new("r2", &["X", "Y"]),
                ],
                Predicate::col_eq(1, 2),
                proj.to_vec(),
            )
            .unwrap();
            let initial = view.eval(&db).unwrap();
            ids.push(
                wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
                    .unwrap(),
            );
            views.push(view);
        }

        // Two updates, each fanning out to all six views: registration
        // is round-robin (v0..v5 for u1, then v0..v5 for u2).
        let u1 = Update::insert("r1", Tuple::ints([4, 2]));
        let u2 = Update::insert("r2", Tuple::ints([2, 9]));
        db.apply(&u1);
        let round1 = wh.on_update(src, &u1).unwrap();
        db.apply(&u2);
        let round2 = wh.on_update(src, &u2).unwrap();
        assert_eq!(round1.len(), 6);
        assert_eq!(round2.len(), 6);

        // Deliver answers scrambled across views — v3 finishes both its
        // queries before v0 sees its first — while each view's own two
        // answers stay in emission order (round1 before round2).
        let order: [(usize, usize); 12] = [
            (3, 0),
            (3, 1),
            (1, 0),
            (5, 0),
            (0, 0),
            (5, 1),
            (2, 0),
            (1, 1),
            (4, 0),
            (0, 1),
            (2, 1),
            (4, 1),
        ];
        let rounds = [&round1, &round2];
        for (view, round) in order {
            let q = &rounds[round][view];
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }

        assert!(wh.is_quiescent());
        for (v, id) in ids.iter().enumerate() {
            assert_eq!(
                *wh.materialized(*id),
                views[v].eval(&db).unwrap(),
                "view V{v} corrupted by cross-view answer delivery"
            );
            // initial + (W_up + W_ans) × 2 updates.
            assert_eq!(wh.view_states(*id).len(), 5);
        }
    }

    #[test]
    fn unknown_answer_id_is_rejected_without_corrupting_uqs() {
        let (mut wh, src, i1, _, v1, _, mut db) = hub_over_one_source();
        let u = Update::insert("r2", Tuple::ints([2, 8]));
        db.apply(&u);
        let queries = wh.on_update(src, &u).unwrap();
        let pending_before = wh.session(src).pending();

        // A stray answer under an id that was never issued.
        let stray = QueryId(0xDEAD);
        assert!(matches!(
            wh.on_answer(src, stray, SignedBag::from_tuples([Tuple::ints([9])])),
            Err(WarehouseError::Core(CoreError::UnknownQuery { .. }))
        ));
        // Nothing was consumed or applied: the real answers still land
        // and the view still converges.
        assert_eq!(wh.session(src).pending(), pending_before);
        for q in &queries {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert!(wh.is_quiescent());
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());
    }

    #[test]
    fn views_route_only_to_their_source() {
        let (v1, v2) = two_views();
        let db = shared_db(&v1, &v2);
        let mut wh = Warehouse::new();
        let sa = wh.add_source("a");
        let sb = wh.add_source("b");
        let ia = wh
            .add_view(
                sa,
                AlgorithmKind::Eca
                    .instantiate(&v1, v1.eval(&db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        let ib = wh
            .add_view(
                sb,
                AlgorithmKind::Eca
                    .instantiate(&v2, v2.eval(&db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(wh.views_over(sa), vec![ia]);
        assert_eq!(wh.views_over(sb), vec![ib]);

        // An r2 update arriving on channel `a` must not reach V2, even
        // though V2 also mentions r2 (it mirrors a *different* site).
        let qs = wh
            .on_update(sa, &Update::insert("r2", Tuple::ints([2, 3])))
            .unwrap();
        assert_eq!(qs.len(), 1);
        assert_eq!(wh.session(sb).pending(), 0);
    }

    #[test]
    fn unknown_source_rejected() {
        let mut wh = Warehouse::new();
        assert!(matches!(
            wh.on_update(SourceId(3), &Update::insert("r", Tuple::ints([1]))),
            Err(WarehouseError::UnknownSource { id: 3 })
        ));
        let (v1, _) = two_views();
        let db = shared_db(&v1, &two_views().1);
        assert!(matches!(
            wh.add_view(
                SourceId(0),
                AlgorithmKind::Eca
                    .instantiate(&v1, v1.eval(&db).unwrap())
                    .unwrap()
            ),
            Err(WarehouseError::UnknownSource { .. })
        ));
    }

    #[test]
    fn query_request_from_source_is_a_protocol_error() {
        let (mut wh, src, ..) = hub_over_one_source();
        let (v1, _) = two_views();
        let msg = Message::QueryRequest {
            id: QueryId(1),
            query: WireQuery::from_query(&v1.as_query()),
        };
        assert!(matches!(
            wh.on_message(src, msg),
            Err(WarehouseError::UnexpectedMessage { .. })
        ));
    }

    /// A lossless reset mid-flight: the epoch bumps, stale answers are
    /// rejected, pending ECA queries are re-issued under fresh ids, and
    /// the view still converges.
    #[test]
    fn reset_reissues_pending_queries_and_rejects_stale_answers() {
        let (mut wh, src, i1, _, v1, _, mut db) = hub_over_one_source();
        let u = Update::insert("r2", Tuple::ints([2, 8]));
        db.apply(&u);
        let queries = wh.on_update(src, &u).unwrap();
        assert_eq!(wh.epoch(src), 0);

        let reissued = wh.on_reset(src, false).unwrap();
        assert_eq!(wh.epoch(src), 1);
        assert_eq!(reissued.len(), queries.len());
        assert_eq!(wh.recovery_stats().reissued, queries.len() as u64);
        assert_eq!(wh.recovery_stats().resyncs_started, 0);

        // An answer addressed to a dead-epoch id never touches UQS.
        assert!(matches!(
            wh.on_answer(src, queries[0].id, SignedBag::new()),
            Err(WarehouseError::Core(CoreError::UnknownQuery { .. }))
        ));

        // Answer the re-issued queries (same bodies, new ids).
        let catalog: Vec<_> = [("r1", ["W", "X"]), ("r2", ["X", "Y"]), ("r3", ["Y", "Z"])]
            .iter()
            .map(|(r, c)| Schema::new(*r, c))
            .collect();
        for msg in reissued {
            let Message::QueryRequest { id, query } = msg else {
                panic!("reset must re-emit QueryRequests");
            };
            let answer = query.to_query(&catalog).unwrap().eval(&db).unwrap();
            wh.on_answer(src, id, answer).unwrap();
        }
        assert!(wh.is_quiescent());
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());
    }

    /// Exhausted retries degrade the view to a full resync: updates are
    /// skipped while degraded, the resync answer is installed wholesale,
    /// and maintenance resumes.
    #[test]
    fn retry_exhaustion_degrades_then_resync_restores() {
        let (mut wh, src, i1, i2, v1, _, mut db) = hub_over_one_source();
        let u = Update::insert("r2", Tuple::ints([2, 8]));
        db.apply(&u);
        let queries = wh.on_update(src, &u).unwrap();
        assert_eq!(queries.len(), 2);

        // Each reset re-issues the pending queries until the next one
        // would exceed the cap.
        for _ in 0..shard::MAX_RETRIES {
            wh.on_reset(src, false).unwrap();
        }
        let out = wh.on_reset(src, false).unwrap();
        // Both views degrade; each gets exactly one resync query.
        assert_eq!(out.len(), 2);
        assert_eq!(wh.view_status(i1), ViewStatus::Degraded);
        assert_eq!(wh.view_status(i2), ViewStatus::Degraded);
        assert_eq!(wh.recovery_stats().resyncs_started, 2);
        assert!(!wh.is_quiescent());

        // Updates arriving while degraded are skipped (their effects are
        // inside the coming V(ss)).
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u2);
        assert!(wh.on_update(src, &u2).unwrap().is_empty());

        let catalog: Vec<_> = [("r1", ["W", "X"]), ("r2", ["X", "Y"]), ("r3", ["Y", "Z"])]
            .iter()
            .map(|(r, c)| Schema::new(*r, c))
            .collect();
        for msg in out {
            let Message::QueryRequest { id, query } = msg else {
                panic!("resyncs travel as QueryRequests");
            };
            let answer = query.to_query(&catalog).unwrap().eval(&db).unwrap();
            assert!(wh.on_answer(src, id, answer).unwrap().is_empty());
        }
        assert_eq!(wh.view_status(i1), ViewStatus::Active);
        assert_eq!(wh.recovery_stats().resyncs_completed, 2);
        assert!(wh.is_quiescent());
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());

        // Incremental maintenance resumes normally after the resync.
        let u3 = Update::insert("r2", Tuple::ints([2, 9]));
        db.apply(&u3);
        let qs = wh.on_update(src, &u3).unwrap();
        assert_eq!(qs.len(), 2);
        for q in &qs {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());
    }

    /// The ack goes out only when the acknowledgeable watermark advanced
    /// on this connection, and once more after every reset, whatever its
    /// value.
    #[test]
    fn ack_is_sent_when_the_watermark_advances_and_after_a_reset() {
        let (mut wh, src, ..) = hub_over_one_source();
        assert_eq!(wh.ack(src).unwrap(), None, "watermark 0 needs no ack");
        let qs = wh
            .on_update(src, &Update::insert("r1", Tuple::ints([5, 9])))
            .unwrap();
        assert_eq!(
            wh.ack(src).unwrap(),
            Some(Message::Ack { epoch: 0, next: 1 })
        );
        assert_eq!(wh.ack(src).unwrap(), None, "not advanced");
        for q in qs {
            wh.on_answer(src, q.id, SignedBag::new()).unwrap();
        }
        assert_eq!(wh.ack(src).unwrap(), None, "answers move no watermark");
        wh.on_reset(src, false).unwrap();
        assert_eq!(
            wh.ack(src).unwrap(),
            Some(Message::Ack { epoch: 1, next: 1 })
        );
        assert_eq!(wh.ack(src).unwrap(), None);
    }

    /// A source restart (possible lost notifications) degrades every view
    /// over that source even with zero queries in flight.
    #[test]
    fn lost_notifications_degrade_all_views() {
        let (mut wh, src, i1, i2, ..) = hub_over_one_source();
        assert!(wh.is_quiescent());
        let out = wh.on_reset(src, true).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(wh.view_status(i1), ViewStatus::Degraded);
        assert_eq!(wh.view_status(i2), ViewStatus::Degraded);
        assert_eq!(wh.recovery_stats().reissued, 0);
    }

    /// Basic's queries must not be re-evaluated at later source states
    /// (`reissue_safe() == false`): any reset degrades it straight to a
    /// resync instead of re-issuing.
    #[test]
    fn unsafe_reissue_goes_straight_to_resync() {
        let (v1, _) = two_views();
        let db = {
            let mut db = BaseDb::new();
            db.register("r1");
            db.register("r2");
            db.insert("r1", Tuple::ints([1, 2]));
            db
        };
        let mut wh = Warehouse::new();
        let src = wh.add_source("src");
        let id = wh
            .add_view(
                src,
                AlgorithmKind::Basic
                    .instantiate(&v1, v1.eval(&db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        let mut db = db;
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        db.apply(&u);
        let qs = wh.on_update(src, &u).unwrap();
        assert_eq!(qs.len(), 1);

        let out = wh.on_reset(src, false).unwrap();
        assert_eq!(wh.view_status(id), ViewStatus::Degraded);
        assert_eq!(wh.recovery_stats().reissued, 0, "Basic never re-issues");
        assert_eq!(out.len(), 1, "one resync query only");
    }

    /// A second reset while a resync is in flight re-issues the resync
    /// (uncapped) rather than stacking another one.
    #[test]
    fn resync_survives_repeated_resets() {
        let (mut wh, src, i1, ..) = hub_over_one_source();
        wh.on_reset(src, true).unwrap();
        let again = wh.on_reset(src, true).unwrap();
        assert_eq!(again.len(), 2, "one re-issued resync per view");
        assert_eq!(wh.recovery_stats().resyncs_started, 2, "not restarted");
        assert_eq!(wh.recovery_stats().reissued, 2, "resyncs re-issued");
        assert_eq!(wh.view_status(i1), ViewStatus::Degraded);
        assert_eq!(wh.epoch(src), 2);
    }

    /// A view registered after `enable_serving` is maintained but not
    /// served: its events publish nothing, consume no epoch, and reads
    /// of it keep answering "unknown view".
    #[test]
    fn view_added_after_enable_serving_is_maintained_but_not_served() {
        let (mut wh, src, i1, _, v1, v2, mut db) = hub_over_one_source();
        let registry = wh.enable_serving(4);
        let late = wh
            .add_view(
                src,
                AlgorithmKind::Eca
                    .instantiate(&v2, v2.eval(&db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(registry.view_count(), 2);

        // Touches only the two V2 views (the served one and the late one).
        let u = Update::insert("r3", Tuple::ints([7, 5]));
        db.apply(&u);
        let queries = wh.on_update(src, &u).unwrap();
        assert_eq!(queries.len(), 2);
        for q in &queries {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        assert!(wh.is_quiescent());
        assert_eq!(*wh.materialized(late), v2.eval(&db).unwrap());
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());
        // One W_up per served view plus one W_ans for the served V2; the
        // late view's two events consumed nothing.
        assert_eq!(registry.latest(), 3);
        assert!(registry
            .read(late.0, eca_wire::ReadLevel::Strong, 0)
            .is_none());
    }

    /// The pump charges each answer's payload to the transport meter
    /// exactly once (the paper's `B`): the scripted source on the far
    /// end of the shared-meter link records nothing itself.
    #[test]
    fn pump_meters_each_answer_once() {
        use eca_wire::{SharedFifo, TransferMeter};
        let (mut wh, src, i1, i2, v1, v2, mut db) = hub_over_one_source();
        let meter = TransferMeter::new();
        let (mut src_end, mut wh_end) = SharedFifo::pair(meter.clone());
        let u = Update::insert("r2", Tuple::ints([2, 8])); // both views
        db.apply(&u);
        src_end
            .send(&Message::UpdateNotification { update: u })
            .unwrap();
        let mut processed = wh.pump(src, &mut wh_end).unwrap();

        let catalog: Vec<_> = [("r1", ["W", "X"]), ("r2", ["X", "Y"]), ("r3", ["Y", "Z"])]
            .iter()
            .map(|(r, c)| Schema::new(*r, c))
            .collect();
        let (mut payload_bytes, mut payload_tuples) = (0u64, 0u64);
        while let Some(msg) = src_end.try_recv().unwrap() {
            let Message::QueryRequest { id, query } = msg else {
                panic!("unexpected message at source");
            };
            let answer = query.to_query(&catalog).unwrap().eval(&db).unwrap();
            payload_bytes += answer.encoded_len() as u64;
            payload_tuples += answer.pos_len() + answer.neg_len();
            src_end.send(&Message::QueryAnswer { id, answer }).unwrap();
        }
        processed += wh.pump(src, &mut wh_end).unwrap();

        assert_eq!(processed, 3, "one notification + one answer per view");
        assert!(wh.source_quiescent(src));
        assert_eq!(*wh.materialized(i1), v1.eval(&db).unwrap());
        assert_eq!(*wh.materialized(i2), v2.eval(&db).unwrap());
        assert!(payload_bytes > 0);
        assert_eq!(meter.answer_bytes(), payload_bytes);
        assert_eq!(meter.answer_tuples(), payload_tuples);
    }

    #[test]
    fn state_histories_record_every_event() {
        let (mut wh, src, i1, i2, v1, v2, mut db) = hub_over_one_source();
        let u = Update::insert("r2", Tuple::ints([2, 8]));
        db.apply(&u);
        let queries = wh.on_update(src, &u).unwrap();
        for q in &queries {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        // initial + W_up + W_ans per view.
        assert_eq!(wh.view_states(i1).len(), 3);
        assert_eq!(wh.view_states(i2).len(), 3);
        assert_eq!(wh.view_states(i1).last().unwrap(), &v1.eval(&db).unwrap());
        assert_eq!(wh.view_states(i2).last().unwrap(), &v2.eval(&db).unwrap());
    }
}

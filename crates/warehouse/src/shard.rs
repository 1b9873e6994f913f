//! The warehouse state machine: one source channel's event loop.
//!
//! The paper's warehouse (§1 Figure 1.1, §5 Alg. 5.2) is one event loop
//! per source channel — `W_up` fans an update notification out to the
//! views over that source, `W_ans` demultiplexes an answer by query id —
//! and §7 observes that with single-source views "ECA is simply applied
//! to each view separately". A [`Shard`] is that loop: one source's
//! [`Session`], its views, its optional write-ahead log, its
//! notification watermark and recovery counters. It is the only place
//! maintenance events are applied; [`crate::Warehouse`] is a vector of
//! shards, and the reactor driver puts the same shards behind locks and
//! calls the same [`Shard::on_message`].

use std::collections::BTreeSet;
use std::sync::Arc;

use eca_core::maintainer::OutboundQuery;
use eca_core::{QueryId, ViewMaintainer};
use eca_durable::WalRecord;
use eca_relational::{SignedBag, Update};
use eca_wire::{Message, WireQuery};

use crate::durability::SourceDurability;
use crate::publish::EpochRegistry;
use crate::session::{RouteKind, Session};
use crate::{RecoveryStats, SourceId, ViewId, ViewStatus, WarehouseError};

/// How many times an in-flight query may be re-issued across channel
/// resets before its view degrades to a full resync.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Warehouse-wide settings every shard carries a copy of, so a shard
/// behind a lock needs nothing but itself to process an event.
#[derive(Clone)]
pub(crate) struct Settings {
    pub(crate) record_history: bool,
    /// Epoch publication for the read-serving layer; `None` keeps
    /// maintenance-only deployments free of per-event snapshot clones.
    pub(crate) publisher: Option<Arc<EpochRegistry>>,
}

/// One view hosted inside a shard.
pub(crate) struct ShardView {
    pub(crate) maintainer: Box<dyn ViewMaintainer>,
    pub(crate) status: ViewStatus,
    /// While history is recorded: `MV` when recording started and after
    /// each event that reached this view since, including every
    /// intermediate state a maintainer reports via
    /// [`ViewMaintainer::drain_intermediate_states`] — the history the
    /// §3.1 consistency checker needs. Empty while it is not, so no
    /// old state pins chunks the live bag has since rewritten.
    pub(crate) states: Vec<SignedBag>,
}

impl ShardView {
    fn settled(&self) -> bool {
        self.status == ViewStatus::Active && self.maintainer.is_quiescent()
    }

    /// Start the history over at the current `MV`, or drop it when
    /// history is off.
    fn restart_history(&mut self, record: bool) {
        self.states = if record {
            vec![self.maintainer.materialized().clone()]
        } else {
            Vec::new()
        };
    }
}

/// All warehouse state of one source channel. Session routes name views
/// by their index in [`Shard::views`].
pub(crate) struct Shard {
    pub(crate) session: Session,
    pub(crate) views: Vec<ShardView>,
    /// Global handle of each entry of `views`, in the same (registration)
    /// order: the view's slot in the serving registry, which knows
    /// nothing of shards.
    pub(crate) view_ids: Vec<ViewId>,
    pub(crate) settings: Settings,
    pub(crate) recovery: RecoveryStats,
    /// Write-ahead log + checkpoints for this channel. `None` keeps
    /// volatile deployments free of any disk traffic — and is how
    /// recovery replays a log without logging it again.
    pub(crate) durability: Option<SourceDurability>,
    /// Update notifications applied on this channel over its whole life,
    /// including those a degraded view skipped. This is the watermark a
    /// source's outbox resumes from after a reset or a crash; a source
    /// that cannot serve it renumbers from it.
    pub(crate) notifications_seen: u64,
    /// The watermark last acked on this connection (`None`: re-armed).
    acked: Option<u64>,
}

impl Shard {
    pub(crate) fn new(settings: Settings) -> Shard {
        Shard {
            session: Session::new(),
            views: Vec::new(),
            view_ids: Vec::new(),
            settings,
            recovery: RecoveryStats::default(),
            durability: None,
            notifications_seen: 0,
            acked: Some(0),
        }
    }

    /// Host a view; returns its shard-local index.
    pub(crate) fn add_view(&mut self, id: ViewId, maintainer: Box<dyn ViewMaintainer>) -> usize {
        let mut view = ShardView {
            maintainer,
            status: ViewStatus::Active,
            states: Vec::new(),
        };
        view.restart_history(self.settings.record_history);
        self.views.push(view);
        self.view_ids.push(id);
        self.views.len() - 1
    }

    /// See [`crate::Warehouse::set_record_history`]: switching on starts
    /// every view's history at its current `MV`, switching off drops it.
    pub(crate) fn set_record_history(&mut self, on: bool) {
        if self.settings.record_history == on {
            return;
        }
        self.settings.record_history = on;
        self.restart_history();
    }

    /// Start every view's history over at its current `MV` (nothing
    /// while history is off).
    pub(crate) fn restart_history(&mut self) {
        let record = self.settings.record_history;
        for view in &mut self.views {
            view.restart_history(record);
        }
    }

    /// Nothing pending on the session and every view healthy and
    /// quiescent.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.session.pending() == 0 && self.views.iter().all(ShardView::settled)
    }

    /// Record the state(s) view `idx` reached during the event just
    /// processed, and publish the new materialized state to the serving
    /// registry if one is attached.
    fn record_states(&mut self, idx: usize) {
        let entry = &mut self.views[idx];
        // Drained even when unrecorded so maintainers don't accumulate.
        let intermediates = entry.maintainer.drain_intermediate_states();
        if self.settings.record_history {
            if intermediates.is_empty() {
                entry.states.push(entry.maintainer.materialized().clone());
            } else {
                entry.states.extend(intermediates);
            }
        }
        if let Some(registry) = &self.settings.publisher {
            // Quiescent ⇒ no compensation in flight for this view ⇒ the
            // state is V at a real source state (§3.1 history member) —
            // eligible to serve strong reads.
            registry.publish(
                self.view_ids[idx].0,
                entry.maintainer.materialized(),
                entry.settled(),
            );
        }
    }

    /// Remap maintainer-local outbound queries into the session's global
    /// id space, appending them to `out`. The session keeps each query
    /// for re-issue, sharing its body with the maintainer and the wire
    /// form.
    fn register_outbound(
        &mut self,
        view: usize,
        emitted: Vec<OutboundQuery>,
        out: &mut Vec<OutboundQuery>,
    ) {
        out.extend(emitted.into_iter().map(|q| OutboundQuery {
            id: self.session.register(view, q.id, q.query.clone()),
            query: q.query,
        }));
    }

    /// A `W_up` event: route an update notification to every view of the
    /// shard, in registration order. Returned queries carry
    /// session-global ids.
    pub(crate) fn on_update(
        &mut self,
        update: &Update,
    ) -> Result<Vec<OutboundQuery>, WarehouseError> {
        let mut out = Vec::new();
        for idx in 0..self.views.len() {
            if self.views[idx].status == ViewStatus::Degraded {
                // Skip: a notification arriving before the resync answer
                // was *sent* before that answer (per-channel FIFO), so
                // its update executed before the resync query was
                // evaluated and is already inside the coming V(ss).
                continue;
            }
            let emitted = self.views[idx].maintainer.on_update(update)?;
            self.record_states(idx);
            self.register_outbound(idx, emitted, &mut out);
        }
        self.notifications_seen += 1;
        self.log_event(|| WalRecord::Update(update.clone()))?;
        Ok(out)
    }

    /// A `W_ans` event: deliver an answer to the view that issued the
    /// query. Demux is strictly by id — an unknown id is rejected
    /// without touching any maintainer.
    pub(crate) fn on_answer(
        &mut self,
        id: QueryId,
        answer: SignedBag,
    ) -> Result<Vec<OutboundQuery>, WarehouseError> {
        // Copied up front only when the answer will be logged: the
        // maintainer consumes the bag on the apply path below.
        let keep = self.durability.is_some().then(|| answer.clone());
        let route = self.session.take(id)?;
        let entry = &mut self.views[route.view];
        let emitted = if route.kind == RouteKind::Resync {
            // The answer is a fresh V(ss): install it wholesale and
            // resume incremental maintenance (Alg. D.1's MV ← A).
            entry.maintainer.reset_to(answer)?;
            entry.status = ViewStatus::Active;
            self.recovery.resyncs_completed += 1;
            Vec::new()
        } else {
            entry.maintainer.on_answer(route.local, answer)?
        };
        self.record_states(route.view);
        let mut out = Vec::new();
        self.register_outbound(route.view, emitted, &mut out);
        if let Some(answer) = keep {
            self.log_event(move || WalRecord::Answer { id: id.0, answer })?;
        }
        Ok(out)
    }

    /// React to a reset of this channel — see
    /// [`crate::Warehouse::on_reset`] for the recovery policy. Returns
    /// the query messages to send on the fresh channel.
    pub(crate) fn on_reset(
        &mut self,
        notifications_lost: bool,
    ) -> Result<Vec<Message>, WarehouseError> {
        let drained = self.session.bump_epoch();
        self.acked = None;

        // Pass 1: which views must fall back to a full resync?
        let mut degrade: BTreeSet<usize> = BTreeSet::new();
        if notifications_lost {
            degrade.extend(0..self.views.len());
        }
        for pq in &drained {
            if pq.route.kind == RouteKind::Update
                && (!self.views[pq.route.view].maintainer.reissue_safe()
                    || pq.retries + 1 > MAX_RETRIES)
            {
                degrade.insert(pq.route.view);
            }
        }

        // Pass 2: re-issue survivors (and in-flight resyncs) in the old
        // emission order; drop maintenance queries of degraded views.
        let mut out = Vec::new();
        let mut resyncing: BTreeSet<usize> = BTreeSet::new();
        for pq in drained {
            let (kind, view) = (pq.route.kind, pq.route.view);
            if kind == RouteKind::Update && degrade.contains(&view) {
                continue;
            }
            if kind == RouteKind::Resync {
                resyncing.insert(view);
            }
            let (id, query) = self.session.reissue(pq);
            self.recovery.reissued += 1;
            out.push(Message::QueryRequest { id, query });
        }

        // Pass 3: newly degraded views get marked and sent one resync.
        for idx in degrade {
            self.views[idx].status = ViewStatus::Degraded;
            if resyncing.contains(&idx) {
                continue; // its resync from a prior reset was re-issued
            }
            let query = self.views[idx].maintainer.view().as_query();
            let wire = WireQuery::from_query(&query);
            let id = self.session.register_resync(idx, query);
            self.recovery.resyncs_started += 1;
            out.push(Message::QueryRequest { id, query: wire });
        }
        self.log_event(|| WalRecord::EpochBump { notifications_lost })?;
        Ok(out)
    }

    /// Process one decoded inbound message from the source, returning
    /// the query messages to send back. The one place that says which
    /// [`Message`] kinds may arrive on a maintenance channel.
    pub(crate) fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, WarehouseError> {
        let outbound = match msg {
            Message::UpdateNotification { update } => self.on_update(&update)?,
            Message::QueryAnswer { id, answer } => self.on_answer(id, answer)?,
            Message::QueryRequest { .. } => {
                return Err(WarehouseError::UnexpectedMessage {
                    kind: "QueryRequest",
                })
            }
            // Acks travel only toward a source, and a `Hello` is consumed
            // by the TCP handshake; one surfacing here means the channel
            // is mis-stacked.
            Message::Ack { .. } | Message::Hello { .. } => {
                return Err(WarehouseError::UnexpectedMessage {
                    kind: "session-layer",
                })
            }
            // Read-serving traffic belongs on `eca-serve` channels,
            // never on a maintenance channel.
            Message::ReadQuery { .. } | Message::ReadAnswer { .. } | Message::ReadError { .. } => {
                return Err(WarehouseError::UnexpectedMessage { kind: "read-layer" })
            }
        };
        Ok(outbound
            .into_iter()
            .map(|q| Message::QueryRequest {
                id: q.id,
                query: WireQuery::from_query(&q.query),
            })
            .collect())
    }

    /// See [`crate::Warehouse::ack`].
    pub(crate) fn ack(&mut self) -> Result<Option<Message>, WarehouseError> {
        if let Some(d) = &mut self.durability {
            d.wait_requested()?;
        }
        let next = self.ack_watermark();
        if self.acked.is_some_and(|acked| next <= acked) {
            return Ok(None);
        }
        self.acked = Some(next);
        Ok(Some(Message::Ack {
            epoch: self.session.epoch(),
            next,
        }))
    }
}

/// Raise [`WarehouseError::UnknownSource`] unless `source` indexes one of
/// `registered` shards — the one bounds check behind every driver.
pub(crate) fn checked(source: SourceId, registered: usize) -> Result<usize, WarehouseError> {
    if source.0 < registered {
        Ok(source.0)
    } else {
        Err(WarehouseError::UnknownSource { id: source.0 })
    }
}

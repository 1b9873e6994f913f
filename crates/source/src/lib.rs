//! The source site (paper §1, Figure 1.1).
//!
//! A source is an autonomous system that knows **nothing about views**. It
//! does exactly two things:
//!
//! * execute local updates and notify the warehouse (`S_up` events), and
//! * evaluate queries it receives against its *current* base relations and
//!   return the answer (`S_qu` events).
//!
//! Both halves of each event are atomic (the paper's local concurrency
//! assumption); the simulator serializes events, so no locking is needed
//! here. Query evaluation runs on the metered [`StorageEngine`], so every
//! run produces honest block-read counts under either Appendix-D cost
//! scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eca_core::basedb::BaseDb;
use eca_core::{QueryHeader, QueryId, ViewDef};
use eca_relational::{Schema, SignedBag, Update};
use eca_storage::{IoMeter, PreparedView, Scenario, StorageEngine, StorageError};
use eca_wire::{Message, PollWaker, Readiness, Transport, TransportError, WireQuery};

/// Errors raised by the source.
#[derive(Debug)]
pub enum SourceError {
    /// A query referenced a relation absent from the catalog.
    UnknownRelation(String),
    /// The storage layer failed.
    Storage(StorageError),
    /// The wire query could not be rebuilt into an evaluatable form.
    BadQuery(eca_core::CoreError),
    /// The transport to the warehouse failed.
    Transport(TransportError),
    /// The warehouse sent a message kind that never travels toward a
    /// source (anything but a query).
    Protocol(&'static str),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            SourceError::Storage(e) => write!(f, "storage error: {e}"),
            SourceError::BadQuery(e) => write!(f, "bad query: {e}"),
            SourceError::Transport(e) => write!(f, "transport error: {e}"),
            SourceError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<StorageError> for SourceError {
    fn from(e: StorageError) -> Self {
        SourceError::Storage(e)
    }
}

impl From<TransportError> for SourceError {
    fn from(e: TransportError) -> Self {
        SourceError::Transport(e)
    }
}

/// What happened during one [`Source::serve`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Updates executed from the script.
    pub updates: u64,
    /// Update notifications sent (effective updates only).
    pub notifications: u64,
    /// Queries answered before the warehouse hung up.
    pub answers: u64,
    /// Duplicate queries served from the replay cache instead of being
    /// re-evaluated (a faulty channel may deliver a query twice; the
    /// answer must be the one the first evaluation produced, not a fresh
    /// evaluation on a later state).
    pub duplicates: u64,
    /// Inbound messages dropped because they failed to decode (corrupt
    /// frames must not kill the serving loop).
    pub decode_skips: u64,
}

/// How many recently answered queries are kept for duplicate replay.
const REPLAY_CACHE_CAP: usize = 64;

/// Bounded FIFO cache of the most recent `(id, answer)` pairs, so a
/// duplicate query (same id delivered twice by a faulty channel) is
/// answered **idempotently** — with the bytes of the original
/// evaluation — instead of being re-evaluated on a later source state
/// (which would reintroduce exactly the §4 anomalies the algorithms
/// compensate for).
struct ReplayCache {
    entries: VecDeque<(QueryId, SignedBag)>,
}

impl ReplayCache {
    fn new() -> Self {
        ReplayCache {
            entries: VecDeque::new(),
        }
    }

    fn get(&self, id: QueryId) -> Option<&SignedBag> {
        self.entries
            .iter()
            .find(|(cached, _)| *cached == id)
            .map(|(_, a)| a)
    }

    fn put(&mut self, id: QueryId, answer: SignedBag) {
        if self.entries.len() == REPLAY_CACHE_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back((id, answer));
    }
}

/// How many distinct query headers a source keeps resolved.
const PREPARED_CAP: usize = 16;

/// The query headers a source has resolved against its catalog, newest
/// last, at most [`PREPARED_CAP`] of them. The source still knows no
/// views (Fig. 1.1): it learns a header only from a query that carries
/// it, and forgets the oldest when a new one does not fit. A kept entry
/// never goes stale: the catalog only grows, and a name resolves to its
/// first schema.
#[derive(Default)]
struct Prepared {
    entries: VecDeque<(Arc<QueryHeader>, PreparedView)>,
}

impl Prepared {
    /// Where `header` is kept: the very same allocation first (every
    /// query of one warehouse view over an in-process channel), then an
    /// equal header (a query decoded from bytes).
    fn position(&self, header: &Arc<QueryHeader>) -> Option<usize> {
        let entries = &self.entries;
        entries
            .iter()
            .position(|(h, _)| Arc::ptr_eq(h, header))
            .or_else(|| entries.iter().position(|(h, _)| **h == **header))
    }

    /// The resolved view of `query`'s header, once every term is checked
    /// to fit it. A header is kept only once it resolved and a query's
    /// terms fit it.
    fn prepare(
        &mut self,
        query: &WireQuery,
        catalog: &[Schema],
    ) -> Result<&PreparedView, SourceError> {
        let fits = |view: &ViewDef| {
            query
                .terms
                .iter()
                .try_for_each(|t| view.check_term(t))
                .map_err(SourceError::BadQuery)
        };
        if let Some(at) = self.position(&query.header) {
            fits(self.entries[at].1.view())?;
            return Ok(&self.entries[at].1);
        }
        let view = ViewDef::resolve("wire", Arc::clone(&query.header), catalog)
            .map_err(SourceError::BadQuery)?;
        fits(&view)?;
        if self.entries.len() == PREPARED_CAP {
            self.entries.pop_front();
        }
        self.entries
            .push_back((Arc::clone(&query.header), PreparedView::new(view)));
        Ok(&self.entries[self.entries.len() - 1].1)
    }
}

/// The source site: a schema catalog over a metered storage engine.
pub struct Source {
    engine: StorageEngine,
    catalog: Vec<Schema>,
    prepared: Prepared,
}

impl Source {
    /// An empty source under the given cost scenario.
    pub fn new(scenario: Scenario) -> Self {
        Source {
            engine: StorageEngine::new(scenario),
            catalog: Vec::new(),
            prepared: Prepared::default(),
        }
    }

    /// Register a base relation with its physical layout.
    ///
    /// # Errors
    /// Propagates storage validation errors.
    pub fn add_relation(
        &mut self,
        schema: Schema,
        tuples_per_block: usize,
        clustered_on: Option<&str>,
        unclustered_on: &[&str],
    ) -> Result<(), SourceError> {
        self.engine.create_table(
            schema.clone(),
            tuples_per_block,
            clustered_on,
            unclustered_on,
        )?;
        self.catalog.push(schema);
        Ok(())
    }

    /// Bulk-load tuples without counting toward query I/O. The base state
    /// is the one inserting them one at a time would leave.
    ///
    /// # Errors
    /// [`SourceError::UnknownRelation`] for unregistered relations.
    pub fn load(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = eca_relational::Tuple>,
    ) -> Result<(), SourceError> {
        if !self.catalog.iter().any(|s| s.relation() == relation) {
            return Err(SourceError::UnknownRelation(relation.to_owned()));
        }
        self.engine.load(relation, tuples)?;
        self.engine.meter().reset();
        Ok(())
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &[Schema] {
        &self.catalog
    }

    /// The I/O meter (block reads charged to query evaluation).
    pub fn io_meter(&self) -> &IoMeter {
        self.engine.meter()
    }

    /// Enable an LRU block cache at this source (the paper's caching
    /// ablation, §6.3). Returns a handle for hit/miss statistics.
    pub fn enable_cache(&mut self, capacity: usize) -> eca_storage::BlockCache {
        self.engine.enable_cache(capacity)
    }

    /// Enable multi-term batching: the terms of one incoming query share
    /// scans and index-probe results, so a k-term compensating query reads
    /// each base relation roughly once instead of k times. Off by default
    /// to preserve the paper's pessimistic per-term cost accounting.
    pub fn enable_term_batching(&mut self) {
        self.engine.enable_term_batching();
    }

    /// Execute an update locally (the first half of an `S_up` event).
    /// Returns `false` when a delete found nothing to remove.
    pub fn execute_update(&mut self, update: &Update) -> bool {
        self.engine.apply(update)
    }

    /// Evaluate a wire query on the current base relations (an `S_qu`
    /// event). The query's header is resolved against the catalog once
    /// and kept for the queries that follow; every term is checked
    /// against it.
    ///
    /// # Errors
    /// [`SourceError::BadQuery`] when the query references unknown
    /// relations or a term does not fit them (atom count, bound-tuple
    /// arity); storage errors otherwise.
    pub fn answer(&mut self, query: &WireQuery) -> Result<SignedBag, SourceError> {
        let prepared = self.prepared.prepare(query, &self.catalog)?;
        Ok(self.engine.eval_prepared(prepared, &query.terms)?)
    }

    /// Drive this source over a [`Transport`]: execute `script`, sending
    /// an update notification for each effective update, then answer
    /// every incoming query on the *current* state until the warehouse
    /// hangs up.
    ///
    /// This is the autonomous-site event loop of the paper's Figure 1.1:
    /// `S_up` events all precede the `S_qu` events here only in program
    /// order — on the wire the warehouse interleaves deliveries however
    /// its scheduler likes, and the FIFO channel is what keeps the §3
    /// ordering assumption true. Answer payloads are charged to the
    /// transport's meter (the paper's `B`).
    ///
    /// # Errors
    /// Transport failures, undecodable queries, and
    /// [`SourceError::Protocol`] if the warehouse sends anything but a
    /// [`Message::QueryRequest`].
    pub fn serve(
        &mut self,
        transport: &mut dyn Transport,
        script: &[Update],
    ) -> Result<ServeStats, SourceError> {
        let mut stats = self.run_script(transport, script)?;
        self.answer_loop(transport, &mut stats)?;
        Ok(stats)
    }

    /// Execute `script`, notifying the warehouse of each effective update
    /// (the `S_up` half of a serve session).
    fn run_script(
        &mut self,
        transport: &mut dyn Transport,
        script: &[Update],
    ) -> Result<ServeStats, SourceError> {
        let mut stats = ServeStats::default();
        for update in script {
            stats.updates += 1;
            if self.execute_update(update) {
                transport.send(&Message::UpdateNotification {
                    update: update.clone(),
                })?;
                stats.notifications += 1;
            }
        }
        Ok(stats)
    }

    /// Answer queries one at a time until the warehouse hangs up (the
    /// `S_qu` half of a serve session), filling `stats.answers`,
    /// `stats.duplicates` and `stats.decode_skips`.
    fn answer_loop(
        &mut self,
        transport: &mut dyn Transport,
        stats: &mut ServeStats,
    ) -> Result<(), SourceError> {
        let mut replay = ReplayCache::new();
        loop {
            let received = transport.recv();
            if matches!(received, Ok(None)) {
                return Ok(());
            }
            self.answer_received(transport, received, &mut replay, stats)?;
        }
    }

    /// The one answer path behind [`Source::serve`] and [`serve_fleet`]:
    /// take what a receive call returned and, if it is a query, answer
    /// it on `transport`, charging the payload to the transport's meter
    /// (the paper's `B`). Returns whether a query was answered.
    ///
    /// Hardened against a faulty channel: a recv timeout (or nothing
    /// there) is a no-op, an undecodable frame is skipped (and counted),
    /// and a duplicate query id is answered from the bounded replay
    /// cache with the *original* answer bytes rather than re-evaluated on
    /// the current state.
    fn answer_received(
        &mut self,
        transport: &mut dyn Transport,
        received: Result<Option<Message>, TransportError>,
        replay: &mut ReplayCache,
        stats: &mut ServeStats,
    ) -> Result<bool, SourceError> {
        let msg = match received {
            Ok(Some(msg)) => msg,
            Ok(None) | Err(TransportError::Timeout) => return Ok(false),
            Err(TransportError::Decode(_)) => {
                stats.decode_skips += 1;
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        };
        let Message::QueryRequest { id, query } = msg else {
            return Err(SourceError::Protocol(
                "warehouse -> source carries only QueryRequest",
            ));
        };
        let answer = if let Some(cached) = replay.get(id) {
            stats.duplicates += 1;
            cached.clone()
        } else {
            let answer = self.answer(&query)?;
            replay.put(id, answer.clone());
            stats.answers += 1;
            answer
        };
        transport.meter().record_answer_payload(
            answer.encoded_len() as u64,
            answer.pos_len() + answer.neg_len(),
        );
        transport.send(&Message::QueryAnswer { id, answer })?;
        Ok(true)
    }

    /// A logical snapshot of the current base relations — used by the
    /// consistency checker to record source states `ss_i`. Free of I/O
    /// charges.
    pub fn snapshot(&self) -> BaseDb {
        let mut db = BaseDb::new();
        for schema in &self.catalog {
            db.register(schema.relation());
            if let Some(table) = self.engine.table(schema.relation()) {
                for (t, c) in table.contents().iter() {
                    for _ in 0..c.max(0) {
                        db.insert(schema.relation(), t.clone());
                    }
                }
            }
        }
        db
    }
}

/// One source of a multiplexed fleet: its site state, its channel to the
/// warehouse, and the update script it will execute.
pub struct FleetMember {
    /// The autonomous site.
    pub source: Source,
    /// Its channel to the warehouse.
    pub transport: Box<dyn Transport + Send>,
    /// Updates to execute and notify before the answer phase.
    pub script: Vec<Update>,
}

/// Drive a whole fleet of sources from **one** thread, multiplexed over
/// `Transport::poll()` readiness — the source-side mirror of the
/// warehouse reactor.
///
/// Each member runs the same protocol as [`Source::serve`] (script first,
/// then answer every query on the current state until its warehouse end
/// hangs up), but instead of one blocked thread per source a single loop
/// scans all transports and parks on a shared [`PollWaker`] when nothing
/// is ready. Per-channel FIFO is untouched: each channel still sends its
/// script in order and answers its queries in arrival order.
///
/// This is how 100+ sources are driven against the reactor without a
/// source-side thread per site.
///
/// # Errors
/// First member failure wins; as [`Source::serve`].
pub fn serve_fleet(members: &mut [FleetMember]) -> Result<Vec<ServeStats>, SourceError> {
    // Phase 1: every script in full, member order. Scripts only send, so
    // over unbounded links this cannot block; interleaving across members
    // is irrelevant to correctness (sources are autonomous — nothing
    // orders updates across sites).
    let mut stats = Vec::with_capacity(members.len());
    for m in members.iter_mut() {
        stats.push(m.source.run_script(m.transport.as_mut(), &m.script)?);
    }

    // Phase 2: multiplexed answer loop.
    let waker = PollWaker::new();
    let mut wakers_everywhere = true;
    for m in members.iter_mut() {
        wakers_everywhere &= m.transport.set_waker(std::sync::Arc::clone(&waker));
    }
    let mut replay: Vec<ReplayCache> = members.iter().map(|_| ReplayCache::new()).collect();
    let mut open: Vec<bool> = vec![true; members.len()];
    let mut live = members.len();
    while live > 0 {
        let seen = waker.epoch();
        let mut progress = false;
        for (i, m) in members.iter_mut().enumerate() {
            if !open[i] {
                continue;
            }
            loop {
                match m.transport.poll()? {
                    Readiness::Idle => break,
                    Readiness::Closed => {
                        open[i] = false;
                        live -= 1;
                        break;
                    }
                    Readiness::Ready => {
                        let received = m.transport.try_recv();
                        progress |= m.source.answer_received(
                            m.transport.as_mut(),
                            received,
                            &mut replay[i],
                            &mut stats[i],
                        )?;
                    }
                }
            }
        }
        if !progress && live > 0 {
            // Full scan found nothing: park until any channel speaks (or
            // hangs up — transport drops notify too). Bounded as a
            // lost-notification backstop; without universal waker
            // coverage it degrades to a short poll.
            let bound = if wakers_everywhere {
                Duration::from_millis(50)
            } else {
                Duration::from_millis(1)
            };
            waker.wait(seen, bound);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::basedb::BaseLookup;
    use eca_core::{Atom, Query, Term};
    use eca_relational::{Predicate, Sign, SignedTuple, Tuple};

    fn example_source(scenario: Scenario) -> (Source, ViewDef) {
        let mut s = Source::new(scenario);
        s.add_relation(Schema::new("r1", &["W", "X"]), 20, Some("X"), &[])
            .unwrap();
        s.add_relation(Schema::new("r2", &["X", "Y"]), 20, Some("X"), &["Y"])
            .unwrap();
        s.load("r1", [Tuple::ints([1, 2])]).unwrap();
        s.load("r2", [Tuple::ints([2, 4])]).unwrap();
        let view = ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap();
        (s, view)
    }

    #[test]
    fn answers_follow_current_state() {
        let (mut s, view) = example_source(Scenario::Indexed);
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        // Query built for U, but evaluated AFTER a further update — the
        // decoupling at the heart of the paper.
        let q = WireQuery::from_query(&view.substitute(&u).unwrap());
        assert!(s.execute_update(&u));
        assert!(s.execute_update(&Update::insert("r1", Tuple::ints([4, 2]))));
        let a = s.answer(&q).unwrap();
        assert_eq!(
            a,
            SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])])
        );
    }

    #[test]
    fn snapshot_matches_applied_updates() {
        let (mut s, view) = example_source(Scenario::nested_loop_default());
        s.execute_update(&Update::insert("r1", Tuple::ints([4, 2])));
        s.execute_update(&Update::delete("r2", Tuple::ints([2, 4])));
        let snap = s.snapshot();
        assert_eq!(snap.bag("r1").unwrap().pos_len(), 2);
        assert!(snap.bag("r2").unwrap().is_empty());
        assert!(view.eval(&snap).unwrap().is_empty());
    }

    #[test]
    fn ineffective_delete_not_counted() {
        let (mut s, _) = example_source(Scenario::Indexed);
        assert!(!s.execute_update(&Update::delete("r1", Tuple::ints([9, 9]))));
        assert_eq!(s.io_meter().update_writes(), 0);
    }

    #[test]
    fn unknown_relation_in_query_rejected() {
        let (mut s, _) = example_source(Scenario::Indexed);
        let bad_view = ViewDef::new(
            "V",
            vec![Schema::new("zz", &["A"])],
            Predicate::True,
            vec![0],
        )
        .unwrap();
        let q = WireQuery::from_query(&bad_view.as_query());
        assert!(matches!(s.answer(&q), Err(SourceError::BadQuery(_))));
    }

    /// `load` leaves exactly the state of one `execute_update` insert per
    /// tuple, on top of existing contents: same snapshot, same heap order
    /// (clustered runs keep arrival order), and the bulk path charges the
    /// same update touches before `load` resets the meter.
    #[test]
    fn load_equals_sequential_inserts() {
        let fresh = || {
            let mut s = Source::new(Scenario::Indexed);
            s.add_relation(Schema::new("r2", &["X", "Y"]), 4, Some("X"), &["Y"])
                .unwrap();
            s.execute_update(&Update::insert("r2", Tuple::ints([3, 0])));
            s
        };
        let rows: Vec<Tuple> = (0..60).map(|i| Tuple::ints([(i * 7) % 5, i])).collect();
        let inserts: Vec<Update> = rows
            .iter()
            .map(|t| Update::insert("r2", t.clone()))
            .collect();

        let mut loaded = fresh();
        loaded.load("r2", rows.iter().cloned()).unwrap();
        let mut inserted = fresh();
        for u in &inserts {
            assert!(inserted.execute_update(u));
        }
        inserted.io_meter().reset();

        assert_eq!(loaded.snapshot(), inserted.snapshot());
        let heap = |s: &Source| s.engine.table("r2").unwrap().scan().to_vec();
        assert_eq!(heap(&loaded), heap(&inserted));
        assert_eq!(
            loaded.io_meter().update_writes(),
            inserted.io_meter().update_writes()
        );

        let mut bulk = fresh();
        bulk.io_meter().reset();
        bulk.engine.load("r2", rows.iter().cloned()).unwrap();
        assert_eq!(bulk.io_meter().update_writes(), rows.len() as u64);
        assert_eq!(heap(&bulk), heap(&inserted));
    }

    #[test]
    fn load_rejects_unregistered() {
        let mut s = Source::new(Scenario::Indexed);
        assert!(matches!(
            s.load("nope", [Tuple::ints([1])]),
            Err(SourceError::UnknownRelation(_))
        ));
    }

    #[test]
    fn serve_notifies_and_answers_until_hangup() {
        use eca_wire::{SharedFifo, TransferMeter, Transport};

        let (mut src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
        let (mut s, view) = example_source(Scenario::Indexed);
        let script = [
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::delete("r1", Tuple::ints([9, 9])), // ineffective
        ];

        let stats = std::thread::scope(|scope| {
            let served = scope.spawn(|| s.serve(&mut src_end, &script));
            // The warehouse end sees the notification, asks one query and
            // gets its answer, then hangs up, which ends serve().
            assert!(matches!(
                wh_end.recv().unwrap(),
                Some(eca_wire::Message::UpdateNotification { .. })
            ));
            wh_end
                .send(&eca_wire::Message::QueryRequest {
                    id: eca_core::QueryId(1),
                    query: WireQuery::from_query(&view.as_query()),
                })
                .unwrap();
            assert!(matches!(
                wh_end.recv().unwrap(),
                Some(eca_wire::Message::QueryAnswer { .. })
            ));
            drop(wh_end);
            served.join().unwrap().unwrap()
        });
        assert_eq!(
            stats,
            ServeStats {
                updates: 2,
                notifications: 1,
                answers: 1,
                ..ServeStats::default()
            }
        );
        assert!(src_end.meter().answer_bytes() > 0);
    }

    /// A duplicate query id must be answered with the *original* answer
    /// bytes (replay cache), not a fresh evaluation on the current state
    /// — even if the base relations changed in between.
    #[test]
    fn duplicate_query_replayed_idempotently() {
        use eca_wire::{SharedFifo, TransferMeter, Transport};

        let (mut src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
        let (mut s, view) = example_source(Scenario::Indexed);

        let q = WireQuery::from_query(&view.as_query());
        // The same query id delivered three times in a row. A
        // re-evaluation would see any state change in between; the replay
        // cache must not.
        for _ in 0..3 {
            wh_end
                .send(&Message::QueryRequest {
                    id: QueryId(7),
                    query: q.clone(),
                })
                .unwrap();
        }
        let (stats, answers) = std::thread::scope(|scope| {
            let served = scope.spawn(|| s.serve(&mut src_end, &[]));
            let answers: Vec<SignedBag> = (0..3)
                .map(|_| {
                    let Some(Message::QueryAnswer { id, answer }) = wh_end.recv().unwrap() else {
                        panic!("expected answers only");
                    };
                    assert_eq!(id, QueryId(7));
                    answer
                })
                .collect();
            drop(wh_end);
            (served.join().unwrap().unwrap(), answers)
        });
        assert_eq!(stats.answers, 1);
        assert_eq!(stats.duplicates, 2);
        let served = s.io_meter().query_reads();
        s.answer(&q).unwrap();
        assert_eq!(
            s.io_meter().query_reads(),
            2 * served,
            "evaluated exactly once"
        );
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
    }

    /// The replay cache is bounded: an id evicted after
    /// `REPLAY_CACHE_CAP` newer answers is re-evaluated as fresh.
    #[test]
    fn replay_cache_is_bounded() {
        let mut cache = ReplayCache::new();
        for i in 0..=(REPLAY_CACHE_CAP as u64) {
            cache.put(QueryId(i), SignedBag::new());
        }
        assert!(cache.get(QueryId(0)).is_none(), "oldest entry evicted");
        assert!(cache.get(QueryId(1)).is_some());
    }

    /// One fleet thread driving three sources against three scripted
    /// "warehouses" answers every channel correctly and in FIFO order,
    /// with stats matching what per-source `serve` would report.
    #[test]
    fn serve_fleet_multiplexes_many_sources_on_one_thread() {
        use eca_wire::{SharedFifo, TransferMeter};

        const N: usize = 3;
        let mut members = Vec::new();
        let mut wh_ends = Vec::new();
        let mut views = Vec::new();
        for _ in 0..N {
            let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
            let (s, view) = example_source(Scenario::Indexed);
            members.push(FleetMember {
                source: s,
                transport: Box::new(src_end),
                script: vec![Update::insert("r2", Tuple::ints([2, 3]))],
            });
            wh_ends.push(wh_end);
            views.push(view);
        }

        let fleet = std::thread::spawn(move || {
            let stats = serve_fleet(&mut members).unwrap();
            (stats, members)
        });

        // Each "warehouse": consume the notification, fire two queries,
        // expect two FIFO answers.
        let mut expected = Vec::new();
        for (i, wh_end) in wh_ends.iter_mut().enumerate() {
            assert!(matches!(
                wh_end.recv().unwrap(),
                Some(Message::UpdateNotification { .. })
            ));
            let q = WireQuery::from_query(&views[i].as_query());
            for k in 0..2u64 {
                wh_end
                    .send(&Message::QueryRequest {
                        id: QueryId(i as u64 * 10 + k),
                        query: q.clone(),
                    })
                    .unwrap();
            }
        }
        for (i, wh_end) in wh_ends.iter_mut().enumerate() {
            for k in 0..2u64 {
                let Some(Message::QueryAnswer { id, answer }) = wh_end.recv().unwrap() else {
                    panic!("expected an answer");
                };
                assert_eq!(id, QueryId(i as u64 * 10 + k), "FIFO per channel");
                expected.push(answer);
            }
        }
        drop(wh_ends); // hang every channel up
        let (stats, members) = fleet.join().unwrap();
        // The reads of evaluating each channel's two queries once each.
        let (mut reference, view) = example_source(Scenario::Indexed);
        reference.execute_update(&Update::insert("r2", Tuple::ints([2, 3])));
        let q = WireQuery::from_query(&view.as_query());
        reference.answer(&q).unwrap();
        reference.answer(&q).unwrap();
        let two_answers = reference.io_meter().query_reads();
        assert!(two_answers > 0);
        for (i, st) in stats.iter().enumerate() {
            assert_eq!(st.updates, 1);
            assert_eq!(st.notifications, 1);
            assert_eq!(st.answers, 2);
            assert_eq!(members[i].source.io_meter().query_reads(), two_answers);
        }
        // All channels saw the same state, so all answers agree.
        assert!(expected.windows(2).all(|w| w[0] == w[1]));
    }

    /// Example 1's join under `proj`, with one term: `r1` free and `r2`
    /// bound to `bound`.
    fn bound_r2_query(proj: Vec<usize>, bound: Tuple) -> WireQuery {
        let view = ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            proj,
        )
        .unwrap();
        let term = Term::new(
            1,
            vec![
                Atom::Rel(0),
                Atom::Bound(SignedTuple {
                    sign: Sign::Plus,
                    tuple: bound,
                }),
            ],
        );
        WireQuery::from_query(&Query::from_terms(view, vec![term]))
    }

    /// A bound tuple of the wrong arity is a typed error under both
    /// scenarios, never a panic and never an answer, whether or not the
    /// projection would have read past it.
    #[test]
    fn wrong_arity_bound_tuple_is_a_bad_query() {
        for scenario in [Scenario::Indexed, Scenario::nested_loop_default()] {
            let (mut s, _) = example_source(scenario);
            let cases = [
                (vec![0, 3], Tuple::ints([2])),
                (vec![0], Tuple::ints([2])),
                (vec![0], Tuple::ints([2, 4, 6, 8])),
            ];
            for (proj, bound) in cases {
                let q = bound_r2_query(proj, bound);
                assert!(
                    matches!(s.answer(&q), Err(SourceError::BadQuery(_))),
                    "{scenario:?} {:?}",
                    q.terms
                );
            }
            let good = bound_r2_query(vec![0, 3], Tuple::ints([2, 4]));
            assert_eq!(
                s.answer(&good).unwrap(),
                SignedBag::from_tuples([Tuple::ints([1, 4])])
            );
        }
    }

    /// A hand-built term with more or fewer atoms than the header has
    /// relations is a typed error.
    #[test]
    fn wrong_atom_count_is_a_bad_query() {
        let (mut s, view) = example_source(Scenario::Indexed);
        for atoms in [
            vec![Atom::Rel(0)],
            vec![Atom::Rel(0), Atom::Rel(1), Atom::Rel(2)],
        ] {
            let q = WireQuery {
                header: Arc::clone(view.header()),
                terms: vec![Term::new(1, atoms)].into(),
            };
            assert!(matches!(s.answer(&q), Err(SourceError::BadQuery(_))));
        }
    }

    /// The bytes a warehouse would send decode into a query the source
    /// answers like the original, and a malformed term in those bytes
    /// is a typed error rather than a panic.
    #[test]
    fn decoded_bytes_answer_like_the_sent_query() {
        let (mut s, view) = example_source(Scenario::Indexed);
        let sent = WireQuery::from_query(
            &view
                .substitute(&Update::insert("r2", Tuple::ints([2, 3])))
                .unwrap(),
        );
        let wire = |query: WireQuery| {
            let msg = Message::QueryRequest {
                id: QueryId(4),
                query,
            };
            let Message::QueryRequest { query, .. } = Message::decode(msg.encode()).unwrap() else {
                unreachable!()
            };
            query
        };
        let decoded = wire(sent.clone());
        assert!(!Arc::ptr_eq(&decoded.header, &sent.header));
        assert_eq!(s.answer(&decoded).unwrap(), s.answer(&sent).unwrap());
        assert_eq!(s.prepared.entries.len(), 1, "equal headers share an entry");

        let bad = wire(bound_r2_query(vec![0, 3], Tuple::ints([2])));
        assert!(matches!(s.answer(&bad), Err(SourceError::BadQuery(_))));
    }

    /// A peer cycling through more distinct headers than the bound gets
    /// correct answers while the table stays at its bound; a header that
    /// does not resolve never enters it.
    #[test]
    fn prepared_table_stays_bounded() {
        let (mut s, _) = example_source(Scenario::Indexed);
        s.execute_update(&Update::insert("r1", Tuple::ints([7, 2])));
        let schemas = s.catalog().to_vec();
        let mut db = BaseDb::new();
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([7, 2]));
        db.insert("r2", Tuple::ints([2, 4]));
        for round in 0..2 {
            for w in 0..(PREPARED_CAP as i64 + 4) {
                // A distinct header per w: select W ≥ w.
                let view = ViewDef::new(
                    "V",
                    schemas.clone(),
                    Predicate::col_eq(1, 2).and(Predicate::col_const(
                        0,
                        eca_relational::CmpOp::Ge,
                        w,
                    )),
                    vec![0, 3],
                )
                .unwrap();
                let q = view.as_query();
                assert_eq!(
                    s.answer(&WireQuery::from_query(&q)).unwrap(),
                    q.eval(&db).unwrap(),
                    "round {round}, w {w}"
                );
                assert!(s.prepared.entries.len() <= PREPARED_CAP);
            }
        }
        assert_eq!(s.prepared.entries.len(), PREPARED_CAP);

        let fresh = |s: &mut Source, header: QueryHeader, terms: Vec<Term>| {
            let q = WireQuery {
                header: Arc::new(header),
                terms: terms.into(),
            };
            assert!(matches!(s.answer(&q), Err(SourceError::BadQuery(_))));
        };
        let mut s = example_source(Scenario::Indexed).0;
        let unknown = QueryHeader {
            relations: vec!["r1".into(), "zz".into()],
            cond: Predicate::True,
            proj: vec![0],
        };
        fresh(&mut s, unknown, Vec::new());
        let out_of_range = QueryHeader {
            relations: vec!["r1".into(), "r2".into()],
            cond: Predicate::col_eq(1, 2),
            proj: vec![4],
        };
        fresh(&mut s, out_of_range, Vec::new());
        let bad_term = bound_r2_query(vec![0, 3], Tuple::ints([2]));
        fresh(&mut s, (*bad_term.header).clone(), bad_term.terms.to_vec());
        assert!(s.prepared.entries.is_empty());
    }

    #[test]
    fn io_charged_for_answers_not_loads() {
        let (mut s, view) = example_source(Scenario::Indexed);
        assert_eq!(s.io_meter().query_reads(), 0);
        let q = WireQuery::from_query(&view.as_query());
        s.answer(&q).unwrap();
        assert!(s.io_meter().query_reads() > 0);
    }
}

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
//!
//! Deployed, a source steps the same two calls over a [`Transport`]:
//! [`Source::serve`] drives one site, blocking in `recv`, and
//! [`serve_fleet`] makes many sites stations of a one-worker
//! [`StationPool`], the event loop the warehouse's reactor runs on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use eca_core::basedb::BaseDb;
use eca_core::{QueryHeader, ViewDef};
use eca_relational::{Schema, SignedBag, Update};
use eca_storage::{IoMeter, Scenario, StorageEngine, StorageError};
use eca_wire::{
    Exit, Message, StartError, StationOwner, StationPool, TransferMeter, Transport, TransportError,
    WireQuery,
};

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
    entries: VecDeque<(Arc<QueryHeader>, ViewDef)>,
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
    fn prepare(&mut self, query: &WireQuery, catalog: &[Schema]) -> Result<&ViewDef, SourceError> {
        let fits = |view: &ViewDef| {
            query
                .terms
                .iter()
                .try_for_each(|t| view.check_term(t))
                .map_err(SourceError::BadQuery)
        };
        if let Some(at) = self.position(&query.header) {
            fits(&self.entries[at].1)?;
            return Ok(&self.entries[at].1);
        }
        let view = ViewDef::resolve("wire", Arc::clone(&query.header), catalog)
            .map_err(SourceError::BadQuery)?;
        fits(&view)?;
        if self.entries.len() == PREPARED_CAP {
            self.entries.pop_front();
        }
        self.entries.push_back((Arc::clone(&query.header), view));
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
        Ok(self.engine.eval_terms(prepared, &query.terms)?)
    }

    /// An `S_up` event: execute `update` and return the notification to
    /// send the warehouse, or `None` when the update changed nothing (a
    /// delete that found nothing to remove).
    pub fn on_script_step(&mut self, update: &Update) -> Option<Message> {
        self.execute_update(update)
            .then(|| Message::UpdateNotification {
                update: update.clone(),
            })
    }

    /// An `S_qu` event: answer a [`Message::QueryRequest`] on the current
    /// state with its [`Message::QueryAnswer`]. Every driver steps this
    /// call, the simulator included.
    ///
    /// # Errors
    /// [`SourceError::Protocol`] for any other kind of message (nothing
    /// but queries travels toward a source); otherwise as
    /// [`Source::answer`].
    pub fn on_message(&mut self, msg: Message) -> Result<Message, SourceError> {
        let Message::QueryRequest { id, query } = msg else {
            return Err(SourceError::Protocol(
                "warehouse -> source carries only QueryRequest",
            ));
        };
        let answer = self.answer(&query)?;
        Ok(Message::QueryAnswer { id, answer })
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
    /// Transport failures (a body that does not decode ends the session
    /// with [`TransportError::Decode`]), bad queries, and
    /// [`SourceError::Protocol`] if the warehouse sends anything but a
    /// [`Message::QueryRequest`].
    pub fn serve(
        &mut self,
        transport: &mut dyn Transport,
        script: &[Update],
    ) -> Result<ServeStats, SourceError> {
        let mut stats = self.run_script(transport, script)?;
        while let Some(msg) = transport.recv()? {
            let answer = self.metered_reply(msg, transport.meter())?;
            transport.send(&answer)?;
            stats.answers += 1;
        }
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
            if let Some(notification) = self.on_script_step(update) {
                transport.send(&notification)?;
                stats.notifications += 1;
            }
        }
        Ok(stats)
    }

    /// Answer one received message, charging the answer's payload to
    /// `meter` (the paper's `B`): the `S_qu` step behind [`Source::serve`]
    /// and [`serve_fleet`].
    fn metered_reply(
        &mut self,
        msg: Message,
        meter: &TransferMeter,
    ) -> Result<Message, SourceError> {
        let answer = self.on_message(msg)?;
        if let Message::QueryAnswer { answer, .. } = &answer {
            meter.record_answer(answer);
        }
        Ok(answer)
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

/// Drive a whole fleet of sources on **one** worker thread — the
/// source-side mirror of the warehouse reactor, on the same
/// [`StationPool`].
///
/// Each member runs the same protocol as [`Source::serve`]: its script
/// first, on the calling thread, in member order, then every query
/// answered on the current state until its warehouse end hangs up. For
/// the answer phase each member is a station of a one-worker pool whose
/// handler is [`Source::on_message`]; each answer is charged to the
/// member's meter (the paper's `B`). Per-channel FIFO is untouched: each
/// channel still sends its script in order and answers its queries in
/// arrival order. Returns once every station has closed, one
/// [`ServeStats`] per member, in member order.
///
/// This is how 100+ sources are driven against the reactor without a
/// source-side thread per site.
///
/// # Errors
/// First member failure wins, stops the pool and hangs up every member;
/// as [`Source::serve`]. A member whose transport can neither notify a
/// waker nor hand over a descriptor is refused with an `Unsupported`
/// [`TransportError::Io`] before the answer phase, since nothing could
/// wake the worker for it.
pub fn serve_fleet(members: Vec<FleetMember>) -> Result<Vec<ServeStats>, SourceError> {
    let mut sites = Vec::with_capacity(members.len());
    let mut stations = Vec::with_capacity(members.len());
    for (key, mut m) in members.into_iter().enumerate() {
        let stats = m.source.run_script(m.transport.as_mut(), &m.script)?;
        sites.push(Mutex::new(Site {
            source: m.source,
            meter: m.transport.meter().clone(),
            stats,
        }));
        stations.push((key, m.transport));
    }
    let fleet = Fleet {
        open: Mutex::new((stations.len(), None)),
        done: Condvar::new(),
        sites,
    };
    let pool = StationPool::start(fleet, 1, stations).map_err(|e| match e {
        StartError::Io(e) => SourceError::Transport(TransportError::Io(e)),
        StartError::Refused(..) => SourceError::Transport(TransportError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "a fleet member's transport can neither wake nor be polled",
        ))),
    })?;
    let fleet = pool.owner();
    let error = {
        let mut open = lock(&fleet.open);
        while open.0 > 0 && open.1.is_none() {
            open = fleet
                .done
                .wait(open)
                .unwrap_or_else(PoisonError::into_inner);
        }
        open.1.take()
    };
    let outcome = match error {
        Some(err) => Err(err),
        None => Ok(fleet.sites.iter().map(|site| lock(site).stats).collect()),
    };
    pool.stop()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    outcome
}

/// One member's answer-phase state.
struct Site {
    source: Source,
    meter: TransferMeter,
    stats: ServeStats,
}

/// What [`serve_fleet`] shares with its pool. Keys are member indices.
struct Fleet {
    sites: Vec<Mutex<Site>>,
    /// Members still open, and the first error. The calling thread waits
    /// on `done` until the one is zero or the other is set.
    open: Mutex<(usize, Option<SourceError>)>,
    done: Condvar,
}

impl Fleet {
    /// Count one member closed, or record the run's first error.
    fn finish(&self, error: Option<SourceError>) {
        let mut open = lock(&self.open);
        match error {
            Some(err) => {
                open.1.get_or_insert(err);
            }
            None => open.0 -= 1,
        }
        self.done.notify_all();
    }
}

impl StationOwner for Fleet {
    type Key = usize;

    fn handle(&self, key: usize, msg: Message, replies: &mut Vec<Message>) {
        if lock(&self.open).1.is_some() {
            return; // the run failed: answer nothing more
        }
        let mut site = lock(&self.sites[key]);
        let Site {
            source,
            meter,
            stats,
        } = &mut *site;
        match source.metered_reply(msg, meter) {
            Ok(answer) => {
                stats.answers += 1;
                replies.push(answer);
            }
            Err(err) => self.finish(Some(err)),
        }
    }

    fn closed(&self, _: usize, exit: Exit) {
        // Keys are distinct and nothing listens, so a station leaves
        // only by hanging up, faulting or a panicking handler. The panic
        // wakes the calling thread, whose `stop` then raises it.
        match exit {
            Exit::Faulted(e) => self.finish(Some(SourceError::Transport(e))),
            Exit::Panicked => {
                self.finish(Some(SourceError::Protocol("a fleet handler panicked")));
            }
            _ => self.finish(None),
        }
    }

    fn gate(&self, _: &std::net::TcpStream) -> Option<usize> {
        None
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::basedb::BaseLookup;
    use eca_core::{Atom, Query, QueryId, Term};
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
            }
        );
        assert!(src_end.meter().answer_bytes() > 0);
    }

    /// A well-framed body that is no message ends the session with a
    /// typed decode error, as a bad frame closes a station of the pool.
    #[test]
    fn undecodable_body_over_tcp_ends_serve_with_a_decode_error() {
        use eca_wire::{Role, TcpTransport, TransferMeter};
        use std::io::Write as _;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let warehouse = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // One byte under a valid length prefix: tag 0xFF names no
            // message kind. Then hang up.
            stream.write_all(&1u32.to_be_bytes()).unwrap();
            stream.write_all(&[0xFF]).unwrap();
            stream.flush().unwrap();
        });
        let (mut s, _) = example_source(Scenario::Indexed);
        let mut link = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
        let served = s.serve(&mut link, &[]);
        warehouse.join().unwrap();
        assert!(
            matches!(
                served,
                Err(SourceError::Transport(TransportError::Decode(_)))
            ),
            "{served:?}"
        );
    }

    /// A raw "warehouse" that writes two queries in one segment, reads
    /// both answers and hangs up, against a source driven over TCP by
    /// `drive`. Over TCP the first answer is held back while the second
    /// query waits decoded; the serve loop must still get both out.
    fn two_queries_in_one_segment(
        drive: impl FnOnce(Source, eca_wire::TcpTransport) -> ServeStats,
    ) {
        use eca_wire::{read_frame, write_frame, Role, TcpTransport, TransferMeter};
        use std::io::Write as _;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (s, view) = example_source(Scenario::Indexed);
        let query = WireQuery::from_query(&view.as_query());
        let warehouse = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut segment = Vec::new();
            for id in 1..=2 {
                let q = Message::QueryRequest {
                    id: QueryId(id),
                    query: query.clone(),
                };
                write_frame(&mut segment, &q).unwrap();
            }
            stream.write_all(&segment).unwrap();
            (0..2)
                .map(|_| {
                    let frame = read_frame(&mut stream).unwrap().unwrap();
                    match Message::decode(frame) {
                        Ok(Message::QueryAnswer { id, .. }) => id,
                        other => panic!("expected an answer, got {other:?}"),
                    }
                })
                .collect::<Vec<_>>()
        });
        let link = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
        let stats = drive(s, link);
        assert_eq!(warehouse.join().unwrap(), vec![QueryId(1), QueryId(2)]);
        assert_eq!(stats.answers, 2);
    }

    #[test]
    fn serve_answers_two_queries_from_one_segment() {
        two_queries_in_one_segment(|mut s, mut link| s.serve(&mut link, &[]).unwrap());
    }

    #[test]
    fn serve_fleet_answers_two_queries_from_one_segment() {
        two_queries_in_one_segment(|source, link| {
            let members = vec![FleetMember {
                source,
                transport: Box::new(link),
                script: Vec::new(),
            }];
            serve_fleet(members).unwrap().remove(0)
        });
    }

    /// Only queries travel toward a source: an ack or a notification is
    /// refused without touching the state.
    #[test]
    fn on_message_refuses_everything_but_queries() {
        let (mut s, view) = example_source(Scenario::Indexed);
        let refused = [
            Message::Ack { epoch: 0, next: 1 },
            Message::UpdateNotification {
                update: Update::insert("r2", Tuple::ints([2, 3])),
            },
        ];
        for msg in refused {
            assert!(
                matches!(s.on_message(msg), Err(SourceError::Protocol(_))),
                "only queries are answered"
            );
        }
        assert_eq!(s.io_meter().query_reads(), 0);
        let q = WireQuery::from_query(&view.as_query());
        let reply = s
            .on_message(Message::QueryRequest {
                id: QueryId(4),
                query: q.clone(),
            })
            .unwrap();
        assert_eq!(
            reply,
            Message::QueryAnswer {
                id: QueryId(4),
                answer: s.answer(&q).unwrap(),
            }
        );
    }

    /// An update that changes nothing notifies nothing.
    #[test]
    fn on_script_step_notifies_effective_updates_only() {
        let (mut s, _) = example_source(Scenario::Indexed);
        let insert = Update::insert("r2", Tuple::ints([2, 3]));
        assert_eq!(
            s.on_script_step(&insert),
            Some(Message::UpdateNotification {
                update: insert.clone()
            })
        );
        assert_eq!(
            s.on_script_step(&Update::delete("r1", Tuple::ints([9, 9]))),
            None
        );
    }

    /// One fleet worker driving three sources against three scripted
    /// "warehouses" answers every channel correctly and in FIFO order,
    /// with stats matching what per-source `serve` would report.
    #[test]
    fn serve_fleet_multiplexes_many_sources_on_one_thread() {
        use eca_wire::{SharedFifo, TransferMeter};

        const N: usize = 3;
        let mut members = Vec::new();
        let mut wh_ends = Vec::new();
        let mut views = Vec::new();
        let mut io = Vec::new();
        for _ in 0..N {
            let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
            let (s, view) = example_source(Scenario::Indexed);
            io.push(s.io_meter().clone());
            members.push(FleetMember {
                source: s,
                transport: Box::new(src_end),
                script: vec![Update::insert("r2", Tuple::ints([2, 3]))],
            });
            wh_ends.push(wh_end);
            views.push(view);
        }

        let fleet = std::thread::spawn(move || serve_fleet(members).unwrap());

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
        let stats = fleet.join().unwrap();
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
            assert_eq!(io[i].query_reads(), two_answers);
        }
        // All channels saw the same state, so all answers agree.
        assert!(expected.windows(2).all(|w| w[0] == w[1]));
    }

    /// A member whose warehouse end sends a non-query fails the fleet
    /// with a protocol error: before `serve_fleet` returns, the pool's
    /// worker is joined and every member, the others still mid-session,
    /// is hung up.
    #[test]
    fn serve_fleet_stops_on_a_protocol_error() {
        use eca_wire::{SharedFifo, TransferMeter};

        let mut members = Vec::new();
        let mut wh_ends = Vec::new();
        for _ in 0..3 {
            let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
            members.push(FleetMember {
                source: example_source(Scenario::Indexed).0,
                transport: Box::new(src_end),
                script: Vec::new(),
            });
            wh_ends.push(wh_end);
        }
        wh_ends[1]
            .send(&Message::Ack { epoch: 0, next: 1 })
            .unwrap();
        let served = serve_fleet(members);
        assert!(
            matches!(served, Err(SourceError::Protocol(_))),
            "{served:?}"
        );
        // Stopping the pool joins its worker before it drops the
        // stations, so a hung-up member also shows the worker is gone.
        for wh_end in &mut wh_ends {
            assert_eq!(wh_end.recv().unwrap(), None, "every member hung up");
        }
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

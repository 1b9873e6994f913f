//! The reactor driver — the one threaded warehouse driver: a fixed
//! worker pool (`workers = 1..N`) multiplexing every source channel.
//!
//! The paper's premise (§1, Figure 1.1) is that sources are autonomous,
//! and §7 observes that with single-source views "ECA is simply applied
//! to each view separately". Warehouse state is already one shard per
//! source, so [`Warehouse::into_reactor`] only puts each shard behind its
//! own lock: ECA's §3 argument needs only per-channel FIFO delivery of
//! `W_up`/`W_ans` events, and the lock makes each transition atomic.
//!
//! Each source's channel is one station of an [`eca_wire::StationPool`]:
//! its home worker alone reads it, hands each message to the source's
//! shard in arrival order and sends the resulting queries back. The pool
//! knows nothing about settling. The calling thread does: a source has
//! *settled* once every notification it owes has been handled and its
//! shard is quiescent, and the run ends when every source has settled,
//! a source hangs up or faults first, or nothing moves for a full stall
//! timeout. [`ReactorWarehouse::run_listener`] adds the pool's accept
//! thread: sources dial in with [`connect_source`] and a `Hello` naming
//! their [`SourceId`], for `workers + 1 accept loop` OS threads however
//! many connect: each worker sleeps in `poll(2)` on its own sockets.
//!
//! The serial [`Warehouse`] remains the golden-trace reference; the
//! reactor must (and is tested to) produce byte-identical meters and
//! state histories on every scenario, because both drivers apply the
//! same per-source event order to the same shard state machine.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use eca_wire::{
    read_frame_capped, write_frame, Exit, Message, PollWaker, Poller, Role, StartError,
    StationOwner, StationPool, TcpTransport, TransferMeter, Transport, TransportError,
};

use eca_relational::SignedBag;

use crate::shard::{checked, Shard};
use crate::{lock, SourceId, ViewId, Warehouse, WarehouseError};

/// How long the accept loop waits for a connection's opening
/// [`Message::Hello`] frame before declaring the handshake dead. Dialers
/// send it immediately, so on any sane network this is generous.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest handshake frame the warehouse will accept. A real
/// [`Message::Hello`] encodes in under twenty bytes; the length prefix
/// of an unauthenticated connection must not be trusted with an
/// allocation, so anything larger marks the peer as a stray.
const HELLO_MAX_LEN: usize = 256;

/// Dial a [`ReactorWarehouse::run_listener`] endpoint and identify as
/// `source`. The `Hello { epoch: source.0 }` handshake frame is written
/// *outside* the metered protocol — it is transport plumbing, not §6
/// traffic, so source-side meters stay comparable with the in-memory
/// runtimes frame for frame. Returns the metered source-side transport,
/// ready for notifications and compensating-query answers.
///
/// # Errors
/// Propagates connect and handshake-write failures.
pub fn connect_source(
    addr: SocketAddr,
    source: SourceId,
    meter: TransferMeter,
) -> std::io::Result<TcpTransport> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(
        &mut stream,
        &Message::Hello {
            epoch: source.0 as u64,
        },
    )
    .map_err(|e| match e {
        TransportError::Io(io) => io,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other),
    })?;
    TcpTransport::new(stream, Role::Source, meter)
}

/// A warehouse's shards behind per-source locks, plus the tables beside
/// them. Only a source's home worker handles its events, so the lock is
/// uncontended in steady state; it is what lets result accessors read a
/// shard while the pool runs (see DESIGN.md §11).
struct ShardSet {
    names: Vec<String>,
    shards: Vec<Mutex<Shard>>,
    /// Global [`ViewId`] → (shard, shard-local index).
    view_index: Vec<(usize, usize)>,
}

/// A warehouse driven by a fixed pool of reactor workers multiplexing
/// every source channel.
///
/// Build one with [`Warehouse::into_reactor`], drive it with
/// [`ReactorWarehouse::run`], then read results through the same
/// accessors the serial warehouse offers.
pub struct ReactorWarehouse {
    set: Arc<ShardSet>,
    workers: usize,
    stall_timeout: Duration,
}

impl Warehouse {
    /// Hand this warehouse's shards to the reactor driver with a fixed
    /// worker pool, each behind its own lock. Nothing is reshaped:
    /// sessions, in-flight queries, degraded views, logs and serving
    /// slots are the same objects the serial driver was using, so this
    /// is sound mid-traffic — including right after
    /// [`Warehouse::recover_durability`], while resyncs are still
    /// outstanding.
    ///
    /// # Panics
    /// If `workers == 0`.
    pub fn into_reactor(self, workers: usize) -> ReactorWarehouse {
        assert!(workers > 0, "reactor needs at least one worker");
        ReactorWarehouse {
            set: Arc::new(ShardSet {
                names: self.names,
                shards: self.shards.into_iter().map(Mutex::new).collect(),
                view_index: self.view_index,
            }),
            workers,
            stall_timeout: Duration::from_secs(30),
        }
    }
}

impl ReactorWarehouse {
    /// Number of source shards.
    pub fn source_count(&self) -> usize {
        self.set.shards.len()
    }

    /// The name a source was registered under.
    pub fn source_name(&self, source: SourceId) -> &str {
        &self.set.names[source.0]
    }

    /// The current materialized state of a view (cloned out of its
    /// shard).
    pub fn materialized(&self, view: ViewId) -> SignedBag {
        let (shard, local) = self.set.view_index[view.0];
        let shard = lock(&self.set.shards[shard]);
        shard.views[local].maintainer.materialized().clone()
    }

    /// A copy of [`crate::Warehouse::view_states`]: the states a view
    /// passed through since its history started, empty while recording
    /// is off.
    pub fn view_states(&self, view: ViewId) -> Vec<SignedBag> {
        let (shard, local) = self.set.view_index[view.0];
        lock(&self.set.shards[shard]).views[local].states.clone()
    }

    /// Whether every shard is quiescent.
    pub fn is_quiescent(&self) -> bool {
        self.set.shards.iter().all(|s| lock(s).is_quiescent())
    }

    /// Force every shard's buffered WAL records to disk regardless of
    /// the fsync policy (clean-shutdown helper). No-op without
    /// durability.
    ///
    /// # Errors
    /// [`WarehouseError::Durability`] on filesystem failures.
    pub fn sync_durability(&self) -> Result<(), WarehouseError> {
        self.set
            .shards
            .iter()
            .try_for_each(|s| lock(s).sync_durability())
    }

    /// Number of pooled workers [`ReactorWarehouse::run`] spawns.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Change the stall timeout (default 30 s): the longest stretch with
    /// no message handled on *any* station the reactor tolerates while
    /// unsettled before giving up with [`WarehouseError::SourceStalled`].
    pub fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout;
    }

    /// Drive every source to completion on the worker pool. `endpoints`
    /// pairs each source with its transport and the number of update
    /// notifications to expect (the count of *effective* updates in that
    /// source's script). Returns the total number of messages processed.
    ///
    /// Answer payloads are **not** charged to the transport meter here:
    /// threaded deployments meter each link once, on the source side,
    /// because both ends of a [`eca_wire::SharedFifo`] share one meter.
    ///
    /// # Errors
    /// Before any thread is spawned: [`WarehouseError::UnknownSource`]
    /// if an endpoint names an unregistered source,
    /// [`WarehouseError::DuplicateSource`] if two endpoints name one
    /// source, and [`WarehouseError::WakerRejected`] if a transport can
    /// neither notify the pool of arrivals nor hand it a descriptor to
    /// poll (parking needs one of them from every channel). Then [`WarehouseError::SourceHungUp`] if a peer
    /// disconnects before its source settles;
    /// [`WarehouseError::SourceStalled`] if no message is handled for a
    /// full stall timeout while any source is unsettled; transport,
    /// routing and maintainer failures. First error wins and stops the
    /// pool.
    pub fn run(
        &self,
        endpoints: Vec<(SourceId, Box<dyn Transport + Send>, u64)>,
    ) -> Result<u64, WarehouseError> {
        let n = self.set.shards.len();
        let mut expected = vec![None; n];
        let mut stations = Vec::with_capacity(endpoints.len());
        for (source, transport, count) in endpoints {
            let s = checked(source, n)?;
            expected[s] = Some(count);
            stations.push((s, transport));
        }
        let workers = self.workers.min(stations.len()).max(1);
        let pool = StationPool::start(self.run_state(&expected)?, workers, stations)
            .map_err(start_error)?;
        self.drive(pool)
    }

    /// Serve sources that dial in over TCP while the pool is running,
    /// instead of receiving pre-built transports. Each connection on the
    /// bound `listener` must open with a [`Message::Hello`] carrying its
    /// [`SourceId`] (dial with [`connect_source`]); it then joins the
    /// running pool as a station its home worker polls. `expected[s]` is
    /// the number of update notifications source `s` will send, exactly
    /// as in [`ReactorWarehouse::run`]. Threads: `workers.min(sources)`
    /// pooled workers plus one accept loop. `_poller` is ignored: the
    /// workers wait on their sockets themselves, and the parameter stays
    /// only for existing callers.
    ///
    /// Sources that expect no traffic over an already-quiescent shard
    /// need not connect at all; everyone else must connect and settle
    /// within the stall timeout.
    ///
    /// # Panics
    /// If `expected.len()` differs from the number of registered
    /// sources.
    ///
    /// # Errors
    /// Everything [`ReactorWarehouse::run`] raises, plus
    /// [`WarehouseError::UnknownSource`] for a Hello naming no
    /// registered source and [`WarehouseError::DuplicateSource`] for a
    /// second connection from one source. Connections that never
    /// complete a valid `Hello` (port scans, garbage, handshake
    /// timeouts) are dropped silently — only a peer that authenticated
    /// as a source can fail the run.
    pub fn run_listener(
        &self,
        listener: TcpListener,
        _poller: &Arc<Poller>,
        expected: &[u64],
    ) -> Result<u64, WarehouseError> {
        let n = self.set.shards.len();
        assert_eq!(
            expected.len(),
            n,
            "expected-notification counts must cover every source"
        );
        let expected: Vec<_> = expected.iter().copied().map(Some).collect();
        let run = self.run_state(&expected)?;
        let mut pool =
            StationPool::start(run, self.workers.min(n).max(1), Vec::new()).map_err(start_error)?;
        pool.listen(listener).map_err(io_error)?;
        self.drive(pool)
    }

    /// The pool owner for one run. `expected[s]` is `None` for a source
    /// outside the run, which counts as settled; so does a source that
    /// expects nothing over an already-quiescent shard.
    fn run_state(&self, expected: &[Option<u64>]) -> Result<Run, WarehouseError> {
        let settled = expected
            .iter()
            .enumerate()
            .map(|(s, e)| {
                let born = e.map_or(true, |e| e == 0 && lock(&self.set.shards[s]).is_quiescent());
                AtomicBool::new(born)
            })
            .collect();
        Ok(Run {
            set: Arc::clone(&self.set),
            owed: expected
                .iter()
                .map(|e| AtomicU64::new(e.unwrap_or(0)))
                .collect(),
            settled,
            processed: AtomicU64::new(0),
            error: Mutex::new(None),
            monitor: PollWaker::new().map_err(io_error)?,
        })
    }

    /// Wait on the calling thread until every source settles or the run
    /// fails, then stop the pool, which hangs up every station. A pool
    /// thread's panic is raised here, as a scoped thread's would be.
    fn drive(&self, pool: StationPool<Run>) -> Result<u64, WarehouseError> {
        let outcome = self.watch(pool.owner());
        pool.stop()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        outcome
    }

    fn watch(&self, run: &Run) -> Result<u64, WarehouseError> {
        let (mut last, mut since) = (0, Instant::now());
        loop {
            let seen = run.monitor.epoch();
            if let Some(err) = lock(&run.error).take() {
                return Err(err);
            }
            let unsettled = run.settled.iter().position(|s| !s.load(Ordering::Acquire));
            let Some(source) = unsettled else {
                return Ok(run.processed.load(Ordering::Acquire));
            };
            let now = run.processed.load(Ordering::Acquire);
            if now != last {
                (last, since) = (now, Instant::now());
            }
            let idle = since.elapsed();
            if idle >= self.stall_timeout {
                return Err(WarehouseError::SourceStalled { source });
            }
            let check = (self.stall_timeout - idle).min(Duration::from_millis(50));
            run.monitor.wait(seen, &mut Vec::new(), check);
        }
    }
}

/// What one [`ReactorWarehouse::run`] or
/// [`ReactorWarehouse::run_listener`] call shares with its pool. Keys are
/// source indices.
struct Run {
    set: Arc<ShardSet>,
    /// Update notifications each source still owes.
    owed: Vec<AtomicU64>,
    /// Every owed notification handled and the shard quiescent. Sticky:
    /// sources only answer queries the warehouse asked.
    settled: Vec<AtomicBool>,
    /// Messages handled across all sources (the run's return value).
    processed: AtomicU64,
    /// First error wins.
    error: Mutex<Option<WarehouseError>>,
    /// Moved when a source settles or the run fails: the calling thread
    /// parks here, not on the pool's waker, which moves on every arrival.
    monitor: Arc<PollWaker>,
}

impl Run {
    fn fail(&self, err: WarehouseError) {
        lock(&self.error).get_or_insert(err);
        self.monitor.notify();
    }
}

impl StationOwner for Run {
    type Key = usize;

    fn handle(&self, source: usize, msg: Message, replies: &mut Vec<Message>) {
        let note = u64::from(matches!(msg, Message::UpdateNotification { .. }));
        let mut shard = lock(&self.set.shards[source]);
        match shard.on_message(msg) {
            Ok(queries) => replies.extend(queries),
            Err(err) => return self.fail(err),
        }
        self.processed.fetch_add(1, Ordering::AcqRel);
        // Only this source's home worker writes its count.
        let owed = self.owed[source]
            .load(Ordering::Acquire)
            .saturating_sub(note);
        self.owed[source].store(owed, Ordering::Release);
        if owed == 0 && !self.settled[source].load(Ordering::Acquire) && shard.is_quiescent() {
            self.settled[source].store(true, Ordering::Release);
            self.monitor.notify();
        }
    }

    fn closed(&self, source: usize, exit: Exit) {
        // A settled source may hang up; everything else fails the run.
        if !(matches!(exit, Exit::HungUp) && self.settled[source].load(Ordering::Acquire)) {
            self.fail(exit_error(source, exit));
        }
    }

    /// Blocking, timeout- and length-capped read of the opening
    /// [`Message::Hello`]. A peer that hangs up, times out or sends
    /// garbage (including a length prefix over [`HELLO_MAX_LEN`], which
    /// is rejected *before* any allocation could trust it) is a stray —
    /// a port scan, a health probe — and is dropped without disturbing
    /// the run. A `Hello` naming an unregistered source fails the run.
    fn gate(&self, stream: &TcpStream) -> Option<usize> {
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
        let frame = read_frame_capped(&mut &*stream, HELLO_MAX_LEN).ok()??;
        let Ok(Message::Hello { epoch }) = Message::decode(frame) else {
            return None;
        };
        checked(SourceId(epoch as usize), self.set.shards.len())
            .map_err(|err| self.fail(err))
            .ok()
    }
}

fn io_error(e: std::io::Error) -> WarehouseError {
    WarehouseError::Transport(TransportError::Io(e))
}

fn start_error(e: StartError<usize>) -> WarehouseError {
    match e {
        StartError::Refused(source, exit) => exit_error(source, exit),
        StartError::Io(e) => io_error(e),
    }
}

/// The error a station's exit means for the run.
fn exit_error(source: usize, exit: Exit) -> WarehouseError {
    match exit {
        Exit::HungUp => WarehouseError::SourceHungUp { source },
        Exit::Faulted(e) => WarehouseError::Transport(e),
        Exit::Duplicate => WarehouseError::DuplicateSource { source },
        Exit::WakerRejected => WarehouseError::WakerRejected { source },
        // `drive` raises the panic itself once this error stops the run.
        Exit::Panicked => io_error(std::io::Error::other("a pool worker panicked")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::{BaseDb, ViewDef};
    use eca_relational::{Predicate, Schema, Tuple, Update};
    use eca_wire::{SharedFifo, TransferMeter};

    fn view_def(name: &str, r1: &str, r2: &str) -> ViewDef {
        ViewDef::new(
            name,
            vec![Schema::new(r1, &["W", "X"]), Schema::new(r2, &["X", "Y"])],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap()
    }

    /// Build `sources` scripted sources each hosting `views_per` copies
    /// of the two-relation join view, run them against a reactor with
    /// `workers` workers, and check convergence against direct
    /// evaluation.
    fn run_scripted(sources: usize, views_per: usize, workers: usize) {
        let mut wh = Warehouse::new();
        let mut dbs = Vec::new();
        let mut defs = Vec::new();
        let mut ids = Vec::new();
        for s in 0..sources {
            let src = wh.add_source(format!("s{s}"));
            let (r1, r2) = (format!("q{s}_1"), format!("q{s}_2"));
            let mut db = BaseDb::new();
            db.register(&r1);
            db.register(&r2);
            db.insert(&r1, Tuple::ints([1, 2]));
            for v in 0..views_per {
                let view = view_def(&format!("V{s}_{v}"), &r1, &r2);
                let initial = view.eval(&db).unwrap();
                let id = wh
                    .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
                    .unwrap();
                defs.push(view);
                ids.push((s, id));
            }
            dbs.push(db);
        }
        let rw = wh.into_reactor(workers);

        std::thread::scope(|scope| {
            let mut endpoints = Vec::new();
            for (s, db) in dbs.iter_mut().enumerate() {
                let (mut src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
                let (r1, r2) = (format!("q{s}_1"), format!("q{s}_2"));
                let updates = vec![
                    Update::insert(&r2, Tuple::ints([2, 3])),
                    Update::insert(&r1, Tuple::ints([4, 2])),
                    Update::delete(&r1, Tuple::ints([1, 2])),
                ];
                endpoints.push((
                    SourceId(s),
                    Box::new(wh_end) as Box<dyn Transport + Send>,
                    updates.len() as u64,
                ));
                scope.spawn(move || {
                    for u in &updates {
                        db.apply(u);
                        src_end
                            .send(&Message::UpdateNotification { update: u.clone() })
                            .unwrap();
                    }
                    let catalog =
                        vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])];
                    while let Some(msg) = src_end.recv().unwrap() {
                        let Message::QueryRequest { id, query } = msg else {
                            panic!("unexpected message at source");
                        };
                        let answer = query.to_query(&catalog).unwrap().eval(db).unwrap();
                        src_end.send(&Message::QueryAnswer { id, answer }).unwrap();
                    }
                });
            }
            rw.run(endpoints).unwrap();
        });

        assert!(rw.is_quiescent());
        for (k, (s, id)) in ids.iter().enumerate() {
            assert_eq!(rw.materialized(*id), defs[k].eval(&dbs[*s]).unwrap());
        }
    }

    /// More sources than workers: the pool multiplexes 8 channels over
    /// 2 workers and still converges every view.
    #[test]
    fn eight_sources_two_workers_converge() {
        run_scripted(8, 2, 2);
    }

    /// Degenerate single-worker pool: pure event-loop mode.
    #[test]
    fn single_worker_still_converges() {
        run_scripted(4, 1, 1);
    }

    /// More workers than sources: surplus workers must not deadlock or
    /// double-process.
    #[test]
    fn more_workers_than_sources() {
        run_scripted(2, 1, 8);
    }

    /// Self-maintenance through the reactor path: with keyed coverage
    /// every compensating query is answered at the warehouse, so the
    /// per-link meter must record zero warehouse→source messages — the
    /// raw-frame proof that local answers never touch the wire.
    #[test]
    fn eca_aux_reactor_link_stays_quiet() {
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
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        db.insert("r1", Tuple::ints([1, 2]));

        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let initial = view.eval(&db).unwrap();
        let vid = wh
            .add_view(
                src,
                AlgorithmKind::EcaAux
                    .instantiate_with_base(&view, initial, Some(db.clone()))
                    .unwrap(),
            )
            .unwrap();
        let rw = wh.into_reactor(2);

        let meter = TransferMeter::new();
        let (mut src_end, wh_end) = SharedFifo::pair(meter.clone());
        let updates = vec![
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::delete("r1", Tuple::ints([1, 2])),
        ];
        std::thread::scope(|scope| {
            let db_ref = &mut db;
            let updates_ref = &updates;
            scope.spawn(move || {
                for u in updates_ref {
                    db_ref.apply(u);
                    src_end
                        .send(&Message::UpdateNotification { update: u.clone() })
                        .unwrap();
                }
                // No QueryRequest may ever arrive; recv returns None
                // when the reactor closes the channel.
                if let Some(msg) = src_end.recv().unwrap() {
                    panic!("self-maintained view queried the source: {msg:?}");
                }
            });
            rw.run(vec![(src, Box::new(wh_end), updates.len() as u64)])
                .unwrap();
        });

        assert!(rw.is_quiescent());
        assert_eq!(rw.materialized(vid), view.eval(&db).unwrap());
        assert_eq!(meter.messages_w2s(), 0, "no frame left the warehouse");
        assert_eq!(meter.answer_bytes(), 0);
    }

    #[test]
    fn early_hangup_is_an_error() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let rw = wh.into_reactor(2);
        let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
        drop(src_end); // peer gone before any notification
        assert!(matches!(
            rw.run(vec![(src, Box::new(wh_end), 1)]),
            Err(WarehouseError::SourceHungUp { source: 0 })
        ));
    }

    /// An endpoint naming a source the warehouse never registered is a
    /// typed error raised before any worker is spawned — not an index
    /// panic while counting born-settled stations.
    #[test]
    fn unregistered_source_is_a_typed_error() {
        let mut wh = Warehouse::new();
        wh.add_source("s");
        let rw = wh.into_reactor(2);
        let (_src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
        assert!(matches!(
            rw.run(vec![(SourceId(7), Box::new(wh_end), 1)]),
            Err(WarehouseError::UnknownSource { id: 7 })
        ));
    }

    /// Two channels for one source would feed one session from two
    /// FIFOs, breaking the per-channel order §3 relies on: `run` refuses
    /// them before any thread starts, as `run_listener` refuses a second
    /// `Hello`.
    #[test]
    fn two_endpoints_for_one_source_are_refused() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let rw = wh.into_reactor(2);
        let (_a, a) = SharedFifo::pair(TransferMeter::new());
        let (_b, b) = SharedFifo::pair(TransferMeter::new());
        assert!(matches!(
            rw.run(vec![(src, Box::new(a), 0), (src, Box::new(b), 0)]),
            Err(WarehouseError::DuplicateSource { source: 0 })
        ));
    }

    #[test]
    fn silent_source_stalls_out() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let mut rw = wh.into_reactor(2);
        rw.set_stall_timeout(Duration::from_millis(50));
        let (_src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
        // Peer stays connected but never sends the promised update.
        assert!(matches!(
            rw.run(vec![(src, Box::new(wh_end), 1)]),
            Err(WarehouseError::SourceStalled { source: 0 })
        ));
    }

    /// A transport that can neither notify a waker nor hand over a
    /// descriptor (the trait-default `set_waker` and `poll_fd`) is
    /// rejected at registration with a typed error instead of being
    /// served at a timed poll interval that hides the misconfiguration.
    #[test]
    fn waker_rejecting_transport_fails_registration() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let rw = wh.into_reactor(2);
        // A transport that leans on the trait-default `set_waker` and
        // `poll_fd`.
        struct NoWaker(TransferMeter);
        impl Transport for NoWaker {
            fn send(&mut self, _msg: &Message) -> Result<(), TransportError> {
                Ok(())
            }
            fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
                Ok(None)
            }
            fn drain_into(
                &mut self,
                _: &mut Vec<Message>,
                _: usize,
            ) -> Result<usize, TransportError> {
                Ok(0)
            }
            fn recv(&mut self) -> Result<Option<Message>, TransportError> {
                Ok(None)
            }
            fn poll(&mut self) -> Result<eca_wire::Readiness, TransportError> {
                Ok(eca_wire::Readiness::Idle)
            }
            fn meter(&self) -> &TransferMeter {
                &self.0
            }
        }
        assert!(matches!(
            rw.run(vec![(src, Box::new(NoWaker(TransferMeter::new())), 1)]),
            Err(WarehouseError::WakerRejected { source: 0 })
        ));
    }

    /// Live accept: sources dial in over loopback TCP *after* the pool
    /// is running — staggered, in arbitrary order — handshake with
    /// `Hello`, and every view still converges to direct evaluation.
    #[test]
    fn listener_accepts_live_tcp_sources() {
        use eca_relational::{Predicate, Schema};
        let sources = 4;
        let mut wh = Warehouse::new();
        let mut dbs = Vec::new();
        let mut defs = Vec::new();
        let mut ids = Vec::new();
        for s in 0..sources {
            let src = wh.add_source(format!("s{s}"));
            let (r1, r2) = (format!("q{s}_1"), format!("q{s}_2"));
            let mut db = BaseDb::new();
            db.register(&r1);
            db.register(&r2);
            db.insert(&r1, Tuple::ints([1, 2]));
            let view = ViewDef::new(
                format!("V{s}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                vec![0],
            )
            .unwrap();
            let initial = view.eval(&db).unwrap();
            let id = wh
                .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
                .unwrap();
            defs.push(view);
            ids.push((s, id));
            dbs.push(db);
        }
        let rw = wh.into_reactor(2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let expected = vec![3u64; sources];

        std::thread::scope(|scope| {
            for (s, db) in dbs.iter_mut().enumerate() {
                scope.spawn(move || {
                    // Stagger the dials so late joiners land on an
                    // already-busy pool.
                    std::thread::sleep(Duration::from_millis(7 * s as u64));
                    let mut t = connect_source(addr, SourceId(s), TransferMeter::new()).unwrap();
                    let (r1, r2) = (format!("q{s}_1"), format!("q{s}_2"));
                    for u in [
                        Update::insert(&r2, Tuple::ints([2, 3])),
                        Update::insert(&r1, Tuple::ints([4, 2])),
                        Update::delete(&r1, Tuple::ints([1, 2])),
                    ] {
                        db.apply(&u);
                        t.send(&Message::UpdateNotification { update: u }).unwrap();
                    }
                    let catalog =
                        vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])];
                    while let Some(msg) = t.recv().unwrap() {
                        let Message::QueryRequest { id, query } = msg else {
                            panic!("unexpected message at source");
                        };
                        let answer = query.to_query(&catalog).unwrap().eval(db).unwrap();
                        t.send(&Message::QueryAnswer { id, answer }).unwrap();
                    }
                });
            }
            rw.run_listener(listener, &poller, &expected).unwrap();
        });

        assert!(rw.is_quiescent());
        for (k, (s, id)) in ids.iter().enumerate() {
            assert_eq!(rw.materialized(*id), defs[k].eval(&dbs[*s]).unwrap());
        }
    }

    /// Stray connections — port scans, health probes — must not kill a
    /// live-accept run: a peer that hangs up before `Hello`, one that
    /// sends a garbage length prefix claiming a ~4 GiB frame (which
    /// must be rejected before any allocation trusts it), and one that
    /// speaks a well-formed non-`Hello` frame are all dropped, while
    /// the genuine source converges normally.
    #[test]
    fn listener_drops_garbage_connections() {
        use std::io::Write as _;
        let mut wh = Warehouse::new();
        let src = wh.add_source("s0");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        db.insert("r1", Tuple::ints([1, 2]));
        let initial = view.eval(&db).unwrap();
        let vid = wh
            .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let rw = wh.into_reactor(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();

        std::thread::scope(|scope| {
            let db = &mut db;
            scope.spawn(move || {
                // EOF before any handshake byte.
                drop(TcpStream::connect(addr).unwrap());
                // Garbage length prefix: 0xFFFFFFFF.
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&[0xff, 0xff, 0xff, 0xff]).unwrap();
                drop(s);
                // A well-formed frame that is not a Hello.
                let mut s = TcpStream::connect(addr).unwrap();
                write_frame(
                    &mut s,
                    &Message::UpdateNotification {
                        update: Update::insert("r1", Tuple::ints([9, 9])),
                    },
                )
                .unwrap();
                drop(s);
                // The genuine source dials in and completes its script.
                let mut t = connect_source(addr, SourceId(0), TransferMeter::new()).unwrap();
                let update = Update::insert("r2", Tuple::ints([2, 3]));
                db.apply(&update);
                t.send(&Message::UpdateNotification { update }).unwrap();
                let catalog = vec![
                    Schema::new("r1", &["W", "X"]),
                    Schema::new("r2", &["X", "Y"]),
                ];
                while let Some(msg) = t.recv().unwrap() {
                    let Message::QueryRequest { id, query } = msg else {
                        panic!("unexpected message at source");
                    };
                    let answer = query.to_query(&catalog).unwrap().eval(db).unwrap();
                    t.send(&Message::QueryAnswer { id, answer }).unwrap();
                }
            });
            rw.run_listener(listener, &poller, &[1]).unwrap();
        });

        assert!(rw.is_quiescent());
        assert_eq!(rw.materialized(vid), view.eval(&db).unwrap());
    }

    /// A dialer announcing a source id the warehouse never registered
    /// fails the run with a typed error instead of wedging the pool.
    #[test]
    fn listener_rejects_unknown_source() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let rw = wh.into_reactor(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let dialer = std::thread::spawn(move || {
            // Wrong id; the transport is dropped as soon as the run
            // fails, which this thread observes as EOF or reset.
            let _ = connect_source(addr, SourceId(9), TransferMeter::new());
        });
        let err = rw.run_listener(listener, &poller, &[1]).unwrap_err();
        assert!(matches!(err, WarehouseError::UnknownSource { id: 9 }));
        dialer.join().unwrap();
    }

    #[test]
    fn nothing_expected_settles_immediately() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let rw = wh.into_reactor(1);
        let (_src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
        assert_eq!(rw.run(vec![(src, Box::new(wh_end), 0)]).unwrap(), 0);
    }

    /// Sessions carry over to the reactor untouched: a query put in
    /// flight on the serial warehouse (one reset in, so epoch 1) is
    /// answered over a reactor-driven link under the same global id and
    /// epoch, and the view converges.
    #[test]
    fn into_reactor_carries_in_flight_sessions() {
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        db.insert("r1", Tuple::ints([1, 2]));
        let u = Update::insert("r2", Tuple::ints([2, 3]));

        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let initial = view.eval(&db).unwrap();
        let vid = wh
            .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        assert!(wh.on_reset(src, false).unwrap().is_empty());
        let q = wh.on_update(src, &u).unwrap().remove(0);
        assert_eq!(wh.epoch(src), 1);
        db.apply(&u);

        let rw = wh.into_reactor(2);
        assert!(!rw.is_quiescent(), "the in-flight query survived");
        {
            let shard = lock(&rw.set.shards[src.0]);
            assert_eq!(shard.session.epoch(), 1);
            assert_eq!(shard.session.oldest_pending(), Some(q.id));
        }
        // No notification is owed; the station settles on the answer
        // to the carried query alone.
        let (mut src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
        let answer = q.query.eval(&db).unwrap();
        src_end
            .send(&Message::QueryAnswer { id: q.id, answer })
            .unwrap();
        assert_eq!(rw.run(vec![(src, Box::new(wh_end), 0)]).unwrap(), 1);
        assert!(rw.is_quiescent());
        assert_eq!(rw.materialized(vid), view.eval(&db).unwrap());
    }

    /// Fairness: a scripted flooder streaming notifications that touch
    /// no view shares the single worker with a well-behaved source, and
    /// both settle: the flood drains fully without starving the other.
    #[test]
    fn flooding_source_does_not_starve_others() {
        let mut wh = Warehouse::new();
        let flooder = wh.add_source("flooder");
        let polite = wh.add_source("polite");
        // Only the polite source hosts a view; the flooder's updates
        // touch no view, so the reactor absorbs them as pure channel
        // traffic at its own pace.
        let view = view_def("V", "p1", "p2");
        let mut db = BaseDb::new();
        db.register("p1");
        db.register("p2");
        db.insert("p1", Tuple::ints([1, 2]));
        let initial = view.eval(&db).unwrap();
        let vid = wh
            .add_view(
                polite,
                AlgorithmKind::Eca.instantiate(&view, initial).unwrap(),
            )
            .unwrap();
        let rw = wh.into_reactor(1);

        const FLOOD: u64 = 256;

        std::thread::scope(|scope| {
            let (mut flood_src, flood_wh) = SharedFifo::pair(TransferMeter::new());
            scope.spawn(move || {
                for i in 0..FLOOD {
                    flood_src
                        .send(&Message::UpdateNotification {
                            update: Update::insert("noise", Tuple::ints([i as i64])),
                        })
                        .unwrap();
                }
            });

            // Polite source: normal script, must settle even while the
            // flooder hammers the same single worker.
            let (mut polite_src, polite_wh) = SharedFifo::pair(TransferMeter::new());
            scope.spawn(move || {
                let update = Update::insert("p2", Tuple::ints([2, 3]));
                db.apply(&update);
                polite_src
                    .send(&Message::UpdateNotification { update })
                    .unwrap();
                let catalog = vec![
                    Schema::new("p1", &["W", "X"]),
                    Schema::new("p2", &["X", "Y"]),
                ];
                while let Some(msg) = polite_src.recv().unwrap() {
                    let Message::QueryRequest { id, query } = msg else {
                        panic!("unexpected message at source");
                    };
                    let answer = query.to_query(&catalog).unwrap().eval(&db).unwrap();
                    polite_src
                        .send(&Message::QueryAnswer { id, answer })
                        .unwrap();
                }
            });

            // Settles only once every flooded notification is handled.
            rw.run(vec![
                (flooder, Box::new(flood_wh), FLOOD),
                (polite, Box::new(polite_wh), 1),
            ])
            .unwrap();
        });

        // The polite source made full progress despite the flood.
        assert!(rw.is_quiescent());
        let expect = view
            .eval(&{
                let mut db = BaseDb::new();
                db.register("p1");
                db.register("p2");
                db.insert("p1", Tuple::ints([1, 2]));
                db.insert("p2", Tuple::ints([2, 3]));
                db
            })
            .unwrap();
        assert_eq!(rw.materialized(vid), expect);
    }
}

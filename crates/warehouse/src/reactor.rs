//! The reactor driver — the one threaded warehouse driver: a fixed
//! worker pool (`workers = 1..N`) multiplexing every source channel over
//! `Transport::poll()` readiness.
//!
//! The paper's premise (§1, Figure 1.1) is that sources are autonomous —
//! nothing synchronizes update streams arriving from different sites, and
//! §7 observes that with single-source views "ECA is simply applied to
//! each view separately". Warehouse state is already one shard per
//! source, so [`Warehouse::into_reactor`] only puts each shard behind its
//! own lock; correctness needs no cross-source ordering, because ECA's §3
//! argument relies only on per-channel FIFO delivery of `W_up`/`W_ans`
//! events, and the shard lock makes each event's transition atomic. A
//! thread parked in `recv` per source would satisfy that too, but costs a
//! kernel thread per idle channel; the reactor serves *all* channels from
//! a small fixed pool:
//!
//! * **Poll loop.** Each source gets a `Station` wrapping its
//!   transport, a bounded inbox and per-station progress counters. A
//!   station's *home worker* (`station_index % workers`) is the only
//!   thread that polls its transport, so per-channel FIFO arrival order —
//!   the §3 correctness foundation — is preserved by construction: a
//!   single producer appends to the inbox in arrival order.
//! * **Shard pinning + work-stealing.** Event processing is decoupled
//!   from polling: any worker may *claim* a station (an atomic busy
//!   flag) and drain its inbox through the shard, so a worker whose home
//!   stations are idle steals processing from stations whose
//!   compensating-query answers have piled up. The claim flag keeps
//!   processing single-threaded per station, so events still apply in
//!   arrival order.
//! * **Backpressure.** Inboxes are bounded: once a station holds 64
//!   undrained events its home worker stops polling the transport,
//!   which (over a bounded [`eca_wire::SharedFifo`]) blocks the
//!   flooding source while every other station keeps making progress.
//! * **Parking.** Workers snapshot a shared [`eca_wire::PollWaker`]
//!   epoch before scanning; if a full scan makes no progress they sleep
//!   on the waker, which every transport notifies on arrival and every
//!   worker notifies after handing work to a peer. An idle reactor burns
//!   ~0 CPU instead of spinning.
//!
//! * **Live accept.** [`ReactorWarehouse::run_listener`] binds the pool
//!   to a TCP listener: sources dial in (see [`connect_source`]), open
//!   with a `Hello` handshake naming their [`SourceId`], and join the
//!   running reactor as poller-driven stations — no restart, and no
//!   thread per connection. Total OS threads stay at
//!   `workers + 1 accept loop + 1 poller` no matter how many sources
//!   connect.
//!
//! The serial [`Warehouse`] remains the golden-trace reference; the
//! reactor must (and is tested to) produce byte-identical meters and
//! state histories on every scenario, because both drivers apply the
//! same per-source event order to the same shard state machine.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use eca_wire::{
    read_frame_capped, write_frame, Message, PollWaker, Poller, Readiness, Role, TcpTransport,
    TransferMeter, Transport, TransportError,
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

/// What a home-worker probe of a station observed; governs whether the
/// scan epoch may be recorded (see `Station::scanned`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Probe {
    /// Messages moved: drained into the inbox or applied inline.
    Progress,
    /// The transport was actually probed and found idle — safe to skip
    /// this station until its waker epoch moves again.
    Idle,
    /// The probe never reached the transport (inbox full, e.g. while
    /// another worker holds the claim pre-drain): buffered input may
    /// remain whose arrival notifications were already consumed, so the
    /// station must be rescanned even without a fresh notification.
    Skipped,
}

/// Per-source channel state owned by the reactor run loop.
struct Station {
    /// Index into `ReactorWarehouse::shards` (== `SourceId.0`).
    source: usize,
    /// Only the home worker touches the transport (single poller ⇒
    /// single inbox producer ⇒ FIFO preserved), but replies are sent by
    /// whichever worker holds the processing claim, so it sits behind a
    /// lock.
    transport: Mutex<Box<dyn Transport + Send>>,
    /// Arrival-ordered events waiting for a worker; bounded by
    /// `inbox_cap`.
    inbox: Mutex<VecDeque<Message>>,
    /// Mirror of `inbox.len()`, written only while holding the inbox
    /// lock. Lets the hot scan paths skip stations with nothing queued
    /// without taking the lock (a stale read just defers one scan).
    queued: AtomicUsize,
    /// Processing claim: at most one worker drains the inbox at a time.
    busy: AtomicBool,
    /// Update notifications seen so far vs the number the script will
    /// send; settling requires all of them plus shard quiescence.
    notifications: AtomicU64,
    expected: u64,
    /// The transport reported `Readiness::Closed`.
    closed: AtomicBool,
    /// Settled: all notifications arrived, inbox drained, shard
    /// quiescent. Terminal — sources only answer queries we asked.
    done: AtomicBool,
    /// Per-station arrival counter ([`PollWaker::chained`] to the run's
    /// shared waker): the transport notifies it on every delivery, so
    /// the home worker knows whether this channel has spoken since its
    /// last probe.
    waker: Arc<PollWaker>,
    /// `waker` epoch as of the last probe that found the transport
    /// *idle*. Home scans skip the station (no transport lock, no read
    /// syscall) while the epoch still matches — turning an O(stations)
    /// re-probe per wake-up into a probe of only the channels that
    /// fired. `u64::MAX` forces the first probe.
    scanned: AtomicU64,
}

impl Station {
    fn new(
        source: SourceId,
        transport: Box<dyn Transport + Send>,
        expected: u64,
        waker: Arc<PollWaker>,
    ) -> Station {
        Station {
            source: source.0,
            transport: Mutex::new(transport),
            inbox: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            busy: AtomicBool::new(false),
            notifications: AtomicU64::new(0),
            expected,
            closed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            waker,
            scanned: AtomicU64::new(u64::MAX),
        }
    }
}

/// Shared state for one [`ReactorWarehouse::run`] or
/// [`ReactorWarehouse::run_listener`] call.
///
/// Station slots are [`OnceLock`]s so the listener thread can register a
/// freshly accepted connection *while the worker pool is already
/// running*: workers skip unfilled slots, and a `set` + waker
/// notification makes the new station visible to its home worker on the
/// next scan. [`ReactorWarehouse::run`] fills every slot up front, so
/// the two entry points share the whole loop unchanged.
struct RunState {
    stations: Vec<OnceLock<Station>>,
    /// Sources that were settled before any connection arrived (nothing
    /// expected, shard quiescent). Their slots may legitimately stay
    /// empty forever, so stall detection skips them.
    born_settled: Vec<bool>,
    /// Notified by transports on arrival and by workers when they
    /// enqueue stealable work, finish a station or record an error.
    waker: Arc<PollWaker>,
    /// Stations not yet done; `run` returns when this reaches zero.
    remaining: AtomicUsize,
    /// Messages processed across all stations (the `run` return value).
    processed: AtomicU64,
    /// First error wins; everyone else unwinds.
    error: Mutex<Option<WarehouseError>>,
    /// Instant of the last global progress, for stall detection.
    last_progress: Mutex<Instant>,
    /// Live-accept mode: the listener's local address. A finishing
    /// worker pokes it with a throwaway connection so the accept loop
    /// wakes up and observes `accept_done`.
    listener_addr: Option<SocketAddr>,
    /// The run is over; the accept loop must exit instead of admitting.
    accept_done: AtomicBool,
}

impl RunState {
    fn fail(&self, err: WarehouseError) {
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.waker.notify();
    }

    fn failed(&self) -> bool {
        lock(&self.error).is_some()
    }

    fn touch_progress(&self) {
        *lock(&self.last_progress) = Instant::now();
    }

    fn since_progress(&self) -> Duration {
        lock(&self.last_progress).elapsed()
    }

    /// Unblock the accept loop at end of run (first caller wins). The
    /// listener thread spends its life parked in `accept`; a local
    /// throwaway connection is the portable way to kick it loose.
    fn finish_listener(&self) {
        let Some(addr) = self.listener_addr else {
            return;
        };
        if !self.accept_done.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A warehouse's shards behind per-source locks, plus the lock-free
/// tables beside them. Workers never contend on a shard lock (the
/// station claim already serializes processing per source); the lock is
/// what lets result accessors read a shard while the pool runs, and the
/// fallback that would serialize access if a future view spanned sources
/// (none do today; see DESIGN.md §11).
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
    set: ShardSet,
    workers: usize,
    inbox_cap: usize,
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
            set: ShardSet {
                names: self.names,
                shards: self.shards.into_iter().map(Mutex::new).collect(),
                view_index: self.view_index,
            },
            workers,
            inbox_cap: 64,
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

    /// Every `MV` state a view passed through, starting with its initial
    /// state — the warehouse half of the §3.1 consistency check.
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

    /// Bound each station's inbox (default 64 events). Once full, the
    /// home worker stops draining that transport until a worker catches
    /// up — over a bounded link this blocks the flooding source without
    /// touching anyone else.
    ///
    /// # Panics
    /// If `cap == 0` (a zero-slot inbox could never accept an event).
    #[cfg(test)]
    fn set_inbox_cap(&mut self, cap: usize) {
        assert!(cap > 0, "inbox capacity must be at least 1");
        self.inbox_cap = cap;
    }

    /// Change the stall timeout (default 30 s): the longest stretch with
    /// no progress on *any* station the reactor tolerates while
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
    /// threaded deployments meter each link once, on the source side
    /// (`Source::serve`/`serve_fleet` record them), because both ends of
    /// a [`eca_wire::SharedFifo`] share one meter.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`], before any thread is spawned,
    /// if an endpoint names an unregistered source;
    /// [`WarehouseError::WakerRejected`] if any transport refuses the
    /// shared poll waker — the reactor's parking discipline requires
    /// arrival notifications from every channel, so registration fails
    /// loudly instead of silently degrading to a poll interval;
    /// [`WarehouseError::SourceHungUp`] if a peer disconnects before its
    /// station settles; [`WarehouseError::SourceStalled`] if no station
    /// makes progress for a full stall timeout while any is unsettled;
    /// transport, routing and maintainer failures. First error wins and
    /// stops the pool.
    pub fn run(
        &self,
        endpoints: Vec<(SourceId, Box<dyn Transport + Send>, u64)>,
    ) -> Result<u64, WarehouseError> {
        let waker = PollWaker::new();
        let mut stations = Vec::with_capacity(endpoints.len());
        for (source, mut transport, expected) in endpoints {
            checked(source, self.set.shards.len())?;
            let st_waker = PollWaker::chained(Arc::clone(&waker));
            if !transport.set_waker(Arc::clone(&st_waker)) {
                return Err(WarehouseError::WakerRejected { source: source.0 });
            }
            stations.push(Station::new(source, transport, expected, st_waker));
        }
        // A station expecting nothing from an already-quiescent shard is
        // born settled; count the rest.
        let mut remaining = 0usize;
        for st in &stations {
            if st.expected == 0 && lock(&self.set.shards[st.source]).is_quiescent() {
                st.done.store(true, Ordering::Release);
            } else {
                remaining += 1;
            }
        }
        let born_settled = vec![false; stations.len()];
        let state = RunState {
            stations: stations
                .into_iter()
                .map(|st| {
                    let slot = OnceLock::new();
                    let _ = slot.set(st);
                    slot
                })
                .collect(),
            born_settled,
            waker,
            remaining: AtomicUsize::new(remaining),
            processed: AtomicU64::new(0),
            error: Mutex::new(None),
            last_progress: Mutex::new(Instant::now()),
            listener_addr: None,
            accept_done: AtomicBool::new(false),
        };
        let workers = self.workers.min(state.stations.len()).max(1);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let state = &state;
                scope.spawn(move || self.worker_loop(state, w, workers));
            }
        });
        Self::into_outcome(state)
    }

    /// Serve sources that dial in over TCP while the pool is running,
    /// instead of receiving pre-built transports. `listener` should
    /// already be bound; each accepted connection must open with a
    /// [`Message::Hello`] handshake frame carrying its [`SourceId`]
    /// (dial with [`connect_source`]), after which the stream joins the
    /// reactor as a poller-driven station pinned to its home worker —
    /// registration happens live, no restart, no thread per connection.
    /// `expected[s]` is the number of update notifications source `s`
    /// will send, exactly as in [`ReactorWarehouse::run`].
    ///
    /// Thread accounting: `workers.min(sources)` pooled workers plus
    /// this one accept loop, regardless of how many sources connect —
    /// the readiness multiplexing lives in `poller`'s single thread.
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
    /// registered source and [`WarehouseError::UnexpectedMessage`] for
    /// a duplicate connection. Connections that never complete a valid
    /// `Hello` (port scans, garbage, handshake timeouts) are dropped
    /// silently — only a peer that authenticated as a source can fail
    /// the run.
    pub fn run_listener(
        &self,
        listener: TcpListener,
        poller: &Arc<Poller>,
        expected: &[u64],
    ) -> Result<u64, WarehouseError> {
        let n = self.set.shards.len();
        assert_eq!(
            expected.len(),
            n,
            "expected-notification counts must cover every source"
        );
        let mut born_settled = vec![false; n];
        let mut remaining = 0usize;
        for s in 0..n {
            if expected[s] == 0 && lock(&self.set.shards[s]).is_quiescent() {
                born_settled[s] = true;
            } else {
                remaining += 1;
            }
        }
        let addr = listener
            .local_addr()
            .map_err(|e| WarehouseError::Transport(TransportError::Io(e)))?;
        let state = RunState {
            stations: (0..n).map(|_| OnceLock::new()).collect(),
            born_settled,
            waker: PollWaker::new(),
            remaining: AtomicUsize::new(remaining),
            processed: AtomicU64::new(0),
            error: Mutex::new(None),
            last_progress: Mutex::new(Instant::now()),
            listener_addr: Some(addr),
            accept_done: AtomicBool::new(false),
        };
        if remaining == 0 {
            return Ok(0);
        }
        let workers = self.workers.min(n).max(1);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let state = &state;
                scope.spawn(move || self.worker_loop(state, w, workers));
            }
            let (state, listener) = (&state, &listener);
            scope.spawn(move || self.accept_loop(state, listener, poller, expected));
        });
        Self::into_outcome(state)
    }

    /// Extract the run result once every pool thread has joined.
    fn into_outcome(state: RunState) -> Result<u64, WarehouseError> {
        if let Some(err) = lock(&state.error).take() {
            return Err(err);
        }
        Ok(state.processed.load(Ordering::Acquire))
    }

    /// The listener thread body: accept, handshake, register. Runs until
    /// a finishing worker flips `accept_done` (and pokes us loose with a
    /// throwaway connection) or an admitted source is rejected. Stray
    /// connections that fail the handshake are dropped, not fatal.
    fn accept_loop(
        &self,
        state: &RunState,
        listener: &TcpListener,
        poller: &Arc<Poller>,
        expected: &[u64],
    ) {
        loop {
            if state.accept_done.load(Ordering::Acquire) || state.failed() {
                return;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    state.fail(WarehouseError::Transport(TransportError::Io(e)));
                    return;
                }
            };
            if state.accept_done.load(Ordering::Acquire) {
                return; // the shutdown poke, not a source
            }
            if let Err(err) = self.admit(state, stream, poller, expected) {
                state.fail(err);
                return;
            }
        }
    }

    /// Blocking, timeout- and length-capped read of the opening
    /// [`Message::Hello`] on a freshly accepted connection. `None`
    /// means the peer is not a source speaking our protocol — it hung
    /// up, timed out, or sent garbage (including a length prefix over
    /// [`HELLO_MAX_LEN`], which is rejected *before* any allocation
    /// could trust it) — and the caller should drop the connection.
    fn handshake(stream: &TcpStream) -> Option<u64> {
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
        let mut reader = stream;
        let frame = read_frame_capped(&mut reader, HELLO_MAX_LEN).ok()??;
        match Message::decode(frame) {
            Ok(Message::Hello { epoch }) => Some(epoch),
            _ => None,
        }
    }

    /// Handshake one accepted connection and register its station. The
    /// Hello frame is read *blocking* with a short timeout — the station
    /// only goes non-blocking (and onto the poller) once we know which
    /// source it is.
    ///
    /// A connection that fails the handshake (EOF, timeout, garbage
    /// bytes, an oversized or non-`Hello` frame) is a stray — a port
    /// scan, a health probe — and is dropped without disturbing the
    /// run: `Ok(())`, no station registered, keep accepting. Errors are
    /// reserved for connections that *complete* the handshake and then
    /// prove semantically wrong (unknown source id, duplicate
    /// connection) and for warehouse-local failures.
    fn admit(
        &self,
        state: &RunState,
        stream: TcpStream,
        poller: &Arc<Poller>,
        expected: &[u64],
    ) -> Result<(), WarehouseError> {
        let Some(epoch) = Self::handshake(&stream) else {
            return Ok(());
        };
        let source = checked(SourceId(epoch as usize), state.stations.len())?;
        stream
            .set_read_timeout(None)
            .map_err(|e| WarehouseError::Transport(TransportError::Io(e)))?;
        // The warehouse-side meter is private to this station; §6
        // accounting reads the source-side meters, matching `run`.
        let mut transport = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new())
            .map_err(|e| WarehouseError::Transport(TransportError::Io(e)))?;
        transport.attach_poller(Arc::clone(poller));
        let st_waker = PollWaker::chained(Arc::clone(&state.waker));
        if !transport.set_waker(Arc::clone(&st_waker)) {
            return Err(WarehouseError::WakerRejected { source });
        }
        let st = Station::new(
            SourceId(source),
            Box::new(transport),
            expected[source],
            st_waker,
        );
        if state.born_settled[source] {
            // Settled before it connected: keep the link open for a
            // clean shutdown, but there is nothing to wait for.
            st.done.store(true, Ordering::Release);
        }
        if state.stations[source].set(st).is_err() {
            return Err(WarehouseError::UnexpectedMessage {
                kind: "duplicate Hello",
            });
        }
        // A connection is progress (sources may trickle in for a while)
        // and the new station's home worker may be parked.
        state.touch_progress();
        state.waker.notify();
        Ok(())
    }

    /// One pooled worker: poll home stations' transports into inboxes,
    /// then process any claimable station's inbox (home first, then
    /// steal), parking on the shared waker when a full scan finds
    /// nothing. On the way out, kick the accept loop (live-accept runs
    /// only) so the listener thread joins too.
    fn worker_loop(&self, state: &RunState, worker: usize, workers: usize) {
        self.worker_duty(state, worker, workers);
        state.finish_listener();
    }

    fn worker_duty(&self, state: &RunState, worker: usize, workers: usize) {
        let n = state.stations.len();
        // Reused across iterations: transport drain batches, inbox
        // processing batches and reply staging, so the steady state
        // allocates nothing.
        let mut scratch = Vec::new();
        let mut batch = Vec::new();
        let mut replies = Vec::new();
        loop {
            if state.remaining.load(Ordering::Acquire) == 0 || state.failed() {
                return;
            }
            // Snapshot before scanning: an arrival that lands mid-scan
            // bumps the epoch, so the post-scan wait returns instantly.
            let seen = state.waker.epoch();
            let mut progress = false;

            // 1. Home duty: drain transports into inboxes (sole poller
            //    per station keeps the inbox arrival-ordered). Unfilled
            //    slots are sources that have not dialed in yet.
            let mut home = worker;
            while home < n {
                if let Some(st) = state.stations[home].get() {
                    let st_epoch = st.waker.epoch();
                    if st.scanned.load(Ordering::Acquire) != st_epoch {
                        match self.poll_station(state, st, &mut scratch, &mut replies) {
                            Ok(probe) => {
                                progress |= probe == Probe::Progress;
                                // Record the pre-probe epoch only once
                                // the probe actually ran and proved the
                                // channel idle. A Skipped probe (inbox
                                // full) may leave messages buffered in
                                // the transport whose notifications
                                // were already consumed — draining the
                                // inbox pokes only the pool waker, so
                                // marking Skipped as scanned would park
                                // the station forever. A closed station
                                // must keep re-running hangup detection.
                                if probe == Probe::Idle && !st.closed.load(Ordering::Acquire) {
                                    st.scanned.store(st_epoch, Ordering::Release);
                                }
                            }
                            Err(err) => {
                                state.fail(err);
                                return;
                            }
                        }
                    }
                }
                home += workers;
            }

            // 2. Processing: claim stations and apply their events.
            //    Start at our own home block so distinct workers begin
            //    at distinct stations and only collide when stealing.
            for off in 0..n {
                let idx = (worker + off) % n;
                if let Some(st) = state.stations[idx].get() {
                    match self.process_station(state, st, &mut batch, &mut replies) {
                        Ok(p) => progress |= p,
                        Err(err) => {
                            state.fail(err);
                            return;
                        }
                    }
                }
                if state.failed() {
                    return;
                }
            }

            if progress {
                state.touch_progress();
                continue;
            }
            // Nothing moved: park. Bounded waits keep stall detection
            // live even if a notification is lost; every transport
            // accepted our waker (run rejects otherwise), so there is
            // no poll-interval fallback to fall back to.
            let idle = state.since_progress();
            if idle >= self.stall_timeout {
                // An empty slot is a source that never connected; a
                // filled one reports its own source index (run() slots
                // are endpoint-ordered, not source-ordered).
                let stalled = (0..n).find_map(|i| match state.stations[i].get() {
                    None if !state.born_settled[i] => Some(i),
                    Some(st) if !st.done.load(Ordering::Acquire) => Some(st.source),
                    _ => None,
                });
                if let Some(source) = stalled {
                    state.fail(WarehouseError::SourceStalled { source });
                } else {
                    state.waker.notify();
                }
                return;
            }
            let cap = self.stall_timeout - idle;
            state.waker.wait(seen, cap.min(Duration::from_millis(50)));
        }
    }

    /// Home-worker duty for one station: pull arrived messages off the
    /// transport and get them processed, observe hangups, and wake
    /// processors when stealable work lands. `scratch` is a caller-owned
    /// batch buffer (drained empty on return). The returned [`Probe`]
    /// tells the scan loop whether the transport was actually probed —
    /// only a probe that ran and found the channel idle licenses
    /// skipping the station until its waker epoch moves.
    ///
    /// Fast path: if the station's claim is free, the home worker takes
    /// it and applies each drained batch *inline*, skipping the inbox
    /// hand-off entirely — in the uncontended steady state an event goes
    /// transport → scratch → shard with no queue in between. The inbox
    /// only carries events when another worker holds the claim (it will
    /// drain them) or work is left over for stealing.
    fn poll_station(
        &self,
        state: &RunState,
        st: &Station,
        scratch: &mut Vec<Message>,
        replies: &mut Vec<Message>,
    ) -> Result<Probe, WarehouseError> {
        if st.done.load(Ordering::Acquire) {
            return Ok(Probe::Idle);
        }
        let mut progress = false;
        let mut probed_idle = false;
        let claimed = !st.busy.swap(true, Ordering::AcqRel);
        let inline = claimed && st.queued.load(Ordering::Acquire) == 0;
        if claimed && !inline {
            // Claimed but the inbox has backlog: drain it first so
            // inline processing cannot reorder events.
            st.busy.store(false, Ordering::Release);
        }
        // The per-scan quantum. Inline gets a full inbox worth (events
        // are consumed, not queued — memory stays bounded either way);
        // the hand-off path gets whatever inbox room is left, which is
        // what backpressures a flooding source. Bounding the inline
        // quantum keeps one hot station from starving its home worker's
        // other stations.
        let mut room = if inline {
            self.inbox_cap
        } else {
            self.inbox_cap
                .saturating_sub(st.queued.load(Ordering::Acquire))
        };
        if room > 0 {
            let mut transport = lock(&st.transport);
            loop {
                if room == 0 {
                    // Quantum exhausted. Hand-off path: backpressure —
                    // the peer's bounded link fills next and blocks the
                    // flooding source. Inline path: yield; the next scan
                    // resumes here.
                    break;
                }
                let taken = transport.drain_into(scratch, room)?;
                if taken > 0 {
                    progress = true;
                    room -= taken;
                    if inline {
                        // Claim held and the transport lock is ours:
                        // apply straight to the shard, replies go out
                        // without ever touching the inbox. Errors are
                        // fatal to the whole run, so the claim leaking
                        // on `?` is moot.
                        self.apply_batch(state, st, scratch, replies)?;
                        for reply in replies.drain(..) {
                            transport.send(&reply)?;
                        }
                    } else {
                        let mut inbox = lock(&st.inbox);
                        inbox.extend(scratch.drain(..));
                        st.queued.store(inbox.len(), Ordering::Release);
                    }
                    continue;
                }
                match transport.poll()? {
                    Readiness::Ready => continue, // arrived between drain and poll
                    Readiness::Idle => {
                        probed_idle = true;
                        break;
                    }
                    Readiness::Closed => {
                        st.closed.store(true, Ordering::Release);
                        break;
                    }
                }
            }
        }
        if inline {
            if progress {
                self.try_settle(state, st);
            }
            st.busy.store(false, Ordering::Release);
        }
        if progress && !inline {
            // New inbox work is stealable: wake parked workers.
            state.waker.notify();
        }
        // A closed, drained, unclaimed station that never settled will
        // never settle: nothing more can arrive. Declare the hangup here
        // (on the home worker) so it is raised exactly once.
        if st.closed.load(Ordering::Acquire)
            && !st.done.load(Ordering::Acquire)
            && lock(&st.inbox).is_empty()
            && !st.busy.load(Ordering::Acquire)
        {
            // Re-check settledness under the claim so a processor that
            // finished between our loads cannot race us into a spurious
            // hangup error.
            if !st.busy.swap(true, Ordering::AcqRel) {
                let settled = st.done.load(Ordering::Acquire) || self.try_settle(state, st);
                st.busy.store(false, Ordering::Release);
                if !settled && lock(&st.inbox).is_empty() {
                    return Err(WarehouseError::SourceHungUp { source: st.source });
                }
            }
        }
        Ok(if progress {
            Probe::Progress
        } else if probed_idle {
            Probe::Idle
        } else {
            Probe::Skipped
        })
    }

    /// Try to claim a station and drain its inbox through its shard.
    /// Returns whether any event was processed. `batch` is a
    /// caller-owned buffer (drained empty on return).
    fn process_station(
        &self,
        state: &RunState,
        st: &Station,
        batch: &mut Vec<Message>,
        replies: &mut Vec<Message>,
    ) -> Result<bool, WarehouseError> {
        if st.done.load(Ordering::Acquire) || st.queued.load(Ordering::Acquire) == 0 {
            return Ok(false);
        }
        if st.busy.swap(true, Ordering::AcqRel) {
            return Ok(false); // another worker holds the claim
        }
        let result = self.drain_claimed(state, st, batch, replies);
        st.busy.store(false, Ordering::Release);
        result
    }

    /// Apply a batch of events (caller holds the station's claim) to the
    /// station's shard, in batch (== arrival) order. Compensating
    /// queries land in `replies` for the caller to send — still in
    /// generation order, because the claim keeps processing
    /// single-threaded per station.
    fn apply_batch(
        &self,
        state: &RunState,
        st: &Station,
        batch: &mut Vec<Message>,
        replies: &mut Vec<Message>,
    ) -> Result<(), WarehouseError> {
        let shard = &self.set.shards[st.source];
        let handled = batch.len() as u64;
        let mut notifications = 0u64;
        for msg in batch.drain(..) {
            if matches!(msg, Message::UpdateNotification { .. }) {
                notifications += 1;
            }
            replies.extend(lock(shard).on_message(msg)?);
        }
        if notifications > 0 {
            st.notifications.fetch_add(notifications, Ordering::AcqRel);
        }
        state.processed.fetch_add(handled, Ordering::AcqRel);
        Ok(())
    }

    /// Drain the inbox of a station we hold the claim on. The shard work
    /// happens with the transport unlocked (so the home worker can keep
    /// polling this station's transport meanwhile); replies then go out
    /// under one transport lock per batch.
    fn drain_claimed(
        &self,
        state: &RunState,
        st: &Station,
        batch: &mut Vec<Message>,
        replies: &mut Vec<Message>,
    ) -> Result<bool, WarehouseError> {
        let mut progress = false;
        loop {
            let was_full = {
                let mut inbox = lock(&st.inbox);
                if inbox.is_empty() {
                    break;
                }
                let was_full = inbox.len() >= self.inbox_cap;
                batch.extend(inbox.drain(..));
                st.queued.store(0, Ordering::Release);
                was_full
            };
            if was_full {
                // Freed the whole inbox: the home worker may resume
                // draining its transport.
                state.waker.notify();
            }
            progress = true;
            self.apply_batch(state, st, batch, replies)?;
            if !replies.is_empty() {
                let mut transport = lock(&st.transport);
                for reply in replies.drain(..) {
                    transport.send(&reply)?;
                }
            }
        }
        if progress {
            self.try_settle(state, st);
        }
        Ok(progress)
    }

    /// Check the terminal condition for a station (caller must hold its
    /// claim): every expected notification arrived, the inbox is
    /// drained, and the shard is quiescent. Sources only send answers to
    /// queries we issued, so a settled station stays settled.
    fn try_settle(&self, state: &RunState, st: &Station) -> bool {
        if st.done.load(Ordering::Acquire) {
            return true;
        }
        if st.notifications.load(Ordering::Acquire) < st.expected {
            return false;
        }
        if !lock(&st.inbox).is_empty() {
            return false;
        }
        if !lock(&self.set.shards[st.source]).is_quiescent() {
            return false;
        }
        st.done.store(true, Ordering::Release);
        state.remaining.fetch_sub(1, Ordering::AcqRel);
        state.touch_progress();
        state.waker.notify();
        true
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

    /// Satellite guarantee: a transport without waker support (the
    /// trait-default `set_waker` returns `false`) is rejected at
    /// registration with a typed error — the old behavior silently fell
    /// back to a 1 ms poll interval, hiding the misconfiguration.
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
        // A transport that leans on the trait-default `set_waker`.
        struct NoWaker(TransferMeter);
        impl Transport for NoWaker {
            fn role(&self) -> eca_wire::Role {
                eca_wire::Role::Warehouse
            }
            fn send(&mut self, _msg: &Message) -> Result<(), TransportError> {
                Ok(())
            }
            fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
                Ok(None)
            }
            fn recv(&mut self) -> Result<Option<Message>, TransportError> {
                Ok(None)
            }
            fn has_inbound(&mut self) -> bool {
                false
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

    /// Regression (review finding): a probe that was *skipped* because
    /// the inbox was full must not be reported [`Probe::Idle`]. The
    /// transport may still hold buffered messages whose arrival
    /// notifications were already consumed, and draining the inbox
    /// pokes only the pool waker — so recording the scan epoch for a
    /// skipped probe would make the home worker ignore the station
    /// forever and stall the run with messages silently unprocessed.
    #[test]
    fn skipped_probe_is_not_reported_idle() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let mut rw = wh.into_reactor(1);
        rw.set_inbox_cap(1);

        let waker = PollWaker::new();
        let (mut src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
        let st_waker = PollWaker::chained(Arc::clone(&waker));
        assert!(wh_end.set_waker(Arc::clone(&st_waker)));
        // Two pending updates: the 1-slot inbox can hold one, the other
        // stays buffered in the transport.
        for i in 0..2i64 {
            src_end
                .send(&Message::UpdateNotification {
                    update: Update::insert("noise", Tuple::ints([i])),
                })
                .unwrap();
        }
        let st = Station::new(src, Box::new(wh_end), 2, st_waker);
        let state = RunState {
            stations: vec![OnceLock::new()],
            born_settled: vec![false],
            waker,
            remaining: AtomicUsize::new(1),
            processed: AtomicU64::new(0),
            error: Mutex::new(None),
            last_progress: Mutex::new(Instant::now()),
            listener_addr: None,
            accept_done: AtomicBool::new(false),
        };
        let (mut scratch, mut batch) = (Vec::new(), Vec::new());
        let mut replies = Vec::new();

        // Another worker holds the claim: polling hands off through the
        // inbox, which takes one message (the cap) and reports progress.
        assert!(!st.busy.swap(true, Ordering::AcqRel));
        let probe = rw
            .poll_station(&state, &st, &mut scratch, &mut replies)
            .unwrap();
        assert_eq!(probe, Probe::Progress);
        // Inbox full, claim still held: the probe never reaches the
        // transport. It must say so — not claim the channel is idle,
        // because the second update still sits buffered inside it.
        let probe = rw
            .poll_station(&state, &st, &mut scratch, &mut replies)
            .unwrap();
        assert_eq!(probe, Probe::Skipped);
        // The claimant drains the inbox...
        st.busy.store(false, Ordering::Release);
        assert!(rw
            .process_station(&state, &st, &mut batch, &mut replies)
            .unwrap());
        // ...and because Skipped was not recorded as a scan, the home
        // worker re-probes, finds the buffered update, and settles.
        let probe = rw
            .poll_station(&state, &st, &mut scratch, &mut replies)
            .unwrap();
        assert_eq!(probe, Probe::Progress);
        assert_eq!(
            rw.poll_station(&state, &st, &mut scratch, &mut replies)
                .unwrap(),
            Probe::Idle
        );
        assert!(st.done.load(Ordering::Acquire));
        assert_eq!(state.remaining.load(Ordering::Acquire), 0);
        assert_eq!(state.processed.load(Ordering::Acquire), 2);
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

    /// Backpressure: a scripted flooder against a 1-slot inbox over a
    /// 1-slot bounded link blocks deterministically — before the reactor
    /// starts, capacity caps its completed sends at exactly the link
    /// bound — and once the reactor runs, the flood drains fully without
    /// deadlocking a second, well-behaved source.
    #[test]
    fn flooding_source_blocks_without_deadlocking_others() {
        let mut wh = Warehouse::new();
        let flooder = wh.add_source("flooder");
        let polite = wh.add_source("polite");
        // Only the polite source hosts a view; the flooder's updates
        // touch no view, so the reactor absorbs them as pure inbox
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
        let mut rw = wh.into_reactor(1);
        rw.set_inbox_cap(1);

        const FLOOD: u64 = 64;
        let sent = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            // Flooder: 1-slot link, 1-slot inbox. The first send fills
            // the link; every later send must wait for a reactor pop.
            let (mut flood_src, flood_wh) = SharedFifo::bounded_pair(TransferMeter::new(), 1);
            let sent_w = Arc::clone(&sent);
            scope.spawn(move || {
                for i in 0..FLOOD {
                    flood_src
                        .send(&Message::UpdateNotification {
                            update: Update::insert("noise", Tuple::ints([i as i64])),
                        })
                        .unwrap();
                    sent_w.fetch_add(1, Ordering::SeqCst);
                }
            });

            // Deterministic blocking check: nothing pops the link until
            // the reactor starts, so no matter how long the flooder
            // runs, at most ONE send (the link capacity) can complete.
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                sent.load(Ordering::SeqCst) <= 1,
                "flooder ran past link capacity with no consumer"
            );

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

            rw.run(vec![
                (flooder, Box::new(flood_wh), FLOOD),
                (polite, Box::new(polite_wh), 1),
            ])
            .unwrap();
        });

        // The polite source made full progress despite the flood...
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
        // ...and the whole flood eventually drained (no deadlock).
        assert_eq!(sent.load(Ordering::SeqCst), FLOOD);
    }
}

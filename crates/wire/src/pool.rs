//! The station pool: one fixed set of worker threads serving many
//! channels, the event loop under both TCP front ends (the warehouse's
//! reactor and the read server) and under a source fleet
//! (`eca_source::serve_fleet`, one worker).
//!
//! The paper's §3 argument needs each channel delivered in FIFO order and
//! each event applied atomically, nothing more. So each channel is a
//! *station* pinned to home worker `admission index % workers`, the only
//! thread that ever touches its transport. A worker's scan visits its
//! home stations, drains up to 64 messages from each, hands each to
//! [`StationOwner::handle`] in arrival order and sends the visit's
//! replies on the same transport in one [`Transport::send_all`], which a
//! socket makes one write.
//!
//! Each worker sleeps on its own [`PollWaker`], in one `poll(2)` over its
//! home sockets and its wake socket. An in-process station
//! ([`Transport::set_waker`]) notifies its home worker's waker on
//! arrival and is visited on every scan, which costs a lock and no
//! syscall. A socket station ([`Transport::poll_fd`]) is visited only
//! when the worker's own `poll(2)` reported an event on it, when its
//! last visit took a full quantum, or once per backstop interval, so an
//! idle socket costs no read syscall per scan.
//!
//! Stations are admitted live, at most one per key, and an optional
//! accept thread ([`StationPool::listen`]) names each TCP connection
//! through [`StationOwner::gate`] or drops it. A station that hangs up,
//! faults or is refused is reported to [`StationOwner::closed`]; the
//! owner decides what that means. A handler that panics kills its
//! worker, which hangs up every station it served and reports each as
//! [`Exit::Panicked`]; [`StationPool::stop`] then returns the panic.
//! Dropping the pool stops it, joins every thread and hangs up every
//! station. A pool with `w` workers and a listener runs `w + 1` threads.

use std::collections::HashSet;
use std::hash::Hash;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::{
    Message, PollFd, PollWaker, Readiness, Role, TcpTransport, TransferMeter, Transport,
    TransportError,
};

/// Most messages a worker takes from one station per visit, so one busy
/// channel cannot starve the others on its worker.
const QUANTUM: usize = 64;

/// Longest a parked worker sleeps without an event, and how often it
/// visits every station regardless of events. Every station wakes its
/// worker, so this is only a backstop.
const PARK: Duration = Duration::from_millis(50);

/// A stateless handle kept for the signature of callers that still pass
/// one to `ReactorWarehouse::run_listener`, which ignores it: the pool's
/// workers wait on their sockets themselves.
#[derive(Debug)]
pub struct Poller(());

impl Poller {
    /// A fresh handle.
    ///
    /// # Errors
    /// None; the signature is kept for existing callers.
    pub fn new() -> std::io::Result<Arc<Poller>> {
        Ok(Arc::new(Poller(())))
    }
}

/// What a pool's owner does with its stations.
pub trait StationOwner: Send + Sync + 'static {
    /// Names a station; the pool holds at most one live station per key.
    type Key: Copy + Eq + Hash + Send + 'static;

    /// Handle one message from station `key`, pushing the replies to
    /// send back on the same transport, in order. Called only from the
    /// station's home worker, one message at a time, in arrival order.
    fn handle(&self, key: Self::Key, msg: Message, replies: &mut Vec<Message>);

    /// Station `key` left the pool, or the accept thread's admission
    /// refused it; `exit` says why. Every message it delivered was
    /// handled first.
    fn closed(&self, key: Self::Key, exit: Exit);

    /// The accept gate: name a freshly accepted connection, or `None` to
    /// drop it. Runs on the accept thread, with the stream still
    /// blocking.
    fn gate(&self, stream: &TcpStream) -> Option<Self::Key>;
}

/// Why a station left the pool or was refused.
#[derive(Debug)]
pub enum Exit {
    /// The peer hung up.
    HungUp,
    /// A receive, decode or reply send failed.
    Faulted(TransportError),
    /// Its key already has a live station.
    Duplicate,
    /// Its transport can neither notify a waker nor hand over a
    /// descriptor to poll.
    WakerRejected,
    /// A handler panicked on its home worker, which hung up every station
    /// it served; [`StationPool::stop`] returns the panic.
    Panicked,
}

/// Why [`StationPool::start`] failed. Any worker it had started is
/// stopped and joined before it returns.
#[derive(Debug)]
pub enum StartError<K> {
    /// A station was refused ([`Exit::Duplicate`] or
    /// [`Exit::WakerRejected`]).
    Refused(K, Exit),
    /// A worker's wake socket or thread could not be created.
    Io(std::io::Error),
}

struct Station<K> {
    key: K,
    transport: Box<dyn Transport + Send>,
    /// The transport hands over a descriptor instead of notifying.
    polled: bool,
    /// Visit a polled station on the next scan: it was just admitted,
    /// its descriptor fired, or its last visit took a full quantum.
    due: bool,
}

/// One worker's stations and the waker it sleeps on.
struct Home<K> {
    stations: Mutex<Vec<Station<K>>>,
    waker: Arc<PollWaker>,
}

struct Shared<O: StationOwner> {
    owner: O,
    /// One per worker; only admission and the home worker take the lock.
    homes: Vec<Home<O::Key>>,
    keys: Mutex<HashSet<O::Key>>,
    admitted: AtomicUsize,
    stop: AtomicBool,
}

/// A running station pool; see the module docs. Dropping it stops the
/// pool and hangs up every station.
pub struct StationPool<O: StationOwner> {
    shared: Arc<Shared<O>>,
    threads: Vec<JoinHandle<()>>,
    listening: Option<SocketAddr>,
}

impl<O: StationOwner> StationPool<O> {
    /// Admit `stations` in order, then start `workers` (at least one)
    /// worker threads. Every station is admitted before any thread
    /// starts.
    ///
    /// # Errors
    /// The first refused station's key and [`Exit`] (before any thread
    /// starts), or the I/O error that stopped a worker's wake socket or
    /// thread.
    pub fn start(
        owner: O,
        workers: usize,
        stations: Vec<(O::Key, Box<dyn Transport + Send>)>,
    ) -> Result<StationPool<O>, StartError<O::Key>> {
        let homes = (0..workers.max(1))
            .map(|_| {
                Ok(Home {
                    stations: Mutex::default(),
                    waker: PollWaker::new()?,
                })
            })
            .collect::<std::io::Result<_>>()
            .map_err(StartError::Io)?;
        let shared = Arc::new(Shared {
            owner,
            homes,
            keys: Mutex::default(),
            admitted: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        for (key, transport) in stations {
            shared
                .admit(key, transport)
                .map_err(|exit| StartError::Refused(key, exit))?;
        }
        let mut pool = StationPool {
            shared,
            threads: Vec::new(),
            listening: None,
        };
        for home in 0..pool.shared.homes.len() {
            let shared = Arc::clone(&pool.shared);
            let thread = std::thread::Builder::new()
                .name("eca-wire-worker".into())
                .spawn(move || shared.work(home))
                .map_err(StartError::Io)?;
            pool.threads.push(thread);
        }
        Ok(pool)
    }

    /// Start the accept thread: every connection on `listener` passes
    /// [`StationOwner::gate`] and joins the running pool as a
    /// non-blocking [`TcpTransport`] station.
    ///
    /// # Errors
    /// Reading the listener's address or spawning the thread failed.
    pub fn listen(&mut self, listener: TcpListener) -> std::io::Result<SocketAddr> {
        let addr = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        self.threads.push(
            std::thread::Builder::new()
                .name("eca-wire-accept".into())
                .spawn(move || shared.accept(&listener))?,
        );
        self.listening = Some(addr);
        Ok(addr)
    }

    /// The owner the pool reports to.
    pub fn owner(&self) -> &O {
        &self.shared.owner
    }

    /// Stop the pool, join every thread and hang up every station, as
    /// dropping it does.
    ///
    /// # Errors
    /// The panic payload of the first pool thread that panicked.
    pub fn stop(mut self) -> std::thread::Result<()> {
        self.halt()
    }

    fn halt(&mut self) -> std::thread::Result<()> {
        self.shared.stop.store(true, Ordering::Release);
        for home in &self.shared.homes {
            home.waker.notify();
        }
        if let Some(addr) = self.listening.take() {
            // The accept thread sleeps in `accept`; a throwaway
            // connection wakes it to see the stop flag.
            let _ = TcpStream::connect(addr);
        }
        let mut joined = Ok(());
        for thread in self.threads.drain(..) {
            joined = joined.and(thread.join());
        }
        for home in &self.shared.homes {
            lock(&home.stations).clear();
        }
        joined
    }
}

impl<O: StationOwner> Drop for StationPool<O> {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

impl<O: StationOwner> Shared<O> {
    /// The one admission path, for pre-built and accepted stations.
    fn admit(&self, key: O::Key, mut transport: Box<dyn Transport + Send>) -> Result<(), Exit> {
        if !lock(&self.keys).insert(key) {
            return Err(Exit::Duplicate);
        }
        let index = self.admitted.fetch_add(1, Ordering::Relaxed);
        let home = &self.homes[index % self.homes.len()];
        let polled = !transport.set_waker(Arc::clone(&home.waker));
        if polled && transport.poll_fd().is_none() {
            lock(&self.keys).remove(&key);
            return Err(Exit::WakerRejected);
        }
        lock(&home.stations).push(Station {
            key,
            transport,
            polled,
            due: true,
        });
        // The worker may be asleep on the old descriptor set.
        home.waker.notify();
        Ok(())
    }

    fn accept(&self, listener: &TcpListener) {
        for stream in listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let Ok(stream) = stream else { continue };
            let Some(key) = self.owner.gate(&stream) else {
                continue;
            };
            // The server end of the channel; its meter is private, since
            // §6 accounting reads the dialer's side.
            let admitted = match TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()) {
                Ok(transport) => self.admit(key, Box::new(transport)),
                Err(e) => Err(Exit::Faulted(TransportError::Io(e))),
            };
            if let Err(exit) = admitted {
                self.owner.closed(key, exit);
            }
        }
    }

    /// One worker: until the pool stops, scan the home stations, then
    /// poll the idle sockets and the waker, sleeping there unless a
    /// station still holds messages.
    fn work(&self, home: usize) {
        let home = &self.homes[home];
        let _orphans = Orphans { shared: self, home };
        let mut batch = Vec::new();
        let mut replies = Vec::new();
        // The idle sockets' poll entries and their stations' positions.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut at: Vec<usize> = Vec::new();
        let mut sweep = Instant::now() + PARK;
        loop {
            // Snapshot before checking the stop flag and scanning: a stop
            // or an arrival after this moves the epoch, so the wait below
            // returns at once.
            let seen = home.waker.epoch();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            let backstop = now >= sweep;
            if backstop {
                sweep = now + PARK;
            }
            let mut busy = false;
            fds.clear();
            at.clear();
            let mut stations = lock(&home.stations);
            let mut pos = 0;
            stations.retain_mut(|st| {
                if !st.polled || st.due || backstop {
                    match self.visit(st, &mut batch, &mut replies) {
                        Ok(more) => {
                            busy |= more;
                            st.due = more;
                        }
                        Err(exit) => {
                            lock(&self.keys).remove(&st.key);
                            self.owner.closed(st.key, exit);
                            return false;
                        }
                    }
                }
                if let Some(fd) = st.transport.poll_fd().filter(|_| !st.due) {
                    fds.push(fd);
                    at.push(pos);
                }
                pos += 1;
                true
            });
            drop(stations);
            if busy && fds.is_empty() {
                continue;
            }
            let timeout = if busy { Duration::ZERO } else { PARK };
            home.waker.wait(seen, &mut fds, timeout);
            if fds.iter().any(|fd| fd.revents != 0) {
                let mut stations = lock(&home.stations);
                for (fd, &pos) in fds.iter().zip(&at) {
                    // Positions hold: only this worker removes stations,
                    // and admission appends.
                    stations[pos].due |= fd.revents != 0;
                }
            }
        }
    }

    /// Drain, handle and answer one station. `Ok(true)` if it may hold
    /// more right now (a full quantum moved, or a probe found a message
    /// waiting), `Ok(false)` if it is drained, `Err` if it must leave.
    fn visit(
        &self,
        st: &mut Station<O::Key>,
        batch: &mut Vec<Message>,
        replies: &mut Vec<Message>,
    ) -> Result<bool, Exit> {
        // Messages drained before a fault are still handled.
        let drained = st.transport.drain_into(batch, QUANTUM);
        let taken = batch.len();
        for msg in batch.drain(..) {
            self.owner.handle(st.key, msg, replies);
        }
        st.transport.send_all(replies).map_err(Exit::Faulted)?;
        drained.map_err(Exit::Faulted)?;
        if taken > 0 {
            return Ok(taken == QUANTUM);
        }
        match st.transport.poll().map_err(Exit::Faulted)? {
            Readiness::Ready => Ok(true),
            Readiness::Idle => Ok(false),
            Readiness::Closed => Err(Exit::HungUp),
        }
    }
}

/// Held by a worker for its whole life. If a handler panics, the worker
/// unwinds through it, and every station the worker served leaves the
/// pool as [`Exit::Panicked`] instead of waiting for a visit that never
/// comes.
struct Orphans<'a, O: StationOwner> {
    shared: &'a Shared<O>,
    home: &'a Home<O::Key>,
}

impl<O: StationOwner> Drop for Orphans<'_, O> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for st in std::mem::take(&mut *lock(&self.home.stations)) {
            lock(&self.shared.keys).remove(&st.key);
            self.shared.owner.closed(st.key, Exit::Panicked);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedFifo;

    /// Echoes every message to its sender and names every accepted
    /// connection with a fresh key.
    struct Echo(AtomicUsize);

    impl StationOwner for Echo {
        type Key = usize;

        fn handle(&self, _: usize, msg: Message, replies: &mut Vec<Message>) {
            replies.push(msg);
        }

        fn closed(&self, _: usize, _: Exit) {}

        fn gate(&self, _: &TcpStream) -> Option<usize> {
            Some(self.0.fetch_add(1, Ordering::Relaxed))
        }
    }

    /// Echoes every message but `Hello { epoch: 99 }`, on which it
    /// panics, and records every station that leaves.
    struct Fragile(Arc<Mutex<Vec<(usize, Exit)>>>);

    impl StationOwner for Fragile {
        type Key = usize;

        fn handle(&self, _: usize, msg: Message, replies: &mut Vec<Message>) {
            assert_ne!(msg, Message::Hello { epoch: 99 }, "the handler's bug");
            replies.push(msg);
        }

        fn closed(&self, key: usize, exit: Exit) {
            lock(&self.0).push((key, exit));
        }

        fn gate(&self, _: &TcpStream) -> Option<usize> {
            None
        }
    }

    #[test]
    fn a_panicking_handler_closes_every_station_of_its_worker() {
        let (mut clients, ends): (Vec<_>, Vec<_>) = (0..3)
            .map(|_| SharedFifo::pair(TransferMeter::new()))
            .unzip();
        let stations = ends
            .into_iter()
            .enumerate()
            .map(|(key, end)| (key, Box::new(end) as Box<dyn Transport + Send>))
            .collect();
        let closed = Arc::new(Mutex::new(Vec::new()));
        let pool = StationPool::start(Fragile(Arc::clone(&closed)), 1, stations).unwrap();
        round_trip(&mut clients[0], 1);
        clients[1].send(&Message::Hello { epoch: 99 }).unwrap();
        // The other clients are hung up on, not left waiting.
        let deadline = Instant::now() + Duration::from_secs(10);
        for client in &mut clients {
            while client.poll().unwrap() != Readiness::Closed {
                assert!(Instant::now() < deadline, "a station outlived its worker");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(pool.stop().is_err(), "stop returns the worker's panic");
        let mut closed = std::mem::take(&mut *lock(&closed));
        closed.sort_by_key(|(key, _)| *key);
        assert_eq!(closed.len(), 3, "{closed:?}");
        for (i, (key, exit)) in closed.iter().enumerate() {
            assert_eq!(*key, i);
            assert!(matches!(exit, Exit::Panicked), "{key}: {exit:?}");
        }
    }

    /// Idle gaps long enough for the worker to park, spread so the
    /// arrivals after them land at every phase of a `PARK` timeout: a
    /// worker that only wakes when `PARK` runs out answers half of them
    /// after more than a quarter of it.
    fn gaps() -> impl Iterator<Item = Duration> {
        (0..8u32).map(|k| PARK + Duration::from_millis(7) * k)
    }

    /// One echo round trip from the client end of a station. A worker
    /// that missed the arrival still visits it at the next backstop
    /// sweep, so a lost wake shows as a slow trip, not a hang.
    fn round_trip(client: &mut dyn Transport, n: u64) -> Duration {
        let ping = Message::Hello { epoch: n };
        let t0 = Instant::now();
        client.send(&ping).unwrap();
        let echoed = client.recv().unwrap();
        assert_eq!(echoed, Some(ping));
        t0.elapsed()
    }

    /// The median of round trips that each followed an idle gap, which
    /// a prompt worker keeps far below a quarter of `PARK`.
    fn assert_prompt(mut trips: Vec<Duration>, what: &str) {
        trips.sort();
        let median = trips[trips.len() / 2];
        assert!(
            median < PARK / 5,
            "{what}: median round trip {median:?} after idling (all: {trips:?})"
        );
    }

    #[test]
    fn station_admitted_while_its_worker_is_parked_is_served_promptly() {
        let mut pool = StationPool::start(Echo(AtomicUsize::new(0)), 1, Vec::new()).unwrap();
        let addr = pool
            .listen(TcpListener::bind("127.0.0.1:0").unwrap())
            .unwrap();
        let mut clients = Vec::new();
        let trips = gaps()
            .enumerate()
            .map(|(n, gap)| {
                // The worker parks on the stations it has; this one
                // joins while it sleeps.
                std::thread::sleep(gap);
                let t0 = Instant::now();
                let mut client =
                    TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
                round_trip(&mut client, n as u64);
                clients.push(client);
                t0.elapsed()
            })
            .collect();
        assert_prompt(trips, "fresh station");
        pool.stop().unwrap();
    }

    #[test]
    fn worker_with_a_fifo_and_a_socket_wakes_for_either() {
        let (mut fifo, fifo_end) = SharedFifo::pair(TransferMeter::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut socket = TcpTransport::connect(
            listener.local_addr().unwrap(),
            Role::Source,
            TransferMeter::new(),
        )
        .unwrap();
        let socket_end = TcpTransport::new(
            listener.accept().unwrap().0,
            Role::Warehouse,
            TransferMeter::new(),
        )
        .unwrap();
        let stations: Vec<(usize, Box<dyn Transport + Send>)> =
            vec![(0, Box::new(fifo_end)), (1, Box::new(socket_end))];
        let pool = StationPool::start(Echo(AtomicUsize::new(2)), 1, stations).unwrap();
        let (mut by_fifo, mut by_socket) = (Vec::new(), Vec::new());
        for (n, gap) in gaps().enumerate() {
            std::thread::sleep(gap);
            by_fifo.push(round_trip(&mut fifo, n as u64));
            std::thread::sleep(gap);
            by_socket.push(round_trip(&mut socket, n as u64));
        }
        assert_prompt(by_fifo, "in-process station");
        assert_prompt(by_socket, "socket station");
        pool.stop().unwrap();
    }
}

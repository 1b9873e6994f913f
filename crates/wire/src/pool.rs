//! The station pool: one fixed set of worker threads serving many
//! channels, the event loop under both TCP front ends (the warehouse's
//! reactor and the read server).
//!
//! The paper's §3 argument needs each channel delivered in FIFO order and
//! each event applied atomically, nothing more. So each channel is a
//! *station* pinned to home worker `admission index % workers`, the only
//! thread that ever touches its transport. A worker's scan visits every
//! home station, drains up to 64 messages, hands each to
//! [`StationOwner::handle`] in arrival order and sends the replies on the
//! same transport; a scan that moves nothing parks on the pool's one
//! [`PollWaker`], which every station's transport notifies on arrival.
//!
//! Stations are admitted live, at most one per key, and an optional
//! accept thread ([`StationPool::listen`]) names each TCP connection
//! through [`StationOwner::gate`] or drops it. A station that hangs up,
//! faults or is refused is reported to [`StationOwner::closed`]; the
//! owner decides what that means. Dropping the pool stops it, joins every
//! thread and hangs up every station.

use std::collections::HashSet;
use std::hash::Hash;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{
    Message, PollWaker, Poller, Readiness, Role, TcpTransport, TransferMeter, Transport,
    TransportError,
};

/// Most messages a worker takes from one station per visit, so one busy
/// channel cannot starve the others on its worker.
const QUANTUM: usize = 64;

/// Longest a parked worker sleeps without a notification. Every station
/// notifies the waker, so this is only a backstop.
const PARK: Duration = Duration::from_millis(50);

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
    /// Its transport cannot notify the pool's waker.
    WakerRejected,
}

struct Station<K> {
    key: K,
    transport: Box<dyn Transport + Send>,
}

struct Shared<O: StationOwner> {
    owner: O,
    waker: Arc<PollWaker>,
    /// One station list per worker; only admission and the home worker
    /// take the lock.
    homes: Vec<Mutex<Vec<Station<O::Key>>>>,
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
    /// The first refused station's key and [`Exit`]
    /// ([`Exit::Duplicate`] or [`Exit::WakerRejected`]); no thread has
    /// started.
    pub fn start(
        owner: O,
        workers: usize,
        stations: Vec<(O::Key, Box<dyn Transport + Send>)>,
    ) -> Result<StationPool<O>, (O::Key, Exit)> {
        let shared = Arc::new(Shared {
            owner,
            waker: PollWaker::new(),
            homes: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            keys: Mutex::default(),
            admitted: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        for (key, transport) in stations {
            shared.admit(key, transport).map_err(|exit| (key, exit))?;
        }
        let threads = (0..shared.homes.len())
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work(home))
            })
            .collect();
        Ok(StationPool {
            shared,
            threads,
            listening: None,
        })
    }

    /// Start the accept thread: every connection on `listener` passes
    /// [`StationOwner::gate`] and joins the running pool as a
    /// non-blocking [`TcpTransport`] whose readiness `poller` watches.
    ///
    /// # Errors
    /// Reading the listener's address or spawning the thread failed.
    pub fn listen(
        &mut self,
        listener: TcpListener,
        poller: Arc<Poller>,
    ) -> std::io::Result<SocketAddr> {
        let addr = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        self.threads.push(
            std::thread::Builder::new()
                .name("eca-wire-accept".into())
                .spawn(move || shared.accept(&listener, &poller))?,
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
        self.shared.waker.notify();
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
            lock(home).clear();
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
        if !transport.set_waker(Arc::clone(&self.waker)) {
            lock(&self.keys).remove(&key);
            return Err(Exit::WakerRejected);
        }
        let index = self.admitted.fetch_add(1, Ordering::Relaxed);
        lock(&self.homes[index % self.homes.len()]).push(Station { key, transport });
        self.waker.notify();
        Ok(())
    }

    fn accept(&self, listener: &TcpListener, poller: &Arc<Poller>) {
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
                Ok(mut transport) => {
                    transport.attach_poller(Arc::clone(poller));
                    self.admit(key, Box::new(transport))
                }
                Err(e) => Err(Exit::Faulted(TransportError::Io(e))),
            };
            if let Err(exit) = admitted {
                self.owner.closed(key, exit);
            }
        }
    }

    /// One worker: scan the home stations until the pool stops, parking
    /// whenever a scan moves nothing.
    fn work(&self, home: usize) {
        let mut batch = Vec::new();
        let mut replies = Vec::new();
        loop {
            // Snapshot before checking the stop flag and scanning: a stop
            // or an arrival after this moves the epoch, so the wait below
            // returns at once.
            let seen = self.waker.epoch();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let mut progress = false;
            lock(&self.homes[home]).retain_mut(|st| {
                match self.visit(st, &mut batch, &mut replies) {
                    Ok(moved) => progress |= moved,
                    Err(exit) => {
                        lock(&self.keys).remove(&st.key);
                        self.owner.closed(st.key, exit);
                        return false;
                    }
                }
                true
            });
            if !progress {
                self.waker.wait(seen, PARK);
            }
        }
    }

    /// Drain, handle and answer one station. `Ok(true)` if a message
    /// moved or is waiting, `Ok(false)` if idle, `Err` if it must leave.
    fn visit(
        &self,
        st: &mut Station<O::Key>,
        batch: &mut Vec<Message>,
        replies: &mut Vec<Message>,
    ) -> Result<bool, Exit> {
        // Messages drained before a fault are still handled.
        let drained = st.transport.drain_into(batch, QUANTUM);
        let moved = !batch.is_empty();
        for msg in batch.drain(..) {
            self.owner.handle(st.key, msg, replies);
        }
        for reply in replies.drain(..) {
            st.transport.send(&reply).map_err(Exit::Faulted)?;
        }
        drained.map_err(Exit::Faulted)?;
        if moved {
            return Ok(true);
        }
        match st.transport.poll().map_err(Exit::Faulted)? {
            Readiness::Ready => Ok(true),
            Readiness::Idle => Ok(false),
            Readiness::Closed => Err(Exit::HungUp),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

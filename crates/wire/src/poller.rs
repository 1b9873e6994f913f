//! One thread multiplexing every registered socket via `poll(2)`.
//!
//! The station pool ([`crate::StationPool`]) parks its workers on a
//! [`PollWaker`] eventcount and expects *transports* to notify it when
//! something becomes receivable. `SharedFifo` can do that from the
//! sender's thread; a TCP socket has no thread on the sending side of
//! the syscall boundary, so something must watch the fd. Pre-refactor
//! that was one blocking reader thread per connection — the thread wall
//! this crate's non-blocking rework removes. The [`Poller`] replaces
//! all of them with a single thread that sleeps in `poll(2)` over every
//! registered descriptor and translates readiness into the exact same
//! [`PollWaker::notify`] calls a `SharedFifo` sender would make, so the
//! pool cannot tell in-memory links and sockets apart.
//!
//! ## Arming protocol (oneshot over level-triggered `poll(2)`)
//!
//! A registration is *armed* when the owning transport wants a wake-up
//! for the next readable edge. When `poll(2)` reports the fd ready the
//! poller notifies the waker **once** and disarms the slot — otherwise
//! a level-triggered fd that the reactor has not yet drained would spin
//! the poller at 100% CPU re-announcing the same bytes. The transport
//! re-arms ([`Poller::rearm`]) each time it drains its socket to
//! `WouldBlock`. Because `poll(2)` is level-triggered, bytes that land
//! between the drain and the re-arm are still reported on the next
//! cycle — no edge is lost.
//!
//! Registry mutations and re-arms wake the poller thread through a
//! connected loopback `UdpSocket` pair (`std`-only self-pipe), whose
//! receive end sits permanently in the poll set.

use std::collections::VecDeque;
use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::transport::PollWaker;

/// Identifies one registered descriptor; returned by
/// [`Poller::register`], passed to [`Poller::rearm`] /
/// [`Poller::deregister`]. Slots are recycled, so a stale token must
/// never be used after `deregister` — transports own their token for
/// exactly the lifetime of their registration.
pub type PollToken = usize;

struct WatchEntry {
    fd: RawFd,
    waker: Arc<PollWaker>,
    /// Wants a wake-up on the next readable edge. Cleared by the poller
    /// when it fires, set again by [`Poller::rearm`].
    armed: bool,
    /// Set (alongside the notify) every time this slot fires; the
    /// owning transport swaps it back off. See [`Poller::readiness`].
    ready: Arc<AtomicBool>,
}

#[derive(Default)]
struct Registry {
    slots: Vec<Option<WatchEntry>>,
    free: VecDeque<usize>,
}

/// State shared between the poller thread and the [`Poller`] handle.
/// The thread holds only this, never the handle, so dropping the last
/// handle reliably tears the thread down.
struct Shared {
    registry: Mutex<Registry>,
    /// Send half of the self-wake pair; any datagram unblocks `poll(2)`.
    wake_tx: UdpSocket,
    shutdown: AtomicBool,
}

impl Shared {
    fn wake(&self) {
        // A full socket buffer just means the thread is already due to
        // wake; nothing to do.
        let _ = self.wake_tx.send(&[1]);
    }
}

/// A single background thread watching many sockets; see the module
/// docs for the arming protocol. Share it via the [`Arc`] returned by
/// [`Poller::new`]; dropping the last handle shuts the thread down.
pub struct Poller {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Poller {
    /// Spawn the poller thread. The self-wake sockets bind to loopback
    /// ephemeral ports; no traffic ever leaves the host.
    ///
    /// # Errors
    /// Propagates socket-setup or thread-spawn failures.
    pub fn new() -> io::Result<Arc<Poller>> {
        let wake_rx = UdpSocket::bind("127.0.0.1:0")?;
        wake_rx.set_nonblocking(true)?;
        let wake_tx = UdpSocket::bind("127.0.0.1:0")?;
        wake_tx.connect(wake_rx.local_addr()?)?;
        let shared = Arc::new(Shared {
            registry: Mutex::new(Registry::default()),
            wake_tx,
            shutdown: AtomicBool::new(false),
        });
        let for_thread = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("eca-wire-poller".into())
            .spawn(move || poll_loop(&for_thread, wake_rx))?;
        Ok(Arc::new(Poller {
            shared,
            thread: Mutex::new(Some(handle)),
        }))
    }

    /// Watch `fd`, notifying `waker` on its next readable edge (the
    /// slot starts armed). The caller keeps the fd open for the life of
    /// the registration.
    pub fn register(&self, fd: RawFd, waker: Arc<PollWaker>) -> PollToken {
        let token = {
            let mut reg = lock(&self.shared.registry);
            let entry = WatchEntry {
                fd,
                waker,
                armed: true,
                ready: Arc::new(AtomicBool::new(false)),
            };
            match reg.free.pop_front() {
                Some(slot) => {
                    reg.slots[slot] = Some(entry);
                    slot
                }
                None => {
                    reg.slots.push(Some(entry));
                    reg.slots.len() - 1
                }
            }
        };
        self.shared.wake();
        token
    }

    /// The readiness flag for `token`'s registration, or `None` if the
    /// token is stale. The poller sets the flag every time the slot
    /// fires; a transport that drained its socket to `WouldBlock` and
    /// re-armed can skip further read syscalls until the flag trips —
    /// without it, every idle probe costs an `EAGAIN` read.
    pub fn readiness(&self, token: PollToken) -> Option<Arc<AtomicBool>> {
        lock(&self.shared.registry)
            .slots
            .get(token)
            .and_then(Option::as_ref)
            .map(|entry| Arc::clone(&entry.ready))
    }

    /// Request a wake-up for the next readable edge on `token`'s fd.
    /// Idempotent; a no-op on an already-armed or deregistered slot.
    pub fn rearm(&self, token: PollToken) {
        let needs_wake = {
            let mut reg = lock(&self.shared.registry);
            match reg.slots.get_mut(token).and_then(Option::as_mut) {
                Some(entry) if !entry.armed => {
                    entry.armed = true;
                    true
                }
                _ => false,
            }
        };
        if needs_wake {
            self.shared.wake();
        }
    }

    /// Stop watching `token`'s fd and recycle the slot. Call *before*
    /// closing the descriptor, so the poll set never holds a dead fd.
    pub fn deregister(&self, token: PollToken) {
        {
            let mut reg = lock(&self.shared.registry);
            if reg.slots.get_mut(token).and_then(Option::take).is_some() {
                reg.free.push_back(token);
            }
        }
        self.shared.wake();
    }

    /// Number of live registrations (diagnostics / tests).
    #[cfg(test)]
    fn watched(&self) -> usize {
        lock(&self.shared.registry)
            .slots
            .iter()
            .filter(|s| s.is_some())
            .count()
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake();
        if let Some(handle) = lock(&self.thread).take() {
            let _ = handle.join();
        }
    }
}

fn poll_loop(shared: &Shared, wake_rx: UdpSocket) {
    let mut fds: Vec<libc::pollfd> = Vec::new();
    let mut tokens: Vec<PollToken> = Vec::new();
    let mut ready: Vec<Arc<PollWaker>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        fds.clear();
        tokens.clear();
        fds.push(libc::pollfd {
            fd: wake_rx.as_raw_fd(),
            events: libc::POLLIN,
            revents: 0,
        });
        {
            let reg = lock(&shared.registry);
            for (slot, entry) in reg.slots.iter().enumerate() {
                if let Some(entry) = entry {
                    if entry.armed {
                        fds.push(libc::pollfd {
                            fd: entry.fd,
                            events: libc::POLLIN,
                            revents: 0,
                        });
                        tokens.push(slot);
                    }
                }
            }
        }
        // Bounded timeout as a backstop against a lost self-wake
        // datagram; every real transition also lands a wake byte.
        if libc::poll_fds(&mut fds, 250).is_err() {
            // EINVAL/ENOMEM-class faults: don't spin; registry changes
            // (e.g. a bad fd being deregistered) will clear them.
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        }
        if fds[0].revents != 0 {
            let mut buf = [0u8; 64];
            while wake_rx.recv(&mut buf).is_ok() {}
        }
        ready.clear();
        {
            let mut reg = lock(&shared.registry);
            for (i, token) in tokens.iter().enumerate() {
                // POLLERR/POLLHUP/POLLNVAL arrive unrequested; any of
                // them means "go look at the transport".
                if fds[i + 1].revents != 0 {
                    if let Some(entry) = reg.slots[*token].as_mut() {
                        if entry.armed {
                            entry.armed = false;
                            entry.ready.store(true, Ordering::Release);
                            ready.push(Arc::clone(&entry.waker));
                        }
                    }
                }
            }
        }
        // Notify outside the registry lock: wakers take their own park
        // lock and may contend with transport threads.
        for waker in ready.drain(..) {
            waker.notify();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn readiness_notifies_waker_once_until_rearmed() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        let waker = PollWaker::new();
        let token = poller.register(client.as_raw_fd(), Arc::clone(&waker));
        assert_eq!(poller.watched(), 1);

        let seen = waker.epoch();
        server.write_all(b"hello").unwrap();
        assert!(waker.wait(seen, Duration::from_secs(5)), "first edge fires");

        // Disarmed now: the still-readable fd must NOT keep notifying.
        // (Allow one straggler notify that raced the disarm, then
        // require silence.)
        std::thread::sleep(Duration::from_millis(50));
        let seen = waker.epoch();
        assert!(!waker.wait(seen, Duration::from_millis(100)));

        // Re-arm without draining: level-triggered poll reports the
        // same bytes again.
        let seen = waker.epoch();
        poller.rearm(token);
        assert!(waker.wait(seen, Duration::from_secs(5)), "re-armed edge");

        poller.deregister(token);
        assert_eq!(poller.watched(), 0);
    }

    #[test]
    fn peer_hangup_fires_armed_registration() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let waker = PollWaker::new();
        let token = poller.register(client.as_raw_fd(), Arc::clone(&waker));
        let seen = waker.epoch();
        drop(server); // EOF is a readable event
        assert!(waker.wait(seen, Duration::from_secs(5)));
        poller.deregister(token);
    }

    #[test]
    fn slots_are_recycled_after_deregister() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let b = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let w = PollWaker::new();
        let ta = poller.register(a.as_raw_fd(), Arc::clone(&w));
        poller.deregister(ta);
        let tb = poller.register(b.as_raw_fd(), Arc::clone(&w));
        assert_eq!(ta, tb, "freed slot is reused");
        assert_eq!(poller.watched(), 1);
    }
}

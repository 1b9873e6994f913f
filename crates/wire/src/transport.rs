//! Pluggable transports carrying [`Message`]s between source and
//! warehouse.
//!
//! The paper (§3) assumes only that source and warehouse are joined by
//! reliable FIFO channels; everything else — timing, batching, the
//! physical medium — is up to the deployment. [`Transport`] captures
//! exactly that contract: an *endpoint* of a bidirectional channel whose
//! two directions are independently FIFO, with every message charged to a
//! [`TransferMeter`] in its direction of travel. Two implementations:
//!
//! * [`SharedFifo`] — the in-process pair, for the simulator and for
//!   deployments whose two ends share one process. It is `Send`, queues
//!   [`Message`] values without encoding them, meters
//!   [`Message::encoded_len`] (the codec's exact size, computed without
//!   encoding), and wakes its condvar only when a receiver is blocked in
//!   [`Transport::recv`].
//! * [`TcpTransport`] — length-prefixed frames over a *non-blocking*
//!   `std::net::TcpStream`: an incremental [`FrameDecoder`] reassembles
//!   frames across partial reads, sends queue into a bounded outbound
//!   buffer, and [`Transport::poll_fd`] hands a poll loop the
//!   descriptor to sleep on, so hundreds of connections multiplex onto a
//!   few [`PollWaker::wait`] calls with **zero** per-connection threads.
//!   TCP's in-order delivery preserves the §3 ordering assumption per
//!   connection.
//!
//! A socket endpoint writes when it runs out of input, not once per
//! message, and receives answer from decoded frames before touching the
//! socket ([`TcpTransport`], "When bytes reach the socket"). The paper
//! asks only for FIFO channels (§3) and counts messages, not writes
//! (§6), so neither order nor any meter changes. [`Transport::send`]
//! names the one caller shape a deferred send does not suit.
//!
//! The trait carries no timed wait. A caller that must not block
//! forever on a silent peer runs the channel as a station of a
//! [`crate::StationPool`], whose owner decides how long is too long (the
//! warehouse reactor's stall timeout).
//!
//! Metering convention: each message is charged once per meter, in its
//! direction of travel. A [`SharedFifo`] pair shares one meter and
//! charges at send time; each [`TcpTransport`] endpoint owns its meter
//! and charges sends when it buffers them and receives at decode time,
//! so either side of a real deployment observes the same per-direction
//! totals the simulator would.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixDatagram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use crate::codec::{DecodeError, Encoder};
use crate::message::Message;
use crate::meter::{Direction, TransferMeter};

/// Which site an endpoint belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The autonomous source: sends notifications and answers, receives
    /// queries.
    Source,
    /// The warehouse: sends queries, receives notifications and answers.
    Warehouse,
}

impl Role {
    /// The direction of travel for messages sent from this endpoint.
    pub fn outbound(self) -> Direction {
        match self {
            Role::Source => Direction::SourceToWarehouse,
            Role::Warehouse => Direction::WarehouseToSource,
        }
    }

    /// The direction of travel for messages arriving at this endpoint.
    pub fn inbound(self) -> Direction {
        match self {
            Role::Source => Direction::WarehouseToSource,
            Role::Warehouse => Direction::SourceToWarehouse,
        }
    }

    /// The peer's role.
    pub fn other(self) -> Role {
        match self {
            Role::Source => Role::Warehouse,
            Role::Warehouse => Role::Source,
        }
    }
}

/// Errors surfaced by a transport.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the channel while a send or receive was required.
    Closed,
    /// An inbound frame failed to decode.
    Decode(DecodeError),
    /// An I/O fault on the underlying medium.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed by peer"),
            TransportError::Decode(e) => write!(f, "inbound frame failed to decode: {e}"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Decode(e) => Some(e),
            TransportError::Io(e) => Some(e),
            TransportError::Closed => None,
        }
    }
}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// The `poll(2)` entry a multiplexing loop waits on: a descriptor, the
/// events wanted, and the events the kernel reported.
pub type PollFd = libc::pollfd;

/// An eventcount a poll loop parks on while *many* endpoints are idle —
/// the poll-set primitive the station pool multiplexes transports with.
///
/// A loop that polls N channels needs a way to sleep until **any** of
/// them becomes ready without racing arrivals that land between the last
/// poll and the sleep. `PollWaker` closes that race with a generation
/// counter: the loop snapshots [`PollWaker::epoch`] *before* polling,
/// then calls [`PollWaker::wait`] with the snapshot — if any
/// [`PollWaker::notify`] happened after the snapshot (including during
/// the polls), the wait returns immediately instead of sleeping through
/// the event.
///
/// Channels reach the waker one of two ways. An in-process endpoint
/// notifies it ([`Transport::set_waker`]) on every delivery and peer
/// hang-up. A socket cannot, since nothing runs on the sending side of
/// the syscall boundary, so it hands the loop its descriptor instead
/// ([`Transport::poll_fd`]) and the loop passes that to
/// [`PollWaker::wait`], which sleeps in one `poll(2)` over the given
/// descriptors plus the waker's own wake socket.
///
/// ```text
/// let seen = waker.epoch();
/// for t in &mut transports { match t.poll()? { ... } }
/// if nothing_ready { waker.wait(seen, &mut socket_fds, idle_bound); }
/// ```
pub struct PollWaker {
    /// Event counter, bumped by every notify. Atomic so the notify fast
    /// path (nobody parked) is one RMW with no lock and no syscall —
    /// transports call [`PollWaker::notify`] on *every* delivery, and in
    /// steady state the poll loop is busy, not parked.
    generation: AtomicU64,
    /// Parked waiter count; gates the slow path of notify.
    waiters: AtomicU64,
    /// The wake socket pair, both ends non-blocking: a notify that sees
    /// a parked waiter writes one datagram to `tx`, and every wait polls
    /// `rx` beside its caller's descriptors.
    tx: UnixDatagram,
    rx: UnixDatagram,
}

impl PollWaker {
    /// A fresh waker behind an [`Arc`], ready to share across transports
    /// and threads.
    ///
    /// # Errors
    /// Creating the wake socket pair failed (descriptor exhaustion).
    pub fn new() -> std::io::Result<Arc<PollWaker>> {
        let (tx, rx) = UnixDatagram::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Arc::new(PollWaker {
            generation: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            tx,
            rx,
        }))
    }

    /// The current generation. Snapshot this *before* polling the
    /// transports guarded by this waker.
    pub fn epoch(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Record an event and wake every parked waiter. Cheap when nobody
    /// is parked: one atomic increment, no lock, no syscall.
    pub fn notify(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // A full socket already holds a wake-up for the waiter.
            let _ = self.tx.send(&[1]);
        }
    }

    /// Park in one `poll(2)` over `fds` and the wake socket until a
    /// notify lands after generation `seen`, one of `fds` reports an
    /// event, or `timeout` elapses. Every entry of `fds` comes back with
    /// fresh `revents`: when a notify had already landed, the descriptors
    /// are still polled once, without blocking. Returns `true` when woken
    /// by a notify or a descriptor, `false` on a plain timeout.
    ///
    /// The waiter registers *before* re-checking the epoch (both
    /// SeqCst), so a notify that misses the waiter count must have
    /// bumped the generation early enough for the re-check to see it —
    /// the classic eventcount handshake, no wake-up lost. A `poll(2)`
    /// that fails (an `ENOMEM`-class fault) sleeps out the timeout
    /// instead of spinning.
    pub fn wait(&self, seen: u64, fds: &mut Vec<PollFd>, timeout: Duration) -> bool {
        if fds.is_empty() && self.epoch() != seen {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let own = fds.len();
        fds.push(PollFd {
            fd: self.rx.as_raw_fd(),
            events: libc::POLLIN,
            revents: 0,
        });
        // A zero-timeout probe never sleeps, so it needs no wake byte.
        let parks = !timeout.is_zero();
        if parks {
            self.waiters.fetch_add(1, Ordering::SeqCst);
        }
        let woken = loop {
            let moved = self.epoch() != seen;
            let remaining = deadline.saturating_duration_since(Instant::now());
            let ms = if moved {
                0
            } else {
                remaining
                    .as_nanos()
                    .div_ceil(1_000_000)
                    .min(i32::MAX as u128) as i32
            };
            if libc::poll_fds(fds, ms).is_err() {
                fds.iter_mut().for_each(|f| f.revents = 0);
                std::thread::sleep(remaining);
                break self.epoch() != seen;
            }
            if fds[own].revents != 0 {
                let mut buf = [0u8; 64];
                while self.rx.recv(&mut buf).is_ok() {}
            }
            if moved || self.epoch() != seen || fds[..own].iter().any(|f| f.revents != 0) {
                break true;
            }
            if ms == 0 {
                break false;
            }
        };
        if parks {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        fds.truncate(own);
        woken
    }
}

/// What a non-blocking readiness probe observed on an endpoint.
///
/// `poll` is the third leg of the receive API next to `try_recv`
/// (non-blocking take) and `recv` (blocking take): it distinguishes "the
/// channel is merely idle right now" from "the peer is gone and nothing
/// further will ever arrive", which `try_recv`'s `Ok(None)` conflates.
/// The station pool probes a station its visit drained nothing from, to
/// tell an idle channel from a closed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Readiness {
    /// At least one inbound message can be taken right now without
    /// blocking.
    Ready,
    /// Nothing is queued, but the peer is still connected and may send
    /// more.
    Idle,
    /// Nothing is queued and the peer has hung up: no message will ever
    /// arrive again.
    Closed,
}

/// One endpoint of a reliable, per-direction-FIFO message channel.
pub trait Transport {
    /// Send a message toward the peer, charging the meter.
    ///
    /// A transport may hold the bytes back while a received message is
    /// still waiting to be taken, as [`TcpTransport`] does: they leave
    /// with the next send that finds nothing waiting, or before the
    /// endpoint next reads from or sleeps on its channel. Per-direction
    /// FIFO order holds either way. So a caller must not keep messages
    /// unread and then wait on something other than this endpoint for
    /// the peer to act: the peer may not have the reply yet. A caller
    /// that receives again before it sleeps, as every loop in this
    /// workspace does, never notices.
    ///
    /// # Errors
    /// [`TransportError::Closed`] / [`TransportError::Io`] when the peer
    /// is unreachable.
    fn send(&mut self, msg: &Message) -> Result<(), TransportError>;

    /// Send every message of `msgs` in order and leave `msgs` empty. The
    /// bytes are handed over at once, even while received messages wait:
    /// these are one turn's replies, and the turn is over. The default
    /// loops [`Transport::send`]; [`TcpTransport`] makes one write of
    /// the whole batch.
    ///
    /// # Errors
    /// As [`Transport::send`]; the messages after a failed one are
    /// dropped.
    fn send_all(&mut self, msgs: &mut Vec<Message>) -> Result<(), TransportError> {
        msgs.drain(..).try_for_each(|msg| self.send(&msg))
    }

    /// Take the oldest inbound message without blocking. `Ok(None)` means
    /// nothing is available *right now* (the peer may still send more).
    ///
    /// # Errors
    /// [`TransportError::Decode`] on a malformed frame.
    fn try_recv(&mut self) -> Result<Option<Message>, TransportError>;

    /// Block until an inbound message arrives. `Ok(None)` means the peer
    /// hung up cleanly and no further message will ever arrive.
    ///
    /// # Errors
    /// [`TransportError::Decode`] on a malformed frame.
    fn recv(&mut self) -> Result<Option<Message>, TransportError>;

    /// Take up to `max` immediately-available inbound messages into
    /// `out`, preserving arrival order: the station pool's receive.
    /// Returns how many were taken; `0` means nothing was available
    /// right now. [`SharedFifo`] drains the batch under one lock, and
    /// [`TcpTransport`] reads at most once for it.
    ///
    /// # Errors
    /// [`TransportError::Decode`] on a malformed frame (messages drained
    /// before the fault remain in `out`).
    fn drain_into(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError>;

    /// Probe the inbound direction without blocking or consuming a
    /// message (may decode and buffer frames internally).
    ///
    /// # Errors
    /// Transport faults surfaced by the probe (e.g. a truncated frame).
    fn poll(&mut self) -> Result<Readiness, TransportError>;

    /// Register a [`PollWaker`] to be notified whenever a message
    /// becomes receivable on this endpoint or the peer hangs up, so a
    /// multiplexing poll loop can park instead of spinning. Returns
    /// `false` when the transport cannot deliver wake-ups (the default);
    /// such a transport must offer [`Transport::poll_fd`] instead, or a
    /// [`crate::StationPool`] refuses it.
    fn set_waker(&mut self, _waker: Arc<PollWaker>) -> bool {
        false
    }

    /// The descriptor a poll loop sleeps on for this endpoint and the
    /// events it waits for, for transports that cannot notify a waker
    /// themselves; `None` (the default) for those that can, or neither.
    /// The events may change after any call on the endpoint, so ask
    /// again before every wait.
    fn poll_fd(&self) -> Option<PollFd> {
        None
    }

    /// The meter charged by this endpoint.
    fn meter(&self) -> &TransferMeter;
}

// ---------------------------------------------------------------------------
// Framing, shared by every byte-stream transport.
// ---------------------------------------------------------------------------

/// Largest frame payload any blocking or incremental read path accepts
/// by default: 16 MiB, comfortably above the largest legitimate
/// [`Message`] (multi-megabyte resync answers) while keeping a corrupt
/// or hostile 4-byte length prefix from demanding an allocation of up
/// to 4 GiB ([`read_frame`]) or from making an incremental decoder
/// buffer a stream without bound ([`FrameDecoder`]). Paths that expect
/// strictly smaller messages — e.g. the reactor's Hello handshake —
/// pass their own tighter cap to [`read_frame_capped`] /
/// [`FrameDecoder::with_cap`].
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Write one message as a `u32`-big-endian-length-prefixed frame.
///
/// The 4-byte prefix is transport overhead and is *not* charged to the
/// meter, keeping the paper's `B`/`M` accounting identical across
/// transports.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<(), TransportError> {
    let mut frame = BytesMut::new();
    put_frame(&mut frame, msg);
    w.write_all(frame.as_ref())?;
    w.flush()?;
    Ok(())
}

/// Append `msg` to `out` as one frame, encoded in place behind a 4-byte
/// placeholder whose length is patched in afterwards: no intermediate
/// buffer, no copy. Returns the payload length, the figure a meter is
/// charged.
fn put_frame(out: &mut BytesMut, msg: &Message) -> usize {
    let start = out.len();
    let mut e = Encoder::with_buf(std::mem::take(out));
    e.put_u32(0);
    msg.encode_into(&mut e);
    *out = e.into_buf();
    let len = out.len() - start - 4;
    out.as_mut()[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    len
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary. The length prefix is checked against [`MAX_FRAME_LEN`]
/// *before* the payload buffer is allocated.
///
/// # Errors
/// [`TransportError::Io`] on truncated frames, over-cap length prefixes
/// (`InvalidData`) or I/O faults (the message itself is *not* decoded
/// here — pair with [`Message::decode`]).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Bytes>, TransportError> {
    read_frame_capped(r, MAX_FRAME_LEN)
}

/// Like [`read_frame`], but reject any frame whose length prefix
/// exceeds `max_len` *before* allocating the payload buffer. Use this
/// when reading from a peer that has not authenticated yet — a garbage
/// 4-byte prefix must not be trusted with a multi-gigabyte allocation.
///
/// # Errors
/// Everything [`read_frame`] raises, plus `InvalidData` I/O errors for
/// over-cap length prefixes.
pub fn read_frame_capped(
    r: &mut impl Read,
    max_len: usize,
) -> Result<Option<Bytes>, TransportError> {
    let mut len_buf = [0u8; 4];
    // EOF before any length byte is a clean shutdown; EOF mid-prefix or
    // mid-payload is a truncated frame. The first read retries
    // `Interrupted` itself (`read`, unlike `read_exact`, surfaces it):
    // a signal landing before the first prefix byte must not kill a
    // healthy connection, and a 1–3 byte prefix followed by EOF must
    // fall through to `read_exact`'s `UnexpectedEof`, not be mistaken
    // for a clean shutdown.
    let first = loop {
        match r.read(&mut len_buf) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Io(e)),
        }
    };
    match first {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..])?,
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_len {
        return Err(TransportError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_len}"),
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(Bytes::from(payload)))
}

/// Incremental frame reassembly for non-blocking byte streams.
///
/// A non-blocking read returns whatever the kernel has — possibly half a
/// length prefix, possibly three frames and a tail. The decoder
/// accumulates those fragments ([`FrameDecoder::extend`]) and yields
/// complete payloads ([`FrameDecoder::next_frame`]) with the same
/// framing rules as the blocking [`read_frame`]: a `u32` big-endian
/// length prefix, never charged to any meter, followed by the encoded
/// message. Byte-split boundaries are invisible to the caller — the
/// yielded frame sequence depends only on the byte stream, not on how
/// it was chunked (the codec proptest drives exactly that invariant).
///
/// Length prefixes are capped (default [`MAX_FRAME_LEN`]): an
/// over-sized prefix is a framing error surfaced by
/// [`FrameDecoder::next_frame`] *immediately*, not a promise the
/// decoder waits on — otherwise `pending.len() < 4 + len` would hold
/// forever and the decoder would buffer the rest of the stream without
/// bound (a slow OOM on a connection that never errors).
pub struct FrameDecoder {
    /// Unconsumed stream bytes; `pos` marks how much of the front has
    /// already been yielded (compacted lazily to keep `extend` O(n)).
    buf: Vec<u8>,
    pos: usize,
    /// Largest acceptable frame payload.
    cap: usize,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            cap: MAX_FRAME_LEN,
        }
    }
}

impl FrameDecoder {
    /// An empty decoder, mid-stream position zero, capped at
    /// [`MAX_FRAME_LEN`].
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// An empty decoder with a custom frame-length cap, for channels
    /// whose legitimate messages are known to be strictly smaller.
    pub fn with_cap(cap: usize) -> FrameDecoder {
        FrameDecoder {
            cap,
            ..FrameDecoder::default()
        }
    }

    /// Append freshly read stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is dead.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame payload, if one has fully arrived.
    ///
    /// # Errors
    /// `InvalidData` when the pending length prefix exceeds the cap —
    /// a framing error: the stream position is corrupt (or hostile)
    /// and the connection must be torn down, since every subsequent
    /// byte would be misinterpreted.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, TransportError> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > self.cap {
            return Err(TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {}", self.cap),
            )));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let frame = Bytes::from(pending[4..4 + len].to_vec());
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Whether a partial frame (or partial length prefix) is buffered.
    /// EOF while this holds is a truncated stream, not a clean shutdown.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Discard any buffered partial frame (used once a truncation fault
    /// has been recorded, so it is reported exactly once).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
}

// ---------------------------------------------------------------------------
// In-memory pair.
// ---------------------------------------------------------------------------

struct SharedLink {
    s2w: VecDeque<Message>,
    w2s: VecDeque<Message>,
    source_open: bool,
    warehouse_open: bool,
    /// Receivers blocked in `recv` on the condvar. Counted under the
    /// lock, so a state change that sees zero here needs no wake syscall
    /// — a receiver about to park re-checks the state first.
    parked: usize,
    /// Wakers registered by each endpoint ([`Transport::set_waker`]),
    /// notified when a message lands for — or the peer of — that role.
    source_waker: Option<Arc<PollWaker>>,
    warehouse_waker: Option<Arc<PollWaker>>,
}

impl SharedLink {
    fn queue_mut(&mut self, direction: Direction) -> &mut VecDeque<Message> {
        match direction {
            Direction::SourceToWarehouse => &mut self.s2w,
            Direction::WarehouseToSource => &mut self.w2s,
        }
    }

    fn open(&self, role: Role) -> bool {
        match role {
            Role::Source => self.source_open,
            Role::Warehouse => self.warehouse_open,
        }
    }

    fn close(&mut self, role: Role) {
        match role {
            Role::Source => self.source_open = false,
            Role::Warehouse => self.warehouse_open = false,
        }
    }

    fn waker(&self, role: Role) -> Option<Arc<PollWaker>> {
        match role {
            Role::Source => self.source_waker.clone(),
            Role::Warehouse => self.warehouse_waker.clone(),
        }
    }

    fn set_waker(&mut self, role: Role, waker: Arc<PollWaker>) {
        match role {
            Role::Source => self.source_waker = Some(waker),
            Role::Warehouse => self.warehouse_waker = Some(waker),
        }
    }
}

/// The in-process transport: the simulator's channels, the reactor's
/// in-process channels, the serving stack's maintenance feed and the
/// benchmark rig.
///
/// * Endpoints can move across threads.
/// * [`Transport::recv`] blocks until a message arrives or the peer hangs
///   up (returning `Ok(None)` only for a hang-up, exactly like
///   [`TcpTransport`]); a single-threaded driver uses
///   [`Transport::try_recv`] instead.
/// * Dropping an endpoint closes its side, waking any blocked peer.
/// * Messages are queued as values, never encoded: an in-process hop has
///   no wire to cross, so it pays one clone instead of an encode and a
///   decode.
/// * The condvar is notified only when a receiver is blocked in `recv`,
///   so a same-thread or poll-driven deployment makes no wake syscall
///   per message. A registered [`PollWaker`] is notified on every send
///   regardless.
/// * Queues are unbounded: a send never blocks.
///
/// Both endpoints share one [`TransferMeter`], charged at send time with
/// [`Message::encoded_len`]: the exact size the codec would produce, so
/// byte counts match a TCP link's.
pub struct SharedFifo {
    role: Role,
    link: Arc<(Mutex<SharedLink>, Condvar)>,
    meter: TransferMeter,
}

impl SharedFifo {
    /// A connected `(source endpoint, warehouse endpoint)` pair sharing
    /// `meter`.
    pub fn pair(meter: TransferMeter) -> (SharedFifo, SharedFifo) {
        let link = Arc::new((
            Mutex::new(SharedLink {
                s2w: VecDeque::new(),
                w2s: VecDeque::new(),
                source_open: true,
                warehouse_open: true,
                parked: 0,
                source_waker: None,
                warehouse_waker: None,
            }),
            Condvar::new(),
        ));
        (
            SharedFifo {
                role: Role::Source,
                link: Arc::clone(&link),
                meter: meter.clone(),
            },
            SharedFifo {
                role: Role::Warehouse,
                link,
                meter,
            },
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SharedLink> {
        // A poisoned link means a peer thread panicked mid-send; the
        // queues themselves are always in a consistent state (every
        // mutation is a single push/pop), so continuing is sound.
        match self.link.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Transport for SharedFifo {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        let len = msg.encoded_len();
        let (wake, peer_waker) = {
            let mut link = self.lock();
            if !link.open(self.role.other()) {
                return Err(TransportError::Closed);
            }
            link.queue_mut(self.role.outbound()).push_back(msg.clone());
            (link.parked > 0, link.waker(self.role.other()))
        };
        self.meter.record(self.role.outbound(), len as u64);
        if wake {
            self.link.1.notify_all();
        }
        if let Some(waker) = peer_waker {
            waker.notify();
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        Ok(self.lock().queue_mut(self.role.inbound()).pop_front())
    }

    fn drain_into(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        // One lock for the whole batch instead of one per message.
        let mut link = self.lock();
        let queue = link.queue_mut(self.role.inbound());
        let take = queue.len().min(max);
        out.extend(queue.drain(..take));
        Ok(take)
    }

    fn recv(&mut self) -> Result<Option<Message>, TransportError> {
        let mut link = self.lock();
        loop {
            if let Some(msg) = link.queue_mut(self.role.inbound()).pop_front() {
                return Ok(Some(msg));
            }
            if !link.open(self.role.other()) {
                return Ok(None); // peer hung up cleanly
            }
            link.parked += 1;
            link = self
                .link
                .1
                .wait(link)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            link.parked -= 1;
        }
    }

    fn poll(&mut self) -> Result<Readiness, TransportError> {
        let mut link = self.lock();
        if !link.queue_mut(self.role.inbound()).is_empty() {
            Ok(Readiness::Ready)
        } else if !link.open(self.role.other()) {
            Ok(Readiness::Closed)
        } else {
            Ok(Readiness::Idle)
        }
    }

    fn set_waker(&mut self, waker: Arc<PollWaker>) -> bool {
        self.lock().set_waker(self.role, waker);
        true
    }

    fn meter(&self) -> &TransferMeter {
        &self.meter
    }
}

impl Drop for SharedFifo {
    fn drop(&mut self) {
        let peer = {
            let mut link = self.lock();
            link.close(self.role);
            link.waker(self.role.other())
        };
        // Wake the peer, blocked in `recv` or parked in a poll loop: it
        // must observe the hang-up.
        self.link.1.notify_all();
        if let Some(waker) = peer {
            waker.notify();
        }
    }
}

// ---------------------------------------------------------------------------
// TCP.
// ---------------------------------------------------------------------------

/// Bytes the outbound buffer may hold before [`Transport::send`] blocks
/// waiting for the kernel to accept more. Bounds per-connection memory
/// under a slow or stalled reader.
const TCP_OUTBOUND_CAP: usize = 1 << 20;

/// Read-buffer size for one non-blocking `read(2)`.
const TCP_READ_CHUNK: usize = 16 * 1024;

/// A [`Transport`] over a real TCP connection — readiness-driven, with
/// **no** per-connection threads.
///
/// The stream runs in non-blocking mode. A receive takes an
/// already-decoded frame if one waits, and only otherwise runs a
/// *service pass* ([`TcpTransport`] internal `pump`): flush whatever the
/// kernel will take of the bounded outbound buffer, then read until a
/// short read, `WouldBlock` or EOF, feeding an incremental
/// [`FrameDecoder`] whose complete frames (length prefix stripped,
/// payload metered at decode) queue for `try_recv`/`drain_into`. Sends
/// encode a length-prefixed frame ([`write_frame`] rules) in place at
/// the end of the outbound buffer and block only when the buffer would
/// exceed its cap — while blocked, the service pass keeps draining
/// inbound so two peers flooding each other cannot deadlock. Blocking
/// receives sleep in `poll(2)` on this socket alone.
///
/// **When bytes reach the socket.** [`Transport::send_all`] writes its
/// whole batch at once; [`Transport::send`] writes only while no
/// received frame waits, and otherwise leaves its frame for the next
/// send that finds the queue empty or for the service pass before the
/// endpoint next reads or sleeps (`close` too). A request/response turn
/// thus costs each side one write, however many frames it carries.
///
/// For *multiplexed* deployments the endpoint cannot notify a
/// [`PollWaker`] ([`Transport::set_waker`] reports `false`: nothing runs
/// on the sending side of the socket). It hands the poll loop its
/// descriptor instead ([`Transport::poll_fd`]: `POLLIN`, plus `POLLOUT`
/// while outbound bytes are pending), and the loop sleeps on it in
/// [`PollWaker::wait`] — which is how the station pool drives hundreds
/// of sockets from its fixed workers.
///
/// TCP delivers in order, preserving the paper's §3 FIFO-channel
/// assumption per connection.
pub struct TcpTransport {
    role: Role,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Complete inbound frames, already metered, awaiting decode.
    inbound: VecDeque<Bytes>,
    /// Encoded-but-unsent frames; `out_pos` marks the flushed prefix.
    outbound: BytesMut,
    out_pos: usize,
    /// An I/O fault observed by a probe before any `recv` asked for it.
    /// Surfaced (once) by the next receive or poll, so a mid-stream
    /// error is never mistaken for clean EOF.
    fault: Option<std::io::Error>,
    /// Peer sent FIN (or faulted): the socket will never be readable
    /// with new data again.
    eof: bool,
    /// [`TcpTransport::close`] ran; the fd may be shut down.
    closed: bool,
    meter: TransferMeter,
}

impl TcpTransport {
    /// Wrap an established stream, switching it to non-blocking mode.
    ///
    /// Nagle's algorithm is disabled: the protocol is request/response
    /// with small frames, and batching a frame behind an unacknowledged
    /// predecessor stalls every second message for a delayed-ACK
    /// interval (~40ms) — dwarfing actual processing time.
    ///
    /// # Errors
    /// Propagates `set_nonblocking` failures.
    pub fn new(stream: TcpStream, role: Role, meter: TransferMeter) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(TcpTransport {
            role,
            stream,
            decoder: FrameDecoder::new(),
            inbound: VecDeque::new(),
            outbound: BytesMut::new(),
            out_pos: 0,
            fault: None,
            eof: false,
            closed: false,
            meter,
        })
    }

    /// Connect to a listening peer.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(
        addr: impl ToSocketAddrs,
        role: Role,
        meter: TransferMeter,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        TcpTransport::new(stream, role, meter)
    }

    /// Hang up: try to flush what the kernel will take, and shut the
    /// socket down in both directions. Idempotent; also invoked on drop.
    /// With no reader thread there is nothing to join — close is O(1).
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let _ = self.flush_outbound();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Surface a stashed I/O fault, if one is waiting.
    fn take_fault(&mut self) -> Option<TransportError> {
        self.fault.take().map(TransportError::Io)
    }

    /// Write buffered outbound bytes until done or `WouldBlock`.
    fn flush_outbound(&mut self) -> Result<(), TransportError> {
        while self.out_pos < self.outbound.len() {
            match self.stream.write(&self.outbound.as_ref()[self.out_pos..]) {
                Ok(0) => {
                    return Err(TransportError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    )))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
        if self.out_pos == self.outbound.len() {
            self.outbound.clear();
            self.out_pos = 0;
        } else if self.out_pos >= 4096 {
            let pending = self.outbound_pending();
            self.outbound.as_mut().copy_within(self.out_pos.., 0);
            self.outbound.truncate(pending);
            self.out_pos = 0;
        }
        Ok(())
    }

    fn outbound_pending(&self) -> usize {
        self.outbound.len() - self.out_pos
    }

    /// Append `msg` to the outbound buffer and charge the meter.
    fn queue(&mut self, msg: &Message) {
        let len = put_frame(&mut self.outbound, msg);
        self.meter.record(self.role.outbound(), len as u64);
    }

    /// Write what the kernel takes of the outbound buffer. Past the cap,
    /// wait for it to drain — but keep servicing reads meanwhile, so two
    /// endpoints flooding each other make progress instead of
    /// deadlocking.
    fn write_out(&mut self) -> Result<(), TransportError> {
        self.flush_outbound()?;
        while self.outbound_pending() > TCP_OUTBOUND_CAP {
            self.wait_io(-1)?;
            self.pump();
            if let Some(e) = self.fault.take() {
                return Err(TransportError::Io(e));
            }
            self.flush_outbound()?;
            if self.eof && self.outbound_pending() > TCP_OUTBOUND_CAP {
                // Peer is gone and the kernel buffer is wedged full.
                return Err(TransportError::Closed);
            }
        }
        Ok(())
    }

    /// The service pass: flush pending writes (best-effort — a write
    /// fault will re-surface as a read fault or on the next `send`),
    /// then read until a short read, `WouldBlock` or EOF, queueing every
    /// complete frame (metered at decode time). A read that fills the
    /// chunk may have left more behind, so only that one reads again.
    fn pump(&mut self) {
        let _ = self.flush_outbound();
        if self.eof || self.closed {
            return;
        }
        let mut chunk = [0u8; TCP_READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.extend(&chunk[..n]);
                    if n < TCP_READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.fault.is_none() {
                        self.fault = Some(e);
                    }
                    self.eof = true;
                    break;
                }
            }
        }
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.meter.record(self.role.inbound(), frame.len() as u64);
                    self.inbound.push_back(frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing error (over-cap length prefix): the
                    // stream position is unrecoverable — fault once and
                    // tear the connection down.
                    if self.fault.is_none() {
                        self.fault = Some(match e {
                            TransportError::Io(io) => io,
                            other => std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                other.to_string(),
                            ),
                        });
                    }
                    self.eof = true;
                    self.decoder.clear();
                    break;
                }
            }
        }
        if self.eof && self.decoder.has_partial() {
            // EOF mid-frame: a truncated stream, reported exactly once
            // as the fault the blocking `read_frame` would have raised.
            if self.fault.is_none() {
                self.fault = Some(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            self.decoder.clear();
        }
    }

    /// Sleep in `poll(2)` on this fd until it is readable (or writable,
    /// when a flush is pending), `timeout_ms` elapses, or an error
    /// lands. `-1` blocks indefinitely.
    fn wait_io(&mut self, timeout_ms: i32) -> Result<(), TransportError> {
        let mut fds = [self.wait_fd()];
        libc::poll_fds(&mut fds, timeout_ms).map_err(TransportError::Io)?;
        Ok(())
    }

    /// This socket and the events a wait on it needs: readable, plus
    /// writable while a flush is pending.
    fn wait_fd(&self) -> PollFd {
        let mut events = libc::POLLIN;
        if self.outbound_pending() > 0 {
            events |= libc::POLLOUT;
        }
        PollFd {
            fd: self.stream.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        self.queue(msg);
        // A waiting frame means the caller's turn goes on: these bytes
        // leave with its last reply or before its next read.
        if self.inbound.is_empty() || self.outbound_pending() > TCP_OUTBOUND_CAP {
            self.write_out()?;
        }
        Ok(())
    }

    fn send_all(&mut self, msgs: &mut Vec<Message>) -> Result<(), TransportError> {
        for msg in msgs.drain(..) {
            self.queue(&msg);
        }
        self.write_out()
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        // A decoded frame answers without a syscall; a stashed fault
        // surfaces once the queue is empty.
        if self.inbound.is_empty() {
            self.pump();
        }
        match self.inbound.pop_front() {
            Some(frame) => Ok(Some(Message::decode(frame)?)),
            None => self.take_fault().map_or(Ok(None), Err),
        }
    }

    fn recv(&mut self) -> Result<Option<Message>, TransportError> {
        loop {
            if let Some(msg) = self.try_recv()? {
                return Ok(Some(msg));
            }
            if self.eof || self.closed {
                return Ok(None); // peer hung up cleanly
            }
            self.wait_io(-1)?;
        }
    }

    fn drain_into(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        // At most one service pass, and none when the queue fills the
        // batch; then decode straight out of the frame queue.
        if self.inbound.len() < max {
            self.pump();
        }
        let mut take = 0;
        while take < max {
            let Some(frame) = self.inbound.pop_front() else {
                break;
            };
            out.push(Message::decode(frame)?);
            take += 1;
        }
        if take == 0 {
            if let Some(fault) = self.take_fault() {
                return Err(fault);
            }
        }
        Ok(take)
    }

    fn poll(&mut self) -> Result<Readiness, TransportError> {
        if self.inbound.is_empty() {
            self.pump();
        }
        if !self.inbound.is_empty() {
            return Ok(Readiness::Ready);
        }
        if let Some(fault) = self.take_fault() {
            return Err(fault);
        }
        if self.eof || self.closed {
            Ok(Readiness::Closed)
        } else {
            Ok(Readiness::Idle)
        }
    }

    fn poll_fd(&self) -> Option<PollFd> {
        Some(self.wait_fd())
    }

    fn meter(&self) -> &TransferMeter {
        &self.meter
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::QueryId;
    use eca_relational::{SignedBag, Tuple, Update};
    use std::net::TcpListener;

    fn notification(n: i64) -> Message {
        Message::UpdateNotification {
            update: Update::insert("r1", Tuple::ints([n, n + 1])),
        }
    }

    #[test]
    fn in_memory_directions_are_independent() {
        let (mut src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let query = Message::QueryAnswer {
            id: QueryId(1),
            answer: SignedBag::new(),
        };
        src.send(&query).unwrap();
        wh.send(&notification(9)).unwrap();
        assert_eq!(src.try_recv().unwrap(), Some(notification(9)));
        assert_eq!(wh.try_recv().unwrap(), Some(query));
    }

    #[test]
    fn frame_roundtrip_over_buffer() {
        let msgs = [notification(1), notification(2)];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            let frame = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&Message::decode(frame).unwrap(), m);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &notification(1)).unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(TransportError::Io(_)),));
    }

    #[test]
    fn capped_read_rejects_oversized_prefix_before_allocating() {
        // A garbage prefix claiming a ~4 GiB frame must fail on the cap
        // check, not attempt the allocation.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        let Err(TransportError::Io(e)) = read_frame_capped(&mut r, 256) else {
            panic!("oversized prefix accepted");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        // In-cap frames decode identically to the uncapped reader.
        let mut buf = Vec::new();
        write_frame(&mut buf, &notification(3)).unwrap();
        let mut r = &buf[..];
        let frame = read_frame_capped(&mut r, buf.len()).unwrap().unwrap();
        assert_eq!(Message::decode(frame).unwrap(), notification(3));
        assert!(
            read_frame_capped(&mut r, 256).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn tcp_pair_roundtrips_and_meters_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut wh = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
            // Echo protocol: read two notifications, send one query back.
            let a = wh.recv().unwrap().unwrap();
            let b = wh.recv().unwrap().unwrap();
            wh.send(&Message::QueryAnswer {
                id: QueryId(5),
                answer: SignedBag::new(),
            })
            .unwrap();
            (a, b, wh.meter().clone())
        });

        let meter = TransferMeter::new();
        let mut src = TcpTransport::connect(addr, Role::Source, meter.clone()).unwrap();
        src.send(&notification(1)).unwrap();
        src.send(&notification(2)).unwrap();
        let back = src.recv().unwrap().unwrap();
        assert!(matches!(back, Message::QueryAnswer { .. }));

        let (a, b, wh_meter) = server.join().unwrap();
        assert_eq!(a, notification(1));
        assert_eq!(b, notification(2));
        // FIFO order preserved; both meters saw the same s2w totals.
        assert_eq!(meter.messages_s2w(), 2);
        assert_eq!(wh_meter.messages_s2w(), 2);
        assert_eq!(meter.bytes_s2w(), wh_meter.bytes_s2w());
        // And the w2s answer was charged on receive at the source.
        assert_eq!(meter.messages_w2s(), 1);
    }

    #[test]
    fn shared_fifo_is_fifo_and_metered() {
        let meter = TransferMeter::new();
        let (mut src, mut wh) = SharedFifo::pair(meter.clone());
        src.send(&notification(1)).unwrap();
        src.send(&notification(2)).unwrap();
        assert_eq!(wh.poll().unwrap(), Readiness::Ready);
        assert_eq!(wh.try_recv().unwrap(), Some(notification(1)));
        assert_eq!(wh.recv().unwrap(), Some(notification(2)));
        assert_eq!(wh.try_recv().unwrap(), None);
        assert_eq!(wh.poll().unwrap(), Readiness::Idle);
        assert_eq!(meter.messages_s2w(), 2);
        assert_eq!(
            meter.bytes_s2w(),
            (notification(1).encoded_len() + notification(2).encoded_len()) as u64
        );
    }

    #[test]
    fn shared_fifo_recv_blocks_until_send() {
        let (mut src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            src.send(&notification(7)).unwrap();
            src // keep the endpoint alive until the message is read
        });
        assert_eq!(wh.recv().unwrap(), Some(notification(7)));
        sender.join().unwrap();
    }

    #[test]
    fn shared_fifo_peer_drop_wakes_and_closes() {
        let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(src);
        });
        // Blocks until the drop, then reports a clean hang-up.
        assert_eq!(wh.recv().unwrap(), None);
        assert_eq!(wh.poll().unwrap(), Readiness::Closed);
        dropper.join().unwrap();
    }

    #[test]
    fn shared_fifo_send_to_closed_peer_errors_but_drains_queued() {
        let (mut src, wh) = SharedFifo::pair(TransferMeter::new());
        src.send(&notification(3)).unwrap();
        drop(wh);
        assert!(matches!(
            src.send(&notification(4)),
            Err(TransportError::Closed)
        ));
        // The source end can still drain anything the peer sent earlier.
        let (mut src2, mut wh2) = SharedFifo::pair(TransferMeter::new());
        wh2.send(&notification(9)).unwrap();
        drop(wh2);
        assert_eq!(src2.poll().unwrap(), Readiness::Ready);
        assert_eq!(src2.recv().unwrap(), Some(notification(9)));
        assert_eq!(src2.recv().unwrap(), None);
    }

    /// Round trips per lost-wake-up test: enough that a missed notify,
    /// were the waiter count ever wrong, strands one side.
    const PING_PONGS: i64 = 2_000;

    /// Run `f` on its own thread and fail unless it finishes within 10 s:
    /// a lost wake-up parks a thread forever instead of failing.
    fn within_watchdog(f: impl FnOnce() + Send + 'static) {
        let run = std::thread::spawn(f);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !run.is_finished() {
            assert!(
                Instant::now() < deadline,
                "ping-pong stalled: a wake-up was lost"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        run.join().unwrap();
    }

    /// Two threads bounce [`PING_PONGS`] messages over a `SharedFifo`
    /// pair, each receiving with `recv`, so every hop parks the receiver
    /// and needs the sender's gated notify.
    fn ping_pong((mut src, mut wh): (SharedFifo, SharedFifo)) {
        let echo = std::thread::spawn(move || {
            for i in 0..PING_PONGS {
                assert_eq!(wh.recv().unwrap(), Some(notification(i)));
                wh.send(&notification(i)).unwrap();
            }
        });
        for i in 0..PING_PONGS {
            src.send(&notification(i)).unwrap();
            assert_eq!(src.recv().unwrap(), Some(notification(i)));
        }
        echo.join().unwrap();
    }

    #[test]
    fn shared_fifo_ping_pong_with_recv_loses_no_wake_up() {
        within_watchdog(|| {
            ping_pong(SharedFifo::pair(TransferMeter::new()));
        });
    }

    #[test]
    fn poll_waker_wait_returns_immediately_after_missed_notify() {
        let waker = PollWaker::new().unwrap();
        let seen = waker.epoch();
        waker.notify(); // lands between epoch() and wait(): must not be lost
        let start = std::time::Instant::now();
        assert!(waker.wait(seen, &mut Vec::new(), Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
        // No event since: a fresh snapshot times out.
        let seen = waker.epoch();
        assert!(!waker.wait(seen, &mut Vec::new(), Duration::from_millis(10)));
    }

    #[test]
    fn poll_waker_notify_wakes_a_parked_waiter() {
        let waker = PollWaker::new().unwrap();
        let seen = waker.epoch();
        let notifier = {
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.notify();
            })
        };
        let start = std::time::Instant::now();
        assert!(waker.wait(seen, &mut Vec::new(), Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
        notifier.join().unwrap();
        // The wake byte was consumed: the next wait sleeps its timeout.
        let seen = waker.epoch();
        let start = std::time::Instant::now();
        assert!(!waker.wait(seen, &mut Vec::new(), Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn shared_fifo_send_notifies_registered_waker() {
        let (mut src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let waker = PollWaker::new().unwrap();
        assert!(wh.set_waker(Arc::clone(&waker)));
        assert!(wh.poll_fd().is_none());
        let seen = waker.epoch();
        assert_eq!(wh.poll().unwrap(), Readiness::Idle);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            src.send(&notification(4)).unwrap();
            src
        });
        assert!(waker.wait(seen, &mut Vec::new(), Duration::from_secs(5)));
        assert_eq!(wh.poll().unwrap(), Readiness::Ready);
        assert_eq!(wh.try_recv().unwrap(), Some(notification(4)));
        // Peer drop also notifies, so a parked loop observes Closed.
        let seen = waker.epoch();
        drop(sender.join().unwrap());
        assert!(waker.wait(seen, &mut Vec::new(), Duration::from_secs(5)));
        assert_eq!(wh.poll().unwrap(), Readiness::Closed);
    }

    #[test]
    fn tcp_hands_its_fd_to_a_parked_waiter() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut wh = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            wh.send(&notification(1)).unwrap();
            // Dropped afterwards: the client's wait must also see Closed.
        });
        let mut src = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
        let waker = PollWaker::new().unwrap();
        // Nothing runs on the sending side of a socket, so the transport
        // refuses a waker and hands over its descriptor instead.
        assert!(!src.set_waker(Arc::clone(&waker)));
        let fd = src.poll_fd().unwrap();
        assert_eq!(fd.events, libc::POLLIN);
        let mut fds = Vec::new();
        loop {
            match src.poll().unwrap() {
                Readiness::Ready => break,
                Readiness::Idle => {
                    fds.push(src.poll_fd().unwrap());
                    // No notify ever lands: only the descriptor wakes it.
                    assert!(waker.wait(waker.epoch(), &mut fds, Duration::from_secs(5)));
                    assert_ne!(fds[0].revents & libc::POLLIN, 0);
                    fds.clear();
                }
                Readiness::Closed => panic!("closed before delivering"),
            }
        }
        assert_eq!(src.try_recv().unwrap(), Some(notification(1)));
        server.join().unwrap();
        loop {
            match src.poll().unwrap() {
                Readiness::Closed => break,
                _ => {
                    fds.push(src.poll_fd().unwrap());
                    waker.wait(waker.epoch(), &mut fds, Duration::from_secs(5));
                    fds.clear();
                }
            }
        }
    }

    #[test]
    fn in_memory_poll_observes_peer_drop() {
        let (mut src, wh) = SharedFifo::pair(TransferMeter::new());
        assert_eq!(src.poll().unwrap(), Readiness::Idle);
        drop(wh);
        assert_eq!(src.poll().unwrap(), Readiness::Closed);
    }

    #[test]
    fn tcp_poll_distinguishes_idle_ready_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut wh = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
            wh.send(&notification(1)).unwrap();
            // Hold the connection open until told to close.
            wh.recv().unwrap()
        });
        let mut src = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
        // Wait for the in-flight message, then observe Ready without
        // consuming it.
        while src.poll().unwrap() == Readiness::Idle {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(src.poll().unwrap(), Readiness::Ready);
        assert_eq!(src.try_recv().unwrap(), Some(notification(1)));
        src.send(&notification(2)).unwrap(); // lets the server exit
        server.join().unwrap();
        // Server side dropped: eventually Closed.
        loop {
            match src.poll().unwrap() {
                Readiness::Closed => break,
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
    }

    #[test]
    fn tcp_drop_then_reconnect_leaves_no_stuck_state() {
        // Two full connect/drop cycles against fresh listeners: each drop
        // must join its reader thread (close() is drop-invoked), so the
        // second cycle starts clean and the test exits without leaks.
        for round in 0..2 {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut wh =
                    TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
                let got = wh.recv().unwrap();
                wh.close(); // explicit close before drop: must be idempotent
                got
            });
            let mut src = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
            src.send(&notification(round)).unwrap();
            assert_eq!(server.join().unwrap(), Some(notification(round)));
            src.close();
            drop(src); // close() then drop: second close is a no-op
        }
    }

    #[test]
    fn tcp_reader_fault_survives_poll_probe() {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // A frame header promising 100 bytes, then only 3, then a
            // hard close: a truncated frame, not clean EOF.
            stream.write_all(&100u32.to_be_bytes()).unwrap();
            stream.write_all(&[1, 2, 3]).unwrap();
            stream.flush().unwrap();
        });
        let mut src = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
        server.join().unwrap();
        // Probe until the truncation is observed: it surfaces once as
        // Io (with the real ErrorKind), never as a frame or a clean
        // close...
        loop {
            match src.poll() {
                Ok(Readiness::Idle) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(TransportError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    break;
                }
                other => panic!("expected Io fault, got {other:?}"),
            }
        }
        // ...and afterwards the channel reads closed.
        assert_eq!(src.poll().unwrap(), Readiness::Closed);
        assert_eq!(src.recv().unwrap(), None);
    }

    /// A connected `(transport, raw blocking peer)` pair over loopback.
    fn tcp_with_raw_peer(role: Role) -> (TcpTransport, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let t = TcpTransport::connect(listener.local_addr().unwrap(), role, TransferMeter::new())
            .unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (t, peer)
    }

    /// `msgs` framed one by one by [`write_frame`].
    fn framed(msgs: &[Message]) -> Vec<u8> {
        let mut buf = Vec::new();
        for m in msgs {
            write_frame(&mut buf, m).unwrap();
        }
        buf
    }

    #[test]
    fn send_all_writes_a_turn_in_one_write() {
        let (mut t, mut peer) = tcp_with_raw_peer(Role::Warehouse);
        let turn = [notification(1), notification(2)];
        let expected = framed(&turn);
        t.send_all(&mut turn.to_vec()).unwrap();
        // One blocking read sees both frames: they left in one write,
        // byte for byte what `write_frame` lays out.
        let mut buf = vec![0u8; 4096];
        let n = peer.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], &expected[..]);
        assert_eq!(t.meter().messages_w2s(), 2);
        assert_eq!(
            t.meter().bytes_w2s(),
            turn.iter().map(|m| m.encoded_len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn deferred_reply_reaches_the_peer_before_the_endpoint_sleeps() {
        let (mut t, mut peer) = tcp_with_raw_peer(Role::Source);
        let (written, arrived) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            // Two frames in one segment, so both wait decoded at once.
            peer.write_all(&framed(&[notification(1), notification(2)]))
                .unwrap();
            written.send(()).unwrap();
            let reply = read_frame(&mut peer).map(|f| Message::decode(f.unwrap()));
            drop(peer); // hang up once the reply is in, or on timeout
            reply
        });
        arrived.recv().unwrap();
        assert_eq!(t.recv().unwrap(), Some(notification(1)));
        t.send(&notification(10)).unwrap();
        // The second frame still waits, so the reply was held back...
        assert_ne!(t.poll_fd().unwrap().events & libc::POLLOUT, 0);
        assert_eq!(t.poll().unwrap(), Readiness::Ready);
        assert_eq!(t.recv().unwrap(), Some(notification(2)));
        // ...and leaves before the endpoint sleeps: the peer answers the
        // reply by hanging up. Had the reply stayed behind, the peer's
        // read would time out instead and fail the test below.
        assert_eq!(t.recv().unwrap(), None);
        assert_eq!(peer.join().unwrap().unwrap().unwrap(), notification(10));
    }

    /// A `ReadError` whose frame is exactly `len` bytes long.
    fn frame_of_len(len: usize) -> Message {
        let msg = Message::ReadError {
            id: QueryId(1),
            reason: "x".repeat(len - 17),
        };
        assert_eq!(framed(std::slice::from_ref(&msg)).len(), len);
        msg
    }

    /// Frames filling whole read chunks, then the peer's FIN: every read
    /// comes back full until the EOF, which must still be seen.
    fn chunk_aligned_stream(tail: &[u8]) -> (TcpTransport, Vec<Message>) {
        let (t, mut peer) = tcp_with_raw_peer(Role::Source);
        let msgs: Vec<Message> = (0..4).map(|_| frame_of_len(TCP_READ_CHUNK / 2)).collect();
        let mut bytes = framed(&msgs);
        assert_eq!(bytes.len(), 2 * TCP_READ_CHUNK);
        bytes.extend_from_slice(tail);
        peer.write_all(&bytes).unwrap();
        drop(peer);
        (t, msgs)
    }

    #[test]
    fn chunk_aligned_frames_decode_and_eof_is_clean() {
        let (mut t, msgs) = chunk_aligned_stream(&[]);
        for m in &msgs {
            assert_eq!(t.recv().unwrap().as_ref(), Some(m));
        }
        assert_eq!(t.recv().unwrap(), None);
    }

    #[test]
    fn chunk_aligned_frames_then_a_partial_frame_fault_once() {
        let mut tail = 100u32.to_be_bytes().to_vec();
        tail.extend_from_slice(&[1, 2, 3]);
        let (mut t, msgs) = chunk_aligned_stream(&tail);
        for m in &msgs {
            assert_eq!(t.recv().unwrap().as_ref(), Some(m));
        }
        let Err(TransportError::Io(e)) = t.recv() else {
            panic!("a truncated frame must fault");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(t.recv().unwrap(), None);
        assert_eq!(t.poll().unwrap(), Readiness::Closed);
    }

    #[test]
    fn tcp_recv_none_after_peer_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut wh = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
            wh.send(&notification(3)).unwrap();
            // Dropped here: the source should read the message then EOF.
        });
        let mut src = TcpTransport::connect(addr, Role::Source, TransferMeter::new()).unwrap();
        assert_eq!(src.recv().unwrap(), Some(notification(3)));
        assert_eq!(src.recv().unwrap(), None);
        server.join().unwrap();
    }
}

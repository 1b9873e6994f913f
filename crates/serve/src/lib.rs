//! The online read-serving front end (DESIGN §14).
//!
//! Maintenance keeps views fresh; this crate makes them *readable under
//! load*. A [`ReadServer`] answers [`eca_wire::Message::ReadQuery`]
//! requests from an [`EpochRegistry`] — the snapshot store the
//! warehouse publishes into after every maintenance event — so read
//! traffic touches only published `Arc` snapshots and never blocks (or
//! is blocked by) maintenance. Clients pick a §3 consistency level per
//! read ([`ReadLevel`]):
//!
//! * `Convergent` — any published epoch,
//! * `Weak` — published epochs, monotonic per client (the client
//!   carries its epoch floor in the request, so the guarantee survives
//!   disconnect/reconnect),
//! * `Strong` — the latest epoch published while the view was
//!   quiescent: a §3.1 state-history member, read-your-latest-epoch.
//!
//! Two deployment shapes share the same protocol:
//!
//! * [`ReadServer::serve_ready`] pumps any [`Transport`] —
//!   `tests/serving_consistency.rs` serves in-process
//!   [`eca_wire::SharedFifo`] clients from its own threads this way;
//! * [`serve_listener`] opens a real TCP port on an
//!   [`eca_wire::StationPool`], the worker pool the warehouse's reactor
//!   also runs on: every client connection is a station owned by one
//!   worker, which sleeps in `poll(2)` on its own sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eca_core::QueryId;
use eca_relational::SignedBag;
use eca_warehouse::EpochRegistry;
use eca_wire::{
    Exit, Message, ReadLevel, StartError, StationOwner, StationPool, Transport, TransportError,
};

/// Errors raised by the serving layer (either side).
#[derive(Debug)]
pub enum ServeError {
    /// The underlying transport failed.
    Transport(TransportError),
    /// The server answered with [`Message::ReadError`].
    Remote {
        /// Correlation id of the failed read.
        id: QueryId,
        /// The server's reason.
        reason: String,
    },
    /// A message that is not part of the read protocol arrived.
    Protocol {
        /// The offending message kind.
        kind: &'static str,
    },
    /// The server answered below the client's monotonicity floor — a
    /// consistency violation (never expected; surfaced so tests and the
    /// bench can count violations instead of silently regressing).
    NonMonotonic {
        /// The view read.
        view: u64,
        /// The client's floor at send time.
        floor: u64,
        /// The epoch actually served.
        got: u64,
    },
    /// The channel closed before the answer arrived, or before the read
    /// could be sent.
    Disconnected,
    /// A read was begun while another was still in flight.
    Busy,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Transport(e) => write!(f, "transport error: {e}"),
            ServeError::Remote { id, reason } => write!(f, "read {id:?} failed: {reason}"),
            ServeError::Protocol { kind } => write!(f, "unexpected {kind} on a read channel"),
            ServeError::NonMonotonic { view, floor, got } => write!(
                f,
                "view {view}: epoch {got} served below the client floor {floor}"
            ),
            ServeError::Disconnected => write!(f, "connection closed mid-read"),
            ServeError::Busy => write!(f, "a read is already in flight on this client"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for ServeError {
    /// A peer hang-up is [`ServeError::Disconnected`] whichever call
    /// noticed it.
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Closed => ServeError::Disconnected,
            e => ServeError::Transport(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Server side.
// ---------------------------------------------------------------------------

/// A stateless read responder over a shared [`EpochRegistry`].
///
/// Stateless is the point: all per-client consistency state (the epoch
/// floor) travels in the request, so any worker can serve any client,
/// and a client that reconnects to a different worker — or a different
/// server — keeps its guarantees.
pub struct ReadServer {
    registry: Arc<EpochRegistry>,
}

impl ReadServer {
    /// A server over `registry`.
    pub fn new(registry: Arc<EpochRegistry>) -> ReadServer {
        ReadServer { registry }
    }

    /// Answer one inbound message. Read queries get a
    /// [`Message::ReadAnswer`] (or [`Message::ReadError`] for an
    /// unknown view); anything else gets a `ReadError` naming the
    /// protocol violation — a read channel never carries maintenance
    /// traffic.
    pub fn respond(&self, msg: Message) -> Message {
        match msg {
            Message::ReadQuery {
                id,
                view,
                level,
                min_epoch,
            } => match self.registry.read(view as usize, level, min_epoch) {
                Some(snap) => Message::ReadAnswer {
                    id,
                    view,
                    epoch: snap.epoch,
                    latest: snap.latest,
                    rows: snap.rows,
                },
                None => Message::ReadError {
                    id,
                    reason: format!("unknown view #{view}"),
                },
            },
            other => Message::ReadError {
                id: QueryId(0),
                reason: format!("unexpected {} on a read channel", kind_of(&other)),
            },
        }
    }

    /// Drain every request currently available on `transport` and send
    /// the answers back. Returns the number of requests served.
    ///
    /// # Errors
    /// Transport faults (including framing errors from hostile
    /// prefixes) — the caller should drop the connection.
    pub fn serve_ready(&self, transport: &mut dyn Transport) -> Result<usize, TransportError> {
        let mut served = 0;
        while let Some(msg) = transport.try_recv()? {
            transport.send(&self.respond(msg))?;
            served += 1;
        }
        Ok(served)
    }
}

fn kind_of(msg: &Message) -> &'static str {
    match msg {
        Message::UpdateNotification { .. } => "UpdateNotification",
        Message::QueryRequest { .. } => "QueryRequest",
        Message::QueryAnswer { .. } => "QueryAnswer",
        Message::Ack { .. } => "Ack",
        Message::Hello { .. } => "Hello",
        Message::ReadQuery { .. } => "ReadQuery",
        Message::ReadAnswer { .. } => "ReadAnswer",
        Message::ReadError { .. } => "ReadError",
    }
}

// ---------------------------------------------------------------------------
// TCP front end.
// ---------------------------------------------------------------------------

/// The read server as a [`StationPool`] owner: every connection is a
/// station, every request gets [`ReadServer::respond`]'s answer.
struct Reads {
    server: ReadServer,
    /// Key for the next admitted connection.
    next: AtomicU64,
    served: AtomicU64,
}

impl StationOwner for Reads {
    type Key = u64;

    fn handle(&self, _: u64, msg: Message, replies: &mut Vec<Message>) {
        replies.push(self.server.respond(msg));
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// A hang-up or fault (a truncated stream, a hostile length prefix)
    /// closes that station alone; the client's floors travel with the
    /// client, so it loses nothing by reconnecting.
    fn closed(&self, _: u64, _: Exit) {}

    fn gate(&self, _: &TcpStream) -> Option<u64> {
        Some(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// Handle to a running TCP read server. Dropping it stops accepting,
/// joins every serving thread and hangs up every client.
pub struct ServeHandle {
    addr: SocketAddr,
    pool: StationPool<Reads>,
}

impl ServeHandle {
    /// The bound address (use with `TcpTransport::connect`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total read requests served so far.
    pub fn served(&self) -> u64 {
        self.pool.owner().served.load(Ordering::Relaxed)
    }

    /// Stop the server: the same as dropping the handle.
    pub fn shutdown(self) {}
}

/// Open a TCP read-serving port over `registry` on a
/// [`StationPool`]: an accept thread and `workers` (at least one)
/// serving threads, each the only reader of its share of the
/// connections and asleep in `poll(2)` on them when they are idle.
///
/// # Errors
/// Binding, wake-socket or thread-spawn failures.
pub fn serve_listener(
    addr: impl ToSocketAddrs,
    registry: Arc<EpochRegistry>,
    workers: usize,
) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let reads = Reads {
        server: ReadServer::new(registry),
        next: AtomicU64::new(0),
        served: AtomicU64::new(0),
    };
    let mut pool = match StationPool::start(reads, workers, Vec::new()) {
        Ok(pool) => pool,
        Err(StartError::Io(e)) => return Err(e),
        Err(StartError::Refused(..)) => unreachable!("a pool with no stations refuses none"),
    };
    let addr = pool.listen(listener)?;
    Ok(ServeHandle { addr, pool })
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

/// One completed read.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The view read.
    pub view: u64,
    /// Level the read was served at.
    pub level: ReadLevel,
    /// Epoch of the served snapshot.
    pub epoch: u64,
    /// Latest published epoch at serve time.
    pub latest: u64,
    /// The rows.
    pub rows: SignedBag,
}

impl ReadOutcome {
    /// Staleness of this answer, in epochs behind the latest published.
    pub fn staleness(&self) -> u64 {
        self.latest.saturating_sub(self.epoch)
    }
}

/// A read client over any [`Transport`], tracking per-view epoch floors
/// so weak/strong reads stay monotonic — including across reconnects:
/// extract the floors with [`ReadClient::floors`] before dropping a
/// dead connection and restore them with [`ReadClient::with_floors`] on
/// the new one.
pub struct ReadClient<T: Transport> {
    transport: T,
    next_id: u64,
    /// Highest epoch observed per `(view, level)`.
    floors: BTreeMap<(u64, ReadLevel), u64>,
    /// The read in flight, if any: `(id, view, level, floor at send)`.
    pending: Option<(QueryId, u64, ReadLevel, u64)>,
}

impl<T: Transport> ReadClient<T> {
    /// A fresh client (no floors).
    pub fn new(transport: T) -> ReadClient<T> {
        ReadClient::with_floors(transport, BTreeMap::new())
    }

    /// A client resuming with floors carried over from a previous
    /// connection — the reconnect path: monotonicity is a property of
    /// the *client*, not the connection.
    pub fn with_floors(transport: T, floors: BTreeMap<(u64, ReadLevel), u64>) -> ReadClient<T> {
        ReadClient {
            transport,
            next_id: 1,
            floors,
            pending: None,
        }
    }

    /// The current floors, for carrying across a reconnect.
    pub fn floors(&self) -> BTreeMap<(u64, ReadLevel), u64> {
        self.floors.clone()
    }

    /// The underlying transport (e.g. to inspect its meter).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport.
    #[cfg(test)]
    fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Send a read without waiting for the answer. At most one read may
    /// be in flight per client (the channel is FIFO).
    ///
    /// # Errors
    /// [`ServeError::Busy`] if a read is already pending; transport
    /// faults.
    pub fn begin_read(&mut self, view: u64, level: ReadLevel) -> Result<QueryId, ServeError> {
        if self.pending.is_some() {
            return Err(ServeError::Busy);
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let floor = match level {
            ReadLevel::Convergent => 0,
            _ => *self.floors.get(&(view, level)).unwrap_or(&0),
        };
        self.transport.send(&Message::ReadQuery {
            id,
            view,
            level,
            min_epoch: floor,
        })?;
        self.pending = Some((id, view, level, floor));
        Ok(id)
    }

    /// Non-blocking: collect the pending read's answer if it arrived.
    ///
    /// # Errors
    /// [`ServeError::Disconnected`] on channel close mid-read;
    /// [`ServeError::NonMonotonic`] when the served epoch regressed
    /// below the floor; remote/protocol/transport failures.
    pub fn try_finish(&mut self) -> Result<Option<ReadOutcome>, ServeError> {
        if self.pending.is_none() {
            return Ok(None);
        }
        match self.transport.try_recv() {
            Ok(Some(msg)) => self.accept(msg).map(Some),
            Ok(None) => {
                if matches!(self.transport.poll(), Ok(eca_wire::Readiness::Closed)) {
                    return Err(self.abandon(TransportError::Closed));
                }
                Ok(None)
            }
            Err(e) => Err(self.abandon(e)),
        }
    }

    /// Blocking read: send and wait for the answer.
    ///
    /// # Errors
    /// As [`ReadClient::begin_read`] and [`ReadClient::try_finish`].
    pub fn read(&mut self, view: u64, level: ReadLevel) -> Result<ReadOutcome, ServeError> {
        self.begin_read(view, level)?;
        match self.transport.recv() {
            Ok(Some(msg)) => self.accept(msg),
            Ok(None) => Err(self.abandon(TransportError::Closed)),
            Err(e) => Err(self.abandon(e)),
        }
    }

    /// The channel failed with a read in flight. It can no longer deliver
    /// that answer, so the read is dropped: the next one reports the
    /// channel's state instead of [`ServeError::Busy`].
    fn abandon(&mut self, e: TransportError) -> ServeError {
        self.pending = None;
        e.into()
    }

    fn accept(&mut self, msg: Message) -> Result<ReadOutcome, ServeError> {
        // Only reachable with a read in flight; a message outside one is
        // unsolicited, whatever its kind.
        let Some((id, view, level, floor)) = self.pending.take() else {
            return Err(ServeError::Protocol {
                kind: kind_of(&msg),
            });
        };
        match msg {
            Message::ReadAnswer {
                id: got_id,
                view: got_view,
                epoch,
                latest,
                rows,
            } => {
                if got_id != id || got_view != view {
                    return Err(ServeError::Protocol {
                        kind: "mis-correlated ReadAnswer",
                    });
                }
                if level != ReadLevel::Convergent && epoch < floor {
                    return Err(ServeError::NonMonotonic {
                        view,
                        floor,
                        got: epoch,
                    });
                }
                let slot = self.floors.entry((view, level)).or_insert(0);
                *slot = (*slot).max(epoch);
                Ok(ReadOutcome {
                    view,
                    level,
                    epoch,
                    latest,
                    rows,
                })
            }
            Message::ReadError { id, reason } => Err(ServeError::Remote { id, reason }),
            other => Err(ServeError::Protocol {
                kind: kind_of(&other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;
    use eca_wire::{Role, SharedFifo, TcpTransport, TransferMeter};

    fn registry() -> Arc<EpochRegistry> {
        Arc::new(EpochRegistry::new(
            [SignedBag::from_tuples([Tuple::ints([1])])],
            4,
        ))
    }

    #[test]
    fn serve_answers_reads_and_rejects_maintenance_traffic() {
        let reg = registry();
        let server = ReadServer::new(Arc::clone(&reg));
        let (client_end, mut server_end) = SharedFifo::pair(TransferMeter::new());

        let mut client = ReadClient::new(client_end);
        client.begin_read(0, ReadLevel::Strong).unwrap();
        server.serve_ready(&mut server_end).unwrap();
        let got = client.try_finish().unwrap().unwrap();
        assert_eq!(got.epoch, 0);
        assert_eq!(got.rows, SignedBag::from_tuples([Tuple::ints([1])]));

        // Maintenance traffic on a read channel is a remote error.
        client
            .transport_mut()
            .send(&Message::Hello { epoch: 3 })
            .unwrap();
        server.serve_ready(&mut server_end).unwrap();
        match client.transport_mut().try_recv().unwrap().unwrap() {
            Message::ReadError { reason, .. } => assert!(reason.contains("Hello")),
            other => panic!("expected ReadError, got {other:?}"),
        }
    }

    #[test]
    fn a_read_cut_off_by_a_hang_up_leaves_the_client_disconnected_not_busy() {
        let (client_end, mut server_end) = SharedFifo::pair(TransferMeter::new());
        let mut client = ReadClient::new(client_end);
        std::thread::scope(|s| {
            // The server takes the query, then hangs up without answering.
            s.spawn(move || {
                let query = server_end.recv().unwrap();
                assert!(matches!(query, Some(Message::ReadQuery { .. })));
            });
            let first = client.read(0, ReadLevel::Strong);
            assert!(matches!(first, Err(ServeError::Disconnected)), "{first:?}");
        });
        let second = client.read(0, ReadLevel::Strong);
        assert!(
            matches!(second, Err(ServeError::Disconnected)),
            "{second:?}"
        );
        assert!(matches!(client.try_finish(), Ok(None)));
    }

    fn tcp_client(addr: SocketAddr) -> ReadClient<TcpTransport> {
        let meter = TransferMeter::new();
        ReadClient::new(TcpTransport::connect(addr, Role::Source, meter).unwrap())
    }

    /// The TCP front end end to end: a client that sends a hostile
    /// length prefix is torn down alone, while another client on the
    /// same server completes reads at every level, epoch-monotone per
    /// level, as the registry moves on.
    #[test]
    fn listener_tears_down_a_hostile_client_and_serves_the_rest() {
        use std::io::{Read as _, Write as _};
        let reg = registry();
        let handle = serve_listener("127.0.0.1:0", Arc::clone(&reg), 2).unwrap();
        let mut hostile = TcpStream::connect(handle.addr()).unwrap();
        hostile.write_all(&[0xff; 4]).unwrap();
        let mut client = tcp_client(handle.addr());
        let mut last = BTreeMap::new();
        for round in 0..4i64 {
            for level in [ReadLevel::Convergent, ReadLevel::Weak, ReadLevel::Strong] {
                let got = client.read(0, level).unwrap();
                if level != ReadLevel::Convergent {
                    let floor = last.insert(level, got.epoch).unwrap_or(0);
                    assert!(got.epoch >= floor, "{level:?} went back");
                }
            }
            let bag = SignedBag::from_tuples([Tuple::ints([round + 2])]);
            reg.publish(0, &bag, round % 2 == 0);
        }
        assert!(last[&ReadLevel::Strong] > 0, "strong reads saw a new epoch");
        // The server hung up on the hostile client: EOF or a reset.
        hostile
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        match hostile.read(&mut [0u8; 1]) {
            Ok(n) => assert_eq!(n, 0),
            Err(e) => assert!(!matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )),
        }
        assert_eq!(handle.served(), 12);
    }

    /// Dropping the handle stops the server: a client that was already
    /// connected and served sees its next read disconnected.
    #[test]
    fn dropping_the_handle_hangs_up_connected_clients() {
        let handle = serve_listener("127.0.0.1:0", registry(), 1).unwrap();
        let mut client = tcp_client(handle.addr());
        client.read(0, ReadLevel::Strong).unwrap();
        drop(handle);
        let next = client.read(0, ReadLevel::Strong);
        assert!(matches!(next, Err(ServeError::Disconnected)), "{next:?}");
    }

    #[test]
    fn unknown_view_is_a_remote_error() {
        let server = ReadServer::new(registry());
        let answer = server.respond(Message::ReadQuery {
            id: QueryId(5),
            view: 99,
            level: ReadLevel::Convergent,
            min_epoch: 0,
        });
        match answer {
            Message::ReadError { id, reason } => {
                assert_eq!(id, QueryId(5));
                assert!(reason.contains("99"));
            }
            other => panic!("expected ReadError, got {other:?}"),
        }
    }

    #[test]
    fn floors_survive_reconnect() {
        let reg = registry();
        reg.publish(0, &SignedBag::from_tuples([Tuple::ints([2])]), true);
        let server = ReadServer::new(Arc::clone(&reg));

        let (c1, mut s1) = SharedFifo::pair(TransferMeter::new());
        let mut client = ReadClient::new(c1);
        client.begin_read(0, ReadLevel::Weak).unwrap();
        server.serve_ready(&mut s1).unwrap();
        let first = client.try_finish().unwrap().unwrap();
        let floors = client.floors();
        assert_eq!(floors.get(&(0, ReadLevel::Weak)), Some(&first.epoch));

        // "Reconnect": a brand-new channel, floors carried over. The
        // weak read must not regress even though the oldest ring entry
        // is older than the floor.
        let (c2, mut s2) = SharedFifo::pair(TransferMeter::new());
        let mut client = ReadClient::with_floors(c2, floors);
        client.begin_read(0, ReadLevel::Weak).unwrap();
        server.serve_ready(&mut s2).unwrap();
        let second = client.try_finish().unwrap().unwrap();
        assert!(second.epoch >= first.epoch);
    }
}

//! Wire format between source and warehouse.
//!
//! The paper's §6.2 metric `B` counts bytes transferred from the source to
//! the warehouse; §6.1's `M` counts messages in both directions. This
//! crate provides:
//!
//! * [`Message`] — the three message kinds of Figure 1.1 (update
//!   notification, query, answer),
//! * a compact hand-rolled binary codec ([`codec`]) so byte counts are
//!   measured on real encodings rather than estimated,
//! * [`WireQuery`] — a *self-contained* query representation: the source
//!   knows nothing about views (that is the premise of the paper), so
//!   every query carries its view's relation list, condition and
//!   projection (one header, shared by every query of the view),
//! * [`TransferMeter`] — per-direction message/byte accounting,
//! * [`Transport`] — the channel abstraction of §3 (reliable, FIFO per
//!   direction), with an in-process pair ([`SharedFifo`]) and a framed
//!   TCP implementation ([`TcpTransport`]),
//! * [`StationPool`] — the worker pool that serves many channels, each
//!   owned by one thread, behind both TCP front ends,
//! * [`FaultClock`] — a seed-driven reset schedule that *violates* the
//!   §2 channel assumptions on purpose the one way a deployed channel
//!   can — connection resets, scripted or at a per-send rate — for chaos
//!   testing,
//! * [`Outbox`] — the sans-IO resume state that restores exactly-once
//!   FIFO delivery across resets and crashes: the source keeps its
//!   notifications until the warehouse's cumulative acks trim them, and
//!   a fresh connection resumes from the warehouse's watermark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod fault;
pub mod message;
pub mod meter;
pub mod pool;
pub mod reliable;
pub mod transport;

pub use codec::{DecodeError, Decoder, Encoder};
pub use fault::{FaultClock, FaultPlan};
pub use message::{Message, ReadLevel, WireQuery};
pub use meter::{Direction, TransferMeter};
pub use pool::{Exit, Poller, StartError, StationOwner, StationPool};
pub use reliable::{Outbox, Resume};
pub use transport::{
    read_frame, read_frame_capped, write_frame, FrameDecoder, PollFd, PollWaker, Readiness, Role,
    SharedFifo, TcpTransport, Transport, TransportError, MAX_FRAME_LEN,
};

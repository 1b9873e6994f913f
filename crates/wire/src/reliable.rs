//! Reliable-delivery session layer restoring the paper's §2 channel
//! assumptions.
//!
//! §2 assumes messages between source and warehouse are delivered
//! reliably, in FIFO order, exactly once. [`ReliableLink`] enforces that
//! contract over an arbitrary (possibly faulty) [`Transport`]:
//!
//! * every application message travels inside a [`Message::Frame`] with a
//!   monotonic sequence number and an FNV-1a payload checksum,
//! * the receiver buffers out-of-order frames, discards duplicates and
//!   checksum failures, and releases messages strictly in sequence,
//! * the receiver returns cumulative [`Message::Ack`]s; unacknowledged
//!   frames are retransmitted after a virtual-clock timeout with capped
//!   exponential backoff,
//! * an epoch tag (managed by the warehouse session layer) travels on
//!   every frame so both ends agree which session generation is live.
//!
//! The virtual clock advances by one tick per service pass (every
//! `try_recv`/`has_inbound`/`poll`), so retransmission behaves
//! deterministically under a deterministic scheduler — no wall-clock
//! dependence in the simulator.
//!
//! ## Metering
//!
//! The link owns the *logical* meter: each unique application message is
//! charged once at `send`, exactly as the plain in-memory pair charges,
//! so a fault-free run through `ReliableLink` reports byte/message totals
//! identical to a run without it. Frame envelopes, acks and
//! retransmissions are charged only to the decorated transport's own
//! (raw) meter; the difference between the two is the reliability
//! overhead.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use crate::message::Message;
use crate::meter::TransferMeter;
use crate::transport::{Readiness, Role, Transport, TransportError};

/// FNV-1a over `bytes`: the frame payload checksum.
pub fn fnv1a_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Virtual-clock ticks before the first retransmission of an unacked
/// frame.
const BASE_TIMEOUT: u64 = 32;

/// Cap on the backoff shift: the timeout is
/// `BASE_TIMEOUT << min(retries, MAX_BACKOFF_EXP)`.
const MAX_BACKOFF_EXP: u32 = 4;

/// Consecutive retransmission rounds without ack progress before the
/// link declares itself wedged.
const MAX_RETRIES: u32 = 12;

/// Counters describing what the link absorbed on behalf of the
/// application.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames retransmitted after a timeout.
    pub retransmits: u64,
    /// Inbound frames discarded as duplicates.
    pub duplicates_dropped: u64,
    /// Inbound frames discarded on checksum mismatch.
    pub corrupt_dropped: u64,
    /// Cumulative acks sent.
    pub acks_sent: u64,
    /// Times a higher epoch was adopted from the peer.
    pub epoch_adoptions: u64,
}

/// One endpoint of a reliable session over an unreliable transport.
///
/// Implements [`Transport`], so it drops into any place a plain
/// transport is used. `recv` never blocks: its `Ok(None)` means "no
/// message released right now"; use [`Transport::recv_timeout`] for a
/// bounded blocking wait.
pub struct ReliableLink<T: Transport> {
    inner: T,
    role: Role,
    /// The logical meter: unique application messages only.
    meter: TransferMeter,
    epoch: u64,
    /// Virtual clock: ticks once per service pass.
    now: u64,
    next_send_seq: u64,
    /// Sent but unacknowledged: seq → encoded application payload.
    unacked: BTreeMap<u64, Bytes>,
    /// When to retransmit next, on the virtual clock.
    retransmit_at: Option<u64>,
    /// Retransmission rounds since the last ack progress.
    retries: u32,
    /// Retransmission cap exceeded; the channel needs intervention.
    wedged: bool,
    next_recv_seq: u64,
    /// Out-of-order frames held until the gap fills: seq → payload.
    reorder: BTreeMap<u64, Bytes>,
    /// In-order application messages awaiting the caller.
    ready: VecDeque<Message>,
    stats: LinkStats,
    /// A service-pass error awaiting the next `try_recv`.
    fault: Option<TransportError>,
}

impl<T: Transport> ReliableLink<T> {
    /// Wrap `inner`, charging unique application messages to `meter`.
    ///
    /// `meter` follows the in-memory pair's convention: charged once per
    /// message at (logical) send time, shared by both endpoints of a
    /// simulated channel.
    pub fn new(inner: T, meter: TransferMeter) -> Self {
        let role = inner.role();
        ReliableLink {
            inner,
            role,
            meter,
            epoch: 0,
            now: 0,
            next_send_seq: 0,
            unacked: BTreeMap::new(),
            retransmit_at: None,
            retries: 0,
            wedged: false,
            next_recv_seq: 0,
            reorder: BTreeMap::new(),
            ready: VecDeque::new(),
            stats: LinkStats::default(),
            fault: None,
        }
    }

    /// The session epoch currently stamped on outbound frames.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raise the epoch (the peer adopts it from the next frame or
    /// [`Message::Hello`]). Lowering is ignored.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Frames sent but not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Whether nothing is in flight or buffered out of order.
    pub fn is_settled(&self) -> bool {
        self.unacked.is_empty() && self.reorder.is_empty()
    }

    /// Whether the retransmission cap was exceeded with no ack progress:
    /// the channel is unusable until [`ReliableLink::reconnect`] (or
    /// worse, [`ReliableLink::restart`]).
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// Link-level counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The virtual clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The decorated transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Swap in a fresh transport after a *connection* failure. Session
    /// state — sequence numbers, unacked frames, the reorder buffer —
    /// survives, so delivery stays exactly-once: everything unacked is
    /// retransmitted immediately on the new connection.
    pub fn reconnect(&mut self, inner: T) {
        self.inner = inner;
        self.wedged = false;
        self.retries = 0;
        self.fault = None;
        self.retransmit_at = if self.unacked.is_empty() {
            None
        } else {
            Some(self.now) // due now: flush on the next service pass
        };
    }

    /// Replace the transport after this endpoint's *session state was
    /// lost* (peer crash/restart semantics): sequence numbers restart
    /// from zero and unacked frames are discarded — an unfillable gap
    /// that retransmission cannot heal, so the caller must run recovery
    /// (the warehouse's RV resync) for anything that was in flight.
    /// Messages already released in order (`ready`) are kept — right
    /// for a surviving endpoint whose *peer* restarted. When this
    /// endpoint itself is the crashed process, follow with
    /// [`clear_ready`](Self::clear_ready): its undelivered inbox died
    /// with it.
    pub fn restart(&mut self, inner: T, epoch: u64) {
        self.inner = inner;
        self.epoch = self.epoch.max(epoch);
        self.next_send_seq = 0;
        self.unacked.clear();
        self.retransmit_at = None;
        self.retries = 0;
        self.wedged = false;
        self.next_recv_seq = 0;
        self.reorder.clear();
        self.fault = None;
    }

    /// Drop every received-but-unconsumed message. A crashed process
    /// loses its in-memory inbox even for frames it already
    /// acknowledged; whatever mattered must be re-covered by recovery
    /// (WAL replay, watermark re-sends, or a full resync) — exactly as
    /// on a real host.
    pub fn clear_ready(&mut self) {
        self.ready.clear();
    }

    /// One service pass: tick the virtual clock, fire retransmissions
    /// that are due, and drain the decorated transport. Errors are
    /// stashed for the next `try_recv`.
    fn service(&mut self) {
        if self.fault.is_some() {
            return;
        }
        self.now += 1;
        self.maybe_retransmit();
        loop {
            match self.inner.try_recv() {
                Ok(Some(msg)) => {
                    if let Err(e) = self.on_inner(msg) {
                        self.fault = Some(e);
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.fault = Some(e);
                    return;
                }
            }
        }
    }

    fn maybe_retransmit(&mut self) {
        if self.wedged || self.unacked.is_empty() {
            return;
        }
        let due = match self.retransmit_at {
            Some(at) => self.now >= at,
            None => {
                // Can only happen transiently (e.g. right after a
                // reconnect scheduled the flush); treat as due.
                true
            }
        };
        if !due {
            return;
        }
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            self.wedged = true;
            return;
        }
        let epoch = self.epoch;
        let frames: Vec<(u64, Bytes)> = self
            .unacked
            .iter()
            .map(|(&seq, payload)| (seq, payload.clone()))
            .collect();
        for (seq, payload) in frames {
            let frame = Message::Frame {
                epoch,
                seq,
                checksum: fnv1a_checksum(&payload),
                payload,
            };
            // Send failures here are the fault being healed; the next
            // round (or a reconnect) retries.
            let _ = self.inner.send(&frame);
            self.stats.retransmits += 1;
        }
        let shift = self.retries.min(MAX_BACKOFF_EXP);
        self.retransmit_at = Some(self.now + (BASE_TIMEOUT << shift));
    }

    fn adopt_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.stats.epoch_adoptions += 1;
        }
    }

    fn send_ack(&mut self) {
        let ack = Message::Ack {
            epoch: self.epoch,
            next: self.next_recv_seq,
        };
        let _ = self.inner.send(&ack);
        self.stats.acks_sent += 1;
    }

    fn on_inner(&mut self, msg: Message) -> Result<(), TransportError> {
        match msg {
            Message::Frame {
                epoch,
                seq,
                checksum,
                payload,
            } => {
                self.adopt_epoch(epoch);
                if fnv1a_checksum(&payload) != checksum {
                    // Corrupted in flight: treat as dropped; no ack, so
                    // the sender retransmits the intact original.
                    self.stats.corrupt_dropped += 1;
                    return Ok(());
                }
                if seq < self.next_recv_seq || self.reorder.contains_key(&seq) {
                    self.stats.duplicates_dropped += 1;
                    // Re-ack so a sender that missed the ack stops
                    // retransmitting.
                    self.send_ack();
                    return Ok(());
                }
                self.reorder.insert(seq, payload);
                while let Some(payload) = self.reorder.remove(&self.next_recv_seq) {
                    let msg = Message::decode(payload).map_err(TransportError::Decode)?;
                    self.ready.push_back(msg);
                    self.next_recv_seq += 1;
                }
                self.send_ack();
            }
            Message::Ack { epoch, next } => {
                self.adopt_epoch(epoch);
                let before = self.unacked.len();
                self.unacked = self.unacked.split_off(&next);
                if self.unacked.len() < before {
                    // Ack progress: reset the backoff ladder.
                    self.retries = 0;
                    self.wedged = false;
                    self.retransmit_at = if self.unacked.is_empty() {
                        None
                    } else {
                        Some(self.now + BASE_TIMEOUT)
                    };
                }
            }
            Message::Hello { epoch } => {
                self.adopt_epoch(epoch);
            }
            // An unwrapped peer sent a bare application message: release
            // it directly, preserving interoperability.
            other => self.ready.push_back(other),
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ReliableLink<T> {
    fn role(&self) -> Role {
        self.role
    }

    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        let payload = msg.encode();
        // The logical charge: once per unique application message, at
        // send time, matching the plain in-memory pair.
        self.meter
            .record(self.role.outbound(), payload.len() as u64);
        let seq = self.next_send_seq;
        self.next_send_seq += 1;
        let frame = Message::Frame {
            epoch: self.epoch,
            seq,
            checksum: fnv1a_checksum(&payload),
            payload: payload.clone(),
        };
        self.unacked.insert(seq, payload);
        if self.retransmit_at.is_none() {
            self.retransmit_at = Some(self.now + BASE_TIMEOUT);
            self.retries = 0;
        }
        // A failed first transmission is indistinguishable from an
        // in-flight drop: the frame stays buffered and the timeout (or a
        // reconnect) retransmits it.
        let _ = self.inner.send(&frame);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        self.service();
        if let Some(msg) = self.ready.pop_front() {
            return Ok(Some(msg));
        }
        if let Some(fault) = self.fault.take() {
            return Err(fault);
        }
        if self.wedged {
            return Err(TransportError::Timeout);
        }
        Ok(None)
    }

    fn recv(&mut self) -> Result<Option<Message>, TransportError> {
        // Non-blocking: deterministic drivers schedule delivery
        // themselves; blocking callers use `recv_timeout`.
        self.try_recv()
    }

    fn recv_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<Message>, TransportError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Ok(Some(msg)) => return Ok(Some(msg)),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
            if self.inner.poll()? == Readiness::Closed && self.is_settled() {
                return Ok(None);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let slice = std::time::Duration::from_millis(1).min(deadline - now);
            match self.inner.recv_timeout(slice) {
                Ok(Some(msg)) => self.on_inner(msg)?,
                Ok(None) => {
                    if self.is_settled() && self.ready.is_empty() {
                        return Ok(None);
                    }
                }
                Err(TransportError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn drain_into(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        // One service pass batch-drains the inner transport (acking,
        // deduplicating and reordering into `ready`), then the in-order
        // prefix is handed out wholesale. Fault/wedged surfacing only
        // when nothing was taken, mirroring `try_recv`'s priorities per
        // drained message.
        self.service();
        let take = self.ready.len().min(max);
        out.extend(self.ready.drain(..take));
        if take == 0 {
            if let Some(fault) = self.fault.take() {
                return Err(fault);
            }
            if self.wedged {
                return Err(TransportError::Timeout);
            }
        }
        Ok(take)
    }

    fn has_inbound(&mut self) -> bool {
        self.service();
        !self.ready.is_empty()
    }

    fn poll(&mut self) -> Result<Readiness, TransportError> {
        self.service();
        if !self.ready.is_empty() {
            return Ok(Readiness::Ready);
        }
        if let Some(fault) = self.fault.take() {
            return Err(fault);
        }
        self.inner.poll()
    }

    // A wake-up means raw frames arrived; the re-poll runs `service()`,
    // which acks/filters them into app-level readiness. Retransmission
    // timers still rely on the caller's bounded waits.
    fn set_waker(&mut self, waker: std::sync::Arc<crate::transport::PollWaker>) -> bool {
        self.inner.set_waker(waker)
    }

    fn meter(&self) -> &TransferMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyTransport};
    use crate::transport::SharedFifo;
    use eca_relational::{Tuple, Update};

    fn notification(n: i64) -> Message {
        Message::UpdateNotification {
            update: Update::insert("r1", Tuple::ints([n, n + 1])),
        }
    }

    type SimLink = ReliableLink<FaultyTransport<SharedFifo>>;

    /// A connected pair of reliable links over faulty transports sharing
    /// a logical meter (`src_plan` perturbs source→warehouse traffic,
    /// `wh_plan` the reverse direction).
    fn linked(src_plan: FaultPlan, wh_plan: FaultPlan) -> (SimLink, SimLink, TransferMeter) {
        let raw = TransferMeter::new();
        let logical = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw);
        let src = ReliableLink::new(FaultyTransport::new(src_end, src_plan), logical.clone());
        let wh = ReliableLink::new(FaultyTransport::new(wh_end, wh_plan), logical.clone());
        (src, wh, logical)
    }

    /// Drive both ends until settled (or the tick budget runs out),
    /// collecting messages released at the warehouse end.
    fn drive(src: &mut SimLink, wh: &mut SimLink, budget: u32) -> Vec<Message> {
        let mut out = Vec::new();
        for _ in 0..budget {
            while let Some(m) = wh.try_recv().unwrap() {
                out.push(m);
            }
            let _ = src.try_recv().unwrap();
            if src.is_settled() && wh.is_settled() && !wh.has_inbound() {
                break;
            }
        }
        while let Some(m) = wh.try_recv().unwrap() {
            out.push(m);
        }
        out
    }

    #[test]
    fn clean_channel_delivers_in_order_and_settles() {
        let (mut src, mut wh, logical) = linked(FaultPlan::none(), FaultPlan::none());
        let msgs: Vec<Message> = (0..6).map(notification).collect();
        for m in &msgs {
            src.send(m).unwrap();
        }
        assert_eq!(drive(&mut src, &mut wh, 100), msgs);
        assert!(src.is_settled());
        assert_eq!(src.stats().retransmits, 0);
        // Logical metering matches a plain pair: 6 s2w messages.
        assert_eq!(logical.messages_s2w(), 6);
        assert_eq!(
            logical.bytes_s2w(),
            msgs.iter().map(|m| m.encoded_len() as u64).sum::<u64>()
        );
        // Acks flowed on the raw channel only.
        assert_eq!(logical.messages_w2s(), 0);
        assert!(src.inner_mut().meter().messages_w2s() > 0);
    }

    /// A batch drain through the session layer must equal N sequential
    /// `try_recv`s — same released messages, same logical and raw meter
    /// totals, same dedup bookkeeping — even when the wire duplicated
    /// frames. The reactor's batched receive path may not change
    /// exactly-once semantics.
    #[test]
    fn batch_drain_matches_sequential_try_recv_under_duplicates() {
        let plan = || {
            FaultPlan::none()
                .with_scripted(1, FaultKind::Duplicate)
                .with_scripted(4, FaultKind::Duplicate)
        };
        let run = |batch: bool| {
            let (mut src, mut wh, logical) = linked(plan(), FaultPlan::none());
            let msgs: Vec<Message> = (0..6).map(notification).collect();
            for m in &msgs {
                src.send(m).unwrap();
            }
            let mut out = Vec::new();
            if batch {
                while wh.drain_into(&mut out, usize::MAX).unwrap() > 0 {}
            } else {
                while let Some(m) = wh.try_recv().unwrap() {
                    out.push(m);
                }
            }
            assert_eq!(out, msgs);
            (
                out,
                logical,
                wh.inner_mut().meter().clone(),
                wh.stats().duplicates_dropped,
            )
        };
        let (seq_msgs, seq_logical, seq_raw, seq_dups) = run(false);
        let (batch_msgs, batch_logical, batch_raw, batch_dups) = run(true);
        assert_eq!(seq_msgs, batch_msgs);
        assert_eq!(seq_dups, batch_dups);
        assert_eq!(seq_dups, 2, "both scripted duplicates were absorbed");
        assert_eq!(seq_logical.messages_s2w(), batch_logical.messages_s2w());
        assert_eq!(seq_logical.bytes_s2w(), batch_logical.bytes_s2w());
        assert_eq!(seq_raw.messages_s2w(), batch_raw.messages_s2w());
        assert_eq!(seq_raw.messages_w2s(), batch_raw.messages_w2s());
    }

    /// `drain_into` honours `max` through the session layer; the
    /// in-order remainder stays queued.
    #[test]
    fn reliable_drain_respects_max() {
        let (mut src, mut wh, _) = linked(FaultPlan::none(), FaultPlan::none());
        for n in 0..5 {
            src.send(&notification(n)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(wh.drain_into(&mut out, 2).unwrap(), 2);
        assert_eq!(out, vec![notification(0), notification(1)]);
        let mut rest = Vec::new();
        while let Some(m) = wh.try_recv().unwrap() {
            rest.push(m);
        }
        assert_eq!(rest, (2..5).map(notification).collect::<Vec<_>>());
    }

    #[test]
    fn drops_are_healed_by_retransmission() {
        let (mut src, mut wh, _) = linked(FaultPlan::drops(3, 0.4), FaultPlan::none());
        let msgs: Vec<Message> = (0..20).map(notification).collect();
        for m in &msgs {
            src.send(m).unwrap();
        }
        assert_eq!(drive(&mut src, &mut wh, 50_000), msgs);
        assert!(src.is_settled(), "all frames eventually acked");
    }

    #[test]
    fn duplicates_and_reorders_are_absorbed() {
        let plan = FaultPlan {
            duplicate: 0.3,
            delay: 0.3,
            delay_span: 5,
            ..FaultPlan::none()
        };
        let (mut src, mut wh, _) = linked(FaultPlan { seed: 9, ..plan }, FaultPlan::none());
        let msgs: Vec<Message> = (0..20).map(notification).collect();
        for m in &msgs {
            src.send(m).unwrap();
        }
        assert_eq!(drive(&mut src, &mut wh, 50_000), msgs);
        let stats = wh.stats();
        assert!(stats.duplicates_dropped > 0, "plan injected duplicates");
    }

    #[test]
    fn corruption_is_detected_and_healed() {
        let plan = FaultPlan::none().with_scripted(1, FaultKind::Corrupt);
        let (mut src, mut wh, _) = linked(plan, FaultPlan::none());
        let msgs: Vec<Message> = (0..4).map(notification).collect();
        for m in &msgs {
            src.send(m).unwrap();
        }
        assert_eq!(drive(&mut src, &mut wh, 50_000), msgs);
        assert_eq!(wh.stats().corrupt_dropped, 1);
        assert!(src.stats().retransmits > 0, "the intact frame was resent");
    }

    #[test]
    fn ack_loss_triggers_retransmit_and_receiver_dedup() {
        // Drop every early ack (warehouse→source traffic).
        let wh_plan = FaultPlan::none()
            .with_scripted(0, FaultKind::Drop)
            .with_scripted(1, FaultKind::Drop);
        let (mut src, mut wh, logical) = linked(FaultPlan::none(), wh_plan);
        src.send(&notification(1)).unwrap();
        let got = drive(&mut src, &mut wh, 50_000);
        assert_eq!(got, vec![notification(1)]);
        assert!(src.is_settled(), "a later ack finally lands");
        assert!(wh.stats().duplicates_dropped > 0);
        // The logical meter saw exactly one message despite retransmits.
        assert_eq!(logical.messages_s2w(), 1);
    }

    #[test]
    fn total_loss_wedges_then_reconnect_heals() {
        let (mut src, mut wh, _) = linked(FaultPlan::drops(0, 1.0), FaultPlan::none());
        src.send(&notification(5)).unwrap();
        // Drive until the retry cap trips.
        let mut wedged_err = false;
        for _ in 0..200_000 {
            match src.try_recv() {
                Ok(_) => {}
                Err(TransportError::Timeout) => {
                    wedged_err = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
            if src.wedged() {
                break;
            }
        }
        assert!(src.wedged() || wedged_err);
        assert_eq!(src.in_flight(), 1, "payload retained while wedged");
        // Rewire over a clean channel: the unacked frame is flushed.
        let raw = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw);
        src.reconnect(FaultyTransport::new(src_end, FaultPlan::none()));
        wh.reconnect(FaultyTransport::new(wh_end, FaultPlan::none()));
        assert_eq!(drive(&mut src, &mut wh, 50_000), vec![notification(5)]);
        assert!(src.is_settled());
        assert!(!src.wedged());
    }

    #[test]
    fn restart_loses_unacked_and_restarts_sequences() {
        let (mut src, mut wh, _) = linked(FaultPlan::drops(0, 1.0), FaultPlan::none());
        src.send(&notification(1)).unwrap();
        assert_eq!(src.in_flight(), 1);
        // Crash semantics: state gone, fresh channel, epoch bumped.
        let raw = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw);
        src.restart(FaultyTransport::new(src_end, FaultPlan::none()), 1);
        wh.restart(FaultyTransport::new(wh_end, FaultPlan::none()), 1);
        assert_eq!(src.in_flight(), 0, "the unacked frame is gone for good");
        // New traffic flows normally under the new epoch.
        src.send(&notification(2)).unwrap();
        assert_eq!(drive(&mut src, &mut wh, 50_000), vec![notification(2)]);
        assert_eq!(wh.epoch(), 1);
    }

    #[test]
    fn epoch_is_adopted_from_frames_and_hello() {
        let (mut src, mut wh, _) = linked(FaultPlan::none(), FaultPlan::none());
        wh.set_epoch(3);
        wh.inner_mut().send(&Message::Hello { epoch: 3 }).unwrap();
        let _ = src.try_recv().unwrap();
        assert_eq!(src.epoch(), 3, "hello carried the epoch");
        src.send(&notification(1)).unwrap();
        let got = drive(&mut src, &mut wh, 100);
        assert_eq!(got, vec![notification(1)]);
        // And set_epoch never lowers.
        wh.set_epoch(1);
        assert_eq!(wh.epoch(), 3);
    }

    #[test]
    fn bidirectional_traffic_under_mixed_faults() {
        let (mut src, mut wh, _) = linked(FaultPlan::mixed(21, 0.2), FaultPlan::mixed(22, 0.2));
        let up: Vec<Message> = (0..10).map(notification).collect();
        let down: Vec<Message> = (100..110).map(notification).collect();
        for m in &up {
            src.send(m).unwrap();
        }
        for m in &down {
            wh.send(m).unwrap();
        }
        let mut got_wh = Vec::new();
        let mut got_src = Vec::new();
        for _ in 0..100_000 {
            while let Some(m) = wh.try_recv().unwrap() {
                got_wh.push(m);
            }
            while let Some(m) = src.try_recv().unwrap() {
                got_src.push(m);
            }
            if src.is_settled() && wh.is_settled() {
                break;
            }
        }
        assert_eq!(got_wh, up);
        assert_eq!(got_src, down);
    }
}

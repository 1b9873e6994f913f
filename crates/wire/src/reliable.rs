//! The resume layer: one recovery path for connection resets and peer
//! crashes.
//!
//! §2 assumes messages between source and warehouse are delivered
//! reliably, in FIFO order, exactly once. A deployed channel (TCP)
//! already delivers in order and exactly once while it lives; it breaks
//! the assumption in only two ways — the connection resets, or a peer
//! crashes — and both lose whatever was in flight. [`ReliableLink`]
//! restores the contract across both with one mechanism:
//!
//! * the **source end** keeps an outbox of the
//!   [`Message::UpdateNotification`]s it sent, numbered by the
//!   notification watermark the warehouse counts (the number of
//!   notifications it has applied on the channel);
//! * the **warehouse end** sends a cumulative [`Message::Ack`] once a
//!   watermark is safe — applied by a volatile warehouse, handed to the
//!   OS by a durable warehouse's log — and the source trims its outbox
//!   to it;
//! * on a fresh connection both ends [`resume`](ReliableLink::resume)
//!   at the warehouse's watermark, and the source re-sends
//!   `outbox[watermark..]` before anything new. Queries and answers lost
//!   with the connection are the warehouse's business: it re-issues its
//!   pending queries on reset, and the session's stale-id demux rejects
//!   answers to retired ones;
//! * when the watermark falls outside the outbox — the source restarted
//!   and lost it, or the warehouse recovered without a watermark —
//!   `resume` returns [`Resume::Resync`] instead of a tail: the channel
//!   takes the §4 full resync, and the outbox renumbers from the
//!   warehouse's watermark.
//!
//! ## Metering
//!
//! The link owns the *logical* meter: each application message is
//! charged once at `send` (and each re-sent notification once more at
//! `resume`) with its structural [`Message::encoded_len`], exactly as
//! [`crate::SharedFifo`] charges, so a fault-free run through the link
//! reports byte/message totals identical to a run without it. Acks are
//! charged only to the decorated transport's own (raw) meter; the
//! difference between the two ledgers is what the resume layer cost.

use std::collections::VecDeque;

use crate::message::Message;
use crate::meter::TransferMeter;
use crate::transport::{Role, Transport, TransportError};

/// What [`ReliableLink::resume`] could do at the warehouse's watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// The outbox covered the watermark: this many notifications past it
    /// were re-sent on the fresh connection (always 0 at the warehouse
    /// end).
    Replayed(u64),
    /// The watermark is outside the outbox (or the outbox was dropped):
    /// nothing can be re-sent, the channel needs the §4 full resync, and
    /// the outbox now numbers from the watermark.
    Resync,
}

/// One endpoint of a channel that survives resets and crashes by
/// resuming from the warehouse's notification watermark.
///
/// Implements [`Transport`], so it drops into any place a plain
/// transport is used; acks are consumed inside it and never reach the
/// caller.
pub struct ReliableLink<T: Transport> {
    inner: T,
    role: Role,
    /// The logical meter: application messages only.
    meter: TransferMeter,
    /// Source end: notifications sent and not yet acked, oldest first.
    outbox: VecDeque<Message>,
    /// Source end: the watermark of `outbox[0]` (the last one acked);
    /// `None` once the outbox was dropped, until the next resume
    /// renumbers it. Warehouse end: the watermark last acked on this
    /// connection (`None`: nothing yet).
    head: Option<u64>,
    /// The first inbound application message (or receive error), taken
    /// off the transport to look past acks.
    peeked: Option<Result<Message, TransportError>>,
}

impl<T: Transport> ReliableLink<T> {
    /// Wrap `inner`, charging application messages to `meter`. The
    /// channel starts at watermark 0.
    ///
    /// `meter` follows the in-memory pair's convention: charged once per
    /// message at send time, shared by both endpoints of a simulated
    /// channel.
    pub fn new(inner: T, meter: TransferMeter) -> Self {
        let role = inner.role();
        ReliableLink {
            inner,
            role,
            meter,
            outbox: VecDeque::new(),
            head: Some(0),
            peeked: None,
        }
    }

    /// Notifications sent and not yet acked (source end).
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// The decorated transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Warehouse end: acknowledge every notification below `watermark`
    /// (the session `epoch` travels along). Sent only when the watermark
    /// advanced, on the raw ledger only; a dead connection loses it,
    /// which the next resume makes good.
    pub fn ack(&mut self, epoch: u64, watermark: u64) {
        if self.head.map_or(true, |acked| watermark > acked) {
            self.head = Some(watermark);
            let _ = self.inner.send(&Message::Ack {
                epoch,
                next: watermark,
            });
        }
    }

    /// Forget the outbox: the source process restarted and lost it, or
    /// the warehouse recovered with no watermark to resume from. The
    /// next [`resume`](Self::resume) returns [`Resume::Resync`].
    pub fn drop_outbox(&mut self) {
        self.outbox.clear();
        self.head = None;
    }

    /// Swap in a fresh connection and resume at `watermark`, the number
    /// of notifications the warehouse has applied on the channel.
    /// Everything undelivered on the old connection is gone with it.
    ///
    /// At the source end, `outbox[watermark..]` is re-sent (and charged
    /// to the logical meter) before anything new; only an ack trims the
    /// outbox, since a watermark need not be durable yet. A watermark
    /// outside the outbox returns [`Resume::Resync`] and renumbers the
    /// outbox from `watermark`. At the warehouse end, the next
    /// [`ack`](Self::ack) is sent whatever its value.
    pub fn resume(&mut self, inner: T, watermark: u64) -> Resume {
        self.inner = inner;
        self.peeked = None;
        if self.role == Role::Warehouse {
            self.head = None;
            return Resume::Replayed(0);
        }
        let len = self.outbox.len() as u64;
        let Some(skip) = self
            .head
            .filter(|head| (*head..=head.saturating_add(len)).contains(&watermark))
            .map(|head| watermark - head)
        else {
            self.outbox.clear();
            self.head = Some(watermark);
            return Resume::Resync;
        };
        for msg in self.outbox.iter().skip(skip as usize) {
            self.meter
                .record(self.role.outbound(), msg.encoded_len() as u64);
            let _ = self.inner.send(msg);
        }
        Resume::Replayed(len - skip)
    }

    /// Drop outbox entries below `watermark`.
    fn trim(&mut self, watermark: u64) {
        if let Some(head) = &mut self.head {
            while *head < watermark && self.outbox.pop_front().is_some() {
                *head += 1;
            }
        }
    }

    /// Consume acks at the front of the inbound queue until an
    /// application message (or error) is held in `peeked`. Returns
    /// whether one is.
    fn peek(&mut self) -> bool {
        while self.peeked.is_none() {
            match self.inner.try_recv() {
                Ok(Some(Message::Ack { next, .. })) => self.trim(next),
                Ok(Some(msg)) => self.peeked = Some(Ok(msg)),
                Ok(None) => return false,
                Err(e) => self.peeked = Some(Err(e)),
            }
        }
        true
    }
}

impl<T: Transport> Transport for ReliableLink<T> {
    fn role(&self) -> Role {
        self.role
    }

    /// Charge the logical meter and send. A notification joins the
    /// outbox first, so a send that fails on a dead connection is
    /// re-sent by the next resume; anything else a dead connection loses
    /// is re-issued by the warehouse on reset. Either way the failure is
    /// the connection's, which its owner observes, so `send` itself
    /// never fails.
    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        self.meter
            .record(self.role.outbound(), msg.encoded_len() as u64);
        if self.role == Role::Source && matches!(msg, Message::UpdateNotification { .. }) {
            self.outbox.push_back(msg.clone());
        }
        let _ = self.inner.send(msg);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        if self.peek() {
            self.peeked.take().transpose()
        } else {
            Ok(None)
        }
    }

    fn recv(&mut self) -> Result<Option<Message>, TransportError> {
        if let Some(peeked) = self.peeked.take() {
            return peeked.map(Some);
        }
        loop {
            match self.inner.recv()? {
                Some(Message::Ack { next, .. }) => self.trim(next),
                other => return Ok(other),
            }
        }
    }

    fn has_inbound(&mut self) -> bool {
        self.peek()
    }

    fn meter(&self) -> &TransferMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SharedFifo;
    use eca_relational::{Tuple, Update};

    fn notification(n: i64) -> Message {
        Message::UpdateNotification {
            update: Update::insert("r1", Tuple::ints([n, n + 1])),
        }
    }

    type Link = ReliableLink<SharedFifo>;

    /// A connected pair of links sharing a logical meter; the raw meter
    /// is returned for rewiring.
    fn linked() -> (Link, Link, TransferMeter, TransferMeter) {
        let raw = TransferMeter::new();
        let logical = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw.clone());
        let src = ReliableLink::new(src_end, logical.clone());
        let wh = ReliableLink::new(wh_end, logical.clone());
        (src, wh, raw, logical)
    }

    fn drain(link: &mut Link) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(m) = link.try_recv().unwrap() {
            out.push(m);
        }
        out
    }

    #[test]
    fn clean_channel_delivers_in_order_and_settles() {
        let (mut src, mut wh, raw, logical) = linked();
        let msgs: Vec<Message> = (0..6).map(notification).collect();
        for m in &msgs {
            src.send(m).unwrap();
        }
        assert_eq!(src.outbox_len(), 6);
        assert_eq!(drain(&mut wh), msgs);
        wh.ack(0, 4);
        wh.ack(0, 4); // not ahead: not sent again
        assert!(!src.has_inbound(), "acks never reach the caller");
        assert_eq!(src.outbox_len(), 2);
        // Logical metering matches a plain pair: 6 s2w messages, and the
        // one ack lives on the raw ledger only.
        assert_eq!(logical.messages_s2w(), 6);
        assert_eq!(
            logical.bytes_s2w(),
            msgs.iter().map(|m| m.encoded_len() as u64).sum::<u64>()
        );
        assert_eq!(logical.messages_w2s(), 0);
        assert_eq!(raw.messages_w2s(), 1);
    }

    /// Only notifications are kept: queries and answers lost with a
    /// connection are re-issued by the warehouse, never replayed here.
    #[test]
    fn only_notifications_enter_the_outbox() {
        let (mut src, _wh, _, _) = linked();
        src.send(&Message::QueryAnswer {
            id: eca_core::QueryId(1),
            answer: eca_relational::SignedBag::new(),
        })
        .unwrap();
        src.send(&notification(1)).unwrap();
        assert_eq!(src.outbox_len(), 1);
    }

    #[test]
    fn resume_resends_the_tail_past_the_watermark_first() {
        let (mut src, mut wh, raw, logical) = linked();
        for n in 0..5 {
            src.send(&notification(n)).unwrap();
        }
        // The warehouse applied two before the connection died.
        assert_eq!(drain(&mut wh)[..2], [notification(0), notification(1)]);
        let (src_end, wh_end) = SharedFifo::pair(raw);
        assert_eq!(src.resume(src_end, 2), Resume::Replayed(3));
        assert_eq!(wh.resume(wh_end, 2), Resume::Replayed(0));
        src.send(&notification(5)).unwrap();
        assert_eq!(drain(&mut wh), (2..6).map(notification).collect::<Vec<_>>());
        assert_eq!(logical.messages_s2w(), 6 + 3, "re-sends are charged");
        assert_eq!(src.outbox_len(), 6, "only an ack trims");
    }

    /// A resume point outside `[head, next]` is a return value, never a
    /// panic: the channel takes the resync and renumbers.
    #[test]
    fn resume_outside_the_outbox_returns_resync() {
        for watermark in [1, 9] {
            let (mut src, mut wh, raw, _) = linked();
            for n in 0..5 {
                src.send(&notification(n)).unwrap();
            }
            drain(&mut wh);
            wh.ack(0, 3);
            assert!(!src.has_inbound());
            assert_eq!(src.outbox_len(), 2, "outbox is [3, 5)");
            let (src_end, mut wh_end) = SharedFifo::pair(raw);
            assert_eq!(src.resume(src_end, watermark), Resume::Resync);
            assert_eq!(src.outbox_len(), 0);
            assert!(wh_end.try_recv().unwrap().is_none(), "nothing re-sent");
            // Renumbered: the next notification is `watermark`, and an
            // ack past it trims it.
            src.send(&notification(7)).unwrap();
            wh_end
                .send(&Message::Ack {
                    epoch: 1,
                    next: watermark + 1,
                })
                .unwrap();
            assert!(!src.has_inbound());
            assert_eq!(src.outbox_len(), 0, "watermark {watermark}");
        }
    }

    /// A source restart loses the outbox: even a watermark the old
    /// outbox covered resyncs, and the numbering restarts from the
    /// warehouse's watermark.
    #[test]
    fn restart_loses_unacked_and_restarts_sequences() {
        let (mut src, _wh, raw, _) = linked();
        src.send(&notification(1)).unwrap();
        src.drop_outbox();
        assert_eq!(src.outbox_len(), 0);
        let (src_end, mut wh_end) = SharedFifo::pair(raw);
        assert_eq!(src.resume(src_end, 0), Resume::Resync);
        assert!(wh_end.try_recv().unwrap().is_none(), "nothing re-sent");
        src.send(&notification(2)).unwrap();
        wh_end.send(&Message::Ack { epoch: 1, next: 1 }).unwrap();
        assert!(!src.has_inbound());
        assert_eq!(src.outbox_len(), 0, "numbered 0 again, and acked");
    }

    /// `drain_into` honours `max` through the link, and acks in between
    /// are consumed, not counted.
    #[test]
    fn reliable_drain_respects_max() {
        let (mut src, mut wh, _, _) = linked();
        for n in 0..5 {
            wh.send(&notification(n)).unwrap();
            wh.ack(0, n as u64 + 1);
        }
        let mut out = Vec::new();
        assert_eq!(src.drain_into(&mut out, 2).unwrap(), 2);
        assert_eq!(out, vec![notification(0), notification(1)]);
        assert_eq!(
            drain(&mut src),
            (2..5).map(notification).collect::<Vec<_>>()
        );
    }

    /// A send on a dead connection is not an error: the notification
    /// stays in the outbox and the resume re-sends it.
    #[test]
    fn sends_on_a_dead_connection_wait_for_the_resume() {
        let (mut src, wh, raw, _) = linked();
        drop(wh);
        src.send(&notification(1)).unwrap();
        let (src_end, mut wh_end) = SharedFifo::pair(raw);
        assert_eq!(src.resume(src_end, 0), Resume::Replayed(1));
        assert_eq!(wh_end.try_recv().unwrap(), Some(notification(1)));
    }
}

//! The resume state: one recovery path for connection resets and peer
//! crashes.
//!
//! §2 assumes messages between source and warehouse are delivered
//! reliably, in FIFO order, exactly once. A deployed channel (TCP)
//! already delivers in order and exactly once while it lives; it breaks
//! the assumption in only two ways — the connection resets, or a peer
//! crashes — and both lose whatever was in flight. The source's
//! [`Outbox`] restores the contract across both with one mechanism:
//!
//! * the source keeps the [`Message::UpdateNotification`]s it sent,
//!   numbered by the notification watermark the warehouse counts (the
//!   number of notifications it has applied on the channel);
//! * the warehouse sends a cumulative [`Message::Ack`] once a watermark
//!   is safe — applied by a volatile warehouse, covered by a completed
//!   sync of a durable warehouse's log — and the source [`trim`](Outbox::trim)s to
//!   it;
//! * on a fresh connection the source [`resume`](Outbox::resume)s at the
//!   warehouse's watermark and re-sends the tail past it before anything
//!   new. Queries and answers lost with the connection are the
//!   warehouse's business: it re-issues its pending queries on reset,
//!   and the session's stale-id demux rejects answers to retired ones;
//! * when the watermark falls outside the outbox — the source restarted
//!   and lost it, or the warehouse recovered without a watermark —
//!   `resume` returns [`Resume::Resync`] instead of a tail: the channel
//!   takes the §4 full resync, and the outbox renumbers from the
//!   warehouse's watermark.
//!
//! The outbox is sans-IO: it holds messages and says what to re-send,
//! and whoever owns the connection sends it.

use std::collections::vec_deque::{self, VecDeque};

use crate::message::Message;

/// What [`Outbox::resume`] could do at the warehouse's watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// The outbox covered the watermark: this many notifications past it
    /// are to be re-sent on the fresh connection.
    Replayed(u64),
    /// The watermark is outside the outbox (or the outbox was cleared):
    /// nothing can be re-sent, the channel needs the §4 full resync, and
    /// the outbox now numbers from the watermark.
    Resync,
}

/// The notifications a source sent and the warehouse has not acked,
/// oldest first. The default outbox is empty at watermark 0.
#[derive(Debug, Default)]
pub struct Outbox {
    entries: VecDeque<Message>,
    /// The watermark of `entries[0]` (the last one acked).
    head: u64,
    /// Cleared since the last resume: no watermark can be served.
    cleared: bool,
}

impl Outbox {
    /// Notifications sent and not yet acked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every notification sent has been acked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keep `msg` for re-sending if it is a notification. Queries and
    /// answers lost with a connection are re-issued by the warehouse,
    /// never replayed from here.
    pub fn push(&mut self, msg: &Message) {
        if matches!(msg, Message::UpdateNotification { .. }) {
            self.entries.push_back(msg.clone());
        }
    }

    /// Drop the notifications below `watermark`: the warehouse acked
    /// them.
    pub fn trim(&mut self, watermark: u64) {
        while !self.cleared && self.head < watermark && self.entries.pop_front().is_some() {
            self.head += 1;
        }
    }

    /// Forget every notification: the source process restarted and lost
    /// them, or the warehouse recovered with no watermark to resume
    /// from. The next [`resume`](Self::resume) returns
    /// [`Resume::Resync`].
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cleared = true;
    }

    /// Resume at `watermark`, the number of notifications the warehouse
    /// has applied on the channel, and return the tail to re-send before
    /// anything new. Only [`trim`](Self::trim) drops entries, since a
    /// watermark need not be durable yet. A watermark outside the outbox
    /// returns [`Resume::Resync`] with an empty tail and renumbers the
    /// outbox from `watermark`.
    pub fn resume(&mut self, watermark: u64) -> (Resume, vec_deque::Iter<'_, Message>) {
        let len = self.entries.len() as u64;
        if self.cleared || !(self.head..=self.head.saturating_add(len)).contains(&watermark) {
            self.entries.clear();
            (self.head, self.cleared) = (watermark, false);
            return (Resume::Resync, self.entries.iter());
        }
        let skip = (watermark - self.head) as usize;
        (
            Resume::Replayed(len - skip as u64),
            self.entries.range(skip..),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::{Tuple, Update};

    fn notification(n: i64) -> Message {
        Message::UpdateNotification {
            update: Update::insert("r1", Tuple::ints([n, n + 1])),
        }
    }

    fn filled(n: i64) -> Outbox {
        let mut outbox = Outbox::default();
        for k in 0..n {
            outbox.push(&notification(k));
        }
        outbox
    }

    /// Only notifications are kept: queries and answers lost with a
    /// connection are re-issued by the warehouse, never replayed here.
    #[test]
    fn only_notifications_enter_the_outbox() {
        let mut outbox = Outbox::default();
        outbox.push(&Message::QueryAnswer {
            id: eca_core::QueryId(1),
            answer: eca_relational::SignedBag::new(),
        });
        outbox.push(&Message::Ack { epoch: 0, next: 0 });
        outbox.push(&notification(1));
        assert_eq!(outbox.len(), 1);
    }

    #[test]
    fn resume_resends_the_tail_past_the_watermark_first() {
        let mut outbox = filled(5);
        // The warehouse applied two before the connection died.
        let (resumed, tail) = outbox.resume(2);
        assert_eq!(resumed, Resume::Replayed(3));
        assert_eq!(
            tail.cloned().collect::<Vec<_>>(),
            (2..5).map(notification).collect::<Vec<_>>()
        );
        outbox.push(&notification(5));
        assert_eq!(outbox.len(), 6, "only an ack trims");
        outbox.trim(4);
        assert_eq!(outbox.len(), 2);
    }

    /// A resume point outside `[head, next]` is a return value, never a
    /// panic: the channel takes the resync and renumbers.
    #[test]
    fn resume_outside_the_outbox_returns_resync() {
        for watermark in [1, 9] {
            let mut outbox = filled(5);
            outbox.trim(3);
            assert_eq!(outbox.len(), 2, "outbox is [3, 5)");
            let (resumed, tail) = outbox.resume(watermark);
            assert_eq!(resumed, Resume::Resync);
            assert_eq!(tail.count(), 0, "nothing re-sent");
            assert!(outbox.is_empty());
            // Renumbered: the next notification is `watermark`, and an
            // ack past it trims it.
            outbox.push(&notification(7));
            outbox.trim(watermark + 1);
            assert!(outbox.is_empty(), "watermark {watermark}");
        }
    }

    /// A source restart loses the outbox: even a watermark the old
    /// outbox covered resyncs, and the numbering restarts from the
    /// warehouse's watermark.
    #[test]
    fn restart_loses_unacked_and_restarts_sequences() {
        let mut outbox = filled(1);
        outbox.clear();
        assert!(outbox.is_empty());
        outbox.trim(1);
        let (resumed, tail) = outbox.resume(0);
        assert_eq!(resumed, Resume::Resync);
        assert_eq!(tail.count(), 0, "nothing re-sent");
        outbox.push(&notification(2));
        outbox.trim(1);
        assert!(outbox.is_empty(), "numbered 0 again, and acked");
    }

    /// A notification pushed while the connection is dead stays in the
    /// outbox, and the resume re-sends it.
    #[test]
    fn sends_on_a_dead_connection_wait_for_the_resume() {
        let mut outbox = filled(1);
        let (resumed, mut tail) = outbox.resume(0);
        assert_eq!(resumed, Resume::Replayed(1));
        assert_eq!(tail.next(), Some(&notification(0)));
    }
}

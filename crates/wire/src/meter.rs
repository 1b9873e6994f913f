//! Per-direction transfer accounting (paper §6.1–6.2's `M` and `B`).
//!
//! Counters are atomic so one meter can be shared across the threads a
//! [`TcpTransport`](crate::TcpTransport) deployment involves; relaxed
//! ordering suffices because each counter is an independent total.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eca_relational::SignedBag;

/// Transfer direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Source → warehouse (update notifications, answers). The paper's
    /// `B` metric counts bytes in this direction only.
    SourceToWarehouse,
    /// Warehouse → source (queries).
    WarehouseToSource,
}

#[derive(Default, Debug)]
struct Counters {
    messages_s2w: AtomicU64,
    bytes_s2w: AtomicU64,
    messages_w2s: AtomicU64,
    bytes_w2s: AtomicU64,
    /// Answer payload bytes only — the paper excludes update-notification
    /// traffic from `B` because it is identical across algorithms (§6).
    answer_bytes: AtomicU64,
    answer_payload_tuples: AtomicU64,
}

/// Shared message/byte counters. Clones observe the same totals.
#[derive(Clone, Default, Debug)]
pub struct TransferMeter {
    counters: Arc<Counters>,
}

impl TransferMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        TransferMeter::default()
    }

    /// Record a message of `bytes` length in `direction`.
    pub fn record(&self, direction: Direction, bytes: u64) {
        match direction {
            Direction::SourceToWarehouse => {
                self.counters.messages_s2w.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_s2w.fetch_add(bytes, Ordering::Relaxed);
            }
            Direction::WarehouseToSource => {
                self.counters.messages_w2s.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_w2s.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Record an answer's payload separately (the paper's `B`), with the
    /// number of result tuples for the `S·tuples` accounting.
    pub fn record_answer_payload(&self, bytes: u64, tuples: u64) {
        self.counters
            .answer_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        self.counters
            .answer_payload_tuples
            .fetch_add(tuples, Ordering::Relaxed);
    }

    /// Record `answer`'s payload (the paper's `B`): its encoded length
    /// and its tuple occurrences, signed ones included.
    pub fn record_answer(&self, answer: &SignedBag) {
        self.record_answer_payload(
            answer.encoded_len() as u64,
            answer.pos_len() + answer.neg_len(),
        );
    }

    /// Messages sent source → warehouse.
    pub fn messages_s2w(&self) -> u64 {
        self.counters.messages_s2w.load(Ordering::Relaxed)
    }

    /// Messages sent warehouse → source.
    pub fn messages_w2s(&self) -> u64 {
        self.counters.messages_w2s.load(Ordering::Relaxed)
    }

    /// Total messages both directions, excluding update notifications if
    /// `notifications` is supplied (the paper's `M` excludes them since
    /// they are identical across algorithms).
    pub fn total_messages_excluding(&self, notifications: u64) -> u64 {
        self.messages_s2w() + self.messages_w2s() - notifications
    }

    /// Bytes sent source → warehouse.
    pub fn bytes_s2w(&self) -> u64 {
        self.counters.bytes_s2w.load(Ordering::Relaxed)
    }

    /// Bytes sent warehouse → source.
    pub fn bytes_w2s(&self) -> u64 {
        self.counters.bytes_w2s.load(Ordering::Relaxed)
    }

    /// Answer payload bytes (the paper's `B`).
    pub fn answer_bytes(&self) -> u64 {
        self.counters.answer_bytes.load(Ordering::Relaxed)
    }

    /// Answer payload tuples (for `B = S × tuples` comparisons).
    pub fn answer_tuples(&self) -> u64 {
        self.counters.answer_payload_tuples.load(Ordering::Relaxed)
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.counters.messages_s2w.store(0, Ordering::Relaxed);
        self.counters.bytes_s2w.store(0, Ordering::Relaxed);
        self.counters.messages_w2s.store(0, Ordering::Relaxed);
        self.counters.bytes_w2s.store(0, Ordering::Relaxed);
        self.counters.answer_bytes.store(0, Ordering::Relaxed);
        self.counters
            .answer_payload_tuples
            .store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_tracked_independently() {
        let m = TransferMeter::new();
        m.record(Direction::SourceToWarehouse, 10);
        m.record(Direction::SourceToWarehouse, 5);
        m.record(Direction::WarehouseToSource, 100);
        assert_eq!(m.messages_s2w(), 2);
        assert_eq!(m.bytes_s2w(), 15);
        assert_eq!(m.messages_w2s(), 1);
        assert_eq!(m.bytes_w2s(), 100);
    }

    #[test]
    fn answer_payload_accounting() {
        let m = TransferMeter::new();
        m.record_answer_payload(40, 10);
        assert_eq!(m.answer_bytes(), 40);
        assert_eq!(m.answer_tuples(), 10);
    }

    #[test]
    fn record_answer_charges_encoded_length_and_tuples() {
        let m = TransferMeter::new();
        let mut answer = SignedBag::new();
        answer.add(eca_relational::Tuple::ints([1, 2]), 2);
        answer.add(eca_relational::Tuple::ints([3, 4]), -1);
        m.record_answer(&answer);
        assert_eq!(m.answer_bytes(), answer.encoded_len() as u64);
        assert_eq!(m.answer_tuples(), 3);
    }

    #[test]
    fn clones_share_and_reset_clears() {
        let a = TransferMeter::new();
        let b = a.clone();
        a.record(Direction::SourceToWarehouse, 1);
        assert_eq!(b.messages_s2w(), 1);
        assert_eq!(b.total_messages_excluding(1), 0);
        b.reset();
        assert_eq!(a.messages_s2w(), 0);
    }
}

//! Deterministic fault injection for chaos testing.
//!
//! The paper's §2 channel assumptions — reliable, in-order, exactly-once
//! delivery between source and warehouse — are exactly the properties a
//! real network violates. [`FaultyTransport`] is a decorator over any
//! [`Transport`] that violates them *on purpose* and *reproducibly*:
//! every fault is drawn from a seeded generator (or scripted at an exact
//! sequence point) according to a [`FaultPlan`], and every injection is
//! recorded in a replayable log. The reliability layer
//! ([`crate::reliable::ReliableLink`]) and the warehouse recovery policy
//! are then tested against precisely-known fault schedules.
//!
//! Faults are applied on the *send* path of the decorated endpoint, so
//! wrapping both endpoints of a channel covers both directions
//! independently.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::message::Message;
use crate::meter::TransferMeter;
use crate::transport::{Readiness, Role, Transport, TransportError};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The message silently disappears.
    Drop,
    /// The message is delivered twice.
    Duplicate,
    /// The message is held back until `n` later sends have passed it,
    /// reordering the stream.
    Delay(u64),
    /// One payload byte of a [`Message::Frame`] is flipped (detectable by
    /// the frame checksum). Non-frame messages degrade to a drop, since
    /// a corrupted encoding could not be represented as a typed message.
    Corrupt,
    /// The connection dies at this point: the message and everything
    /// still held back are lost, and the endpoint refuses further
    /// traffic until the harness rewires it.
    Reset,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Duplicate => write!(f, "duplicate"),
            FaultKind::Delay(n) => write!(f, "delay({n})"),
            FaultKind::Corrupt => write!(f, "corrupt"),
            FaultKind::Reset => write!(f, "reset"),
        }
    }
}

/// One entry of the replayable injection log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The send sequence number (counting every message offered to
    /// [`Transport::send`] on this endpoint, starting from the plan
    /// origin) at which the fault fired.
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
///
/// Probabilistic faults are drawn per message from `seed`; scripted
/// faults and reset points fire at exact send sequence numbers and take
/// precedence over the probabilistic draw. The same plan over the same
/// message sequence always injects the same faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-message probabilistic draws.
    pub seed: u64,
    /// Per-message probability of a [`FaultKind::Drop`].
    pub drop: f64,
    /// Per-message probability of a [`FaultKind::Duplicate`].
    pub duplicate: f64,
    /// Per-message probability of a [`FaultKind::Delay`].
    pub delay: f64,
    /// Maximum hold-back span for probabilistic delays (messages).
    pub delay_span: u64,
    /// Per-message probability of a [`FaultKind::Corrupt`].
    pub corrupt: f64,
    /// Faults scripted at exact send sequence numbers.
    pub scripted: Vec<FaultEvent>,
    /// Send sequence numbers at which the connection resets.
    pub reset_points: Vec<u64>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_span: 4,
            corrupt: 0.0,
            scripted: Vec::new(),
            reset_points: Vec::new(),
        }
    }

    /// Drop each message with probability `p`.
    pub fn drops(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            drop: p,
            ..FaultPlan::none()
        }
    }

    /// Duplicate each message with probability `p`.
    pub fn duplicates(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            duplicate: p,
            ..FaultPlan::none()
        }
    }

    /// Hold back (reorder) each message with probability `p`, by up to
    /// `span` later messages.
    pub fn delays(seed: u64, p: f64, span: u64) -> Self {
        FaultPlan {
            seed,
            delay: p,
            delay_span: span.max(1),
            ..FaultPlan::none()
        }
    }

    /// Corrupt each message with probability `p`.
    pub fn corrupts(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            corrupt: p,
            ..FaultPlan::none()
        }
    }

    /// A blend of drops, duplicates, delays and corruption, each with
    /// probability `p`.
    pub fn mixed(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            drop: p,
            duplicate: p,
            delay: p,
            delay_span: 4,
            corrupt: p,
            ..FaultPlan::none()
        }
    }

    /// The same plan with connection resets at the given send sequence
    /// numbers.
    pub fn with_resets(mut self, points: &[u64]) -> Self {
        self.reset_points = points.to_vec();
        self
    }

    /// The same plan with an additional scripted fault.
    pub fn with_scripted(mut self, seq: u64, kind: FaultKind) -> Self {
        self.scripted.push(FaultEvent { seq, kind });
        self
    }

    /// The same schedule re-seeded, for deriving independent per-endpoint
    /// or per-segment streams from one base plan.
    pub fn reseeded(mut self, salt: u64) -> Self {
        self.seed ^= salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self
    }

    /// Whether the plan can ever inject anything.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.corrupt == 0.0
            && self.scripted.is_empty()
            && self.reset_points.is_empty()
    }
}

/// A [`Transport`] decorator injecting faults per a [`FaultPlan`].
///
/// Wraps any transport; the receive path is untouched, so wrapping both
/// endpoints of a pair perturbs the two directions independently and
/// deterministically. After a [`FaultKind::Reset`] fires, the endpoint
/// behaves like a dead connection ([`TransportError::Closed`] on send)
/// until the harness observes [`FaultyTransport::take_reset`] and
/// rewires the channel.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: StdRng,
    seq: u64,
    /// Held-back messages: `(release_at_seq, message)`.
    delayed: Vec<(u64, Message)>,
    log: Vec<FaultEvent>,
    reset_pending: bool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Decorate `inner` with `plan`, counting send sequence numbers from
    /// zero.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport::with_origin(inner, plan, 0)
    }

    /// Decorate `inner` with `plan`, counting send sequence numbers from
    /// `origin` — used when a channel is rewired mid-run so scripted
    /// sequence points keep their original meaning.
    pub fn with_origin(inner: T, plan: FaultPlan, origin: u64) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ origin.wrapping_mul(0x2545_F491_4F6C_DD1D));
        FaultyTransport {
            inner,
            plan,
            rng,
            seq: origin,
            delayed: Vec::new(),
            log: Vec::new(),
            reset_pending: false,
        }
    }

    /// Drain the injection log.
    pub fn take_log(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.log)
    }

    /// Whether a reset fired since the last call; clears the flag.
    pub fn take_reset(&mut self) -> bool {
        std::mem::take(&mut self.reset_pending)
    }

    /// The next send sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// The decorated transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwrap, discarding any held-back messages.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// The fault decided for send number `seq`, if any. Scripted faults
    /// and reset points win over the probabilistic draw; among the
    /// probabilistic kinds the first hit in a fixed order (drop,
    /// duplicate, delay, corrupt) wins.
    fn decide(&mut self, seq: u64) -> Option<FaultKind> {
        if self.plan.reset_points.contains(&seq) {
            return Some(FaultKind::Reset);
        }
        if let Some(ev) = self.plan.scripted.iter().find(|ev| ev.seq == seq) {
            return Some(ev.kind);
        }
        if self.plan.drop > 0.0 && self.rng.gen_bool(self.plan.drop) {
            return Some(FaultKind::Drop);
        }
        if self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate) {
            return Some(FaultKind::Duplicate);
        }
        if self.plan.delay > 0.0 && self.rng.gen_bool(self.plan.delay) {
            let span = self.rng.gen_range(1..=self.plan.delay_span);
            return Some(FaultKind::Delay(span));
        }
        if self.plan.corrupt > 0.0 && self.rng.gen_bool(self.plan.corrupt) {
            return Some(FaultKind::Corrupt);
        }
        None
    }

    /// Release any held-back messages whose span has elapsed at send
    /// number `seq`, ahead of the message being sent now.
    fn release_due(&mut self, seq: u64) -> Result<(), TransportError> {
        let mut due: Vec<Message> = Vec::new();
        self.delayed.retain(|(release_at, msg)| {
            if *release_at <= seq {
                due.push(msg.clone());
                false
            } else {
                true
            }
        });
        for msg in due {
            self.inner.send(&msg)?;
        }
        Ok(())
    }

    /// Corrupt a frame payload in a checksum-detectable way.
    fn corrupted(&mut self, msg: &Message) -> Option<Message> {
        if let Message::Frame {
            epoch,
            seq,
            checksum,
            payload,
        } = msg
        {
            if !payload.is_empty() {
                let mut bytes = payload.to_vec();
                let idx = self.rng.gen_range(0..bytes.len());
                bytes[idx] ^= 0xa5;
                return Some(Message::Frame {
                    epoch: *epoch,
                    seq: *seq,
                    checksum: *checksum,
                    payload: bytes.into(),
                });
            }
        }
        None
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn role(&self) -> Role {
        self.inner.role()
    }

    fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        if self.reset_pending {
            return Err(TransportError::Closed);
        }
        let seq = self.seq;
        self.seq += 1;
        self.release_due(seq)?;
        let Some(kind) = self.decide(seq) else {
            return self.inner.send(msg);
        };
        match kind {
            FaultKind::Reset => {
                self.log.push(FaultEvent {
                    seq,
                    kind: FaultKind::Reset,
                });
                // The message and everything held back die with the
                // connection.
                self.delayed.clear();
                self.reset_pending = true;
                Err(TransportError::Closed)
            }
            FaultKind::Drop => {
                self.log.push(FaultEvent {
                    seq,
                    kind: FaultKind::Drop,
                });
                Ok(())
            }
            FaultKind::Duplicate => {
                self.log.push(FaultEvent {
                    seq,
                    kind: FaultKind::Duplicate,
                });
                self.inner.send(msg)?;
                self.inner.send(msg)
            }
            FaultKind::Delay(span) => {
                self.log.push(FaultEvent {
                    seq,
                    kind: FaultKind::Delay(span),
                });
                self.delayed.push((seq + span, msg.clone()));
                Ok(())
            }
            FaultKind::Corrupt => {
                self.log.push(FaultEvent {
                    seq,
                    kind: FaultKind::Corrupt,
                });
                match self.corrupted(msg) {
                    Some(bad) => self.inner.send(&bad),
                    // Not representable as a corrupted typed message:
                    // degrade to a drop (still logged as Corrupt).
                    None => Ok(()),
                }
            }
        }
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        self.inner.try_recv()
    }

    fn recv(&mut self) -> Result<Option<Message>, TransportError> {
        self.inner.recv()
    }

    fn recv_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<Message>, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    // Faults are injected on the *send* path only (the peer's sends are
    // what this endpoint fails to receive), so a batch drain is a plain
    // delegation: the inner transport's one-lock/one-syscall batch with
    // per-message semantics identical to N sequential `try_recv`s.
    fn drain_into(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        self.inner.drain_into(out, max)
    }

    fn has_inbound(&mut self) -> bool {
        self.inner.has_inbound()
    }

    fn poll(&mut self) -> Result<Readiness, TransportError> {
        self.inner.poll()
    }

    // Wake-ups fire on *raw* arrivals; a frame still held in the delay
    // queue reads Idle on the re-poll, which a parked loop treats as a
    // spurious wake-up. Bounded waits make that safe.
    fn set_waker(&mut self, waker: std::sync::Arc<crate::transport::PollWaker>) -> bool {
        self.inner.set_waker(waker)
    }

    fn meter(&self) -> &TransferMeter {
        self.inner.meter()
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

    fn drain(t: &mut impl Transport) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(m) = t.try_recv().unwrap() {
            out.push(m);
        }
        out
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let mut faulty = FaultyTransport::new(src, FaultPlan::none());
        for n in 0..5 {
            faulty.send(&notification(n)).unwrap();
        }
        assert_eq!(drain(&mut wh), (0..5).map(notification).collect::<Vec<_>>());
        assert!(faulty.take_log().is_empty());
    }

    #[test]
    fn scripted_drop_and_duplicate_fire_at_exact_points() {
        let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let plan = FaultPlan::none()
            .with_scripted(1, FaultKind::Drop)
            .with_scripted(3, FaultKind::Duplicate);
        let mut faulty = FaultyTransport::new(src, plan);
        for n in 0..5 {
            faulty.send(&notification(n)).unwrap();
        }
        assert_eq!(
            drain(&mut wh),
            vec![
                notification(0),
                notification(2),
                notification(3),
                notification(3),
                notification(4),
            ]
        );
        assert_eq!(
            faulty.take_log(),
            [
                FaultEvent {
                    seq: 1,
                    kind: FaultKind::Drop
                },
                FaultEvent {
                    seq: 3,
                    kind: FaultKind::Duplicate
                },
            ]
        );
    }

    /// Batch drains through the decorator must be indistinguishable
    /// from N sequential `try_recv`s: same released messages, same
    /// meter totals — the reactor's batched receive path may not alter
    /// fault semantics.
    #[test]
    fn wrapped_batch_drain_matches_sequential_try_recv() {
        let plan = || {
            FaultPlan::none()
                .with_scripted(1, FaultKind::Drop)
                .with_scripted(3, FaultKind::Duplicate)
        };
        let run = |batch: bool| {
            let meter = TransferMeter::new();
            let (src_end, wh_end) = SharedFifo::pair(meter.clone());
            let mut faulty_src = FaultyTransport::new(src_end, plan());
            // The receiving end is wrapped too: its (unused) send-path
            // faults must not perturb the receive path.
            let mut wh = FaultyTransport::new(wh_end, plan());
            for n in 0..6 {
                faulty_src.send(&notification(n)).unwrap();
            }
            let mut out = Vec::new();
            if batch {
                while wh.drain_into(&mut out, usize::MAX).unwrap() > 0 {}
            } else {
                while let Some(m) = wh.try_recv().unwrap() {
                    out.push(m);
                }
            }
            (out, meter)
        };
        let (sequential, seq_meter) = run(false);
        let (batched, batch_meter) = run(true);
        assert_eq!(sequential, batched);
        assert_eq!(seq_meter.messages_s2w(), batch_meter.messages_s2w());
        assert_eq!(seq_meter.bytes_s2w(), batch_meter.bytes_s2w());
    }

    /// `drain_into` honours `max` through the decorator: the remainder
    /// stays queued for later receives.
    #[test]
    fn wrapped_drain_respects_max() {
        let (src, wh_end) = SharedFifo::pair(TransferMeter::new());
        let mut faulty_src = FaultyTransport::new(src, FaultPlan::none());
        let mut wh = FaultyTransport::new(wh_end, FaultPlan::none());
        for n in 0..5 {
            faulty_src.send(&notification(n)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(wh.drain_into(&mut out, 2).unwrap(), 2);
        assert_eq!(out, vec![notification(0), notification(1)]);
        assert_eq!(drain(&mut wh), (2..5).map(notification).collect::<Vec<_>>());
    }

    #[test]
    fn scripted_delay_reorders() {
        let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let plan = FaultPlan::none().with_scripted(0, FaultKind::Delay(2));
        let mut faulty = FaultyTransport::new(src, plan);
        for n in 0..4 {
            faulty.send(&notification(n)).unwrap();
        }
        // Message 0 is held until send seq 2 has passed.
        assert_eq!(
            drain(&mut wh),
            vec![
                notification(1),
                notification(0),
                notification(2),
                notification(3),
            ]
        );
    }

    #[test]
    fn corrupt_flips_a_frame_payload_byte() {
        let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let plan = FaultPlan::none().with_scripted(0, FaultKind::Corrupt);
        let mut faulty = FaultyTransport::new(src, plan);
        let payload = notification(1).encode();
        let frame = Message::Frame {
            epoch: 0,
            seq: 0,
            checksum: 7,
            payload: payload.clone(),
        };
        faulty.send(&frame).unwrap();
        let got = drain(&mut wh);
        assert_eq!(got.len(), 1);
        let Message::Frame {
            payload: got_payload,
            checksum,
            ..
        } = &got[0]
        else {
            panic!("expected a frame");
        };
        assert_eq!(*checksum, 7, "checksum travels unmodified");
        assert_ne!(got_payload, &payload, "payload was corrupted");
        assert_eq!(got_payload.len(), payload.len());
    }

    #[test]
    fn reset_kills_the_endpoint_until_observed() {
        let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
        let plan = FaultPlan::none().with_resets(&[1]);
        let mut faulty = FaultyTransport::new(src, plan);
        faulty.send(&notification(0)).unwrap();
        assert!(matches!(
            faulty.send(&notification(1)),
            Err(TransportError::Closed)
        ));
        assert!(matches!(
            faulty.send(&notification(2)),
            Err(TransportError::Closed)
        ));
        assert_eq!(drain(&mut wh), vec![notification(0)]);
        assert!(faulty.take_reset());
        assert!(!faulty.take_reset(), "flag clears after observation");
    }

    #[test]
    fn probabilistic_plans_are_replayable() {
        let run = |seed: u64| {
            let (src, mut wh) = SharedFifo::pair(TransferMeter::new());
            let mut faulty = FaultyTransport::new(src, FaultPlan::mixed(seed, 0.3));
            for n in 0..50 {
                let _ = faulty.send(&notification(n));
            }
            (faulty.take_log(), drain(&mut wh))
        };
        let (log_a, got_a) = run(11);
        let (log_b, got_b) = run(11);
        let (log_c, _) = run(12);
        assert_eq!(log_a, log_b);
        assert_eq!(got_a, got_b);
        assert!(!log_a.is_empty(), "p=0.3 over 50 sends must inject");
        assert_ne!(log_a, log_c, "different seeds, different schedules");
    }
}

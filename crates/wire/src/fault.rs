//! Deterministic fault injection for chaos testing.
//!
//! A deployed channel (TCP) delivers in order and exactly once while the
//! connection lives; it breaks the paper's §2 channel assumptions only
//! when the connection resets or a peer crashes. [`FaultyTransport`] is a
//! decorator over any [`Transport`] that resets the connection *on
//! purpose* and *reproducibly*: at scripted send sequence points, or at a
//! seeded per-send rate, according to a [`FaultPlan`]. (Peer crashes are
//! scripted by the simulator, which owns the processes.) The resume layer
//! ([`crate::reliable::ReliableLink`]) and the warehouse recovery policy
//! are then tested against precisely-known reset schedules.
//!
//! Resets fire on the *send* path of the decorated endpoint, so wrapping
//! both endpoints of a channel covers both directions independently.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::message::Message;
use crate::meter::TransferMeter;
use crate::transport::{Readiness, Role, Transport, TransportError};

/// A deterministic schedule of connection resets.
///
/// Scripted reset points fire at exact send sequence numbers; the
/// per-send rate is drawn from `seed`. The same plan over the same
/// message sequence always resets at the same points.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-send draws.
    pub seed: u64,
    /// Per-send probability that the connection resets.
    pub reset: f64,
    /// Send sequence numbers at which the connection resets.
    pub reset_points: Vec<u64>,
}

impl FaultPlan {
    /// A plan that never resets.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            reset: 0.0,
            reset_points: Vec::new(),
        }
    }

    /// Reset the connection on each send with probability `p`.
    pub fn resets(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            reset: p,
            ..FaultPlan::none()
        }
    }

    /// The same plan with connection resets at the given send sequence
    /// numbers.
    pub fn with_resets(mut self, points: &[u64]) -> Self {
        self.reset_points = points.to_vec();
        self
    }

    /// The same schedule re-seeded, for deriving independent per-endpoint
    /// or per-segment streams from one base plan.
    pub fn reseeded(mut self, salt: u64) -> Self {
        self.seed ^= salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self
    }
}

/// A [`Transport`] decorator resetting the connection per a
/// [`FaultPlan`].
///
/// The receive path is untouched, so wrapping both endpoints of a pair
/// perturbs the two directions independently and deterministically.
/// Once a reset fires, the endpoint behaves like a dead connection
/// ([`TransportError::Closed`] on send) until the harness observes
/// [`FaultyTransport::take_reset`] and rewires the channel.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: StdRng,
    seq: u64,
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
            reset_pending: false,
        }
    }

    /// Whether a reset fired since the last call; clears the flag.
    pub fn take_reset(&mut self) -> bool {
        std::mem::take(&mut self.reset_pending)
    }

    /// The next send sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq
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
        if self.plan.reset_points.contains(&seq)
            || (self.plan.reset > 0.0 && self.rng.gen_bool(self.plan.reset))
        {
            // The message dies with the connection.
            self.reset_pending = true;
            return Err(TransportError::Closed);
        }
        self.inner.send(msg)
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

    // Resets fire on the *send* path only, so a batch drain is a plain
    // delegation: the inner transport's one-lock/one-syscall batch.
    fn drain_into(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        self.inner.drain_into(out, max)
    }

    fn has_inbound(&mut self) -> bool {
        self.inner.has_inbound()
    }

    fn poll(&mut self) -> Result<Readiness, TransportError> {
        self.inner.poll()
    }

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
        assert!(!faulty.take_reset());
    }

    /// Batch drains through the decorator must be indistinguishable
    /// from N sequential `try_recv`s: same released messages, same
    /// meter totals, including when a reset cut the stream short.
    #[test]
    fn wrapped_batch_drain_matches_sequential_try_recv() {
        let run = |batch: bool| {
            let meter = TransferMeter::new();
            let (src_end, wh_end) = SharedFifo::pair(meter.clone());
            let plan = || FaultPlan::none().with_resets(&[4]);
            let mut faulty_src = FaultyTransport::new(src_end, plan());
            // The receiving end is wrapped too: its (unused) send-path
            // resets must not perturb the receive path.
            let mut wh = FaultyTransport::new(wh_end, plan());
            for n in 0..6 {
                let _ = faulty_src.send(&notification(n));
            }
            let mut out = Vec::new();
            if batch {
                while wh.drain_into(&mut out, usize::MAX).unwrap() > 0 {}
            } else {
                out = drain(&mut wh);
            }
            (out, meter)
        };
        let (sequential, seq_meter) = run(false);
        let (batched, batch_meter) = run(true);
        assert_eq!(sequential, (0..4).map(notification).collect::<Vec<_>>());
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
        // The send index at which the first reset fires.
        let first_reset = |seed: u64, origin: u64| {
            let (src, _wh) = SharedFifo::pair(TransferMeter::new());
            let plan = FaultPlan::resets(seed, 0.2);
            let mut faulty = FaultyTransport::with_origin(src, plan, origin);
            (0..200)
                .find(|&n| faulty.send(&notification(n)).is_err())
                .expect("p=0.2 over 200 sends must reset")
        };
        assert_eq!(first_reset(11, 0), first_reset(11, 0));
        assert_eq!(first_reset(11, 5), first_reset(11, 5));
        let seeds: Vec<i64> = (0..8).map(|seed| first_reset(seed, 0)).collect();
        assert!(
            seeds.iter().any(|&n| n != seeds[0]),
            "different seeds, different schedules: {seeds:?}"
        );
    }
}

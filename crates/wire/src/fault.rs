//! Deterministic fault injection for chaos testing.
//!
//! A deployed channel (TCP) delivers in order and exactly once while the
//! connection lives; it breaks the paper's §2 channel assumptions only
//! when the connection resets or a peer crashes. A [`FaultClock`] decides
//! which sends of one direction of one connection reset it *on purpose*
//! and *reproducibly*: at scripted send sequence points, or at a seeded
//! per-send rate, according to a [`FaultPlan`]. (Peer crashes are
//! scripted by the simulator, which owns the processes.) The source's
//! [`crate::Outbox`] and the warehouse recovery policy are then tested
//! against precisely-known reset schedules.
//!
//! Resets fire on the *send* path, so one clock per direction covers the
//! two directions independently.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The reset schedule of one direction of one connection: counts its
/// send sequence numbers and decides, per send, whether the connection
/// dies with it.
///
/// Once a reset fires, every further send is refused (without taking a
/// sequence number) until the owner observes
/// [`FaultClock::take_reset`] and [`reconnect`](FaultClock::reconnect)s.
#[derive(Clone, Debug)]
pub struct FaultClock {
    plan: FaultPlan,
    rng: StdRng,
    seq: u64,
    reset_pending: bool,
}

impl FaultClock {
    /// A clock over `plan`, counting send sequence numbers from zero.
    pub fn new(plan: FaultPlan) -> Self {
        FaultClock::with_origin(plan, 0)
    }

    /// A clock over `plan` counting from `origin`, its per-send draws
    /// seeded from the plan's seed and the origin.
    fn with_origin(plan: FaultPlan, origin: u64) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ origin.wrapping_mul(0x2545_F491_4F6C_DD1D));
        FaultClock {
            plan,
            rng,
            seq: origin,
            reset_pending: false,
        }
    }

    /// Take the next send: whether the connection carries it. A send
    /// that fires a reset dies with the connection.
    pub fn admit(&mut self) -> bool {
        if self.reset_pending {
            return false;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.plan.reset_points.contains(&seq)
            || (self.plan.reset > 0.0 && self.rng.gen_bool(self.plan.reset))
        {
            self.reset_pending = true;
            return false;
        }
        true
    }

    /// Whether a reset fired since the last call; clears the flag.
    pub fn take_reset(&mut self) -> bool {
        std::mem::take(&mut self.reset_pending)
    }

    /// The clock of the fresh connection that replaces this one: the
    /// sequence numbers continue, so scripted points keep their meaning
    /// and fired resets never re-fire, and the draws are re-seeded from
    /// where this one stopped.
    pub fn reconnect(&mut self) {
        *self = FaultClock::with_origin(self.plan.clone(), self.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_plan_is_transparent() {
        let mut clock = FaultClock::new(FaultPlan::none());
        assert!((0..5).all(|_| clock.admit()));
        assert!(!clock.take_reset());
    }

    #[test]
    fn reset_kills_the_endpoint_until_observed() {
        let mut clock = FaultClock::new(FaultPlan::none().with_resets(&[1, 2]));
        assert!(clock.admit());
        assert!(!clock.admit(), "send 1 resets");
        assert!(!clock.admit(), "a dead connection refuses");
        assert!(clock.take_reset());
        assert!(!clock.take_reset(), "flag clears after observation");
        // A refused send took no sequence number: send 2 still resets
        // the fresh connection.
        clock.reconnect();
        assert!(!clock.admit());
        assert!(clock.take_reset());
    }

    #[test]
    fn probabilistic_plans_are_replayable() {
        // The send index at which the first reset fires.
        let first_reset = |seed: u64, origin: u64| {
            let mut clock = FaultClock::with_origin(FaultPlan::resets(seed, 0.2), origin);
            (0..200)
                .find(|_| !clock.admit())
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

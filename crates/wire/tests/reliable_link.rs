//! Property tests: the source's [`Outbox`] over [`FaultClock`]-driven
//! connections restores the paper's §2 channel contract across
//! connection resets and warehouse crashes. For *arbitrary* message
//! scripts with resets at arbitrary send points in both directions, and
//! crashes that bring the warehouse back at its durable watermark, the
//! warehouse applies every update notification exactly once and in
//! order, and never receives an answer ahead of a notification the
//! source sent before it.

use std::collections::VecDeque;

use eca_core::QueryId;
use eca_relational::{SignedBag, Tuple, Update};
use eca_wire::{Direction, FaultClock, FaultPlan, Message, Outbox, Resume, TransferMeter};
use proptest::prelude::*;
fn notification(n: u64) -> Message {
    Message::UpdateNotification {
        update: Update::insert("r1", Tuple::ints([n as i64, 0])),
    }
}

/// What the source does next.
#[derive(Clone, Debug)]
enum Op {
    /// Send the next notification.
    Notify,
    /// Send an answer, tagged with the notifications sent before it.
    Answer,
    /// The warehouse takes up to this many messages.
    Deliver(usize),
    /// The warehouse crashes and comes back at its durable watermark.
    Crash,
}

fn op() -> impl Strategy<Value = Op> {
    // Notifications and deliveries three times as likely as the rest.
    prop_oneof![
        Just(Op::Notify),
        Just(Op::Notify),
        Just(Op::Notify),
        Just(Op::Answer),
        (1usize..4).prop_map(Op::Deliver),
        (1usize..4).prop_map(Op::Deliver),
        (1usize..4).prop_map(Op::Deliver),
        Just(Op::Crash),
    ]
}

/// Reset points scripted on one direction's send sequence.
fn resets() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec(0u64..60, 0..4).prop_map(|points| FaultPlan::none().with_resets(&points))
}

/// One direction of a connection: the messages in flight and the clock
/// that decides which sends reset it.
struct Lane {
    queue: VecDeque<Message>,
    clock: FaultClock,
}

impl Lane {
    fn new(plan: FaultPlan) -> Lane {
        Lane {
            queue: VecDeque::new(),
            clock: FaultClock::new(plan),
        }
    }

    fn send(&mut self, msg: Message) {
        if self.clock.admit() {
            self.queue.push_back(msg);
        }
    }
}

/// Both ends of one channel, the warehouse modelled as the list of
/// notifications it applied and a durable prefix of that list.
struct Channel {
    outbox: Outbox,
    s2w: Lane,
    w2s: Lane,
    logical: TransferMeter,
    /// Notifications sent by the source (numbered from 0).
    sent: u64,
    /// Notifications applied by the warehouse, in apply order.
    applied: Vec<Message>,
    /// How many of `applied` survive a crash.
    durable: usize,
    /// The warehouse makes `applied` durable every this many applies.
    sync_every: usize,
    /// The watermark the warehouse last acked on this connection.
    acked: Option<u64>,
    resumes: u64,
}

impl Channel {
    fn new(s2w: FaultPlan, w2s: FaultPlan, sync_every: usize, logical: &TransferMeter) -> Channel {
        Channel {
            outbox: Outbox::default(),
            s2w: Lane::new(s2w),
            w2s: Lane::new(w2s),
            logical: logical.clone(),
            sent: 0,
            applied: Vec::new(),
            durable: 0,
            sync_every,
            acked: Some(0),
            resumes: 0,
        }
    }

    /// The source sends `msg`: charged once, kept if a notification.
    fn send(&mut self, msg: Message) {
        self.logical
            .record(Direction::SourceToWarehouse, msg.encoded_len() as u64);
        self.outbox.push(&msg);
        self.s2w.send(msg);
    }

    /// Reconnect after a reset (or a crash): everything in flight is
    /// lost, and the source resumes at the warehouse's watermark, which
    /// the outbox must always cover.
    fn reconnect(&mut self) {
        for lane in [&mut self.s2w, &mut self.w2s] {
            lane.queue.clear();
            lane.clock.reconnect();
        }
        self.acked = None;
        let watermark = self.applied.len() as u64;
        let (resumed, tail) = self.outbox.resume(watermark);
        assert_eq!(resumed, Resume::Replayed(self.sent - watermark));
        for msg in tail {
            self.logical
                .record(Direction::SourceToWarehouse, msg.encoded_len() as u64);
            self.s2w.send(msg.clone());
        }
        self.resumes += 1;
    }

    /// Heal a connection killed by a scripted reset.
    fn heal(&mut self) -> bool {
        let dead = self.s2w.clock.take_reset() | self.w2s.clock.take_reset();
        if dead {
            self.reconnect();
        }
        dead
    }

    /// Ack the durable watermark if it advanced on this connection.
    fn ack(&mut self) {
        let next = self.durable as u64;
        if self.acked.map_or(true, |acked| next > acked) {
            self.acked = Some(next);
            self.w2s.send(Message::Ack { epoch: 0, next });
        }
    }

    /// The source absorbs the acks that reached it.
    fn absorb_acks(&mut self) {
        while let Some(msg) = self.w2s.queue.pop_front() {
            let Message::Ack { next, .. } = msg else {
                panic!("unexpected {msg:?}");
            };
            self.outbox.trim(next);
        }
    }

    /// The warehouse takes up to `n` messages, applying notifications
    /// and acking its durable watermark. Returns how many it took.
    fn deliver(&mut self, n: usize) -> usize {
        let mut taken = 0;
        while taken < n {
            let Some(msg) = self.s2w.queue.pop_front() else {
                break;
            };
            taken += 1;
            match msg {
                Message::UpdateNotification { .. } => {
                    assert_eq!(
                        &msg,
                        &notification(self.applied.len() as u64),
                        "exactly once, in order"
                    );
                    self.applied.push(msg);
                    if self.applied.len() - self.durable >= self.sync_every {
                        self.durable = self.applied.len();
                    }
                }
                Message::QueryAnswer { id, .. } => assert!(
                    self.applied.len() as u64 >= id.0,
                    "answer sent after {} notifications reached a warehouse at {}",
                    id.0,
                    self.applied.len()
                ),
                other => panic!("unexpected {other:?}"),
            }
            self.ack();
        }
        // Once more in case the last ack died with a connection: after a
        // resume the warehouse acks again whatever its value.
        self.ack();
        taken
    }

    fn step(&mut self, op: &Op) {
        match op {
            Op::Notify => {
                self.send(notification(self.sent));
                self.sent += 1;
            }
            Op::Answer => self.send(Message::QueryAnswer {
                id: QueryId(self.sent),
                answer: SignedBag::new(),
            }),
            Op::Deliver(n) => {
                self.deliver(*n);
                self.absorb_acks();
            }
            Op::Crash => {
                self.applied.truncate(self.durable);
                self.reconnect();
            }
        }
        self.heal();
    }

    /// Deliver and heal until nothing is left in flight.
    fn settle(&mut self) {
        for _ in 0..10_000 {
            let taken = self.deliver(usize::MAX);
            self.absorb_acks();
            if !self.heal() && taken == 0 {
                return;
            }
        }
        panic!("channel never settled");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exactly-once, in-order notifications and no answer overtaking a
    /// notification sent before it, under arbitrary scripts, reset points
    /// in both directions and crashes at the durable watermark; the
    /// logical meter charges each message once plus each re-send.
    #[test]
    fn reliable_link_is_exactly_once_in_order_under_arbitrary_plans(
        ops in prop::collection::vec(op(), 1..40),
        s2w in resets(),
        w2s in resets(),
        sync_every in 1usize..4,
    ) {
        let logical = TransferMeter::new();
        let mut ch = Channel::new(s2w, w2s, sync_every, &logical);
        let mut answers = 0u64;
        for op in &ops {
            if matches!(op, Op::Answer) {
                answers += 1;
            }
            ch.step(op);
        }
        ch.settle();
        let all: Vec<Message> = (0..ch.sent).map(notification).collect();
        prop_assert_eq!(&ch.applied, &all, "every notification exactly once, in order");
        // Re-sends are logical traffic, acks are not: the logical ledger
        // holds the script's messages plus whatever resumes re-sent.
        prop_assert!(logical.messages_s2w() >= ch.sent + answers);
        prop_assert_eq!(logical.messages_w2s(), 0);
        if ch.resumes == 0 {
            prop_assert_eq!(logical.messages_s2w(), ch.sent + answers);
        }
    }

    /// Interleaved sends and deliveries under per-send reset rates in
    /// both directions: ordering holds, and once the channel settles the
    /// outbox holds exactly the notifications past the durable
    /// watermark.
    #[test]
    fn interleaved_sends_stay_ordered(
        seed in any::<u64>(),
        rate in 0u32..300,
        n in 2u64..20,
        stride in 1usize..5,
        sync_every in 1usize..4,
    ) {
        let plan = FaultPlan::resets(seed, f64::from(rate) / 1000.0);
        let logical = TransferMeter::new();
        let mut ch = Channel::new(plan.clone(), plan.reseeded(1), sync_every, &logical);
        for i in 0..n {
            ch.step(&Op::Notify);
            if i % 3 == 0 {
                ch.step(&Op::Answer);
            }
            if (i as usize + 1) % stride == 0 {
                ch.step(&Op::Deliver(stride));
            }
        }
        ch.settle();
        let all: Vec<Message> = (0..n).map(notification).collect();
        prop_assert_eq!(&ch.applied, &all);
        prop_assert_eq!(ch.outbox.len(), (ch.sent as usize) - ch.durable);
    }
}

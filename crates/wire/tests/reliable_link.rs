//! Property tests: [`ReliableLink`] over [`FaultyTransport`] restores
//! the paper's §2 channel contract. For *arbitrary* bounded
//! drop/duplicate/delay/corrupt plans — in both directions at once — any
//! message sequence is delivered exactly once and in order, and the
//! link's logical meter charges exactly what a plain [`SharedFifo`]
//! run charges (the differential), so reliability stays invisible to the
//! byte accounting the paper's figures are built from.

use eca_relational::{Tuple, Update};
use eca_wire::{
    FaultPlan, FaultyTransport, Message, ReliableLink, SharedFifo, TransferMeter, Transport,
    TransportError,
};
use proptest::prelude::*;

type Link = ReliableLink<FaultyTransport<SharedFifo>>;

fn notification(n: i64) -> Message {
    Message::UpdateNotification {
        update: Update::insert("r1", Tuple::ints([n, n + 1])),
    }
}

/// Bounded fault plans: each probability at most 0.4 so the channel
/// keeps making progress (retransmission heals it without intervention
/// in almost every round; a wedge is handled by the driver below).
fn plan() -> impl Strategy<Value = FaultPlan> {
    // Probabilities drawn in permille (the vendored proptest has no f64
    // range strategy).
    (
        any::<u64>(),
        0u32..400,
        0u32..400,
        0u32..400,
        1u64..6,
        0u32..400,
    )
        .prop_map(
            |(seed, drop, duplicate, delay, delay_span, corrupt)| FaultPlan {
                seed,
                drop: f64::from(drop) / 1000.0,
                duplicate: f64::from(duplicate) / 1000.0,
                delay: f64::from(delay) / 1000.0,
                delay_span,
                corrupt: f64::from(corrupt) / 1000.0,
                ..FaultPlan::none()
            },
        )
}

/// Drain every released message; reports whether the link is wedged
/// (retry cap exceeded — surfaces as [`TransportError::Timeout`]).
fn pump(link: &mut Link, out: &mut Vec<Message>) -> bool {
    loop {
        match link.try_recv() {
            Ok(Some(m)) => out.push(m),
            Ok(None) => return false,
            Err(TransportError::Timeout) => return true,
            Err(e) => panic!("unexpected transport error: {e}"),
        }
    }
}

/// Heal a wedged channel the way the warehouse recovery policy does:
/// swap in a clean connection; session state survives, so everything
/// unacked is retransmitted and delivery stays exactly-once.
fn rewire(src: &mut Link, wh: &mut Link, raw: &TransferMeter) {
    let (src_end, wh_end) = SharedFifo::pair(raw.clone());
    src.reconnect(FaultyTransport::new(src_end, FaultPlan::none()));
    wh.reconnect(FaultyTransport::new(wh_end, FaultPlan::none()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once, in-order, both directions, plus the meter
    /// differential against a plain in-memory run of the same sends.
    #[test]
    fn reliable_link_is_exactly_once_in_order_under_arbitrary_plans(
        s2w in plan(),
        w2s in plan(),
        n_up in 1usize..16,
        n_down in 0usize..8,
    ) {
        let raw = TransferMeter::new();
        let logical = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw.clone());
        let mut src: Link = ReliableLink::new(FaultyTransport::new(src_end, s2w), logical.clone());
        let mut wh: Link = ReliableLink::new(FaultyTransport::new(wh_end, w2s), logical.clone());

        let up: Vec<Message> = (0..n_up as i64).map(notification).collect();
        let down: Vec<Message> = (1000..1000 + n_down as i64).map(notification).collect();
        for m in &up {
            src.send(m).unwrap();
        }
        for m in &down {
            wh.send(m).unwrap();
        }

        let mut got_up = Vec::new();
        let mut got_down = Vec::new();
        let mut ticks = 0u32;
        loop {
            ticks += 1;
            prop_assert!(ticks < 500_000, "channel never settled");
            let wh_wedged = pump(&mut wh, &mut got_up);
            let src_wedged = pump(&mut src, &mut got_down);
            if wh_wedged || src_wedged {
                rewire(&mut src, &mut wh, &raw);
                continue;
            }
            // Settled = every frame acked and released in order; a copy
            // still held back by a delay fault can only be a redundant
            // duplicate or ack by then.
            if src.is_settled() && wh.is_settled() && !src.has_inbound() && !wh.has_inbound() {
                break;
            }
        }
        prop_assert_eq!(&got_up, &up, "s2w: exactly once, in order");
        prop_assert_eq!(&got_down, &down, "w2s: exactly once, in order");

        // Differential: the same sends over a plain in-memory pair must
        // charge the identical meter — the link's frames, acks and
        // retransmissions live on the raw meter only.
        let plain_meter = TransferMeter::new();
        let (mut plain_src, mut plain_wh) = SharedFifo::pair(plain_meter.clone());
        for m in &up {
            plain_src.send(m).unwrap();
        }
        for m in &down {
            plain_wh.send(m).unwrap();
        }
        let mut plain_up = Vec::new();
        while let Some(m) = plain_wh.try_recv().unwrap() {
            plain_up.push(m);
        }
        let mut plain_down = Vec::new();
        while let Some(m) = plain_src.try_recv().unwrap() {
            plain_down.push(m);
        }
        prop_assert_eq!(got_up, plain_up, "same releases as the plain run");
        prop_assert_eq!(got_down, plain_down);
        prop_assert_eq!(logical.messages_s2w(), plain_meter.messages_s2w());
        prop_assert_eq!(logical.bytes_s2w(), plain_meter.bytes_s2w());
        prop_assert_eq!(logical.messages_w2s(), plain_meter.messages_w2s());
        prop_assert_eq!(logical.bytes_w2s(), plain_meter.bytes_w2s());
        // Faults never inflate the logical ledger, only the raw one.
        prop_assert!(raw.bytes_s2w() + raw.bytes_w2s() >= logical.bytes_s2w() + logical.bytes_w2s());
    }

    /// Interleaved send/receive (not batch-then-drain): ordering holds
    /// even when new sends race retransmissions of earlier frames.
    #[test]
    fn interleaved_sends_stay_ordered(
        s2w in plan(),
        n in 2usize..12,
        stride in 1usize..5,
    ) {
        let raw = TransferMeter::new();
        let logical = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw.clone());
        let mut src: Link =
            ReliableLink::new(FaultyTransport::new(src_end, s2w), logical.clone());
        let mut wh: Link =
            ReliableLink::new(FaultyTransport::new(wh_end, FaultPlan::none()), logical.clone());

        let msgs: Vec<Message> = (0..n as i64).map(notification).collect();
        let mut got = Vec::new();
        let mut ticks = 0u32;
        for chunk in msgs.chunks(stride) {
            for m in chunk {
                src.send(m).unwrap();
            }
            // A few service passes between bursts so retransmissions of
            // older frames interleave with fresh traffic.
            for _ in 0..3 {
                prop_assert!(!pump(&mut wh, &mut got), "receiver cannot wedge");
                let _ = src.try_recv();
            }
        }
        loop {
            ticks += 1;
            prop_assert!(ticks < 500_000, "channel never settled");
            if pump(&mut wh, &mut got) | pump(&mut src, &mut Vec::new()) {
                rewire(&mut src, &mut wh, &raw);
                continue;
            }
            if src.is_settled() && wh.is_settled() && !wh.has_inbound() {
                break;
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(logical.messages_s2w(), n as u64);
    }
}

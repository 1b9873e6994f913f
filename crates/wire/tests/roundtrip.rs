//! Property tests: every message round-trips through the codec — and
//! through the transport framing [`eca_wire::TcpTransport`] uses — and
//! encoded sizes match the accounting helpers. [`eca_wire::SharedFifo`] queues messages without
//! encoding them and meters [`Message::encoded_len`], so the structural
//! size is pinned here against the real encoding for every variant and
//! arbitrary queries, and a two-way `SharedFifo` stream must meter
//! exactly what the codec would have produced.

use std::sync::Arc;

use eca_core::algorithms::Eca;
use eca_core::{Atom, Query, QueryHeader, QueryId, Term, ViewDef, ViewMaintainer};
use eca_relational::{
    CmpOp, Operand, Predicate, Schema, Sign, SignedBag, SignedTuple, Tuple, Update, Value,
};
use eca_wire::{
    read_frame, write_frame, Decoder, Encoder, Message, ReadLevel, SharedFifo, TransferMeter,
    Transport, WireQuery,
};
use proptest::prelude::*;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,12}".prop_map(Value::str),
    ]
}

fn tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value(), 0..5).prop_map(Tuple::new)
}

fn bag() -> impl Strategy<Value = SignedBag> {
    prop::collection::vec((tuple(), -3i64..=3), 0..10).prop_map(|entries| {
        let mut bag = SignedBag::new();
        for (t, c) in entries {
            bag.add(t, c);
        }
        bag
    })
}

fn update() -> impl Strategy<Value = Update> {
    ("[a-z]{1,8}", tuple(), any::<bool>()).prop_map(|(rel, t, ins)| {
        if ins {
            Update::insert(rel, t)
        } else {
            Update::delete(rel, t)
        }
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0usize..1000).prop_map(Operand::Column),
        value().prop_map(Operand::Const),
    ]
}

/// Predicate trees up to `depth` connectives deep, every node kind
/// reachable at every level.
fn predicate(depth: u32) -> BoxedStrategy<Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (operand(), cmp_op(), operand()).prop_map(|(lhs, op, rhs)| Predicate::Cmp { lhs, op, rhs }),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        leaf,
        (predicate(depth - 1), predicate(depth - 1))
            .prop_map(|(a, b)| Predicate::And(Box::new(a), Box::new(b))),
        (predicate(depth - 1), predicate(depth - 1))
            .prop_map(|(a, b)| Predicate::Or(Box::new(a), Box::new(b))),
        predicate(depth - 1).prop_map(|a| Predicate::Not(Box::new(a))),
    ]
    .boxed()
}

/// One atom slot: the base relation (`None`), or a bound tuple of either
/// sign.
fn atom() -> impl Strategy<Value = Option<SignedTuple>> {
    prop_oneof![
        Just(None),
        (tuple(), any::<bool>()).prop_map(|(tuple, minus)| Some(SignedTuple {
            sign: if minus { Sign::Minus } else { Sign::Plus },
            tuple,
        })),
    ]
}

/// Arbitrary self-contained queries of core [`Term`]s: one atom per
/// relation in every term, the base relation in slot `i` as
/// `Atom::Rel(i)`, as the decoder builds them.
fn wire_query() -> impl Strategy<Value = WireQuery> {
    (
        prop::collection::vec("[a-z]{1,8}", 1..4),
        predicate(3),
        prop::collection::vec(0usize..1000, 0..5),
        prop::collection::vec((any::<i64>(), prop::collection::vec(atom(), 3)), 0..4),
    )
        .prop_map(|(relations, cond, proj, terms)| {
            let width = relations.len();
            let terms: Vec<Term> = terms
                .into_iter()
                .map(|(factor, mut atoms)| {
                    atoms.resize(width, None);
                    let atoms = atoms
                        .into_iter()
                        .enumerate()
                        .map(|(i, a)| a.map_or(Atom::Rel(i), Atom::Bound))
                        .collect();
                    Term::new(factor, atoms)
                })
                .collect();
            WireQuery {
                header: Arc::new(QueryHeader {
                    relations,
                    cond,
                    proj,
                }),
                terms: terms.into(),
            }
        })
}

fn read_level() -> impl Strategy<Value = ReadLevel> {
    prop_oneof![
        Just(ReadLevel::Convergent),
        Just(ReadLevel::Weak),
        Just(ReadLevel::Strong),
    ]
}

/// Every one of the eight [`Message`] variants, with arbitrary contents.
fn message() -> impl Strategy<Value = Message> {
    let id = || any::<u64>().prop_map(QueryId);
    prop_oneof![
        update().prop_map(|update| Message::UpdateNotification { update }),
        (id(), wire_query()).prop_map(|(id, query)| Message::QueryRequest { id, query }),
        (id(), bag()).prop_map(|(id, answer)| Message::QueryAnswer { id, answer }),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, next)| Message::Ack { epoch, next }),
        any::<u64>().prop_map(|epoch| Message::Hello { epoch }),
        (id(), any::<u64>(), read_level(), any::<u64>()).prop_map(
            |(id, view, level, min_epoch)| Message::ReadQuery {
                id,
                view,
                level,
                min_epoch,
            }
        ),
        (id(), any::<u64>(), any::<u64>(), any::<u64>(), bag()).prop_map(
            |(id, view, epoch, latest, rows)| Message::ReadAnswer {
                id,
                view,
                epoch,
                latest,
                rows,
            }
        ),
        (id(), "[a-z ]{0,24}").prop_map(|(id, reason)| Message::ReadError { id, reason }),
    ]
}

proptest! {
    #[test]
    fn update_notifications_roundtrip(u in update()) {
        let m = Message::UpdateNotification { update: u };
        prop_assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn answers_roundtrip(id in any::<u64>(), answer in bag()) {
        let m = Message::QueryAnswer { id: QueryId(id), answer };
        prop_assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn answer_payload_len_matches_bag_encoded_len(answer in bag()) {
        // The B metric relies on SignedBag::encoded_len agreeing with the
        // real codec: message = 1 tag + 8 id + payload.
        let m = Message::QueryAnswer { id: QueryId(1), answer: answer.clone() };
        prop_assert_eq!(m.encoded_len(), 9 + answer.encoded_len());
    }

    /// The bag payload is pinned byte for byte — a u32 occurrence count,
    /// then per occurrence (tuples in value order, a count of `n` written
    /// `n` times) a sign byte and the tuple — and `encoded_len` is the
    /// length of exactly those bytes.
    #[test]
    fn bag_bytes_are_the_occurrence_stream(answer in bag()) {
        let mut e = Encoder::new();
        e.put_bag(&answer);
        let bytes = e.finish();
        prop_assert_eq!(answer.encoded_len(), bytes.len());

        let mut want = Encoder::new();
        want.put_u32(answer.iter_occurrences().count() as u32);
        for (t, c) in answer.iter() {
            for _ in 0..c.unsigned_abs() {
                want.put_u8(u8::from(c < 0));
                want.put_tuple(t);
            }
        }
        prop_assert_eq!(&bytes, &want.finish());
        prop_assert_eq!(Decoder::new(bytes).get_bag().unwrap(), answer);
    }

    /// The structural size is the encoded size, for every variant and
    /// arbitrary query shapes — the invariant `SharedFifo`'s metering
    /// (and so every M/B figure measured over it) rests on.
    #[test]
    fn encoded_len_is_the_encoding_length(m in message()) {
        let bytes = m.encode();
        prop_assert_eq!(m.encoded_len(), bytes.len());
        prop_assert_eq!(Message::decode(bytes).unwrap(), m);
    }

    /// A mixed two-way stream over `SharedFifo` arrives in order per
    /// direction, unchanged, and meters exactly the sum of the
    /// encodings it never produced.
    #[test]
    fn shared_fifo_meters_what_the_codec_would(
        stream in prop::collection::vec((any::<bool>(), message()), 0..24),
    ) {
        let meter = TransferMeter::new();
        let (mut src, mut wh) = SharedFifo::pair(meter.clone());
        let (mut s2w, mut w2s) = (Vec::new(), Vec::new());
        for (to_source, m) in &stream {
            if *to_source {
                wh.send(m).unwrap();
                w2s.push(m.clone());
            } else {
                src.send(m).unwrap();
                s2w.push(m.clone());
            }
        }
        let bytes = |msgs: &[Message]| msgs.iter().map(|m| m.encode().len() as u64).sum::<u64>();
        prop_assert_eq!(meter.bytes_s2w(), bytes(&s2w));
        prop_assert_eq!(meter.bytes_w2s(), bytes(&w2s));
        prop_assert_eq!(meter.messages_s2w(), s2w.len() as u64);
        prop_assert_eq!(meter.messages_w2s(), w2s.len() as u64);
        for (rx, sent) in [(&mut wh, &s2w), (&mut src, &w2s)] {
            for m in sent {
                prop_assert_eq!(&rx.try_recv().unwrap().expect("queued"), m);
            }
            prop_assert!(rx.try_recv().unwrap().is_none());
        }
    }

    /// Every message variant survives encode → frame → unframe → decode —
    /// the exact path `TcpTransport` uses, so a pass here certifies its
    /// wire format.
    #[test]
    fn every_variant_roundtrips_through_framing(
        u in update(),
        id in any::<u64>(),
        answer in bag(),
    ) {
        let query = Message::QueryRequest {
            id: QueryId(id),
            query: WireQuery::from_query(
                &ViewDef::new(
                    "V",
                    vec![Schema::new("r1", &["W", "X"]), Schema::new("r2", &["X", "Y"])],
                    Predicate::col_eq(1, 2),
                    vec![0],
                ).unwrap().as_query(),
            ),
        };
        let msgs = [
            Message::UpdateNotification { update: u },
            Message::QueryAnswer { id: QueryId(id), answer },
            query,
        ];
        // Several frames back-to-back on one stream, like a real session.
        let mut wire = Vec::new();
        for m in &msgs {
            let before = wire.len();
            write_frame(&mut wire, m).unwrap();
            // Framing adds exactly the 4-byte length prefix (unmetered).
            prop_assert_eq!(wire.len() - before, 4 + m.encoded_len());
        }
        let mut reader = wire.as_slice();
        for m in &msgs {
            let frame = read_frame(&mut reader).unwrap().expect("frame present");
            prop_assert_eq!(frame.len(), m.encoded_len());
            prop_assert_eq!(&Message::decode(frame).unwrap(), m);
        }
        // Clean EOF at a frame boundary, not an error.
        prop_assert!(read_frame(&mut reader).unwrap().is_none());
    }

    /// A frame cut mid-payload is an I/O error (truncation), never a
    /// silent `None` and never a panic.
    #[test]
    fn truncated_frames_error_cleanly(u in update(), cut in 1usize..20) {
        let m = Message::UpdateNotification { update: u };
        let mut wire = Vec::new();
        write_frame(&mut wire, &m).unwrap();
        let cut = cut.min(wire.len() - 1);
        let mut reader = &wire[..wire.len() - cut];
        prop_assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn truncations_never_panic(u in update(), cut in 0usize..40) {
        let bytes = Message::UpdateNotification { update: u }.encode();
        let cut = cut.min(bytes.len());
        // Must error or produce a message, never panic.
        let _ = Message::decode(bytes.slice(0..cut));
    }
}

// Compensated multi-term queries round-trip and re-evaluate identically
// after catalog resolution — proptest over the bound tuples.
proptest! {
    #[test]
    fn queries_roundtrip_and_reevaluate(
        t1 in (0i64..5, 0i64..5),
        t2 in (0i64..5, 0i64..5),
        base in prop::collection::vec((0i64..5, 0i64..5), 0..8),
    ) {
        let schemas = vec![Schema::new("r1", &["W", "X"]), Schema::new("r2", &["X", "Y"])];
        let view = ViewDef::new(
            "V",
            schemas.clone(),
            Predicate::col_eq(1, 2).and(Predicate::col_cmp(0, CmpOp::Ge, 3)),
            vec![0],
        ).unwrap();
        let u1 = Update::insert("r2", Tuple::ints([t1.0, t1.1]));
        let u2 = Update::delete("r1", Tuple::ints([t2.0, t2.1]));
        let q = view.substitute(&u2).unwrap()
            .minus(&view.substitute(&u1).unwrap().substitute(&u2));

        let m = Message::QueryRequest { id: QueryId(9), query: WireQuery::from_query(&q) };
        let decoded = Message::decode(m.encode()).unwrap();
        prop_assert_eq!(&decoded, &m);

        let Message::QueryRequest { query, .. } = decoded else { unreachable!() };
        let rebuilt = query.to_query(&schemas).unwrap();

        let mut db = eca_core::BaseDb::new();
        for (a, b) in &base {
            db.insert("r1", Tuple::ints([*a, *b]));
            db.insert("r2", Tuple::ints([*b, *a]));
        }
        prop_assert_eq!(rebuilt.eval(&db).unwrap(), q.eval(&db).unwrap());
    }
}

/// Example 6: `V = π_{W,Z} σ_{W>Z} (r1(W,X) ⋈_X r2(X,Y) ⋈_Y r3(Y,Z))`.
fn example6_view() -> ViewDef {
    ViewDef::new(
        "V",
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
            Schema::new("r3", &["Y", "Z"]),
        ],
        Predicate::col_eq(1, 2)
            .and(Predicate::col_eq(3, 4))
            .and(Predicate::col_cmp(0, CmpOp::Gt, 5)),
        vec![0, 5],
    )
    .unwrap()
}

/// Example 6's three updates, all executed before any query is answered.
fn example6_updates() -> [Update; 3] {
    [
        Update::insert("r1", Tuple::ints([4, 2])),
        Update::insert("r3", Tuple::ints([5, 3])),
        Update::insert("r2", Tuple::ints([2, 5])),
    ]
}

/// Every query `m` emits for Example 6's updates, in order.
fn example6_queries(m: &mut dyn ViewMaintainer) -> Vec<(QueryId, Query)> {
    example6_updates()
        .iter()
        .flat_map(|u| m.on_update(u).unwrap())
        .map(|q| (q.id, q.query))
        .collect()
}

/// [`example6_compensating_query_bytes_are_pinned`]'s message, as hex.
const EXAMPLE6_Q3_HEX: &str = concat!(
    "0100000000000000030003000000027231000000027232000000027233030302",
    "0000000001000000000002020000000003000000000004020000000000040000",
    "0000050002000000000000000500040000000000000001000100000200000000",
    "000000000200000000000000000500ffffffffffffffff010000020000000000",
    "0000000400000000000000000201000002000000000000000002000000000000",
    "00000500ffffffffffffffff0001000002000000000000000002000000000000",
    "0000050100000200000000000000000500000000000000000300000000000000",
    "0101000002000000000000000004000000000000000002010000020000000000",
    "0000000200000000000000000501000002000000000000000005000000000000",
    "000003",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// ECA's third query of Example 6, `Q3 = V⟨U3⟩ − Q1⟨U3⟩ − Q2⟨U3⟩`, is
/// pinned byte for byte: tag, id, the header (relation names, condition,
/// projection), then four terms of factor and atoms.
#[test]
fn example6_compensating_query_bytes_are_pinned() {
    let (id, q3) = example6_queries(&mut Eca::new(example6_view(), SignedBag::new())).remove(2);
    assert_eq!(q3.terms().len(), 4);
    let m = Message::QueryRequest {
        id,
        query: WireQuery::from_query(&q3),
    };
    let bytes = m.encode();
    assert_eq!(hex(&bytes), EXAMPLE6_Q3_HEX);
    assert_eq!(m.encoded_len(), bytes.len());
    assert_eq!(Message::decode(bytes).unwrap(), m);
}

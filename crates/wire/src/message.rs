//! Message types exchanged between source and warehouse (paper Fig. 1.1).

use std::sync::Arc;

use bytes::Bytes;
use eca_core::{Atom, CoreError, Query, QueryHeader, QueryId, Term, ViewDef};
use eca_relational::{
    CmpOp, Operand, Predicate, Schema, Sign, SignedBag, SignedTuple, Update, UpdateKind,
};

use crate::codec::{DecodeError, Decoder, Encoder};

/// A self-contained query as sent over the wire.
///
/// The source does not know the warehouse's view definitions — that is the
/// founding assumption of the paper — so each query carries its view's
/// [`QueryHeader`]: relation list, selection condition and projection.
/// Both halves are shared: the header with every query of the view, the
/// terms with the [`Query`] they came from, so building and cloning a
/// `WireQuery` only counts references. It round-trips with
/// [`eca_core::Query`] via [`WireQuery::from_query`] and
/// [`WireQuery::to_query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireQuery {
    /// The view expression the terms range over.
    pub header: Arc<QueryHeader>,
    /// The sum of terms; the wire carries each term's factor and atoms.
    pub terms: Arc<[Term]>,
}

impl WireQuery {
    /// Convert a core query for transmission, sharing its header and
    /// terms.
    pub fn from_query(query: &Query) -> Self {
        WireQuery {
            header: Arc::clone(query.view().header()),
            terms: Arc::clone(query.shared_terms()),
        }
    }

    /// Rebuild an evaluatable core query by resolving relation names
    /// against the receiver's catalog of schemas. The query shares this
    /// one's terms.
    ///
    /// # Errors
    /// [`CoreError::UnknownRelation`] if a relation is not in the catalog,
    /// and [`ViewDef::check_term`]'s arity errors for a term that does not
    /// fit the resolved view.
    pub fn to_query(&self, catalog: &[Schema]) -> Result<Query, CoreError> {
        let view = ViewDef::resolve("wire", Arc::clone(&self.header), catalog)?;
        for term in self.terms.iter() {
            view.check_term(term)?;
        }
        Ok(Query::from_shared(view, Arc::clone(&self.terms)))
    }
}

/// The §3 consistency level a read client requests, mapped onto the
/// paper's hierarchy (weakest to strongest):
///
/// * [`ReadLevel::Convergent`] — §3's *convergence*: the answer is some
///   published epoch of the view; successive reads may go backwards.
/// * [`ReadLevel::Weak`] — §3's *weak consistency*: every answer is a
///   published epoch and, per client, epochs never regress (the client
///   carries its floor in [`Message::ReadQuery::min_epoch`], so the
///   guarantee survives reconnects).
/// * [`ReadLevel::Strong`] — §3's *strong consistency*: the answer is
///   the latest epoch published while the view's maintainer was
///   quiescent — a state of the §3.1 state history, i.e. `V` evaluated
///   at a real source state, never a mid-compensation intermediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReadLevel {
    /// Any published epoch; no per-client ordering.
    Convergent,
    /// Published epochs, monotonic per client.
    Weak,
    /// Latest quiesced epoch (read-your-latest-epoch).
    Strong,
}

impl ReadLevel {
    /// All levels, weakest first.
    pub fn all() -> [ReadLevel; 3] {
        [ReadLevel::Convergent, ReadLevel::Weak, ReadLevel::Strong]
    }

    /// Stable label for artifacts and logs.
    pub fn label(self) -> &'static str {
        match self {
            ReadLevel::Convergent => "convergent",
            ReadLevel::Weak => "weak",
            ReadLevel::Strong => "strong",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ReadLevel::Convergent => 0,
            ReadLevel::Weak => 1,
            ReadLevel::Strong => 2,
        }
    }

    fn from_u8(tag: u8) -> Result<ReadLevel, DecodeError> {
        Ok(match tag {
            0 => ReadLevel::Convergent,
            1 => ReadLevel::Weak,
            2 => ReadLevel::Strong,
            tag => {
                return Err(DecodeError::BadTag {
                    context: "ReadLevel",
                    tag,
                })
            }
        })
    }
}

/// A message on the source↔warehouse channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Source → warehouse: an update was executed (the `S_up` half).
    UpdateNotification {
        /// The executed update.
        update: Update,
    },
    /// Warehouse → source: evaluate this query (triggers `S_qu`).
    QueryRequest {
        /// Correlation id.
        id: QueryId,
        /// The self-contained query.
        query: WireQuery,
    },
    /// Source → warehouse: the answer relation for a query.
    QueryAnswer {
        /// Correlation id of the answered query.
        id: QueryId,
        /// The signed answer relation.
        answer: SignedBag,
    },
    /// Resume layer, warehouse → source: cumulative acknowledgement —
    /// the warehouse has applied (and, if durable, logged) every update
    /// notification below watermark `next`, so the source may drop them
    /// from its outbox.
    Ack {
        /// The warehouse's session epoch.
        epoch: u64,
        /// The notification watermark acknowledged.
        next: u64,
    },
    /// Session layer: announce an epoch, e.g. when a peer reconnects and
    /// the warehouse opens a fresh session generation.
    Hello {
        /// The announced epoch.
        epoch: u64,
    },
    /// Read client → serve layer: read one view's materialized state at
    /// the requested consistency level.
    ReadQuery {
        /// Correlation id (client-local).
        id: QueryId,
        /// The view's registry index ([`eca_core`]'s `ViewId.0`).
        view: u64,
        /// Requested §3 consistency level.
        level: ReadLevel,
        /// Client-side monotonicity floor: the highest epoch this
        /// client has already observed for this view (0 if none). The
        /// serve layer never answers below it at [`ReadLevel::Weak`],
        /// which keeps per-client monotonicity intact across
        /// disconnects — the floor travels with the client, not the
        /// server.
        min_epoch: u64,
    },
    /// Serve layer → read client: one view snapshot plus epoch metadata.
    ReadAnswer {
        /// Correlation id of the answered read.
        id: QueryId,
        /// The view that was read.
        view: u64,
        /// The epoch of the served snapshot.
        epoch: u64,
        /// The latest epoch published (any view) when the read was
        /// served — `latest - epoch` is the answer's staleness in
        /// epochs.
        latest: u64,
        /// The materialized rows at `epoch`.
        rows: SignedBag,
    },
    /// Serve layer → read client: the read could not be served (unknown
    /// view, or a non-read message arrived on a read channel).
    ReadError {
        /// Correlation id of the failed read (0 when the request could
        /// not be parsed far enough to know).
        id: QueryId,
        /// Human-readable reason.
        reason: String,
    },
}

impl Message {
    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        match self {
            Message::UpdateNotification { update } => {
                e.put_u8(0);
                put_update(&mut e, update);
            }
            Message::QueryRequest { id, query } => {
                e.put_u8(1);
                e.put_u64(id.0);
                put_wire_query(&mut e, query);
            }
            Message::QueryAnswer { id, answer } => {
                e.put_u8(2);
                e.put_u64(id.0);
                e.put_bag(answer);
            }
            Message::Ack { epoch, next } => {
                e.put_u8(4);
                e.put_u64(*epoch);
                e.put_u64(*next);
            }
            Message::Hello { epoch } => {
                e.put_u8(5);
                e.put_u64(*epoch);
            }
            Message::ReadQuery {
                id,
                view,
                level,
                min_epoch,
            } => {
                e.put_u8(6);
                e.put_u64(id.0);
                e.put_u64(*view);
                e.put_u8(level.to_u8());
                e.put_u64(*min_epoch);
            }
            Message::ReadAnswer {
                id,
                view,
                epoch,
                latest,
                rows,
            } => {
                e.put_u8(7);
                e.put_u64(id.0);
                e.put_u64(*view);
                e.put_u64(*epoch);
                e.put_u64(*latest);
                e.put_bag(rows);
            }
            Message::ReadError { id, reason } => {
                e.put_u8(8);
                e.put_u64(id.0);
                e.put_str(reason);
            }
        }
        e.finish()
    }

    /// Decode from bytes.
    ///
    /// # Errors
    /// [`DecodeError`] on malformed input.
    pub fn decode(bytes: Bytes) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let msg = match d.get_u8()? {
            0 => Message::UpdateNotification {
                update: get_update(&mut d)?,
            },
            1 => Message::QueryRequest {
                id: QueryId(d.get_u64()?),
                query: get_wire_query(&mut d)?,
            },
            2 => Message::QueryAnswer {
                id: QueryId(d.get_u64()?),
                answer: d.get_bag()?,
            },
            4 => Message::Ack {
                epoch: d.get_u64()?,
                next: d.get_u64()?,
            },
            5 => Message::Hello {
                epoch: d.get_u64()?,
            },
            6 => Message::ReadQuery {
                id: QueryId(d.get_u64()?),
                view: d.get_u64()?,
                level: ReadLevel::from_u8(d.get_u8()?)?,
                min_epoch: d.get_u64()?,
            },
            7 => Message::ReadAnswer {
                id: QueryId(d.get_u64()?),
                view: d.get_u64()?,
                epoch: d.get_u64()?,
                latest: d.get_u64()?,
                rows: d.get_bag()?,
            },
            8 => Message::ReadError {
                id: QueryId(d.get_u64()?),
                reason: d.get_str()?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    context: "Message",
                    tag,
                })
            }
        };
        if d.remaining() != 0 {
            return Err(DecodeError::BadTag {
                context: "trailing bytes",
                tag: 0xff,
            });
        }
        Ok(msg)
    }

    /// Encoded size in bytes: `self.encode().len()`, summed over the
    /// message's structure without encoding it. In-process transports
    /// meter with this instead of serialising.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Message::UpdateNotification { update } => update_len(update),
            Message::QueryRequest { query, .. } => 8 + wire_query_len(query),
            Message::QueryAnswer { answer, .. } => 8 + answer.encoded_len(),
            Message::Ack { .. } => 2 * 8,
            Message::Hello { .. } => 8,
            Message::ReadQuery { .. } => 3 * 8 + 1,
            Message::ReadAnswer { rows, .. } => 4 * 8 + rows.encoded_len(),
            Message::ReadError { reason, .. } => 8 + 4 + reason.len(),
        }
    }
}

/// Encoded size of [`put_update`]'s output.
fn update_len(u: &Update) -> usize {
    1 + 4 + u.relation.len() + u.tuple.encoded_len()
}

/// Encoded size of [`put_predicate`]'s output.
fn predicate_len(p: &Predicate) -> usize {
    1 + match p {
        Predicate::True | Predicate::False => 0,
        Predicate::Cmp { lhs, rhs, .. } => operand_len(lhs) + 1 + operand_len(rhs),
        Predicate::And(a, b) | Predicate::Or(a, b) => predicate_len(a) + predicate_len(b),
        Predicate::Not(a) => predicate_len(a),
    }
}

/// Encoded size of [`put_operand`]'s output.
fn operand_len(o: &Operand) -> usize {
    1 + match o {
        Operand::Column(_) => 4,
        Operand::Const(v) => 1 + v.encoded_len(),
    }
}

/// Encoded size of [`put_wire_query`]'s output.
fn wire_query_len(q: &WireQuery) -> usize {
    let h = &q.header;
    let relations: usize = h.relations.iter().map(|r| 4 + r.len()).sum();
    let terms: usize = q
        .terms
        .iter()
        .map(|t| {
            8 + t
                .atoms()
                .iter()
                .map(|a| match a {
                    Atom::Rel(_) => 1,
                    Atom::Bound(st) => 2 + st.tuple.encoded_len(),
                })
                .sum::<usize>()
        })
        .sum();
    2 + relations + predicate_len(&h.cond) + 2 + 4 * h.proj.len() + 2 + terms
}

fn put_update(e: &mut Encoder, u: &Update) {
    e.put_u8(match u.kind {
        UpdateKind::Insert => 0,
        UpdateKind::Delete => 1,
    });
    e.put_str(&u.relation);
    e.put_tuple(&u.tuple);
}

fn get_update(d: &mut Decoder) -> Result<Update, DecodeError> {
    let kind = match d.get_u8()? {
        0 => UpdateKind::Insert,
        1 => UpdateKind::Delete,
        tag => {
            return Err(DecodeError::BadTag {
                context: "UpdateKind",
                tag,
            })
        }
    };
    let relation = d.get_str()?;
    let tuple = d.get_tuple()?;
    Ok(Update {
        relation,
        kind,
        tuple,
    })
}

fn put_predicate(e: &mut Encoder, p: &Predicate) {
    match p {
        Predicate::True => e.put_u8(0),
        Predicate::False => e.put_u8(1),
        Predicate::Cmp { lhs, op, rhs } => {
            e.put_u8(2);
            put_operand(e, lhs);
            e.put_u8(match op {
                CmpOp::Eq => 0,
                CmpOp::Ne => 1,
                CmpOp::Lt => 2,
                CmpOp::Le => 3,
                CmpOp::Gt => 4,
                CmpOp::Ge => 5,
            });
            put_operand(e, rhs);
        }
        Predicate::And(a, b) => {
            e.put_u8(3);
            put_predicate(e, a);
            put_predicate(e, b);
        }
        Predicate::Or(a, b) => {
            e.put_u8(4);
            put_predicate(e, a);
            put_predicate(e, b);
        }
        Predicate::Not(a) => {
            e.put_u8(5);
            put_predicate(e, a);
        }
    }
}

fn get_predicate(d: &mut Decoder) -> Result<Predicate, DecodeError> {
    Ok(match d.get_u8()? {
        0 => Predicate::True,
        1 => Predicate::False,
        2 => {
            let lhs = get_operand(d)?;
            let op = match d.get_u8()? {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                5 => CmpOp::Ge,
                tag => {
                    return Err(DecodeError::BadTag {
                        context: "CmpOp",
                        tag,
                    })
                }
            };
            let rhs = get_operand(d)?;
            Predicate::Cmp { lhs, op, rhs }
        }
        3 => Predicate::And(Box::new(get_predicate(d)?), Box::new(get_predicate(d)?)),
        4 => Predicate::Or(Box::new(get_predicate(d)?), Box::new(get_predicate(d)?)),
        5 => Predicate::Not(Box::new(get_predicate(d)?)),
        tag => {
            return Err(DecodeError::BadTag {
                context: "Predicate",
                tag,
            })
        }
    })
}

fn put_operand(e: &mut Encoder, o: &Operand) {
    match o {
        Operand::Column(i) => {
            e.put_u8(0);
            e.put_u32(*i as u32);
        }
        Operand::Const(v) => {
            e.put_u8(1);
            e.put_value(v);
        }
    }
}

fn get_operand(d: &mut Decoder) -> Result<Operand, DecodeError> {
    Ok(match d.get_u8()? {
        0 => Operand::Column(d.get_u32()? as usize),
        1 => Operand::Const(d.get_value()?),
        tag => {
            return Err(DecodeError::BadTag {
                context: "Operand",
                tag,
            })
        }
    })
}

fn put_wire_query(e: &mut Encoder, q: &WireQuery) {
    let h = &q.header;
    e.put_u16(h.relations.len() as u16);
    for r in &h.relations {
        e.put_str(r);
    }
    put_predicate(e, &h.cond);
    e.put_u16(h.proj.len() as u16);
    for &p in &h.proj {
        e.put_u32(p as u32);
    }
    e.put_u16(q.terms.len() as u16);
    for t in q.terms.iter() {
        e.put_i64(t.factor());
        for atom in t.atoms() {
            match atom {
                Atom::Rel(_) => e.put_u8(0),
                Atom::Bound(st) => {
                    e.put_u8(1);
                    e.put_u8(match st.sign {
                        Sign::Plus => 0,
                        Sign::Minus => 1,
                    });
                    e.put_tuple(&st.tuple);
                }
            }
        }
    }
}

fn get_wire_query(d: &mut Decoder) -> Result<WireQuery, DecodeError> {
    let nrel = d.get_u16()? as usize;
    let mut relations = Vec::with_capacity(nrel);
    for _ in 0..nrel {
        relations.push(d.get_str()?);
    }
    let cond = get_predicate(d)?;
    let nproj = d.get_u16()? as usize;
    let mut proj = Vec::with_capacity(nproj);
    for _ in 0..nproj {
        proj.push(d.get_u32()? as usize);
    }
    let nterms = d.get_u16()? as usize;
    let mut terms = Vec::with_capacity(nterms);
    for _ in 0..nterms {
        let factor = d.get_i64()?;
        let mut atoms = Vec::with_capacity(nrel);
        for i in 0..nrel {
            atoms.push(match d.get_u8()? {
                0 => Atom::Rel(i),
                1 => {
                    let sign = match d.get_u8()? {
                        0 => Sign::Plus,
                        1 => Sign::Minus,
                        tag => {
                            return Err(DecodeError::BadTag {
                                context: "Sign",
                                tag,
                            })
                        }
                    };
                    Atom::Bound(SignedTuple {
                        sign,
                        tuple: d.get_tuple()?,
                    })
                }
                tag => {
                    return Err(DecodeError::BadTag {
                        context: "query term atom",
                        tag,
                    })
                }
            });
        }
        terms.push(Term::new(factor, atoms));
    }
    Ok(WireQuery {
        header: Arc::new(QueryHeader {
            relations,
            cond,
            proj,
        }),
        terms: terms.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;

    fn example_view() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn update_notification_roundtrip() {
        for m in [
            Message::UpdateNotification {
                update: Update::insert("r2", Tuple::ints([2, 3])),
            },
            Message::UpdateNotification {
                update: Update::delete("r1", Tuple::ints([1, 2])),
            },
        ] {
            assert_eq!(Message::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn query_request_roundtrip_and_reeval() {
        let view = example_view();
        let u1 = Update::insert("r2", Tuple::ints([2, 3]));
        let u2 = Update::insert("r1", Tuple::ints([4, 2]));
        let q1 = view.substitute(&u1).unwrap();
        let q2 = view.substitute(&u2).unwrap().minus(&q1.substitute(&u2));

        let msg = Message::QueryRequest {
            id: QueryId(7),
            query: WireQuery::from_query(&q2),
        };
        let decoded = Message::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);

        // The source can rebuild and evaluate the query from its catalog.
        let Message::QueryRequest { query, .. } = decoded else {
            unreachable!()
        };
        let catalog = vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
        ];
        let rebuilt = query.to_query(&catalog).unwrap();

        let mut db = eca_core::BaseDb::new();
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r1", Tuple::ints([4, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        assert_eq!(rebuilt.eval(&db).unwrap(), q2.eval(&db).unwrap());
    }

    #[test]
    fn to_query_unknown_relation_errors() {
        let view = example_view();
        let wq = WireQuery::from_query(&view.as_query());
        let catalog = vec![Schema::new("r1", &["W", "X"])];
        assert!(matches!(
            wq.to_query(&catalog),
            Err(CoreError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn answer_roundtrip_preserves_signs() {
        let mut answer = SignedBag::new();
        answer.add(Tuple::ints([1]), 2);
        answer.add(Tuple::ints([4]), -1);
        let m = Message::QueryAnswer {
            id: QueryId(3),
            answer: answer.clone(),
        };
        let decoded = Message::decode(m.encode()).unwrap();
        let Message::QueryAnswer { id, answer: got } = decoded else {
            unreachable!()
        };
        assert_eq!(id, QueryId(3));
        assert_eq!(got, answer);
    }

    #[test]
    fn answer_bytes_scale_with_occurrences() {
        let small = Message::QueryAnswer {
            id: QueryId(1),
            answer: SignedBag::new(),
        };
        let mut bag = SignedBag::new();
        bag.add(Tuple::ints([1, 2]), 10);
        let large = Message::QueryAnswer {
            id: QueryId(1),
            answer: bag,
        };
        assert!(large.encoded_len() > small.encoded_len() + 9 * 20);
    }

    #[test]
    fn complex_predicate_roundtrip() {
        let p = Predicate::col_eq(0, 2)
            .and(Predicate::col_const(1, CmpOp::Gt, 5))
            .or(Predicate::col_cmp(3, CmpOp::Le, 0).not());
        let view = ViewDef::new(
            "V",
            vec![Schema::new("a", &["P", "Q"]), Schema::new("b", &["R", "S"])],
            p,
            vec![0, 3],
        )
        .unwrap();
        let m = Message::QueryRequest {
            id: QueryId(1),
            query: WireQuery::from_query(&view.as_query()),
        };
        assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn session_layer_roundtrips() {
        for m in [
            Message::Ack { epoch: 2, next: 17 },
            Message::Hello { epoch: 9 },
        ] {
            assert_eq!(Message::decode(m.encode()).unwrap(), m);
        }
        // Tags 4 and 5 are pinned: TCP handshake bytes never move.
        assert_eq!(Message::Ack { epoch: 0, next: 0 }.encode()[0], 4);
        assert_eq!(Message::Hello { epoch: 0 }.encode()[0], 5);
    }

    /// Tag 3 once carried a sequenced frame envelope; it now decodes to a
    /// typed error like any unknown tag.
    #[test]
    fn retired_frame_tag_is_a_typed_error() {
        let mut bytes = vec![3u8];
        bytes.extend_from_slice(&[0; 28]);
        assert!(matches!(
            Message::decode(Bytes::from(bytes)),
            Err(DecodeError::BadTag {
                context: "Message",
                tag: 3
            })
        ));
    }

    #[test]
    fn read_messages_roundtrip() {
        let mut rows = SignedBag::new();
        rows.add(Tuple::ints([1, 2]), 2);
        rows.add(Tuple::ints([3, 4]), -1);
        for m in [
            Message::ReadQuery {
                id: QueryId(11),
                view: 3,
                level: ReadLevel::Convergent,
                min_epoch: 0,
            },
            Message::ReadQuery {
                id: QueryId(12),
                view: 0,
                level: ReadLevel::Weak,
                min_epoch: 41,
            },
            Message::ReadQuery {
                id: QueryId(13),
                view: u64::MAX,
                level: ReadLevel::Strong,
                min_epoch: u64::MAX,
            },
            Message::ReadAnswer {
                id: QueryId(11),
                view: 3,
                epoch: 40,
                latest: 45,
                rows,
            },
            Message::ReadAnswer {
                id: QueryId(0),
                view: 0,
                epoch: 0,
                latest: 0,
                rows: SignedBag::new(),
            },
            Message::ReadError {
                id: QueryId(9),
                reason: "unknown view #17".to_owned(),
            },
        ] {
            assert_eq!(Message::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn bad_read_level_rejected() {
        let mut bytes = Message::ReadQuery {
            id: QueryId(1),
            view: 0,
            level: ReadLevel::Strong,
            min_epoch: 0,
        }
        .encode()
        .to_vec();
        // The level byte sits after tag + id + view.
        bytes[17] = 7;
        assert!(Message::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Message::decode(Bytes::from_static(&[9, 9, 9])).is_err());
        assert!(Message::decode(Bytes::new()).is_err());
        // Trailing bytes are rejected.
        let mut bytes = Message::UpdateNotification {
            update: Update::insert("r", Tuple::ints([1])),
        }
        .encode()
        .to_vec();
        bytes.push(0);
        assert!(Message::decode(Bytes::from(bytes)).is_err());
    }
}

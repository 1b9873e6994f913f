//! Wire-level recovery semantics over real TCP sockets: strict answer
//! demux (unknown ids), stale-epoch rejection after a session bump, and
//! the reactor's stall detection that triggers recovery in the first
//! place.

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use eca_core::algorithms::AlgorithmKind;
use eca_core::{CoreError, QueryId, ViewDef};
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{Warehouse, WarehouseError};
use eca_wire::{Message, Role, TcpTransport, TransferMeter, Transport};

fn view2() -> ViewDef {
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

fn build_source() -> Source {
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new("r1", &["W", "X"]), 20, Some("X"), &[])
        .unwrap();
    source
        .add_relation(Schema::new("r2", &["X", "Y"]), 20, Some("X"), &[])
        .unwrap();
    source.load("r1", [Tuple::ints([1, 2])]).unwrap();
    source
}

fn warehouse_over(view: &ViewDef) -> (Warehouse, eca_warehouse::SourceId) {
    let mut wh = Warehouse::new();
    let src = wh.add_source("source");
    let initial = view.eval(&build_source().snapshot()).unwrap();
    wh.add_view(src, AlgorithmKind::Eca.instantiate(view, initial).unwrap())
        .unwrap();
    (wh, src)
}

/// An answer bearing an id the warehouse never issued is rejected by the
/// strict demux before any maintainer state is touched — and the session
/// keeps serving the legitimate protocol afterwards.
#[test]
fn unknown_answer_id_is_rejected_and_session_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let source_thread = thread::spawn(move || {
        let mut source = build_source();
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream, Role::Source, TransferMeter::new()).unwrap();
        // A bogus answer out of nowhere: id 999 was never issued.
        t.send(&Message::QueryAnswer {
            id: QueryId(999),
            answer: SignedBag::from_tuples([Tuple::ints([555])]),
        })
        .unwrap();
        // Then the legitimate protocol: one update, answer its query.
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        assert!(source.execute_update(&u));
        t.send(&Message::UpdateNotification { update: u }).unwrap();
        loop {
            match t.recv().unwrap() {
                Some(Message::QueryRequest { id, query }) => {
                    let answer = source.answer(&query).unwrap();
                    t.send(&Message::QueryAnswer { id, answer }).unwrap();
                }
                Some(other) => panic!("unexpected message at source: {other:?}"),
                None => break,
            }
        }
    });

    let view = view2();
    let (mut wh, src) = warehouse_over(&view);
    let mut t = TcpTransport::connect(addr, Role::Warehouse, TransferMeter::new()).unwrap();

    // First inbound message is the bogus answer: strict rejection.
    let msg = t.recv().unwrap().unwrap();
    assert!(matches!(
        wh.on_message(src, msg),
        Err(WarehouseError::Core(CoreError::UnknownQuery { id: 999 }))
    ));
    // The maintainer was never touched.
    assert_eq!(wh.materialized(eca_warehouse::ViewId(0)).pos_len(), 0);

    // The legitimate exchange still runs to quiescence on the reactor,
    // which hangs the socket up once the source settles.
    let rw = wh.into_reactor(1);
    rw.run(vec![(src, Box::new(t), 1)]).unwrap();
    assert!(rw.is_quiescent());
    assert_eq!(
        rw.materialized(eca_warehouse::ViewId(0)),
        SignedBag::from_tuples([Tuple::ints([1])])
    );
    source_thread.join().unwrap();
}

/// After an epoch bump ([`Warehouse::on_reset`]) the old query id is
/// retired: an answer to it arriving late over the socket is rejected,
/// while the re-issued query's answer lands normally and the view
/// converges.
#[test]
fn stale_epoch_answer_after_bump_is_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let source_thread = thread::spawn(move || {
        let mut source = build_source();
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream, Role::Source, TransferMeter::new()).unwrap();
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        assert!(source.execute_update(&u));
        t.send(&Message::UpdateNotification { update: u }).unwrap();
        // Hold the first (pre-reset) query until the re-issued one
        // arrives, then answer the dead-epoch id *first*.
        let Some(Message::QueryRequest {
            id: old_id,
            query: old_q,
        }) = t.recv().unwrap()
        else {
            panic!("expected the original query");
        };
        let Some(Message::QueryRequest {
            id: new_id,
            query: new_q,
        }) = t.recv().unwrap()
        else {
            panic!("expected the re-issued query");
        };
        assert_ne!(old_id, new_id, "re-issue must use a fresh global id");
        let stale = source.answer(&old_q).unwrap();
        t.send(&Message::QueryAnswer {
            id: old_id,
            answer: stale,
        })
        .unwrap();
        let fresh = source.answer(&new_q).unwrap();
        t.send(&Message::QueryAnswer {
            id: new_id,
            answer: fresh,
        })
        .unwrap();
        // Stay up until the warehouse hangs up.
        while t.recv().unwrap().is_some() {}
    });

    let view = view2();
    let (mut wh, src) = warehouse_over(&view);
    let mut t = TcpTransport::connect(addr, Role::Warehouse, TransferMeter::new()).unwrap();

    // Notification → query under epoch 0.
    let msg = t.recv().unwrap().unwrap();
    assert!(matches!(msg, Message::UpdateNotification { .. }));
    for reply in wh.on_message(src, msg).unwrap() {
        t.send(&reply).unwrap();
    }

    // The channel is declared dead: epoch bumps, the pending query is
    // re-issued under a fresh id on the same socket.
    let reissued = wh.on_reset(src, false).unwrap();
    assert_eq!(reissued.len(), 1);
    assert_eq!(wh.epoch(src), 1);
    for msg in reissued {
        t.send(&msg).unwrap();
    }

    // The stale-epoch answer comes back first and must be rejected
    // without touching the maintainer.
    let stale = t.recv().unwrap().unwrap();
    assert!(matches!(
        wh.on_message(src, stale),
        Err(WarehouseError::Core(CoreError::UnknownQuery { .. }))
    ));
    assert!(!wh.is_quiescent(), "the re-issued query is still pending");

    // The fresh answer lands and the view converges.
    let fresh = t.recv().unwrap().unwrap();
    wh.on_message(src, fresh).unwrap();
    assert!(wh.is_quiescent());
    assert_eq!(
        wh.materialized(eca_warehouse::ViewId(0)),
        &SignedBag::from_tuples([Tuple::ints([1])])
    );
    drop(t);
    source_thread.join().unwrap();
}

/// A source that goes silent with a query outstanding trips the
/// reactor's stall timeout: the run reports `SourceStalled` (the signal
/// to run `on_reset`) instead of blocking forever.
#[test]
fn silent_source_trips_stall_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let source_thread = thread::spawn(move || {
        let mut source = build_source();
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(stream, Role::Source, TransferMeter::new()).unwrap();
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        assert!(source.execute_update(&u));
        t.send(&Message::UpdateNotification { update: u }).unwrap();
        // Receive the query but never answer: hold the socket open until
        // the warehouse gives up and hangs up.
        while t.recv().unwrap().is_some() {}
    });

    let view = view2();
    let (wh, src) = warehouse_over(&view);
    let t = TcpTransport::connect(addr, Role::Warehouse, TransferMeter::new()).unwrap();
    let mut rw = wh.into_reactor(1);
    rw.set_stall_timeout(Duration::from_millis(200));
    let got = rw.run(vec![(src, Box::new(t), 1)]);
    assert!(
        matches!(got, Err(WarehouseError::SourceStalled { source: 0 })),
        "expected SourceStalled, got {got:?}"
    );
    source_thread.join().unwrap();
}

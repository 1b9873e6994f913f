//! TCP loopback smoke tests: the Example 2 scenario over a real socket
//! must reach the same final view — with identical message and byte
//! meters — as the in-memory scheduler, and the listening reactor must
//! cost a fixed number of OS threads. Run by CI as the wire-level
//! counterpart of the golden-trace tests.

use std::net::TcpListener;
use std::sync::{mpsc, Barrier, Mutex, PoisonError};
use std::thread;

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, Tuple, Update};
use eca_sim::{Policy, Simulation};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{connect_source, SourceId, Warehouse};
use eca_wire::{Message, Poller, Role, TcpTransport, TransferMeter, Transport};

/// Runs this file's tests one at a time: one of them counts the
/// process's OS threads.
static SERIAL: Mutex<()> = Mutex::new(());

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

fn script() -> Vec<Update> {
    vec![
        Update::insert("r2", Tuple::ints([2, 3])),
        Update::insert("r1", Tuple::ints([4, 2])),
    ]
}

#[test]
fn example2_over_tcp_matches_in_memory_run() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let view = view2();

    // Reference in-memory run. Source::serve executes its entire script
    // before answering anything — the AllUpdatesFirst interleaving.
    let reference = {
        let source = build_source();
        let initial = view.eval(&source.snapshot()).unwrap();
        let maintainer = AlgorithmKind::Eca.instantiate(&view, initial).unwrap();
        Simulation::new(source, maintainer, script())
            .unwrap()
            .run(Policy::AllUpdatesFirst)
            .unwrap()
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let source_thread = thread::spawn(move || {
        let mut source = build_source();
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream, Role::Source, TransferMeter::new()).unwrap();
        source.serve(&mut transport, &script()).unwrap()
    });

    let meter = TransferMeter::new();
    let mut transport = TcpTransport::connect(addr, Role::Warehouse, meter.clone()).unwrap();
    let mut warehouse = Warehouse::new();
    let src = warehouse.add_source("source");
    let initial = view.eval(&build_source().snapshot()).unwrap();
    let view_id = warehouse
        .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
        .unwrap();

    let mut notifications = 0u64;
    while notifications < reference.notification_messages || !warehouse.is_quiescent() {
        let msg = transport
            .recv()
            .unwrap()
            .expect("source hung up before the warehouse settled");
        if matches!(msg, Message::UpdateNotification { .. }) {
            notifications += 1;
        }
        if let Message::QueryAnswer { answer, .. } = &msg {
            transport.meter().record_answer_payload(
                answer.encoded_len() as u64,
                answer.pos_len() + answer.neg_len(),
            );
        }
        for reply in warehouse.on_message(src, msg).unwrap() {
            transport.send(&reply).unwrap();
        }
    }
    drop(transport); // hang up: ends the source's serve loop
    let stats = source_thread.join().unwrap();

    assert_eq!(warehouse.materialized(view_id), &reference.final_mv);
    assert!(warehouse.is_quiescent());
    assert_eq!(stats.notifications, reference.notification_messages);
    // Framing (the length prefix) is never metered: the wire run reports
    // the paper's M and B identically to the simulator.
    assert_eq!(meter.messages_w2s(), reference.query_messages);
    assert_eq!(
        meter.messages_s2w() - stats.notifications,
        reference.answer_messages
    );
    assert_eq!(meter.answer_bytes(), reference.answer_bytes);
    assert_eq!(meter.bytes_s2w(), reference.bytes_s2w);
    assert_eq!(meter.bytes_w2s(), reference.bytes_w2s);
}

/// Live OS threads of this process.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// The names of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// `run_listener` adds exactly its workers plus the accept loop, however
/// many sources dial in: each worker sleeps in `poll(2)` on its own
/// sockets, and no poller thread exists. The count is read mid-run and
/// again once the pool has stopped, with every thread of the test itself
/// alive at both reads; the `Poller` handle is dropped before the second.
#[test]
fn run_listener_adds_exactly_workers_plus_one_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const SOURCES: usize = 4;
    const WORKERS: usize = 2;
    let view = view2();
    let mut warehouse = Warehouse::new();
    for s in 0..SOURCES {
        let src = warehouse.add_source(format!("s{s}"));
        let initial = view.eval(&build_source().snapshot()).unwrap();
        warehouse
            .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
    }
    let reactor = warehouse.into_reactor(WORKERS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Every dialing thread and the sampler wait here before exiting, so
    // that none of them ends between the two counts.
    let done = Barrier::new(SOURCES + 2);
    let (go, hold) = mpsc::channel::<()>();
    let (baseline, sample) = mpsc::channel::<usize>();
    let expected = vec![script().len() as u64; SOURCES];

    thread::scope(|scope| {
        let mut hold = Some(hold);
        for s in 0..SOURCES {
            let (done, hold) = (&done, hold.take());
            scope.spawn(move || {
                let mut source = build_source();
                let mut link = connect_source(addr, SourceId(s), TransferMeter::new()).unwrap();
                for (i, update) in script().into_iter().enumerate() {
                    // Source 0 holds its last update back until the
                    // sampler has counted, so the run cannot settle first.
                    if i + 1 == script().len() {
                        if let Some(hold) = &hold {
                            hold.recv().unwrap();
                        }
                    }
                    assert!(source.execute_update(&update));
                    link.send(&Message::UpdateNotification { update }).unwrap();
                }
                while let Some(msg) = link.recv().unwrap() {
                    let reply = source.on_message(msg).unwrap();
                    link.send(&reply).unwrap();
                }
                done.wait();
            });
        }
        let done = &done;
        let sampler = scope.spawn(move || {
            let before = sample.recv().unwrap();
            let start = std::time::Instant::now();
            while os_threads() < before + WORKERS + 1
                && start.elapsed() < std::time::Duration::from_secs(5)
            {
                thread::sleep(std::time::Duration::from_millis(1));
            }
            // Let a stray thread, if any, start too.
            thread::sleep(std::time::Duration::from_millis(100));
            let counted = (os_threads(), thread_names());
            go.send(()).unwrap();
            done.wait();
            counted
        });
        baseline.send(os_threads()).unwrap();
        let processed = reactor
            .run_listener(listener, &Poller::new().unwrap(), &expected)
            .unwrap();
        assert!(processed > 0);
        let after = os_threads();
        done.wait();
        let (during, names) = sampler.join().unwrap();
        assert_eq!(
            during - after,
            WORKERS + 1,
            "threads mid-run {during}, after the run {after}; names mid-run {names:?}"
        );
        let named = |want: &str| names.iter().filter(|n| *n == want).count();
        assert_eq!(named("eca-wire-worker"), WORKERS, "{names:?}");
        assert_eq!(named("eca-wire-accept"), 1, "{names:?}");
        assert_eq!(named("eca-wire-poller"), 0, "{names:?}");
    });
}

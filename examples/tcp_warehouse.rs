//! Many TCP sources, one reactor warehouse (paper Figure 1.1, scaled
//! out).
//!
//! ```text
//! cargo run --example tcp_warehouse -- [--sources N] [--workers N]
//! ```
//!
//! Every source site runs on its own thread and dials the warehouse's
//! loopback listener with [`eca_warehouse::connect_source`] — a real
//! framed TCP connection opened with a `Hello` handshake naming its
//! [`eca_warehouse::SourceId`]. The warehouse side is
//! [`eca_warehouse::ReactorWarehouse::run_listener`]: connections are
//! admitted *live* into a running [`eca_wire::StationPool`], each socket
//! owned by one worker, which sleeps in one `poll(2)` over its own
//! sockets and its [`eca_wire::PollWaker`]'s wake socket. However many
//! sources you ask for, the warehouse side stays at `workers + 1 accept
//! loop` OS threads.
//!
//! Each source hosts one two-relation join view; after every script
//! drains, every materialized view is checked against its definition
//! evaluated directly on that source's final base state.

use std::net::TcpListener;

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, Tuple, Update};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{connect_source, SourceId, Warehouse};
use eca_wire::{Message, Poller, TransferMeter, Transport};

fn parse_args() -> (usize, usize) {
    let (mut sources, mut workers) = (8usize, 2usize);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("{name} requires a positive integer");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--sources" => sources = take("--sources"),
            "--workers" => workers = take("--workers"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    (sources, workers)
}

/// One site: two preloaded relations and the join view over them.
fn build_site(s: usize) -> (Source, ViewDef, Vec<Update>) {
    let (r1, r2) = (format!("r{s}_1"), format!("r{s}_2"));
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new(&r1, &["W", "X"]), 20, Some("X"), &[])
        .unwrap();
    source
        .add_relation(Schema::new(&r2, &["X", "Y"]), 20, Some("X"), &[])
        .unwrap();
    source.load(&r1, [Tuple::ints([1, 2])]).unwrap();
    let view = ViewDef::new(
        format!("V{s}"),
        vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
        Predicate::col_eq(1, 2),
        vec![0],
    )
    .unwrap();
    let script = vec![
        Update::insert(&r2, Tuple::ints([2, 3])),
        Update::insert(&r1, Tuple::ints([4, 2])),
        Update::delete(&r1, Tuple::ints([1, 2])),
    ];
    (source, view, script)
}

fn os_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_prefix("Threads:")
                .and_then(|v| v.trim().parse().ok())
        })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n_sources, workers) = parse_args();

    // Warehouse side: register every source and its view, then reshape
    // into the reactor runtime.
    let mut warehouse = Warehouse::new();
    let mut sites = Vec::new();
    let mut view_ids = Vec::new();
    for s in 0..n_sources {
        let (source, view, script) = build_site(s);
        let src = warehouse.add_source(format!("site{s}"));
        let initial = view.eval(&source.snapshot())?;
        view_ids.push(warehouse.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial)?)?);
        sites.push((source, view, script));
    }
    let expected: Vec<u64> = sites
        .iter()
        .map(|(_, _, script)| script.len() as u64)
        .collect();
    let reactor = warehouse.into_reactor(workers);

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let poller = Poller::new()?;
    let meters: Vec<TransferMeter> = (0..n_sources).map(|_| TransferMeter::new()).collect();

    let (processed, finals) = std::thread::scope(|scope| {
        // Source sites: each its own thread, dialing in live — some
        // connect before the reactor even starts accepting (the backlog
        // holds them), the staggered rest land on a running pool.
        for (s, (source, _, script)) in sites.iter_mut().enumerate() {
            let meter = meters[s].clone();
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis((s as u64 % 8) * 3));
                let mut link = connect_source(addr, SourceId(s), meter).unwrap();
                for u in script.iter() {
                    assert!(source.execute_update(u));
                    link.send(&Message::UpdateNotification { update: u.clone() })
                        .unwrap();
                }
                // Answer compensating queries until the warehouse,
                // fully settled, hangs up.
                while let Some(msg) = link.recv().unwrap() {
                    let Message::QueryRequest { id, query } = msg else {
                        panic!("unexpected message at site {s}");
                    };
                    let answer = source.answer(&query).unwrap();
                    link.meter().record_answer_payload(
                        answer.encoded_len() as u64,
                        answer.pos_len() + answer.neg_len(),
                    );
                    link.send(&Message::QueryAnswer { id, answer }).unwrap();
                }
            });
        }
        // Sample the thread count mid-run: the delta over the pre-pool
        // baseline is the warehouse's whole footprint (workers + accept
        // loop), however many sites dial in.
        let sampler = scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            os_threads()
        });
        let before = os_threads();
        let processed = reactor.run_listener(listener, &poller, &expected).unwrap();
        if let (Some(before), Some(during)) = (before, sampler.join().unwrap()) {
            if during > before {
                println!(
                    "OS threads mid-run: {during} — the warehouse runtime added {} \
                     ({} workers + 1 accept loop), \
                     independent of --sources; the {n_sources} source sites are \
                     this demo's own dialing threads",
                    during - before,
                    workers.min(n_sources)
                );
            }
        }
        let finals: Vec<_> = view_ids
            .iter()
            .map(|id| reactor.materialized(*id))
            .collect();
        (processed, finals)
    });

    // Every view must equal its definition evaluated on the final base
    // state of its (autonomous, remote) source.
    for (s, (source, view, _)) in sites.iter().enumerate() {
        assert_eq!(
            finals[s],
            view.eval(&source.snapshot())?,
            "view V{s} diverged"
        );
    }
    let messages: u64 = meters
        .iter()
        .map(|m| m.messages_s2w() + m.messages_w2s())
        .sum();
    let answer_bytes: u64 = meters.iter().map(|m| m.answer_bytes()).sum();
    println!(
        "{n_sources} TCP sources × {workers} reactor workers: {processed} events processed, \
         {messages} messages on the wire, {answer_bytes} answer bytes (paper B)"
    );
    println!("every view converged to its definition on the final base state");
    Ok(())
}

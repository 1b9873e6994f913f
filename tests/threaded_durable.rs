//! Durable + degraded + threaded: the composition the shard state
//! machine makes ordinary and no other test runs.
//!
//! A durable serial warehouse (per-record fsync) with one source's views
//! degraded mid-resync and the other's ECA queries in flight is handed
//! to the reactor (at one worker and at two), driven to quiescence against
//! `Source::serve` peers over `SharedFifo`, then dropped — the crash.
//! A fresh serial warehouse must recover *incrementally* from what the
//! threaded driver logged: the resync installs, the checkpoint it cut
//! at its first quiescent point past the cadence, and the log tail of
//! the round that followed.

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{
    DurabilityConfig, FsyncPolicy, ReactorWarehouse, RecoveryOutcome, SourceId, ViewId, ViewStatus,
    Warehouse,
};
use eca_wire::{Message, SharedFifo, TransferMeter, Transport};

const SOURCES: usize = 2;
/// Checkpoint cadence: round one logs 6 records per channel and ends
/// quiescent (a cut), round two logs fewer than this (a log tail).
const CADENCE: u64 = 4;

fn relation_names(s: usize) -> (String, String) {
    (format!("r{s}_1"), format!("r{s}_2"))
}

fn build_source(s: usize) -> Source {
    let (r1, r2) = relation_names(s);
    let mut source = Source::new(Scenario::Indexed);
    for (r, cols) in [(&r1, ["W", "X"]), (&r2, ["X", "Y"])] {
        source
            .add_relation(Schema::new(r, &cols), 20, Some("X"), &[])
            .unwrap();
    }
    source
        .load(&r1, (0..6).map(|j| Tuple::ints([j, j % 3])))
        .unwrap();
    source
        .load(&r2, (0..6).map(|j| Tuple::ints([j % 3, 100 + j])))
        .unwrap();
    source
}

/// Source 0 hosts two projections of its join, source 1 one: 3 views.
fn build_views(s: usize) -> Vec<ViewDef> {
    let (r1, r2) = relation_names(s);
    [vec![0usize], vec![3]]
        .into_iter()
        .take(2 - s)
        .enumerate()
        .map(|(v, proj)| {
            ViewDef::new(
                format!("V{s}_{v}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                proj,
            )
            .unwrap()
        })
        .collect()
}

/// Four effective updates per source: three for round one, one for
/// round two.
fn build_script(s: usize) -> Vec<Update> {
    let (r1, r2) = relation_names(s);
    vec![
        Update::insert(&r2, Tuple::ints([1, 200])),
        Update::insert(&r1, Tuple::ints([50, 1])),
        Update::delete(&r1, Tuple::ints([0, 0])),
        Update::insert(&r2, Tuple::ints([2, 201])),
    ]
}

/// The deployment shape, built identically before and after the crash.
fn build_warehouse() -> (Warehouse, Vec<Vec<ViewId>>) {
    let mut wh = Warehouse::new();
    let mut ids = Vec::new();
    for s in 0..SOURCES {
        let src = wh.add_source(format!("s{s}"));
        let db = build_source(s).snapshot();
        ids.push(
            build_views(s)
                .iter()
                .map(|view| {
                    let initial = view.eval(&db).unwrap();
                    wh.add_view(src, AlgorithmKind::Eca.instantiate(view, initial).unwrap())
                        .unwrap()
                })
                .collect(),
        );
    }
    (wh, ids)
}

/// One round: every source serves its slice of the script over a fresh
/// link — all notifications first, then every query answered on the
/// final state — with the queries already in flight queued ahead, and
/// the reactor runs until every channel has settled.
fn round(
    reactor: &ReactorWarehouse,
    sources: &mut [Source],
    scripts: [&[Update]; SOURCES],
    in_flight: [Vec<Message>; SOURCES],
) {
    std::thread::scope(|scope| {
        let mut endpoints = Vec::new();
        for ((s, source), queries) in sources.iter_mut().enumerate().zip(in_flight) {
            let (mut src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
            for query in &queries {
                wh_end.send(query).unwrap();
            }
            let script = scripts[s];
            endpoints.push((
                SourceId(s),
                Box::new(wh_end) as Box<dyn Transport + Send>,
                script.len() as u64,
            ));
            scope.spawn(move || source.serve(&mut src_end, script).unwrap());
        }
        reactor.run(endpoints).unwrap();
    });
    assert!(reactor.is_quiescent());
}

fn assert_converged(
    what: &str,
    sources: &[Source],
    ids: &[Vec<ViewId>],
    materialized: impl Fn(ViewId) -> SignedBag,
) {
    for (s, source) in sources.iter().enumerate() {
        let db = source.snapshot();
        for (view, id) in build_views(s).iter().zip(&ids[s]) {
            assert_eq!(
                materialized(*id),
                view.eval(&db).unwrap(),
                "{what}: {}",
                view.name()
            );
        }
    }
}

fn durable_degraded_handoff(workers: usize) {
    let dir = std::env::temp_dir().join(format!(
        "eca-threaded-durable-{workers}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::new(&dir)
        .with_fsync(FsyncPolicy::PerRecord)
        .with_checkpoint_every(CADENCE);

    let (mut wh, ids) = build_warehouse();
    let mut sources: Vec<Source> = (0..SOURCES).map(build_source).collect();
    let scripts: Vec<Vec<Update>> = (0..SOURCES).map(build_script).collect();
    // Quiescent here, so both channels get their baseline checkpoint.
    wh.enable_durability(config.clone()).unwrap();

    // Source 0 restarted: both its views degrade, two resyncs in flight.
    let resyncs = wh.on_reset(SourceId(0), true).unwrap();
    assert_eq!(resyncs.len(), 2);
    assert!(ids[0]
        .iter()
        .all(|id| wh.view_status(*id) == ViewStatus::Degraded));
    // Source 1: its first update is applied serially, leaving an
    // ordinary ECA query in flight.
    assert!(sources[1].execute_update(&scripts[1][0]));
    let eca = wh
        .on_message(
            SourceId(1),
            Message::UpdateNotification {
                update: scripts[1][0].clone(),
            },
        )
        .unwrap();
    assert_eq!(eca.len(), 1);
    assert!(!wh.is_quiescent());

    let reactor = wh.into_reactor(workers);
    round(
        &reactor,
        &mut sources,
        [&scripts[0][..3], &scripts[1][1..3]],
        [resyncs, eca],
    );
    assert_converged("after round one", &sources, &ids, |id| {
        reactor.materialized(id)
    });
    round(
        &reactor,
        &mut sources,
        [&scripts[0][3..], &scripts[1][3..]],
        [Vec::new(), Vec::new()],
    );
    assert_converged("after round two", &sources, &ids, |id| {
        reactor.materialized(id)
    });
    drop(reactor); // the crash: per-record fsync, so nothing is lost

    let (mut wh, ids_again) = build_warehouse();
    assert_eq!(ids, ids_again);
    let outcomes = wh.recover_durability(config).unwrap();
    assert_eq!(outcomes.len(), SOURCES);
    // Round one logged 6 records on each channel (epoch bump + 3 skipped
    // updates + 2 resync installs; 3 updates + 3 answers) and ended
    // quiescent, so the reactor cut a checkpoint there; only
    // round two's update and answers (one per view) are left to replay.
    for (outcome, tail) in outcomes.iter().zip([3u64, 2]) {
        let RecoveryOutcome::Incremental {
            source,
            replayed,
            notifications_seen,
            messages,
        } = outcome
        else {
            panic!("expected incremental recovery, got {outcome:?}");
        };
        assert_eq!(*replayed, tail, "source {}", source.0);
        assert_eq!(*notifications_seen, scripts[source.0].len() as u64);
        assert_eq!(wh.notifications_seen(*source), *notifications_seen);
        assert!(messages.is_empty(), "nothing was in flight at the crash");
    }
    assert!(wh.is_quiescent());
    assert_converged("after recovery", &sources, &ids, |id| {
        wh.materialized(id).clone()
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_degraded_warehouse_survives_the_threaded_drivers() {
    durable_degraded_handoff(1);
    durable_degraded_handoff(2);
}

//! Crashes across the log's zero-filled segments.
//!
//! The write-ahead log grows a `SEGMENT_LEN` segment of zeros at a time
//! and overwrites those zeros in place. A serial durable warehouse is
//! crashed with a zero-padded tail and recovers incrementally; it then
//! keeps logging, resuming in the same file right after its last valid
//! frame, past a segment boundary and across a checkpoint rotation into
//! a log that grows past a boundary of its own; it is crashed again and
//! recovers again. After each crash every view equals its definition on
//! the source's state, and the live log holds nothing but zeros after
//! its last valid frame: no record ever lands after the zeros.

use std::collections::VecDeque;

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_durable::{SourceCheckpoint, Wal, SEGMENT_LEN};
use eca_relational::{Predicate, Schema, Tuple, Update, Value};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{DurabilityConfig, FsyncPolicy, RecoveryOutcome, SourceId, ViewId, Warehouse};
use eca_wire::Message;

/// Records between checkpoints: two per update (its notification and
/// the answer to its one compensating query).
const CADENCE: u64 = 600;
/// Bytes of each inserted tuple's string attribute, so a few hundred
/// updates fill a segment.
const PAYLOAD: usize = 2_000;

fn view() -> ViewDef {
    ViewDef::new(
        "V",
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
        ],
        Predicate::col_eq(1, 2),
        vec![0, 3],
    )
    .unwrap()
}

fn build_source() -> Source {
    let mut source = Source::new(Scenario::Indexed);
    for (r, cols) in [("r1", ["W", "X"]), ("r2", ["X", "Y"])] {
        source
            .add_relation(Schema::new(r, &cols), 20, Some("X"), &[])
            .unwrap();
    }
    source
        .load("r2", (0..4).map(|x| Tuple::ints([x, 100 + x])))
        .unwrap();
    source
}

/// The `i`-th update: an `r1` insert whose long string joins one `r2` row.
fn update(i: i64) -> Update {
    let w = format!("{i:08}").repeat(PAYLOAD / 8);
    Update::insert("r1", Tuple::new([Value::str(w), Value::Int(i % 4)]))
}

/// The deployment over the source's initial state, built identically
/// before and after each crash.
fn build_warehouse() -> (Warehouse, SourceId, ViewId) {
    let mut wh = Warehouse::new();
    let src = wh.add_source("s0");
    let initial = view().eval(&build_source().snapshot()).unwrap();
    let id = wh
        .add_view(
            src,
            AlgorithmKind::Eca.instantiate(&view(), initial).unwrap(),
        )
        .unwrap();
    (wh, src, id)
}

/// Answer `queries` and every query they lead to, on the current state.
fn settle(wh: &mut Warehouse, src: SourceId, source: &mut Source, queries: Vec<Message>) {
    let mut queries = VecDeque::from(queries);
    while let Some(query) = queries.pop_front() {
        let answer = source.on_message(query).unwrap();
        queries.extend(wh.on_message(src, answer).unwrap());
    }
}

/// Run updates `range` serially; returns the notifications sent.
fn run(
    wh: &mut Warehouse,
    src: SourceId,
    source: &mut Source,
    range: std::ops::Range<i64>,
) -> Vec<Update> {
    let mut sent = Vec::new();
    for i in range {
        let u = update(i);
        let note = source
            .on_script_step(&u)
            .expect("every insert is effective");
        sent.push(u);
        let queries = wh.on_message(src, note).unwrap();
        settle(wh, src, source, queries);
    }
    sent
}

fn assert_view_is_its_definition(what: &str, wh: &Warehouse, id: ViewId, source: &Source) {
    assert_eq!(
        *wh.materialized(id),
        view().eval(&source.snapshot()).unwrap(),
        "{what}"
    );
}

/// The live log: whole segments, and zeros only after its last valid
/// frame. Returns its generation, records and segments.
fn inspect_live_log(config: &DurabilityConfig) -> (u64, usize, u64) {
    let gen = SourceCheckpoint::load(&config.checkpoint_path(0))
        .unwrap()
        .expect("a checkpoint is on disk")
        .wal_gen;
    let path = config.wal_path(0, gen);
    let scan = Wal::scan(&path).unwrap();
    assert!(!scan.torn, "a crash leaves zeros, not a torn tail");
    let image = std::fs::read(&path).unwrap();
    assert_eq!(image.len() as u64 % SEGMENT_LEN, 0, "whole segments");
    assert!(
        image[scan.valid_len as usize..].iter().all(|&b| b == 0),
        "nothing but zeros after the last valid frame"
    );
    (gen, scan.records.len(), image.len() as u64 / SEGMENT_LEN)
}

/// Recover a fresh warehouse from `config`, re-send what it never logged
/// and answer what it re-issues. Returns it with the number of records
/// replayed and of notifications re-sent.
fn recover(
    config: &DurabilityConfig,
    source: &mut Source,
    sent: &[Update],
) -> (Warehouse, SourceId, ViewId, u64, usize) {
    let (mut wh, src, id) = build_warehouse();
    let mut outcomes = wh.recover_durability(config.clone()).unwrap();
    assert_eq!(outcomes.len(), 1);
    let RecoveryOutcome::Incremental {
        replayed,
        notifications_seen,
        messages,
        ..
    } = outcomes.remove(0)
    else {
        panic!("expected an incremental recovery");
    };
    // Per-channel FIFO: the re-sent notifications precede the answers to
    // the re-issued queries.
    let mut queries = messages;
    let resend = &sent[notifications_seen as usize..];
    for u in resend {
        queries.extend(
            wh.on_message(src, Message::UpdateNotification { update: u.clone() })
                .unwrap(),
        );
    }
    settle(&mut wh, src, source, queries);
    (wh, src, id, replayed, resend.len())
}

#[test]
fn crashes_across_segments_and_rotations_recover_incrementally() {
    let dir = std::env::temp_dir().join(format!("eca-segment-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurabilityConfig::new(&dir)
        .with_fsync(FsyncPolicy::PerBatch(4))
        .with_checkpoint_every(CADENCE);
    let mut source = build_source();

    // Crash one: 22 records logged, the last 2 never synced, the first
    // segment zero-padded far past them.
    let (mut wh, src, _) = build_warehouse();
    wh.enable_durability(config.clone()).unwrap();
    let mut sent = run(&mut wh, src, &mut source, 0..11);
    drop(wh);
    let (gen, records, segments) = inspect_live_log(&config);
    assert_eq!((records, segments), (20, 1));
    let (mut wh, src, id, replayed, resent) = recover(&config, &mut source, &sent);
    assert_eq!((replayed, resent), (20, 1));
    assert_view_is_its_definition("after crash one", &wh, id, &source);

    // Keep logging in the same file, past its first segment (about 4 KB
    // of records per update): 20 replayed records, the recovery's epoch
    // bump, 270 updates and their answers, less the one not yet synced
    // of the 541 written since the recovery ...
    sent.extend(run(&mut wh, src, &mut source, 11..280));
    assert_eq!(inspect_live_log(&config), (gen, 560, 2));
    // ... through a checkpoint rotation at 600 records, and past the
    // first segment of the next log.
    sent.extend(run(&mut wh, src, &mut source, 280..580));
    let (rotated, records, segments) = inspect_live_log(&config);
    assert_eq!(rotated, gen + 1);
    assert_eq!(segments, 2);
    assert!(!config.wal_path(0, gen).exists(), "the old log is gone");

    // Crash two, and a recovery that replays the whole live log.
    drop(wh);
    let (mut wh, src, id, replayed, resent) = recover(&config, &mut source, &sent);
    assert_eq!(replayed, records as u64);
    assert_view_is_its_definition("after crash two", &wh, id, &source);

    // The recovered log resumes right after its last frame: the replayed
    // records, then the recovery's epoch bump and the re-sent updates with
    // their answers, then ten more updates.
    sent.extend(run(&mut wh, src, &mut source, 580..590));
    wh.sync_durability().unwrap();
    assert_eq!(
        inspect_live_log(&config),
        (rotated, records + 1 + 2 * resent + 20, 2)
    );
    assert_view_is_its_definition("after resuming", &wh, id, &source);
    let _ = std::fs::remove_dir_all(&dir);
}

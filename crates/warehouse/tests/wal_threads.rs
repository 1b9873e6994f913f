//! Each channel's log syncs on a thread of its own. At no point does a
//! durable warehouse run more than one such thread per channel — not
//! across checkpoint rotations, which replace the log, and not after a
//! recovery — and dropping the warehouse leaves none behind.
//!
//! Threads are counted from `/proc/self/status`, so this binary holds a
//! single test: nothing else runs threads beside it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use eca_core::algorithms::AlgorithmKind;
use eca_core::{BaseDb, ViewDef};
use eca_durable::SourceCheckpoint;
use eca_relational::{Predicate, Schema, Tuple, Update};
use eca_warehouse::{DurabilityConfig, FsyncPolicy, SourceId, ViewId, Warehouse};

const SOURCES: usize = 3;

/// The threads of this process.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap();
    line.trim().parse().unwrap()
}

/// Wait until the process is back to `base` threads: a joined thread
/// may still be counted for a moment after `join` returns.
fn settle_to(base: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != base {
        assert!(
            Instant::now() < deadline,
            "{what}: {} threads left over",
            threads() - base
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn view_def() -> ViewDef {
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

fn base_db() -> BaseDb {
    let mut db = BaseDb::new();
    db.register("r1");
    db.register("r2");
    db.insert("r1", Tuple::ints([1, 2]));
    db.insert("r2", Tuple::ints([2, 7]));
    db
}

/// `SOURCES` sources with one ECA view each, all over the same base
/// state.
fn build(db: &BaseDb) -> (Warehouse, Vec<(SourceId, ViewId)>) {
    let mut wh = Warehouse::new();
    let channels = (0..SOURCES)
        .map(|s| {
            let src = wh.add_source(format!("s{s}"));
            let v = view_def();
            let view = wh
                .add_view(
                    src,
                    AlgorithmKind::Eca
                        .instantiate(&v, v.eval(db).unwrap())
                        .unwrap(),
                )
                .unwrap();
            (src, view)
        })
        .collect();
    (wh, channels)
}

/// Apply `rounds` updates on every channel, answering each query at
/// once; after every call the warehouse may run at most one log thread
/// per channel. Returns the most seen at once.
fn drive(
    wh: &mut Warehouse,
    channels: &[(SourceId, ViewId)],
    dbs: &mut [BaseDb],
    rounds: std::ops::Range<i64>,
    base: usize,
) -> usize {
    let mut most = 0;
    let mut sample = || {
        let extra = threads() - base;
        assert!(
            extra <= SOURCES,
            "{extra} log threads for {SOURCES} channels"
        );
        most = most.max(extra);
    };
    for i in rounds {
        for (&(src, _), db) in channels.iter().zip(dbs.iter_mut()) {
            let u = if i % 2 == 0 {
                Update::insert("r1", Tuple::ints([100 + i, 2]))
            } else {
                Update::insert("r2", Tuple::ints([2, 100 + i]))
            };
            db.apply(&u);
            let queries = wh.on_update(src, &u).unwrap();
            sample();
            for q in queries {
                wh.on_answer(src, q.id, q.query.eval(db).unwrap()).unwrap();
                sample();
            }
        }
    }
    most
}

#[test]
fn one_log_thread_per_channel_and_none_after_drop() {
    let base = threads();
    let dir: PathBuf = std::env::temp_dir().join(format!("eca-wal-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig::new(&dir)
        .with_fsync(FsyncPolicy::PerBatch(2))
        .with_checkpoint_every(4);
    let mut dbs = vec![base_db(); SOURCES];

    let (mut wh, channels) = build(&base_db());
    wh.enable_durability(cfg.clone()).unwrap();
    let most = drive(&mut wh, &channels, &mut dbs, 0..12, base);
    assert_eq!(most, SOURCES, "every channel's log ran its thread");
    for s in 0..SOURCES {
        let ckpt = SourceCheckpoint::load(&cfg.checkpoint_path(s))
            .unwrap()
            .unwrap();
        // Generation 1 pairs with the baseline; each rotation adds one.
        assert!(
            ckpt.wal_gen >= 4,
            "source {s}: {} rotations",
            ckpt.wal_gen - 1
        );
    }
    drop(wh);
    settle_to(base, "after the first warehouse");

    let (mut wh, channels) = build(&base_db());
    let outcomes = wh.recover_durability(cfg).unwrap();
    assert!(outcomes.iter().all(|o| o.is_incremental()), "{outcomes:?}");
    assert!(threads() - base <= SOURCES);
    drive(&mut wh, &channels, &mut dbs, 12..18, base);
    for (&(_, view), db) in channels.iter().zip(&dbs) {
        assert_eq!(*wh.materialized(view), view_def().eval(db).unwrap());
    }
    drop(wh);
    settle_to(base, "after the recovered warehouse");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Substrate microbenchmarks: signed-bag algebra, SPJ evaluation, the
//! physical engine's access paths, the wire codec, the in-process
//! channel and one loopback TCP turn through the station pool, a
//! compensating query's path from maintainer to source,
//! epoch publication for read serving, and the write-ahead log's syncs
//! and checkpoint writes.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eca_core::algorithms::Eca;
use eca_core::{ViewDef, ViewMaintainer};
use eca_durable::{FsyncPolicy, SourceCheckpoint, ViewCheckpoint, Wal, WalRecord};
use eca_relational::{Schema, SignedBag, Tuple, Update, Value};
use eca_source::Source;
use eca_storage::{IoMeter, Scenario, StorageEngine, Table};
use eca_warehouse::EpochRegistry;
use eca_wire::{
    Exit, Message, ReadLevel, Role, SharedFifo, StationOwner, StationPool, TcpTransport,
    TransferMeter, Transport, WireQuery,
};
use eca_workload::{Example6, Params};

fn calibrated_db() -> (ViewDef, eca_core::BaseDb) {
    let w = Example6::new(Params::default(), 9);
    let view = Example6::view().expect("static view");
    let mut db = eca_core::BaseDb::for_view(&view);
    for (rel, schema) in Example6::schemas().iter().enumerate() {
        for t in w.base_tuples(rel) {
            db.insert(schema.relation(), t);
        }
    }
    (view, db)
}

/// A view of `n` tuples inserted in scattered order, as a join's output
/// arrives, so chunks are split rather than packed.
fn scattered_tuples(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::ints([(i * 7919) % n, i % 7]))
        .collect()
}

/// `10_000` → `"10k"`.
fn kilo(n: i64) -> String {
    format!("{}k", n / 1_000)
}

fn bench_signed_bags(c: &mut Criterion) {
    let mut group = c.benchmark_group("signed_bag");
    let a: SignedBag = (0..1000).map(|i| Tuple::ints([i, i % 7])).collect();
    let b: SignedBag = (500..1500).map(|i| Tuple::ints([i, i % 5])).collect();
    group.bench_function("plus_1k", |bch| bch.iter(|| a.plus(&b)));
    group.bench_function("minus_1k", |bch| bch.iter(|| a.minus(&b)));
    group.bench_function("negated_1k", |bch| bch.iter(|| a.negated()));
    // What a snapshot costs (epoch publish, history, checkpoint capture,
    // read answer) as the view grows: a clone alone, and a clone, one
    // write to the original and the clone's drop — a changed publish's
    // share of the maintainer's bag.
    for n in [1_000i64, 10_000, 100_000] {
        let mut view: SignedBag = scattered_tuples(n).into_iter().collect();
        group.bench_function(BenchmarkId::new("clone", n), |bch| {
            bch.iter(|| view.clone())
        });
        // One tuple in the middle of the view, inserted and deleted in turn.
        let probe = Tuple::ints([n / 2, -1]);
        let mut delta = 1;
        group.bench_function(BenchmarkId::new("write_after_clone", kilo(n)), |bch| {
            bch.iter(|| {
                let snapshot = view.clone();
                view.add(probe.clone(), delta);
                delta = -delta;
                snapshot
            })
        });
    }
    // The set-up side of the trade: building a large bag from sorted
    // input (decode, evaluation) and from scattered input, and point
    // lookups in it.
    let n = 100_000;
    let sorted: Vec<Tuple> = (0..n).map(|i| Tuple::ints([i, i % 7])).collect();
    let scattered = scattered_tuples(n);
    for (order, tuples) in [("sorted", &sorted), ("scattered", &scattered)] {
        group.bench_function(BenchmarkId::new(format!("build/{order}"), kilo(n)), |bch| {
            bch.iter(|| tuples.iter().cloned().collect::<SignedBag>())
        });
    }
    let mut view: SignedBag = scattered.into_iter().collect();
    // Fresh tuples, so no probe is the very allocation the bag holds.
    let probes = scattered_tuples(n);
    let mut next = 0;
    group.bench_function(BenchmarkId::new("count", kilo(n)), |bch| {
        bch.iter(|| {
            next = (next + 4_099) % probes.len();
            view.count(&probes[next])
        })
    });
    // The `MV ← MV + COLLECT` install: 40 scattered tuples, half already
    // in the view and half new, merged in and then out again in turn, so
    // the view is back where it started after every second call.
    let delta: SignedBag = (0..40)
        .map(|i| Tuple::ints([(i * 2_503) % n, if i % 2 == 0 { i % 7 } else { -1 }]))
        .collect();
    let mut merge_in = true;
    group.bench_function(BenchmarkId::new("merge_delta", kilo(n)), |bch| {
        bch.iter(|| {
            if merge_in {
                view.merge(&delta);
            } else {
                view.merge_negated(&delta);
            }
            merge_in = !merge_in;
        })
    });
    group.finish();
}

fn bench_spj(c: &mut Criterion) {
    let (view, db) = calibrated_db();
    let mut group = c.benchmark_group("spj_eval");
    group.bench_function("full_view_c100", |b| b.iter(|| view.eval(&db).unwrap()));
    let q = view
        .substitute(&Update::insert("r2", Tuple::ints([3, 7])))
        .unwrap();
    group.bench_function("bound_term_c100", |b| b.iter(|| q.eval(&db).unwrap()));
    group.finish();
}

fn bench_physical_engine(c: &mut Criterion) {
    let w = Example6::new(Params::default(), 9);
    let view = Example6::view().expect("static view");
    let mut group = c.benchmark_group("physical_engine");
    for (name, scenario) in [
        ("scenario1", Scenario::Indexed),
        ("scenario2", Scenario::nested_loop_default()),
    ] {
        let mut source = w.build_source(scenario).expect("build");
        let full = WireQuery::from_query(&view.as_query());
        group.bench_function(BenchmarkId::new("recompute", name), |b| {
            b.iter(|| source.answer(&full).unwrap())
        });
        let bound = WireQuery::from_query(
            &view
                .substitute(&Update::insert("r1", Tuple::ints([9, 3])))
                .unwrap(),
        );
        group.bench_function(BenchmarkId::new("bound_probe", name), |b| {
            b.iter(|| source.answer(&bound).unwrap())
        });
    }

    // One compensating query through the evaluator alone: Example 6's
    // updates on r1, r3 and r2 with only the second query pending when
    // the third arrives, so Q3 = V<U3> − Q2<U3> has three terms.
    let mut engine = StorageEngine::new(Scenario::Indexed);
    let k = w.params.tuples_per_block;
    engine
        .create_table(Example6::schemas()[0].clone(), k, Some("X"), &[])
        .unwrap();
    engine
        .create_table(Example6::schemas()[1].clone(), k, Some("X"), &["Y"])
        .unwrap();
    engine
        .create_table(Example6::schemas()[2].clone(), k, Some("Y"), &[])
        .unwrap();
    for (rel, schema) in Example6::schemas().iter().enumerate() {
        engine.load(schema.relation(), w.base_tuples(rel)).unwrap();
    }
    let [u1, u2, u3] = [
        Update::insert("r1", Tuple::ints([4, 2])),
        Update::insert("r3", Tuple::ints([5, 3])),
        Update::insert("r2", Tuple::ints([2, 5])),
    ];
    let q1 = view.substitute(&u1).unwrap();
    let q2 = view.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
    let q3 = view.substitute(&u3).unwrap().minus(&q2.substitute(&u3));
    assert_eq!(q3.terms().len(), 3);
    group.bench_function(BenchmarkId::new("eval_query", "compensating_3term"), |b| {
        b.iter(|| engine.eval_query(&q3).unwrap())
    });

    // The same access paths at the benchmark's scale, where O(n) work per
    // call shows: 10k rows, K = 20, laid out like `maintain_burst`'s r2
    // (clustered on X over 5,000 values, non-clustered index on Y over
    // 2,000).
    const ROWS: i64 = 10_000;
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| Tuple::ints([(i * 7_919) % 5_000, (i * 104_729) % 2_000]))
        .collect();
    let schema = Schema::new("r2", &["X", "Y"]);
    let mut table = Table::new(schema.clone(), 20, Some("X"), &["Y"], IoMeter::new()).unwrap();
    table.load(rows.iter().cloned()).unwrap();
    let mut next = 0;
    // A delete needs a victim, so each iteration deletes one row and
    // puts it back: the table stays at 10k rows.
    group.bench_function(BenchmarkId::new("clustered_delete_reinsert", "10k"), |b| {
        b.iter(|| {
            let victim = &rows[next % rows.len()];
            next += 1;
            assert!(table.delete(victim));
            table.insert(victim.clone()).unwrap();
        })
    });
    group.bench_function(BenchmarkId::new("unclustered_index_lookup", "10k"), |b| {
        b.iter(|| {
            next += 1;
            table
                .index_lookup(1, &Value::Int(next as i64 % 2_000))
                .unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("source_load", "10k"), |b| {
        b.iter(|| {
            let mut source = Source::new(Scenario::Indexed);
            source
                .add_relation(schema.clone(), 20, Some("X"), &["Y"])
                .unwrap();
            source.load("r2", rows.iter().cloned()).unwrap();
            source
        })
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let (view, db) = calibrated_db();
    let answer = view.eval(&db).unwrap();
    let msg = Message::QueryAnswer {
        id: eca_core::QueryId(1),
        answer,
    };
    let encoded = msg.encode();
    let mut group = c.benchmark_group("wire_codec");
    group.bench_function("encode_answer", |b| b.iter(|| msg.encode()));
    group.bench_function("decode_answer", |b| {
        b.iter(|| Message::decode(encoded.clone()).unwrap())
    });
    group.bench_function("encoded_len_answer", |b| b.iter(|| msg.encoded_len()));

    // One in-process hop: a send plus the matching pop, no codec.
    let u1 = Update::insert("r1", Tuple::ints([9, 3]));
    let u2 = Update::delete("r2", Tuple::ints([3, 7]));
    let query = view
        .substitute(&u2)
        .unwrap()
        .minus(&view.substitute(&u1).unwrap().substitute(&u2));
    let hops = [
        ("notification", Message::UpdateNotification { update: u1 }),
        (
            "query",
            Message::QueryRequest {
                id: eca_core::QueryId(2),
                query: WireQuery::from_query(&query),
            },
        ),
        ("answer", msg),
    ];
    let (mut src, mut wh) = SharedFifo::pair(TransferMeter::new());
    for (name, m) in &hops {
        group.bench_function(BenchmarkId::new("shared_fifo_roundtrip", name), |b| {
            b.iter(|| {
                src.send(m).unwrap();
                wh.try_recv().unwrap()
            })
        });
    }
    group.finish();
}

/// A station owner answering every request with `.0` copies of it.
struct Turn(usize);

impl StationOwner for Turn {
    type Key = usize;

    fn handle(&self, _: usize, msg: Message, replies: &mut Vec<Message>) {
        replies.extend(std::iter::repeat(msg).take(self.0));
    }

    fn closed(&self, _: usize, _: Exit) {}

    fn gate(&self, _: &std::net::TcpStream) -> Option<usize> {
        None
    }
}

/// One request/response turn over loopback TCP: a client sends one
/// small notification and a one-worker station pool answers it with one
/// frame or two, the shape of a `tcp_stream` update's two halves.
fn bench_wire_tcp(c: &mut Criterion) {
    let request = Message::UpdateNotification {
        update: Update::insert("r1", Tuple::ints([9, 3])),
    };
    let mut group = c.benchmark_group("wire_tcp");
    for frames in [1, 2] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpTransport::connect(
            listener.local_addr().unwrap(),
            Role::Source,
            TransferMeter::new(),
        )
        .unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
        let stations: Vec<(usize, Box<dyn Transport + Send>)> = vec![(0, Box::new(server))];
        let pool = StationPool::start(Turn(frames), 1, stations).unwrap();
        group.bench_function(BenchmarkId::new("turn", frames), |b| {
            b.iter(|| {
                client.send(&request).unwrap();
                for _ in 0..frames {
                    client.recv().unwrap().unwrap();
                }
            })
        });
        drop(client);
        pool.stop().unwrap();
    }
    group.finish();
}

/// One compensating query's path from the maintainer to the source:
/// ECA's `W_up` with eight queries in `UQS`, the wire form, a copy of the
/// message, and the source answering a query whose header it has
/// resolved before.
fn bench_query_path(c: &mut Criterion) {
    let w = Example6::new(Params::default(), 9);
    let view = Example6::view().expect("static view");
    let mut group = c.benchmark_group("query_path");

    // Updates cycle over r1, r3 and r2 with fresh tuples. Each iteration
    // handles one update and retires the oldest query with an empty
    // answer, so UQS stays at eight.
    let mut eca = Eca::new(view.clone(), SignedBag::new());
    let mut pending = VecDeque::new();
    let mut seq = 0i64;
    let mut next_update = || {
        seq += 1;
        let rel = ["r1", "r3", "r2"][(seq % 3) as usize];
        Update::insert(rel, Tuple::ints([seq % 97, seq % 89]))
    };
    for _ in 0..8 {
        pending.extend(eca.on_update(&next_update()).unwrap());
    }
    group.bench_function("on_update_uqs8", |b| {
        b.iter(|| {
            pending.extend(eca.on_update(&next_update()).unwrap());
            let oldest = pending.pop_front().unwrap();
            eca.on_answer(oldest.id, SignedBag::new()).unwrap()
        })
    });

    let query = pending.pop_back().unwrap().query;
    group.bench_function("from_query", |b| b.iter(|| WireQuery::from_query(&query)));
    let request = Message::QueryRequest {
        id: eca_core::QueryId(1),
        query: WireQuery::from_query(&query),
    };
    group.bench_function("query_request_clone", |b| b.iter(|| request.clone()));

    let mut source = Source::new(Scenario::Indexed);
    let layouts: [(&str, &[&str]); 3] = [("X", &[]), ("X", &["Y"]), ("Y", &[])];
    for (rel, (schema, (clustered, unclustered))) in
        Example6::schemas().into_iter().zip(layouts).enumerate()
    {
        let name = schema.relation().to_owned();
        source
            .add_relation(
                schema,
                w.params.tuples_per_block,
                Some(clustered),
                unclustered,
            )
            .unwrap();
        source.load(&name, w.base_tuples(rel)).unwrap();
    }
    let Message::QueryRequest { query: wire, .. } = &request else {
        unreachable!()
    };
    source.answer(wire).unwrap();
    group.bench_function("source_answer_prepared", |b| {
        b.iter(|| source.answer(wire).unwrap())
    });
    group.finish();
}

/// Epoch publication and registry reads on a 20k-tuple view, and a
/// changed publish at 100k. A publish whose state changed since the last
/// one clones the bag; one whose state did not re-publishes the newest
/// snapshot by reference.
fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    for n in [20_000i64, 100_000] {
        let mut state: SignedBag = scattered_tuples(n).into_iter().collect();
        let registry = EpochRegistry::new([state.clone()], 4);
        // One tuple in the middle of the view, inserted and deleted in turn.
        let probe = Tuple::ints([n / 2, -1]);
        let mut delta = 1;
        group.bench_function(BenchmarkId::new("publish_changed", kilo(n)), |b| {
            b.iter(|| {
                state.add(probe.clone(), delta);
                delta = -delta;
                registry.publish(0, &state, true)
            })
        });
        if n > 20_000 {
            continue;
        }
        group.bench_function("publish_unchanged/20k", |b| {
            b.iter(|| registry.publish(0, &state, true))
        });
        for level in ReadLevel::all() {
            group.bench_function(BenchmarkId::new("read", level.label()), |b| {
                b.iter(|| registry.read(0, level, 0))
            });
        }
    }
    group.finish();
}

/// The log's sync and the checkpoint's write, on the temp directory's
/// file system. `wal_batch32_sync`: 32 records buffered, then one sync,
/// into a `fresh` log (a new file each time, so the sync grows it by its
/// first zero-filled segment) and into a `reused` one (the steady state:
/// the sync overwrites zeros in place, and grows the file only when a
/// batch runs past the segment). `checkpoint_write`: one 100k-tuple view,
/// encoded, checksummed and synced in one pass.
fn bench_durable(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("eca-bench-durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let record = WalRecord::Answer {
        id: 7,
        answer: (0..4).map(|i| Tuple::ints([i, 100 + i])).collect(),
    };
    let batch = |wal: &mut Wal| {
        for _ in 0..32 {
            wal.append(&record).expect("append");
        }
        wal.sync().expect("sync");
    };
    let mut group = c.benchmark_group("durable");
    let fresh = dir.join("fresh.wal");
    group.bench_function(BenchmarkId::new("wal_batch32_sync", "fresh"), |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(&fresh);
            let mut wal = Wal::open(&fresh, FsyncPolicy::OnCheckpoint).expect("open");
            batch(&mut wal);
        })
    });
    let mut reused = Wal::open(dir.join("reused.wal"), FsyncPolicy::OnCheckpoint).expect("open");
    batch(&mut reused);
    group.bench_function(BenchmarkId::new("wal_batch32_sync", "reused"), |b| {
        b.iter(|| batch(&mut reused))
    });
    let checkpoint = SourceCheckpoint {
        epoch: 1,
        next_global_id: 1,
        notifications_applied: 0,
        wal_gen: 1,
        views: vec![ViewCheckpoint {
            mv: scattered_tuples(100_000).into_iter().collect(),
            aux: Vec::new(),
        }],
    };
    let path = dir.join("view.ckpt");
    group.bench_function(BenchmarkId::new("checkpoint_write", "100k"), |b| {
        b.iter(|| checkpoint.write(&path).expect("checkpoint"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_signed_bags, bench_spj, bench_physical_engine, bench_wire_codec,
        bench_wire_tcp, bench_query_path, bench_serving, bench_durable
}
criterion_main!(benches);

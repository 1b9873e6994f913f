//! The per-layer numbers of a traced run.
//!
//! *Direct* numbers come from the spans the harness recorded around its
//! own calls into a layer. *Probe* numbers come from calling a layer's
//! public function here, after the window, on inputs taken from the run:
//! a bare-maintainer pass over a mirror `StorageEngine` for `core` and
//! `storage`, a private registry, WAL and socket pair for the rest.
//! Nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use eca_core::algorithms::AlgorithmKind;
use eca_core::basedb::BaseLookup;
use eca_core::{QueryId, ViewMaintainer};
use eca_durable::{SourceCheckpoint, ViewCheckpoint, Wal, WalRecord};
use eca_relational::{algebra, Predicate, SignedBag, Update};
use eca_serve::ReadServer;
use eca_warehouse::{EpochRegistry, FsyncPolicy};
use eca_wire::{
    FrameDecoder, Message, ReadLevel, Role, TcpTransport, TransferMeter, Transport, WireQuery,
};

use crate::deploy::{Site, SiteSpec};
use crate::phases::{ReadStats, RING_CAP};
use crate::rig::{Meters, Rig};
use crate::stats::median;
use crate::trace::{LayerTime, Trace};
use crate::workloads::durable_recover::{Recovered, FSYNC_BATCH};
use crate::workloads::{Driven, Overhead, Plan, RunOutput};
use crate::Failure;

/// Updates the bare-maintainer pass replays.
const PROBE_UPDATES: u64 = 4_000;

/// Mean µs of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Accumulates the time of calls made one at a time.
#[derive(Default)]
struct Clock {
    ns: u128,
    calls: u64,
}

impl Clock {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Write the trace file, read it back, and aggregate it: the per-layer
/// table rests on the file, not on the recorder's memory.
fn layer_table(
    plan: &Plan,
    trace: &Trace,
    counts: &BTreeMap<String, f64>,
) -> Result<BTreeMap<String, LayerTime>, Failure> {
    std::fs::create_dir_all(crate::OUT_DIR)?;
    let path = Path::new(crate::OUT_DIR).join(format!("trace-{}.json", plan.workload));
    std::fs::write(&path, trace.to_text(counts))?;
    let (back, _) = Trace::from_text(&std::fs::read_to_string(&path)?)
        .ok_or_else(|| Failure::new(format!("{} is not a trace file", path.display())))?;
    Ok(back.layer_times())
}

fn span_mean(table: &BTreeMap<String, LayerTime>, name: &str) -> f64 {
    table.get(name).map_or(0.0, LayerTime::mean_us)
}

/// Counts every maintenance workload reports the same way.
fn count_layers(out: &mut RunOutput, during: &Meters, overhead: Overhead) -> BTreeMap<String, f64> {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.layer(
        "source.queries_per_update",
        per(during.queries, during.updates),
    );
    out.layer("source.terms_per_query", per(during.terms, during.queries));
    out.layer(
        "storage.io_reads_per_query",
        per(during.io_reads, during.queries),
    );
    out.layer(
        "wire.bytes_per_update",
        per(during.wire_bytes, during.updates),
    );
    out.layer("trace.overhead_share", overhead.share);
    out.layer("trace.overhead_spread", overhead.spread);
    BTreeMap::from([
        ("updates".to_owned(), during.updates as f64),
        ("queries".to_owned(), during.queries as f64),
        ("terms".to_owned(), during.terms as f64),
        ("io_reads".to_owned(), during.io_reads as f64),
        ("wire_bytes".to_owned(), during.wire_bytes as f64),
        ("answer_bytes".to_owned(), during.answer_bytes as f64),
    ])
}

/// The part of a settle no layer span covers: the root span's self time.
fn unexplained(out: &mut RunOutput, table: &BTreeMap<String, LayerTime>) {
    let settle = table.get("settle").copied().unwrap_or_default();
    out.layer("unexplained_us", settle.mean_self_us());
    out.layer(
        "unexplained_share",
        if settle.total_ns == 0 {
            0.0
        } else {
            settle.self_ns as f64 / settle.total_ns as f64
        },
    );
}

fn note_calls(out: &mut RunOutput, table: &BTreeMap<String, LayerTime>) {
    for (name, t) in table {
        out.note(&format!("calls.{name}"), t.calls as f64);
    }
}

/// What the bare-maintainer pass measured and kept.
struct Bare {
    /// `core` time one update costs: every view's `on_update` plus the
    /// `on_answer` of each query it causes.
    core_us_per_update: f64,
    notification: Message,
    query: Message,
    answer: Message,
    answers: Vec<SignedBag>,
}

/// Replay the site's update stream from its start against bare ECA
/// maintainers and a mirror `StorageEngine` — no `Source`, no warehouse,
/// no wire — in bursts of `burst`, timing `StorageEngine::apply`,
/// `ViewMaintainer::on_update`, `StorageEngine::eval_query` and
/// `ViewMaintainer::on_answer`.
fn bare_pass(
    out: &mut RunOutput,
    plan: &Plan,
    spec: &SiteSpec,
    burst: usize,
) -> Result<Bare, Failure> {
    let mut engine = spec.engine()?;
    let catalog = spec.catalog();
    let db = spec.source()?.snapshot();
    let mut maintainers = spec
        .views
        .iter()
        .map(|v| Ok(AlgorithmKind::Eca.instantiate(v, v.eval(&db)?)?))
        .collect::<Result<Vec<Box<dyn ViewMaintainer>>, Failure>>()?;
    let mut stream = spec.stream();
    let (mut apply, mut on_update, mut eval, mut on_answer) = (
        Clock::default(),
        Clock::default(),
        Clock::default(),
        Clock::default(),
    );
    let mut kept: Option<(Update, QueryId, WireQuery, SignedBag)> = None;
    let mut answers = Vec::new();
    let mut updates = 0usize;
    let probe_updates = plan.scaled(PROBE_UPDATES, burst as u64) as usize;
    while updates < probe_updates {
        let batch = stream.next_burst(burst);
        let mut pending = Vec::new();
        for u in &batch {
            apply.time(|| engine.apply(u));
            for (v, m) in maintainers.iter_mut().enumerate() {
                for q in on_update.time(|| m.on_update(u))? {
                    pending.push((v, u.clone(), q));
                }
            }
        }
        updates += batch.len();
        for (v, u, q) in pending {
            let wire = WireQuery::from_query(&q.query);
            let rebuilt = wire.to_query(&catalog)?;
            let answer = eval.time(|| engine.eval_query(&rebuilt))?;
            if answers.len() < 256 {
                answers.push(answer.clone());
            }
            if kept.is_none() && answer.distinct_len() >= 2 {
                kept = Some((u, q.id, wire, answer.clone()));
            }
            on_answer.time(|| maintainers[v].on_answer(q.id, answer))?;
        }
    }
    let (update, id, query, answer) =
        kept.ok_or_else(|| Failure::new("the probe pass produced no non-trivial answer"))?;
    out.layer("storage.apply_us", apply.mean_us());
    out.layer("storage.eval_query_us", eval.mean_us());
    out.layer("core.on_update_us", on_update.mean_us());
    out.layer("core.on_answer_us", on_answer.mean_us());
    out.layer(
        "core.queries_per_update",
        eval.calls as f64 / updates as f64,
    );
    out.note("calls.core.on_update", on_update.calls as f64);
    out.note("calls.core.on_answer", on_answer.calls as f64);
    Ok(Bare {
        core_us_per_update: (on_update.ns + on_answer.ns) as f64 / 1e3 / updates as f64,
        notification: Message::UpdateNotification { update },
        query: Message::QueryRequest { id, query },
        answer: Message::QueryAnswer { id, answer },
        answers,
    })
}

/// `Message::encode` and `Message::decode` of one message, mean µs.
/// Freeing a decoded message is a cost of whoever drops it, not of the
/// codec, so results outlive the clock: small ones are kept until the
/// batch is over; a whole-view answer is timed call by call and dropped
/// in between, as a reader drops one before asking for the next (keeping
/// twenty alive would make every decode fault in fresh pages).
fn codec(out: &mut RunOutput, kind: &str, msg: &Message, n: usize) {
    let mut encoded = Vec::with_capacity(n);
    out.layer(
        &format!("wire.encode_us.{kind}"),
        mean_us(n, || encoded.push(black_box(msg).encode())),
    );
    let bytes = msg.encode();
    let decode = || Message::decode(black_box(bytes.clone())).expect("decodes what encode wrote");
    let decode_us = if bytes.len() > 4096 {
        let mut clock = Clock::default();
        for _ in 0..n {
            drop(black_box(clock.time(decode)));
        }
        clock.mean_us()
    } else {
        let mut decoded = Vec::with_capacity(n);
        let us = mean_us(n, || decoded.push(decode()));
        black_box(decoded);
        us
    };
    out.layer(&format!("wire.decode_us.{kind}"), decode_us);
    black_box(encoded);
}

/// The codec on the run's own message kinds, `FrameDecoder` on an answer
/// frame, and a one-frame echo over a loopback `TcpTransport` pair.
fn wire_probes(out: &mut RunOutput, bare: &Bare) -> Result<(), Failure> {
    codec(out, "notification", &bare.notification, 2_000);
    codec(out, "query", &bare.query, 2_000);
    codec(out, "answer", &bare.answer, 2_000);

    let payload = bare.answer.encode();
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload.as_slice());
    let mut decoder = FrameDecoder::new();
    out.layer(
        "wire.frame_decode_us",
        mean_us(2_000, || {
            decoder.extend(black_box(&frame));
            black_box(
                decoder
                    .next_frame()
                    .expect("a whole frame")
                    .expect("a whole frame"),
            );
        }),
    );

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let rtt = std::thread::scope(|scope| -> Result<f64, Failure> {
        let echo = scope.spawn(move || -> Result<(), Failure> {
            let (stream, _) = listener.accept()?;
            let mut peer = TcpTransport::new(stream, Role::Warehouse, TransferMeter::new())?;
            while let Some(msg) = peer.recv()? {
                peer.send(&msg)?;
            }
            Ok(())
        });
        let mut conn = TcpTransport::connect(addr, Role::Source, TransferMeter::new())?;
        let mut failed = false;
        let rtt = mean_us(2_000, || {
            failed |= conn.send(&bare.notification).is_err() || !matches!(conn.recv(), Ok(Some(_)));
        });
        drop(conn);
        echo.join()
            .map_err(|_| Failure::new("the echo thread panicked"))??;
        if failed {
            return Err(Failure::new("the echo probe lost a frame"));
        }
        Ok(rtt)
    })?;
    out.layer("wire.tcp_rtt_us", rtt);
    Ok(())
}

/// `SignedBag::clone` and `merge` on the first view's final state, and
/// `algebra::spj` of one tuple against the relation it joins with.
fn relational_probes(
    out: &mut RunOutput,
    site: &Site,
    view_bag: &SignedBag,
    bare: &Bare,
) -> Result<(), Failure> {
    let ktuples = view_bag.distinct_len().max(1) as f64 / 1e3;
    out.layer(
        "relational.bag_clone_us_per_ktuple",
        mean_us(20, || {
            black_box(black_box(view_bag).clone());
        }) / ktuples,
    );

    let mut target = view_bag.clone();
    let mut merge = Clock::default();
    for answer in &bare.answers {
        merge.time(|| target.merge(answer));
    }
    out.layer("relational.bag_merge_us", merge.mean_us());

    // One tuple of the first view's first relation against the whole of
    // its second: the two-way join a substituted query term asks for.
    let view = &site.spec.views[0];
    let db = site.source.snapshot();
    let empty = SignedBag::new();
    let left = db.bag(view.base()[0].relation()).unwrap_or(&empty);
    let right = db.bag(view.base()[1].relation()).unwrap_or(&empty);
    let tuple = left
        .iter()
        .next()
        .map(|(t, _)| t.clone())
        .ok_or_else(|| Failure::new("the first relation is empty"))?;
    let single = SignedBag::singleton(tuple);
    let inputs = [&single, right];
    let cond = Predicate::col_eq(1, 2);
    out.layer(
        "relational.spj_us",
        mean_us(20, || {
            black_box(algebra::spj(black_box(&inputs), &cond, &[0, 3]).expect("spj"));
        }),
    );
    Ok(())
}

/// What `serial_layers` hands on for the residual.
pub struct Parts {
    /// `Warehouse::on_message` time one update costs (its own event plus
    /// its answers').
    pub on_message_us_per_update: f64,
    pub core_us_per_update: f64,
    /// Maintenance events (update or answer) per update.
    pub events_per_update: f64,
    pub answer: Message,
}

/// Everything a serial workload's traced half yields, plus the probes
/// that make sense for every deployment. `warehouse.residual_us` is left
/// to the caller, which knows what else ran inside `on_message`.
pub fn serial_layers(
    out: &mut RunOutput,
    plan: &Plan,
    rig: &Rig,
    driven: &Driven,
    burst: usize,
) -> Result<Parts, Failure> {
    let counts = count_layers(out, &driven.during, driven.overhead);
    let table = layer_table(plan, &driven.trace, &counts)?;
    note_calls(out, &table);
    for (metric, span) in [
        ("source.execute_update_us", "source.execute_update"),
        ("source.answer_us", "source.answer"),
        ("wire.fifo_send_us", "wire.fifo_send"),
        ("wire.fifo_recv_us", "wire.fifo_recv"),
        (
            "warehouse.on_message_us.update",
            "warehouse.on_message.update",
        ),
        (
            "warehouse.on_message_us.answer",
            "warehouse.on_message.answer",
        ),
        ("settle_mean_us", "settle"),
    ] {
        out.layer(metric, span_mean(&table, span));
    }
    unexplained(out, &table);
    out.layer("warehouse.session_pending_peak", rig.pending_peak as f64);

    let bare = bare_pass(out, plan, &rig.site.spec, burst)?;
    wire_probes(out, &bare)?;
    relational_probes(out, &rig.site, rig.wh.materialized(rig.view_ids[0]), &bare)?;

    let updates = driven.during.updates.max(1) as f64;
    let on_message_ns: u64 = ["warehouse.on_message.update", "warehouse.on_message.answer"]
        .iter()
        .filter_map(|n| table.get(*n))
        .map(|t| t.total_ns)
        .sum();
    Ok(Parts {
        on_message_us_per_update: on_message_ns as f64 / 1e3 / updates,
        core_us_per_update: bare.core_us_per_update,
        events_per_update: 1.0 + driven.during.queries as f64 / updates,
        answer: bare.answer,
    })
}

/// `serve_mixed`: the registry and the responder on the live views, the
/// read path's codec, and what is left of a read once they are taken out.
pub fn serving_layers(
    out: &mut RunOutput,
    rig: &Rig,
    parts: &Parts,
    stats: &ReadStats,
    read_window: std::time::Duration,
    read_trace: &Trace,
) -> Result<(), Failure> {
    let bags: Vec<SignedBag> = rig
        .view_ids
        .iter()
        .map(|v| rig.wh.materialized(*v).clone())
        .collect();
    let registry = Arc::new(EpochRegistry::new(bags.clone(), RING_CAP));
    let (mut publish, mut read, mut respond) =
        (Clock::default(), Clock::default(), Clock::default());
    let server = ReadServer::new(Arc::clone(&registry));
    let mut answer_bytes = 0usize;
    let mut read_answer = None;
    for (v, bag) in bags.iter().enumerate() {
        for _ in 0..20 {
            publish.time(|| registry.publish(v, black_box(bag), true));
            let reply = respond.time(|| {
                server.respond(Message::ReadQuery {
                    id: QueryId(1),
                    view: v as u64,
                    level: ReadLevel::Strong,
                    min_epoch: 0,
                })
            });
            if !matches!(reply, Message::ReadAnswer { .. }) {
                return Err(Failure::new("the read responder refused a known view"));
            }
            read_answer = Some(reply);
        }
        for _ in 0..1_000 {
            black_box(read.time(|| registry.read(v, ReadLevel::Strong, 0)));
        }
        answer_bytes += read_answer.as_ref().map_or(0, Message::encoded_len);
    }
    out.layer("warehouse.publish_us", publish.mean_us());
    out.layer("warehouse.registry_read_us", read.mean_us());
    out.layer("serve.respond_us", respond.mean_us());
    out.layer(
        "serve.answer_bytes",
        answer_bytes as f64 / bags.len() as f64,
    );
    // Every event publishes each view it reached: an update reaches every
    // view over the source, an answer the one that asked.
    let publishes_per_update = bags.len() as f64 + (parts.events_per_update - 1.0);
    out.layer(
        "warehouse.residual_us",
        parts.on_message_us_per_update
            - parts.core_us_per_update
            - publish.mean_us() * publishes_per_update,
    );
    out.note("publishes_per_update", publishes_per_update);

    // The codec on a whole-view answer, averaged over the served views.
    let (mut enc, mut dec) = (0.0, 0.0);
    for (v, bag) in bags.iter().enumerate() {
        let msg = Message::ReadAnswer {
            id: QueryId(1),
            view: v as u64,
            epoch: 1,
            latest: 1,
            rows: bag.clone(),
        };
        let mut probe = RunOutput::default();
        codec(&mut probe, "read_answer", &msg, 20);
        enc += probe.layers["wire.encode_us.read_answer"];
        dec += probe.layers["wire.decode_us.read_answer"];
    }
    let (enc, dec) = (enc / bags.len() as f64, dec / bags.len() as f64);
    out.layer("wire.encode_us.read_answer", enc);
    out.layer("wire.decode_us.read_answer", dec);

    for level in ReadLevel::all() {
        out.layer(
            &format!("serve.staleness_epochs.{}", level.label()),
            stats.mean_staleness(level),
        );
    }
    let reads = read_trace.layer_times();
    out.layer("read_mean_us", span_mean(&reads, "read"));
    out.note(
        "calls.read",
        reads.get("read").map_or(0.0, |t| t.calls as f64),
    );
    out.layer(
        "serve.queue_transport_us",
        stats.samples.lat_us(read_window, 50.0) - respond.mean_us() - enc - dec,
    );
    Ok(())
}

/// `durable_recover`: the log and the checkpoint on a private directory,
/// and what the recoveries reported.
pub fn durable_layers(
    out: &mut RunOutput,
    rig: &Rig,
    parts: &Parts,
    recoveries: &[Recovered],
    disk_bytes_per_update: f64,
    checkpoints_per_update: f64,
    scratch: &Path,
) -> Result<(), Failure> {
    let dir = scratch.join("probe");
    std::fs::create_dir_all(&dir)?;
    let Message::QueryAnswer { id, answer } = &parts.answer else {
        unreachable!("built as an answer");
    };
    let record = WalRecord::Answer {
        id: id.0,
        answer: answer.clone(),
    };

    // Appends under the workload's own flush policy: one in every
    // FSYNC_BATCH pays the flush and the sync.
    let log = dir.join("append.wal");
    let mut wal = Wal::open(&log, FsyncPolicy::PerBatch(FSYNC_BATCH))?;
    let mut append = Clock::default();
    for _ in 0..4_096 {
        append.time(|| wal.append(&record))?;
    }
    out.layer("durable.append_us", append.mean_us());
    wal.sync()?;
    drop(wal);
    out.layer(
        "durable.scan_ms",
        mean_us(5, || {
            black_box(Wal::scan(&log).expect("scan what append wrote"));
        }) / 1e3,
    );

    // The sync alone: a batch buffered without syncing, then flushed.
    let mut wal = Wal::open(dir.join("sync.wal"), FsyncPolicy::OnCheckpoint)?;
    let mut sync = Clock::default();
    for _ in 0..32 {
        for _ in 0..FSYNC_BATCH {
            wal.append(&record)?;
        }
        sync.time(|| wal.sync())?;
    }
    out.layer("durable.sync_us", sync.mean_us());

    let checkpoint = SourceCheckpoint {
        epoch: 0,
        next_global_id: 1,
        notifications_applied: 0,
        wal_gen: 1,
        views: rig
            .view_ids
            .iter()
            .map(|v| ViewCheckpoint {
                mv: rig.wh.materialized(*v).clone(),
                aux: Vec::new(),
            })
            .collect(),
    };
    let path = dir.join("probe.ckpt");
    let mut failed = false;
    let write_us = mean_us(5, || {
        failed |= checkpoint.write(&path).is_err();
    });
    out.layer("durable.checkpoint_write_ms", write_us / 1e3);
    out.layer(
        "durable.checkpoint_bytes",
        std::fs::metadata(&path)?.len() as f64,
    );
    out.layer(
        "durable.checkpoint_load_ms",
        mean_us(5, || {
            failed |= !matches!(SourceCheckpoint::load(&path), Ok(Some(_)));
        }) / 1e3,
    );
    if failed {
        return Err(Failure::new("the checkpoint probe could not write or load"));
    }
    out.layer("durable.disk_bytes_per_update", disk_bytes_per_update);

    out.layer(
        "warehouse.recover_call_ms",
        median(&recoveries.iter().map(|r| r.call_ms).collect::<Vec<_>>()),
    );
    out.layer("warehouse.recovery_replayed", recoveries[0].replayed as f64);
    out.layer("warehouse.recovery_resent", recoveries[0].resent as f64);
    out.layer(
        "warehouse.residual_us",
        parts.on_message_us_per_update
            - parts.core_us_per_update
            - append.mean_us() * parts.events_per_update
            - write_us * checkpoints_per_update,
    );
    Ok(())
}

/// `tcp_stream`: the generators' spans, the same probes on one site, and
/// the reactor's turn as the part of a settle no span covers.
pub fn tcp_layers(
    out: &mut RunOutput,
    plan: &Plan,
    site: &Site,
    view_bag: &SignedBag,
    trace: &Trace,
    during: &Meters,
    overhead: Overhead,
) -> Result<(), Failure> {
    let counts = count_layers(out, during, overhead);
    let table = layer_table(plan, trace, &counts)?;
    note_calls(out, &table);
    for (metric, span) in [
        ("source.execute_update_us", "source.execute_update"),
        ("source.answer_us", "source.answer"),
        ("wire.tcp_send_us", "wire.tcp_send"),
        ("settle_mean_us", "settle"),
    ] {
        out.layer(metric, span_mean(&table, span));
    }
    unexplained(out, &table);
    let bare = bare_pass(out, plan, &site.spec, 1)?;
    wire_probes(out, &bare)?;
    relational_probes(out, site, view_bag, &bare)?;
    Ok(())
}

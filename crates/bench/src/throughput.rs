//! End-to-end throughput harness: serial vs concurrent warehouse runtime.
//!
//! Each scenario deploys M autonomous sources × V ECA views per source ×
//! U scripted updates per source, with a simulated per-block device
//! latency at every source (the paper's cost model is block I/O; the
//! latency turns counted blocks into wall time so throughput observes
//! the waiting the counts imply). Both runtimes speak the same protocol
//! over [`SharedFifo`] links and answer every query on the post-script
//! state, so `M`, `B` and block-read totals are *identical* — the only
//! thing that differs is wall-clock time:
//!
//! * **serial** — the PR-2 status quo: one thread interleaves script
//!   execution, `Warehouse::pump`, and one-at-a-time source answering,
//!   so every block wait is paid sequentially;
//! * **concurrent** — [`eca_warehouse::ConcurrentWarehouse::pump_all`] (a pump thread
//!   per source) against [`Source::serve_pool`] (N answer workers per
//!   source over snapshot reads), overlapping waits across sources and
//!   across outstanding queries.
//!
//! The harness asserts convergence (every view equals its definition
//! evaluated on the final base state) and meter equality between the two
//! runtimes before reporting a single updates/sec number for each.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_source::{serve_fleet, FleetMember, Source};
use eca_storage::Scenario;
use eca_warehouse::{connect_source, SourceId, ViewId, Warehouse};
use eca_wire::{
    read_frame, Message, Poller, Role, SharedFifo, TcpTransport, TransferMeter, Transport,
};

use crate::json::Json;

/// One throughput scenario: M sources × V views × U updates.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputConfig {
    /// Number of autonomous sources (and pump threads).
    pub sources: usize,
    /// ECA views hosted per source.
    pub views_per_source: usize,
    /// Scripted updates per source (insert-only, so all effective).
    pub updates_per_source: usize,
    /// Answer workers per source in the concurrent runtime.
    pub workers: usize,
    /// Simulated device latency per block read at each source.
    pub io_latency: Duration,
}

impl ThroughputConfig {
    /// Total effective updates across all sources.
    pub fn total_updates(&self) -> u64 {
        (self.sources * self.updates_per_source) as u64
    }
}

/// What one runtime did on one scenario.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeResult {
    /// Wall-clock time from first update to full quiescence.
    pub wall: Duration,
    /// Effective updates processed per second of wall time.
    pub updates_per_sec: f64,
    /// Query round-trips (queries sent == answers received).
    pub query_roundtrips: u64,
    /// Total messages in both directions across all links (paper `M`
    /// plus update notifications).
    pub messages: u64,
    /// Total bytes source → warehouse (includes answer payloads).
    pub bytes_s2w: u64,
    /// Answer payload bytes (the paper's `B`).
    pub answer_bytes: u64,
    /// Total source block reads charged to query evaluation.
    pub io_reads: u64,
}

/// Serial and concurrent results for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioResult {
    /// The configuration that was run.
    pub config: ThroughputConfig,
    /// The single-threaded baseline.
    pub serial: RuntimeResult,
    /// The thread-per-source runtime.
    pub concurrent: RuntimeResult,
}

impl ScenarioResult {
    /// Concurrent updates/sec over serial updates/sec.
    pub fn speedup(&self) -> f64 {
        self.concurrent.updates_per_sec / self.serial.updates_per_sec
    }

    /// JSON object for the artifact files.
    pub fn to_json(&self) -> Json {
        let runtime = |r: &RuntimeResult| {
            Json::obj([
                ("wall_seconds", Json::Num(r.wall.as_secs_f64())),
                ("updates_per_sec", Json::Num(r.updates_per_sec)),
                ("query_roundtrips", Json::Int(r.query_roundtrips as i64)),
                ("messages", Json::Int(r.messages as i64)),
                ("bytes_s2w", Json::Int(r.bytes_s2w as i64)),
                ("answer_bytes", Json::Int(r.answer_bytes as i64)),
                ("io_reads", Json::Int(r.io_reads as i64)),
            ])
        };
        Json::obj([
            ("sources", Json::Int(self.config.sources as i64)),
            (
                "views_per_source",
                Json::Int(self.config.views_per_source as i64),
            ),
            (
                "updates_per_source",
                Json::Int(self.config.updates_per_source as i64),
            ),
            ("workers", Json::Int(self.config.workers as i64)),
            (
                "io_latency_us",
                Json::Int(self.config.io_latency.as_micros() as i64),
            ),
            ("serial", runtime(&self.serial)),
            ("concurrent", runtime(&self.concurrent)),
            ("speedup", Json::Num(self.speedup())),
        ])
    }
}

/// Join attribute domain size: every insert joins with a few preloaded
/// rows, so compensating queries return non-trivial answers.
const JOIN_DOMAIN: i64 = 17;
/// Preloaded rows per relation.
const PRELOAD: i64 = 50;

fn relation_names(s: usize) -> (String, String) {
    (format!("t{s}_1"), format!("t{s}_2"))
}

/// A freshly loaded source `s` plus the definitions of its views.
fn build_source(s: usize, cfg: &ThroughputConfig) -> (Source, Vec<ViewDef>) {
    let (r1, r2) = relation_names(s);
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new(&r1, &["W", "X"]), 20, Some("X"), &[])
        .unwrap();
    source
        .add_relation(Schema::new(&r2, &["X", "Y"]), 20, Some("X"), &[])
        .unwrap();
    source
        .load(&r1, (0..PRELOAD).map(|j| Tuple::ints([j, j % JOIN_DOMAIN])))
        .unwrap();
    source
        .load(
            &r2,
            (0..PRELOAD).map(|j| Tuple::ints([j % JOIN_DOMAIN, 3000 + j])),
        )
        .unwrap();
    source.set_io_latency(cfg.io_latency);
    let views = (0..cfg.views_per_source)
        .map(|v| {
            ViewDef::new(
                format!("V{s}_{v}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                vec![0],
            )
            .unwrap()
        })
        .collect();
    (source, views)
}

/// Insert-only script for source `s`: alternating inserts into both
/// relations, always landing in the join domain.
fn build_script(s: usize, cfg: &ThroughputConfig) -> Vec<Update> {
    let (r1, r2) = relation_names(s);
    (0..cfg.updates_per_source as i64)
        .map(|i| {
            if i % 2 == 0 {
                Update::insert(&r1, Tuple::ints([1000 + i, i % JOIN_DOMAIN]))
            } else {
                Update::insert(&r2, Tuple::ints([i % JOIN_DOMAIN, 2000 + i]))
            }
        })
        .collect()
}

/// A full deployment, ready to run: sources, scripts, transports, and a
/// warehouse hosting every view.
struct Deployment {
    sources: Vec<Source>,
    scripts: Vec<Vec<Update>>,
    views: Vec<Vec<ViewDef>>,
    view_ids: Vec<Vec<ViewId>>,
    src_ends: Vec<SharedFifo>,
    wh_ends: Vec<SharedFifo>,
    meters: Vec<TransferMeter>,
    warehouse: Warehouse,
}

fn deploy(cfg: &ThroughputConfig) -> Deployment {
    let mut d = Deployment {
        sources: Vec::new(),
        scripts: Vec::new(),
        views: Vec::new(),
        view_ids: Vec::new(),
        src_ends: Vec::new(),
        wh_ends: Vec::new(),
        meters: Vec::new(),
        warehouse: Warehouse::new(),
    };
    // Throughput runs measure maintenance, not the §3.1 history audit:
    // without this, every event keeps one more snapshot of each MV it
    // reached alive for the whole run.
    d.warehouse.set_record_history(false);
    for s in 0..cfg.sources {
        let (source, views) = build_source(s, cfg);
        let src = d.warehouse.add_source(format!("s{s}"));
        let mut ids = Vec::new();
        for view in &views {
            let initial = view.eval(&source.snapshot()).unwrap();
            let maintainer = AlgorithmKind::Eca.instantiate(view, initial).unwrap();
            ids.push(d.warehouse.add_view(src, maintainer).unwrap());
        }
        let meter = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(meter.clone());
        d.sources.push(source);
        d.scripts.push(build_script(s, cfg));
        d.views.push(views);
        d.view_ids.push(ids);
        d.src_ends.push(src_end);
        d.wh_ends.push(wh_end);
        d.meters.push(meter);
    }
    d
}

/// Collect a [`RuntimeResult`] from a finished deployment's meters.
fn collect(
    cfg: &ThroughputConfig,
    wall: Duration,
    meters: &[TransferMeter],
    sources: &[Source],
) -> RuntimeResult {
    let messages: u64 = meters
        .iter()
        .map(|m| m.messages_s2w() + m.messages_w2s())
        .sum();
    RuntimeResult {
        wall,
        updates_per_sec: cfg.total_updates() as f64 / wall.as_secs_f64(),
        query_roundtrips: meters.iter().map(|m| m.messages_w2s()).sum(),
        messages,
        bytes_s2w: meters.iter().map(|m| m.bytes_s2w()).sum(),
        answer_bytes: meters.iter().map(|m| m.answer_bytes()).sum(),
        io_reads: sources.iter().map(|s| s.io_meter().query_reads()).sum(),
    }
}

/// Check every view against its definition evaluated on the final base
/// state.
fn assert_converged(views: &[Vec<ViewDef>], sources: &[Source], materialized: &[Vec<SignedBag>]) {
    for (s, source) in sources.iter().enumerate() {
        let snapshot = source.snapshot();
        for (v, view) in views[s].iter().enumerate() {
            let expected = view.eval(&snapshot).unwrap();
            assert_eq!(
                materialized[s][v], expected,
                "view V{s}_{v} diverged from its definition"
            );
        }
    }
}

/// Run the serial baseline: one thread does everything, so every block
/// wait at every source is paid sequentially. Updates all execute first
/// (the same AllUpdatesFirst phase structure `Source::serve` imposes),
/// then warehouse pump and source answering alternate until quiescence.
pub fn run_serial(cfg: &ThroughputConfig) -> (RuntimeResult, Vec<Vec<SignedBag>>) {
    let mut d = deploy(cfg);
    let start = Instant::now();
    for s in 0..cfg.sources {
        for u in &d.scripts[s].clone() {
            assert!(d.sources[s].execute_update(u));
            d.src_ends[s]
                .send(&Message::UpdateNotification { update: u.clone() })
                .unwrap();
        }
    }
    loop {
        let mut progress = false;
        for s in 0..cfg.sources {
            let src = SourceId(s);
            progress |= d.warehouse.pump(src, &mut d.wh_ends[s]).unwrap() > 0;
            while let Some(msg) = d.src_ends[s].try_recv().unwrap() {
                let Message::QueryRequest { id, query } = msg else {
                    panic!("unexpected message at source {s}");
                };
                // The warehouse pump records answer payloads on the
                // shared meter; the source side must not double-count.
                let answer = d.sources[s].answer(&query).unwrap();
                d.src_ends[s]
                    .send(&Message::QueryAnswer { id, answer })
                    .unwrap();
                progress = true;
            }
        }
        if !progress && d.warehouse.is_quiescent() {
            break;
        }
    }
    let wall = start.elapsed();
    let materialized: Vec<Vec<SignedBag>> = d
        .view_ids
        .iter()
        .map(|ids| {
            ids.iter()
                .map(|id| d.warehouse.materialized(*id).clone())
                .collect()
        })
        .collect();
    assert_converged(&d.views, &d.sources, &materialized);
    (collect(cfg, wall, &d.meters, &d.sources), materialized)
}

/// Run the concurrent runtime: `Source::serve_pool` per source thread,
/// [`eca_warehouse::ConcurrentWarehouse::pump_all`] on the warehouse
/// side.
pub fn run_concurrent(cfg: &ThroughputConfig) -> (RuntimeResult, Vec<Vec<SignedBag>>) {
    let d = deploy(cfg);
    let cw = d.warehouse.into_concurrent();
    let expected = d.scripts.iter().map(|s| s.len() as u64);
    let endpoints: Vec<(SourceId, Box<dyn Transport + Send>, u64)> = d
        .wh_ends
        .into_iter()
        .zip(expected)
        .enumerate()
        .map(|(s, (t, n))| (SourceId(s), Box::new(t) as Box<dyn Transport + Send>, n))
        .collect();

    let start = Instant::now();
    let sources: Vec<Source> = std::thread::scope(|scope| {
        let handles: Vec<_> = d
            .sources
            .into_iter()
            .zip(d.src_ends)
            .zip(&d.scripts)
            .map(|((mut source, mut src_end), script)| {
                scope.spawn(move || {
                    let stats = source
                        .serve_pool(&mut src_end, script, cfg.workers)
                        .unwrap();
                    assert_eq!(stats.notifications, script.len() as u64);
                    source
                })
            })
            .collect();
        // pump_all returns once every shard settles, dropping the
        // transports — which hangs up the serve_pool loops.
        cw.pump_all(endpoints).unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    assert!(cw.is_quiescent());
    let materialized: Vec<Vec<SignedBag>> = d
        .view_ids
        .iter()
        .map(|ids| ids.iter().map(|id| cw.materialized(*id)).collect())
        .collect();
    assert_converged(&d.views, &sources, &materialized);
    (collect(cfg, wall, &d.meters, &sources), materialized)
}

/// Run one configuration under both runtimes and cross-check them: both
/// must converge to the same views with identical message, byte, and
/// block-read totals (the protocol is deterministic up to scheduling;
/// only wall time may differ).
pub fn run_scenario(cfg: ThroughputConfig) -> ScenarioResult {
    let (serial, serial_views) = run_serial(&cfg);
    let (concurrent, concurrent_views) = run_concurrent(&cfg);
    assert_eq!(serial_views, concurrent_views, "runtimes disagree on views");
    assert_eq!(
        serial.messages, concurrent.messages,
        "message counts differ"
    );
    assert_eq!(serial.bytes_s2w, concurrent.bytes_s2w, "byte counts differ");
    assert_eq!(serial.io_reads, concurrent.io_reads, "block reads differ");
    ScenarioResult {
        config: cfg,
        serial,
        concurrent,
    }
}

/// The default sweep: scale source count at fixed per-source load.
pub fn sweep(smoke: bool, io_latency: Duration, workers: usize) -> Vec<ScenarioResult> {
    let configs: Vec<ThroughputConfig> = if smoke {
        vec![ThroughputConfig {
            sources: 4,
            views_per_source: 2,
            updates_per_source: 30,
            workers: workers.min(4),
            io_latency,
        }]
    } else {
        [1usize, 2, 4, 8]
            .into_iter()
            .map(|sources| ThroughputConfig {
                sources,
                views_per_source: 4,
                updates_per_source: 100,
                workers,
                io_latency,
            })
            .collect()
    };
    configs.into_iter().map(run_scenario).collect()
}

// ---------------------------------------------------------------------
// Scaling sweep: thread-per-source vs reactor at fixed worker count.
// ---------------------------------------------------------------------

/// One scaling point: N sources × V views per source, driven CPU-bound.
///
/// Unlike [`ThroughputConfig`] runs, scaling points use **zero** I/O
/// latency: the serial-vs-concurrent sweep measures overlap of simulated
/// device waits, while this sweep measures *scheduling* — how much wall
/// time the runtime itself burns multiplexing many channels. Both sides
/// face the identical source fleet ([`eca_source::serve_fleet`] on one
/// thread), so the only difference between the two measured runs is the
/// warehouse runtime: one OS thread per source vs a fixed reactor pool.
#[derive(Clone, Copy, Debug)]
pub struct ScalingConfig {
    /// Number of autonomous sources.
    pub sources: usize,
    /// ECA views hosted per source (total views = sources × this).
    pub views_per_source: usize,
    /// Scripted updates per source (insert-only, so all effective).
    pub updates_per_source: usize,
    /// Reactor worker-pool size (the thread-per-source side ignores it
    /// and spawns `sources` pump threads).
    pub workers: usize,
}

impl ScalingConfig {
    /// Total views hosted across the warehouse.
    pub fn total_views(&self) -> usize {
        self.sources * self.views_per_source
    }

    fn as_throughput(&self) -> ThroughputConfig {
        ThroughputConfig {
            sources: self.sources,
            views_per_source: self.views_per_source,
            updates_per_source: self.updates_per_source,
            workers: self.workers,
            io_latency: Duration::ZERO,
        }
    }
}

/// Scaling scenarios preload fewer rows than the serial-vs-concurrent
/// sweep: setup builds `sources × views` relation pairs and the curve
/// measures runtime scheduling, not storage scans.
const SCALING_PRELOAD: i64 = 12;
const SCALING_JOIN_DOMAIN: i64 = 5;

/// A scaling source: `views_per_source` join views over *disjoint*
/// relation pairs, so one update triggers exactly one view's maintainer.
/// Holding per-update maintenance work constant is what makes the curve
/// comparable across points — it isolates how each runtime schedules
/// N mostly-idle channels, which is the thing under test (the shared
/// maintainer code is identical in both runtimes by construction).
fn build_scaling_source(s: usize, cfg: &ScalingConfig) -> (Source, Vec<ViewDef>) {
    let mut source = Source::new(Scenario::Indexed);
    let mut views = Vec::new();
    for v in 0..cfg.views_per_source {
        let (r1, r2) = (format!("u{s}_{v}_1"), format!("u{s}_{v}_2"));
        source
            .add_relation(Schema::new(&r1, &["W", "X"]), 20, Some("X"), &[])
            .unwrap();
        source
            .add_relation(Schema::new(&r2, &["X", "Y"]), 20, Some("X"), &[])
            .unwrap();
        source
            .load(
                &r1,
                (0..SCALING_PRELOAD).map(|j| Tuple::ints([j, j % SCALING_JOIN_DOMAIN])),
            )
            .unwrap();
        source
            .load(
                &r2,
                (0..SCALING_PRELOAD).map(|j| Tuple::ints([j % SCALING_JOIN_DOMAIN, 3000 + j])),
            )
            .unwrap();
        views.push(
            ViewDef::new(
                format!("V{s}_{v}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                vec![0],
            )
            .unwrap(),
        );
    }
    (source, views)
}

/// Insert-only scaling script: update `i` round-robins across the
/// source's view pairs, alternating which side of the join it lands on.
fn build_scaling_script(s: usize, cfg: &ScalingConfig) -> Vec<Update> {
    (0..cfg.updates_per_source as i64)
        .map(|i| {
            let v = i as usize % cfg.views_per_source;
            let (r1, r2) = (format!("u{s}_{v}_1"), format!("u{s}_{v}_2"));
            if i % 2 == 0 {
                Update::insert(&r1, Tuple::ints([1000 + i, i % SCALING_JOIN_DOMAIN]))
            } else {
                Update::insert(&r2, Tuple::ints([i % SCALING_JOIN_DOMAIN, 2000 + i]))
            }
        })
        .collect()
}

/// Deploy a scaling scenario (disjoint view pairs, no simulated I/O
/// latency).
fn deploy_scaling(cfg: &ScalingConfig) -> Deployment {
    let mut d = Deployment {
        sources: Vec::new(),
        scripts: Vec::new(),
        views: Vec::new(),
        view_ids: Vec::new(),
        src_ends: Vec::new(),
        wh_ends: Vec::new(),
        meters: Vec::new(),
        warehouse: Warehouse::new(),
    };
    d.warehouse.set_record_history(false);
    for s in 0..cfg.sources {
        let (source, views) = build_scaling_source(s, cfg);
        let src = d.warehouse.add_source(format!("s{s}"));
        let mut ids = Vec::new();
        for view in &views {
            let initial = view.eval(&source.snapshot()).unwrap();
            let maintainer = AlgorithmKind::Eca.instantiate(view, initial).unwrap();
            ids.push(d.warehouse.add_view(src, maintainer).unwrap());
        }
        let meter = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(meter.clone());
        d.sources.push(source);
        d.scripts.push(build_scaling_script(s, cfg));
        d.views.push(views);
        d.view_ids.push(ids);
        d.src_ends.push(src_end);
        d.wh_ends.push(wh_end);
        d.meters.push(meter);
    }
    d
}

/// Thread-per-source vs reactor results for one scaling point.
#[derive(Clone, Copy, Debug)]
pub struct ScalingResult {
    /// The configuration that was run.
    pub config: ScalingConfig,
    /// One pump thread per source ([`eca_warehouse::ConcurrentWarehouse`]).
    pub threaded: RuntimeResult,
    /// Fixed worker pool ([`eca_warehouse::ReactorWarehouse`]).
    pub reactor: RuntimeResult,
    /// Peak OS thread count observed during the reactor run (loopback-TCP
    /// points only; `None` on the in-memory sweep and on platforms
    /// without `/proc`). The TCP runner asserts this stays bounded by
    /// `workers + poller + listener` — independent of source count.
    pub reactor_peak_threads: Option<usize>,
}

impl ScalingResult {
    /// Reactor updates/sec over thread-per-source updates/sec.
    pub fn speedup(&self) -> f64 {
        self.reactor.updates_per_sec / self.threaded.updates_per_sec
    }

    /// JSON object for the artifact files.
    pub fn to_json(&self) -> Json {
        let runtime = |r: &RuntimeResult| {
            Json::obj([
                ("wall_seconds", Json::Num(r.wall.as_secs_f64())),
                ("updates_per_sec", Json::Num(r.updates_per_sec)),
                ("query_roundtrips", Json::Int(r.query_roundtrips as i64)),
                ("messages", Json::Int(r.messages as i64)),
                ("bytes_s2w", Json::Int(r.bytes_s2w as i64)),
                ("answer_bytes", Json::Int(r.answer_bytes as i64)),
                ("io_reads", Json::Int(r.io_reads as i64)),
            ])
        };
        let mut fields = vec![
            ("sources", Json::Int(self.config.sources as i64)),
            (
                "views_per_source",
                Json::Int(self.config.views_per_source as i64),
            ),
            ("total_views", Json::Int(self.config.total_views() as i64)),
            (
                "updates_per_source",
                Json::Int(self.config.updates_per_source as i64),
            ),
            ("workers", Json::Int(self.config.workers as i64)),
            ("threaded", runtime(&self.threaded)),
            ("reactor", runtime(&self.reactor)),
            ("reactor_speedup", Json::Num(self.speedup())),
        ];
        if let Some(peak) = self.reactor_peak_threads {
            fields.push(("reactor_peak_threads", Json::Int(peak as i64)));
        }
        Json::obj(fields)
    }
}

/// Turn a deployment's source halves into one multiplexed fleet.
fn fleet_of(
    sources: Vec<Source>,
    src_ends: Vec<SharedFifo>,
    scripts: &[Vec<Update>],
) -> Vec<FleetMember> {
    sources
        .into_iter()
        .zip(src_ends)
        .zip(scripts)
        .map(|((source, src_end), script)| FleetMember {
            source,
            transport: Box::new(src_end),
            script: script.clone(),
        })
        .collect()
}

fn endpoints_of(
    wh_ends: Vec<SharedFifo>,
    scripts: &[Vec<Update>],
) -> Vec<(SourceId, Box<dyn Transport + Send>, u64)> {
    wh_ends
        .into_iter()
        .enumerate()
        .map(|(s, t)| {
            (
                SourceId(s),
                Box::new(t) as Box<dyn Transport + Send>,
                scripts[s].len() as u64,
            )
        })
        .collect()
}

/// Thread-per-source side of a scaling point: `pump_all` (one pump
/// thread per source) against the single-threaded source fleet.
pub fn run_threaded_fleet(cfg: &ScalingConfig) -> (RuntimeResult, Vec<Vec<SignedBag>>) {
    let tcfg = cfg.as_throughput();
    let d = deploy_scaling(cfg);
    let cw = d.warehouse.into_concurrent();
    let endpoints = endpoints_of(d.wh_ends, &d.scripts);
    let mut members = fleet_of(d.sources, d.src_ends, &d.scripts);

    let start = Instant::now();
    let members = std::thread::scope(|scope| {
        let fleet = scope.spawn(move || {
            serve_fleet(&mut members).unwrap();
            members
        });
        cw.pump_all(endpoints).unwrap();
        fleet.join().unwrap()
    });
    let wall = start.elapsed();

    assert!(cw.is_quiescent());
    let sources: Vec<Source> = members.into_iter().map(|m| m.source).collect();
    let materialized: Vec<Vec<SignedBag>> = d
        .view_ids
        .iter()
        .map(|ids| ids.iter().map(|id| cw.materialized(*id)).collect())
        .collect();
    assert_converged(&d.views, &sources, &materialized);
    (collect(&tcfg, wall, &d.meters, &sources), materialized)
}

/// Reactor side of a scaling point: a fixed worker pool against the
/// identical single-threaded source fleet.
pub fn run_reactor_fleet(cfg: &ScalingConfig) -> (RuntimeResult, Vec<Vec<SignedBag>>) {
    let tcfg = cfg.as_throughput();
    let d = deploy_scaling(cfg);
    let rw = d.warehouse.into_reactor(cfg.workers);
    let endpoints = endpoints_of(d.wh_ends, &d.scripts);
    let mut members = fleet_of(d.sources, d.src_ends, &d.scripts);

    let start = Instant::now();
    let members = std::thread::scope(|scope| {
        let fleet = scope.spawn(move || {
            serve_fleet(&mut members).unwrap();
            members
        });
        rw.run(endpoints).unwrap();
        fleet.join().unwrap()
    });
    let wall = start.elapsed();

    assert!(rw.is_quiescent());
    let sources: Vec<Source> = members.into_iter().map(|m| m.source).collect();
    let materialized: Vec<Vec<SignedBag>> = d
        .view_ids
        .iter()
        .map(|ids| ids.iter().map(|id| rw.materialized(*id)).collect())
        .collect();
    assert_converged(&d.views, &sources, &materialized);
    (collect(&tcfg, wall, &d.meters, &sources), materialized)
}

/// Per-runtime repetitions at each scaling point; the fastest run wins.
/// Wall times are tens of milliseconds, so a single descheduling blip
/// can swing one run by 2×; min-of-N is the standard antidote.
const SCALING_ITERATIONS: usize = 3;

/// Run one scaling point under both warehouse runtimes (best of
/// `SCALING_ITERATIONS` each) and cross-check: identical views,
/// messages, bytes and block reads — only wall time may differ.
pub fn run_scaling_point(cfg: ScalingConfig) -> ScalingResult {
    let best = |runs: Vec<(RuntimeResult, Vec<Vec<SignedBag>>)>| {
        runs.into_iter()
            .min_by(|a, b| a.0.wall.cmp(&b.0.wall))
            .unwrap()
    };
    let (threaded, threaded_views) = best(
        (0..SCALING_ITERATIONS)
            .map(|_| run_threaded_fleet(&cfg))
            .collect(),
    );
    let (reactor, reactor_views) = best(
        (0..SCALING_ITERATIONS)
            .map(|_| run_reactor_fleet(&cfg))
            .collect(),
    );
    assert_eq!(threaded_views, reactor_views, "runtimes disagree on views");
    assert_eq!(threaded.messages, reactor.messages, "message counts differ");
    assert_eq!(threaded.bytes_s2w, reactor.bytes_s2w, "byte counts differ");
    assert_eq!(threaded.io_reads, reactor.io_reads, "block reads differ");
    ScalingResult {
        config: cfg,
        threaded,
        reactor,
        reactor_peak_threads: None,
    }
}

// ---------------------------------------------------------------------
// Loopback-TCP scaling: the same duel with every link on a real socket.
// ---------------------------------------------------------------------

/// Current OS thread count of this process (`/proc/self/status`); `None`
/// where `/proc` is unavailable.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Thread-per-connection side of a TCP scaling point: the fleet dials
/// in over loopback, the main thread accepts and handshakes every
/// connection up front, and [`eca_warehouse::ConcurrentWarehouse::pump_all`]
/// parks one OS thread per socket in blocking `recv` — the design the
/// reactor replaces.
pub fn run_tcp_threaded_fleet(cfg: &ScalingConfig) -> (RuntimeResult, Vec<Vec<SignedBag>>) {
    let tcfg = cfg.as_throughput();
    let d = deploy_scaling(cfg);
    let cw = d.warehouse.into_concurrent();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let meters: Vec<TransferMeter> = (0..cfg.sources).map(|_| TransferMeter::new()).collect();
    // Source-side poller so the fleet multiplexer is readiness-driven
    // too — both runtimes get the identical client, so the measured
    // difference is purely warehouse-side.
    let src_poller = Poller::new().unwrap();

    let start = Instant::now();
    let members = std::thread::scope(|scope| {
        let sources = d.sources;
        let (scripts, meters, src_poller) = (&d.scripts, &meters, &src_poller);
        let fleet = scope.spawn(move || {
            let mut members: Vec<FleetMember> = sources
                .into_iter()
                .enumerate()
                .map(|(s, source)| FleetMember {
                    source,
                    transport: Box::new({
                        let mut t = connect_source(addr, SourceId(s), meters[s].clone()).unwrap();
                        t.attach_poller(Arc::clone(src_poller));
                        t
                    }),
                    script: scripts[s].clone(),
                })
                .collect();
            serve_fleet(&mut members).unwrap();
            members
        });
        // Accept + handshake every connection, then hand the sockets to
        // pump_all, which spawns its thread per source.
        type Endpoint = (SourceId, Box<dyn Transport + Send>, u64);
        let mut endpoints: Vec<Option<Endpoint>> = (0..cfg.sources).map(|_| None).collect();
        for _ in 0..cfg.sources {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let frame = read_frame(&mut reader).unwrap().expect("handshake EOF");
            let Ok(Message::Hello { epoch }) = Message::decode(frame) else {
                panic!("bad handshake frame");
            };
            let s = epoch as usize;
            let transport =
                TcpTransport::new(stream, Role::Warehouse, TransferMeter::new()).unwrap();
            assert!(
                endpoints[s]
                    .replace((SourceId(s), Box::new(transport), d.scripts[s].len() as u64))
                    .is_none(),
                "duplicate Hello for source {s}"
            );
        }
        cw.pump_all(endpoints.into_iter().map(Option::unwrap).collect())
            .unwrap();
        fleet.join().unwrap()
    });
    let wall = start.elapsed();

    assert!(cw.is_quiescent());
    let sources: Vec<Source> = members.into_iter().map(|m| m.source).collect();
    let materialized: Vec<Vec<SignedBag>> = d
        .view_ids
        .iter()
        .map(|ids| ids.iter().map(|id| cw.materialized(*id)).collect())
        .collect();
    assert_converged(&d.views, &sources, &materialized);
    (collect(&tcfg, wall, &meters, &sources), materialized)
}

/// Reactor side of a TCP scaling point: sources dial a
/// [`eca_warehouse::ReactorWarehouse::run_listener`] endpoint and every
/// socket's readiness is multiplexed by one [`Poller`] thread into a
/// fixed worker pool. Returns the peak OS thread count sampled during
/// the run, after asserting it stays within
/// `workers + poller + listener + harness` — i.e. independent of how
/// many sources connected.
pub fn run_tcp_reactor_fleet(
    cfg: &ScalingConfig,
) -> (RuntimeResult, Vec<Vec<SignedBag>>, Option<usize>) {
    let tcfg = cfg.as_throughput();
    let d = deploy_scaling(cfg);
    let rw = d.warehouse.into_reactor(cfg.workers);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let poller = Poller::new().unwrap();
    let expected: Vec<u64> = d.scripts.iter().map(|s| s.len() as u64).collect();
    let meters: Vec<TransferMeter> = (0..cfg.sources).map(|_| TransferMeter::new()).collect();
    // Mirror of the threaded side's client poller, created *before* the
    // baseline snapshot so its thread is part of the baseline.
    let src_poller = Poller::new().unwrap();
    // Snapshot before spawning anything run-related; both poller
    // threads already exist and are part of the baseline.
    let base_threads = os_thread_count();

    let start = Instant::now();
    let (members, peak) = std::thread::scope(|scope| {
        let sources = d.sources;
        let (scripts, meters, src_poller) = (&d.scripts, &meters, &src_poller);
        let fleet = scope.spawn(move || {
            let mut members: Vec<FleetMember> = sources
                .into_iter()
                .enumerate()
                .map(|(s, source)| FleetMember {
                    source,
                    transport: Box::new({
                        let mut t = connect_source(addr, SourceId(s), meters[s].clone()).unwrap();
                        t.attach_poller(Arc::clone(src_poller));
                        t
                    }),
                    script: scripts[s].clone(),
                })
                .collect();
            serve_fleet(&mut members).unwrap();
            members
        });
        let (rw, listener, poller, expected) = (&rw, listener, &poller, &expected);
        let runner = scope.spawn(move || {
            rw.run_listener(listener, poller, expected).unwrap();
        });
        // This thread is free while the run executes: sample the
        // process-wide thread count to catch the peak.
        let mut peak = base_threads;
        loop {
            if let (Some(p), Some(now)) = (peak, os_thread_count()) {
                peak = Some(p.max(now));
            }
            if runner.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        runner.join().unwrap();
        (fleet.join().unwrap(), peak)
    });
    let wall = start.elapsed();

    // The whole point of the reactor: warehouse-side threads do not grow
    // with source count. Beyond the pre-run baseline the run adds the
    // fleet thread, the run_listener caller, its accept loop and the
    // worker pool — and nothing per source.
    if let (Some(base), Some(peak)) = (base_threads, peak) {
        let allowed = base + cfg.workers.min(cfg.sources) + 3;
        assert!(
            peak <= allowed,
            "reactor TCP run grew to {peak} OS threads (baseline {base}, allowed {allowed}) \
             at {} sources — thread count must not scale with connections",
            cfg.sources
        );
    }

    assert!(rw.is_quiescent());
    let sources: Vec<Source> = members.into_iter().map(|m| m.source).collect();
    let materialized: Vec<Vec<SignedBag>> = d
        .view_ids
        .iter()
        .map(|ids| ids.iter().map(|id| rw.materialized(*id)).collect())
        .collect();
    assert_converged(&d.views, &sources, &materialized);
    (collect(&tcfg, wall, &meters, &sources), materialized, peak)
}

/// Run one loopback-TCP scaling point under both warehouse runtimes
/// (best of `SCALING_ITERATIONS` each) and cross-check observables,
/// exactly like [`run_scaling_point`] but with every link on a socket.
pub fn run_tcp_scaling_point(cfg: ScalingConfig) -> ScalingResult {
    let best = |runs: Vec<(RuntimeResult, Vec<Vec<SignedBag>>)>| {
        runs.into_iter()
            .min_by(|a, b| a.0.wall.cmp(&b.0.wall))
            .unwrap()
    };
    let (threaded, threaded_views) = best(
        (0..SCALING_ITERATIONS)
            .map(|_| run_tcp_threaded_fleet(&cfg))
            .collect(),
    );
    let mut peak = None;
    let (reactor, reactor_views) = best(
        (0..SCALING_ITERATIONS)
            .map(|_| {
                let (result, views, p) = run_tcp_reactor_fleet(&cfg);
                peak = peak.max(p);
                (result, views)
            })
            .collect(),
    );
    assert_eq!(threaded_views, reactor_views, "runtimes disagree on views");
    assert_eq!(threaded.messages, reactor.messages, "message counts differ");
    assert_eq!(threaded.bytes_s2w, reactor.bytes_s2w, "byte counts differ");
    assert_eq!(threaded.io_reads, reactor.io_reads, "block reads differ");
    ScalingResult {
        config: cfg,
        threaded,
        reactor,
        reactor_peak_threads: peak,
    }
}

/// The loopback-TCP scaling sweep. The full sweep charts the curve
/// from 32 to 256 concurrent TCP sources — all multiplexed through one
/// poller thread and a fixed pool on the warehouse side, versus one
/// blocked thread per socket on the baseline. Burst scripts (two
/// updates per source) keep every point in the regime the reactor
/// exists for — many mostly-idle connections — where the baseline pays
/// a full thread lifecycle (spawn, stack, first wake, join) per socket
/// for a handful of events. At the small end thread-per-connection
/// still competes (each socket's kernel wakeup lands directly on its
/// own thread; the reactor pays poller → waker → worker indirection),
/// so the curve includes points near 1.0x by design; the reactor pulls
/// ahead as thread count grows. `smoke` runs only the CI gate point
/// (128 sources), past the crossover, where the reactor's win is
/// robust.
pub fn tcp_scaling_sweep(smoke: bool, workers: usize) -> Vec<ScalingResult> {
    let _ = run_tcp_scaling_point(ScalingConfig {
        sources: 4,
        views_per_source: 2,
        updates_per_source: 2,
        workers,
    });
    let sources_points: &[usize] = if smoke { &[128] } else { &[32, 64, 128, 256] };
    sources_points
        .iter()
        .map(|&sources| {
            run_tcp_scaling_point(ScalingConfig {
                sources,
                views_per_source: 4,
                updates_per_source: 2,
                workers,
            })
        })
        .collect()
}

/// The scaling sweep: sources × views growing to 100 × 1000 at a fixed
/// reactor pool. `smoke` runs only the CI gate point (32 sources).
///
/// A small discarded warm-up point runs first: the first deployment in a
/// process pays one-off costs (heap growth, page faults, lazy init) that
/// would otherwise be charged entirely to whichever runtime happens to
/// run first and swamp the scheduling difference being measured.
pub fn scaling_sweep(smoke: bool, workers: usize) -> Vec<ScalingResult> {
    let _ = run_scaling_point(ScalingConfig {
        sources: 4,
        views_per_source: 2,
        updates_per_source: 10,
        workers,
    });
    let configs: Vec<ScalingConfig> = if smoke {
        // The CI gate point: burst traffic across 32 sources, the
        // regime the reactor exists for.
        vec![ScalingConfig {
            sources: 32,
            views_per_source: 4,
            updates_per_source: 2,
            workers,
        }]
    } else {
        vec![
            // Sustained regime: enough updates per source that shared
            // maintenance work dominates and the runtimes converge.
            ScalingConfig {
                sources: 8,
                views_per_source: 4,
                updates_per_source: 20,
                workers,
            },
            ScalingConfig {
                sources: 32,
                views_per_source: 4,
                updates_per_source: 20,
                workers,
            },
            ScalingConfig {
                sources: 64,
                views_per_source: 8,
                updates_per_source: 2,
                workers,
            },
            // The headline point: 100 sources × 1000 views, sustained.
            ScalingConfig {
                sources: 100,
                views_per_source: 10,
                updates_per_source: 2,
                workers,
            },
            // Burst regime: a short burst per source, so per-thread
            // costs (spawn, first wake, join) dominate — the
            // many-mostly-idle-sources workload a warehouse actually
            // sees, where thread-per-source pays a thread's lifecycle
            // for a handful of events.
            ScalingConfig {
                sources: 32,
                views_per_source: 4,
                updates_per_source: 2,
                workers,
            },
            ScalingConfig {
                sources: 64,
                views_per_source: 8,
                updates_per_source: 2,
                workers,
            },
            // 100 sources × 1000 views, burst.
            ScalingConfig {
                sources: 100,
                views_per_source: 10,
                updates_per_source: 2,
                workers,
            },
            // Far end: traffic sliced ever thinner across ever more
            // sources.
            ScalingConfig {
                sources: 256,
                views_per_source: 4,
                updates_per_source: 5,
                workers,
            },
        ]
    };
    configs.into_iter().map(run_scaling_point).collect()
}

/// The artifact document written to `results/throughput.json` and
/// `BENCH_throughput.json`.
pub fn report(
    results: &[ScenarioResult],
    scaling: &[ScalingResult],
    tcp_scaling: &[ScalingResult],
    selfmaint: Json,
    serving: Json,
    recovery: Json,
) -> Json {
    Json::obj([
        (
            "benchmark",
            Json::str("serial vs concurrent warehouse runtime throughput"),
        ),
        (
            "method",
            Json::str(
                "M sources x V ECA views x U insert updates over SharedFifo links; \
                 per-block simulated device latency at each source; both runtimes \
                 answer on post-script state so M/B/reads are identical and only \
                 wall time differs",
            ),
        ),
        ("scenarios", Json::arr(results.iter().map(|r| r.to_json()))),
        (
            "scaling_method",
            Json::str(
                "thread-per-source (ConcurrentWarehouse) vs fixed worker pool \
                 (ReactorWarehouse) at zero io latency, both fed by one \
                 serve_fleet thread multiplexing every source, so the measured \
                 difference is warehouse-side scheduling alone",
            ),
        ),
        ("scaling", Json::arr(scaling.iter().map(|r| r.to_json()))),
        (
            "tcp_scaling_method",
            Json::str(
                "same duel over loopback TCP: thread-per-connection pump_all \
                 (one blocked OS thread per socket) vs ReactorWarehouse::run_listener \
                 (live accept, one poll(2) thread translating readiness into waker \
                 notifications, fixed worker pool); sources dial in with a Hello \
                 handshake and meters are read source-side; reactor peak OS threads \
                 are sampled from /proc and asserted independent of source count; \
                 thread-per-connection competes at the small end of the curve \
                 (direct kernel wakeups, no poller indirection) and collapses as \
                 thread count grows, so the CI gate sits at 128 sources, past \
                 the crossover",
            ),
        ),
        (
            "tcp_scaling",
            Json::arr(tcp_scaling.iter().map(|r| r.to_json())),
        ),
        ("selfmaint", selfmaint),
        ("serving", serving),
        ("recovery", recovery),
    ])
}

//! Mixed read/write serving bench (DESIGN §14).
//!
//! One serial maintenance loop keeps a warehouse's views fresh from a
//! live update stream while N concurrent [`eca_serve::ReadClient`]s
//! hammer the [`eca_serve::ReadServer`] over [`SharedFifo`] channels —
//! in-process links so the harness can field ≥1000 genuinely concurrent
//! clients without burning a file descriptor per reader (the TCP front
//! end has its own demo and tests; what this bench measures is the
//! serving layer's concurrency story, not the kernel's socket table).
//!
//! Readers are split evenly across the three §3 consistency levels.
//! The harness records:
//!
//! * reads/sec over the whole reading window,
//! * p50/p99 read latency (begin-to-answer, microseconds),
//! * the per-level staleness distribution in epochs (`latest - epoch`
//!   at serve time) — convergent samples the whole published ring, weak
//!   is monotone per client, strong is pinned to the newest quiescent
//!   epoch,
//! * monotonicity violations (client-detected; must be zero),
//!
//! and then replays every *distinct* strong answer against the §3.1
//! state history the warehouse recorded (`Warehouse::view_states`):
//! every strong snapshot must be a state the view actually passed
//! through — strong reads are never invented states.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_serve::{ReadClient, ReadServer, ServeError};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{SourceId, ViewId, Warehouse};
use eca_wire::{Message, ReadLevel, SharedFifo, TransferMeter, Transport};

use crate::json::Json;

/// Rows preloaded into each base relation.
const PRELOAD: i64 = 30;
/// Join-column domain: small, so every insert touches the views.
const JOIN_DOMAIN: i64 = 6;

/// One mixed-workload serving scenario.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Concurrent read clients (each its own channel + floors).
    pub readers: usize,
    /// Driver threads multiplexing the clients.
    pub reader_threads: usize,
    /// Server worker threads draining request channels.
    pub server_workers: usize,
    /// Reads each client completes.
    pub reads_per_reader: u64,
    /// Length of the live update stream maintained concurrently.
    pub updates: u64,
    /// Views maintained (all over one source).
    pub views: usize,
    /// Epoch-ring capacity per view (the convergent staleness window).
    pub ring_cap: usize,
}

impl ServingConfig {
    /// The full-artifact configuration: ≥1000 concurrent readers.
    pub fn full() -> ServingConfig {
        ServingConfig {
            readers: 1000,
            reader_threads: 8,
            server_workers: 4,
            reads_per_reader: 30,
            updates: 200,
            views: 2,
            ring_cap: 8,
        }
    }

    /// The CI smoke configuration: same shape, minutes → seconds.
    pub fn smoke() -> ServingConfig {
        ServingConfig {
            readers: 64,
            reader_threads: 4,
            server_workers: 2,
            reads_per_reader: 10,
            updates: 40,
            views: 2,
            ring_cap: 8,
        }
    }

    /// Total reads the run will complete.
    pub fn total_reads(&self) -> u64 {
        self.readers as u64 * self.reads_per_reader
    }
}

/// What one run measured.
pub struct ServingResult {
    /// The configuration measured.
    pub config: ServingConfig,
    /// Wall time of the reading window.
    pub read_wall: Duration,
    /// Reads completed (== `config.total_reads()`).
    pub reads: u64,
    /// Reads per second over the reading window.
    pub reads_per_sec: f64,
    /// Median read latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile read latency, microseconds.
    pub p99_us: u64,
    /// Per-level `(reads, staleness histogram)`, indexed by
    /// [`level_ix`].
    pub levels: [(u64, BTreeMap<u64, u64>); 3],
    /// Client-detected monotonicity violations (must be zero).
    pub violations: u64,
    /// Distinct `(view, epoch)` strong snapshots observed.
    pub strong_distinct: u64,
    /// Every distinct strong snapshot matched a §3.1 history state.
    pub strong_all_in_history: bool,
    /// Updates maintained during the run.
    pub updates: u64,
    /// Maintenance throughput while serving (updates/sec).
    pub updates_per_sec: f64,
}

/// Stable index for a level: convergent 0, weak 1, strong 2.
pub fn level_ix(level: ReadLevel) -> usize {
    match level {
        ReadLevel::Convergent => 0,
        ReadLevel::Weak => 1,
        ReadLevel::Strong => 2,
    }
}

fn build_source(views: usize) -> (Source, Vec<ViewDef>) {
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new("r1", &["W", "X"]), 20, Some("X"), &[])
        .unwrap();
    source
        .add_relation(Schema::new("r2", &["X", "Y"]), 20, Some("X"), &[])
        .unwrap();
    source
        .load(
            "r1",
            (0..PRELOAD).map(|j| Tuple::ints([j, j % JOIN_DOMAIN])),
        )
        .unwrap();
    source
        .load(
            "r2",
            (0..PRELOAD).map(|j| Tuple::ints([j % JOIN_DOMAIN, 3000 + j])),
        )
        .unwrap();
    let views = (0..views)
        .map(|v| {
            ViewDef::new(
                format!("V{v}"),
                vec![
                    Schema::new("r1", &["W", "X"]),
                    Schema::new("r2", &["X", "Y"]),
                ],
                Predicate::col_eq(1, 2),
                vec![0],
            )
            .unwrap()
        })
        .collect();
    (source, views)
}

fn build_script(updates: u64) -> Vec<Update> {
    (0..updates as i64)
        .map(|i| {
            if i % 2 == 0 {
                Update::insert("r1", Tuple::ints([1000 + i, i % JOIN_DOMAIN]))
            } else {
                Update::insert("r2", Tuple::ints([i % JOIN_DOMAIN, 2000 + i]))
            }
        })
        .collect()
}

/// Drive the maintenance stream to completion, settling each update so
/// quiescent (strong-eligible) epochs keep advancing under the readers.
fn maintenance_duty(
    mut wh: Warehouse,
    mut source: Source,
    mut src_end: SharedFifo,
    mut wh_end: SharedFifo,
    script: Vec<Update>,
) -> (Warehouse, Duration) {
    let start = Instant::now();
    for u in &script {
        assert!(source.execute_update(u), "script update rejected");
        src_end
            .send(&Message::UpdateNotification { update: u.clone() })
            .unwrap();
        loop {
            let mut progress = wh.pump(SourceId(0), &mut wh_end).unwrap() > 0;
            while let Some(msg) = src_end.try_recv().unwrap() {
                let Message::QueryRequest { id, query } = msg else {
                    panic!("unexpected message at source");
                };
                let answer = source.answer(&query).unwrap();
                src_end.send(&Message::QueryAnswer { id, answer }).unwrap();
                progress = true;
            }
            if !progress && wh.is_quiescent() {
                break;
            }
        }
    }
    (wh, start.elapsed())
}

/// What one reader-driver thread brings home.
struct DriverReport {
    latencies_us: Vec<u64>,
    /// Per-level `(reads, staleness → count)`.
    levels: [(u64, BTreeMap<u64, u64>); 3],
    violations: u64,
    /// Distinct strong answers seen: `(view, epoch) → rows`.
    strong: BTreeMap<(u64, u64), SignedBag>,
}

/// One client slot inside a driver: a channel, a level, and the read in
/// flight.
struct Slot {
    client: ReadClient<SharedFifo>,
    level: ReadLevel,
    view: u64,
    sent: Option<Instant>,
    done: u64,
}

fn driver_duty(mut slots: Vec<Slot>, reads_per_reader: u64) -> DriverReport {
    let mut report = DriverReport {
        latencies_us: Vec::new(),
        levels: Default::default(),
        violations: 0,
        strong: BTreeMap::new(),
    };
    loop {
        let mut live = false;
        let mut progressed = false;
        for slot in &mut slots {
            if slot.done >= reads_per_reader {
                continue;
            }
            live = true;
            match slot.sent {
                None => {
                    slot.client.begin_read(slot.view, slot.level).unwrap();
                    slot.sent = Some(Instant::now());
                    progressed = true;
                }
                Some(at) => match slot.client.try_finish() {
                    Ok(None) => {}
                    Ok(Some(out)) => {
                        report.latencies_us.push(at.elapsed().as_micros() as u64);
                        let (count, hist) = &mut report.levels[level_ix(slot.level)];
                        *count += 1;
                        *hist.entry(out.staleness()).or_insert(0) += 1;
                        if slot.level == ReadLevel::Strong {
                            report
                                .strong
                                .entry((out.view, out.epoch))
                                .or_insert(out.rows);
                        }
                        slot.done += 1;
                        slot.sent = None;
                        progressed = true;
                    }
                    Err(ServeError::NonMonotonic { .. }) => {
                        report.violations += 1;
                        slot.done += 1;
                        slot.sent = None;
                        progressed = true;
                    }
                    Err(e) => panic!("reader failed: {e}"),
                },
            }
        }
        if !live {
            return report;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// Run one mixed-workload scenario.
pub fn run(cfg: ServingConfig) -> ServingResult {
    let (source, views) = build_source(cfg.views);
    let mut wh = Warehouse::new();
    wh.set_record_history(true);
    let src = wh.add_source("s0");
    let mut view_ids = Vec::new();
    for view in &views {
        let initial = view.eval(&source.snapshot()).unwrap();
        let maintainer = AlgorithmKind::Eca.instantiate(view, initial).unwrap();
        view_ids.push(wh.add_view(src, maintainer).unwrap());
    }
    let registry = wh.enable_serving(cfg.ring_cap);
    let server = Arc::new(ReadServer::new(Arc::clone(&registry)));

    // One channel per reader; server ends dealt round-robin to workers.
    let mut server_ends: Vec<Vec<SharedFifo>> =
        (0..cfg.server_workers).map(|_| Vec::new()).collect();
    let mut client_ends = Vec::new();
    for i in 0..cfg.readers {
        let (client_end, server_end) = SharedFifo::pair(TransferMeter::new());
        client_ends.push(client_end);
        server_ends[i % cfg.server_workers].push(server_end);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let mut server_threads = Vec::new();
    for ends in server_ends {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        server_threads.push(std::thread::spawn(move || {
            let mut ends = ends;
            while !stop.load(Ordering::Acquire) {
                let mut n = 0usize;
                for t in ends.iter_mut() {
                    n += server.serve_ready(t).unwrap();
                }
                if n == 0 {
                    std::thread::sleep(Duration::from_micros(20));
                } else {
                    served.fetch_add(n as u64, Ordering::Relaxed);
                }
            }
        }));
    }

    // Maintenance runs concurrently with the whole reading window.
    let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
    let script = build_script(cfg.updates);
    let maintenance =
        std::thread::spawn(move || maintenance_duty(wh, source, src_end, wh_end, script));

    // Reader drivers: levels dealt round-robin so each level gets a
    // third of the clients; views likewise.
    let mut driver_slots: Vec<Vec<Slot>> = (0..cfg.reader_threads).map(|_| Vec::new()).collect();
    for (i, client_end) in client_ends.into_iter().enumerate() {
        let level = [ReadLevel::Convergent, ReadLevel::Weak, ReadLevel::Strong][i % 3];
        driver_slots[i % cfg.reader_threads].push(Slot {
            client: ReadClient::new(client_end),
            level,
            view: (i % cfg.views) as u64,
            sent: None,
            done: 0,
        });
    }
    let read_start = Instant::now();
    let drivers: Vec<_> = driver_slots
        .into_iter()
        .map(|slots| std::thread::spawn(move || driver_duty(slots, cfg.reads_per_reader)))
        .collect();

    let reports: Vec<DriverReport> = drivers.into_iter().map(|d| d.join().unwrap()).collect();
    let read_wall = read_start.elapsed();
    let (wh, maint_wall) = maintenance.join().unwrap();
    stop.store(true, Ordering::Release);
    for t in server_threads {
        t.join().unwrap();
    }

    // Merge driver reports.
    let mut latencies: Vec<u64> = Vec::new();
    let mut levels: [(u64, BTreeMap<u64, u64>); 3] = Default::default();
    let mut violations = 0;
    let mut strong: BTreeMap<(u64, u64), SignedBag> = BTreeMap::new();
    for report in reports {
        latencies.extend(report.latencies_us);
        violations += report.violations;
        for (ix, (count, hist)) in report.levels.into_iter().enumerate() {
            levels[ix].0 += count;
            for (staleness, n) in hist {
                *levels[ix].1.entry(staleness).or_insert(0) += n;
            }
        }
        for (key, rows) in report.strong {
            strong.entry(key).or_insert(rows);
        }
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let ix = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[ix]
    };

    // §3.1 verification: every distinct strong snapshot is a state the
    // view actually passed through.
    let mut all_in_history = true;
    let mut checked: BTreeSet<(u64, u64)> = BTreeSet::new();
    for ((view, epoch), rows) in &strong {
        checked.insert((*view, *epoch));
        let history = wh.view_states(ViewId(*view as usize));
        if !history.contains(rows) {
            all_in_history = false;
        }
    }

    let reads: u64 = levels.iter().map(|(count, _)| count).sum();
    ServingResult {
        config: cfg,
        read_wall,
        reads,
        reads_per_sec: reads as f64 / read_wall.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        levels,
        violations,
        strong_distinct: checked.len() as u64,
        strong_all_in_history: all_in_history,
        updates: cfg.updates,
        updates_per_sec: cfg.updates as f64 / maint_wall.as_secs_f64(),
    }
}

impl ServingResult {
    /// Render for the artifact.
    pub fn to_json(&self) -> Json {
        let level_names = ["convergent", "weak", "strong"];
        Json::obj([
            (
                "config",
                Json::obj([
                    ("readers", Json::Int(self.config.readers as i64)),
                    (
                        "reader_threads",
                        Json::Int(self.config.reader_threads as i64),
                    ),
                    (
                        "server_workers",
                        Json::Int(self.config.server_workers as i64),
                    ),
                    (
                        "reads_per_reader",
                        Json::Int(self.config.reads_per_reader as i64),
                    ),
                    ("updates", Json::Int(self.config.updates as i64)),
                    ("views", Json::Int(self.config.views as i64)),
                    ("ring_cap", Json::Int(self.config.ring_cap as i64)),
                ]),
            ),
            ("reads", Json::Int(self.reads as i64)),
            (
                "read_wall_ms",
                Json::Num(self.read_wall.as_secs_f64() * 1e3),
            ),
            ("reads_per_sec", Json::Num(self.reads_per_sec)),
            ("p50_us", Json::Int(self.p50_us as i64)),
            ("p99_us", Json::Int(self.p99_us as i64)),
            (
                "levels",
                Json::arr(self.levels.iter().enumerate().map(|(ix, (count, hist))| {
                    Json::obj([
                        ("level", Json::str(level_names[ix])),
                        ("reads", Json::Int(*count as i64)),
                        (
                            "staleness_epochs",
                            Json::obj(
                                hist.iter()
                                    .map(|(s, n)| (s.to_string(), Json::Int(*n as i64))),
                            ),
                        ),
                    ])
                })),
            ),
            ("violations", Json::Int(self.violations as i64)),
            (
                "strong",
                Json::obj([
                    ("distinct_snapshots", Json::Int(self.strong_distinct as i64)),
                    (
                        "all_in_section_3_1_history",
                        Json::Int(i64::from(self.strong_all_in_history)),
                    ),
                ]),
            ),
            (
                "maintenance",
                Json::obj([
                    ("updates", Json::Int(self.updates as i64)),
                    ("updates_per_sec", Json::Num(self.updates_per_sec)),
                ]),
            ),
        ])
    }
}

/// The full serving artifact document.
pub fn report(result: &ServingResult) -> Json {
    Json::obj([
        ("benchmark", Json::str("mixed read/write serving")),
        (
            "method",
            Json::str(
                "N concurrent ReadClients over SharedFifo channels against a \
                 ReadServer worker pool, while one maintenance loop streams \
                 updates through the warehouse; every committed event publishes \
                 a structurally shared epoch snapshot into the registry the \
                 servers read, so reads never block maintenance; readers are \
                 split across the three section-3 consistency levels and every \
                 distinct strong answer is replayed against the section-3.1 \
                 state history after the run",
            ),
        ),
        ("result", result.to_json()),
    ])
}

/// CI gate: zero violations, strong reads all in the §3.1 history,
/// every read completed, and a sanity floor on throughput.
pub fn smoke(result: &ServingResult) -> bool {
    let mut ok = true;
    if result.violations != 0 {
        eprintln!("FAIL: {} monotonicity violations", result.violations);
        ok = false;
    }
    if !result.strong_all_in_history {
        eprintln!("FAIL: a strong read served a state outside the section-3.1 history");
        ok = false;
    }
    if result.reads != result.config.total_reads() {
        eprintln!(
            "FAIL: {} of {} reads completed",
            result.reads,
            result.config.total_reads()
        );
        ok = false;
    }
    if result.reads_per_sec < 500.0 {
        eprintln!(
            "FAIL: serving throughput {:.0} reads/sec below the 500/sec floor",
            result.reads_per_sec
        );
        ok = false;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_is_green() {
        let mut cfg = ServingConfig::smoke();
        cfg.readers = 12;
        cfg.reader_threads = 2;
        cfg.reads_per_reader = 5;
        cfg.updates = 10;
        let result = run(cfg);
        assert_eq!(result.reads, cfg.total_reads());
        assert_eq!(result.violations, 0);
        assert!(result.strong_all_in_history);
        // All three levels got traffic.
        for (count, _) in &result.levels {
            assert!(*count > 0);
        }
    }
}

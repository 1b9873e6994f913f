//! Serving-layer consistency under adversarial interleavings.
//!
//! The read-serving layer promises the §3 hierarchy: weak reads are
//! monotonic per client, strong reads observe only §3.1 state-history
//! members (states published while the view was quiescent — `V`
//! evaluated at a real source state, never a mid-compensation
//! intermediate). These tests drive maintenance, serving, and many
//! clients through seeded random interleavings (the `Policy::Random`
//! discipline from `eca-sim`, applied to the read path) and check the
//! promises hold at every step — plus the chaos case: a client that
//! drops mid-read and reconnects on a fresh channel at a later epoch
//! must keep its monotonicity floor — and then hold them again with real
//! threads: a reader fleet against a live maintenance thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_serve::{ReadClient, ReadServer};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{SourceId, ViewId, ViewStatus, Warehouse};
use eca_wire::{Message, ReadLevel, SharedFifo, TransferMeter, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn view_def(name: &str) -> ViewDef {
    ViewDef::new(
        name,
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
    source
        .load("r1", (0..8).map(|j| Tuple::ints([j, j % 4])))
        .unwrap();
    source
        .load("r2", (0..8).map(|j| Tuple::ints([j % 4, 100 + j])))
        .unwrap();
    source
}

fn script(n: i64) -> Vec<Update> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                Update::insert("r1", Tuple::ints([50 + i, i % 4]))
            } else {
                Update::insert("r2", Tuple::ints([i % 4, 200 + i]))
            }
        })
        .collect()
}

/// The whole deployment a random-interleaving episode drives: one
/// source, one warehouse with serving enabled, and `clients` read
/// clients each on its own channel.
struct Episode {
    source: Source,
    wh: Warehouse,
    src_end: SharedFifo,
    wh_end: SharedFifo,
    pending_updates: Vec<Update>,
    server: ReadServer,
    clients: Vec<ClientSlot>,
    /// Every state each view held at a driver-observed quiescent point —
    /// the strong-read oracle, captured inside the same step that
    /// published it.
    quiescent_states: Vec<Vec<SignedBag>>,
}

struct ClientSlot {
    client: ReadClient<SharedFifo>,
    server_end: SharedFifo,
    level: ReadLevel,
    view: u64,
    in_flight: bool,
    reads_left: u32,
    /// Epochs observed, in completion order.
    epochs: Vec<u64>,
}

impl Episode {
    fn new(seed_views: usize, clients: usize, updates: i64, reads_per_client: u32) -> Episode {
        let source = build_source();
        let mut wh = Warehouse::new();
        wh.set_record_history(true);
        let src = wh.add_source("s0");
        let mut quiescent_states = Vec::new();
        for v in 0..seed_views {
            let def = view_def(&format!("V{v}"));
            let initial = def.eval(&source.snapshot()).unwrap();
            quiescent_states.push(vec![initial.clone()]);
            let maintainer = AlgorithmKind::Eca.instantiate(&def, initial).unwrap();
            wh.add_view(src, maintainer).unwrap();
        }
        let registry = wh.enable_serving(4);
        let server = ReadServer::new(Arc::clone(&registry));
        let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
        let clients = (0..clients)
            .map(|i| {
                let (client_end, server_end) = SharedFifo::pair(TransferMeter::new());
                ClientSlot {
                    client: ReadClient::new(client_end),
                    server_end,
                    level: [ReadLevel::Convergent, ReadLevel::Weak, ReadLevel::Strong][i % 3],
                    view: (i % seed_views) as u64,
                    in_flight: false,
                    reads_left: reads_per_client,
                    epochs: Vec::new(),
                }
            })
            .collect();
        Episode {
            source,
            wh,
            src_end,
            wh_end,
            pending_updates: script(updates).into_iter().rev().collect(),
            server,
            clients,
            quiescent_states,
        }
    }

    /// One maintenance micro-step; records quiescent states inside the
    /// same step so the strong oracle can never lag a publication.
    fn step_maintenance(&mut self, rng: &mut StdRng) -> bool {
        let mut progress = false;
        // Enabled maintenance events: inject the next update, answer a
        // pending query, pump the warehouse.
        let can_inject = !self.pending_updates.is_empty();
        if can_inject && rng.gen_range(0..3) == 0 {
            let u = self.pending_updates.pop().unwrap();
            assert!(self.source.execute_update(&u));
            self.src_end
                .send(&Message::UpdateNotification { update: u })
                .unwrap();
            progress = true;
        } else if rng.gen_range(0..2) == 0 {
            if let Some(msg) = self.src_end.try_recv().unwrap() {
                let Message::QueryRequest { id, query } = msg else {
                    panic!("unexpected message at source");
                };
                let answer = self.source.answer(&query).unwrap();
                self.src_end
                    .send(&Message::QueryAnswer { id, answer })
                    .unwrap();
                progress = true;
            }
        } else if let Some(msg) = self.wh_end.try_recv().unwrap() {
            // One message at a time — the same per-event granularity the
            // registry publishes at, so the oracle below never misses a
            // strong-eligible state.
            for reply in self.wh.on_message(SourceId(0), msg).unwrap() {
                self.wh_end.send(&reply).unwrap();
            }
            progress = true;
        }
        // Strong eligibility is per view (the registry publishes a
        // strong snapshot whenever *that view's* maintainer is
        // quiescent), so the oracle records per view too.
        for (v, states) in self.quiescent_states.iter_mut().enumerate() {
            let id = ViewId(v);
            if self.wh.view_status(id) == ViewStatus::Active
                && self.wh.maintainer(id).is_quiescent()
            {
                let current = self.wh.materialized(id);
                if !states.contains(current) {
                    states.push(current.clone());
                }
            }
        }
        progress
    }

    fn drained(&mut self) -> bool {
        self.pending_updates.is_empty()
            && self.wh.is_quiescent()
            && self.src_end.poll().unwrap() == eca_wire::Readiness::Idle
            && self.wh_end.poll().unwrap() == eca_wire::Readiness::Idle
    }
}

/// Run one seeded episode; returns the episode for post-hoc assertions.
fn run_episode(seed: u64, clients: usize, updates: i64, reads_per_client: u32) -> Episode {
    let mut ep = Episode::new(2, clients, updates, reads_per_client);
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        // The enabled-event set, `Policy::Random` style: maintenance is
        // event 0; each live client contributes a begin/finish event
        // and a serve event.
        let mut enabled: Vec<usize> = vec![0];
        for (i, slot) in ep.clients.iter().enumerate() {
            if slot.reads_left > 0 {
                enabled.push(1 + 2 * i);
                enabled.push(2 + 2 * i);
            }
        }
        if enabled.len() == 1 && ep.drained() {
            break;
        }
        match enabled[rng.gen_range(0..enabled.len())] {
            0 => {
                ep.step_maintenance(&mut rng);
            }
            ev => {
                let i = (ev - 1) / 2;
                let serve = (ev - 1) % 2 == 1;
                let slot = &mut ep.clients[i];
                if serve {
                    ep.server.serve_ready(&mut slot.server_end).unwrap();
                } else if !slot.in_flight {
                    slot.client.begin_read(slot.view, slot.level).unwrap();
                    slot.in_flight = true;
                } else {
                    match slot.client.try_finish() {
                        Ok(None) => {}
                        Ok(Some(out)) => {
                            assert_eq!(out.view, slot.view);
                            // Strong answers must be §3.1 history members
                            // *and* driver-observed quiescent states.
                            if slot.level == ReadLevel::Strong {
                                let v = slot.view as usize;
                                assert!(
                                    ep.quiescent_states[v].contains(&out.rows),
                                    "strong read served a non-quiescent state (seed {seed})"
                                );
                                assert!(
                                    ep.wh.view_states(ViewId(v)).contains(&out.rows),
                                    "strong read outside the 3.1 history (seed {seed})"
                                );
                            }
                            slot.epochs.push(out.epoch);
                            slot.in_flight = false;
                            slot.reads_left -= 1;
                        }
                        Err(e) => panic!("read failed under seed {seed}: {e}"),
                    }
                }
            }
        }
    }
    ep
}

#[test]
fn weak_and_strong_reads_are_monotonic_under_random_interleavings() {
    for seed in 0..12 {
        let ep = run_episode(seed, 9, 16, 6);
        for (i, slot) in ep.clients.iter().enumerate() {
            assert_eq!(slot.reads_left, 0, "client {i} starved under seed {seed}");
            if slot.level == ReadLevel::Convergent {
                continue;
            }
            for pair in slot.epochs.windows(2) {
                assert!(
                    pair[1] >= pair[0],
                    "client {i} ({:?}) regressed {} -> {} under seed {seed}",
                    slot.level,
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}

#[test]
fn strong_reads_see_every_published_epoch_advance() {
    // With maintenance finished before reading starts, a strong read
    // observes exactly the final converged state — the newest §3.1
    // history member.
    let mut ep = Episode::new(1, 1, 8, 1);
    let mut rng = StdRng::seed_from_u64(7);
    while !ep.drained() {
        ep.step_maintenance(&mut rng);
    }
    let expected = ep.wh.materialized(ViewId(0)).clone();
    let slot = &mut ep.clients[0];
    slot.client.begin_read(0, ReadLevel::Strong).unwrap();
    ep.server.serve_ready(&mut slot.server_end).unwrap();
    let out = slot.client.try_finish().unwrap().unwrap();
    assert_eq!(out.rows, expected);
    assert_eq!(
        out.epoch, out.latest,
        "post-quiescence strong read is fresh"
    );
}

#[test]
fn reconnecting_client_keeps_its_monotonicity_floor() {
    // A client completes a weak read, then its connection dies with a
    // read in flight (the answer is lost). It reconnects on a brand-new
    // channel carrying its floors; reads after more maintenance must
    // never regress below the pre-crash epoch.
    let mut ep = Episode::new(1, 1, 6, 1);
    let mut rng = StdRng::seed_from_u64(21);

    // Let some maintenance land, then read.
    for _ in 0..40 {
        ep.step_maintenance(&mut rng);
    }
    let slot = &mut ep.clients[0];
    slot.client.begin_read(0, ReadLevel::Weak).unwrap();
    ep.server.serve_ready(&mut slot.server_end).unwrap();
    let first = slot.client.try_finish().unwrap().unwrap();
    let floor = first.epoch;

    // Crash mid-read: request sent, answer never collected.
    slot.client.begin_read(0, ReadLevel::Weak).unwrap();
    ep.server.serve_ready(&mut slot.server_end).unwrap();
    let floors = slot.client.floors();

    // Reconnect at a later epoch on a fresh channel.
    while !ep.drained() {
        ep.step_maintenance(&mut rng);
    }
    let (client_end, mut server_end) = SharedFifo::pair(TransferMeter::new());
    let mut revived = ReadClient::with_floors(client_end, floors);
    revived.begin_read(0, ReadLevel::Weak).unwrap();
    ep.server.serve_ready(&mut server_end).unwrap();
    let second = revived.try_finish().unwrap().unwrap();
    assert!(
        second.epoch >= floor,
        "reconnected client regressed: {} < {}",
        second.epoch,
        floor
    );
}

/// One reader of the threaded fleet: its channel, level and view, and
/// how far through its reads it is.
struct Reader {
    client: ReadClient<SharedFifo>,
    level: ReadLevel,
    view: u64,
    in_flight: bool,
    done: u64,
}

/// What one reader thread brings home.
#[derive(Default)]
struct ReaderTally {
    /// Reads answered.
    reads: u64,
    /// Distinct strong answers: `(view, epoch) → rows`.
    strong: BTreeMap<(u64, u64), SignedBag>,
}

/// Run every reader through `reads_each` reads, multiplexed on the
/// calling thread.
fn drive_readers(mut readers: Vec<Reader>, reads_each: u64) -> ReaderTally {
    let mut tally = ReaderTally::default();
    while readers.iter().any(|r| r.done < reads_each) {
        let mut progressed = false;
        for r in readers.iter_mut().filter(|r| r.done < reads_each) {
            if !r.in_flight {
                r.client.begin_read(r.view, r.level).unwrap();
                r.in_flight = true;
                progressed = true;
                continue;
            }
            match r.client.try_finish() {
                Ok(None) => continue,
                Ok(Some(out)) => {
                    tally.reads += 1;
                    if r.level == ReadLevel::Strong {
                        tally
                            .strong
                            .entry((out.view, out.epoch))
                            .or_insert(out.rows);
                    }
                }
                // Includes a weak or strong answer below the client's
                // floor: a monotonicity violation.
                Err(e) => panic!("read failed: {e}"),
            }
            r.in_flight = false;
            r.done += 1;
            progressed = true;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    tally
}

/// Stream `updates` through the warehouse, settling each one, so
/// quiescent (strong-eligible) epochs keep advancing under the readers.
fn maintain(mut wh: Warehouse, mut source: Source, updates: Vec<Update>) -> Warehouse {
    let (mut src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
    for u in updates {
        assert!(source.execute_update(&u));
        src_end
            .send(&Message::UpdateNotification { update: u })
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
    wh
}

/// The serving gate with real threads: 64 `ReadClient`s, a third per §3
/// level, read over `SharedFifo` channels from a two-thread
/// `ReadServer` pool while a maintenance thread streams updates into two
/// views. Every read completes, no weak or strong read falls below its
/// client's floor, every distinct strong answer is a §3.1 state-history
/// member, and the pool serves at least 500 reads/s. A debug build
/// serves two orders of magnitude more, so the floor catches a stall,
/// not noise.
#[test]
fn reader_fleet_stays_consistent_against_live_maintenance() {
    const READERS: usize = 64;
    const READER_THREADS: usize = 4;
    const SERVER_THREADS: usize = 2;
    const READS_EACH: u64 = 10;
    const VIEWS: usize = 2;

    let source = build_source();
    let mut wh = Warehouse::new();
    wh.set_record_history(true);
    let src = wh.add_source("s0");
    for v in 0..VIEWS {
        let def = view_def(&format!("V{v}"));
        let initial = def.eval(&source.snapshot()).unwrap();
        let maintainer = AlgorithmKind::Eca.instantiate(&def, initial).unwrap();
        wh.add_view(src, maintainer).unwrap();
    }
    let server = ReadServer::new(wh.enable_serving(8));

    let mut server_ends: Vec<Vec<SharedFifo>> = (0..SERVER_THREADS).map(|_| Vec::new()).collect();
    let mut fleet: Vec<Vec<Reader>> = (0..READER_THREADS).map(|_| Vec::new()).collect();
    for i in 0..READERS {
        let (client_end, server_end) = SharedFifo::pair(TransferMeter::new());
        server_ends[i % SERVER_THREADS].push(server_end);
        fleet[i % READER_THREADS].push(Reader {
            client: ReadClient::new(client_end),
            level: [ReadLevel::Convergent, ReadLevel::Weak, ReadLevel::Strong][i % 3],
            view: (i % VIEWS) as u64,
            in_flight: false,
            done: 0,
        });
    }

    let stop = AtomicBool::new(false);
    let (server, stop) = (&server, &stop);
    let (wh, tallies, read_wall) = std::thread::scope(|scope| {
        for mut ends in server_ends {
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let served: usize = ends
                        .iter_mut()
                        .map(|t| server.serve_ready(t).unwrap())
                        .sum();
                    if served == 0 {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                }
            });
        }
        let maintenance = scope.spawn(move || maintain(wh, source, script(40)));
        let start = Instant::now();
        let drivers: Vec<_> = fleet
            .into_iter()
            .map(|readers| scope.spawn(move || drive_readers(readers, READS_EACH)))
            .collect();
        let tallies: Vec<_> = drivers.into_iter().map(|d| d.join()).collect();
        let read_wall = start.elapsed();
        let wh = maintenance.join();
        // Release the server pool before any panic can strand it.
        stop.store(true, Ordering::Release);
        let tallies: Vec<ReaderTally> = tallies.into_iter().map(Result::unwrap).collect();
        (wh.unwrap(), tallies, read_wall)
    });

    let reads: u64 = tallies.iter().map(|t| t.reads).sum();
    assert_eq!(reads, READERS as u64 * READS_EACH, "every read completes");
    let mut strong = BTreeMap::new();
    for tally in tallies {
        strong.extend(tally.strong);
    }
    assert!(!strong.is_empty());
    for ((view, epoch), rows) in &strong {
        assert!(
            wh.view_states(ViewId(*view as usize)).contains(rows),
            "strong read of view {view} at epoch {epoch} is outside the 3.1 history"
        );
    }
    let reads_per_sec = reads as f64 / read_wall.as_secs_f64();
    assert!(
        reads_per_sec >= 500.0,
        "{reads_per_sec:.0} reads/s is below the 500/s floor"
    );
}

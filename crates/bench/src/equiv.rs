//! Runtime-equivalence harness: one deployment, both warehouse drivers,
//! one verdict.
//!
//! The §3 correctness argument never mentions threads: it needs FIFO
//! delivery per channel and atomic per-event state transitions. Both
//! warehouse drivers — the serial [`Warehouse`] and the worker-pool
//! [`eca_warehouse::ReactorWarehouse`] at any pool size — promise exactly
//! that, and the `serve` protocol (whole script first, then answers in
//! query order) makes each channel's event sequence *deterministic*: the
//! warehouse sees `U_1 … U_n` then `A_1 … A_m` per source regardless of
//! scheduling. So every observable that is a function of per-source
//! event order — view state histories, final materializations, message
//! and byte meters — must be **byte-identical** across runtimes, and
//! this module exists to assert precisely that on real deployments
//! (`tests/golden_trace.rs` pins the fingerprints).

use eca_core::maintainer::ViewMaintainer;
use eca_relational::{SignedBag, Update};
use eca_source::{serve_fleet, FleetMember, Source};
use eca_warehouse::{connect_source, SourceId, ViewId, Warehouse, WarehouseError};
use eca_wire::{Poller, SharedFifo, TransferMeter, Transport, TransportError};

use eca_sim::SimError;

/// One autonomous site of an equivalence deployment.
pub struct EquivSource {
    /// The source site, already loaded.
    pub source: Source,
    /// Its update script.
    pub script: Vec<Update>,
    /// Maintainers for the views hosted over this source.
    pub maintainers: Vec<Box<dyn ViewMaintainer>>,
}

/// A whole deployment: sites plus the views over them. Built fresh (via
/// a closure) for every runtime, since maintainers are consumed.
pub struct EquivCase {
    /// The deployment's sites in registration order.
    pub sources: Vec<EquivSource>,
}

/// The per-link meter counters that must agree across runtimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeterCounts {
    /// Messages source → warehouse (notifications + answers).
    pub messages_s2w: u64,
    /// Messages warehouse → source (queries).
    pub messages_w2s: u64,
    /// Bytes source → warehouse.
    pub bytes_s2w: u64,
    /// Bytes warehouse → source.
    pub bytes_w2s: u64,
    /// Answer payload bytes (the paper's `B`).
    pub answer_bytes: u64,
    /// Answer payload tuple occurrences.
    pub answer_tuples: u64,
}

impl MeterCounts {
    fn of(meter: &TransferMeter) -> MeterCounts {
        MeterCounts {
            messages_s2w: meter.messages_s2w(),
            messages_w2s: meter.messages_w2s(),
            bytes_s2w: meter.bytes_s2w(),
            bytes_w2s: meter.bytes_w2s(),
            answer_bytes: meter.answer_bytes(),
            answer_tuples: meter.answer_tuples(),
        }
    }
}

/// Everything one runtime produced that §3 says must not depend on
/// scheduling.
#[derive(Debug, PartialEq)]
pub struct EquivOutcome {
    /// Per view (registration order): every `MV` state it passed
    /// through, initial state first.
    pub view_states: Vec<Vec<SignedBag>>,
    /// Per view: the final materialization.
    pub finals: Vec<SignedBag>,
    /// Per source: the link meters.
    pub meters: Vec<MeterCounts>,
}

impl EquivOutcome {
    /// A stable rendering for fingerprinting (FNV over this string is
    /// what the golden tests pin).
    pub fn render(&self) -> String {
        format!(
            "states{:?}|finals{:?}|meters{:?}",
            self.view_states, self.finals, self.meters
        )
    }
}

/// Both drivers' outcomes for one deployment.
#[derive(Debug)]
pub struct EquivPair {
    /// The serial single-threaded reference.
    pub serial: EquivOutcome,
    /// Worker-pool reactor (`ReactorWarehouse::run`).
    pub reactor: EquivOutcome,
}

impl EquivPair {
    /// Whether the two drivers agree on every observable.
    pub fn agree(&self) -> bool {
        self.serial == self.reactor
    }
}

/// Wire a fresh case into a warehouse + transports, returning everything
/// a runtime driver needs.
struct Wired {
    warehouse: Warehouse,
    sources: Vec<Source>,
    scripts: Vec<Vec<Update>>,
    src_ends: Vec<SharedFifo>,
    wh_ends: Vec<SharedFifo>,
    meters: Vec<TransferMeter>,
    view_ids: Vec<ViewId>,
}

fn wire(case: EquivCase) -> Result<Wired, SimError> {
    let mut w = Wired {
        warehouse: Warehouse::new(),
        sources: Vec::new(),
        scripts: Vec::new(),
        src_ends: Vec::new(),
        wh_ends: Vec::new(),
        meters: Vec::new(),
        view_ids: Vec::new(),
    };
    for (s, site) in case.sources.into_iter().enumerate() {
        let src = w.warehouse.add_source(format!("s{s}"));
        for maintainer in site.maintainers {
            w.view_ids.push(w.warehouse.add_view(src, maintainer)?);
        }
        let meter = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(meter.clone());
        w.sources.push(site.source);
        w.scripts.push(site.script);
        w.src_ends.push(src_end);
        w.wh_ends.push(wh_end);
        w.meters.push(meter);
    }
    Ok(w)
}

fn outcome_of(
    view_states: Vec<Vec<SignedBag>>,
    finals: Vec<SignedBag>,
    meters: &[TransferMeter],
) -> EquivOutcome {
    EquivOutcome {
        view_states,
        finals,
        meters: meters.iter().map(MeterCounts::of).collect(),
    }
}

/// Serial reference: one thread interleaves script execution, warehouse
/// pumping and source answering. `Warehouse::pump` records answer
/// payloads on the shared meter, so the source side must not.
fn run_serial(case: EquivCase) -> Result<EquivOutcome, SimError> {
    let mut w = wire(case)?;
    for s in 0..w.sources.len() {
        for u in &w.scripts[s].clone() {
            if let Some(notification) = w.sources[s].on_script_step(u) {
                w.src_ends[s]
                    .send(&notification)
                    .map_err(WarehouseError::from)?;
            }
        }
    }
    loop {
        let mut progress = false;
        for s in 0..w.sources.len() {
            progress |= w.warehouse.pump(SourceId(s), &mut w.wh_ends[s])? > 0;
            while let Some(msg) = w.src_ends[s].try_recv().map_err(WarehouseError::from)? {
                let answer = w.sources[s].on_message(msg)?;
                w.src_ends[s].send(&answer).map_err(WarehouseError::from)?;
                progress = true;
            }
        }
        if !progress && w.warehouse.is_quiescent() {
            break;
        }
    }
    let states = w
        .view_ids
        .iter()
        .map(|id| w.warehouse.view_states(*id).to_vec())
        .collect();
    let finals = w
        .view_ids
        .iter()
        .map(|id| w.warehouse.materialized(*id).clone())
        .collect();
    Ok(outcome_of(states, finals, &w.meters))
}

/// Reactor: the whole source fleet multiplexed on one thread against a
/// fixed worker pool.
fn run_reactor(case: EquivCase, workers: usize) -> Result<EquivOutcome, SimError> {
    let w = wire(case)?;
    let rw = w.warehouse.into_reactor(workers);
    let endpoints: Vec<(SourceId, Box<dyn Transport + Send>, u64)> = w
        .wh_ends
        .into_iter()
        .enumerate()
        .map(|(s, t)| {
            (
                SourceId(s),
                Box::new(t) as Box<dyn Transport + Send>,
                w.scripts[s].len() as u64,
            )
        })
        .collect();
    let members: Vec<FleetMember> = w
        .sources
        .into_iter()
        .zip(w.src_ends)
        .zip(w.scripts)
        .map(|((source, src_end), script)| FleetMember {
            source,
            transport: Box::new(src_end),
            script,
        })
        .collect();
    std::thread::scope(|scope| -> Result<(), SimError> {
        let fleet = scope.spawn(move || serve_fleet(members));
        let run = rw.run(endpoints);
        // A panic on the fleet thread is a bug: re-raise it as it was.
        let served = fleet
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        run?;
        served?;
        Ok(())
    })?;
    let states = w.view_ids.iter().map(|id| rw.view_states(*id)).collect();
    let finals = w.view_ids.iter().map(|id| rw.materialized(*id)).collect();
    Ok(outcome_of(states, finals, &w.meters))
}

/// Reactor over real loopback TCP: the same fleet and worker pool as
/// `run_reactor`, but every link is a socket — sources dial a
/// [`eca_warehouse::ReactorWarehouse::run_listener`] endpoint, open with
/// the `Hello` handshake, and each pool worker sleeps in `poll(2)` on its
/// own sockets while `serve_fleet`'s one pool worker sleeps on the source
/// ends the same way. Meters are read on the *source*
/// side of each link (the metering point of every threaded run; the
/// handshake frame travels outside it), so the outcome must
/// still be byte-identical to the in-memory runs — that is the
/// golden-trace claim `tests/golden_trace.rs` pins.
///
/// # Errors
/// Socket setup failures plus everything `run_reactor` can raise.
pub fn run_reactor_tcp(case: EquivCase, workers: usize) -> Result<EquivOutcome, SimError> {
    // `wire` builds SharedFifo links; here each link is a real socket,
    // so assemble the warehouse side by hand.
    let mut warehouse = Warehouse::new();
    let mut view_ids = Vec::new();
    let mut sources = Vec::new();
    let mut scripts = Vec::new();
    for (s, site) in case.sources.into_iter().enumerate() {
        let src = warehouse.add_source(format!("s{s}"));
        for maintainer in site.maintainers {
            view_ids.push(warehouse.add_view(src, maintainer)?);
        }
        sources.push(site.source);
        scripts.push(site.script);
    }
    let expected: Vec<u64> = scripts.iter().map(|s| s.len() as u64).collect();
    let rw = warehouse.into_reactor(workers);
    let io_err = |e: std::io::Error| WarehouseError::Transport(TransportError::Io(e));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let meters: Vec<TransferMeter> = (0..sources.len()).map(|_| TransferMeter::new()).collect();
    let mut members = Vec::with_capacity(sources.len());
    for ((s, source), script) in sources.into_iter().enumerate().zip(scripts) {
        // Dialing before the listener runs is fine: the connection waits
        // in the accept backlog until the reactor starts admitting.
        let transport = connect_source(addr, SourceId(s), meters[s].clone()).map_err(io_err)?;
        members.push(FleetMember {
            source,
            transport: Box::new(transport),
            script,
        });
    }
    std::thread::scope(|scope| -> Result<(), SimError> {
        let fleet = scope.spawn(move || serve_fleet(members));
        let run = rw.run_listener(listener, &Poller::new().map_err(io_err)?, &expected);
        // A panic on the fleet thread is a bug: re-raise it as it was.
        let served = fleet
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        run?;
        served?;
        Ok(())
    })?;
    let states = view_ids.iter().map(|id| rw.view_states(*id)).collect();
    let finals = view_ids.iter().map(|id| rw.materialized(*id)).collect();
    Ok(outcome_of(states, finals, &meters))
}

/// Build the same deployment twice (via `build`) and run it under both
/// drivers. `workers` sizes the reactor pool.
///
/// # Errors
/// The first driver failure, in serial → reactor order.
pub fn run_equivalence(
    build: &dyn Fn() -> EquivCase,
    workers: usize,
) -> Result<EquivPair, SimError> {
    Ok(EquivPair {
        serial: run_serial(build())?,
        reactor: run_reactor(build(), workers)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::ViewDef;
    use eca_relational::{Predicate, Schema, Tuple};
    use eca_storage::Scenario;

    fn two_site_case() -> EquivCase {
        sites_case(2)
    }

    fn sites_case(sites: usize) -> EquivCase {
        let mut sources = Vec::new();
        for s in 0..sites {
            let (r1, r2) = (format!("r{s}_1"), format!("r{s}_2"));
            let view = ViewDef::new(
                format!("V{s}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                vec![0],
            )
            .unwrap();
            let mut source = Source::new(Scenario::Indexed);
            source
                .add_relation(Schema::new(&r1, &["W", "X"]), 20, Some("X"), &[])
                .unwrap();
            source
                .add_relation(Schema::new(&r2, &["X", "Y"]), 20, Some("X"), &[])
                .unwrap();
            source.load(&r1, [Tuple::ints([1, 2])]).unwrap();
            let initial = view.eval(&source.snapshot()).unwrap();
            let maintainer = AlgorithmKind::Eca.instantiate(&view, initial).unwrap();
            sources.push(EquivSource {
                source,
                script: vec![
                    Update::insert(&r2, Tuple::ints([2, 3])),
                    Update::insert(&r1, Tuple::ints([4, 2])),
                ],
                maintainers: vec![maintainer],
            });
        }
        EquivCase { sources }
    }

    #[test]
    fn serial_and_reactor_agree_on_a_two_site_deployment() {
        let pair = run_equivalence(&two_site_case, 2).unwrap();
        assert_eq!(pair.serial, pair.reactor);
        assert!(pair.agree());
        // And the run actually did something.
        assert!(pair.serial.meters[0].answer_bytes > 0);
        assert!(pair.serial.view_states[0].len() > 1);
    }

    /// Swapping the reactor's in-memory links for real loopback sockets
    /// (listener handshake, socket readiness, framed TCP) must not
    /// change a single observable — states, finals, or per-link meters.
    #[test]
    fn tcp_reactor_matches_in_memory_runtimes() {
        let serial = run_serial(two_site_case()).unwrap();
        let tcp = run_reactor_tcp(two_site_case(), 2).unwrap();
        assert_eq!(serial, tcp);
    }

    /// The many-channel shape: 64 sites over real sockets on a 2-worker
    /// pool, 32 stations per worker, still byte-identical to the serial
    /// reference on state histories, finals and per-link meters.
    #[test]
    fn tcp_reactor_matches_serial_at_sixty_four_sites() {
        let serial = run_serial(sites_case(64)).unwrap();
        let tcp = run_reactor_tcp(sites_case(64), 2).unwrap();
        assert_eq!(serial, tcp);
        assert_eq!(tcp.meters.len(), 64);
    }
}

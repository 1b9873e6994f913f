//! The scheduler: one warehouse over many autonomous sources (paper §1
//! Figure 1.1), every channel a connection that can be made faulty.
//!
//! [`ChaosSimulation`] is the only engine in this crate. Each registered
//! source owns its script and its own channel; a single
//! [`Warehouse`] hosts every view and routes events per channel. The §3
//! FIFO assumption holds *per channel* — the interleaving **across**
//! channels is what a [`Policy`] schedules, out of the four §3 events
//! (`S_up`/`S_qu`/`W_up`/`W_ans`), each one call of the sans-IO code every
//! deployment runs: [`Source::on_script_step`], [`Source::on_message`],
//! [`Warehouse::on_message`] (plus [`Warehouse::ack`]). A channel is a
//! queue of [`Message`] values per direction, metered by structural
//! encoded length, whose [`FaultClock`] decides which sends reset it.
//! The paper's §2 assumptions (reliable, FIFO, exactly-once delivery)
//! hold across a fault only as far as the source's [`Outbox`] and the
//! warehouse recovery policy restore them. The default
//! [`ChaosProfile::none`] resets nothing: the RNG draws and *logical*
//! meters are exactly those of a scheduler over bare in-memory FIFOs —
//! the fingerprints pinned in `tests/golden_trace.rs` (captured before
//! any transport existed, and from the plain multi-source scheduler
//! this engine replaced) hold it to that.
//!
//! Every fault takes one recovery path, [`ChaosSimulation`]'s reconnect:
//! a fresh connection on which the source resumes its notification
//! outbox from the warehouse's watermark and the warehouse runs
//! [`Warehouse::on_reset`] — pending queries of compensation-safe views
//! are re-issued, others degrade to an RV-style resync. The faults
//! differ only in what survives:
//!
//! * a connection reset ([`FaultPlan`]) loses what was in flight; the
//!   outbox re-sends the lost notifications;
//! * a scripted source **restart** ([`RestartSite::Source`]) also loses
//!   the outbox, so the resume cannot serve the watermark and every view
//!   over the site resyncs from a fresh `V(ss)` (Alg. D.1);
//! * a scripted **warehouse crash** ([`RestartSite::Warehouse`]) loses
//!   the warehouse process: it recovers from its log and checkpoint and
//!   every source resumes from the durable watermark — or, with nothing
//!   to recover from, every view resyncs.
//!
//! Answers that reach the warehouse under a retired (stale-epoch) query
//! id are rejected by the session's strict demux before any maintainer
//! state is touched; the harness counts them as
//! [`ChaosStats::stale_answers`] and moves on.

use std::collections::VecDeque;

use eca_core::maintainer::ViewMaintainer;
use eca_core::CoreError;
use eca_relational::Update;
use eca_source::Source;
use eca_warehouse::{
    DurabilityConfig, RecoveryOutcome, SourceId, ViewId, Warehouse, WarehouseError,
};
use eca_wire::{Direction, FaultClock, FaultPlan, Message, Outbox, Resume, TransferMeter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Policy, SimError, SiteReport, TraceEvent, ViewRunReport};

/// Scheduler iterations before a run is declared livelocked. Every
/// iteration fires an event or heals a connection; the largest
/// legitimate run takes a few thousand.
const STEP_CAP: u64 = 100_000;

/// A view registered without a factory cannot be rebuilt after a
/// warehouse crash; [`ChaosSimulation::run`] refuses such a schedule.
const CRASH_NEEDS_FACTORY: &str = "warehouse crash scheduled but a view was registered without \
                                   a factory (use add_view_with_factory)";

/// Handle to a source site registered with a [`ChaosSimulation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteId(pub usize);

/// Which site a scripted restart kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RestartSite {
    /// The source endpoint crashes and comes back without its outbox:
    /// in-flight notifications may be gone, and every view over the site
    /// resyncs from a fresh `V(ss)`.
    Source,
    /// The **warehouse** process crashes and restarts from disk: every
    /// channel (all sites) is torn down, the warehouse is rebuilt from
    /// its view factories and recovered via
    /// [`Warehouse::recover_durability`] — or, without durability, via
    /// the paper's §4 amnesia fallback (full resync everywhere).
    Warehouse,
}

/// One scripted restart event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Restart {
    /// Scheduler step at which the crash fires.
    pub at: u64,
    /// Which endpoint dies.
    pub site: RestartSite,
}

/// The fault schedule of one site's channel.
#[derive(Clone, Debug)]
pub struct ChaosProfile {
    /// Resets fired by source → warehouse sends (notifications and
    /// answers).
    pub s2w: FaultPlan,
    /// Resets fired by warehouse → source sends (queries and acks).
    pub w2s: FaultPlan,
    /// Scripted restarts, ordered by step. [`RestartSite::Source`]
    /// events kill this site's source endpoint;
    /// [`RestartSite::Warehouse`] events kill the warehouse process
    /// itself (affecting every site, but scheduled here so per-site
    /// profiles stay the single source of fault truth).
    pub restarts: Vec<Restart>,
}

impl ChaosProfile {
    /// A profile that never injects anything — the stack becomes
    /// transparent and runs match a scheduler over bare FIFOs exactly.
    pub fn none() -> Self {
        ChaosProfile {
            s2w: FaultPlan::none(),
            w2s: FaultPlan::none(),
            restarts: Vec::new(),
        }
    }

    /// The same plan on both directions, independently seeded (the
    /// reverse stream is [`FaultPlan::reseeded`] so the two directions
    /// draw different schedules).
    pub fn symmetric(plan: FaultPlan) -> Self {
        ChaosProfile {
            w2s: plan.clone().reseeded(0x5157),
            s2w: plan,
            restarts: Vec::new(),
        }
    }

    /// The same profile with scripted **source** restarts at the given
    /// scheduler steps (see [`ChaosProfile::with_warehouse_crashes`] for
    /// the other side).
    pub fn with_restarts(self, steps: &[u64]) -> Self {
        self.schedule(steps, RestartSite::Source)
    }

    /// The same profile with scripted **warehouse** crashes at the given
    /// scheduler steps. The warehouse is global, so schedule these on
    /// one site only; each fires once.
    pub fn with_warehouse_crashes(self, steps: &[u64]) -> Self {
        self.schedule(steps, RestartSite::Warehouse)
    }

    /// Add restarts of `site` at `steps` to the schedule, keeping it
    /// ordered by step (the two `with_*` builders chain in either order).
    fn schedule(mut self, steps: &[u64], site: RestartSite) -> Self {
        self.restarts
            .extend(steps.iter().map(|&at| Restart { at, site }));
        self.restarts.sort_unstable();
        self
    }
}

/// Everything the chaos run injected and what it cost to heal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Scheduler iterations consumed (events plus healing steps).
    pub steps: u64,
    /// Connection resets healed by reconnecting.
    pub resets: u64,
    /// Scripted source restarts executed.
    pub restarts: u64,
    /// Scripted warehouse crashes executed.
    pub warehouse_restarts: u64,
    /// Update notifications re-sent from source outboxes on resume: the
    /// tail past the warehouse's watermark after a reset or a crash.
    pub resync_notifications: u64,
    /// Source channels recovered incrementally (checkpoint + log tail)
    /// across all warehouse crashes.
    pub recovered_incremental: u64,
    /// Source channels recovered via the full §4 fallback across all
    /// warehouse crashes.
    pub recovered_full: u64,
    /// WAL records replayed during incremental recoveries — the
    /// "updates since checkpoint" the recovery cost is proportional to.
    pub wal_replayed: u64,
    /// Queries re-issued under fresh ids by the recovery policy.
    pub reissued: u64,
    /// RV-style resyncs started.
    pub resyncs_started: u64,
    /// RV-style resyncs completed (answers installed via `reset_to`).
    pub resyncs_completed: u64,
    /// Answers rejected by strict demux as addressed to a dead epoch.
    pub stale_answers: u64,
}

/// Raw-vs-logical transfer accounting for one site's channel: the cost
/// of the resume layer itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkOverhead {
    /// Bytes the wire actually carried (application messages and acks,
    /// but not sends a reset refused), both directions.
    pub raw_bytes: u64,
    /// Bytes the application logically transferred, both directions —
    /// what a fault-free in-memory run charges, plus resumed re-sends.
    pub logical_bytes: u64,
    /// Messages the wire actually carried, both directions.
    pub raw_messages: u64,
    /// Messages the application logically transferred, both directions.
    pub logical_messages: u64,
}

/// Everything observed during one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosRunReport {
    /// One report per hosted view, in registration order.
    pub views: Vec<ViewRunReport>,
    /// One *logical* meter report per site: what a fault-free run
    /// charges, plus whatever recovery had to re-send.
    pub sites: Vec<SiteReport>,
    /// Raw-vs-logical accounting per site.
    pub overhead: Vec<LinkOverhead>,
    /// Whether the warehouse ended with no outstanding work and every
    /// view healthy.
    pub quiescent: bool,
    /// Injection and recovery counters.
    pub stats: ChaosStats,
    /// Wall-clock time spent inside warehouse recovery (checkpoint
    /// load, log replay, resync planning), summed over every crash.
    /// Zero when no warehouse crash fired. Kept out of [`ChaosStats`]
    /// so seeded runs stay bit-for-bit comparable.
    pub recovery_time: std::time::Duration,
    /// The interleaved event trace, each event tagged with its site.
    pub trace: Vec<(SiteId, TraceEvent)>,
}

impl ChaosRunReport {
    /// Convergence (§3.1): every view's final `MV` equals the view over
    /// the final source state — the bar a chaos run must clear no matter
    /// what was injected.
    pub fn converged(&self) -> bool {
        self.views.iter().all(ViewRunReport::converged)
    }
}

/// One direction of a site's connection: the messages in flight, the
/// reset clock that decides which sends the connection refuses, and the
/// site's two meters.
struct Lane {
    queue: VecDeque<Message>,
    clock: FaultClock,
    direction: Direction,
    logical: TransferMeter,
    raw: TransferMeter,
}

impl Lane {
    fn new(plan: FaultPlan, direction: Direction, meters: &(TransferMeter, TransferMeter)) -> Lane {
        Lane {
            queue: VecDeque::new(),
            clock: FaultClock::new(plan),
            direction,
            logical: meters.0.clone(),
            raw: meters.1.clone(),
        }
    }

    /// An application send: charged once to the logical meter even when
    /// the connection refuses it — the next resume re-sends a lost
    /// notification, and the warehouse re-issues a lost query (and the
    /// query behind a lost answer).
    fn send(&mut self, msg: Message) {
        self.logical
            .record(self.direction, msg.encoded_len() as u64);
        self.carry(msg);
    }

    /// Put `msg` on the wire unless the connection refuses it, charging
    /// what the wire carried to the raw meter.
    fn carry(&mut self, msg: Message) {
        if self.clock.admit() {
            self.raw.record(self.direction, msg.encoded_len() as u64);
            self.queue.push_back(msg);
        }
    }

    /// Swap in a fresh connection: whatever was in flight is lost.
    fn reconnect(&mut self) {
        self.queue.clear();
        self.clock.reconnect();
    }
}

struct ChaosSite {
    name: String,
    source_id: SourceId,
    source: Source,
    script: VecDeque<Update>,
    /// The source's unacked notifications, resumed on every reconnect.
    outbox: Outbox,
    s2w: Lane,
    w2s: Lane,
    /// Application messages, charged once at logical send (re-sent
    /// notifications once more) — the meter whose totals match a
    /// fault-free in-memory run.
    logical: TransferMeter,
    /// Everything the wire actually carried, acks included, across
    /// every connection this site goes through.
    raw: TransferMeter,
    profile: ChaosProfile,
    /// Index into `profile.restarts` of the next restart still to fire.
    next_restart: usize,
    /// Update notifications on the logical meter, re-sends included:
    /// splits its source → warehouse count into notifications and
    /// answers.
    notifications: u64,
}

impl ChaosSite {
    /// A source → warehouse send, kept in the outbox if a notification.
    fn send_s2w(&mut self, msg: Message) {
        self.outbox.push(&msg);
        self.s2w.send(msg);
    }

    /// Whether a query waits at the source, once the acks ahead of it
    /// have trimmed the outbox.
    fn has_query(&mut self) -> bool {
        while let Some(Message::Ack { next, .. }) = self.w2s.queue.front() {
            self.outbox.trim(*next);
            self.w2s.queue.pop_front();
        }
        !self.w2s.queue.is_empty()
    }
}

struct ChaosViewInfo {
    site: usize,
    view: eca_core::ViewDef,
    source_states: Vec<eca_relational::SignedBag>,
    /// Rebuilds the maintainer after a warehouse crash (its initial `MV`
    /// is discarded by recovery). Views registered without a factory
    /// cannot survive a warehouse crash.
    factory: Option<Box<dyn Fn() -> Box<dyn ViewMaintainer>>>,
}

/// One warehouse runtime scheduled over several autonomous sources,
/// each channel fault-free unless its [`ChaosProfile`] says otherwise.
///
/// ```
/// use eca_core::{algorithms::AlgorithmKind, ViewDef};
/// use eca_relational::{Predicate, Schema, Tuple, Update};
/// use eca_sim::{ChaosProfile, ChaosSimulation, Policy};
/// use eca_source::Source;
/// use eca_storage::Scenario;
/// use eca_wire::FaultPlan;
///
/// let view = ViewDef::new(
///     "V",
///     vec![Schema::new("r1", &["W", "X"]), Schema::new("r2", &["X", "Y"])],
///     Predicate::col_eq(1, 2),
///     vec![0],
/// )?;
/// let mut source = Source::new(Scenario::Indexed);
/// source.add_relation(Schema::new("r1", &["W", "X"]), 20, None, &[])?;
/// source.add_relation(Schema::new("r2", &["X", "Y"]), 20, None, &[])?;
/// source.load("r1", [Tuple::ints([1, 2])])?;
/// let initial = view.eval(&source.snapshot())?;
/// let maintainer = AlgorithmKind::Eca.instantiate(&view, initial)?;
///
/// let mut sim = ChaosSimulation::new();
/// let site = sim.add_source_with(
///     "s1",
///     source,
///     vec![Update::insert("r2", Tuple::ints([2, 3]))],
///     ChaosProfile::symmetric(FaultPlan::resets(7, 0.2)),
/// );
/// sim.add_view(site, maintainer)?;
/// let report = sim.run(Policy::Random { seed: 7 })?;
/// assert!(report.converged());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ChaosSimulation {
    warehouse: Warehouse,
    sites: Vec<ChaosSite>,
    views: Vec<ChaosViewInfo>,
    trace: Vec<(SiteId, TraceEvent)>,
    stats: ChaosStats,
    /// Durability config the warehouse runs under; also what a crashed
    /// warehouse recovers from. `None` → crashes recover via the §4
    /// amnesia fallback (full resync everywhere).
    durability: Option<DurabilityConfig>,
    /// Recovery-stat totals absorbed from warehouses that crashed.
    recovery_base: eca_warehouse::RecoveryStats,
    recovery_time: std::time::Duration,
}

impl Default for ChaosSimulation {
    fn default() -> Self {
        ChaosSimulation::new()
    }
}

impl ChaosSimulation {
    /// An empty system: no sources, no views, no faults.
    pub fn new() -> Self {
        ChaosSimulation {
            warehouse: Warehouse::new(),
            sites: Vec::new(),
            views: Vec::new(),
            trace: Vec::new(),
            stats: ChaosStats::default(),
            durability: None,
            recovery_base: eca_warehouse::RecoveryStats::default(),
            recovery_time: std::time::Duration::ZERO,
        }
    }

    /// Register a source with a transparent (fault-free) channel.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        source: Source,
        script: Vec<Update>,
    ) -> SiteId {
        self.add_source_with(name, source, script, ChaosProfile::none())
    }

    /// Register a source whose channel follows `profile`.
    pub fn add_source_with(
        &mut self,
        name: impl Into<String>,
        source: Source,
        script: Vec<Update>,
        profile: ChaosProfile,
    ) -> SiteId {
        let name = name.into();
        let source_id = self.warehouse.add_source(name.clone());
        let meters = (TransferMeter::new(), TransferMeter::new());
        self.sites.push(ChaosSite {
            name,
            source_id,
            source,
            script: script.into(),
            outbox: Outbox::default(),
            s2w: Lane::new(profile.s2w.clone(), Direction::SourceToWarehouse, &meters),
            w2s: Lane::new(profile.w2s.clone(), Direction::WarehouseToSource, &meters),
            logical: meters.0,
            raw: meters.1,
            profile,
            next_restart: 0,
            notifications: 0,
        });
        SiteId(self.sites.len() - 1)
    }

    /// Run the warehouse durably under `config`: every committed
    /// maintenance event is logged, checkpoints are cut at quiescent
    /// points, and scripted [`RestartSite::Warehouse`] crashes recover
    /// from disk instead of falling back to full resyncs.
    ///
    /// Call after every source is registered (the log is per-source);
    /// views registered later join the checkpoint at the next quiescent
    /// cut.
    ///
    /// # Errors
    /// Propagates I/O failures creating the durability directory or the
    /// initial logs.
    pub fn enable_durability(&mut self, config: DurabilityConfig) -> Result<(), SimError> {
        self.warehouse.enable_durability(config.clone())?;
        self.durability = Some(config);
        Ok(())
    }

    /// Host a view over `site`. The maintainer's initial `MV` must equal
    /// the view evaluated on the site's current state.
    ///
    /// # Errors
    /// Propagates view-evaluation failures on the initial snapshot.
    pub fn add_view(
        &mut self,
        site: SiteId,
        maintainer: Box<dyn ViewMaintainer>,
    ) -> Result<ViewId, SimError> {
        self.install_view(site, maintainer, None)
    }

    /// Host a view built by `factory`, keeping the factory so the view
    /// can be re-instantiated after a scripted warehouse crash. Required
    /// for every view when the run schedules
    /// [`RestartSite::Warehouse`] events.
    ///
    /// # Errors
    /// Propagates view-evaluation failures on the initial snapshot.
    pub fn add_view_with_factory(
        &mut self,
        site: SiteId,
        factory: impl Fn() -> Box<dyn ViewMaintainer> + 'static,
    ) -> Result<ViewId, SimError> {
        let maintainer = factory();
        self.install_view(site, maintainer, Some(Box::new(factory)))
    }

    fn install_view(
        &mut self,
        site: SiteId,
        maintainer: Box<dyn ViewMaintainer>,
        factory: Option<Box<dyn Fn() -> Box<dyn ViewMaintainer>>>,
    ) -> Result<ViewId, SimError> {
        let view = maintainer.view().clone();
        let initial = view.eval(&self.sites[site.0].source.snapshot())?;
        let id = self
            .warehouse
            .add_view(self.sites[site.0].source_id, maintainer)?;
        self.views.push(ChaosViewInfo {
            site: site.0,
            view,
            source_states: vec![initial],
            factory,
        });
        Ok(id)
    }

    /// Run to quiescence under `policy` and report.
    ///
    /// # Errors
    /// Propagates warehouse and source errors; a run that
    /// cannot settle within the step cap reports [`SimError::Protocol`]
    /// (livelock), and so does — before the first step — a schedule
    /// with a [`RestartSite::Warehouse`] event while some view has no
    /// factory to rebuild it from.
    pub fn run(mut self, policy: Policy) -> Result<ChaosRunReport, SimError> {
        let crashes = self
            .sites
            .iter()
            .flat_map(|s| &s.profile.restarts)
            .any(|r| r.site == RestartSite::Warehouse);
        if crashes && self.views.iter().any(|v| v.factory.is_none()) {
            return Err(SimError::Protocol(CRASH_NEEDS_FACTORY));
        }
        let mut steps = 0u64;
        match policy {
            Policy::Serial => {
                while self.sites.iter().any(|s| !s.script.is_empty()) {
                    for i in 0..self.sites.len() {
                        if !self.sites[i].script.is_empty() {
                            self.step_source_update(i)?;
                            self.settle(&mut steps)?;
                        }
                    }
                }
                self.settle(&mut steps)?;
            }
            Policy::AllUpdatesFirst => {
                for i in 0..self.sites.len() {
                    while !self.sites[i].script.is_empty() {
                        self.step_source_update(i)?;
                    }
                }
                self.settle(&mut steps)?;
            }
            Policy::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                loop {
                    self.tick(&mut steps)?;
                    let healed = self.heal_resets()?;
                    // The enabled-event vocabulary and push order are
                    // pinned by the golden fingerprints: a fault-free
                    // run must keep taking exactly these RNG draws.
                    let mut enabled: Vec<(usize, u8)> = Vec::new();
                    for i in 0..self.sites.len() {
                        if !self.sites[i].script.is_empty() {
                            enabled.push((i, 0));
                        }
                        if self.sites[i].has_query() {
                            enabled.push((i, 1));
                        }
                        if !self.sites[i].s2w.queue.is_empty() {
                            enabled.push((i, 2));
                        }
                    }
                    if enabled.is_empty() {
                        // A reconnect may have re-sent nothing, or reset
                        // again on its first send: only a step with
                        // nothing to heal ends the run.
                        if healed {
                            continue;
                        }
                        break;
                    }
                    let (site, ev) = enabled[rng.gen_range(0..enabled.len())];
                    match ev {
                        0 => self.step_source_update(site)?,
                        1 => self.step_source_answer(site)?,
                        _ => self.step_warehouse_deliver(site)?,
                    }
                }
            }
        }
        self.stats.steps = steps;
        Ok(self.into_report())
    }

    /// Count one scheduler step against the cap and fire every scripted
    /// restart that has come due at it. Runs outside any RNG draw, so
    /// restart events never perturb a seeded schedule's draw sequence.
    fn tick(&mut self, steps: &mut u64) -> Result<(), SimError> {
        *steps += 1;
        if *steps > STEP_CAP {
            return Err(SimError::Protocol(
                "chaos scheduler exceeded its step cap (livelock)",
            ));
        }
        for i in 0..self.sites.len() {
            while let Some(due) = self.sites[i]
                .profile
                .restarts
                .get(self.sites[i].next_restart)
                .copied()
                .filter(|r| r.at <= *steps)
            {
                self.sites[i].next_restart += 1;
                match due.site {
                    RestartSite::Source => {
                        self.stats.restarts += 1;
                        self.sites[i].outbox.clear();
                        self.reconnect(i, None)?;
                    }
                    RestartSite::Warehouse => self.crash_warehouse()?,
                }
            }
        }
        Ok(())
    }

    /// Deliver and heal until no channel has anything left to do.
    fn settle(&mut self, steps: &mut u64) -> Result<(), SimError> {
        loop {
            self.tick(steps)?;
            let mut progressed = self.heal_resets()?;
            for i in 0..self.sites.len() {
                while !self.sites[i].s2w.queue.is_empty() {
                    self.step_warehouse_deliver(i)?;
                    progressed = true;
                }
                while self.sites[i].has_query() {
                    self.step_source_answer(i)?;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Kill the warehouse process and bring it back. The old instance —
    /// sessions, view state, unsynced log buffers — is dropped on the
    /// floor; a replacement is rebuilt from the registered factories and
    /// recovered from disk ([`Warehouse::recover_durability`]) or, when
    /// the run is not durable, reset into the paper's §4 amnesia
    /// fallback: every view degrades and resyncs from a fresh `V(ss)`.
    /// Every site then reconnects and resumes from its recovered
    /// watermark.
    fn crash_warehouse(&mut self) -> Result<(), SimError> {
        self.stats.warehouse_restarts += 1;
        let dying = self.warehouse.recovery_stats();
        self.recovery_base.reissued += dying.reissued;
        self.recovery_base.resyncs_started += dying.resyncs_started;
        self.recovery_base.resyncs_completed += dying.resyncs_completed;
        // Rebuild the deployment shape. Factories are mandatory: a
        // recovered maintainer's state comes from disk (or a resync),
        // never from the dead instance.
        let mut fresh = Warehouse::new();
        for s in &self.sites {
            let _ = fresh.add_source(s.name.clone());
        }
        for info in &self.views {
            let Some(factory) = &info.factory else {
                return Err(SimError::Protocol(CRASH_NEEDS_FACTORY));
            };
            fresh.add_view(self.sites[info.site].source_id, factory())?;
        }
        // The crash: dropping the old warehouse loses exactly what a
        // real process loses — everything not on disk.
        self.warehouse = fresh;
        let started = std::time::Instant::now();
        let outcomes = match self.durability.clone() {
            Some(config) => self.warehouse.recover_durability(config)?,
            None => {
                let mut outcomes = Vec::with_capacity(self.sites.len());
                for site in &self.sites {
                    let source = site.source_id;
                    let messages = self.warehouse.on_reset(source, true)?;
                    outcomes.push(RecoveryOutcome::Full { source, messages });
                }
                outcomes
            }
        };
        self.recovery_time += started.elapsed();
        for outcome in outcomes {
            match &outcome {
                RecoveryOutcome::Incremental { replayed, .. } => {
                    self.stats.recovered_incremental += 1;
                    self.stats.wal_replayed += replayed;
                }
                RecoveryOutcome::Full { .. } => self.stats.recovered_full += 1,
            }
            self.reconnect(outcome.source().0, Some(outcome))?;
        }
        Ok(())
    }

    /// Reconnect every channel a reset killed. Returns whether any was.
    fn heal_resets(&mut self) -> Result<bool, SimError> {
        let mut healed = false;
        for i in 0..self.sites.len() {
            let s = &mut self.sites[i];
            // Both flags are taken: each clears on observation.
            if s.s2w.clock.take_reset() | s.w2s.clock.take_reset() {
                self.stats.resets += 1;
                self.reconnect(i, None)?;
                healed = true;
            }
        }
        Ok(healed)
    }

    /// The one recovery path: give site `i` a fresh connection and
    /// resume both ends at the warehouse's notification watermark. The
    /// source re-sends its outbox past the watermark, and the warehouse
    /// re-issues its in-flight queries — `recovered` holds those a crash
    /// recovery already re-issued; otherwise [`Warehouse::on_reset`]
    /// does. A source that cannot serve the watermark (or a warehouse
    /// that recovered without one) puts the channel on the §4 resync.
    fn reconnect(&mut self, i: usize, recovered: Option<RecoveryOutcome>) -> Result<(), SimError> {
        let source_id = self.sites[i].source_id;
        let watermark = self.warehouse.notifications_seen(source_id);
        let s = &mut self.sites[i];
        // Fresh connection: the reset clocks continue from where the
        // dead one stopped, so scripted points keep their meaning and
        // fired resets never re-fire.
        s.s2w.reconnect();
        s.w2s.reconnect();
        if matches!(recovered, Some(RecoveryOutcome::Full { .. })) {
            // The warehouse came back with nothing the outbox can serve.
            s.outbox.clear();
        }
        let (resumed, tail) = s.outbox.resume(watermark);
        for msg in tail {
            s.s2w.send(msg.clone());
        }
        if let Resume::Replayed(n) = resumed {
            s.notifications += n;
            self.stats.resync_notifications += n;
        }
        let queries = match (resumed, recovered) {
            // Recovery already reset the channel the way the resume
            // needs: incrementally, or with every view degraded.
            (Resume::Replayed(_), Some(RecoveryOutcome::Incremental { messages, .. }))
            | (Resume::Resync, Some(RecoveryOutcome::Full { messages, .. })) => messages,
            (resumed, _) => self
                .warehouse
                .on_reset(source_id, resumed == Resume::Resync)?,
        };
        for msg in queries {
            self.sites[i].w2s.send(msg);
        }
        Ok(())
    }

    /// `S_up` at site `i`.
    fn step_source_update(&mut self, i: usize) -> Result<(), SimError> {
        let site = &mut self.sites[i];
        let Some(update) = site.script.pop_front() else {
            return Err(SimError::Protocol("S_up fired with an empty script"));
        };
        let notification = site.source.on_script_step(&update);
        let effective = notification.is_some();
        if let Some(msg) = notification {
            let snapshot = site.source.snapshot();
            for info in self.views.iter_mut().filter(|v| v.site == i) {
                info.source_states.push(info.view.eval(&snapshot)?);
            }
            site.send_s2w(msg);
            site.notifications += 1;
        }
        self.trace
            .push((SiteId(i), TraceEvent::SourceUpdate { update, effective }));
        Ok(())
    }

    /// `S_qu` at site `i`: the source evaluates a query on its *current*
    /// state. Re-issued and resync queries are new messages under fresh
    /// ids.
    fn step_source_answer(&mut self, i: usize) -> Result<(), SimError> {
        let site = &mut self.sites[i];
        let Some(msg) = site.w2s.queue.pop_front() else {
            return Err(SimError::Protocol(
                "S_qu fired without a QueryRequest pending",
            ));
        };
        let reply = site.source.on_message(msg)?;
        if let Message::QueryAnswer { id, answer } = &reply {
            let tuples = answer.pos_len() + answer.neg_len();
            self.trace
                .push((SiteId(i), TraceEvent::SourceAnswer { id: *id, tuples }));
            site.logical.record_answer(answer);
        }
        site.send_s2w(reply);
        Ok(())
    }

    /// `W_up`/`W_ans` for site `i`'s channel, then an ack of whatever
    /// watermark the warehouse may now acknowledge. Answers addressed to
    /// a retired (stale-epoch) id are rejected by the session's strict
    /// demux before touching any maintainer; the harness counts and
    /// drops them.
    fn step_warehouse_deliver(&mut self, i: usize) -> Result<(), SimError> {
        let source_id = self.sites[i].source_id;
        let Some(msg) = self.sites[i].s2w.queue.pop_front() else {
            return Err(SimError::Protocol(
                "warehouse delivery fired with an empty channel",
            ));
        };
        // The trace event comes from the message, before the warehouse
        // consumes it; a stale answer leaves none.
        let mut event = if let Message::UpdateNotification { update } = &msg {
            Some(TraceEvent::WarehouseUpdate {
                update: update.clone(),
                queries_sent: Vec::new(),
            })
        } else if let Message::QueryAnswer { id, .. } = &msg {
            Some(TraceEvent::WarehouseAnswer { id: *id })
        } else {
            None
        };
        let queries = match self.warehouse.on_message(source_id, msg) {
            Ok(queries) => queries,
            Err(WarehouseError::Core(CoreError::UnknownQuery { .. })) => {
                self.stats.stale_answers += 1;
                event = None;
                Vec::new()
            }
            Err(e) => return Err(e.into()),
        };
        if let Some(TraceEvent::WarehouseUpdate { queries_sent, .. }) = &mut event {
            for query in &queries {
                if let Message::QueryRequest { id, .. } = query {
                    queries_sent.push(*id);
                }
            }
        }
        self.trace.extend(event.map(|e| (SiteId(i), e)));
        let site = &mut self.sites[i];
        for query in queries {
            site.w2s.send(query);
        }
        if let Some(ack) = self.warehouse.ack(source_id)? {
            site.w2s.carry(ack);
        }
        Ok(())
    }

    fn into_report(mut self) -> ChaosRunReport {
        // Cumulative over every warehouse incarnation: the live
        // instance's counters plus everything absorbed at crash time.
        let recovery = self.warehouse.recovery_stats();
        self.stats.reissued = self.recovery_base.reissued + recovery.reissued;
        self.stats.resyncs_started = self.recovery_base.resyncs_started + recovery.resyncs_started;
        self.stats.resyncs_completed =
            self.recovery_base.resyncs_completed + recovery.resyncs_completed;
        let quiescent = self.warehouse.is_quiescent();
        let views = self
            .views
            .iter()
            .enumerate()
            .map(|(idx, info)| {
                let id = ViewId(idx);
                ViewRunReport {
                    view_name: info.view.name().to_string(),
                    site: SiteId(info.site),
                    algorithm: self.warehouse.maintainer(id).algorithm(),
                    source_view_states: info.source_states.clone(),
                    warehouse_view_states: self.warehouse.view_states(id).to_vec(),
                    final_mv: self.warehouse.materialized(id).clone(),
                    final_source_view: info.source_states.last().cloned().unwrap_or_default(),
                    selfmaint: self.warehouse.maintainer(id).selfmaint_stats(),
                }
            })
            .collect();
        let sites = self
            .sites
            .iter()
            .map(|s| SiteReport {
                name: s.name.clone(),
                query_messages: s.logical.messages_w2s(),
                answer_messages: s.logical.messages_s2w() - s.notifications,
                notification_messages: s.notifications,
                answer_bytes: s.logical.answer_bytes(),
                answer_tuples: s.logical.answer_tuples(),
                bytes_s2w: s.logical.bytes_s2w(),
                bytes_w2s: s.logical.bytes_w2s(),
                io_reads: s.source.io_meter().query_reads(),
            })
            .collect();
        let overhead = self
            .sites
            .iter()
            .map(|s| LinkOverhead {
                raw_bytes: s.raw.bytes_s2w() + s.raw.bytes_w2s(),
                logical_bytes: s.logical.bytes_s2w() + s.logical.bytes_w2s(),
                raw_messages: s.raw.messages_s2w() + s.raw.messages_w2s(),
                logical_messages: s.logical.messages_s2w() + s.logical.messages_w2s(),
            })
            .collect();
        ChaosRunReport {
            views,
            sites,
            overhead,
            quiescent,
            stats: self.stats,
            recovery_time: self.recovery_time,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::{QueryId, ViewDef};
    use eca_relational::{Predicate, Schema, Tuple};
    use eca_storage::Scenario;

    fn site_a() -> (Source, ViewDef, Vec<Update>) {
        let view = ViewDef::new(
            "V1",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap();
        let mut source = Source::new(Scenario::Indexed);
        source
            .add_relation(Schema::new("r1", &["W", "X"]), 20, Some("X"), &[])
            .unwrap();
        source
            .add_relation(Schema::new("r2", &["X", "Y"]), 20, Some("X"), &[])
            .unwrap();
        source.load("r1", [Tuple::ints([1, 2])]).unwrap();
        let script = vec![
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
            Update::delete("r2", Tuple::ints([2, 3])),
            Update::insert("r2", Tuple::ints([2, 7])),
        ];
        (source, view, script)
    }

    fn site_b() -> (Source, ViewDef, Vec<Update>) {
        let view = ViewDef::new(
            "V2",
            vec![
                Schema::new("r3", &["A", "B"]),
                Schema::new("r4", &["B", "C"]),
            ],
            Predicate::col_eq(1, 2),
            vec![1],
        )
        .unwrap();
        let mut source = Source::new(Scenario::Indexed);
        source
            .add_relation(Schema::new("r3", &["A", "B"]), 20, Some("B"), &[])
            .unwrap();
        source
            .add_relation(Schema::new("r4", &["B", "C"]), 20, Some("B"), &[])
            .unwrap();
        source.load("r4", [Tuple::ints([5, 6])]).unwrap();
        let script = vec![
            Update::insert("r3", Tuple::ints([9, 5])),
            Update::delete("r4", Tuple::ints([5, 6])),
            Update::insert("r4", Tuple::ints([5, 8])),
        ];
        (source, view, script)
    }

    /// The two sites, one view each maintained by `kind`, channels
    /// following `profiles`. `keyed` declares every attribute of every
    /// base relation a key, so self-maintaining algorithms cover them.
    fn build_sites(
        kind: AlgorithmKind,
        profiles: [ChaosProfile; 2],
        keyed: bool,
    ) -> ChaosSimulation {
        let mut sim = ChaosSimulation::new();
        let fixtures = [("a", site_a()), ("b", site_b())];
        for ((name, (source, mut view, script)), profile) in fixtures.into_iter().zip(profiles) {
            if keyed {
                let schemas: Vec<Schema> = view
                    .base()
                    .iter()
                    .map(|s| {
                        let attrs: Vec<&str> = s.attrs().iter().map(String::as_str).collect();
                        Schema::with_key(s.relation(), &attrs, &attrs).unwrap()
                    })
                    .collect();
                let (cond, proj) = (view.cond().clone(), view.proj().to_vec());
                view = ViewDef::new(view.name(), schemas, cond, proj).unwrap();
            }
            let snapshot = source.snapshot();
            let initial = view.eval(&snapshot).unwrap();
            let maintainer = kind
                .instantiate_with_base(&view, initial, Some(snapshot))
                .unwrap();
            let site = sim.add_source_with(name, source, script, profile);
            sim.add_view(site, maintainer).unwrap();
        }
        sim
    }

    fn build_chaos(kind: AlgorithmKind, profiles: [ChaosProfile; 2]) -> ChaosSimulation {
        build_sites(kind, profiles, false)
    }

    /// Both channels fault-free: the plain multi-source deployment.
    fn build(kind: AlgorithmKind) -> ChaosSimulation {
        build_chaos(kind, [ChaosProfile::none(), ChaosProfile::none()])
    }

    fn build_keyed(kind: AlgorithmKind) -> ChaosSimulation {
        build_sites(kind, [ChaosProfile::none(), ChaosProfile::none()], true)
    }

    fn assert_strongly_consistent(report: &ChaosRunReport, label: &str) {
        for v in &report.views {
            let c = eca_consistency::check(&v.source_view_states, &v.warehouse_view_states);
            assert!(
                c.level() >= eca_consistency::Level::StronglyConsistent,
                "{label}, view {}: {:?}",
                v.view_name,
                c.level()
            );
        }
    }

    #[test]
    fn two_sources_two_views_converge_under_every_policy() {
        for policy in [
            Policy::Serial,
            Policy::AllUpdatesFirst,
            Policy::Random { seed: 11 },
        ] {
            let report = build(AlgorithmKind::Eca).run(policy).unwrap();
            assert!(report.quiescent, "{policy:?}");
            assert!(report.converged(), "{policy:?}");
            assert_eq!(report.views.len(), 2);
            assert_eq!(report.sites.len(), 2);
            // Fault-free: nothing injected, nothing re-sent — but the
            // wire still carried the acks.
            let s = report.stats;
            assert_eq!(
                (s.resets, s.restarts, s.resync_notifications),
                (0, 0, 0),
                "{policy:?}"
            );
            for o in &report.overhead {
                assert!(o.raw_bytes > o.logical_bytes);
            }
        }
    }

    #[test]
    fn each_view_is_strongly_consistent_under_random_interleavings() {
        for seed in 0..15 {
            let report = build(AlgorithmKind::Eca)
                .run(Policy::Random { seed })
                .unwrap();
            assert_strongly_consistent(&report, &format!("seed {seed}"));
        }
    }

    #[test]
    fn per_site_meters_are_independent() {
        let report = build(AlgorithmKind::Eca)
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        // ECA: each site's k effective updates cost it k queries and k
        // answers, whatever the other site did.
        for (site, k) in report.sites.iter().zip([4, 3]) {
            assert_eq!(site.notification_messages, k, "{}", site.name);
            assert_eq!(site.query_messages, k, "{}", site.name);
            assert_eq!(site.answer_messages, k, "{}", site.name);
            assert!(site.answer_bytes > 0);
            assert!(site.io_reads > 0);
        }
    }

    #[test]
    fn eca_aux_is_strongly_consistent_across_sites() {
        for seed in 0..15 {
            let report = build_keyed(AlgorithmKind::EcaAux)
                .run(Policy::Random { seed })
                .unwrap();
            assert!(report.quiescent, "seed {seed}");
            assert!(report.converged(), "seed {seed}");
            assert_strongly_consistent(&report, &format!("seed {seed}"));
        }
    }

    #[test]
    fn eca_aux_keeps_every_link_quiet() {
        // Self-maintained views: per-link meters must show the savings —
        // notifications flow, but no query or answer ever crosses.
        let report = build_keyed(AlgorithmKind::EcaAux)
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        assert!(report.converged());
        for (site, k) in report.sites.iter().zip([4, 3]) {
            assert_eq!(site.notification_messages, k, "{}", site.name);
            assert_eq!(site.query_messages, 0, "{}", site.name);
            assert_eq!(site.answer_messages, 0, "{}", site.name);
            assert_eq!(site.answer_bytes, 0, "{}", site.name);
            assert_eq!(site.io_reads, 0, "{}", site.name);
        }
        for v in &report.views {
            assert!(v.selfmaint.is_some(), "{} reports aux stats", v.view_name);
        }
    }

    #[test]
    fn cross_channel_ids_may_collide_but_route_correctly() {
        // Both sessions start their global id space at 1; the same
        // numeric id on different channels must reach different views.
        let report = build(AlgorithmKind::Eca)
            .run(Policy::Random { seed: 3 })
            .unwrap();
        let answered_at = |site: SiteId| -> Vec<QueryId> {
            report
                .trace
                .iter()
                .filter_map(|(s, e)| match e {
                    TraceEvent::WarehouseAnswer { id } if *s == site => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let (ids_a, ids_b) = (answered_at(SiteId(0)), answered_at(SiteId(1)));
        assert!(!ids_a.is_empty() && !ids_b.is_empty());
        assert!(ids_a.iter().any(|id| ids_b.contains(id)));
        assert!(report.converged());
    }

    #[test]
    fn restart_builders_chain_in_either_order() {
        let a = ChaosProfile::none()
            .with_warehouse_crashes(&[5])
            .with_restarts(&[9, 2]);
        let b = ChaosProfile::none()
            .with_restarts(&[9, 2])
            .with_warehouse_crashes(&[5]);
        assert_eq!(a.restarts, b.restarts);
        let at = |at, site| Restart { at, site };
        assert_eq!(
            a.restarts,
            [
                at(2, RestartSite::Source),
                at(5, RestartSite::Warehouse),
                at(9, RestartSite::Source),
            ]
        );
    }

    /// A warehouse crash needs every view's factory. The schedule is
    /// refused up front — even a crash step the run would never reach —
    /// rather than mid-run, after steps executed and the durability
    /// directory was written.
    #[test]
    fn warehouse_crash_without_factories_is_refused_before_the_first_step() {
        for at in [5, u64::MAX] {
            let profiles = [
                ChaosProfile::none().with_warehouse_crashes(&[at]),
                ChaosProfile::none(),
            ];
            let err = build_chaos(AlgorithmKind::Eca, profiles)
                .run(Policy::Random { seed: 17 })
                .unwrap_err();
            assert!(
                matches!(err, SimError::Protocol(CRASH_NEEDS_FACTORY)),
                "crash at {at}: {err}"
            );
        }
    }

    /// Rated and scripted resets mixed on both directions of both
    /// channels: every reset heals through the resume and the run
    /// converges.
    #[test]
    fn mixed_faults_heal_transparently_and_converge() {
        for seed in [3, 19, 77] {
            let profiles = [
                ChaosProfile::symmetric(FaultPlan::resets(seed, 0.15).with_resets(&[4])),
                ChaosProfile::symmetric(FaultPlan::resets(seed ^ 0xff, 0.15)),
            ];
            let report = build_chaos(AlgorithmKind::Eca, profiles)
                .run(Policy::Random { seed })
                .unwrap();
            assert!(report.converged(), "seed {seed}");
            assert!(report.quiescent, "seed {seed}");
            assert!(report.stats.resets > 0, "seed {seed}: plan must reset");
        }
    }

    #[test]
    fn faulty_run_matches_fault_free_golden_views() {
        let golden = build(AlgorithmKind::Eca).run(Policy::Serial).unwrap();
        let noisy = build_chaos(
            AlgorithmKind::Eca,
            [
                ChaosProfile::symmetric(FaultPlan::resets(5, 0.3)),
                ChaosProfile::symmetric(FaultPlan::resets(6, 0.3)),
            ],
        )
        .run(Policy::Serial)
        .unwrap();
        for (g, n) in golden.views.iter().zip(&noisy.views) {
            assert_eq!(g.final_mv, n.final_mv);
        }
        assert!(noisy.stats.resets > 0 && noisy.stats.resync_notifications > 0);
    }

    #[test]
    fn connection_reset_triggers_reissue_and_converges() {
        // Kill the warehouse→source direction early: a query (or an ack)
        // dies with the connection, the link reports the reset, and the
        // warehouse re-issues under a new epoch.
        let profiles = [
            ChaosProfile {
                s2w: FaultPlan::none(),
                w2s: FaultPlan::none().with_resets(&[2]),
                restarts: vec![],
            },
            ChaosProfile::none(),
        ];
        let report = build_chaos(AlgorithmKind::Eca, profiles)
            .run(Policy::Random { seed: 9 })
            .unwrap();
        assert!(report.converged());
        assert!(report.stats.resets >= 1);
        assert!(report.stats.reissued >= 1, "{:?}", report.stats);
    }

    #[test]
    fn scripted_restart_forces_resync_and_converges() {
        let profiles = [
            ChaosProfile::none().with_restarts(&[12]),
            ChaosProfile::none(),
        ];
        let report = build_chaos(AlgorithmKind::Eca, profiles)
            .run(Policy::Random { seed: 21 })
            .unwrap();
        assert!(report.converged());
        assert_eq!(report.stats.restarts, 1);
        assert!(report.stats.resyncs_started >= 1);
        assert_eq!(
            report.stats.resyncs_completed, report.stats.resyncs_started,
            "every started resync must complete"
        );
        assert!(report.quiescent);
    }

    #[test]
    fn basic_algorithm_recovers_via_resync_under_serial_faults() {
        // Basic is not compensation-safe (`reissue_safe` = false): any
        // pending query at reset time degrades its view straight to a
        // resync — and the run still converges.
        let profiles = [
            ChaosProfile {
                s2w: FaultPlan::none(),
                w2s: FaultPlan::none().with_resets(&[1]),
                restarts: vec![],
            },
            ChaosProfile::none(),
        ];
        let report = build_chaos(AlgorithmKind::Basic, profiles)
            .run(Policy::Serial)
            .unwrap();
        assert!(report.converged());
        assert!(report.quiescent);
    }

    fn build_chaos_with_factories(
        kind: AlgorithmKind,
        profiles: [ChaosProfile; 2],
    ) -> ChaosSimulation {
        let mut sim = ChaosSimulation::new();
        let fixtures = [("a", site_a()), ("b", site_b())];
        for ((name, (source, view, script)), profile) in fixtures.into_iter().zip(profiles) {
            let snapshot = source.snapshot();
            let site = sim.add_source_with(name, source, script, profile);
            sim.add_view_with_factory(site, move || {
                let initial = view.eval(&snapshot).unwrap();
                kind.instantiate_with_base(&view, initial, Some(snapshot.clone()))
                    .unwrap()
            })
            .unwrap();
        }
        sim
    }

    fn sim_tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eca-sim-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn warehouse_crash_without_durability_falls_back_to_full_resyncs() {
        let profiles = [
            ChaosProfile::none().with_warehouse_crashes(&[9]),
            ChaosProfile::none(),
        ];
        let report = build_chaos_with_factories(AlgorithmKind::Eca, profiles)
            .run(Policy::Random { seed: 17 })
            .unwrap();
        assert!(report.converged());
        assert!(report.quiescent);
        assert_eq!(report.stats.warehouse_restarts, 1);
        assert_eq!(report.stats.recovered_incremental, 0);
        assert_eq!(
            report.stats.recovered_full, 2,
            "amnesia fallback resets every source channel"
        );
        assert!(report.stats.resyncs_completed >= 2);
        assert_eq!(report.stats.resync_notifications, 0);
    }

    #[test]
    fn warehouse_crash_with_durability_recovers_and_converges() {
        let dir = sim_tmpdir("crash-recovers");
        let profiles = [
            ChaosProfile::none().with_warehouse_crashes(&[9]),
            ChaosProfile::none(),
        ];
        let mut sim = build_chaos_with_factories(AlgorithmKind::Eca, profiles);
        sim.enable_durability(DurabilityConfig::new(&dir)).unwrap();
        let report = sim.run(Policy::Random { seed: 17 }).unwrap();
        assert!(report.converged());
        assert!(report.quiescent);
        assert_eq!(report.stats.warehouse_restarts, 1);
        assert_eq!(
            report.stats.recovered_incremental, 2,
            "with a baseline checkpoint and an intact log every channel \
             recovers incrementally: {:?}",
            report.stats
        );
        assert_eq!(report.stats.recovered_full, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_fault_free_run_matches_plain_chaos_exactly() {
        let dir = sim_tmpdir("fault-free-identity");
        for policy in [Policy::Serial, Policy::Random { seed: 42 }] {
            let plain = build(AlgorithmKind::Eca).run(policy).unwrap();
            let mut durable = build(AlgorithmKind::Eca);
            let _ = std::fs::remove_dir_all(&dir);
            durable
                .enable_durability(DurabilityConfig::new(&dir))
                .unwrap();
            let durable = durable.run(policy).unwrap();
            assert_eq!(plain.stats, durable.stats, "{policy:?}");
            for (p, c) in plain.sites.iter().zip(&durable.sites) {
                assert_eq!(p.query_messages, c.query_messages, "{policy:?}");
                assert_eq!(p.answer_messages, c.answer_messages, "{policy:?}");
                assert_eq!(p.notification_messages, c.notification_messages);
                assert_eq!(p.bytes_s2w, c.bytes_s2w, "{policy:?}");
                assert_eq!(p.bytes_w2s, c.bytes_w2s, "{policy:?}");
            }
            for (p, c) in plain.views.iter().zip(&durable.views) {
                assert_eq!(p.final_mv, c.final_mv, "{policy:?}");
                assert_eq!(
                    p.warehouse_view_states, c.warehouse_view_states,
                    "{policy:?}: durability must not change the state history"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_runs_are_reproducible_per_seed() {
        let run = || {
            build_chaos(
                AlgorithmKind::Eca,
                [
                    ChaosProfile::symmetric(FaultPlan::resets(4, 0.2)),
                    ChaosProfile::symmetric(FaultPlan::resets(5, 0.2)),
                ],
            )
            .run(Policy::Random { seed: 33 })
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert!(a.stats.resets > 0);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.bytes_s2w, y.bytes_s2w);
            assert_eq!(x.bytes_w2s, y.bytes_w2s);
        }
    }

    /// The outbox stays bounded: under `Policy::Serial` with a volatile
    /// warehouse, or a durable one that syncs every record, each
    /// notification is acked by the settle that applies it, so at most
    /// one is ever outstanding after a settle.
    #[test]
    fn outbox_holds_at_most_one_notification_after_each_settle() {
        let dir = sim_tmpdir("outbox-bound");
        for durable in [false, true] {
            let mut sim = build(AlgorithmKind::Eca);
            if durable {
                let _ = std::fs::remove_dir_all(&dir);
                let config =
                    DurabilityConfig::new(&dir).with_fsync(eca_warehouse::FsyncPolicy::PerRecord);
                sim.enable_durability(config).unwrap();
            }
            let mut steps = 0;
            let mut settles = 0;
            while sim.sites.iter().any(|s| !s.script.is_empty()) {
                for i in 0..sim.sites.len() {
                    if !sim.sites[i].script.is_empty() {
                        sim.step_source_update(i).unwrap();
                        assert_eq!(sim.sites[i].outbox.len(), 1);
                        sim.settle(&mut steps).unwrap();
                        settles += 1;
                        for s in &sim.sites {
                            assert!(s.outbox.len() <= 1, "durable: {durable}");
                        }
                    }
                }
            }
            assert_eq!(settles, 7, "every scripted update settled");
            assert!(sim.into_report().converged());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

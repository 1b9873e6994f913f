//! The scheduler: one warehouse over many autonomous sources (paper §1
//! Figure 1.1), every channel a link stack that can be made faulty.
//!
//! [`ChaosSimulation`] is the only engine in this crate. Each registered
//! source owns its script and its own channel; a single
//! [`Warehouse`] hosts every view and routes events per channel. The §3
//! FIFO assumption holds *per channel* — the interleaving **across**
//! channels is what a [`Policy`] schedules, out of the four §3 events
//! (`S_up`/`S_qu`/`W_up`/`W_ans`). A channel is a pair of
//! [`ReliableLink`]s over [`FaultyTransport`]s, so the paper's §2
//! assumptions (reliable, FIFO, exactly-once delivery) hold only as far
//! as the session layer and the warehouse recovery policy restore them.
//! The default [`ChaosProfile::none`] makes the stack transparent: the
//! scheduler draws the RNG exactly as a scheduler over bare in-memory
//! FIFOs would and the *logical* meters charge exactly the same bytes
//! and messages — the fingerprints pinned in `tests/golden_trace.rs`
//! (captured before any transport existed, and from the plain
//! multi-source scheduler this engine replaced) hold it to that.
//!
//! Fault handling during a run:
//!
//! * drops, duplicates, delays and corruption are healed silently by the
//!   links (retransmission, dedup, reorder buffering, checksums);
//! * a connection reset ([`FaultKind::Reset`](eca_wire::FaultKind)) or a
//!   wedged link (retry cap exhausted) rewires the channel pair —
//!   session state survives ([`ReliableLink::reconnect`]), so nothing is
//!   lost, and the warehouse runs
//!   [`Warehouse::on_reset`]`(…, false)`: pending queries of
//!   compensation-safe views are re-issued, others degrade to an
//!   RV-style resync;
//! * a scripted **restart** ([`ChaosProfile::restarts`]) models a source
//!   crash: both endpoints lose their session state
//!   ([`ReliableLink::restart`]), in-flight notifications may be gone,
//!   and the warehouse runs `on_reset(…, true)` — every view over the
//!   site degrades and resyncs from a fresh `V(ss)` (Alg. D.1).
//!
//! Answers that reach the warehouse under a retired (stale-epoch) query
//! id are rejected by the session's strict demux before any maintainer
//! state is touched; the harness counts them as
//! [`ChaosStats::stale_answers`] and moves on.

use std::collections::{BTreeMap, VecDeque};

use eca_core::maintainer::ViewMaintainer;
use eca_core::{CoreError, QueryId};
use eca_relational::Update;
use eca_source::Source;
use eca_warehouse::{
    DurabilityConfig, RecoveryOutcome, SourceId, ViewId, Warehouse, WarehouseError,
};
use eca_wire::{
    FaultKind, FaultPlan, FaultyTransport, Message, ReliableLink, SharedFifo, TransferMeter,
    Transport, WireQuery,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Policy, SimError, SiteReport, TraceEvent, ViewRunReport};

/// Scheduler iterations before a run is declared livelocked. Generous:
/// idle iterations are cheap virtual-clock ticks, and even a fully
/// wedged link needs only a few thousand of them to trip its retry cap.
const STEP_CAP: u64 = 2_000_000;

/// A view registered without a factory cannot be rebuilt after a
/// warehouse crash; [`ChaosSimulation::run`] refuses such a schedule.
const CRASH_NEEDS_FACTORY: &str = "warehouse crash scheduled but a view was registered without \
                                   a factory (use add_view_with_factory)";

type ChaosLink = ReliableLink<FaultyTransport<SharedFifo>>;

/// Handle to a source site registered with a [`ChaosSimulation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteId(pub usize);

/// Which site a scripted restart kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RestartSite {
    /// The source endpoint crashes and comes back empty: session state
    /// on both ends is lost, in-flight notifications may be gone, and
    /// every view over the site resyncs from a fresh `V(ss)`.
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
    /// Faults injected on source → warehouse sends (notification and
    /// answer frames, and the source's acks).
    pub s2w: FaultPlan,
    /// Faults injected on warehouse → source sends (query frames and the
    /// warehouse's acks).
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
    /// scheduler steps (the historical vocabulary; see
    /// [`ChaosProfile::with_warehouse_crashes`] for the other side).
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

    /// Whether the profile can ever perturb the channel.
    pub fn is_none(&self) -> bool {
        self.s2w.is_none() && self.w2s.is_none() && self.restarts.is_empty()
    }
}

/// Everything the chaos run injected and what it cost to heal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Scheduler iterations consumed (app events plus idle ticks).
    pub steps: u64,
    /// Messages silently dropped by the fault layer.
    pub drops: u64,
    /// Messages delivered twice by the fault layer.
    pub duplicates: u64,
    /// Messages held back (reordered) by the fault layer.
    pub delays: u64,
    /// Frames corrupted by the fault layer.
    pub corrupts: u64,
    /// Connection failures healed by rewiring (scripted resets plus
    /// wedged links).
    pub resets: u64,
    /// Scripted source restarts executed.
    pub restarts: u64,
    /// Scripted warehouse crashes executed.
    pub warehouse_restarts: u64,
    /// Update notifications re-sent by sources after a warehouse crash
    /// (the incremental-resync tail: everything past the recovered
    /// watermark).
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
    /// Frames retransmitted by the session layer (both ends, all sites).
    pub retransmits: u64,
    /// Inbound frames the links discarded as duplicates.
    pub duplicates_dropped: u64,
    /// Inbound frames the links discarded on checksum mismatch.
    pub corrupt_dropped: u64,
}

/// Raw-vs-logical transfer accounting for one site's channel: the cost
/// of reliability itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkOverhead {
    /// Bytes the wire actually carried (frames, acks, retransmissions),
    /// both directions.
    pub raw_bytes: u64,
    /// Bytes the application logically transferred, both directions —
    /// what a fault-free in-memory run charges.
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
    /// charges, whatever the wire had to carry to get there.
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

struct ChaosSite {
    name: String,
    source_id: SourceId,
    source: Source,
    script: VecDeque<Update>,
    src_link: ChaosLink,
    wh_link: ChaosLink,
    /// Unique application messages, charged once at logical send — the
    /// meter whose totals match a fault-free in-memory run.
    logical: TransferMeter,
    /// Everything the wire actually carried, shared by every channel
    /// pair this site goes through across rewires.
    raw: TransferMeter,
    profile: ChaosProfile,
    /// Index into `profile.restarts` of the next restart still to fire.
    next_restart: usize,
    /// Unique effective update notifications sent (== `sent_history`
    /// length) — the coordinate system for durable watermarks.
    notifications_sent: u64,
    /// Re-sent copies after a warehouse crash; metered separately so
    /// `sent_history` indices keep their meaning.
    notifications_resent: u64,
    /// Every effective update ever notified, in send order. After a
    /// warehouse crash the tail past the recovered watermark is re-sent.
    sent_history: Vec<Update>,
    /// `notifications_sent` at the moment each outstanding answer was
    /// evaluated: the number of updates its snapshot subsumes.
    answer_watermarks: BTreeMap<QueryId, u64>,
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
///     ChaosProfile::symmetric(FaultPlan::mixed(7, 0.2)),
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
    /// Forwarded retry budget, replayed onto rebuilt warehouses.
    max_retries: Option<u32>,
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
            max_retries: None,
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
        let logical = TransferMeter::new();
        let raw = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(raw.clone());
        let src_link = ReliableLink::new(
            FaultyTransport::new(src_end, profile.s2w.clone()),
            logical.clone(),
        );
        let wh_link = ReliableLink::new(
            FaultyTransport::new(wh_end, profile.w2s.clone()),
            logical.clone(),
        );
        self.sites.push(ChaosSite {
            name,
            source_id,
            source,
            script: script.into(),
            src_link,
            wh_link,
            logical,
            raw,
            profile,
            next_restart: 0,
            notifications_sent: 0,
            notifications_resent: 0,
            sent_history: Vec::new(),
            answer_watermarks: BTreeMap::new(),
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

    /// Re-issue attempts per query before a view degrades to a resync
    /// (forwarded to [`Warehouse::set_max_retries`]).
    pub fn set_max_retries(&mut self, n: u32) {
        self.max_retries = Some(n);
        self.warehouse.set_max_retries(n);
    }

    /// Run to quiescence under `policy` and report.
    ///
    /// # Errors
    /// Propagates warehouse, source, transport and codec errors; a run
    /// that cannot settle within the step cap reports
    /// [`SimError::Protocol`] (livelock), and so does — before the first
    /// step — a schedule with a [`RestartSite::Warehouse`] event while
    /// some view has no factory to rebuild it from.
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
                    steps += 1;
                    if steps > STEP_CAP {
                        return Err(SimError::Protocol(
                            "chaos scheduler exceeded its step cap (livelock)",
                        ));
                    }
                    self.fire_due_restarts(steps)?;
                    self.heal_failures()?;
                    // The enabled-event vocabulary and push order are
                    // pinned by the golden fingerprints: a fault-free
                    // run must keep taking exactly these RNG draws.
                    let mut enabled: Vec<(usize, u8)> = Vec::new();
                    for i in 0..self.sites.len() {
                        if !self.sites[i].script.is_empty() {
                            enabled.push((i, 0));
                        }
                        if self.sites[i].src_link.has_inbound() {
                            enabled.push((i, 1));
                        }
                        if self.sites[i].wh_link.has_inbound() {
                            enabled.push((i, 2));
                        }
                    }
                    if enabled.is_empty() {
                        // Nothing for the application to do; if the
                        // session layer is still in flight, keep ticking
                        // (no RNG draw) so retransmissions fire.
                        if self.all_settled() {
                            break;
                        }
                        continue;
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

    /// Tick, deliver and heal until every link settles and every app
    /// message is consumed.
    fn settle(&mut self, steps: &mut u64) -> Result<(), SimError> {
        loop {
            *steps += 1;
            if *steps > STEP_CAP {
                return Err(SimError::Protocol(
                    "chaos scheduler exceeded its step cap (livelock)",
                ));
            }
            self.fire_due_restarts(*steps)?;
            self.heal_failures()?;
            let mut progressed = false;
            for i in 0..self.sites.len() {
                while self.sites[i].wh_link.has_inbound() {
                    self.step_warehouse_deliver(i)?;
                    progressed = true;
                }
                while self.sites[i].src_link.has_inbound() {
                    self.step_source_answer(i)?;
                    progressed = true;
                }
            }
            if !progressed && self.all_settled() {
                return Ok(());
            }
        }
    }

    /// Whether every channel is fully drained: no app message waiting
    /// and no frame unacked or buffered out of order. Messages still
    /// held back by a delay fault are deliberately *not* waited for:
    /// they only release on a later send of the same endpoint, and once
    /// both links are settled every seq has been acked and delivered, so
    /// a held copy can only be a redundant duplicate or ack.
    /// (`has_inbound` doubles as the clock tick.)
    fn all_settled(&mut self) -> bool {
        self.sites.iter_mut().all(|s| {
            !s.src_link.has_inbound()
                && !s.wh_link.has_inbound()
                && s.src_link.is_settled()
                && s.wh_link.is_settled()
        })
    }

    /// Fire every scripted restart that has come due at `step`. Runs
    /// outside any RNG draw, so adding restart events never perturbs a
    /// seeded schedule's draw sequence.
    fn fire_due_restarts(&mut self, step: u64) -> Result<(), SimError> {
        for i in 0..self.sites.len() {
            while let Some(due) = self.sites[i]
                .profile
                .restarts
                .get(self.sites[i].next_restart)
                .copied()
                .filter(|r| r.at <= step)
            {
                self.sites[i].next_restart += 1;
                match due.site {
                    RestartSite::Source => self.rewire(i, true)?,
                    RestartSite::Warehouse => self.crash_warehouse()?,
                }
            }
        }
        Ok(())
    }

    /// Kill the warehouse process and bring it back. The old instance —
    /// sessions, view state, unsynced log buffers — is dropped on the
    /// floor; a replacement is rebuilt from the registered factories and
    /// recovered from disk ([`Warehouse::recover_durability`]) or, when
    /// the run is not durable, reset into the paper's §4 amnesia
    /// fallback: every view degrades and resyncs from a fresh `V(ss)`.
    /// Every site's channel is torn down with it; sources then re-send
    /// the notification tail past each recovered watermark so
    /// incrementally recovered views converge without a full resync.
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
        if let Some(n) = self.max_retries {
            fresh.set_max_retries(n);
        }
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
        // (site index, incremental?, durable watermark, outbound queries)
        let outcomes: Vec<(usize, bool, u64, Vec<Message>)> =
            if let Some(config) = self.durability.clone() {
                self.warehouse
                    .recover_durability(config)?
                    .into_iter()
                    .map(|o| match o {
                        RecoveryOutcome::Incremental {
                            source,
                            replayed,
                            notifications_seen,
                            messages,
                        } => {
                            self.stats.recovered_incremental += 1;
                            self.stats.wal_replayed += replayed;
                            (source.0, true, notifications_seen, messages)
                        }
                        RecoveryOutcome::Full { source, messages } => {
                            self.stats.recovered_full += 1;
                            (source.0, false, 0, messages)
                        }
                    })
                    .collect()
            } else {
                let mut outcomes = Vec::with_capacity(self.sites.len());
                for i in 0..self.sites.len() {
                    let source_id = self.sites[i].source_id;
                    let messages = self.warehouse.on_reset(source_id, true)?;
                    self.stats.recovered_full += 1;
                    outcomes.push((i, false, 0, messages));
                }
                outcomes
            };
        self.recovery_time += started.elapsed();
        for (i, incremental, watermark, messages) in outcomes {
            self.absorb_injections(i);
            // Answers in flight died with the channel; their watermark
            // notes will never be consumed.
            self.sites[i].answer_watermarks.clear();
            let (src_t, wh_t) = {
                let s = &mut self.sites[i];
                let (src_end, wh_end) = SharedFifo::pair(s.raw.clone());
                let src_t = FaultyTransport::with_origin(
                    src_end,
                    s.profile.s2w.clone(),
                    s.src_link.inner_mut().next_seq(),
                );
                let wh_t = FaultyTransport::with_origin(
                    wh_end,
                    s.profile.w2s.clone(),
                    s.wh_link.inner_mut().next_seq(),
                );
                (src_t, wh_t)
            };
            // Recovery already bumped the session epoch; both ends come
            // up on it directly.
            let epoch = self.warehouse.epoch(self.sites[i].source_id);
            self.sites[i].src_link.restart(src_t, epoch);
            self.sites[i].wh_link.restart(wh_t, epoch);
            // The crashed process's undelivered inbox dies with it: a
            // notification the link had sequenced but the warehouse never
            // consumed is below no watermark, so the tail re-send below
            // covers it — keeping it here would apply it twice.
            self.sites[i].wh_link.clear_ready();
            self.sites[i].wh_link.set_epoch(epoch);
            for msg in messages {
                self.sites[i].wh_link.send(&msg)?;
            }
            // Incremental recovery: re-send exactly the updates past the
            // durable watermark. FIFO ordering puts them ahead of any
            // answer to the re-issued queries, so compensation stays
            // sound. A full resync needs no tail — `V(ss)` subsumes it.
            if incremental {
                let tail: Vec<Update> = self.sites[i].sent_history[watermark as usize..].to_vec();
                for update in tail {
                    self.sites[i]
                        .src_link
                        .send(&Message::UpdateNotification { update })?;
                    self.sites[i].notifications_resent += 1;
                    self.stats.resync_notifications += 1;
                }
            }
        }
        Ok(())
    }

    /// Detect dead connections (scripted resets, wedged links) and
    /// rewire them.
    fn heal_failures(&mut self) -> Result<(), SimError> {
        for i in 0..self.sites.len() {
            let dead = {
                let s = &mut self.sites[i];
                s.src_link.inner_mut().take_reset()
                    | s.wh_link.inner_mut().take_reset()
                    | s.src_link.wedged()
                    | s.wh_link.wedged()
            };
            if dead {
                self.rewire(i, false)?;
            }
        }
        Ok(())
    }

    /// Absorb a dying transport pair's injection log into the stats and
    /// replace the channel. `restart` distinguishes a source crash (both
    /// session states lost, notifications possibly gone → every view
    /// resyncs) from a connection failure (session state survives →
    /// lossless [`ReliableLink::reconnect`], pending queries re-issued).
    fn rewire(&mut self, i: usize, restart: bool) -> Result<(), SimError> {
        self.absorb_injections(i);
        let (source_id, src_t, wh_t) = {
            let s = &mut self.sites[i];
            // Fresh pair on the same raw meter; fault sequence numbers
            // continue from where the dead pair stopped so scripted
            // points keep their meaning and fired resets never re-fire.
            let (src_end, wh_end) = SharedFifo::pair(s.raw.clone());
            let src_t = FaultyTransport::with_origin(
                src_end,
                s.profile.s2w.clone(),
                s.src_link.inner_mut().next_seq(),
            );
            let wh_t = FaultyTransport::with_origin(
                wh_end,
                s.profile.w2s.clone(),
                s.wh_link.inner_mut().next_seq(),
            );
            (s.source_id, src_t, wh_t)
        };
        if restart {
            let epoch = self.warehouse.epoch(source_id) + 1;
            self.sites[i].src_link.restart(src_t, epoch);
            self.sites[i].wh_link.restart(wh_t, epoch);
            self.stats.restarts += 1;
        } else {
            self.sites[i].src_link.reconnect(src_t);
            self.sites[i].wh_link.reconnect(wh_t);
            self.stats.resets += 1;
        }
        let queries = self.warehouse.on_reset(source_id, restart)?;
        let epoch = self.warehouse.epoch(source_id);
        self.sites[i].wh_link.set_epoch(epoch);
        for msg in queries {
            self.sites[i].wh_link.send(&msg)?;
        }
        Ok(())
    }

    /// Drain the injection log of site `i`'s current transports into the
    /// stats (called before discarding a pair, and once at the end).
    fn absorb_injections(&mut self, i: usize) {
        let s = &mut self.sites[i];
        for log in [
            s.src_link.inner_mut().take_log(),
            s.wh_link.inner_mut().take_log(),
        ] {
            for ev in log {
                match ev.kind {
                    FaultKind::Drop => self.stats.drops += 1,
                    FaultKind::Duplicate => self.stats.duplicates += 1,
                    FaultKind::Delay(_) => self.stats.delays += 1,
                    FaultKind::Corrupt => self.stats.corrupts += 1,
                    // Counted when healed, not when injected.
                    FaultKind::Reset => {}
                }
            }
        }
    }

    /// `S_up` at site `i`.
    fn step_source_update(&mut self, i: usize) -> Result<(), SimError> {
        let Some(update) = self.sites[i].script.pop_front() else {
            return Err(SimError::Protocol("S_up fired with an empty script"));
        };
        let effective = self.sites[i].source.execute_update(&update);
        self.trace.push((
            SiteId(i),
            TraceEvent::SourceUpdate {
                update: update.clone(),
                effective,
            },
        ));
        if effective {
            let snapshot = self.sites[i].source.snapshot();
            for info in self.views.iter_mut().filter(|v| v.site == i) {
                info.source_states.push(info.view.eval(&snapshot)?);
            }
            self.sites[i].src_link.send(&Message::UpdateNotification {
                update: update.clone(),
            })?;
            self.sites[i].notifications_sent += 1;
            self.sites[i].sent_history.push(update);
        }
        Ok(())
    }

    /// `S_qu` at site `i`: the source evaluates a query on its *current*
    /// state. The link has already de-duplicated and re-ordered, so every
    /// query arrives here exactly once — including re-issued and resync
    /// queries, which are new messages under fresh ids.
    fn step_source_answer(&mut self, i: usize) -> Result<(), SimError> {
        let site = &mut self.sites[i];
        let Some(Message::QueryRequest { id, query }) = site.src_link.try_recv()? else {
            return Err(SimError::Protocol(
                "S_qu fired without a QueryRequest pending",
            ));
        };
        let answer = site.source.answer(&query)?;
        self.trace.push((
            SiteId(i),
            TraceEvent::SourceAnswer {
                id,
                tuples: answer.pos_len() + answer.neg_len(),
            },
        ));
        site.logical.record_answer_payload(
            answer.encoded_len() as u64,
            answer.pos_len() + answer.neg_len(),
        );
        // Remember how many updates this evaluation's snapshot subsumed:
        // if the answer completes a resync, the warehouse's durable
        // watermark advances to exactly this point.
        let watermark = site.notifications_sent;
        site.answer_watermarks.insert(id, watermark);
        site.src_link.send(&Message::QueryAnswer { id, answer })?;
        Ok(())
    }

    /// `W_up`/`W_ans` for site `i`'s channel. Answers addressed to a
    /// retired (stale-epoch) id are rejected by the session's strict
    /// demux before touching any maintainer; the harness counts and
    /// drops them.
    fn step_warehouse_deliver(&mut self, i: usize) -> Result<(), SimError> {
        let source_id = self.sites[i].source_id;
        let Some(msg) = self.sites[i].wh_link.try_recv()? else {
            return Err(SimError::Protocol(
                "warehouse delivery fired with an empty channel",
            ));
        };
        let outbound = match msg {
            Message::UpdateNotification { update } => {
                let queries = self.warehouse.on_update(source_id, &update)?;
                self.trace.push((
                    SiteId(i),
                    TraceEvent::WarehouseUpdate {
                        update,
                        queries_sent: queries.iter().map(|q| q.id).collect(),
                    },
                ));
                queries
            }
            Message::QueryAnswer { id, answer } => {
                let before = self.warehouse.recovery_stats().resyncs_completed;
                match self.warehouse.on_answer(source_id, id, answer) {
                    Ok(queries) => {
                        self.trace
                            .push((SiteId(i), TraceEvent::WarehouseAnswer { id }));
                        // A completed resync subsumes every notification
                        // the answering snapshot had seen — advance the
                        // durable watermark so a later crash does not
                        // re-send (and double-apply) them.
                        if self.warehouse.recovery_stats().resyncs_completed > before {
                            if let Some(watermark) = self.sites[i].answer_watermarks.remove(&id) {
                                self.warehouse.note_source_watermark(source_id, watermark)?;
                            }
                        } else {
                            self.sites[i].answer_watermarks.remove(&id);
                        }
                        queries
                    }
                    Err(WarehouseError::Core(CoreError::UnknownQuery { .. })) => {
                        self.stats.stale_answers += 1;
                        self.sites[i].answer_watermarks.remove(&id);
                        Vec::new()
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            Message::QueryRequest { .. } => {
                return Err(SimError::Protocol("s2w never carries QueryRequest"));
            }
            Message::Frame { .. } | Message::Ack { .. } | Message::Hello { .. } => {
                return Err(SimError::Protocol(
                    "session-layer envelope leaked past the reliable link",
                ));
            }
            Message::ReadQuery { .. } | Message::ReadAnswer { .. } | Message::ReadError { .. } => {
                return Err(SimError::Protocol(
                    "read-serving message on a maintenance channel",
                ));
            }
        };
        for q in outbound {
            self.sites[i].wh_link.send(&Message::QueryRequest {
                id: q.id,
                query: WireQuery::from_query(&q.query),
            })?;
        }
        Ok(())
    }

    fn into_report(mut self) -> ChaosRunReport {
        for i in 0..self.sites.len() {
            self.absorb_injections(i);
        }
        // Cumulative over every warehouse incarnation: the live
        // instance's counters plus everything absorbed at crash time.
        let recovery = self.warehouse.recovery_stats();
        self.stats.reissued = self.recovery_base.reissued + recovery.reissued;
        self.stats.resyncs_started = self.recovery_base.resyncs_started + recovery.resyncs_started;
        self.stats.resyncs_completed =
            self.recovery_base.resyncs_completed + recovery.resyncs_completed;
        for s in &self.sites {
            let src = s.src_link.stats();
            let wh = s.wh_link.stats();
            self.stats.retransmits += src.retransmits + wh.retransmits;
            self.stats.duplicates_dropped += src.duplicates_dropped + wh.duplicates_dropped;
            self.stats.corrupt_dropped += src.corrupt_dropped + wh.corrupt_dropped;
        }
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
                answer_messages: s.logical.messages_s2w()
                    - s.notifications_sent
                    - s.notifications_resent,
                notification_messages: s.notifications_sent + s.notifications_resent,
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
    use eca_core::ViewDef;
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
            // Fault-free: nothing injected, nothing healed — but the wire
            // still paid for frames and acks.
            let s = report.stats;
            assert_eq!(
                (s.drops, s.duplicates, s.retransmits, s.resets, s.restarts),
                (0, 0, 0, 0, 0),
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

    #[test]
    fn mixed_faults_heal_transparently_and_converge() {
        for seed in [3, 19, 77] {
            let profiles = [
                ChaosProfile::symmetric(FaultPlan::mixed(seed, 0.15)),
                ChaosProfile::symmetric(FaultPlan::mixed(seed ^ 0xff, 0.15)),
            ];
            let report = build_chaos(AlgorithmKind::Eca, profiles)
                .run(Policy::Random { seed })
                .unwrap();
            assert!(report.converged(), "seed {seed}");
            assert!(report.quiescent, "seed {seed}");
            let s = report.stats;
            assert!(
                s.drops + s.duplicates + s.delays + s.corrupts > 0,
                "seed {seed}: plan must actually inject"
            );
        }
    }

    #[test]
    fn faulty_run_matches_fault_free_golden_views() {
        let golden = build(AlgorithmKind::Eca).run(Policy::Serial).unwrap();
        let noisy = build_chaos(
            AlgorithmKind::Eca,
            [
                ChaosProfile::symmetric(FaultPlan::drops(5, 0.3)),
                ChaosProfile::symmetric(FaultPlan::duplicates(6, 0.3)),
            ],
        )
        .run(Policy::Serial)
        .unwrap();
        for (g, n) in golden.views.iter().zip(&noisy.views) {
            assert_eq!(g.final_mv, n.final_mv);
        }
        assert!(noisy.stats.retransmits > 0 || noisy.stats.duplicates_dropped > 0);
    }

    #[test]
    fn connection_reset_triggers_reissue_and_converges() {
        // Kill the warehouse→source direction early: a query frame (or
        // its ack traffic) dies with the connection, the link reports the
        // reset, and the warehouse re-issues under a new epoch.
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
                    ChaosProfile::symmetric(FaultPlan::mixed(4, 0.2)),
                    ChaosProfile::symmetric(FaultPlan::mixed(5, 0.2)),
                ],
            )
            .run(Policy::Random { seed: 33 })
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.bytes_s2w, y.bytes_s2w);
            assert_eq!(x.bytes_w2s, y.bytes_w2s);
        }
    }
}

//! Deterministic discrete-event simulation of the warehouse environment.
//!
//! The paper's anomalies (and its best/worst cost cases) are purely a
//! function of how four event types interleave (§3):
//!
//! * `S_up` — the source executes an update and sends a notification,
//! * `W_up` — the warehouse receives it and (possibly) sends a query,
//! * `S_qu` — the source evaluates a query on its *current* state,
//! * `W_ans` — the warehouse receives the answer and updates the view.
//!
//! The simulator is a pure *scheduler*, and there is one of it:
//! [`ChaosSimulation`] drives one [`eca_warehouse::Warehouse`] runtime
//! over any number of autonomous sources, each on its own channel.
//! Each event is one call of the sans-IO `Source`/`Warehouse` endpoints
//! every deployment steps, and messages move between them as
//! [`eca_wire::Message`] values (metered by each message's structural
//! encoded length, so byte counts match what the codec would put on a
//! TCP link) over channels that are reliable unless a [`ChaosProfile`]
//! injects resets or crashes. Maintenance state lives in the warehouse
//! runtime, and the engine only decides *when* each enabled event
//! fires, under a [`Policy`]:
//!
//! * [`Policy::Serial`] — each update fully settles before the next: the
//!   favorable case where ECA degenerates to the basic algorithm,
//! * [`Policy::AllUpdatesFirst`] — every update executes before any query
//!   reaches the source: the paper's anomaly scenario and ECA's worst
//!   case,
//! * [`Policy::Random`] — seeded random interleaving of all enabled
//!   events, used by the property tests to explore histories.
//!
//! Every run records the source's view states `V[ss_0..ss_p]` and each
//! warehouse state, which `eca-consistency` checks against the §3
//! correctness hierarchy. [`Simulation`] is the engine's 1×1
//! constructor — one source, one view, a flat [`RunReport`] — for the
//! paper's base setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod report;
pub mod trace;

use eca_core::maintainer::ViewMaintainer;
use eca_relational::Update;
use eca_source::Source;
use eca_warehouse::WarehouseError;

pub use chaos::{
    ChaosProfile, ChaosRunReport, ChaosSimulation, ChaosStats, LinkOverhead, Restart, RestartSite,
    SiteId,
};
pub use report::{RunReport, SiteReport, ViewRunReport};
pub use trace::TraceEvent;

/// How source and warehouse events interleave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Each update is fully processed (notification, query, answer,
    /// install) before the next update executes. ECA's best case.
    Serial,
    /// All updates execute at the source before any query arrives there.
    /// The anomaly interleaving of Examples 2–4; ECA's worst case.
    ///
    /// With several sites, every script runs first and then the channels
    /// settle site by site: a site's notifications are all delivered
    /// before any of *its* queries is answered, but one site's answers
    /// may precede another site's notifications. Channels are
    /// independent (§7), so this fixes each site's event order and every
    /// view's history; only the cross-site interleaving of the global
    /// trace is left to the engine.
    AllUpdatesFirst,
    /// Seeded uniform choice among all enabled events each step.
    Random {
        /// RNG seed (runs are reproducible per seed).
        seed: u64,
    },
}

/// Errors surfaced by a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The warehouse algorithm failed.
    Core(eca_core::CoreError),
    /// The source failed to answer a query.
    Source(eca_source::SourceError),
    /// The warehouse runtime failed.
    Warehouse(WarehouseError),
    /// A message kind arrived on a channel that never carries it, or an
    /// expected message was missing — a scheduler bug, reported instead
    /// of panicking.
    Protocol(&'static str),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Core(e) => write!(f, "warehouse error: {e}"),
            SimError::Source(e) => write!(f, "source error: {e}"),
            SimError::Warehouse(e) => write!(f, "warehouse runtime error: {e}"),
            SimError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<eca_core::CoreError> for SimError {
    fn from(e: eca_core::CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<eca_source::SourceError> for SimError {
    fn from(e: eca_source::SourceError) -> Self {
        SimError::Source(e)
    }
}

impl From<WarehouseError> for SimError {
    fn from(e: WarehouseError) -> Self {
        match e {
            WarehouseError::Core(c) => SimError::Core(c),
            other => SimError::Warehouse(other),
        }
    }
}

/// The paper's base setting — one source, one view — as a 1×1
/// [`ChaosSimulation`]: the same engine, scheduler and link stack, with
/// the report flattened to site 0 / view 0.
///
/// ```
/// use eca_core::{algorithms::AlgorithmKind, ViewDef};
/// use eca_relational::{Predicate, Schema, Tuple, Update};
/// use eca_sim::{Policy, Simulation};
/// use eca_source::Source;
/// use eca_storage::Scenario;
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
///
/// let initial = view.eval(&source.snapshot())?;
/// let warehouse = AlgorithmKind::Eca.instantiate(&view, initial)?;
/// let report = Simulation::new(source, warehouse, vec![
///     Update::insert("r2", Tuple::ints([2, 3])),
///     Update::insert("r1", Tuple::ints([4, 2])),
/// ])?
/// .run(Policy::AllUpdatesFirst)?;
///
/// assert!(report.converged());
/// assert_eq!(report.maintenance_messages(), 4); // 2k for ECA
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulation(ChaosSimulation);

impl Simulation {
    /// Wire a source and a warehouse algorithm with an update script.
    ///
    /// The warehouse's initial `MV` must equal the view evaluated on the
    /// source's initial state (`V[ss_0]`) — the standard starting
    /// condition of the paper's proofs.
    ///
    /// # Errors
    /// Propagates view-evaluation failures on the initial snapshot.
    pub fn new(
        source: Source,
        maintainer: Box<dyn ViewMaintainer>,
        script: Vec<Update>,
    ) -> Result<Self, SimError> {
        let mut engine = ChaosSimulation::new();
        let site = engine.add_source("source", source, script);
        engine.add_view(site, maintainer)?;
        Ok(Simulation(engine))
    }

    /// Run to quiescence under `policy` and report.
    ///
    /// # Errors
    /// Propagates warehouse and source errors.
    pub fn run(self, policy: Policy) -> Result<RunReport, SimError> {
        let mut report = self.0.run(policy)?;
        // `new` registered exactly one site and one view.
        let (view, site) = (report.views.remove(0), &report.sites[0]);
        Ok(RunReport {
            algorithm: view.algorithm,
            source_view_states: view.source_view_states,
            warehouse_view_states: view.warehouse_view_states,
            final_mv: view.final_mv,
            final_source_view: view.final_source_view,
            quiescent: report.quiescent,
            query_messages: site.query_messages,
            answer_messages: site.answer_messages,
            notification_messages: site.notification_messages,
            answer_bytes: site.answer_bytes,
            answer_tuples: site.answer_tuples,
            bytes_s2w: site.bytes_s2w,
            bytes_w2s: site.bytes_w2s,
            io_reads: site.io_reads,
            selfmaint: view.selfmaint,
            trace: report.trace.into_iter().map(|(_, e)| e).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::ViewDef;
    use eca_relational::{Predicate, Schema, Tuple};
    use eca_storage::Scenario;

    fn view2() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap()
    }

    fn make_sim(kind: AlgorithmKind, script: Vec<Update>) -> Simulation {
        let view = view2();
        let mut source = Source::new(Scenario::Indexed);
        source
            .add_relation(Schema::new("r1", &["W", "X"]), 20, Some("X"), &[])
            .unwrap();
        source
            .add_relation(Schema::new("r2", &["X", "Y"]), 20, Some("X"), &[])
            .unwrap();
        source.load("r1", [Tuple::ints([1, 2])]).unwrap();
        let snapshot = source.snapshot();
        let initial = view.eval(&snapshot).unwrap();
        let warehouse = kind
            .instantiate_with_base(&view, initial, Some(snapshot))
            .unwrap();
        Simulation::new(source, warehouse, script).unwrap()
    }

    fn example2_script() -> Vec<Update> {
        vec![
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
        ]
    }

    #[test]
    fn basic_is_wrong_under_adversarial_policy() {
        let report = make_sim(AlgorithmKind::Basic, example2_script())
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        assert!(!report.converged());
        assert_eq!(
            report.final_mv.count(&Tuple::ints([4])),
            2,
            "the Example 2 anomaly"
        );
    }

    #[test]
    fn basic_is_correct_under_serial_policy() {
        let report = make_sim(AlgorithmKind::Basic, example2_script())
            .run(Policy::Serial)
            .unwrap();
        assert!(report.converged());
    }

    #[test]
    fn eca_is_correct_under_adversarial_policy() {
        let report = make_sim(AlgorithmKind::Eca, example2_script())
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        assert!(report.converged());
        assert_eq!(report.final_mv.count(&Tuple::ints([1])), 1);
        assert_eq!(report.final_mv.count(&Tuple::ints([4])), 1);
    }

    #[test]
    fn eca_correct_under_random_policies() {
        for seed in 0..20 {
            let report = make_sim(AlgorithmKind::Eca, example2_script())
                .run(Policy::Random { seed })
                .unwrap();
            assert!(report.converged(), "seed {seed}");
            assert!(report.quiescent, "seed {seed}");
        }
    }

    #[test]
    fn message_counts_match_paper_formulas() {
        // ECA: k updates → k queries + k answers (§6.1).
        let report = make_sim(AlgorithmKind::Eca, example2_script())
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        assert_eq!(report.query_messages, 2);
        assert_eq!(report.answer_messages, 2);
        assert_eq!(report.notification_messages, 2);
        assert_eq!(report.maintenance_messages(), 4);

        // RV with s = k: one recompute → 2 messages.
        let report = make_sim(
            AlgorithmKind::RecomputeView { period: 2 },
            example2_script(),
        )
        .run(Policy::AllUpdatesFirst)
        .unwrap();
        assert_eq!(report.maintenance_messages(), 2);
        assert!(report.converged());
    }

    #[test]
    fn store_copies_never_messages() {
        let report = make_sim(AlgorithmKind::StoreCopies, example2_script())
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        assert_eq!(report.maintenance_messages(), 0);
        assert!(report.converged());
    }

    fn make_keyed_sim(kind: AlgorithmKind, script: Vec<Update>) -> Simulation {
        let view = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
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
        let snapshot = source.snapshot();
        let initial = view.eval(&snapshot).unwrap();
        let warehouse = kind
            .instantiate_with_base(&view, initial, Some(snapshot))
            .unwrap();
        Simulation::new(source, warehouse, script).unwrap()
    }

    #[test]
    fn eca_aux_answers_locally_with_zero_wire_traffic() {
        // A fully keyed view: every compensating query is answered at the
        // warehouse. The logical ledger must read zero both as messages
        // (M) and as warehouse → source bytes: no QueryRequest crossed.
        let report = make_keyed_sim(AlgorithmKind::EcaAux, example2_script())
            .run(Policy::AllUpdatesFirst)
            .unwrap();
        assert!(report.converged());
        assert!(report.quiescent);
        assert_eq!(report.maintenance_messages(), 0);
        assert_eq!(report.bytes_w2s, 0, "no QueryRequest on the logical ledger");
        assert_eq!(report.answer_bytes, 0);
        assert_eq!(report.io_reads, 0, "the source is never consulted");
        let stats = report.selfmaint.expect("ECA-Aux reports stats");
        assert_eq!(stats.local_updates, 2);
        assert_eq!(stats.remote_updates, 0);
        assert!(stats.aux_bytes > 0, "the savings are paid for in storage");
    }

    #[test]
    fn eca_aux_matches_eca_under_random_policies() {
        for seed in 0..20 {
            let aux = make_keyed_sim(AlgorithmKind::EcaAux, example2_script())
                .run(Policy::Random { seed })
                .unwrap();
            let eca = make_keyed_sim(AlgorithmKind::Eca, example2_script())
                .run(Policy::Random { seed })
                .unwrap();
            assert!(aux.converged(), "seed {seed}");
            assert_eq!(aux.final_mv, eca.final_mv, "seed {seed}");
            assert!(
                aux.maintenance_messages() <= eca.maintenance_messages(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn byte_meters_are_populated() {
        let report = make_sim(AlgorithmKind::Eca, example2_script())
            .run(Policy::Serial)
            .unwrap();
        assert!(report.answer_bytes > 0);
        assert!(report.bytes_w2s > 0);
        assert!(report.answer_tuples >= 2);
    }

    #[test]
    fn trace_records_event_flow() {
        let report = make_sim(AlgorithmKind::Eca, example2_script())
            .run(Policy::Serial)
            .unwrap();
        let kinds: Vec<&'static str> = report.trace.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds[0], "S_up");
        assert!(kinds.contains(&"W_up"));
        assert!(kinds.contains(&"S_qu"));
        assert!(kinds.contains(&"W_ans"));
    }

    #[test]
    fn ineffective_updates_are_not_notified() {
        let script = vec![Update::delete("r1", Tuple::ints([9, 9]))];
        let report = make_sim(AlgorithmKind::Eca, script)
            .run(Policy::Serial)
            .unwrap();
        assert_eq!(report.notification_messages, 0);
        assert!(report.converged());
    }

    /// LCA buffers per-update deltas and can close several of them on one
    /// answer; the scheduler must consume the buffered intermediate
    /// states after *every* event, or the consistency checker would see a
    /// history with holes.
    #[test]
    fn lca_intermediate_states_survive_random_scheduling() {
        for seed in 0..25 {
            let report = make_sim(AlgorithmKind::Lca, example2_script())
                .run(Policy::Random { seed })
                .unwrap();
            assert!(report.converged(), "seed {seed}");
            // Each of the two effective updates contributes its own delta
            // state; with intermediates consumed, the deduped warehouse
            // history must walk through every source state in order —
            // LCA's complete-consistency guarantee, which fails if any
            // intermediate state is dropped.
            let mut src_iter = report.source_view_states.iter();
            for wh_state in &report.warehouse_view_states {
                if src_iter.clone().next() == Some(wh_state) {
                    continue;
                }
                src_iter.next();
            }
            for src_state in &report.source_view_states {
                assert!(
                    report.warehouse_view_states.contains(src_state),
                    "seed {seed}: source state missing from warehouse history"
                );
            }
        }
    }
}

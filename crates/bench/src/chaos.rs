//! Chaos sweep: convergence and recovery overhead across a fault-rate
//! grid.
//!
//! Each point runs a full warehouse scenario (Example 2's anomaly script
//! or the calibrated Example 6 workload) through the chaos harness — ECA
//! over [`eca_sim::ChaosSimulation`]'s channels, each direction reset
//! by an [`eca_wire::FaultClock`] and healed by the source's
//! [`eca_wire::Outbox`] — under one fault family at one per-send reset
//! rate and one scheduler seed, then checks the run against its
//! fault-free golden view state. The families are what a deployed
//! channel can suffer: connection resets, source restarts and warehouse
//! crashes, all healed by the one resume path. The sweep records what
//! the recovery machinery did (outbox re-sends, re-issues, RV resyncs,
//! stale answers) and what it cost on the wire (raw vs logical bytes),
//! feeding `results/chaos.json` and the CI smoke gate.

use eca_core::algorithms::Eca;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_sim::{ChaosProfile, ChaosSimulation, ChaosStats, Policy};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::DurabilityConfig;
use eca_wire::FaultPlan;
use eca_workload::{Example6, Params, UpdateMix};

use crate::json::Json;
use crate::{BenchError, Context};

/// The fault families the sweep injects, one per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Connection resets at the given per-send rate plus one scripted
    /// reset — the family that drives outbox re-sends, query re-issue
    /// and, with retries exhausted, RV resync.
    Resets,
    /// Rated resets plus a scripted *source restart*: the outbox is
    /// lost, every view over the site degrades, and each recovers
    /// through an RV-style full resync (Alg. D.1).
    Restarts,
    /// Rated resets plus a scripted *warehouse crash*: the warehouse
    /// process dies mid-run and recovers from its WAL + checkpoint,
    /// re-issuing in-flight queries while the source resumes its outbox
    /// past the durable watermark.
    Crashes,
}

impl Family {
    /// Every family, in sweep order.
    pub fn all() -> [Family; 3] {
        [Family::Resets, Family::Restarts, Family::Crashes]
    }

    /// Label used in the table and the JSON artifact.
    pub fn label(self) -> &'static str {
        match self {
            Family::Resets => "resets",
            Family::Restarts => "restarts",
            Family::Crashes => "crashes",
        }
    }

    /// The symmetric per-site profile at reset rate `rate`, seeded per
    /// run.
    fn profile(self, seed: u64, rate: f64) -> ChaosProfile {
        let plan = FaultPlan::resets(seed, rate);
        match self {
            Family::Resets => ChaosProfile::symmetric(plan.with_resets(&[2])),
            Family::Restarts => ChaosProfile::symmetric(plan).with_restarts(&[5]),
            Family::Crashes => ChaosProfile::symmetric(plan).with_warehouse_crashes(&[5]),
        }
    }
}

/// One grid point of the sweep.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// Scenario label (`example2` / `example6`).
    pub scenario: &'static str,
    /// Fault family injected.
    pub family: Family,
    /// Per-send reset rate.
    pub rate: f64,
    /// Scheduler and fault seed.
    pub seed: u64,
    /// Whether the warehouse reached quiescence.
    pub quiescent: bool,
    /// Whether the final view equals the fault-free golden state.
    pub matches_golden: bool,
    /// Injection and recovery counters for the run.
    pub stats: ChaosStats,
    /// Bytes the wire actually carried (messages and acks).
    pub raw_bytes: u64,
    /// Bytes the application logically transferred.
    pub logical_bytes: u64,
}

impl ChaosPoint {
    /// The consistency verdict the CI gate enforces.
    pub fn ok(&self) -> bool {
        self.quiescent && self.matches_golden
    }

    /// Raw-over-logical byte ratio: acks push it above 1.0, and sends a
    /// reset refused (charged to the logical ledger, never carried)
    /// below.
    pub fn overhead_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.logical_bytes as f64
    }
}

/// Example 2's anomaly setup: `V = π_W(r1 ⋈ r2)`, one preloaded `r1`
/// tuple, the two-insert script.
fn example2_fixture() -> Result<Fixture, BenchError> {
    let view = ViewDef::new(
        "V",
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
        ],
        Predicate::col_eq(1, 2),
        vec![0],
    )
    .context("static view")?;
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new("r1", &["W", "X"]), 20, Some("X"), &[])
        .context("static schema")?;
    source
        .add_relation(Schema::new("r2", &["X", "Y"]), 20, Some("X"), &[])
        .context("static schema")?;
    source.load("r1", [Tuple::ints([1, 2])]).context("loads")?;
    let script = vec![
        Update::insert("r2", Tuple::ints([2, 3])),
        Update::insert("r1", Tuple::ints([4, 2])),
    ];
    Ok((source, view, script))
}

/// The calibrated Example 6 workload with a 12-update mixed script.
fn example6_fixture() -> Result<Fixture, BenchError> {
    let workload = Example6::new(Params::default(), 42);
    let source = workload
        .build_source(Scenario::Indexed)
        .context("calibrated source")?;
    let view = Example6::view().context("static view")?;
    let script = workload.updates(12, UpdateMix::Mixed);
    Ok((source, view, script))
}

/// A scenario fixture: preloaded source, view definition, update script.
type Fixture = (Source, ViewDef, Vec<Update>);

/// A labelled fixture builder the sweep iterates over.
type ScenarioEntry = (&'static str, fn() -> Result<Fixture, BenchError>);

fn single_site(fixture: Fixture, profile: ChaosProfile) -> Result<ChaosSimulation, BenchError> {
    let (source, view, script) = fixture;
    let initial = view.eval(&source.snapshot()).context("initial state")?;
    let mut sim = ChaosSimulation::new();
    let site = sim.add_source_with("s0", source, script, profile);
    // A factory rather than a one-shot maintainer so the crash family
    // can rebuild the warehouse process mid-run.
    sim.add_view_with_factory(site, move || {
        Box::new(Eca::new(view.clone(), initial.clone()))
    })
    .context("view over site")?;
    Ok(sim)
}

/// A scratch durability directory for one crash-family run, private to
/// this call: two sweeps in one process (parallel tests) must not wipe
/// each other's logs.
fn tmpdir(tag: &str) -> Result<std::path::PathBuf, BenchError> {
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eca-chaos-bench-{tag}-{}-{call}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).context("temp dir")?;
    Ok(dir)
}

fn golden(fixture: fn() -> Result<Fixture, BenchError>) -> Result<SignedBag, BenchError> {
    let report = single_site(fixture()?, ChaosProfile::none())?
        .run(Policy::Serial)
        .context("fault-free run settles")?;
    Ok(report.views[0].final_mv.clone())
}

fn run_point(
    scenario: &'static str,
    fixture: fn() -> Result<Fixture, BenchError>,
    golden_mv: &SignedBag,
    family: Family,
    rate: f64,
    seed: u64,
) -> Result<ChaosPoint, BenchError> {
    let mut sim = single_site(fixture()?, family.profile(seed, rate))?;
    let dir = (family == Family::Crashes)
        .then(|| tmpdir(&format!("{scenario}-{seed}-{}", (rate * 100.0) as u32)))
        .transpose()?;
    if let Some(dir) = &dir {
        sim.enable_durability(DurabilityConfig::new(dir))
            .context("durability over scratch dir")?;
    }
    let point = match sim.run(Policy::Random { seed }) {
        Ok(report) => ChaosPoint {
            scenario,
            family,
            rate,
            seed,
            quiescent: report.quiescent,
            matches_golden: report.converged() && report.views[0].final_mv == *golden_mv,
            stats: report.stats,
            raw_bytes: report.overhead.iter().map(|o| o.raw_bytes).sum(),
            logical_bytes: report.overhead.iter().map(|o| o.logical_bytes).sum(),
        },
        // A scheduler error (livelocked channel, protocol violation) is
        // a sweep violation, not a crash: record it and let the gate
        // fail the run.
        Err(_) => ChaosPoint {
            scenario,
            family,
            rate,
            seed,
            quiescent: false,
            matches_golden: false,
            stats: ChaosStats::default(),
            raw_bytes: 0,
            logical_bytes: 0,
        },
    };
    // A failing point keeps its logs for inspection.
    if let Some(dir) = dir.filter(|_| point.ok()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(point)
}

/// The three fixed seeds both the CI smoke job and the full sweep use.
pub const SEEDS: [u64; 3] = [1, 2, 3];

/// Run the grid. `smoke` keeps CI fast: Example 2 only, one rate per
/// family; the full sweep adds Example 6 and a rate ladder.
///
/// # Errors
/// [`BenchError`] when a fixture or a fault-free golden run fails to
/// build — a bug, since every input is fixed. A faulty run that fails is
/// a violation point, not an error.
pub fn sweep(smoke: bool) -> Result<Vec<ChaosPoint>, BenchError> {
    let scenarios: Vec<ScenarioEntry> = if smoke {
        vec![("example2", example2_fixture)]
    } else {
        vec![
            ("example2", example2_fixture),
            ("example6", example6_fixture),
        ]
    };
    let mut points = Vec::new();
    for (scenario, fixture) in scenarios {
        let golden_mv = golden(fixture)?;
        for family in Family::all() {
            let rates: Vec<f64> = match (smoke, family) {
                (true, Family::Resets) => vec![0.1],
                // The smoke restart and crash points reset nothing else:
                // the gate isolates the resync and the WAL recovery.
                (true, _) => vec![0.0],
                (false, Family::Resets) => vec![0.02, 0.05, 0.1],
                (false, _) => vec![0.0, 0.05],
            };
            for &rate in &rates {
                for seed in SEEDS {
                    points.push(run_point(
                        scenario, fixture, &golden_mv, family, rate, seed,
                    )?);
                }
            }
        }
    }
    Ok(points)
}

/// Points that failed the consistency gate.
pub fn violations(points: &[ChaosPoint]) -> Vec<&ChaosPoint> {
    points.iter().filter(|p| !p.ok()).collect()
}

/// The `results/chaos.json` document.
pub fn report(points: &[ChaosPoint]) -> Json {
    Json::obj([
        ("experiment", Json::str("chaos")),
        (
            "description",
            Json::str(
                "reset-rate sweep: convergence to fault-free golden state and \
                 recovery overhead per fault family",
            ),
        ),
        ("violations", Json::Int(violations(points).len() as i64)),
        (
            "points",
            Json::arr(points.iter().map(|p| {
                let s = p.stats;
                Json::obj([
                    ("scenario", Json::str(p.scenario)),
                    ("family", Json::str(p.family.label())),
                    ("rate", Json::Num(p.rate)),
                    ("seed", Json::from(p.seed)),
                    ("quiescent", Json::from(p.quiescent)),
                    ("matches_golden", Json::from(p.matches_golden)),
                    ("steps", Json::from(s.steps)),
                    ("resets", Json::from(s.resets)),
                    ("restarts", Json::from(s.restarts)),
                    ("reissued", Json::from(s.reissued)),
                    ("resyncs_started", Json::from(s.resyncs_started)),
                    ("resyncs_completed", Json::from(s.resyncs_completed)),
                    ("stale_answers", Json::from(s.stale_answers)),
                    ("warehouse_restarts", Json::from(s.warehouse_restarts)),
                    ("resync_notifications", Json::from(s.resync_notifications)),
                    ("recovered_incremental", Json::from(s.recovered_incremental)),
                    ("recovered_full", Json::from(s.recovered_full)),
                    ("wal_replayed", Json::from(s.wal_replayed)),
                    ("raw_bytes", Json::from(p.raw_bytes)),
                    ("logical_bytes", Json::from(p.logical_bytes)),
                    ("overhead_ratio", Json::Num(p.overhead_ratio())),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean_and_injects() {
        let points = sweep(true).unwrap();
        // 1 scenario × 3 families × 1 rate × 3 seeds.
        assert_eq!(points.len(), 9);
        assert!(violations(&points).is_empty());
        assert!(points
            .iter()
            .filter(|p| p.family == Family::Resets)
            .all(|p| p.stats.resets >= 1));
        assert!(points
            .iter()
            .filter(|p| p.family == Family::Restarts)
            .all(|p| p.stats.restarts == 1 && p.stats.resyncs_completed >= 1));
        // Every warehouse-crash point recovered from the WAL rather than
        // falling back to full RV resync.
        assert!(points.iter().any(|p| p.family == Family::Crashes));
        assert!(points
            .iter()
            .filter(|p| p.family == Family::Crashes)
            .all(|p| p.stats.warehouse_restarts == 1
                && p.stats.recovered_incremental >= 1
                && p.stats.recovered_full == 0));
        // The raw ledger is the logical one plus acks, less the sends a
        // reset refused: where no reset fired, raw ≥ logical.
        assert!(points
            .iter()
            .filter(|p| p.stats.resets == 0)
            .all(|p| p.raw_bytes >= p.logical_bytes));
    }

    #[test]
    fn crash_family_converges_on_example6_every_seed() {
        let golden_mv = golden(example6_fixture).unwrap();
        for seed in SEEDS {
            let p = run_point(
                "example6",
                example6_fixture,
                &golden_mv,
                Family::Crashes,
                0.0,
                seed,
            )
            .unwrap();
            assert!(p.ok(), "{p:?}");
        }
    }

    #[test]
    fn report_shape_is_stable() {
        let points = sweep(true).unwrap();
        let doc = report(&points).pretty();
        assert!(doc.contains("\"experiment\": \"chaos\""));
        assert!(doc.contains("\"violations\": 0"));
        assert!(doc.contains("\"overhead_ratio\""));
    }
}

//! Crash-recovery acceptance tests: a warehouse killed at *every*
//! scheduler step must recover from its write-ahead log and checkpoint
//! to exactly the fault-free golden — same final views, §3.1 strong
//! consistency intact — with only the incremental notification tail
//! re-sent. Without durability the same crash falls back to the
//! paper's §4 amnesia story (full resyncs) and still converges.
//!
//! Scenarios: Example 2 (the canonical anomaly setup), the Example 6
//! workload, and the keyed self-maintaining (ECA-Aux) join chain whose
//! auxiliary views must come back from the checkpoint too.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_sim::{ChaosProfile, ChaosRunReport, ChaosSimulation, ChaosStats, Policy};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{DurabilityConfig, FsyncPolicy};
use eca_workload::{Example6, Params, UpdateMix};

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn example2_fixture() -> (Source, ViewDef, Vec<Update>) {
    let view = ViewDef::new(
        "V",
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
    ];
    (source, view, script)
}

fn example6_fixture() -> (Source, ViewDef, Vec<Update>) {
    let workload = Example6::new(Params::default(), 42);
    let source = workload.build_source(Scenario::Indexed).unwrap();
    let view = Example6::view().unwrap();
    let script = workload.updates(10, UpdateMix::Mixed);
    (source, view, script)
}

/// The keyed join chain ECA-Aux self-maintains: recovery must restore
/// the warehouse-resident auxiliary views (or mark them stale and
/// rebuild) along with `MV`.
fn selfmaint_fixture() -> (Source, ViewDef, Vec<Update>) {
    let workload = Example6::new(Params::default(), 42);
    let source = workload.build_source(Scenario::Indexed).unwrap();
    let view = Example6::keyed_view().unwrap();
    let script = workload.updates(10, UpdateMix::Mixed);
    (source, view, script)
}

/// One single-site chaos simulation whose view can be rebuilt after a
/// warehouse crash.
fn crashable_sim(
    kind: AlgorithmKind,
    fixture: impl Fn() -> (Source, ViewDef, Vec<Update>),
    profile: ChaosProfile,
) -> ChaosSimulation {
    let (source, view, script) = fixture();
    let snapshot = source.snapshot();
    let mut sim = ChaosSimulation::new();
    let site = sim.add_source_with("s0", source, script, profile);
    sim.add_view_with_factory(site, move || {
        let initial = view.eval(&snapshot).unwrap();
        kind.instantiate_with_base(&view, initial, Some(snapshot.clone()))
            .unwrap()
    })
    .unwrap();
    sim
}

/// A scratch durability directory private to this call: tests run in
/// parallel in one process and must not wipe each other's logs.
fn tmpdir(tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("eca-recovery-{tag}-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &PathBuf) -> DurabilityConfig {
    // A short cadence so the sweep crosses several checkpoint cuts, and
    // per-record fsync so every logged event survives the crash.
    DurabilityConfig::new(dir)
        .with_fsync(FsyncPolicy::PerRecord)
        .with_checkpoint_every(4)
}

fn assert_strongly_consistent(report: &ChaosRunReport, label: &str) {
    assert!(report.quiescent, "{label}: warehouse did not settle");
    assert!(report.converged(), "{label}: a view diverged");
    for v in &report.views {
        let c = eca_consistency::check(&v.source_view_states, &v.warehouse_view_states);
        assert!(
            c.strongly_consistent,
            "{label} {}: {:?}",
            v.view_name, c.violation
        );
    }
}

/// Run the fixture's fault-free golden and return (steps, final views).
fn golden(
    kind: AlgorithmKind,
    fixture: impl Fn() -> (Source, ViewDef, Vec<Update>),
) -> (u64, ChaosRunReport) {
    let report = crashable_sim(kind, &fixture, ChaosProfile::none())
        .run(Policy::Serial)
        .unwrap();
    assert_strongly_consistent(&report, "golden");
    (report.stats.steps, report)
}

/// Crash the warehouse at every scheduler step of the golden run,
/// recover from disk, and require convergence to the golden final view
/// with §3.1 strong consistency intact across the crash.
fn sweep_crash_points(
    kind: AlgorithmKind,
    fixture: impl Fn() -> (Source, ViewDef, Vec<Update>),
    tag: &str,
) {
    let (steps, gold) = golden(kind, &fixture);
    assert!(steps > 0, "{tag}: golden run took no steps");
    let dir = tmpdir(tag);
    let mut incremental = 0u64;
    for crash_at in 1..=steps {
        let label = format!("{tag} crash@{crash_at}/{steps}");
        let profile = ChaosProfile::none().with_warehouse_crashes(&[crash_at]);
        let mut sim = crashable_sim(kind, &fixture, profile);
        sim.enable_durability(config(&dir)).unwrap();
        let report = sim.run(Policy::Serial).unwrap();
        assert_strongly_consistent(&report, &label);
        for (g, r) in gold.views.iter().zip(&report.views) {
            assert_eq!(g.final_mv, r.final_mv, "{label}");
        }
        assert_eq!(report.stats.warehouse_restarts, 1, "{label}");
        assert_eq!(
            report.stats.recovered_incremental + report.stats.recovered_full,
            1,
            "{label}: exactly one channel recovers"
        );
        incremental += report.stats.recovered_incremental;
    }
    assert!(
        incremental > steps / 2,
        "{tag}: most crash points must recover incrementally, got {incremental}/{steps}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash-point sweeps
// ---------------------------------------------------------------------

#[test]
fn example2_recovers_from_a_crash_at_every_step() {
    sweep_crash_points(AlgorithmKind::Eca, example2_fixture, "example2");
}

#[test]
fn example6_recovers_from_a_crash_at_every_step() {
    sweep_crash_points(AlgorithmKind::Eca, example6_fixture, "example6");
}

/// The self-maintaining algorithm's auxiliary bags live in the
/// checkpoint; after recovery, maintenance must go on — locally where
/// the auxiliaries came back fresh, via rebuild queries where the
/// checkpoint recorded them stale — and still land on the golden.
#[test]
fn eca_aux_recovers_auxiliaries_from_a_crash_at_every_step() {
    sweep_crash_points(AlgorithmKind::EcaAux, selfmaint_fixture, "selfmaint");
}

// ---------------------------------------------------------------------
// The amnesia baseline (§4, no durability)
// ---------------------------------------------------------------------

/// The same crash without durability: the fresh warehouse has nothing
/// on disk, every view degrades to a full RV-style resync, and the run
/// still converges to the golden. This is the cost baseline the
/// incremental path is measured against.
#[test]
fn crash_without_durability_converges_via_full_resync() {
    let (steps, gold) = golden(AlgorithmKind::Eca, example6_fixture);
    for crash_at in [1, steps / 2, steps] {
        let label = format!("amnesia crash@{crash_at}");
        let profile = ChaosProfile::none().with_warehouse_crashes(&[crash_at]);
        let report = crashable_sim(AlgorithmKind::Eca, example6_fixture, profile)
            .run(Policy::Serial)
            .unwrap();
        assert!(report.quiescent && report.converged(), "{label}");
        assert_eq!(gold.views[0].final_mv, report.views[0].final_mv, "{label}");
        assert_eq!(report.stats.recovered_full, 1, "{label}");
        assert_eq!(report.stats.recovered_incremental, 0, "{label}");
        assert_eq!(report.stats.resync_notifications, 0, "{label}");
    }
}

// ---------------------------------------------------------------------
// Incremental recovery vs the §4 full-RV fallback
// ---------------------------------------------------------------------

/// Copies of the Example 6 view hosted over the one source: the full-RV
/// fallback pays one resync round trip, with a full-view answer, per
/// view, while the WAL tail the durable path re-sends does not depend on
/// the view count.
const VIEWS: usize = 4;

/// Scripted updates in each run of the cadence ladder.
const LADDER_UPDATES: usize = 24;

/// The multi-view Example 6 deployment, optionally crashing the
/// warehouse at one scheduler step.
fn multi_view_sim(crash_at: Option<u64>) -> ChaosSimulation {
    let (source, view, script) = {
        let workload = Example6::new(Params::default(), 42);
        let source = workload.build_source(Scenario::Indexed).unwrap();
        let script = workload.updates(LADDER_UPDATES, UpdateMix::Mixed);
        (source, Example6::view().unwrap(), script)
    };
    let snapshot = source.snapshot();
    let profile = match crash_at {
        Some(at) => ChaosProfile::none().with_warehouse_crashes(&[at]),
        None => ChaosProfile::none(),
    };
    let mut sim = ChaosSimulation::new();
    let site = sim.add_source_with("s0", source, script, profile);
    for _ in 0..VIEWS {
        let (view, snapshot) = (view.clone(), snapshot.clone());
        sim.add_view_with_factory(site, move || {
            let initial = view.eval(&snapshot).unwrap();
            AlgorithmKind::Eca
                .instantiate_with_base(&view, initial, Some(snapshot.clone()))
                .unwrap()
        })
        .unwrap();
    }
    sim
}

/// What one run charged, reduced to the comparison the gate makes.
struct RunTotals {
    messages: u64,
    bytes: u64,
    finals: Vec<SignedBag>,
    stats: ChaosStats,
}

/// Run to quiescence, require convergence, and total the logical meters
/// of every site.
fn run_totals(sim: ChaosSimulation, label: &str) -> RunTotals {
    let report = sim.run(Policy::Serial).unwrap();
    assert!(report.quiescent && report.converged(), "{label}");
    RunTotals {
        messages: report
            .sites
            .iter()
            .map(|s| s.query_messages + s.answer_messages + s.notification_messages)
            .sum(),
        bytes: report.sites.iter().map(|s| s.bytes_s2w + s.bytes_w2s).sum(),
        finals: report.views.iter().map(|v| v.final_mv.clone()).collect(),
        stats: report.stats,
    }
}

/// A four-view warehouse crashed mid-run, once per checkpoint cadence:
/// recovery from WAL + checkpoint lands on the golden views, every
/// channel recovers incrementally, and the crash costs at most half the
/// extra messages and bytes the §4 full-RV fallback pays for the same
/// crash, and fewer extra messages than one round trip per view. The
/// logged events outnumber the updates (24 updates log 60 records), so
/// replay is bounded by the cadence, not the script length.
#[test]
fn durable_recovery_costs_at_most_half_of_full_resync_at_every_cadence() {
    let golden = run_totals(multi_view_sim(None), "golden");
    let crash_at = (golden.stats.steps / 2).max(1);
    let full = run_totals(multi_view_sim(Some(crash_at)), "full RV");
    assert_eq!(full.finals, golden.finals, "full RV");
    let full_extra_messages = full.messages.saturating_sub(golden.messages);
    let full_extra_bytes = full.bytes.saturating_sub(golden.bytes);
    assert!(full_extra_messages >= 2 * VIEWS as u64);
    for cadence in [1, 4, 16, 64] {
        let label = format!("checkpoint every {cadence}, crash@{crash_at}");
        let dir = tmpdir(&format!("vs-full-c{cadence}"));
        let mut sim = multi_view_sim(Some(crash_at));
        sim.enable_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::PerRecord)
                .with_checkpoint_every(cadence),
        )
        .unwrap();
        let durable = run_totals(sim, &label);
        assert_eq!(durable.finals, golden.finals, "{label}");
        assert!(durable.stats.recovered_incremental >= 1, "{label}");
        assert_eq!(durable.stats.recovered_full, 0, "{label}");
        let extra_messages = durable.messages.saturating_sub(golden.messages);
        let extra_bytes = durable.bytes.saturating_sub(golden.bytes);
        assert!(
            2 * extra_messages <= full_extra_messages,
            "{label}: {extra_messages} extra messages vs {full_extra_messages} for full RV"
        );
        assert!(
            2 * extra_bytes <= full_extra_bytes,
            "{label}: {extra_bytes} extra bytes vs {full_extra_bytes} for full RV"
        );
        assert!(extra_messages < 2 * VIEWS as u64, "{label}");
        // Replay covers only the records logged since the last checkpoint
        // cut, so it is bounded by the cadence, and by the updates applied
        // at every cadence shorter than the script.
        assert!(durable.stats.wal_replayed <= cadence, "{label}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Fault-free identity: durability must be invisible
// ---------------------------------------------------------------------

/// With durability enabled and no crash, every meter, every message
/// count and the entire per-view state history must be identical to the
/// non-durable run — the guarantee that keeps the golden traces valid.
#[test]
fn durable_fault_free_runs_are_meter_identical() {
    let dir = tmpdir("identity");
    for (tag, kind, fixture) in [
        (
            "example2",
            AlgorithmKind::Eca,
            example2_fixture as fn() -> _,
        ),
        (
            "example6",
            AlgorithmKind::Eca,
            example6_fixture as fn() -> _,
        ),
        (
            "selfmaint",
            AlgorithmKind::EcaAux,
            selfmaint_fixture as fn() -> _,
        ),
    ] {
        for policy in [Policy::Serial, Policy::Random { seed: 7 }] {
            let plain = crashable_sim(kind, fixture, ChaosProfile::none())
                .run(policy)
                .unwrap();
            let mut durable = crashable_sim(kind, fixture, ChaosProfile::none());
            durable.enable_durability(config(&dir)).unwrap();
            let durable = durable.run(policy).unwrap();
            let label = format!("{tag} {policy:?}");
            assert_eq!(plain.stats, durable.stats, "{label}");
            for (p, d) in plain.sites.iter().zip(&durable.sites) {
                assert_eq!(p.query_messages, d.query_messages, "{label}");
                assert_eq!(p.answer_messages, d.answer_messages, "{label}");
                assert_eq!(p.notification_messages, d.notification_messages, "{label}");
                assert_eq!(p.answer_bytes, d.answer_bytes, "{label}");
                assert_eq!(p.bytes_s2w, d.bytes_s2w, "{label}");
                assert_eq!(p.bytes_w2s, d.bytes_w2s, "{label}");
            }
            for (p, d) in plain.views.iter().zip(&durable.views) {
                assert_eq!(p.final_mv, d.final_mv, "{label}");
                assert_eq!(
                    p.warehouse_view_states, d.warehouse_view_states,
                    "{label}: durability changed the state history"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Rolling restarts + skewed streams (the stress scenarios)
// ---------------------------------------------------------------------

/// Several crashes in one run — the rolling-restart drill — over a
/// zipfian-skewed stream: every incarnation recovers from the previous
/// one's disk state and the run still lands on the fault-free golden.
#[test]
fn rolling_warehouse_restarts_over_skewed_stream_converge() {
    let workload = Example6::new(Params::default(), 9);
    let fixture = move || {
        let source = workload.build_source(Scenario::Indexed).unwrap();
        let view = Example6::view().unwrap();
        (source, view, workload.zipfian_updates(12, 1.2))
    };
    let (steps, gold) = golden(AlgorithmKind::Eca, &fixture);
    let schedule = eca_workload::rolling_restart_schedule(steps, 3);
    assert_eq!(schedule.len(), 3);
    let dir = tmpdir("rolling");
    let profile = ChaosProfile::none().with_warehouse_crashes(&schedule);
    let mut sim = crashable_sim(AlgorithmKind::Eca, fixture, profile);
    sim.enable_durability(config(&dir)).unwrap();
    let report = sim.run(Policy::Serial).unwrap();
    assert_strongly_consistent(&report, "rolling");
    assert_eq!(report.stats.warehouse_restarts, 3);
    assert_eq!(gold.views[0].final_mv, report.views[0].final_mv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delete-heavy stream with a mid-run crash: recovery replays a log
/// dominated by deletions and compensation, then converges.
#[test]
fn delete_heavy_stream_survives_a_crash() {
    let workload = Example6::new(Params::default(), 13);
    let fixture = move || {
        let source = workload.build_source(Scenario::Indexed).unwrap();
        let view = Example6::view().unwrap();
        (source, view, workload.delete_heavy_updates(14, 75))
    };
    let (steps, gold) = golden(AlgorithmKind::Eca, &fixture);
    let dir = tmpdir("delete-heavy");
    let profile = ChaosProfile::none().with_warehouse_crashes(&[steps / 2]);
    let mut sim = crashable_sim(AlgorithmKind::Eca, fixture, profile);
    sim.enable_durability(config(&dir)).unwrap();
    let report = sim.run(Policy::Serial).unwrap();
    assert_strongly_consistent(&report, "delete-heavy");
    assert_eq!(gold.views[0].final_mv, report.views[0].final_mv);
    let _ = std::fs::remove_dir_all(&dir);
}

//! Chaos acceptance tests: the resume layer plus the warehouse recovery
//! policy must keep every run convergent whatever a deployed channel
//! suffers — connection resets (scripted at every send point, or at a
//! per-send rate) and source restarts. (That a fault-free run through
//! the full stack changes nothing is pinned by the fingerprints in
//! `golden_trace.rs`; warehouse crashes are swept in `recovery.rs`.)
//!
//! Scenarios: Example 2 (the paper's canonical anomaly setup), the
//! Example 6 workload, and a 4-source × 8-view stress fixture shaped like
//! the simulated run in `reactor_stress.rs`.

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, Tuple, Update};
use eca_sim::{ChaosProfile, ChaosRunReport, ChaosSimulation, Policy, SimError};
use eca_source::Source;
use eca_storage::Scenario;
use eca_wire::FaultPlan;
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

/// Example 2's script over Example 5's keyed view shape (§5.4): `W` keys
/// `r1`, `Y` keys `r2`, and both are projected, so ECA-Key applies. The
/// script's data respects both keys.
fn example2_keyed_fixture() -> (Source, ViewDef, Vec<Update>) {
    let s1 = Schema::with_key("r1", &["W", "X"], &["W"]).unwrap();
    let s2 = Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap();
    let view = ViewDef::new(
        "V",
        vec![s1.clone(), s2.clone()],
        Predicate::col_eq(1, 2),
        vec![0, 3],
    )
    .unwrap();
    let mut source = Source::new(Scenario::Indexed);
    source.add_relation(s1, 20, Some("X"), &[]).unwrap();
    source.add_relation(s2, 20, Some("X"), &[]).unwrap();
    source.load("r1", [Tuple::ints([1, 2])]).unwrap();
    let script = vec![
        Update::insert("r2", Tuple::ints([2, 3])),
        Update::insert("r1", Tuple::ints([4, 2])),
    ];
    (source, view, script)
}

fn example6_fixture(seed: u64) -> (Source, ViewDef, Vec<Update>) {
    let workload = Example6::new(Params::default(), seed);
    let source = workload.build_source(Scenario::Indexed).unwrap();
    let view = Example6::view().unwrap();
    let script = workload.updates(12, UpdateMix::Mixed);
    (source, view, script)
}

/// A keyed variant of the Example 6 join chain. Every relation's key is
/// projected (the §5.4 precondition), and the deterministic data keeps
/// each key unique: `r1(i, i%D)`, `r2(i%D, 100+i)`, `r3(100+i, 1000+i)`.
/// The script mixes key-fresh inserts with deletes of loaded tuples so
/// the chaos sweep exercises ECA-Key's local `key-delete` path.
fn example6_keyed_fixture() -> (Source, ViewDef, Vec<Update>) {
    const N: i64 = 24;
    const D: i64 = 4;
    let s1 = Schema::with_key("r1", &["W", "X"], &["W"]).unwrap();
    let s2 = Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap();
    let s3 = Schema::with_key("r3", &["Y", "Z"], &["Z"]).unwrap();
    let view = ViewDef::new(
        "V",
        vec![s1.clone(), s2.clone(), s3.clone()],
        Predicate::col_eq(1, 2).and(Predicate::col_eq(3, 4)),
        vec![0, 3, 5],
    )
    .unwrap();
    let mut source = Source::new(Scenario::Indexed);
    source.add_relation(s1, 20, Some("X"), &[]).unwrap();
    source.add_relation(s2, 20, Some("X"), &["Y"]).unwrap();
    source.add_relation(s3, 20, Some("Y"), &[]).unwrap();
    source
        .load("r1", (0..N).map(|i| Tuple::ints([i, i % D])))
        .unwrap();
    source
        .load("r2", (0..N).map(|i| Tuple::ints([i % D, 100 + i])))
        .unwrap();
    source
        .load("r3", (0..N).map(|i| Tuple::ints([100 + i, 1000 + i])))
        .unwrap();
    let script = (0..12)
        .map(|j| match j % 6 {
            0 => Update::insert("r1", Tuple::ints([1000 + j, j % D])),
            1 => Update::insert("r2", Tuple::ints([j % D, 100 + N + j])),
            2 => Update::insert("r3", Tuple::ints([100 + j, 1000 + N + j])),
            3 => Update::delete("r1", Tuple::ints([j / 2, (j / 2) % D])),
            4 => Update::delete("r2", Tuple::ints([(j / 2) % D, 100 + j / 2])),
            _ => Update::delete("r3", Tuple::ints([100 + j / 2, 1000 + j / 2])),
        })
        .collect();
    (source, view, script)
}

/// One single-site chaos simulation over `fixture` with `profile`.
fn single_site(
    kind: AlgorithmKind,
    fixture: (Source, ViewDef, Vec<Update>),
    profile: ChaosProfile,
) -> ChaosSimulation {
    let (source, view, script) = fixture;
    let snapshot = source.snapshot();
    let initial = view.eval(&snapshot).unwrap();
    let maintainer = kind
        .instantiate_with_base(&view, initial, Some(snapshot))
        .unwrap();
    let mut sim = ChaosSimulation::new();
    let site = sim.add_source_with("s0", source, script, profile);
    sim.add_view(site, maintainer).unwrap();
    sim
}

// The multi-source stress fixture of `reactor_stress.rs`, shrunk to its
// chaos-relevant core.
const SOURCES: usize = 4;
const UPDATES_PER_SOURCE: usize = 50;
const JOIN_DOMAIN: i64 = 7;
const PRELOAD: i64 = 30;

fn relation_names(s: usize) -> (String, String) {
    (format!("r{s}_1"), format!("r{s}_2"))
}

fn stress_source(s: usize) -> Source {
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
            (0..PRELOAD).map(|j| Tuple::ints([j % JOIN_DOMAIN, 100 + j])),
        )
        .unwrap();
    source
}

fn stress_views(s: usize) -> Vec<ViewDef> {
    let (r1, r2) = relation_names(s);
    [vec![0usize], vec![3]]
        .into_iter()
        .enumerate()
        .map(|(v, proj)| {
            ViewDef::new(
                format!("V{s}_{v}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                proj,
            )
            .unwrap()
        })
        .collect()
}

fn stress_script(s: usize) -> Vec<Update> {
    let (r1, r2) = relation_names(s);
    (0..UPDATES_PER_SOURCE as i64)
        .map(|i| match i % 5 {
            4 => {
                let j = i / 5;
                Update::delete(&r1, Tuple::ints([j, j % JOIN_DOMAIN]))
            }
            n if n % 2 == 0 => Update::insert(&r1, Tuple::ints([1000 + i, i % JOIN_DOMAIN])),
            _ => Update::insert(&r2, Tuple::ints([i % JOIN_DOMAIN, 2000 + i])),
        })
        .collect()
}

fn stress_chaos(profiles: impl Fn(usize) -> ChaosProfile) -> ChaosSimulation {
    let mut sim = ChaosSimulation::new();
    for s in 0..SOURCES {
        let site = sim.add_source_with(
            format!("s{s}"),
            stress_source(s),
            stress_script(s),
            profiles(s),
        );
        let probe = stress_source(s);
        for view in stress_views(s) {
            let initial = view.eval(&probe.snapshot()).unwrap();
            sim.add_view(
                site,
                AlgorithmKind::Eca.instantiate(&view, initial).unwrap(),
            )
            .unwrap();
        }
    }
    sim
}

/// The per-site, per-direction reset plans every scenario is swept
/// through at three distinct seeds: resets at a per-send rate, at
/// scripted points, and both.
fn fault_sweeps(seed: u64) -> Vec<(&'static str, ChaosProfile)> {
    vec![
        (
            "rated resets",
            ChaosProfile::symmetric(FaultPlan::resets(seed, 0.2)),
        ),
        (
            "scripted resets",
            ChaosProfile::symmetric(FaultPlan::none().with_resets(&[1, 4, 9])),
        ),
        (
            "rated+scripted resets",
            ChaosProfile::symmetric(FaultPlan::resets(seed, 0.1).with_resets(&[6])),
        ),
    ]
}

fn assert_clean(report: &ChaosRunReport, label: &str) {
    assert!(report.quiescent, "{label}: warehouse did not settle");
    assert!(
        report.converged(),
        "{label}: a view diverged from its source"
    );
}

// ---------------------------------------------------------------------
// Example 2 under injected faults
// ---------------------------------------------------------------------

/// Example 2 with Eca and EcaKey under `Policy::Random`, swept through
/// every reset family at three seeds each: every run must converge to
/// the same final view a fault-free run produces.
#[test]
fn example2_converges_under_every_fault_family() {
    for kind in [AlgorithmKind::Eca, AlgorithmKind::EcaKey] {
        // ECA-Key requires its §5.4 precondition (every key projected),
        // so its sweep runs the keyed shape of the same script; each
        // shape is compared against its own fault-free golden.
        let fixture = || match kind {
            AlgorithmKind::EcaKey => example2_keyed_fixture(),
            _ => example2_fixture(),
        };
        let golden = single_site(AlgorithmKind::Eca, fixture(), ChaosProfile::none())
            .run(Policy::Serial)
            .unwrap()
            .views[0]
            .final_mv
            .clone();
        for seed in [1, 2, 3] {
            for (family, profile) in fault_sweeps(seed) {
                let label = format!("example2 {kind:?} seed {seed} {family}");
                let report = single_site(kind, fixture(), profile)
                    .run(Policy::Random { seed })
                    .unwrap();
                assert_clean(&report, &label);
                assert_eq!(report.views[0].final_mv, golden, "{label}");
            }
        }
    }
}

/// Basic is not compensation-safe: re-issuing a pending query after a
/// reset would re-introduce the §4 anomalies, so the recovery policy
/// must take it straight to an RV-style resync — and still converge.
/// (Basic's §4 correctness argument needs the serial interleaving, so
/// the chaos run uses `Policy::Serial` like the paper does.)
#[test]
fn example2_basic_with_resync_survives_resets() {
    let golden = single_site(AlgorithmKind::Eca, example2_fixture(), ChaosProfile::none())
        .run(Policy::Serial)
        .unwrap()
        .views[0]
        .final_mv
        .clone();
    for reset_at in [1, 2, 3] {
        let profile = ChaosProfile {
            s2w: FaultPlan::none(),
            w2s: FaultPlan::none().with_resets(&[reset_at]),
            restarts: vec![],
        };
        let label = format!("example2 Basic reset@{reset_at}");
        let report = single_site(AlgorithmKind::Basic, example2_fixture(), profile)
            .run(Policy::Serial)
            .unwrap();
        assert_clean(&report, &label);
        assert_eq!(report.views[0].final_mv, golden, "{label}");
    }
}

// ---------------------------------------------------------------------
// A reset at every send point (exhaustive, not sampled)
// ---------------------------------------------------------------------

/// Sends on each direction of a fault-free run — the points a reset
/// sweep covers. Source → warehouse carries notifications and answers;
/// warehouse → source carries queries and the acks, which are the raw
/// ledger's surplus over the logical one.
fn send_points(report: &ChaosRunReport) -> (u64, u64) {
    let (site, overhead) = (&report.sites[0], &report.overhead[0]);
    (
        site.notification_messages + site.answer_messages,
        site.query_messages + overhead.raw_messages - overhead.logical_messages,
    )
}

/// Reset the connection at every send point of the fault-free run, in
/// each direction, under `Policy::Serial`: every run settles on the
/// fault-free ECA golden, and ECA and ECA-Key stay strongly consistent
/// across the reset (Basic only converges, through its resync).
fn sweep_reset_points(
    kind: AlgorithmKind,
    fixture: impl Fn() -> (Source, ViewDef, Vec<Update>),
    tag: &str,
) {
    let golden = single_site(AlgorithmKind::Eca, fixture(), ChaosProfile::none())
        .run(Policy::Serial)
        .unwrap()
        .views[0]
        .final_mv
        .clone();
    let fault_free = single_site(kind, fixture(), ChaosProfile::none())
        .run(Policy::Serial)
        .unwrap();
    let (s2w_sends, w2s_sends) = send_points(&fault_free);
    assert!(s2w_sends > 0 && w2s_sends > 0, "{tag}: nothing was sent");
    for (direction, sends) in [("s2w", s2w_sends), ("w2s", w2s_sends)] {
        for at in 0..sends {
            let label = format!("{tag} {kind:?} {direction} reset@{at}/{sends}");
            let plan = FaultPlan::none().with_resets(&[at]);
            let profile = match direction {
                "s2w" => ChaosProfile {
                    s2w: plan,
                    ..ChaosProfile::none()
                },
                _ => ChaosProfile {
                    w2s: plan,
                    ..ChaosProfile::none()
                },
            };
            let report = single_site(kind, fixture(), profile)
                .run(Policy::Serial)
                .unwrap();
            assert_clean(&report, &label);
            assert_eq!(report.stats.resets, 1, "{label}");
            assert_eq!(report.views[0].final_mv, golden, "{label}");
            if kind != AlgorithmKind::Basic {
                let v = &report.views[0];
                let c = eca_consistency::check(&v.source_view_states, &v.warehouse_view_states);
                assert!(c.strongly_consistent, "{label}: {:?}", c.violation);
            }
        }
    }
}

#[test]
fn example2_survives_a_reset_at_every_send_point() {
    sweep_reset_points(AlgorithmKind::Eca, example2_fixture, "example2");
    sweep_reset_points(AlgorithmKind::EcaKey, example2_keyed_fixture, "example2");
    sweep_reset_points(AlgorithmKind::Basic, example2_fixture, "example2");
}

#[test]
fn example6_survives_a_reset_at_every_send_point() {
    sweep_reset_points(AlgorithmKind::Eca, || example6_fixture(42), "example6");
    sweep_reset_points(AlgorithmKind::EcaKey, example6_keyed_fixture, "example6");
    sweep_reset_points(AlgorithmKind::Basic, || example6_fixture(42), "example6");
}

// ---------------------------------------------------------------------
// Example 6 under injected faults
// ---------------------------------------------------------------------

#[test]
fn example6_converges_under_every_fault_family() {
    for kind in [AlgorithmKind::Eca, AlgorithmKind::EcaKey] {
        // As in the Example 2 sweep: ECA-Key runs the keyed variant of
        // the join chain, compared against that variant's own golden.
        let fixture = || match kind {
            AlgorithmKind::EcaKey => example6_keyed_fixture(),
            _ => example6_fixture(42),
        };
        let golden = single_site(AlgorithmKind::Eca, fixture(), ChaosProfile::none())
            .run(Policy::Serial)
            .unwrap()
            .views[0]
            .final_mv
            .clone();
        for seed in [11, 12, 13] {
            for (family, profile) in fault_sweeps(seed) {
                let label = format!("example6 {kind:?} seed {seed} {family}");
                let report = single_site(kind, fixture(), profile)
                    .run(Policy::Random { seed })
                    .unwrap();
                assert_clean(&report, &label);
                assert_eq!(report.views[0].final_mv, golden, "{label}");
            }
        }
    }
}

#[test]
fn example6_basic_with_resync_survives_resets() {
    let golden = single_site(
        AlgorithmKind::Eca,
        example6_fixture(42),
        ChaosProfile::none(),
    )
    .run(Policy::Serial)
    .unwrap()
    .views[0]
        .final_mv
        .clone();
    let profile = ChaosProfile {
        s2w: FaultPlan::none(),
        w2s: FaultPlan::none().with_resets(&[2, 9]),
        restarts: vec![],
    };
    let report = single_site(AlgorithmKind::Basic, example6_fixture(42), profile)
        .run(Policy::Serial)
        .unwrap();
    assert_clean(&report, "example6 Basic resets");
    assert_eq!(report.views[0].final_mv, golden);
}

// ---------------------------------------------------------------------
// Self-maintenance (ECA-Aux) under injected faults
// ---------------------------------------------------------------------

/// The keyed fig-6.x join chain ECA-Aux self-maintains: same data and
/// script as [`example6_fixture`], view schemas carrying the key
/// metadata the auxiliary derivation needs.
fn example6_selfmaint_fixture() -> (Source, ViewDef, Vec<Update>) {
    let workload = Example6::new(Params::default(), 42);
    let source = workload.build_source(Scenario::Indexed).unwrap();
    let view = Example6::keyed_view().unwrap();
    let script = workload.updates(12, UpdateMix::Mixed);
    (source, view, script)
}

/// Connection resets must not cost ECA-Aux its self-maintenance: the
/// resume re-sends lost notifications and invalidates no auxiliary, so
/// every compensating query is still answered locally — zero logical
/// queries, zero answer bytes — and the final view matches the
/// fault-free ECA golden.
#[test]
fn eca_aux_stays_fully_local_under_every_fault_family() {
    let golden = single_site(
        AlgorithmKind::Eca,
        example6_selfmaint_fixture(),
        ChaosProfile::none(),
    )
    .run(Policy::Serial)
    .unwrap()
    .views[0]
        .final_mv
        .clone();
    for seed in [21, 22, 23] {
        for (family, profile) in fault_sweeps(seed) {
            let label = format!("selfmaint seed {seed} {family}");
            let report = single_site(AlgorithmKind::EcaAux, example6_selfmaint_fixture(), profile)
                .run(Policy::Random { seed })
                .unwrap();
            assert_clean(&report, &label);
            assert_eq!(report.views[0].final_mv, golden, "{label}");
            assert_eq!(
                report.sites[0].query_messages, 0,
                "{label}: a fault leaked a round-trip"
            );
            assert_eq!(report.sites[0].answer_bytes, 0, "{label}");
        }
    }
}

/// A source restart loses the auxiliary views' ground truth: the view
/// degrades to an RV-style resync, `reset_to` marks every auxiliary
/// stale, and the next update triggers their rebuild queries — after
/// which maintenance is local again and the run converges to the
/// fault-free golden.
#[test]
fn eca_aux_rebuilds_auxiliaries_after_source_restart() {
    let golden = single_site(
        AlgorithmKind::Eca,
        example6_selfmaint_fixture(),
        ChaosProfile::none(),
    )
    .run(Policy::Serial)
    .unwrap()
    .views[0]
        .final_mv
        .clone();
    let profile = ChaosProfile::none().with_restarts(&[8]);
    let report = single_site(AlgorithmKind::EcaAux, example6_selfmaint_fixture(), profile)
        .run(Policy::Random { seed: 31 })
        .unwrap();
    assert_clean(&report, "selfmaint restart");
    assert_eq!(report.views[0].final_mv, golden);
    let s = report.stats;
    assert_eq!(s.restarts, 1, "{s:?}");
    assert!(s.resyncs_started >= 1, "restart must degrade: {s:?}");
    assert_eq!(
        s.resyncs_completed, s.resyncs_started,
        "every resync must complete: {s:?}"
    );
    // The wire carries the resync query plus one rebuild query per
    // auxiliary (three relations) — and nothing else, because updates
    // before the restart and after the rebuild are answered locally.
    assert!(
        report.sites[0].query_messages >= 4,
        "resync + 3 aux rebuilds expected, saw {}",
        report.sites[0].query_messages
    );
    // Quiescence proves the rebuilds were answered and installed (a
    // pending refresh blocks `is_quiescent`).
}

/// Mid-run connection resets on both directions: the channel resumes
/// from the outbox, no auxiliary is invalidated, and self-maintenance
/// continues without a single compensating round-trip.
#[test]
fn eca_aux_survives_resets_without_losing_locality() {
    let golden = single_site(
        AlgorithmKind::Eca,
        example6_selfmaint_fixture(),
        ChaosProfile::none(),
    )
    .run(Policy::Serial)
    .unwrap()
    .views[0]
        .final_mv
        .clone();
    let profile = ChaosProfile::symmetric(FaultPlan::resets(77, 0.1).with_resets(&[3, 9]));
    let report = single_site(AlgorithmKind::EcaAux, example6_selfmaint_fixture(), profile)
        .run(Policy::Random { seed: 55 })
        .unwrap();
    assert_clean(&report, "selfmaint resets");
    assert_eq!(report.views[0].final_mv, golden);
    assert!(report.stats.resets >= 1, "{:?}", report.stats);
    assert_eq!(report.sites[0].query_messages, 0);
}

// ---------------------------------------------------------------------
// Multi-source stress under injected faults
// ---------------------------------------------------------------------

/// The 4-source × 8-view stress scenario with a different reset plan on
/// every site — a per-send rate, scripted points on one direction, and
/// both — at three scheduler seeds. Every view must converge.
#[test]
fn multi_source_stress_converges_under_per_site_fault_mix() {
    for seed in [5, 6, 7] {
        let report = stress_chaos(|s| match s {
            0 => ChaosProfile::symmetric(FaultPlan::resets(seed + 100, 0.1)),
            1 => ChaosProfile {
                s2w: FaultPlan::none(),
                w2s: FaultPlan::none().with_resets(&[3, 30, 60]),
                restarts: vec![],
            },
            2 => ChaosProfile {
                s2w: FaultPlan::none().with_resets(&[10, 50]),
                w2s: FaultPlan::none(),
                restarts: vec![],
            },
            _ => ChaosProfile::symmetric(FaultPlan::resets(seed + 400, 0.05).with_resets(&[40])),
        })
        .run(Policy::Random { seed })
        .unwrap();
        assert_clean(&report, &format!("stress seed {seed}"));
        let s = report.stats;
        assert!(
            s.resets >= 6 && s.resync_notifications > 0,
            "seed {seed}: every scripted reset must fire and resume ({s:?})"
        );
    }
}

/// A scripted source restart loses session state on both ends: the
/// warehouse must degrade every view over the site and recover each via
/// an RV-style resync (Alg. D.1) — the acceptance criterion's
/// "≥ 1 run exercising the resync path".
#[test]
fn multi_source_stress_restart_exercises_rv_resync() {
    let report = stress_chaos(|s| match s {
        0 => ChaosProfile::symmetric(FaultPlan::resets(900, 0.05)).with_restarts(&[250]),
        _ => ChaosProfile::none(),
    })
    .run(Policy::Random { seed: 0xECA })
    .unwrap();
    assert_clean(&report, "stress restart");
    let s = report.stats;
    assert_eq!(s.restarts, 1, "{s:?}");
    assert!(s.resyncs_started >= 1, "restart must degrade views: {s:?}");
    assert_eq!(
        s.resyncs_completed, s.resyncs_started,
        "every resync must complete: {s:?}"
    );
}

/// Retry exhaustion is the other road into a resync: when a reset kills
/// every re-issue of a pending query, the reset after the third re-issue
/// degrades its view even though ECA could have re-issued safely.
#[test]
fn retry_exhaustion_falls_back_to_resync_and_converges() {
    // Send 1 kills the connection with a query pending; sends 2, 3 and
    // 4 are its three re-issues, each killed in turn.
    let profile = ChaosProfile {
        s2w: FaultPlan::none(),
        w2s: FaultPlan::none().with_resets(&[1, 2, 3, 4]),
        restarts: vec![],
    };
    let sim = single_site(AlgorithmKind::Eca, example2_fixture(), profile);
    let report = sim.run(Policy::Random { seed: 4 }).unwrap();
    assert_clean(&report, "retry exhaustion");
    assert!(
        report.stats.resyncs_started >= 1,
        "with zero retries the reset must degrade: {:?}",
        report.stats
    );
}

/// A hopeless channel must not hang: a connection that resets on every
/// send is reconnected and resumed again and again, and the run ends in
/// the step-cap error rather than spinning forever.
#[test]
fn total_loss_is_detected_not_hung() {
    // Every s2w send resets, forever: nothing can converge, but the
    // step cap must turn that into an error.
    let profile = ChaosProfile {
        s2w: FaultPlan::resets(1, 1.0),
        w2s: FaultPlan::none(),
        restarts: vec![],
    };
    let result = single_site(AlgorithmKind::Eca, example2_fixture(), profile)
        .run(Policy::Random { seed: 1 });
    match result {
        Err(SimError::Protocol(msg)) => assert!(msg.contains("step cap"), "{msg}"),
        Ok(report) => panic!(
            "a channel that resets on every send cannot converge, got quiescent={}",
            report.quiescent
        ),
        Err(e) => panic!("expected the livelock guard, got {e}"),
    }
}

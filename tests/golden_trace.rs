//! Golden-trace equivalence: for fixed seeds, the refactored transport
//! stack must produce byte-identical [`TraceEvent`] sequences and
//! [`RunReport`] byte counts to the pre-refactor direct-wired simulator.
//!
//! The expected fingerprints below were captured from the simulator
//! *before* the `Transport`/`Warehouse` re-layering (commit 31ee504),
//! so any drift in event order, query-id assignment or message
//! encoding shows up as a failure here.

use eca_bench::equiv::{run_equivalence, run_reactor_tcp, EquivCase, EquivSource};
use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, Tuple, Update};
use eca_sim::{ChaosRunReport, ChaosSimulation, Policy, RunReport, Simulation, SiteId, TraceEvent};
use eca_source::Source;
use eca_storage::Scenario;
use eca_workload::{Example6, Params, UpdateMix};

/// FNV-1a over the debug rendering of the trace and the meters: cheap,
/// dependency-free, and sensitive to any reordering or re-encoding.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn fingerprint(report: &RunReport) -> u64 {
    let rendered = format!(
        "{:?}|q{} a{} n{} ab{} at{} s2w{} w2s{}|{:?}|{:?}",
        report.trace,
        report.query_messages,
        report.answer_messages,
        report.notification_messages,
        report.answer_bytes,
        report.answer_tuples,
        report.bytes_s2w,
        report.bytes_w2s,
        report.source_view_states,
        report.warehouse_view_states,
    );
    fnv1a(rendered.as_bytes())
}

/// The Example 2 setup used throughout the sim's unit tests.
fn example2_sim(kind: AlgorithmKind) -> Simulation {
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
    let snapshot = source.snapshot();
    let initial = view.eval(&snapshot).unwrap();
    let warehouse = kind
        .instantiate_with_base(&view, initial, Some(snapshot))
        .unwrap();
    Simulation::new(
        source,
        warehouse,
        vec![
            Update::insert("r2", Tuple::ints([2, 3])),
            Update::insert("r1", Tuple::ints([4, 2])),
        ],
    )
    .unwrap()
}

fn example6_sim(kind: AlgorithmKind, seed: u64) -> Simulation {
    let workload = Example6::new(Params::default(), seed);
    let source = workload.build_source(Scenario::Indexed).unwrap();
    let view = Example6::view().unwrap();
    let snapshot = source.snapshot();
    let initial = view.eval(&snapshot).unwrap();
    let warehouse = kind
        .instantiate_with_base(&view, initial, Some(snapshot))
        .unwrap();
    let script = workload.updates(12, UpdateMix::Mixed);
    Simulation::new(source, warehouse, script).unwrap()
}

/// The Example 2 deployment as an equivalence case: same relations,
/// view and script as [`example2_sim`], wired over a real transport for
/// the three warehouse runtimes.
fn example2_equiv_case() -> EquivCase {
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
    let initial = view.eval(&source.snapshot()).unwrap();
    let maintainer = AlgorithmKind::Eca.instantiate(&view, initial).unwrap();
    EquivCase {
        sources: vec![EquivSource {
            source,
            script: vec![
                Update::insert("r2", Tuple::ints([2, 3])),
                Update::insert("r1", Tuple::ints([4, 2])),
            ],
            maintainers: vec![maintainer],
        }],
    }
}

/// The Example 6 workload as an equivalence case. The mixed script is
/// pre-filtered to *effective* updates (replayed against a probe copy
/// of the source) because the reactor driver is told up front how
/// many notifications to expect — one per script entry.
fn example6_equiv_case(seed: u64) -> EquivCase {
    let workload = Example6::new(Params::default(), seed);
    let mut probe = workload.build_source(Scenario::Indexed).unwrap();
    let script: Vec<Update> = workload
        .updates(12, UpdateMix::Mixed)
        .into_iter()
        .filter(|u| probe.execute_update(u))
        .collect();
    let source = workload.build_source(Scenario::Indexed).unwrap();
    let view = Example6::view().unwrap();
    let initial = view.eval(&source.snapshot()).unwrap();
    let maintainer = AlgorithmKind::Eca.instantiate(&view, initial).unwrap();
    EquivCase {
        sources: vec![EquivSource {
            source,
            script,
            maintainers: vec![maintainer],
        }],
    }
}

fn example6_equiv_42() -> EquivCase {
    example6_equiv_case(42)
}

fn example6_equiv_43() -> EquivCase {
    example6_equiv_case(43)
}

#[test]
fn example2_fingerprints_are_stable() {
    let expected: &[(AlgorithmKind, Policy, u64)] = &[
        (AlgorithmKind::Eca, Policy::Serial, 0x041944a725313d62),
        (
            AlgorithmKind::Eca,
            Policy::AllUpdatesFirst,
            0x96f789c5d1b9b28d,
        ),
        (
            AlgorithmKind::Basic,
            Policy::AllUpdatesFirst,
            0x9852dcf5e7963299,
        ),
        (
            AlgorithmKind::Lca,
            Policy::AllUpdatesFirst,
            0x403f11ed26133f49,
        ),
        (
            AlgorithmKind::Eca,
            Policy::Random { seed: 0 },
            0xcd77a66144195be5,
        ),
        (
            AlgorithmKind::Eca,
            Policy::Random { seed: 1 },
            0x2bc937843c1563b7,
        ),
        (
            AlgorithmKind::Eca,
            Policy::Random { seed: 2 },
            0x2c7f4dd425bdab8d,
        ),
        (
            AlgorithmKind::Lca,
            Policy::Random { seed: 3 },
            0x041944a725313d62,
        ),
    ];
    for (kind, policy, want) in expected {
        let report = example2_sim(*kind).run(*policy).unwrap();
        let got = fingerprint(&report);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("({kind:?}, {policy:?}, 0x{got:016x}),");
        } else {
            assert_eq!(got, *want, "{kind:?} under {policy:?}");
        }
    }
}

#[test]
fn example6_fingerprints_are_stable() {
    let expected: &[(u64, Policy, u64)] = &[
        (42, Policy::AllUpdatesFirst, 0x684b0dcb0d8de236),
        (42, Policy::Random { seed: 7 }, 0xc81faa640e272e96),
        (43, Policy::Random { seed: 8 }, 0x39a7acea7846d619),
    ];
    for (seed, policy, want) in expected {
        let report = example6_sim(AlgorithmKind::Eca, *seed)
            .run(*policy)
            .unwrap();
        let got = fingerprint(&report);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("({seed}, {policy:?}, 0x{got:016x}),");
        } else {
            assert_eq!(got, *want, "workload seed {seed} under {policy:?}");
        }
    }
}

/// The serial warehouse and the reactor must produce byte-identical
/// view-state histories, final materializations and link meters on
/// Examples 2 and 6 — and the common outcome must match the pinned
/// fingerprint, so a change that shifts *both* drivers in lockstep
/// still shows up. The reactor is additionally run at several
/// pool sizes: §3 says the verdict may not depend on scheduling.
#[test]
fn runtime_equivalence_fingerprints_are_stable() {
    type CaseBuilder = fn() -> EquivCase;
    let cases: &[(&str, CaseBuilder, u64)] = &[
        ("example2", example2_equiv_case, 0x1987a011bc710dc5),
        ("example6/42", example6_equiv_42, 0x3f9e4d6b4081d12e),
        ("example6/43", example6_equiv_43, 0x45533b3eb020aa93),
    ];
    for (name, build, want) in cases {
        for workers in [1usize, 2, 4] {
            let triple = run_equivalence(build, workers).unwrap();
            assert!(
                triple.agree(),
                "{name}: runtimes disagree at {workers} workers\nserial:     {:?}\nreactor:    {:?}",
                triple.serial,
                triple.reactor
            );
            let got = fnv1a(triple.serial.render().as_bytes());
            if std::env::var("GOLDEN_PRINT").is_ok() {
                if workers == 1 {
                    println!("({name:?}, …, 0x{got:016x}),");
                }
            } else {
                assert_eq!(got, *want, "{name} at {workers} workers");
            }
        }
    }
}

/// The reactor over real loopback TCP — listener handshake, workers
/// asleep in `poll(2)` on their own sockets, framed non-blocking sockets,
/// a source fleet parked on the same descriptor-aware waker — must land on the *same* pinned
/// fingerprint as the in-memory runtimes: swapping every link's bytes
/// onto the wire may not change a single observable (view-state
/// histories, finals, or source-side link meters).
#[test]
fn tcp_reactor_matches_in_memory_golden() {
    type CaseBuilder = fn() -> EquivCase;
    let cases: &[(&str, CaseBuilder, u64)] = &[
        ("example2", example2_equiv_case, 0x1987a011bc710dc5),
        ("example6/42", example6_equiv_42, 0x3f9e4d6b4081d12e),
    ];
    for (name, build, want) in cases {
        for workers in [1usize, 2] {
            let outcome = run_reactor_tcp(build(), workers).unwrap();
            let got = fnv1a(outcome.render().as_bytes());
            if std::env::var("GOLDEN_PRINT").is_ok() {
                if workers == 1 {
                    println!("({name:?}, …, 0x{got:016x}),");
                }
            } else {
                assert_eq!(got, *want, "{name} over TCP at {workers} workers");
            }
        }
    }
}

/// Two-relation join source for the multi-site fixture: `ra(A, B)` ⋈
/// `rb(B, C)`, one row preloaded on the side named by `preload`.
fn join_site(ra: &str, rb: &str, preload: (&str, [i64; 2])) -> Source {
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new(ra, &["A", "B"]), 20, Some("B"), &[])
        .unwrap();
    source
        .add_relation(Schema::new(rb, &["B", "C"]), 20, Some("B"), &[])
        .unwrap();
    source.load(preload.0, [Tuple::ints(preload.1)]).unwrap();
    source
}

fn join_view(name: &str, ra: &str, rb: &str, proj: usize) -> ViewDef {
    ViewDef::new(
        name,
        vec![Schema::new(ra, &["A", "B"]), Schema::new(rb, &["B", "C"])],
        Predicate::col_eq(1, 2),
        vec![proj],
    )
    .unwrap()
}

/// Three autonomous sites, two views each, four algorithms: Example 2's
/// relations with a delete in the script, a second join site, and the
/// Example 6 workload maintained by ECA and (keyed) ECA-Aux side by
/// side.
fn multi_site_sim() -> ChaosSimulation {
    let workload = Example6::new(Params::default(), 42);
    type Site = (
        &'static str,
        Source,
        Vec<Update>,
        Vec<(ViewDef, AlgorithmKind)>,
    );
    let sites: Vec<Site> = vec![
        (
            "a",
            join_site("r1", "r2", ("r1", [1, 2])),
            vec![
                Update::insert("r2", Tuple::ints([2, 3])),
                Update::insert("r1", Tuple::ints([4, 2])),
                Update::delete("r2", Tuple::ints([2, 3])),
                Update::insert("r2", Tuple::ints([2, 7])),
            ],
            vec![
                (join_view("Va0", "r1", "r2", 0), AlgorithmKind::Eca),
                (join_view("Va1", "r1", "r2", 3), AlgorithmKind::Lca),
            ],
        ),
        (
            "b",
            join_site("r3", "r4", ("r4", [5, 6])),
            vec![
                Update::insert("r3", Tuple::ints([9, 5])),
                Update::delete("r4", Tuple::ints([5, 6])),
                Update::insert("r4", Tuple::ints([5, 8])),
            ],
            vec![
                (join_view("Vb0", "r3", "r4", 0), AlgorithmKind::EcaOptimized),
                (join_view("Vb1", "r3", "r4", 3), AlgorithmKind::Eca),
            ],
        ),
        (
            "c",
            workload.build_source(Scenario::Indexed).unwrap(),
            workload.updates(6, UpdateMix::Mixed),
            vec![
                (Example6::view().unwrap(), AlgorithmKind::Eca),
                (Example6::keyed_view().unwrap(), AlgorithmKind::EcaAux),
            ],
        ),
    ];
    let mut sim = ChaosSimulation::new();
    for (name, source, script, views) in sites {
        let snapshot = source.snapshot();
        let site = sim.add_source(name, source, script);
        for (view, kind) in views {
            let initial = view.eval(&snapshot).unwrap();
            let maintainer = kind
                .instantiate_with_base(&view, initial, Some(snapshot.clone()))
                .unwrap();
            sim.add_view(site, maintainer).unwrap();
        }
    }
    sim
}

/// The multi-site counterpart of [`fingerprint`]: per-site trace order
/// and meters, then per-view source and warehouse histories. The global
/// cross-site interleaving of the trace is deliberately left out — it is
/// the one thing `Policy::AllUpdatesFirst` does not pin.
fn multi_site_fingerprint(report: &ChaosRunReport) -> u64 {
    let mut rendered = String::new();
    for (i, s) in report.sites.iter().enumerate() {
        let own: Vec<&TraceEvent> = report
            .trace
            .iter()
            .filter(|(site, _)| *site == SiteId(i))
            .map(|(_, e)| e)
            .collect();
        rendered.push_str(&format!(
            "{}:{own:?}|q{} a{} n{} ab{} at{} s2w{} w2s{}\n",
            s.name,
            s.query_messages,
            s.answer_messages,
            s.notification_messages,
            s.answer_bytes,
            s.answer_tuples,
            s.bytes_s2w,
            s.bytes_w2s,
        ));
    }
    for v in &report.views {
        rendered.push_str(&format!(
            "{}@{}:{:?}|{:?}\n",
            v.view_name, v.site.0, v.source_view_states, v.warehouse_view_states
        ));
    }
    fnv1a(rendered.as_bytes())
}

/// Captured from the plain multi-source scheduler (no link stack) at
/// the commit before it was deleted: the one engine, with its
/// fault-free outbox and reset clocks in the path, must
/// reproduce every per-site trace, meter and per-view history.
#[test]
fn multi_site_fingerprints_are_stable() {
    let expected: &[(Policy, u64)] = &[
        (Policy::Serial, 0x93332a3121c929cb),
        (Policy::AllUpdatesFirst, 0x039429173f6e7401),
        (Policy::Random { seed: 11 }, 0x6700126edab1e12c),
        (Policy::Random { seed: 42 }, 0x6b7d5c42a89a8f7c),
    ];
    for (policy, want) in expected {
        let report = multi_site_sim().run(*policy).unwrap();
        assert!(report.quiescent && report.converged(), "{policy:?}");
        let got = multi_site_fingerprint(&report);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("({policy:?}, 0x{got:016x}),");
        } else {
            assert_eq!(got, *want, "{policy:?}");
        }
    }
}

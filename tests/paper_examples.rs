//! Integration: replay the paper's worked Examples 1–9 through the full
//! stack (storage engine → source → wire codec → simulator → warehouse
//! algorithms) and verify the anomalies and their repairs end to end.

use eca_core::algorithms::AlgorithmKind;
use eca_relational::Tuple;
use eca_sim::{Policy, RunReport, SimError, Simulation};
use eca_source::Source;
use eca_storage::Scenario as CostScenario;
use eca_workload::scenarios::{self, Scenario};

fn run(scenario: &Scenario, kind: AlgorithmKind, policy: Policy) -> Result<RunReport, SimError> {
    let mut source = Source::new(CostScenario::Indexed);
    for schema in scenario.view.base() {
        source
            .add_relation(schema.clone(), 20, None, &[])
            .expect("schema registers");
    }
    for (rel, tuples) in &scenario.initial {
        source.load(rel, tuples.iter().cloned()).expect("load");
    }
    let snapshot = source.snapshot();
    let initial = scenario.view.eval(&snapshot).expect("initial view");
    let warehouse = kind
        .instantiate_with_base(&scenario.view, initial, Some(snapshot))
        .expect("instantiate");
    Simulation::new(source, warehouse, scenario.updates.clone())?.run(policy)
}

/// Example 1: with spaced updates even the basic algorithm is correct,
/// and the view retains the duplicate [1] (duplicate semantics matter).
#[test]
fn example_1_basic_correct_when_serial() {
    let sc = scenarios::example1().unwrap();
    let report = run(&sc, AlgorithmKind::Basic, Policy::Serial).unwrap();
    assert!(report.converged());
    assert_eq!(report.final_mv.count(&Tuple::ints([1])), 2);
}

/// Example 2: the insert anomaly. The basic algorithm double-counts [4]
/// under the adversarial interleaving; ECA repairs it.
#[test]
fn example_2_insert_anomaly_and_repair() {
    let sc = scenarios::example2().unwrap();
    let naive = run(&sc, AlgorithmKind::Basic, Policy::AllUpdatesFirst).unwrap();
    assert!(!naive.converged(), "the anomaly must reproduce");
    assert_eq!(naive.final_mv.count(&Tuple::ints([4])), 2);

    let eca = run(&sc, AlgorithmKind::Eca, Policy::AllUpdatesFirst).unwrap();
    assert!(eca.converged());
    assert_eq!(eca.final_mv, sc.expected_final);

    // The recorded history of the naive run is not even weakly
    // consistent — the paper's §3 classification.
    let check = eca_consistency::check(&naive.source_view_states, &naive.warehouse_view_states);
    assert!(!check.weakly_consistent);
}

/// Example 3: the deletion anomaly leaves a phantom [1,3]; ECA removes it.
#[test]
fn example_3_delete_anomaly_and_repair() {
    let sc = scenarios::example3().unwrap();
    let naive = run(&sc, AlgorithmKind::Basic, Policy::AllUpdatesFirst).unwrap();
    assert!(!naive.converged());
    assert_eq!(naive.final_mv.count(&Tuple::ints([1, 3])), 1);

    let eca = run(&sc, AlgorithmKind::Eca, Policy::AllUpdatesFirst).unwrap();
    assert!(eca.converged());
    assert!(eca.final_mv.is_empty());
}

/// Examples 4 and 7: three inserts, batched and interleaved, under ECA.
#[test]
fn examples_4_and_7_eca_three_inserts() {
    for sc in [
        scenarios::example4().unwrap(),
        scenarios::example7().unwrap(),
    ] {
        for policy in [
            Policy::AllUpdatesFirst,
            Policy::Serial,
            Policy::Random { seed: 4 },
        ] {
            let report = run(&sc, AlgorithmKind::Eca, policy).unwrap();
            assert!(report.converged(), "{} under {policy:?}", sc.name);
            assert_eq!(report.final_mv, sc.expected_final, "{}", sc.name);
        }
    }
}

/// Example 5: ECA-Key — deletes handled locally (zero queries for the
/// delete), duplicates suppressed.
#[test]
fn example_5_eca_key() {
    let sc = scenarios::example5().unwrap();
    let report = run(&sc, AlgorithmKind::EcaKey, Policy::AllUpdatesFirst).unwrap();
    assert!(report.converged());
    assert_eq!(report.final_mv, sc.expected_final);
    // Two inserts → two queries; the delete is local.
    assert_eq!(report.query_messages, 2);
    assert_eq!(
        report.final_mv.count(&Tuple::ints([3, 4])),
        1,
        "no duplicate"
    );
}

/// Examples 8 and 9: deletions (and a racing insert) under ECA.
#[test]
fn examples_8_and_9_deletions() {
    for sc in [
        scenarios::example8().unwrap(),
        scenarios::example9().unwrap(),
    ] {
        let report = run(&sc, AlgorithmKind::Eca, Policy::AllUpdatesFirst).unwrap();
        assert!(report.converged(), "{}", sc.name);
        assert_eq!(report.final_mv, sc.expected_final, "{}", sc.name);
    }
}

/// Every canned scenario, every correct algorithm, every policy: the
/// final view is right and the history is at least strongly consistent.
#[test]
fn all_scenarios_all_correct_algorithms() {
    for sc in scenarios::all().unwrap() {
        let mut kinds = vec![
            AlgorithmKind::Eca,
            AlgorithmKind::EcaOptimized,
            AlgorithmKind::EcaLocal,
            AlgorithmKind::Lca,
            // Period 1 so the final update always triggers a recompute
            // (RV only converges when s divides k).
            AlgorithmKind::RecomputeView { period: 1 },
            AlgorithmKind::StoreCopies,
        ];
        if sc.keyed {
            kinds.push(AlgorithmKind::EcaKey);
        }
        for kind in kinds {
            for policy in [
                Policy::Serial,
                Policy::AllUpdatesFirst,
                Policy::Random { seed: 11 },
            ] {
                let report = run(&sc, kind, policy).unwrap();
                assert!(
                    report.converged(),
                    "{} with {} under {policy:?}",
                    sc.name,
                    kind.label()
                );
                assert_eq!(
                    report.final_mv,
                    sc.expected_final,
                    "{} with {}",
                    sc.name,
                    kind.label()
                );
                let check = eca_consistency::check(
                    &report.source_view_states,
                    &report.warehouse_view_states,
                );
                assert!(
                    check.strongly_consistent,
                    "{} with {} under {policy:?}: {:?}",
                    sc.name,
                    kind.label(),
                    check.violation
                );
            }
        }
    }
}

/// LCA and SC additionally deliver completeness on every scenario.
#[test]
fn lca_and_sc_are_complete_on_all_scenarios() {
    for sc in scenarios::all().unwrap() {
        for kind in [AlgorithmKind::Lca, AlgorithmKind::StoreCopies] {
            for policy in [Policy::Serial, Policy::AllUpdatesFirst] {
                let report = run(&sc, kind, policy).unwrap();
                let check = eca_consistency::check(
                    &report.source_view_states,
                    &report.warehouse_view_states,
                );
                assert!(
                    check.complete,
                    "{} with {} under {policy:?}: {:?}",
                    sc.name,
                    kind.label(),
                    check.violation
                );
            }
        }
    }
}

/// ECA is strongly consistent but NOT complete: under the adversarial
/// interleaving of Example 2 it skips the intermediate source state.
#[test]
fn eca_is_not_complete() {
    let sc = scenarios::example2().unwrap();
    let report = run(&sc, AlgorithmKind::Eca, Policy::AllUpdatesFirst).unwrap();
    let check = eca_consistency::check(&report.source_view_states, &report.warehouse_view_states);
    assert!(check.strongly_consistent);
    assert!(!check.complete, "ECA should skip V[ss1] here");
}

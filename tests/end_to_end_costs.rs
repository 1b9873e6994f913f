//! End-to-end cost assertions: measured costs from full-stack runs must
//! track the paper's Appendix-D closed forms in *shape* — who wins, by
//! roughly what factor, and where the crossovers fall.

use eca_bench::{measure, Corner};
use eca_storage::Scenario;
use eca_workload::Params;

fn p() -> Params {
    Params::default()
}

/// §6.1: message counts are exact, not approximate.
#[test]
fn message_counts_are_exact() {
    for k in [1u64, 5, 12] {
        let eca = measure(p(), 3, k, Corner::EcaBest, Scenario::Indexed);
        assert_eq!(
            eca.maintenance_messages,
            eca_analytic::messages::m_eca(k),
            "k={k}"
        );
        let rv1 = measure(p(), 3, k, Corner::RvWorst, Scenario::Indexed);
        assert_eq!(
            rv1.maintenance_messages,
            eca_analytic::messages::m_rv(k, 1),
            "k={k}"
        );
        let rvk = measure(p(), 3, k, Corner::RvBest, Scenario::Indexed);
        assert_eq!(
            rvk.maintenance_messages,
            eca_analytic::messages::m_rv(k, k),
            "k={k}"
        );
    }
}

/// Figure 6.2's headline: except for very small relations, ECA moves far
/// less data than recomputation.
#[test]
fn fig62_eca_dominates_for_realistic_c() {
    for c in [20u64, 60, 100] {
        let params = Params {
            cardinality: c,
            ..Params::default()
        };
        let eca = measure(params, 3, 3, Corner::EcaWorst, Scenario::Indexed);
        let rv = measure(params, 3, 3, Corner::RvBest, Scenario::Indexed);
        assert!(
            (eca.paper_bytes as f64) < rv.paper_bytes as f64 / 2.0,
            "C={c}: eca {} rv {}",
            eca.paper_bytes,
            rv.paper_bytes
        );
    }
}

/// Figure 6.2's caveat: for tiny relations the advantage shrinks to
/// nothing (paper: "unless the relations are extremely small").
#[test]
fn fig62_advantage_vanishes_for_tiny_c() {
    let params = Params {
        cardinality: 4,
        ..Params::default()
    };
    let eca = measure(params, 3, 3, Corner::EcaBest, Scenario::Indexed);
    let rv = measure(params, 3, 3, Corner::RvBest, Scenario::Indexed);
    assert!(
        eca.paper_bytes * 4.0 > rv.paper_bytes,
        "at C=4 the gap must be small: eca {} rv {}",
        eca.paper_bytes,
        rv.paper_bytes
    );
}

/// Figure 6.3's shape: measured ECA-best bytes grow linearly in k and
/// stay within 2x of the closed form.
#[test]
fn fig63_eca_best_tracks_closed_form() {
    for k in [15u64, 45, 90] {
        let m = measure(p(), 3, k, Corner::EcaBest, Scenario::Indexed);
        let analytic = eca_analytic::bytes::b_eca_best(&p(), k);
        let ratio = m.paper_bytes / analytic;
        assert!(
            (0.5..2.0).contains(&ratio),
            "k={k}: measured {} analytic {analytic}",
            m.paper_bytes
        );
    }
}

/// Figure 6.3's crossover: by k = 120 (past the paper's k = C = 100),
/// one recomputation beats even best-case ECA on bytes.
#[test]
fn fig63_crossover_reached() {
    let k = 120;
    let eca = measure(p(), 3, k, Corner::EcaBest, Scenario::Indexed);
    let rv = measure(p(), 3, k, Corner::RvBest, Scenario::Indexed);
    assert!(
        rv.paper_bytes < eca.paper_bytes,
        "rv {} should beat eca {} at k={k}",
        rv.paper_bytes,
        eca.paper_bytes
    );
}

/// Figure 6.4 (Scenario 1): RV costs ≈ 3I per recompute; ECA-best costs
/// ≈ (J+1) per update; the crossover lands at tiny k (paper: k = 3).
#[test]
fn fig64_scenario1_shapes() {
    let params = p();
    let rv = measure(params, 3, 5, Corner::RvBest, Scenario::Indexed);
    // One recompute reads each relation once (relations grew slightly
    // from churn inserts, so allow one extra block per relation).
    let i = params.blocks_per_relation();
    assert!(
        (3 * i..=3 * (i + 1)).contains(&rv.io_reads),
        "rv {}",
        rv.io_reads
    );

    // ECA at k=2 beats RV; at k=6 RV wins (paper crossover k=3).
    let eca2 = measure(params, 3, 2, Corner::EcaBest, Scenario::Indexed);
    let rv2 = measure(params, 3, 2, Corner::RvBest, Scenario::Indexed);
    assert!(eca2.io_reads < rv2.io_reads);
    let eca6 = measure(params, 3, 6, Corner::EcaBest, Scenario::Indexed);
    let rv6 = measure(params, 3, 6, Corner::RvBest, Scenario::Indexed);
    assert!(eca6.io_reads > rv6.io_reads);
}

/// Figure 6.5 (Scenario 2): recomputation is cubic in I; ECA stays
/// linear in k; crossover in single-digit k (paper: 5 < k < 9).
#[test]
fn fig65_scenario2_shapes() {
    let params = p();
    let s2 = Scenario::nested_loop_default();
    let rv = measure(params, 3, 4, Corner::RvBest, s2);
    let i = params.blocks_per_relation();
    // Our executor charges I + I² + I³ (paper quotes the dominant I³);
    // churn may add one block per relation.
    assert!(
        rv.io_reads >= i * i * i && rv.io_reads <= (i + 1).pow(3) + (i + 1).pow(2) + (i + 1),
        "rv {} vs cubic bounds around I={i}",
        rv.io_reads
    );

    let eca3 = measure(params, 3, 3, Corner::EcaBest, s2);
    let rv3 = measure(params, 3, 3, Corner::RvBest, s2);
    assert!(
        eca3.io_reads < rv3.io_reads,
        "eca {} rv {}",
        eca3.io_reads,
        rv3.io_reads
    );
    let eca12 = measure(params, 3, 12, Corner::EcaBest, s2);
    let rv12 = measure(params, 3, 12, Corner::RvBest, s2);
    assert!(
        eca12.io_reads > rv12.io_reads,
        "eca {} rv {}",
        eca12.io_reads,
        rv12.io_reads
    );
}

/// Self-maintenance: ECA-Aux's measured message count must equal the
/// exact closed form (not approximately — the local-answer rule is
/// deterministic) at every coverage level, and the measured local
/// fraction must match the keyness-driven prediction. At full coverage
/// ECA-Aux answers at least half the updates locally and cuts messages
/// by at least half against ECA; `(24, 1)` is the point
/// `figures --selfmaint` reports.
#[test]
fn selfmaint_messages_match_closed_form_exactly() {
    for (k, seed) in [(8u64, 2u64), (16, 5), (24, 9), (24, 1)] {
        for point in eca_bench::selfmaint::storage_curve(k, seed) {
            assert!(point.converged, "k={k} coverage {}", point.covered);
            assert_eq!(
                point.messages_measured, point.messages_analytic,
                "k={k} coverage {}",
                point.covered
            );
            // Every remote update costs exactly one query + one answer;
            // every local update costs nothing.
            assert_eq!(point.messages_measured, 2 * point.remote_updates);
            assert_eq!(point.local_updates + point.remote_updates, k);
            // The uniform-update expectation brackets the script-exact
            // count (they agree exactly when the script is balanced).
            let coverage = [point.covered >= 1, point.covered >= 2, point.covered >= 3];
            let f = eca_analytic::selfmaint::local_fraction(&coverage);
            match point.covered {
                3 => assert_eq!(f, 1.0),
                2 => assert!((f - 1.0 / 3.0).abs() < 1e-12),
                _ => assert_eq!(f, 0.0),
            }
            if point.covered == 3 {
                let local_share = point.local_updates as f64 / k as f64;
                let cut = 1.0 - point.messages_measured as f64 / point.messages_eca.max(1) as f64;
                assert!(local_share >= 0.5, "k={k}: local share {local_share}");
                assert!(cut >= 0.5, "k={k}: message cut {cut} vs ECA");
            }
        }
    }
}

/// Self-maintenance bytes: with full coverage no answer bytes flow at
/// all; remote updates transfer what ECA would.
#[test]
fn selfmaint_bytes_track_remote_updates() {
    let curve = eca_bench::selfmaint::storage_curve(16, 4);
    assert_eq!(curve[3].paper_bytes, 0.0, "full coverage transfers nothing");
    // Zero coverage behaves exactly like ECA on the same script.
    assert_eq!(curve[0].paper_bytes, curve[0].paper_bytes_eca);
    assert_eq!(curve[0].messages_measured, curve[0].messages_eca);
    // Partial coverage sits strictly between the extremes.
    assert!(curve[2].paper_bytes < curve[0].paper_bytes);
    assert!(curve[2].messages_measured < curve[0].messages_measured);
}

/// Every measured corner converges and is at least strongly consistent —
/// the cost study never trades correctness.
#[test]
fn all_cost_corners_remain_correct() {
    for scenario in [Scenario::Indexed, Scenario::nested_loop_default()] {
        for corner in Corner::all() {
            let m = measure(p(), 9, 10, corner, scenario);
            assert!(m.converged, "{corner:?} {scenario:?}");
            assert!(
                m.consistency == "StronglyConsistent" || m.consistency == "Complete",
                "{corner:?} {scenario:?}: {}",
                m.consistency
            );
        }
    }
}

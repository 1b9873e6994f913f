//! Self-maintenance experiments: ECA-Aux on the fig-6.x scenarios.
//!
//! Two artifacts:
//!
//! * **Comparison** — M and B for ECA-Aux next to ECA, Batch-ECA and SC
//!   on the calibrated Example-6 workload (the fig-6.3 parameter point),
//!   all driven over identical update scripts.
//! * **Storage-vs-savings curve** — sweep auxiliary coverage from zero
//!   relations (plain ECA behaviour) to all three (SC-like, zero
//!   messages), reporting the measured messages against the exact
//!   closed form and the *real* storage bill: auxiliary bags loaded into
//!   metered [`eca_storage::Table`]s, reporting resident blocks and
//!   charged write touches — not bare tuple counts.

use eca_core::algorithms::{AlgorithmKind, Eca, LocalRule};
use eca_core::maintainer::{SelfMaintStats, ViewMaintainer};
use eca_sim::{Policy, RunReport, Simulation};
use eca_storage::{IoMeter, Scenario, Table};
use eca_workload::{Example6, Params, UpdateMix};

use crate::json::{Json, ToJson};
use crate::Measurement;

/// One point of the coverage sweep.
#[derive(Clone, Debug)]
pub struct SelfMaintPoint {
    /// How many of the three relations carry an auxiliary view.
    pub covered: usize,
    /// Number of updates.
    pub k: u64,
    /// Analytic fraction of updates answerable locally.
    pub local_fraction: f64,
    /// Exact closed-form message count for this script and coverage.
    pub messages_analytic: u64,
    /// Measured maintenance messages (queries + answers).
    pub messages_measured: u64,
    /// The ECA baseline's measured messages on the same script.
    pub messages_eca: u64,
    /// Updates answered with zero source round-trips.
    pub local_updates: u64,
    /// Updates that round-tripped to the source.
    pub remote_updates: u64,
    /// `S × answer tuples` — the paper's `B` for ECA-Aux.
    pub paper_bytes: f64,
    /// The ECA baseline's `B` on the same script.
    pub paper_bytes_eca: f64,
    /// Tuples resident across the auxiliary views after the run.
    pub aux_tuples: u64,
    /// Encoded bytes resident across the auxiliary views.
    pub aux_bytes: u64,
    /// Storage blocks the auxiliaries occupy when loaded into real
    /// tables at the workload's `K` tuples/block.
    pub aux_blocks: u64,
    /// Block write touches charged by the metered load.
    pub aux_load_writes: u64,
    /// Whether the final view matched direct evaluation.
    pub converged: bool,
}

impl ToJson for SelfMaintPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("covered_relations", Json::from(self.covered as u64)),
            ("k", Json::from(self.k)),
            ("local_fraction", Json::Num(self.local_fraction)),
            ("messages_analytic", Json::from(self.messages_analytic)),
            ("messages_measured", Json::from(self.messages_measured)),
            ("messages_eca", Json::from(self.messages_eca)),
            ("local_updates", Json::from(self.local_updates)),
            ("remote_updates", Json::from(self.remote_updates)),
            ("paper_bytes", Json::Num(self.paper_bytes)),
            ("paper_bytes_eca", Json::Num(self.paper_bytes_eca)),
            ("aux_tuples", Json::from(self.aux_tuples)),
            ("aux_bytes", Json::from(self.aux_bytes)),
            ("aux_blocks", Json::from(self.aux_blocks)),
            ("aux_load_writes", Json::from(self.aux_load_writes)),
            ("converged", Json::Bool(self.converged)),
        ])
    }
}

/// Run the keyed Example-6 workload under the given maintainer.
fn run_keyed(
    workload: &Example6,
    scenario: Scenario,
    updates: Vec<eca_relational::Update>,
    build: impl FnOnce(
        &eca_core::ViewDef,
        eca_relational::SignedBag,
        eca_core::BaseDb,
    ) -> Box<dyn ViewMaintainer>,
    policy: Policy,
) -> RunReport {
    let source = workload.build_source(scenario).expect("workload builds");
    let view = Example6::keyed_view().expect("static view");
    let snapshot = source.snapshot();
    let initial = view.eval(&snapshot).expect("initial view");
    let maintainer = build(&view, initial, snapshot);
    Simulation::new(source, maintainer, updates)
        .expect("simulation wiring")
        .run(policy)
        .expect("simulation run")
}

/// Relation indices (0..3) of an Example-6 update script.
fn script_relations(updates: &[eca_relational::Update]) -> Vec<usize> {
    updates
        .iter()
        .map(|u| match u.relation.as_str() {
            "r1" => 0,
            "r2" => 1,
            "r3" => 2,
            other => panic!("unknown relation {other}"),
        })
        .collect()
}

/// Load the auxiliary snapshots into real storage tables and report
/// `(blocks, write touches)` — the honest storage bill.
///
/// # Panics
/// On storage construction errors (attribute names are generated).
fn aux_residency(stats: &SelfMaintStats, tuples_per_block: usize) -> (u64, u64) {
    let meter = IoMeter::new();
    let mut blocks = 0;
    for snap in &stats.auxiliaries {
        let attrs: Vec<String> = (0..snap.retained.len()).map(|i| format!("c{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let schema = eca_relational::Schema::new(&snap.relation, &attr_refs);
        let mut table = Table::new(schema, tuples_per_block, None, &[], meter.clone())
            .expect("auxiliary table");
        for (tuple, count) in snap.bag.iter() {
            for _ in 0..count.max(0) {
                table.insert(tuple.clone()).expect("auxiliary heap");
            }
        }
        blocks += table.num_blocks();
    }
    (blocks, meter.update_writes())
}

/// The storage-vs-message-savings curve: coverage 0..=3 relations over
/// one `k`-update Mixed script at the fig-6.3 parameter point, under the
/// adversarial interleaving.
///
/// # Panics
/// On simulation failures (deterministic; a failure is a bug).
pub fn storage_curve(k: u64, seed: u64) -> Vec<SelfMaintPoint> {
    let params = Params::default();
    let workload = Example6::new(params, seed);
    let updates = workload.updates(k as usize, UpdateMix::Mixed);
    let script = script_relations(&updates);

    let eca = run_keyed(
        &workload,
        Scenario::Indexed,
        updates.clone(),
        |view, initial, snapshot| {
            AlgorithmKind::EcaOptimized
                .instantiate_with_base(view, initial, Some(snapshot))
                .expect("ECA instantiation")
        },
        Policy::AllUpdatesFirst,
    );

    (0..=3usize)
        .map(|n| {
            let coverage = [n >= 1, n >= 2, n >= 3];
            let report = run_keyed(
                &workload,
                Scenario::Indexed,
                updates.clone(),
                |view, initial, snapshot| {
                    let rule = LocalRule::Auxiliaries(Some(coverage.to_vec()));
                    Box::new(
                        Eca::with_rule(view.clone(), initial, rule, 1, Some(&snapshot))
                            .expect("coverage matches arity"),
                    )
                },
                Policy::AllUpdatesFirst,
            );
            let stats = report.selfmaint.as_ref().expect("ECA-Aux reports stats");
            let (aux_blocks, aux_load_writes) = aux_residency(stats, params.tuples_per_block);
            SelfMaintPoint {
                covered: n,
                k,
                local_fraction: eca_analytic::selfmaint::local_fraction(&coverage),
                messages_analytic: eca_analytic::selfmaint::m_eca_aux_exact(&script, &coverage),
                messages_measured: report.maintenance_messages(),
                messages_eca: eca.maintenance_messages(),
                local_updates: stats.local_updates,
                remote_updates: stats.remote_updates,
                paper_bytes: params.projected_bytes as f64 * report.answer_tuples as f64,
                paper_bytes_eca: params.projected_bytes as f64 * eca.answer_tuples as f64,
                aux_tuples: stats.aux_tuples,
                aux_bytes: stats.aux_bytes,
                aux_blocks,
                aux_load_writes,
                converged: report.converged(),
            }
        })
        .collect()
}

/// M and B for ECA-Aux against ECA, Batch-ECA and SC on one identical
/// `k`-update Mixed script (the fig-6.x comparison, extended with the
/// self-maintaining point).
///
/// # Panics
/// On simulation failures (deterministic; a failure is a bug).
pub fn comparison(k: u64, seed: u64) -> Vec<Measurement> {
    let params = Params::default();
    let workload = Example6::new(params, seed);
    let updates = workload.updates(k as usize, UpdateMix::Mixed);
    [
        AlgorithmKind::EcaOptimized,
        AlgorithmKind::BatchEca {
            batch_size: (k as usize / 4).max(1),
        },
        AlgorithmKind::StoreCopies,
        AlgorithmKind::EcaAux,
    ]
    .into_iter()
    .map(|kind| {
        let report = run_keyed(
            &workload,
            Scenario::Indexed,
            updates.clone(),
            |view, initial, snapshot| {
                kind.instantiate_with_base(view, initial, Some(snapshot))
                    .expect("algorithm instantiation")
            },
            Policy::AllUpdatesFirst,
        );
        crate::into_measurement(params, k, kind.label(), Scenario::Indexed, &report)
    })
    .collect()
}

/// The `results/selfmaint.json` document.
///
/// # Panics
/// As [`storage_curve`] / [`comparison`].
pub fn report(k: u64, seed: u64) -> Json {
    let curve = storage_curve(k, seed);
    let algorithms = comparison(k, seed);
    Json::obj([
        (
            "benchmark",
            Json::str("auxiliary-view self-maintenance (ECA-Aux)"),
        ),
        (
            "method",
            Json::str(
                "keyed Example-6 workload, k Mixed updates, adversarial \
                 interleaving; coverage swept 0..=3 auxiliary views with \
                 messages checked against the exact closed form; storage \
                 billed by loading auxiliary bags into metered tables",
            ),
        ),
        ("k", Json::from(k)),
        ("seed", Json::from(seed)),
        (
            "storage_curve",
            Json::arr(curve.iter().map(ToJson::to_json)),
        ),
        (
            "algorithms",
            Json::arr(algorithms.iter().map(ToJson::to_json)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_matches_closed_form_at_every_coverage() {
        for point in storage_curve(12, 3) {
            assert!(point.converged, "coverage {}", point.covered);
            assert_eq!(
                point.messages_measured, point.messages_analytic,
                "coverage {}",
                point.covered
            );
            assert_eq!(
                point.messages_measured,
                2 * point.remote_updates,
                "coverage {}",
                point.covered
            );
        }
    }

    #[test]
    fn storage_rises_as_messages_fall() {
        let curve = storage_curve(12, 3);
        assert_eq!(curve[0].aux_blocks, 0, "no coverage, no storage");
        assert_eq!(curve[0].messages_measured, curve[0].messages_eca);
        assert_eq!(curve[3].messages_measured, 0, "full coverage, no wire");
        for w in curve.windows(2) {
            assert!(w[1].aux_blocks >= w[0].aux_blocks);
            assert!(w[1].messages_measured <= w[0].messages_measured);
        }
        assert!(curve[3].aux_blocks > 0);
        assert!(curve[3].aux_load_writes > 0, "loads are metered");
    }

    #[test]
    fn comparison_ranks_algorithms_as_expected() {
        let ms = comparison(12, 3);
        let by_label = |label: &str| {
            ms.iter()
                .find(|m| m.corner == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let eca = by_label("ECA*");
        let sc = by_label("SC");
        let aux = by_label("ECA-Aux");
        for m in &ms {
            assert!(m.converged, "{}", m.corner);
        }
        assert_eq!(sc.maintenance_messages, 0);
        assert_eq!(aux.maintenance_messages, 0, "full keyed coverage");
        assert!(eca.maintenance_messages >= 2 * 12);
    }

    /// With full keyed coverage on the default scenario, at least half
    /// the updates are answered locally and messages fall by at least
    /// half against ECA, matching the closed form exactly.
    #[test]
    fn smoke_gate_passes_on_the_default_scenario() {
        let curve = storage_curve(12, 1);
        let full = curve.last().expect("sweep is non-empty");
        assert!(full.converged);
        let answered = full.local_updates + full.remote_updates;
        assert!(answered > 0);
        assert!(
            2 * full.local_updates >= answered,
            "only {}/{answered} updates answered locally",
            full.local_updates
        );
        assert!(
            2 * full.messages_measured <= full.messages_eca,
            "messages {} vs ECA {}",
            full.messages_measured,
            full.messages_eca
        );
        assert_eq!(full.messages_measured, full.messages_analytic);
    }
}

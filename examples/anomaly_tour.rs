//! A guided tour of the paper's anomalies (Examples 1–9).
//!
//! ```text
//! cargo run --example anomaly_tour
//! ```
//!
//! Replays every worked example from the paper through the full simulator
//! under the adversarial interleaving, once with the naive incremental
//! algorithm of [BLT86] (Algorithm 5.1) and once with ECA (or ECA-Key for
//! the keyed scenario). The naive runs reproduce the paper's anomalies;
//! the compensating runs repair them.

use eca_core::algorithms::AlgorithmKind;
use eca_sim::{Policy, RunReport, Simulation};
use eca_source::Source;
use eca_storage::Scenario;
use eca_workload::scenarios::{self, Scenario as Canned};

fn run(scenario: &Canned, kind: AlgorithmKind) -> Result<RunReport, Box<dyn std::error::Error>> {
    let mut source = Source::new(Scenario::Indexed);
    for schema in scenario.view.base() {
        source.add_relation(schema.clone(), 20, None, &[])?;
    }
    for (rel, tuples) in &scenario.initial {
        source.load(rel, tuples.iter().cloned())?;
    }
    let snapshot = source.snapshot();
    let initial = scenario.view.eval(&snapshot)?;
    let warehouse = kind.instantiate_with_base(&scenario.view, initial, Some(snapshot))?;
    Ok(
        Simulation::new(source, warehouse, scenario.updates.clone())?
            .run(Policy::AllUpdatesFirst)?,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for scenario in scenarios::all()? {
        println!("=== {} — {}", scenario.name, scenario.description);
        println!("view: {:?}", scenario.view);
        for u in &scenario.updates {
            println!("  update: {u:?}");
        }

        let naive = run(&scenario, AlgorithmKind::Basic)?;
        let fixed_kind = if scenario.keyed {
            AlgorithmKind::EcaKey
        } else {
            AlgorithmKind::Eca
        };
        let fixed = run(&scenario, fixed_kind)?;

        println!(
            "correct final view          : {:?}",
            scenario.expected_final
        );
        println!(
            "Basic (Alg. 5.1) final view : {:?}  {}",
            naive.final_mv,
            if naive.converged() {
                "(correct)"
            } else {
                "(ANOMALY!)"
            }
        );
        println!(
            "{:<5} final view            : {:?}  {}",
            fixed_kind.label(),
            fixed.final_mv,
            if fixed.converged() {
                "(correct)"
            } else {
                "(ANOMALY!)"
            }
        );
        assert!(
            fixed.converged(),
            "{}: the compensating algorithm must converge",
            scenario.name
        );
        assert_eq!(fixed.final_mv, scenario.expected_final, "{}", scenario.name);
        println!();
    }

    println!("The compensating algorithms repaired every interleaving.");
    Ok(())
}

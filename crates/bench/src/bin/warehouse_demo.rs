//! Drive a warehouse maintenance scenario from a text file.
//!
//! ```text
//! warehouse_demo <scenario-file> [--trace]
//! ```
//!
//! Scenario format (line-oriented; `#` starts a comment):
//!
//! ```text
//! relation r1(W, X) key(W) cluster(X)     # declare a base relation
//! load r1 (1,2) (3,4)                     # initial tuples
//! view V = SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X
//! algorithm ECA                           # Basic|ECA|ECA*|ECA-Key|LCA|SC|RV:s|Batch:n
//! policy adversarial                      # serial|adversarial|random:SEED
//! insert r2 (2,3)                         # scripted updates, in order
//! delete r1 (1,2)
//! ```
//!
//! Runs the scenario through the full stack and reports the final view,
//! correctness, consistency level and the three §6 cost factors. A sample
//! lives at `crates/bench/scenarios/example2.eca`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

use eca_core::{parse_view, ViewDef};
use eca_relational::Schema;
use eca_sim::Simulation;
use eca_source::Source;
use eca_storage::Scenario;

use eca_bench::scenario_file::{parse_scenario, ScenarioFile};
use eca_bench::Context;

fn run(sf: &ScenarioFile, trace: bool) -> Result<bool, Box<dyn std::error::Error>> {
    let catalog: Vec<Schema> = sf.relations.iter().map(|r| r.schema.clone()).collect();
    let (view_name, sql) = sf.view_sql.as_ref().context("a view definition")?;
    let view: ViewDef = parse_view(view_name, sql, &catalog)?;

    let mut source = Source::new(Scenario::Indexed);
    for decl in &sf.relations {
        source.add_relation(decl.schema.clone(), 20, decl.cluster.as_deref(), &[])?;
    }
    for (rel, tuples) in &sf.loads {
        source.load(rel, tuples.iter().cloned())?;
    }

    let snapshot = source.snapshot();
    let initial = view.eval(&snapshot)?;
    let warehouse = sf
        .algorithm
        .instantiate_with_base(&view, initial, Some(snapshot))?;
    let label = warehouse.algorithm();
    println!("view      : {view:?}");
    println!("algorithm : {label}");
    println!("policy    : {:?}", sf.policy);
    println!("updates   : {}", sf.updates.len());

    let report = Simulation::new(source, warehouse, sf.updates.clone())?.run(sf.policy)?;
    if trace {
        println!("\nevent trace:");
        for e in &report.trace {
            println!("  {e}");
        }
    }
    let check = eca_consistency::check(&report.source_view_states, &report.warehouse_view_states);
    println!("\nfinal view     : {:?}", report.final_mv);
    println!("source view    : {:?}", report.final_source_view);
    println!("correct        : {}", report.converged());
    println!("consistency    : {:?}", check.level());
    println!(
        "costs          : {} maintenance messages, {} answer bytes, {} block reads",
        report.maintenance_messages(),
        report.answer_bytes,
        report.io_reads
    );
    Ok(report.converged())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: warehouse_demo <scenario-file> [--trace]");
        return ExitCode::from(2);
    };
    let trace = args.any(|a| a == "--trace");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario = match parse_scenario(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scenario error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&scenario, trace) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("\nview did NOT converge (try a compensating algorithm)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(2)
        }
    }
}

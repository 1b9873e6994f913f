//! Explore the RV-vs-ECA cost tradeoff interactively.
//!
//! ```text
//! cargo run --release --example cost_explorer [-- <k> [C]]
//! ```
//!
//! For a chosen update-batch size `k` (default 20) and cardinality `C`
//! (default 100), prints the three §6 cost factors for recomputation and
//! for eager compensation — measured on the full stack next to the
//! Appendix-D closed forms — and says who wins on each metric.

use eca_bench::{measure, Corner};
use eca_storage::Scenario;
use eca_workload::Params;

fn main() -> Result<(), eca_bench::BenchError> {
    let mut args = std::env::args().skip(1);
    let k: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let c: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(100);
    let params = Params {
        cardinality: c,
        ..Params::default()
    };

    println!(
        "k = {k} updates, C = {c} tuples/relation, J = {}\n",
        params.join_factor
    );
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "corner", "messages", "B paper(meas)", "B analytic", "IO S1 meas", "IO S2 meas"
    );

    for corner in Corner::all() {
        let s1 = measure(params, 1, k, corner, Scenario::Indexed)?;
        let s2 = measure(params, 1, k, corner, Scenario::nested_loop_default())?;
        let analytic_b = match corner {
            Corner::RvBest => eca_analytic::bytes::b_rv_best(&params),
            Corner::RvWorst => eca_analytic::bytes::b_rv_worst(&params, k),
            Corner::EcaBest => eca_analytic::bytes::b_eca_best(&params, k),
            Corner::EcaWorst => eca_analytic::bytes::b_eca_worst(&params, k),
        };
        println!(
            "{:<10} {:>10} {:>14.0} {:>14.0} {:>12} {:>12}",
            corner.label(),
            s1.maintenance_messages,
            s1.paper_bytes,
            analytic_b,
            s1.io_reads,
            s2.io_reads
        );
        assert!(s1.converged && s2.converged, "all corners must converge");
    }

    let eca = measure(params, 1, k, Corner::EcaBest, Scenario::Indexed)?;
    let rv = measure(params, 1, k, Corner::RvBest, Scenario::Indexed)?;
    println!();
    if eca.paper_bytes < rv.paper_bytes {
        println!(
            "At k = {k}, incremental maintenance (ECA) still wins on data transfer \
             ({:.0} vs {:.0} bytes). The paper's crossover for C = {c} sits near k = C.",
            eca.paper_bytes, rv.paper_bytes
        );
    } else {
        println!(
            "At k = {k}, batch recomputation (RV) wins on data transfer \
             ({:.0} vs {:.0} bytes) — past the paper's crossover.",
            rv.paper_bytes, eca.paper_bytes
        );
    }
    Ok(())
}

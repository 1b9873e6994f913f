//! Produce `results/planner.json`: naive-vs-planned SPJ evaluation
//! timings at the logical layer, and the I/O (block-read) evidence for
//! multi-term batching at the source — the measured counterpart of the
//! planner criterion bench.
//!
//! ```text
//! planner_report [--out PATH] [--seed N]
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::error::Error;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use eca_bench::json::Json;
use eca_bench::{BenchError, Context};
use eca_core::Query;
use eca_relational::algebra::{spj, spj_naive};
use eca_relational::{Predicate, SignedBag, Tuple};
use eca_storage::Scenario;
use eca_wire::WireQuery;
use eca_workload::{Example6, Params};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn parse_args() -> (PathBuf, u64) {
    let mut out = PathBuf::from("results/planner.json");
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer argument");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    (out, seed)
}

/// Median wall-clock nanoseconds of `f` over `samples` runs.
fn median_nanos(samples: usize, mut f: impl FnMut()) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Chained binary relations with join values in `0..dom`.
fn chain_inputs(n_rel: usize, rows: usize, dom: i64, seed: u64) -> Vec<SignedBag> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_rel)
        .map(|_| {
            SignedBag::from_tuples(
                (0..rows).map(|_| Tuple::ints([rng.gen_range(0..dom), rng.gen_range(0..dom)])),
            )
        })
        .collect()
}

fn chain_cond(n_rel: usize) -> Predicate {
    let mut cond = Predicate::True;
    for i in 1..n_rel {
        cond = cond.and(Predicate::col_eq(2 * i - 1, 2 * i));
    }
    cond
}

/// Logical layer: planned vs naive evaluation of one chain term.
fn term_report(n_rel: usize, seed: u64) -> Result<Json, BenchError> {
    let rows = if n_rel == 4 { 12 } else { 30 };
    let inputs = chain_inputs(n_rel, rows, 6, seed.wrapping_add(n_rel as u64));
    let refs: Vec<&SignedBag> = inputs.iter().collect();
    let cond = chain_cond(n_rel);
    let proj = vec![0usize, 2 * n_rel - 1];
    let planned = spj(&refs, &cond, &proj).context("planned term")?;
    let naive = spj_naive(&refs, &cond, &proj).context("naive term")?;
    assert_eq!(planned, naive, "planned result must match the oracle");
    let planned_ns = median_nanos(30, || {
        let _ = black_box(spj(&refs, &cond, &proj));
    });
    let naive_ns = median_nanos(30, || {
        let _ = black_box(spj_naive(&refs, &cond, &proj));
    });
    Ok(Json::obj([
        ("relations", Json::from(n_rel as u64)),
        ("rows_per_relation", Json::from(rows as u64)),
        ("answer_tuples", Json::from(planned.signed_len())),
        ("planned_ns_median", Json::from(planned_ns)),
        ("naive_ns_median", Json::from(naive_ns)),
        (
            "speedup",
            Json::from(naive_ns as f64 / planned_ns.max(1) as f64),
        ),
        ("answers_match", Json::from(true)),
    ]))
}

/// The 4-term compensating query of the Example-6 walk-through: after
/// updates U1(r1), U2(r3), U3(r2), ECA's third query is
/// `Q3 = V⟨U3⟩ − V⟨U1⟩⟨U3⟩ − V⟨U2⟩⟨U3⟩ + V⟨U1⟩⟨U2⟩⟨U3⟩`.
fn four_term_query(workload: &Example6) -> Result<Query, BenchError> {
    let view = Example6::view().context("static view")?;
    let updates = workload.paper_updates();
    let (u1, u3, u2) = (&updates[0], &updates[1], &updates[2]);
    let q1 = view.substitute(u1).context("V<U1>")?;
    let q2 = view
        .substitute(u2)
        .context("V<U2>")?
        .minus(&q1.substitute(u2));
    let q3 = view
        .substitute(u3)
        .context("V<U3>")?
        .minus(&q1.substitute(u3))
        .minus(&q2.substitute(u3));
    assert_eq!(q3.terms().len(), 4, "expected the 4-term Q3");
    Ok(q3)
}

/// Physical layer: block reads for the 4-term query, per-term vs batched.
fn example6_report(seed: u64) -> Result<Json, BenchError> {
    let params = Params::default();
    let workload = Example6::new(params, seed);
    let query = four_term_query(&workload)?;
    let wire = WireQuery::from_query(&query);

    let mut per_term = workload
        .build_source(Scenario::Indexed)
        .context("per-term source")?;
    let answer_plain = per_term.answer(&wire).context("per-term answer")?;
    let io_per_term = per_term.io_meter().query_reads();

    let mut batched = workload
        .build_source(Scenario::Indexed)
        .context("batched source")?;
    batched.enable_term_batching();
    let answer_batched = batched.answer(&wire).context("batched answer")?;
    let io_batched = batched.io_meter().query_reads();

    assert_eq!(answer_plain, answer_batched, "batching changed the answer");
    let ratio = io_per_term as f64 / io_batched.max(1) as f64;
    Ok(Json::obj([
        ("scenario", Json::str("indexed")),
        ("query_terms", Json::from(4u64)),
        ("cardinality", Json::from(params.cardinality)),
        ("join_factor", Json::from(params.join_factor)),
        ("io_reads_per_term", Json::from(io_per_term)),
        ("io_reads_batched", Json::from(io_batched)),
        ("io_reduction", Json::from(ratio)),
        ("answers_match", Json::from(true)),
    ]))
}

fn main() -> Result<(), Box<dyn Error>> {
    let (out, seed) = parse_args();
    let terms = Json::arr(
        [2usize, 3, 4]
            .into_iter()
            .map(|n| term_report(n, seed))
            .collect::<Result<Vec<_>, _>>()?,
    );
    let example6 = example6_report(seed)?;

    if let Json::Obj(pairs) = &example6 {
        for (key, value) in pairs {
            if key.starts_with("io_") {
                println!("{key}: {}", value.pretty().trim());
            }
        }
    }

    let report = Json::obj([
        ("seed", Json::from(seed)),
        ("terms", terms),
        ("example6_four_term_query", example6),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, report.pretty())?;
    println!("(wrote {})", out.display());
    Ok(())
}

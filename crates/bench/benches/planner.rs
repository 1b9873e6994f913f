//! Planner microbenchmarks (see `EXPERIMENTS.md`).
//!
//! Three things are timed here, with the matching I/O evidence produced
//! by the `planner_report` binary into `results/planner.json`:
//!
//! * planned SPJ evaluation (`spj`) beats the cross-select-project oracle
//!   (`spj_naive`) on 2/3/4-relation chain terms; `spj_term/bound_vs_10k`
//!   and `spj_term/chain3_10k` time the planned path alone on the
//!   benchmark's main-site shape;
//! * predicate pushdown pays off most on selective single-relation
//!   conjuncts;
//! * the source answers multi-term queries (1/4/16 terms), each term
//!   paying for its own reads.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eca_core::Query;
use eca_relational::algebra::{spj, spj_naive};
use eca_relational::{CmpOp, Predicate, SignedBag, Tuple};
use eca_storage::Scenario;
use eca_wire::WireQuery;
use eca_workload::{Example6, Params, UpdateMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n_rel` chained binary relations with join values drawn from `0..dom`.
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

/// The chain-join condition `col1 = col2 ∧ col3 = col4 ∧ …`.
fn chain_cond(n_rel: usize) -> Predicate {
    let mut cond = Predicate::True;
    for i in 1..n_rel {
        cond = cond.and(Predicate::col_eq(2 * i - 1, 2 * i));
    }
    cond
}

fn bench_spj_terms(c: &mut Criterion) {
    let mut group = c.benchmark_group("spj_term");
    for n_rel in [2usize, 3, 4] {
        // Keep the naive cross product tractable for 4 relations.
        let rows = if n_rel == 4 { 12 } else { 30 };
        let inputs = chain_inputs(n_rel, rows, 6, n_rel as u64);
        let refs: Vec<&SignedBag> = inputs.iter().collect();
        let cond = chain_cond(n_rel);
        let proj = vec![0usize, 2 * n_rel - 1];
        assert_eq!(
            spj(&refs, &cond, &proj).unwrap(),
            spj_naive(&refs, &cond, &proj).unwrap()
        );
        group.bench_function(BenchmarkId::new("planned", n_rel), |b| {
            b.iter(|| spj(black_box(&refs), &cond, &proj).unwrap())
        });
        group.bench_function(BenchmarkId::new("naive", n_rel), |b| {
            b.iter(|| spj_naive(black_box(&refs), &cond, &proj).unwrap())
        });
    }
    bench_main_site_terms(&mut group);
    group.finish();
}

/// The two terms the benchmark's main site evaluates most, on its shape:
/// 10k rows per relation, `X` in a domain of 5,000 and `Y` of 2,000.
///
/// * `bound_vs_10k`: one bound `r1` tuple against all of `r2`, as a
///   substituted query term asks;
/// * `chain3_10k`: `V2 = π_{W,Z}(r1 ⋈ r2 ⋈ r3)` from scratch (100k rows),
///   as the initial view evaluation (and a recompute) does.
fn bench_main_site_terms(group: &mut criterion::BenchmarkGroup<'_>) {
    const ROWS: i64 = 10_000;
    let r1: SignedBag = (0..ROWS).map(|i| Tuple::ints([i, i % 5_000])).collect();
    let r2: SignedBag = (0..ROWS)
        .map(|i| Tuple::ints([i % 5_000, (i * 7_919) % 2_000]))
        .collect();
    let r3: SignedBag = (0..ROWS).map(|i| Tuple::ints([i % 2_000, i])).collect();
    let bound = SignedBag::singleton(Tuple::ints([17, 42]));
    let pair = [&bound, &r2];
    let cond = Predicate::col_eq(1, 2);
    group.bench_function("bound_vs_10k", |b| {
        b.iter(|| spj(black_box(&pair), &cond, &[0, 3]).unwrap())
    });
    let chain = [&r1, &r2, &r3];
    let cond = chain_cond(3);
    assert_eq!(spj(&chain, &cond, &[0, 5]).unwrap().pos_len(), 100_000);
    group.bench_function("chain3_10k", |b| {
        b.iter(|| spj(black_box(&chain), &cond, &[0, 5]).unwrap())
    });
}

fn bench_pushdown_selectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushdown");
    let inputs = chain_inputs(3, 60, 8, 9);
    let refs: Vec<&SignedBag> = inputs.iter().collect();
    let proj = vec![0usize, 5];
    for (label, threshold) in [("selective", 7i64), ("non_selective", -1)] {
        let cond = chain_cond(3).and(Predicate::col_const(0, CmpOp::Gt, threshold));
        group.bench_function(BenchmarkId::new("planned", label), |b| {
            b.iter(|| spj(black_box(&refs), &cond, &proj).unwrap())
        });
        group.bench_function(BenchmarkId::new("naive", label), |b| {
            b.iter(|| spj_naive(black_box(&refs), &cond, &proj).unwrap())
        });
    }
    group.finish();
}

/// A k-term query over Example 6: one `V⟨U_i⟩` term per update from the
/// calibrated insert stream.
fn k_term_query(workload: &Example6, k: usize) -> Query {
    let view = Example6::view().unwrap();
    let mut terms = Vec::with_capacity(k);
    for u in workload.updates(3 * k, UpdateMix::InsertsOnly) {
        let q = view.substitute(&u).unwrap();
        terms.extend(q.terms().iter().cloned());
        if terms.len() >= k {
            break;
        }
    }
    terms.truncate(k);
    Query::from_terms(view, terms)
}

fn bench_multi_term(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_term");
    let workload = Example6::new(Params::default(), 1);
    for k in [1usize, 4, 16] {
        let query = k_term_query(&workload, k);
        let wire = WireQuery::from_query(&query);
        let mut per_term = workload.build_source(Scenario::Indexed).unwrap();
        group.bench_function(BenchmarkId::new("per_term", k), |b| {
            b.iter(|| per_term.answer(black_box(&wire)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spj_terms,
    bench_pushdown_selectivity,
    bench_multi_term
);
criterion_main!(benches);

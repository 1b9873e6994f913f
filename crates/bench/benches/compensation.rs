//! Ablation AB1: the cost of compensation.
//!
//! Compares ECA under the favorable interleaving (no compensating terms)
//! against the adversarial interleaving (every query compensates all
//! preceding updates), and the plain Algorithm-5.2 query shipping against
//! the Appendix-D.2 local-evaluation refinement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eca_bench::measure_custom;
use eca_core::algorithms::AlgorithmKind;
use eca_sim::Policy;
use eca_storage::Scenario;
use eca_workload::{Params, UpdateMix};

fn bench_compensation_growth(c: &mut Criterion) {
    let params = Params::default();
    let mut group = c.benchmark_group("compensation_growth");
    for k in [5u64, 10, 20, 40] {
        group.bench_with_input(BenchmarkId::new("eca_worst", k), &k, |b, &k| {
            b.iter(|| {
                measure_custom(
                    params,
                    5,
                    k,
                    AlgorithmKind::EcaOptimized,
                    Policy::AllUpdatesFirst,
                    UpdateMix::CorrelatedChurn,
                    Scenario::Indexed,
                )
                .expect("deterministic run")
            })
        });
        group.bench_with_input(BenchmarkId::new("eca_best", k), &k, |b, &k| {
            b.iter(|| {
                measure_custom(
                    params,
                    5,
                    k,
                    AlgorithmKind::EcaOptimized,
                    Policy::Serial,
                    UpdateMix::CorrelatedChurn,
                    Scenario::Indexed,
                )
                .expect("deterministic run")
            })
        });
    }
    group.finish();
}

fn bench_local_eval_ablation(c: &mut Criterion) {
    let params = Params::default();
    let mut group = c.benchmark_group("local_eval_ablation_k20");
    for (name, kind) in [
        ("ship_all_terms", AlgorithmKind::Eca),
        ("local_bound_terms", AlgorithmKind::EcaOptimized),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                measure_custom(
                    params,
                    5,
                    20,
                    kind,
                    Policy::AllUpdatesFirst,
                    UpdateMix::CorrelatedChurn,
                    Scenario::Indexed,
                )
                .expect("deterministic run")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compensation_growth, bench_local_eval_ablation
}
criterion_main!(benches);

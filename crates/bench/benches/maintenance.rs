//! End-to-end maintenance throughput: the full simulator stack per
//! algorithm on the calibrated Example-6 workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eca_bench::measure_custom;
use eca_core::algorithms::AlgorithmKind;
use eca_sim::Policy;
use eca_storage::Scenario;
use eca_workload::{Params, UpdateMix};

fn bench_algorithms(c: &mut Criterion) {
    let params = Params::default();
    let k = 20;
    let mut group = c.benchmark_group("maintenance_k20");
    for (name, kind) in [
        ("ECA", AlgorithmKind::EcaOptimized),
        ("LCA", AlgorithmKind::Lca),
        ("RV_s1", AlgorithmKind::RecomputeView { period: 1 }),
        ("RV_sk", AlgorithmKind::RecomputeView { period: k }),
        ("SC", AlgorithmKind::StoreCopies),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                measure_custom(
                    params,
                    7,
                    k,
                    kind,
                    Policy::Serial,
                    UpdateMix::Mixed,
                    Scenario::Indexed,
                )
                .expect("deterministic run")
            })
        });
    }
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    let params = Params::default();
    let mut group = c.benchmark_group("eca_policies_k20");
    for (name, policy) in [
        ("serial", Policy::Serial),
        ("adversarial", Policy::AllUpdatesFirst),
        ("random", Policy::Random { seed: 3 }),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                measure_custom(
                    params,
                    7,
                    20,
                    AlgorithmKind::EcaOptimized,
                    policy,
                    UpdateMix::Mixed,
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
    targets = bench_algorithms, bench_policies
}
criterion_main!(benches);

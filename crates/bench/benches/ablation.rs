//! Criterion bench for the three ablations in the README's "Substitutions"
//! list: choice sharing on/off, critical-ratio sweep, mixed vs single
//! representation.

use mch_bench::harness::Criterion;
use mch_bench::{criterion_group, criterion_main};
use mch_bench::experiments::{
    ablation_choice_sharing, ablation_critical_ratio, ablation_mixed_vs_single,
};

fn bench_ablation(c: &mut Criterion) {
    let net = mch_benchmarks::benchmark("int2float").unwrap();
    let mut group = c.benchmark_group("ablation_int2float");
    group.sample_size(10);
    group.bench_function("choice_sharing", |b| b.iter(|| ablation_choice_sharing(&net)));
    group.bench_function("critical_ratio_sweep", |b| {
        b.iter(|| ablation_critical_ratio(&net, &[0.5, 0.7, 0.9]))
    });
    group.bench_function("mixed_vs_single", |b| b.iter(|| ablation_mixed_vs_single(&net)));
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);

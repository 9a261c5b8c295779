//! Figure 5 bench: CDF of page load time at ρ = 0.61 for every policy.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig5_cdf_low_load, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_cdf_low_load");
    group.sample_size(10);
    group.bench_function("cdf_rho_0_61_tiny", |b| {
        b.iter(|| {
            let series = fig5_cdf_low_load(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(series.len(), 5);
            criterion::black_box(series)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

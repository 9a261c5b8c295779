//! Figure 3 bench: CDF of page load time at ρ = 0.88 for every policy.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig3_cdf_high_load, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_cdf_high_load");
    group.sample_size(10);
    group.bench_function("cdf_rho_0_88_tiny", |b| {
        b.iter(|| {
            let series = fig3_cdf_high_load(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(series.len(), 5);
            assert!(series.iter().all(|s| !s.points.is_empty()));
            criterion::black_box(series)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

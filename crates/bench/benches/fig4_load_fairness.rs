//! Figure 4 bench: instantaneous server load (mean and Jain fairness) over
//! time at ρ = 0.88, RR vs SR4.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig4_load_fairness, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_load_fairness");
    group.sample_size(10);
    group.bench_function("load_fairness_tiny", |b| {
        b.iter(|| {
            let series = fig4_load_fairness(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(series.len(), 2);
            assert!(series.iter().all(|s| !s.points.is_empty()));
            criterion::black_box(series)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

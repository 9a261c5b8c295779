//! Figure 6 bench: Wikipedia replay — wiki-page rate and median load time
//! per time bin, RR vs SR4.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig6_wiki_median, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_wiki_median");
    group.sample_size(10);
    group.bench_function("wiki_median_tiny", |b| {
        b.iter(|| {
            let series = fig6_wiki_median(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(series.len(), 2);
            assert!(series.iter().all(|s| !s.bins.is_empty()));
            criterion::black_box(series)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

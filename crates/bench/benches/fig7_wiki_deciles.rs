//! Figure 7 bench: Wikipedia replay — deciles 1–9 of the wiki-page load time
//! per time bin, RR vs SR4.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig7_wiki_deciles, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_wiki_deciles");
    group.sample_size(10);
    group.bench_function("wiki_deciles_tiny", |b| {
        b.iter(|| {
            let series = fig7_wiki_deciles(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(series.len(), 2);
            assert!(series.iter().all(|s| !s.deciles.is_empty()));
            criterion::black_box(series)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

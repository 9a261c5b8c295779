//! Figure 8 bench: CDF of wiki-page load time over the whole Wikipedia
//! replay, RR vs SR4.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig8_wiki_cdf, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_wiki_cdf");
    group.sample_size(10);
    group.bench_function("wiki_cdf_tiny", |b| {
        b.iter(|| {
            let result = fig8_wiki_cdf(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(result.series.len(), 2);
            criterion::black_box(result)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

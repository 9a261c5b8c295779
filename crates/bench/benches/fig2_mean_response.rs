//! Figure 2 bench: mean response time vs load factor ρ (RR, SR4, SR8, SR16,
//! SRdyn).  Runs the same harness as the `figures` binary at a reduced scale
//! so regressions in experiment runtime are visible in `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_bench::{fig2_mean_response, Scale, Sweep};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_mean_response");
    group.sample_size(10);
    group.bench_function("rho_sweep_tiny", |b| {
        b.iter(|| {
            let series = fig2_mean_response(Sweep::serial(Scale::Tiny, 42));
            assert_eq!(series.len(), 5);
            criterion::black_box(series)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

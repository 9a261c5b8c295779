//! # srlb-bench — the figure-regeneration harness
//!
//! One function per figure of the paper's evaluation section (Figures 2–8,
//! plus a deferred fault-injection figure, fig9), run by the `figures`
//! binary (`cargo run -p srlb-bench --release --bin figures`), which prints
//! and writes the series.
//!
//! Every function takes a [`Sweep`] — a [`Scale`] (paper scale, or the
//! `--quick` / `--tiny` reductions CI and the tests run), a seed, a `jobs`
//! worker count and the execution mode of each simulation: independent `(policy, ρ)` simulation points run across
//! scoped threads ([`parallel`]) with deterministic, byte-identical output
//! regardless of the worker count and execution mode.  The [`micro`]
//! module additionally writes machine-readable micro-bench medians
//! (`BENCH_micro.json`) so PRs can diff the perf trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod figures;
mod macrobench;
pub mod micro;
pub mod output;
pub mod parallel;
pub mod scenarios;
mod spec_run;

pub use figures::{
    fig2_mean_response, fig3_cdf_high_load, fig4_load_fairness, fig5_cdf_low_load,
    fig6_wiki_median, fig8_wiki_cdf, fig9_rackzone_hunting, CdfSeries, Fig2Series, Fig4Series,
    Fig9Cell, Scale, Sweep, WikiBinSeries, WikiCdf,
};
pub use macrobench::{
    run_macro_bench, write_bench_macro, AblationCell, FlowScaleReport, MacroBenchReport,
};
pub use micro::write_bench_micro;
pub use output::{write_csv, FIGURES_DIR};
pub use parallel::default_jobs;
pub use scenarios::{
    run_scenarios, write_bench_scenarios, EcmpReshuffleReport, RemapReport, ScenarioReport,
    ScenariosDoc,
};
pub use spec_run::{
    example_specs, load_spec, run_spec_file, write_example_specs, write_spec_report, SpecRunReport,
};

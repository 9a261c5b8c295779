//! One function per figure of the paper's evaluation.
//!
//! Every figure function takes a [`Sweep`]: the underlying `(policy, ρ)` /
//! replay points are independent seeded simulations and run through
//! [`parallel_map`] across `sweep.jobs` workers, which returns results in
//! input order — so output is byte-identical whatever the worker count, and
//! `jobs = 1` is a fully serial run.  Each simulation executes under
//! `sweep.exec`, which is equally invisible in the output.

use srlb_core::dispatch::DispatcherConfig;
use srlb_core::runner::{RunOutcome, Runner};
use srlb_core::spec::{ExperimentSpec, FaultLink, FaultPlan, LossSpec, PolicyKind};
use srlb_metrics::{jain_fairness, Ewma, RequestClass};
use srlb_server::PolicyConfig;
use srlb_sim::{ExecMode, TopologyModel};

use crate::parallel::parallel_map;

/// How large to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// The paper's full scale: 20 000 queries per Poisson point, 24 values of
    /// ρ, 24-hour Wikipedia replay.
    Paper,
    /// A reduced scale for quick command-line runs: fewer queries, fewer ρ
    /// points, a slice of the Wikipedia day.
    Quick,
    /// The smallest meaningful scale (`--tiny`): each run stays in the
    /// tens-of-milliseconds range, for CI byte-diffs and the tests.
    Tiny,
}

impl Scale {
    /// Number of queries per Poisson experiment.
    pub(crate) fn poisson_queries(self) -> usize {
        match self {
            Scale::Paper => 20_000,
            Scale::Quick => 2_000,
            Scale::Tiny => 500,
        }
    }

    /// The ρ values swept in Figure 2.
    pub(crate) fn rho_values(self) -> Vec<f64> {
        match self {
            // 24 values in (0, 1), as in the paper.
            Scale::Paper => (1..=24).map(|i| i as f64 / 25.0).collect(),
            Scale::Quick => vec![0.2, 0.4, 0.6, 0.8, 0.88, 0.96],
            Scale::Tiny => vec![0.61, 0.88],
        }
    }

    /// Duration of the Wikipedia replay in hours.
    pub(crate) fn wiki_hours(self) -> f64 {
        match self {
            Scale::Paper => 24.0,
            Scale::Quick => 0.25,
            Scale::Tiny => 0.05,
        }
    }

    /// Width of the Wikipedia time bins in seconds (the paper uses 10-minute
    /// bins over 24 h; the reduced scales use shorter bins over their shorter
    /// slices so there are still plenty of points).
    pub(crate) fn wiki_bin_seconds(self) -> f64 {
        match self {
            Scale::Paper => 600.0,
            Scale::Quick => 60.0,
            Scale::Tiny => 30.0,
        }
    }
}

/// How a sweep of experiments runs: at what size, from which seed, across
/// how many workers, and how each individual simulation executes.  Only
/// `scale` and `seed` can change an output byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// How large each experiment is.
    pub scale: Scale,
    /// Seed of every run.
    pub seed: u64,
    /// Worker threads the independent runs are spread across.
    pub jobs: usize,
    /// Execution mode of each run (the CLI's `--sim-threads`).
    pub exec: ExecMode,
}

impl Sweep {
    /// A single-worker sweep under the default (batched) execution mode.
    pub fn serial(scale: Scale, seed: u64) -> Self {
        Sweep {
            scale,
            seed,
            jobs: 1,
            exec: ExecMode::default(),
        }
    }

    /// Runs one of the harness's own specs under this sweep's execution
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid — the harness builds every spec it
    /// passes here, so that is a bug in the harness.
    pub fn run(&self, spec: ExperimentSpec) -> RunOutcome {
        Runner::new(spec)
            .expect("harness specs are valid")
            .with_exec(self.exec)
            .run()
    }
}

/// The policies compared in the Poisson figures, in the paper's order.
pub(crate) fn poisson_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::RoundRobin,
        PolicyKind::Static { threshold: 4 },
        PolicyKind::Static { threshold: 8 },
        PolicyKind::Static { threshold: 16 },
        PolicyKind::Dynamic,
    ]
}

/// Runs one paper-testbed Poisson point.
fn poisson_outcome(sweep: Sweep, rho: f64, policy: PolicyKind, record_load: bool) -> RunOutcome {
    let mut spec = ExperimentSpec::poisson_paper(rho, policy)
        .with_queries(sweep.scale.poisson_queries())
        .with_seed(sweep.seed);
    if record_load {
        spec = spec.with_load_recording();
    }
    sweep.run(spec)
}

/// One policy's mean-response-time curve for Figure 2.
#[derive(Debug, Clone, PartialEq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_bench::fig2_mean_response
pub struct Fig2Series {
    /// Policy label (`"RR"`, `"SR4"`, …).
    pub label: String,
    /// `(rho, mean response time in seconds)` points.
    pub points: Vec<(f64, f64)>,
}

/// Figure 2: mean page load time as a function of the normalised request
/// rate ρ, for RR and the SRc/SRdyn policies.
///
/// The full `(policy, ρ)` cross product is swept across `sweep.jobs`
/// workers; each point is an independent seeded simulation and the series
/// are reassembled in the paper's policy order.
pub fn fig2_mean_response(sweep: Sweep) -> Vec<Fig2Series> {
    let policies = poisson_policies();
    let rhos = sweep.scale.rho_values();
    let grid: Vec<(PolicyKind, f64)> = policies
        .iter()
        .flat_map(|&policy| rhos.iter().map(move |&rho| (policy, rho)))
        .collect();
    let means = parallel_map(&grid, sweep.jobs, |&(policy, rho)| {
        poisson_outcome(sweep, rho, policy, false).mean_response_seconds()
    });
    policies
        .iter()
        .enumerate()
        .map(|(p, policy)| Fig2Series {
            label: policy.label(),
            points: rhos
                .iter()
                .enumerate()
                .map(|(r, &rho)| (rho, means[p * rhos.len() + r]))
                .collect(),
        })
        .collect()
}

/// One policy's response-time CDF (Figures 3, 5 and 8).
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSeries {
    /// Policy label.
    pub label: String,
    /// `(response time in seconds, cumulative fraction)` points.
    pub points: Vec<(f64, f64)>,
    /// Median response time in seconds.
    pub median_s: f64,
    /// Third quartile in seconds.
    pub third_quartile_s: f64,
}

fn cdf_series_for(outcome: &RunOutcome, class: Option<RequestClass>, points: usize) -> CdfSeries {
    let cdf = outcome.cdf_seconds(class);
    CdfSeries {
        label: outcome.label.clone(),
        points: cdf.points(points),
        median_s: cdf.median().unwrap_or(0.0),
        third_quartile_s: cdf.third_quartile().unwrap_or(0.0),
    }
}

fn poisson_cdf(sweep: Sweep, rho: f64) -> Vec<CdfSeries> {
    parallel_map(&poisson_policies(), sweep.jobs, |&policy| {
        cdf_series_for(&poisson_outcome(sweep, rho, policy, false), None, 200)
    })
}

/// Figure 3: CDF of page load time at high load (ρ = 0.88).
pub fn fig3_cdf_high_load(sweep: Sweep) -> Vec<CdfSeries> {
    poisson_cdf(sweep, 0.88)
}

/// Figure 5: CDF of page load time at moderate load (ρ = 0.61).
pub fn fig5_cdf_low_load(sweep: Sweep) -> Vec<CdfSeries> {
    poisson_cdf(sweep, 0.61)
}

/// One policy's instantaneous-load trajectory for Figure 4.
#[derive(Debug, Clone, PartialEq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_bench::fig4_load_fairness
pub struct Fig4Series {
    /// Policy label (`"RR"` or `"SR4"`).
    pub label: String,
    /// `(time in seconds, mean busy workers over servers, Jain fairness)`
    /// samples, smoothed with the paper's EWMA.
    pub points: Vec<(f64, f64, f64)>,
}

/// Figure 4: instantaneous server load (mean and Jain fairness over the 12
/// servers) during a run at ρ = 0.88, for RR and SR4, smoothed with an EWMA
/// of parameter `alpha = 1 - exp(-dt)`.
pub fn fig4_load_fairness(sweep: Sweep) -> Vec<Fig4Series> {
    parallel_map(
        &[PolicyKind::RoundRobin, PolicyKind::Static { threshold: 4 }],
        sweep.jobs,
        |&policy| {
            let outcome = poisson_outcome(sweep, 0.88, policy, true);
            Fig4Series {
                points: load_grid(&outcome.load_series, outcome.duration_seconds, 1.0),
                label: outcome.label,
            }
        },
    )
}

/// Resamples per-server step-function load series on a regular grid and
/// returns `(t, mean, fairness)` with the paper's EWMA smoothing.
fn load_grid(series: &[Vec<(f64, usize)>], duration_s: f64, step_s: f64) -> Vec<(f64, f64, f64)> {
    let n = series.len();
    if n == 0 || duration_s <= 0.0 {
        return Vec::new();
    }
    let mut cursors = vec![0usize; n];
    let mut current = vec![0.0f64; n];
    let mut filters: Vec<Ewma> = (0..n).map(|_| Ewma::new()).collect();
    let mut out = Vec::new();
    let mut t = 0.0;
    while t <= duration_s {
        for (i, server) in series.iter().enumerate() {
            while cursors[i] < server.len() && server[cursors[i]].0 <= t {
                current[i] = server[cursors[i]].1 as f64;
                cursors[i] += 1;
            }
            filters[i].observe(t, current[i]);
        }
        let smoothed: Vec<f64> = filters.iter().map(|f| f.value().unwrap_or(0.0)).collect();
        let mean = smoothed.iter().sum::<f64>() / n as f64;
        out.push((t, mean, jain_fairness(&smoothed)));
        t += step_s;
    }
    out
}

/// One time-binned series of the Wikipedia replay (Figure 6).
#[derive(Debug, Clone, PartialEq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_bench::fig6_wiki_median
pub struct WikiBinSeries {
    /// Policy label.
    pub label: String,
    /// `(bin start in seconds, wiki-page queries per second, median wiki-page
    /// load time in seconds)` per bin.
    pub bins: Vec<(f64, f64, f64)>,
    /// `(bin start in seconds, deciles 1..=9 in seconds)` per bin (Figure 7).
    pub deciles: Vec<(f64, [f64; 9])>,
}

fn wikipedia_outcome(sweep: Sweep, policy: PolicyKind) -> RunOutcome {
    sweep.run(
        ExperimentSpec::wikipedia_paper(policy)
            .with_hours(sweep.scale.wiki_hours())
            .with_seed(sweep.seed),
    )
}

fn wiki_bins(result: &RunOutcome, bin_seconds: f64) -> WikiBinSeries {
    let binned = result
        .collector
        .binned(bin_seconds, Some(RequestClass::WikiPage));
    let rates = result
        .collector
        .arrival_rate_bins(bin_seconds, Some(RequestClass::WikiPage));
    let rate_stats = rates.stats();
    let mut bins = Vec::new();
    let mut deciles = Vec::new();
    for (i, stat) in binned.stats().iter().enumerate() {
        let rate = rate_stats.get(i).map(|r| r.rate_per_second).unwrap_or(0.0);
        bins.push((stat.start_seconds, rate, stat.median.unwrap_or(0.0) / 1e3));
        if let Some(d) = stat.deciles {
            let mut seconds = [0.0; 9];
            for (j, v) in d.iter().enumerate() {
                seconds[j] = v / 1e3;
            }
            deciles.push((stat.start_seconds, seconds));
        }
    }
    WikiBinSeries {
        label: result.label.clone(),
        bins,
        deciles,
    }
}

/// Figures 6 and 7: wiki-page query rate, median load time and deciles 1–9
/// per time bin over the Wikipedia replay, for RR and SR4 (one set of runs).
pub fn fig6_wiki_median(sweep: Sweep) -> Vec<WikiBinSeries> {
    parallel_map(
        &[PolicyKind::RoundRobin, PolicyKind::Static { threshold: 4 }],
        sweep.jobs,
        |&policy| {
            wiki_bins(
                &wikipedia_outcome(sweep, policy),
                sweep.scale.wiki_bin_seconds(),
            )
        },
    )
}

/// The whole-day CDF comparison of Figure 8.
#[derive(Debug, Clone, PartialEq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_bench::fig8_wiki_cdf
pub struct WikiCdf {
    /// CDF of wiki-page load times per policy.
    pub series: Vec<CdfSeries>,
}

/// Figure 8: CDF of wiki-page load time over the whole replay, RR vs SR4
/// (the paper reports the median dropping from 0.25 s to 0.20 s and the
/// third quartile from 0.48 s to 0.28 s).
pub fn fig8_wiki_cdf(sweep: Sweep) -> WikiCdf {
    let series = parallel_map(
        &[PolicyKind::RoundRobin, PolicyKind::Static { threshold: 4 }],
        sweep.jobs,
        |&policy| {
            let outcome = wikipedia_outcome(sweep, policy);
            cdf_series_for(&outcome, Some(RequestClass::WikiPage), 200)
        },
    );
    WikiCdf { series }
}

/// LB tier sizes swept by Figure 9.
pub(crate) const FIG9_LB_COUNTS: [usize; 3] = [1, 2, 4];

/// One cell of the Figure 9 sweep: Service Hunting cost under rack
/// placement × LB tier spread, measured fault-free and under 1 % injected
/// loss with retransmission.
#[derive(Debug, Clone, PartialEq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_bench::fig9_rackzone_hunting
pub struct Fig9Cell {
    /// Topology label (`"uniform"` or `"rackzone"`).
    pub topology: String,
    /// Load-balancer tier size (ECMP spread).
    pub lb_count: usize,
    /// Whether 1 % loss + retransmission was injected.
    pub lossy: bool,
    /// Requests sent.
    pub sent: u64,
    /// Requests completed.
    pub completed: u64,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// 99th-percentile response time in milliseconds.
    pub p99_response_ms: f64,
    /// Flow-table misses recovered by re-hunting (tier-wide).
    pub rehunts: u64,
    /// Service Hunting hops: connections a candidate declined and passed on
    /// to the next server in the SR list (summed over servers).
    pub passed_on: u64,
    /// Messages dropped by the injected loss rule.
    pub dropped_injected: u64,
    /// Client retransmissions recovering the drops.
    pub retransmits: u64,
    /// Requests aborted after exhausting the retransmission budget.
    pub aborted: u64,
}

/// Figure 9 (deferred from the LB-tier PR): hunting cost as a function of
/// rack placement and LB tier spread, with a lossy column.
///
/// Sweeps {uniform 50 µs, rack-zone default} × LB tier size {1, 2, 4} ×
/// {fault-free, 1 % uniform loss}, all under consistent-hash dispatch
/// (`vnodes = 128, k = 2`) with the SR4 acceptance policy, so candidate
/// hunting crosses rack boundaries and its latency cost — and its
/// interaction with retransmission — is visible per cell.
pub fn fig9_rackzone_hunting(sweep: Sweep) -> Vec<Fig9Cell> {
    let topologies = [
        ("uniform", TopologyModel::paper()),
        ("rackzone", TopologyModel::rack_zone_default()),
    ];
    let grid: Vec<(&str, TopologyModel, usize, bool)> = topologies
        .iter()
        .flat_map(|&(label, topology)| {
            FIG9_LB_COUNTS.iter().flat_map(move |&lb_count| {
                [false, true]
                    .iter()
                    .map(move |&lossy| (label, topology, lb_count, lossy))
            })
        })
        .collect();
    parallel_map(&grid, sweep.jobs, |&(label, topology, lb_count, lossy)| {
        let policy = PolicyKind::Explicit {
            dispatcher: DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
            acceptance: PolicyConfig::Static { threshold: 4 },
        };
        let mut spec = ExperimentSpec::poisson_paper(0.88, policy)
            .with_queries(sweep.scale.poisson_queries())
            .with_seed(sweep.seed)
            .with_topology(topology)
            .with_lb_count(lb_count)
            .with_name(format!("fig9-{label}-lb{lb_count}"));
        if lossy {
            spec = spec.with_faults(FaultPlan {
                loss: vec![LossSpec {
                    link: FaultLink::default(),
                    probability: 0.01,
                }],
                recovery: Some(srlb_net::RetransmitPolicy::default()),
                ..FaultPlan::default()
            });
        }
        let outcome = sweep.run(spec);
        let summary = outcome.collector.summary(None);
        Fig9Cell {
            topology: label.to_string(),
            lb_count,
            lossy,
            sent: outcome.collector.len() as u64,
            completed: outcome.collector.completed_count() as u64,
            mean_response_ms: summary.mean(),
            p99_response_ms: summary.percentile(99.0).unwrap_or(0.0),
            rehunts: outcome.lb_stats.rehunts,
            passed_on: outcome.server_stats.iter().map(|s| s.passed_on).sum(),
            dropped_injected: outcome.dropped_injected,
            retransmits: outcome.retransmits,
            aborted: outcome.aborted,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_are_consistent() {
        assert_eq!(Scale::Paper.rho_values().len(), 24);
        assert_eq!(Scale::Paper.poisson_queries(), 20_000);
        assert_eq!(Scale::Paper.wiki_hours(), 24.0);
        assert!(Scale::Quick.poisson_queries() < Scale::Paper.poisson_queries());
        assert!(Scale::Quick.wiki_hours() < 1.0);
        assert!(Scale::Paper
            .rho_values()
            .iter()
            .all(|&r| r > 0.0 && r < 1.0));
    }

    #[test]
    fn load_grid_resamples_step_functions() {
        // Two servers: one constant at 4, one stepping 0 -> 8 at t = 5.
        let series = vec![vec![(0.0, 4)], vec![(0.0, 0), (5.0, 8)]];
        let grid = load_grid(&series, 10.0, 1.0);
        assert_eq!(grid.len(), 11);
        // At t = 0 the mean is (4 + 0) / 2 = 2 and fairness is 0.5.
        assert!((grid[0].1 - 2.0).abs() < 1e-9);
        assert!((grid[0].2 - 0.5).abs() < 1e-9);
        // Late in the run the smoothed loads approach 4 and 8.
        let last = grid.last().unwrap();
        assert!(last.1 > 5.0 && last.1 < 6.5);
        assert!(last.2 > 0.8);
    }

    #[test]
    fn load_grid_handles_empty_input() {
        assert!(load_grid(&[], 10.0, 1.0).is_empty());
        assert!(load_grid(&[vec![(0.0, 1)]], 0.0, 1.0).is_empty());
    }

    #[test]
    fn fig9_sweep_contrasts_topology_and_loss() {
        let serial = fig9_rackzone_hunting(Sweep::serial(Scale::Tiny, 7));
        // {uniform, rackzone} x {1, 2, 4} LBs x {fault-free, lossy}.
        assert_eq!(serial.len(), 12);
        for cell in &serial {
            assert!(cell.sent > 0);
            assert!(cell.completed > 0);
            assert!(cell.mean_response_ms > 0.0);
            if cell.lossy {
                // The lossy column actually injects and recovers drops.
                assert!(cell.dropped_injected > 0, "lossy cell saw no drops");
                assert!(cell.retransmits > 0, "lossy cell never retransmitted");
            } else {
                assert_eq!(cell.dropped_injected, 0);
                assert_eq!(cell.retransmits, 0);
                assert_eq!(cell.aborted, 0);
            }
        }
        // Consistent-hash dispatch with SR4 acceptance actually hunts at
        // rho = 0.88, in every topology / tier-spread cell.
        assert!(serial.iter().all(|c| c.passed_on > 0));
        // Byte-identical whatever the worker count and execution mode.
        let parallel = fig9_rackzone_hunting(Sweep {
            jobs: 4,
            exec: ExecMode::Sharded { threads: 2 },
            ..Sweep::serial(Scale::Tiny, 7)
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_sweep_output_matches_serial() {
        // Each (policy, rho) point is an independent seeded simulation and
        // results are reassembled by input index, so the figure data must be
        // identical whatever the worker count.
        let serial = fig2_mean_response(Sweep::serial(Scale::Tiny, 7));
        let parallel = fig2_mean_response(Sweep {
            jobs: 4,
            ..Sweep::serial(Scale::Tiny, 7)
        });
        assert_eq!(serial, parallel);
    }
}

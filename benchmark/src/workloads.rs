//! The benchmark's workloads: which spec each runs, under which execution
//! mode, and why it is in the set.

use srlb_core::spec::{ExperimentSpec, WorkloadSpec};
use srlb_core::{Runner, ShardPlanning};
use srlb_sim::{ExecMode, PoolPolicy};

/// Requests per workload in `--tiny` mode.
const TINY_REQUESTS: usize = 2_000;
/// Wikipedia trace length that yields about [`TINY_REQUESTS`] requests
/// (the replay has no request-count knob; 0.6 h is ~255 k requests).
const TINY_WIKI_HOURS: f64 = 0.005;

/// One workload: a spec file plus the engine configuration it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload is in the set.
    pub why: &'static str,
    /// File name under `benchmark/workloads/`.
    pub spec_file: &'static str,
    /// The spec JSON, embedded so the binary runs from any directory.
    pub spec_json: &'static str,
    /// Execution mode, always passed explicitly so `SRLB_SIM_THREADS`
    /// cannot leak in.
    pub exec: ExecMode,
    /// Pool policy, always passed explicitly so `SRLB_SIM_POOL` cannot leak
    /// in.  Never `Auto`: a collapse to one core must not read as a
    /// parallel result.
    pub pool: PoolPolicy,
}

macro_rules! spec_file {
    ($file:literal) => {
        ($file, include_str!(concat!("../workloads/", $file)))
    };
}

const fn workload(
    name: &'static str,
    why: &'static str,
    (spec_file, spec_json): (&'static str, &'static str),
    exec: ExecMode,
    pool: PoolPolicy,
) -> Workload {
    Workload {
        name,
        why,
        spec_file,
        spec_json,
        exec,
        pool,
    }
}

/// Every workload, in report order.  `rackzone_sharded2` shares
/// `rackzone_batched`'s spec file so the two cannot drift apart.
pub const WORKLOADS: [Workload; 5] = [
    workload(
        "poisson_paper",
        "paper testbed, Poisson rho 0.89, SRdyn: every layer near its typical share, the baseline no optimisation may hurt",
        spec_file!("poisson_paper.json"),
        ExecMode::Batched,
        PoolPolicy::Never,
    ),
    workload(
        "wiki_replay",
        "Wikipedia replay under SR4: trace-driven rate, two request classes, static policy and the per-request collector at work",
        spec_file!("wiki_replay.json"),
        ExecMode::Batched,
        PoolPolicy::Never,
    ),
    workload(
        "rackzone_batched",
        "384 servers, 8 LBs, 8 racks, consistent hash: deep event queue, per-pair latency, ECMP and ring lookups beyond L2",
        spec_file!("rackzone.json"),
        ExecMode::Batched,
        PoolPolicy::Never,
    ),
    workload(
        "rackzone_sharded2",
        "the rackzone spec on two forced worker threads: windows, barrier and cross-shard mail; digest must equal batched",
        spec_file!("rackzone.json"),
        ExecMode::Sharded { threads: 2 },
        PoolPolicy::Force,
    ),
    workload(
        "lossy_bounded",
        "1% loss on every link and a 256-entry flow table: fault hook, retransmit timers, evictions and re-hunts, the slow path",
        spec_file!("lossy_bounded.json"),
        ExecMode::Batched,
        PoolPolicy::Never,
    ),
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Parses the spec and overrides its seed and (in tiny mode) its size —
    /// the first step of every timed repetition.  Validation is
    /// [`Runner::new`]'s job.
    pub fn spec(&self, seed: u64, tiny: bool) -> Result<ExperimentSpec, String> {
        let mut spec: ExperimentSpec = serde_json::from_str(self.spec_json)
            .map_err(|e| format!("{}: malformed spec: {e}", self.spec_file))?;
        spec.seed = seed;
        if tiny {
            match &mut spec.workload {
                WorkloadSpec::Poisson { queries, .. }
                | WorkloadSpec::PoissonRate { queries, .. } => *queries = TINY_REQUESTS,
                WorkloadSpec::Wikipedia { hours, .. } => *hours = TINY_WIKI_HOURS,
                WorkloadSpec::Trace { .. } => {}
            }
        }
        Ok(spec)
    }

    /// The runner this workload measures, with every engine knob explicit.
    pub fn runner(&self, spec: ExperimentSpec) -> Result<Runner, String> {
        Ok(Runner::new(spec)
            .map_err(|e| format!("{}: {e}", self.spec_file))?
            .with_exec(self.exec)
            .with_pool_policy(self.pool)
            .with_shard_planning(ShardPlanning::TopologyAware))
    }

    /// Whether the workload runs on worker threads.
    pub fn is_sharded(&self) -> bool {
        self.exec.threads() > 1
    }

    /// The execution mode as printed in result stamps.
    pub fn exec_label(&self) -> String {
        match self.exec {
            ExecMode::SerialStep => "serial_step".to_string(),
            ExecMode::Batched => "batched".to_string(),
            ExecMode::Sharded { threads } => format!("sharded{threads}"),
        }
    }

    /// The pool policy as printed in result stamps.
    pub fn pool_label(&self) -> &'static str {
        match self.pool {
            PoolPolicy::Auto => "auto",
            PoolPolicy::Force => "force",
            PoolPolicy::Never => "never",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file under `benchmark/workloads/` parses, validates and
    /// re-serialises to the committed bytes.
    #[test]
    fn every_workload_file_parses_validates_and_round_trips() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("workloads directory exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let spec: ExperimentSpec =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let again = serde_json::to_string(&spec).expect("spec serialises");
            assert_eq!(again, text.trim_end(), "{} round-trips", path.display());
            let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8");
            assert!(
                WORKLOADS.iter().any(|w| w.spec_file == name),
                "{name} is not used by any workload"
            );
        }
    }

    #[test]
    fn tiny_mode_shrinks_every_workload_and_the_seed_is_overridden() {
        for w in &WORKLOADS {
            let spec = w.spec(7, true).expect("tiny spec parses");
            spec.validate().expect("tiny spec is valid");
            assert_eq!(spec.seed, 7);
            let n = spec.workload.stream(spec.seed, &spec.cluster).remaining();
            assert!((1_000..=4_000).contains(&n), "{}: {n} requests", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_the_sharded_workload_is_forced() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert_ne!(w.pool, PoolPolicy::Auto, "{}", w.name);
            assert!(w.why.len() <= 200);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("rackzone_sharded2").is_some_and(Workload::is_sharded));
        assert_eq!(
            find("rackzone_sharded2").map(|w| w.spec_json),
            find("rackzone_batched").map(|w| w.spec_json)
        );
    }
}

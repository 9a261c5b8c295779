//! Poisson load sweep (a reduced version of the paper's Figure 2).
//!
//! Sweeps the normalised request rate ρ and prints the mean response time of
//! the RR baseline against SR4, SR8, SR16 and SRdyn.
//!
//! ```text
//! cargo run --release --example poisson_sweep
//! ```

use srlb::core::spec::{ExperimentSpec, PolicyKind};
use srlb::core::Runner;

fn main() {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Static { threshold: 4 },
        PolicyKind::Static { threshold: 8 },
        PolicyKind::Static { threshold: 16 },
        PolicyKind::Dynamic,
    ];
    let rhos = [0.2, 0.4, 0.6, 0.7, 0.8, 0.88, 0.96];
    let queries = 5_000;
    let seed = 7;

    println!("Mean response time (s) per policy and load factor rho ({queries} queries/point)");
    print!("{:<6}", "rho");
    for p in &policies {
        print!("{:>10}", p.label());
    }
    println!();

    for &rho in &rhos {
        print!("{rho:<6.2}");
        for &policy in &policies {
            let spec = ExperimentSpec::poisson_paper(rho, policy)
                .with_queries(queries)
                .with_seed(seed);
            let outcome = Runner::new(spec).expect("spec is valid").run();
            print!("{:>10.3}", outcome.mean_response_seconds());
        }
        println!();
    }

    println!();
    println!("Paper's Figure 2 shape: every SRc curve sits below RR, SR4 is the best static");
    println!("policy at high load, and SRdyn tracks the best static policy without tuning.");
}

//! Load-balancer failover under load: compare how candidate-selection
//! policies cope with losing the flow table mid-run.
//!
//! The spec establishes connections continuously, fails the load
//! balancer over to a cold standby (empty flow table) at the midpoint, and
//! relies on in-band reconstruction: packets of established flows are
//! re-hunted through the candidate list and the owning server re-announces
//! itself with an acceptance-style SRH.  With deterministic dispatchers
//! (consistent hash, Maglev) the owner is always in the re-hunt list, so
//! **zero** established connections are lost; with random candidate lists
//! the owner usually is not, and connections break.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example lb_failover
//! ```

use srlb::core::dispatch::DispatcherConfig;
use srlb::core::spec::ExperimentSpec;
use srlb::core::Runner;

fn main() {
    let queries = 2_000;
    println!("SRLB load-balancer failover scenario — {queries} queries, failover at mid-run");
    println!(
        "{:<22} {:>6} {:>6} {:>7} {:>8} {:>8} {:>9}",
        "dispatcher", "sent", "done", "broken", "rehunts", "adverts", "recon(ms)"
    );

    for dispatcher in [
        DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
        DispatcherConfig::Maglev {
            table_size: 2039,
            k: 2,
        },
        DispatcherConfig::Random { k: 2 },
    ] {
        let spec = ExperimentSpec::lb_failover(dispatcher, queries).with_seed(42);
        let outcome = Runner::new(spec).expect("preset is valid").run();
        println!(
            "{:<22} {:>6} {:>6} {:>7} {:>8} {:>8} {:>9}",
            outcome.dispatcher_name,
            outcome.collector.len(),
            outcome.collector.completed_count(),
            outcome.broken_established(),
            outcome.lb_stats.rehunts,
            outcome.ownership_adverts(),
            outcome
                .reconstruction_latency_s
                .map_or("-".to_string(), |s| format!("{:.1}", s * 1e3)),
        );
    }

    println!(
        "\nDeterministic dispatchers reconstruct the flow table in-band and lose no\n\
         established connection; random candidate lists cannot be replayed, so the\n\
         re-hunt misses the owner and those connections are reset."
    );
}

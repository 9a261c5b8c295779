//! # srlb-workload — traffic generation for the SRLB experiments
//!
//! The paper evaluates SRLB against two workloads:
//!
//! 1. **Poisson traffic** (Section V): a Poisson stream of queries to a
//!    CPU-bound PHP page whose service time is exponentially distributed
//!    with a mean of 100 ms — reproduced by [`PoissonWorkload`].
//! 2. **Wikipedia replay** (Section VI): 24 hours of real Wikipedia access
//!    traces replayed against MediaWiki replicas.  The original traces (10%
//!    of Wikipedia's 2007 traffic) and the MediaWiki/MySQL stack are not
//!    available here, so [`wikipedia::WikipediaWorkload`] generates a
//!    *synthetic* trace with the same load-shaping properties: a diurnal
//!    rate curve matching the paper's Figure 6, a static/wiki-page request
//!    mix, and heavy-tailed per-page service costs.  The substitution is
//!    documented in `DESIGN.md`.
//!
//! Both generators are deterministic given a seed and produce a
//! time-ordered sequence of [`Request`]s.  Since the streaming refactor
//! the primary interface is the [`Workload`] trait ([`stream`] module):
//! the experiment driver in `srlb-core` *pulls* requests on demand, so a
//! 24-hour replay never has to be materialised in memory; the eager
//! `generate()` methods survive as compatibility shims that drain the
//! stream (property-tested byte-identical to the pre-refactor output in
//! `tests/proptest_stream.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod poisson;
pub mod request;
pub mod service;
pub mod stream;
pub mod trace;
pub mod wikipedia;

pub use poisson::PoissonWorkload;
pub use request::Request;
pub use service::ServiceTime;
pub use stream::{
    requests_into_stream, BoxedWorkload, PoissonStream, TraceStream, WikipediaStream, Workload,
};
pub use trace::Trace;
pub use wikipedia::{DiurnalProfile, WikipediaWorkload};

/// Re-export of the request classification shared with `srlb-metrics`.
pub use srlb_metrics::RequestClass;

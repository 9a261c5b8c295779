//! The streaming [`Workload`] trait: requests pulled on demand.
//!
//! The original experiment driver materialised every workload as a
//! `Vec<Request>` before the simulation started, which caps the trace
//! length at available memory (a 24-hour Wikipedia replay is ~10 million
//! requests) and makes "generate" a mandatory up-front cost.  This module
//! turns workloads into *streams*: the client node pulls one request at a
//! time with [`Workload::next_request`], and generators hold only O(1)
//! state (Poisson) or one rate interval (Wikipedia).
//!
//! Determinism is preserved exactly: for a given seed, the stream yields
//! the byte-identical request sequence that the eager `generate()` path
//! produced — `generate()` itself is now a compatibility shim that drains
//! the stream (`crates/workload/tests/proptest_stream.rs` pins the
//! equivalence against independent reference implementations).
//!
//! Implementors:
//!
//! * [`PoissonStream`] — [`PoissonWorkload::stream`](crate::PoissonWorkload::stream),
//! * [`WikipediaStream`] — [`WikipediaWorkload::stream`](crate::WikipediaWorkload::stream),
//! * [`TraceStream`] — [`requests_into_stream`].

use std::fmt;

use rand::Rng;
use rand_distr::{Distribution, Exp};
use srlb_metrics::RequestClass;
use srlb_sim::{SimRng, SimTime};

use crate::poisson::{poisson_count, PoissonWorkload};
use crate::request::Request;
use crate::service::ServiceTime;
use crate::trace::Trace;
use crate::wikipedia::WikipediaWorkload;

/// A deterministic, seeded source of time-ordered requests, pulled on
/// demand.
///
/// The contract mirrors the eager generators:
///
/// * requests come out sorted by arrival time with strictly increasing ids,
/// * [`Workload::remaining`] is an **exact** size hint: it returns the
///   number of requests the stream will still yield (experiment drivers use
///   it to size address plans and event budgets before the run starts),
/// * the sequence is a pure function of the generator configuration and the
///   seed it was created with.
pub trait Workload: fmt::Debug + Send {
    /// Pulls the next request, or `None` when the workload is exhausted.
    fn next_request(&mut self) -> Option<Request>;

    /// Exact number of requests this stream will still yield.
    fn remaining(&self) -> usize;
}

/// Boxed convenience alias used by experiment drivers.
pub type BoxedWorkload = Box<dyn Workload>;

/// Drains a stream into the eager `Vec<Request>` representation (the
/// compatibility path behind `generate()`).
pub fn collect(stream: &mut dyn Workload) -> Vec<Request> {
    let mut out = Vec::with_capacity(stream.remaining());
    while let Some(request) = stream.next_request() {
        out.push(request);
    }
    out
}

/// Wraps an already-materialised request list as a stream.
pub fn requests_into_stream(requests: Vec<Request>) -> TraceStream {
    TraceStream {
        requests: requests.into_iter(),
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// Streaming state of a [`PoissonWorkload`]: O(1) memory, one arrival and
/// one service draw per pulled request.
#[derive(Debug)]
// srlb-lint: allow(unused-pub) -- reached through srlb_workload::PoissonWorkload::stream
pub struct PoissonStream {
    arrival_rng: SimRng,
    service_rng: SimRng,
    inter_arrival: Exp,
    service: ServiceTime,
    class: RequestClass,
    now_seconds: f64,
    next_id: u64,
    total: u64,
}

impl PoissonWorkload {
    /// Opens the workload as a stream seeded with `seed`.  Draining the
    /// stream yields exactly [`PoissonWorkload::generate`]`(seed)`.
    pub fn stream(&self, seed: u64) -> PoissonStream {
        PoissonStream {
            arrival_rng: SimRng::new(seed).fork_named("poisson-arrivals"),
            service_rng: SimRng::new(seed).fork_named("poisson-service"),
            inter_arrival: Exp::new(self.rate_per_second)
                .expect("positive rate validated at construction"),
            service: self.service,
            class: self.class,
            now_seconds: 0.0,
            next_id: 0,
            total: self.queries as u64,
        }
    }
}

impl Workload for PoissonStream {
    fn next_request(&mut self) -> Option<Request> {
        if self.next_id >= self.total {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.now_seconds += self.inter_arrival.sample(&mut self.arrival_rng);
        Some(Request::new(
            id,
            SimTime::from_secs_f64(self.now_seconds),
            self.class,
            self.service.sample(&mut self.service_rng),
        ))
    }

    fn remaining(&self) -> usize {
        (self.total - self.next_id) as usize
    }
}

// ---------------------------------------------------------------------------
// Wikipedia
// ---------------------------------------------------------------------------

/// Streaming state of a [`WikipediaWorkload`]: holds at most one rate
/// interval's arrivals (tens to hundreds of entries) instead of the whole
/// day.
///
/// Per-interval generation is order-equivalent to the eager path's global
/// sort: every arrival of interval `i` is strictly before every arrival of
/// interval `i + 1`, and the per-interval stable sort preserves the same
/// tie order the global stable sort does.
#[derive(Debug)]
// srlb-lint: allow(unused-pub) -- reached through srlb_workload::WikipediaWorkload::stream
pub struct WikipediaStream {
    config: WikipediaWorkload,
    count_rng: SimRng,
    place_rng: SimRng,
    service_rng: SimRng,
    end_seconds: f64,
    /// Start of the next interval still to be drawn.
    t: f64,
    /// The current interval's `(arrival, class)` pairs, sorted by arrival.
    buffer: Vec<(f64, RequestClass)>,
    cursor: usize,
    next_id: u64,
    remaining: usize,
}

impl WikipediaWorkload {
    /// Opens the workload as a stream seeded with `seed`.  Draining the
    /// stream yields exactly [`WikipediaWorkload::generate`]`(seed)`.
    ///
    /// Construction performs one cheap counting pass (count and placement
    /// draws only, no sorting, no allocation proportional to the trace) so
    /// [`Workload::remaining`] is exact from the start.
    pub fn stream(&self, seed: u64) -> WikipediaStream {
        let count_rng = SimRng::new(seed).fork_named("wiki-counts");
        let place_rng = SimRng::new(seed).fork_named("wiki-placement");
        let service_rng = SimRng::new(seed).fork_named("wiki-service");
        let end_seconds = self.duration_hours * 3600.0;

        // Counting pass on clones: replicates the exact draw sequence the
        // streaming pass will consume, including the `at < end` filter.
        let mut counts = count_rng.clone();
        let mut places = place_rng.clone();
        let mut remaining = 0usize;
        let mut t = 0.0;
        while t < end_seconds {
            let (wiki_count, static_count) = interval_counts(self, t, &mut counts);
            for _ in 0..wiki_count + static_count {
                if t + places.gen::<f64>() * self.interval_seconds < end_seconds {
                    remaining += 1;
                }
            }
            t += self.interval_seconds;
        }

        WikipediaStream {
            config: self.clone(),
            count_rng,
            place_rng,
            service_rng,
            end_seconds,
            t: 0.0,
            buffer: Vec::new(),
            cursor: 0,
            next_id: 0,
            remaining,
        }
    }
}

/// Draws the wiki and static arrival counts of the interval starting at
/// `t`, in the fixed order both passes share.
fn interval_counts(config: &WikipediaWorkload, t: f64, rng: &mut SimRng) -> (u64, u64) {
    let wiki_mean =
        config.profile.rate_at_seconds(t) * config.load_fraction * config.interval_seconds;
    let wiki_count = poisson_count(rng, wiki_mean);
    let static_count = poisson_count(rng, wiki_mean * config.static_per_wiki);
    (wiki_count, static_count)
}

impl WikipediaStream {
    /// Refills the interval buffer from the next non-empty interval.
    fn refill(&mut self) {
        self.buffer.clear();
        self.cursor = 0;
        while self.t < self.end_seconds && self.buffer.is_empty() {
            let t = self.t;
            let (wiki_count, static_count) = interval_counts(&self.config, t, &mut self.count_rng);
            for (count, class) in [
                (wiki_count, RequestClass::WikiPage),
                (static_count, RequestClass::Static),
            ] {
                for _ in 0..count {
                    let at = t + self.place_rng.gen::<f64>() * self.config.interval_seconds;
                    if at < self.end_seconds {
                        self.buffer.push((at, class));
                    }
                }
            }
            self.t += self.config.interval_seconds;
        }
        self.buffer
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite arrival times"));
    }
}

impl Workload for WikipediaStream {
    fn next_request(&mut self) -> Option<Request> {
        if self.cursor >= self.buffer.len() {
            self.refill();
            if self.buffer.is_empty() {
                return None;
            }
        }
        let (at, class) = self.buffer[self.cursor];
        self.cursor += 1;
        let service = match class {
            RequestClass::WikiPage => self.config.wiki_service.sample(&mut self.service_rng),
            _ => self.config.static_service.sample(&mut self.service_rng),
        };
        let id = self.next_id;
        self.next_id += 1;
        self.remaining -= 1;
        Some(Request::new(id, SimTime::from_secs_f64(at), class, service))
    }

    fn remaining(&self) -> usize {
        self.remaining
    }
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// Streaming adapter over a materialised request list.
#[derive(Debug)]
// srlb-lint: allow(unused-pub) -- reached through srlb_workload::requests_into_stream
pub struct TraceStream {
    requests: std::vec::IntoIter<Request>,
}

impl Trace {}

impl Workload for TraceStream {
    fn next_request(&mut self) -> Option<Request> {
        self.requests.next()
    }

    fn remaining(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_stream_matches_generate() {
        let w = PoissonWorkload::paper(0.7, 120.0).with_queries(2_000);
        for seed in [1, 7, 42] {
            assert_eq!(collect(&mut w.stream(seed)), w.generate(seed));
        }
    }

    #[test]
    fn wikipedia_stream_matches_generate() {
        let w = WikipediaWorkload::paper().with_duration_hours(0.1);
        for seed in [1, 9] {
            assert_eq!(collect(&mut w.stream(seed)), w.generate(seed));
        }
    }

    #[test]
    fn remaining_is_exact_throughout() {
        let w = WikipediaWorkload::paper().with_duration_hours(0.02);
        let mut stream = w.stream(3);
        let total = stream.remaining();
        assert!(total > 0);
        let mut pulled = 0;
        while stream.next_request().is_some() {
            pulled += 1;
            assert_eq!(stream.remaining(), total - pulled);
        }
        assert_eq!(pulled, total);
        assert_eq!(stream.remaining(), 0);
        assert!(stream.next_request().is_none());
    }

    #[test]
    fn poisson_remaining_counts_down() {
        let w = PoissonWorkload::new(10.0, 5, ServiceTime::Constant { ms: 1.0 });
        let mut stream = w.stream(1);
        assert_eq!(stream.remaining(), 5);
        stream.next_request();
        assert_eq!(stream.remaining(), 4);
        assert_eq!(collect(&mut stream).len(), 4);
    }

    #[test]
    fn trace_stream_replays_requests() {
        let requests =
            PoissonWorkload::new(50.0, 20, ServiceTime::Constant { ms: 2.0 }).generate(4);
        let mut stream = requests_into_stream(requests.clone());
        assert_eq!(stream.remaining(), 20);
        assert_eq!(collect(&mut stream), requests);
    }

    #[test]
    fn streams_are_time_ordered_with_increasing_ids() {
        let w = WikipediaWorkload::paper().with_duration_hours(0.05);
        let requests = collect(&mut w.stream(11));
        assert!(crate::request::is_well_formed(&requests));
    }
}

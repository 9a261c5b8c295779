//! Property-based equivalence between the bounded [`FlowState`] and a
//! reference model.
//!
//! The model is deliberately naive — a flat `Vec` with linear scans and a
//! min-sequence victim search — so its semantics are obvious by inspection:
//! LRU eviction picks the globally least-recently-touched entry, expiry
//! drops everything idle beyond the timeout, and every departure is counted
//! under exactly one cause.  The table must match it entry for entry and
//! counter for counter, and a bounded spec must replay byte-identically
//! across every execution mode.

use std::net::Ipv6Addr;

use proptest::prelude::*;
use srlb_core::flow_state::{FlowState, FlowStateConfig};
use srlb_core::spec::{ExperimentSpec, FlowTableSpec, PolicyKind};
use srlb_core::Runner;
use srlb_metrics::{EvictionBreakdown, EvictionCause};
use srlb_net::{AddressPlan, FlowKey, Protocol, ServerId};
use srlb_sim::{ExecMode, PoolPolicy, SimDuration, SimTime};

fn flow(client: u32, port: u16) -> FlowKey {
    let plan = AddressPlan::default();
    FlowKey::new(
        plan.client_addr(client),
        plan.vip(0),
        port.max(1),
        80,
        Protocol::Tcp,
    )
}

/// Reference: the exact published semantics of [`FlowState`],
/// written as linear scans over a flat entry list.
struct Model {
    capacity: Option<usize>,
    timeout: SimDuration,
    /// `(flow, server, last_active, touch_seq)` — `touch_seq` is unique.
    entries: Vec<(FlowKey, Ipv6Addr, SimTime, u64)>,
    seq: u64,
    inserted: u64,
    expired: u64,
    evictions: EvictionBreakdown,
    peak: u64,
}

impl Model {
    fn new(capacity: usize, timeout: SimDuration) -> Self {
        Model {
            capacity: Some(capacity),
            timeout,
            entries: Vec::new(),
            seq: 0,
            inserted: 0,
            expired: 0,
            evictions: EvictionBreakdown::default(),
            peak: 0,
        }
    }

    fn learn(&mut self, flow: FlowKey, server: Ipv6Addr, now: SimTime) {
        self.inserted += 1;
        self.seq += 1;
        let seq = self.seq;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == flow) {
            e.1 = server;
            e.2 = now;
            e.3 = seq;
            return;
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                self.evict_lru(now);
            }
        }
        self.entries.push((flow, server, now, seq));
        self.peak = self.peak.max(self.entries.len() as u64);
    }

    fn evict_lru(&mut self, now: SimTime) {
        // Touch sequences are unique, so the minimum is unambiguous.
        let Some(pos) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.3)
            .map(|(i, _)| i)
        else {
            return;
        };
        let idle = now.duration_since(self.entries[pos].2);
        let cause = if idle > self.timeout {
            EvictionCause::Expired
        } else if idle * 2 >= self.timeout {
            EvictionCause::Idle
        } else {
            EvictionCause::Active
        };
        self.evictions.record(cause);
        self.entries.remove(pos);
    }

    fn lookup(&mut self, flow: &FlowKey, now: SimTime) -> Option<Ipv6Addr> {
        let e = self.entries.iter_mut().find(|e| e.0 == *flow)?;
        self.seq += 1;
        e.2 = now;
        e.3 = self.seq;
        Some(e.1)
    }

    fn peek(&self, flow: &FlowKey) -> Option<Ipv6Addr> {
        self.entries.iter().find(|e| e.0 == *flow).map(|e| e.1)
    }

    fn remove(&mut self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let pos = self.entries.iter().position(|e| e.0 == *flow)?;
        Some(self.entries.remove(pos).1)
    }

    fn expire_idle(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        let timeout = self.timeout;
        self.entries.retain(|e| now.duration_since(e.2) <= timeout);
        let removed = before - self.entries.len();
        self.expired += removed as u64;
        removed
    }
}

proptest! {
    /// The bounded table matches the reference model — entries,
    /// lookup/remove results and all lifetime counters — under an arbitrary
    /// interleaving of learn / lookup / peek / remove / expire with
    /// monotonically advancing time.
    ///
    /// The closing accounting identity pins the headline guarantee: every
    /// entry that ever left a bounded table is attributed to exactly one of
    /// expiry, a counted eviction cause, or an explicit remove.  Nothing is
    /// dropped silently — in particular, every capacity eviction of an
    /// active established entry shows up in `evictions.active`.
    #[test]
    fn bounded_table_matches_the_model(
        ops in prop::collection::vec(
            // (op selector, client, port, server, time advance in µs)
            (0u8..5, 0u32..8, 1u16..12, 0u32..12, 0u64..2_000_000),
            1..250,
        ),
        capacity in 2usize..12,
        timeout_s in 1u64..4,
    ) {
        let plan = AddressPlan::default();
        let timeout = SimDuration::from_secs(timeout_s);
        let mut model = Model::new(capacity, timeout);
        let mut table = FlowState::with_config(
            FlowStateConfig::new()
                .with_idle_timeout(timeout)
                .with_capacity(capacity),
        );
        let mut now = SimTime::ZERO;
        let mut fresh_learns = 0u64;
        let mut removed_ok = 0u64;
        for &(op, client, port, server, dt) in &ops {
            now += SimDuration::from_micros(dt);
            let f = flow(client, port);
            let addr = plan.server_addr(ServerId(server));
            match op {
                0 => {
                    if model.peek(&f).is_none() {
                        fresh_learns += 1;
                    }
                    model.learn(f, addr, now);
                    table.learn(f, addr, now);
                }
                1 => {
                    let expected = model.lookup(&f, now);
                    prop_assert_eq!(table.lookup(&f, now), expected);
                }
                2 => {
                    let expected = model.peek(&f);
                    prop_assert_eq!(table.peek(&f), expected);
                }
                3 => {
                    let expected = model.remove(&f);
                    if expected.is_some() {
                        removed_ok += 1;
                    }
                    prop_assert_eq!(table.remove(&f), expected);
                }
                _ => {
                    let expected = model.expire_idle(now);
                    prop_assert_eq!(table.expire_idle(now), expected);
                }
            }
            prop_assert_eq!(table.len(), model.entries.len());
        }
        for &(f, addr, _, _) in &model.entries {
            prop_assert_eq!(table.peek(&f), Some(addr));
        }
        let stats = table.stats();
        prop_assert_eq!(stats.inserted, model.inserted);
        prop_assert_eq!(stats.expired, model.expired);
        prop_assert_eq!(stats.evictions, model.evictions);
        prop_assert_eq!(stats.peak_occupancy, model.peak);
        prop_assert!(stats.peak_occupancy <= capacity as u64);
        // Every departure is accounted for: distinct insertions equal
        // survivors plus expiries plus per-cause evictions plus removes.
        prop_assert_eq!(
            fresh_learns,
            table.len() as u64
                + stats.expired
                + stats.evictions.total()
                + removed_ok
        );
    }
}

/// A run under eviction pressure — a table far smaller than its flow count,
/// with a periodic expiry sweep — replays byte-identically in every
/// execution mode, per-cause flow counters included.
///
/// Each case replays the full run five times, so this test drives the
/// generation loop itself with a reduced case count (the [`proptest!`] shim
/// always runs 256) while still sweeping load, seed, capacity and timeout.  The seed mixing matches the shim's, so cases reproduce the
/// same way.
#[test]
fn bounded_runs_replay_identically_across_exec_modes() {
    for case in 0..24u64 {
        let mut rng = TestRng::new(0x5352_4c42u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let rho = Strategy::generate(&(0.4f64..0.8), &mut rng);
        let seed = Strategy::generate(&(0u64..1_000), &mut rng);
        let capacity = Strategy::generate(&(8usize..48), &mut rng);
        let timeout_s = Strategy::generate(&(5.0f64..40.0), &mut rng);
        let spec = ExperimentSpec::poisson_paper(rho, PolicyKind::Static { threshold: 4 })
            .with_queries(120)
            .with_seed(seed)
            .with_flow_table(FlowTableSpec {
                idle_timeout_s: timeout_s,
                capacity: Some(capacity),
                sweep_interval_s: Some(timeout_s / 4.0),
            });
        let reference = Runner::new(spec.clone())
            .unwrap()
            .with_exec(ExecMode::SerialStep)
            .run();
        for exec in [
            ExecMode::Batched,
            ExecMode::Sharded { threads: 1 },
            ExecMode::Sharded { threads: 2 },
            ExecMode::Sharded { threads: 4 },
        ] {
            let outcome = Runner::new(spec.clone()).unwrap().with_exec(exec).run();
            assert_eq!(
                outcome.collector.records(),
                reference.collector.records(),
                "case {case}: {exec:?} diverged from the serial loop"
            );
            assert_eq!(outcome.lb_stats, reference.lb_stats, "case {case}");
            assert_eq!(outcome.per_lb_stats, reference.per_lb_stats, "case {case}");
            assert_eq!(
                outcome.events_processed, reference.events_processed,
                "case {case}"
            );
        }
    }
}

/// The expiry sweep goes dormant once the table is empty, so a run with a
/// sweep configured ends when its last flow has expired instead of spinning
/// idle timers until the drain budget is spent: the committed bounded spec
/// (scaled down) stops within one idle timeout plus one sweep interval of
/// its last response, with identical results in every execution mode.
#[test]
fn committed_bounded_spec_ends_when_its_last_flow_expires() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/bounded_flow_table.json"
    );
    let spec: ExperimentSpec =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let spec = spec.with_queries(2_000);
    let table = spec.cluster.flow_table;
    let slack_s = table.idle_timeout_s + table.sweep_interval_s.unwrap();

    let reference = Runner::new(spec.clone())
        .unwrap()
        .with_exec(ExecMode::SerialStep)
        .run();
    let last_response_s = reference
        .collector
        .records()
        .iter()
        .filter_map(|r| Some(r.sent_at_seconds + r.response_time_ms? / 1e3))
        .fold(0.0, f64::max);
    assert!(last_response_s > 0.0);
    assert!(
        reference.duration_seconds <= last_response_s + slack_s,
        "run lasted {} s, last response at {last_response_s} s",
        reference.duration_seconds
    );
    assert!(
        reference.events_processed < 60 * 2_000,
        "{} events for 2000 requests: the sweep kept the run alive",
        reference.events_processed
    );
    assert!(
        reference.lb_stats.flow_expired > 0,
        "the sweep still expires"
    );

    for exec in [
        ExecMode::Batched,
        ExecMode::Sharded { threads: 2 },
        ExecMode::Sharded { threads: 4 },
    ] {
        let outcome = Runner::new(spec.clone())
            .unwrap()
            .with_exec(exec)
            .with_pool_policy(PoolPolicy::Force)
            .run();
        assert_eq!(outcome.collector.records(), reference.collector.records());
        assert_eq!(outcome.lb_stats, reference.lb_stats, "{exec:?}");
        assert_eq!(outcome.events_processed, reference.events_processed);
        assert_eq!(outcome.duration_seconds, reference.duration_seconds);
    }
}

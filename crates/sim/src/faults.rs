//! Fault injection at the delivery path: lossy links, deterministic
//! one-shot drops, link down/up windows and per-link bounded queues.
//!
//! A [`FaultConfig`] is plain serde data describing *what can go wrong* on
//! the wire; it is installed with
//! [`Network::set_faults`](crate::Network::set_faults) before the run
//! starts and consulted once per message delivery.  A message judged
//! faulty is silently consumed (the network lost it) and counted by cause
//! in [`SimStats`](crate::SimStats); timers and self-addressed messages are
//! never faulted.
//!
//! # Determinism across execution modes
//!
//! Every decision is independent of thread interleaving:
//!
//! * **Probabilistic loss** is a pure hash of the event's globally unique
//!   [`EventKey`] (plus the run seed) — the same coin lands the same way on
//!   any shard, in any order, and draws *nothing* from node RNG streams, so
//!   a zero-loss run is byte-identical to a run with no fault layer at all.
//! * **Stateful faults** (one-shot drops, bounded queues) keep their state
//!   per directed link.  All deliveries over a link happen on the core that
//!   owns the destination node and are processed in global key order, so
//!   the per-link state evolves identically under any shard count.  For
//!   this reason stateful rules require *concrete* endpoints, while the
//!   stateless rules accept wildcards.
//! * **Down windows** are pure functions of the delivery time.
//!
//! The zero-fault path costs a single branch per delivery and the warm
//! fault path performs no allocation (all rule tables are built at install
//! time), which `crates/sim/tests/alloc_free_sim.rs` pins.

use serde::{Deserialize, Serialize};

use crate::event::EventKey;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Matches a directed link `from → to`; `None` endpoints are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LinkMatch {
    /// Sending node (`None` matches any sender).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub from: Option<NodeId>,
    /// Receiving node (`None` matches any receiver).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub to: Option<NodeId>,
}

impl LinkMatch {
    /// Whether the directed link `from → to` is matched.
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// Independent per-message loss on matching links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossRule {
    /// Which links the rule applies to.
    pub link: LinkMatch,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// Deterministically drops the `packet`-th message (1-based) delivered over
/// one concrete link, once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneShotDrop {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// 1-based index of the doomed message among the link's deliveries.
    pub packet: u64,
}

/// Matching links drop every message inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DownWindow {
    /// Which links go down.
    pub link: LinkMatch,
    /// First instant of the outage (inclusive).
    pub down_from: SimTime,
    /// End of the outage (exclusive; messages delivered at this instant go
    /// through).
    pub down_until: SimTime,
}

/// A bounded FIFO on one concrete link: messages arriving while `capacity`
/// are already queued are tail-dropped.
///
/// The queue is a fluid model evaluated at each arrival — occupancy drains
/// at one message per `service` of elapsed simulated time — so it never
/// reschedules events or changes delivery latencies (event keys, and with
/// them the conservative-window protocol, stay untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueRule {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Maximum number of queued messages before tail drop.
    pub capacity: u64,
    /// Time to drain one queued message.
    pub service: SimDuration,
}

/// A complete fault description for one run.
///
/// The default (empty) config injects nothing; [`FaultConfig::is_empty`]
/// lets spec layers skip serialising it so committed files stay
/// byte-stable.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probabilistic per-link loss rules (first matching rule wins).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub loss: Vec<LossRule>,
    /// Deterministic one-shot drops.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub drops: Vec<OneShotDrop>,
    /// Link down/up windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub down: Vec<DownWindow>,
    /// Per-link bounded queues.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub queues: Vec<QueueRule>,
}

impl FaultConfig {
    /// Whether the config injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.loss.is_empty()
            && self.drops.is_empty()
            && self.down.is_empty()
            && self.queues.is_empty()
    }

    /// Checks the config's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid parameter: a loss
    /// probability outside `[0, 1]`, a zero one-shot packet index, an
    /// inverted down window, or a queue without capacity or service time.
    pub fn validate(&self) -> Result<(), String> {
        for rule in &self.loss {
            if !rule.probability.is_finite() || !(0.0..=1.0).contains(&rule.probability) {
                return Err(format!(
                    "loss probability {} must be within [0, 1]",
                    rule.probability
                ));
            }
        }
        for drop in &self.drops {
            if drop.packet == 0 {
                return Err("one-shot drop indices are 1-based; 0 names no packet".into());
            }
        }
        for window in &self.down {
            if window.down_until <= window.down_from {
                return Err(format!(
                    "down window [{}, {}) is empty or inverted",
                    window.down_from, window.down_until
                ));
            }
        }
        for queue in &self.queues {
            if queue.capacity == 0 {
                return Err("a bounded queue needs capacity for at least one message".into());
            }
            if queue.service.is_zero() {
                return Err("a bounded queue needs a positive service time".into());
            }
        }
        Ok(())
    }
}

/// Why the fault layer consumed a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DropCause {
    /// An injected drop: a probabilistic loss rule fired or a one-shot drop
    /// named this delivery.
    Injected,
    /// The link's bounded queue was full (tail drop).
    Queue,
    /// The link was inside a down window.
    LinkDown,
}

/// Mutable per-link state for the stateful rules, keyed by concrete link.
#[derive(Debug)]
struct LinkState {
    from: NodeId,
    to: NodeId,
    /// Messages seen on this link so far (including dropped ones).
    seen: u64,
    /// Pending one-shot drop indices, sorted descending so the next one to
    /// fire is popped off the back.
    drops: Vec<u64>,
    queue: Option<QueueState>,
}

/// Fluid bounded-queue occupancy, advanced lazily at each arrival.
#[derive(Debug)]
struct QueueState {
    capacity: u64,
    service: SimDuration,
    level: u64,
    /// The instant the drain accounting has been advanced to.
    drained_until: SimTime,
}

impl QueueState {
    /// Advances the drain clock to `now` and admits or tail-drops one
    /// arriving message.
    fn admit(&mut self, now: SimTime) -> bool {
        let elapsed = now.duration_since(self.drained_until);
        let drained = elapsed.as_nanos() / self.service.as_nanos();
        if drained >= self.level {
            self.level = 0;
            // An idle queue's next service interval starts at the arrival.
            self.drained_until = now;
        } else {
            self.level -= drained;
            self.drained_until += self.service * drained;
        }
        if self.level >= self.capacity {
            return false;
        }
        self.level += 1;
        true
    }
}

/// The runtime form of a [`FaultConfig`], held by each engine core and
/// consulted once per message delivery.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Run-seed-derived salt for the loss hash, so distinct seeds lose
    /// distinct packets.
    salt: u64,
    loss: Vec<LossRule>,
    down: Vec<DownWindow>,
    links: Vec<LinkState>,
}

/// One round of SplitMix64-style finalisation (the same mixing family the
/// RNG forking uses).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultState {
    /// Compiles a config (assumed validated) against the run seed.
    pub(crate) fn new(config: &FaultConfig, seed: u64) -> Self {
        let mut links: Vec<LinkState> = Vec::new();
        let link_state = |from: NodeId, to: NodeId, links: &mut Vec<LinkState>| -> usize {
            if let Some(i) = links.iter().position(|l| l.from == from && l.to == to) {
                return i;
            }
            links.push(LinkState {
                from,
                to,
                seen: 0,
                drops: Vec::new(),
                queue: None,
            });
            links.len() - 1
        };
        for drop in &config.drops {
            let i = link_state(drop.from, drop.to, &mut links);
            links[i].drops.push(drop.packet);
        }
        for state in &mut links {
            state.drops.sort_unstable_by(|a, b| b.cmp(a));
            state.drops.dedup();
        }
        for queue in &config.queues {
            let i = link_state(queue.from, queue.to, &mut links);
            links[i].queue = Some(QueueState {
                capacity: queue.capacity,
                service: queue.service,
                level: 0,
                drained_until: SimTime::ZERO,
            });
        }
        FaultState {
            salt: mix(seed ^ 0x9e37_79b9_7f4a_7c15),
            loss: config.loss.clone(),
            down: config.down.clone(),
            links,
        }
    }

    /// The interleaving-independent loss coin for one delivery: a pure hash
    /// of the (globally unique) event key, the receiver and the run seed,
    /// mapped to `[0, 1)`.
    fn coin(&self, key: EventKey, to: NodeId) -> f64 {
        let mut h = self.salt;
        for v in [key.time.as_nanos(), key.src.0 as u64, key.seq, to.0 as u64] {
            h = mix(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        // 53 mantissa bits → uniform in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Judges one message delivery over the link `key.src → to` at time
    /// `now`; `Some(cause)` means the network lost the message.
    pub(crate) fn judge(&mut self, key: EventKey, to: NodeId, now: SimTime) -> Option<DropCause> {
        let from = key.src;
        if from == to {
            return None; // loopback never traverses a faulty link
        }
        for window in &self.down {
            if window.link.matches(from, to) && now >= window.down_from && now < window.down_until {
                return Some(DropCause::LinkDown);
            }
        }
        // Per-link mutable state: the delivery counter advances for every
        // message that reaches this point, so one-shot indices count the
        // link's traffic as the sender emitted it.
        if let Some(i) = self.links.iter().position(|l| l.from == from && l.to == to) {
            let state = &mut self.links[i];
            state.seen += 1;
            if state.drops.last() == Some(&state.seen) {
                state.drops.pop();
                return Some(DropCause::Injected);
            }
        }
        if !self.loss.is_empty() {
            if let Some(rule) = self.loss.iter().find(|r| r.link.matches(from, to)) {
                if self.coin(key, to) < rule.probability {
                    return Some(DropCause::Injected);
                }
            }
        }
        if let Some(i) = self.links.iter().position(|l| l.from == from && l.to == to) {
            if let Some(queue) = self.links[i].queue.as_mut() {
                if !queue.admit(now) {
                    return Some(DropCause::Queue);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(nanos: u64, src: usize, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_nanos(nanos),
            src: NodeId(src),
            seq,
        }
    }

    #[test]
    fn empty_config_is_empty_and_valid() {
        let config = FaultConfig::default();
        assert!(config.is_empty());
        config.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut config = FaultConfig::default();
        config.loss.push(LossRule {
            link: LinkMatch::default(),
            probability: 1.5,
        });
        assert!(config.validate().is_err());

        let mut config = FaultConfig::default();
        config.drops.push(OneShotDrop {
            from: NodeId(0),
            to: NodeId(1),
            packet: 0,
        });
        assert!(config.validate().is_err());

        let mut config = FaultConfig::default();
        config.down.push(DownWindow {
            link: LinkMatch::default(),
            down_from: SimTime::from_nanos(5),
            down_until: SimTime::from_nanos(5),
        });
        assert!(config.validate().is_err());

        let mut config = FaultConfig::default();
        config.queues.push(QueueRule {
            from: NodeId(0),
            to: NodeId(1),
            capacity: 0,
            service: SimDuration::from_micros(1),
        });
        assert!(config.validate().is_err());
    }

    #[test]
    fn loss_coin_is_a_pure_function_of_the_key() {
        let config = FaultConfig {
            loss: vec![LossRule {
                link: LinkMatch::default(),
                probability: 0.5,
            }],
            ..FaultConfig::default()
        };
        let mut a = FaultState::new(&config, 7);
        let mut b = FaultState::new(&config, 7);
        let mut dropped = 0u32;
        for seq in 0..1_000u64 {
            let k = key(1_000 + seq * 50, 2, seq);
            let va = a.judge(k, NodeId(3), k.time);
            let vb = b.judge(k, NodeId(3), k.time);
            assert_eq!(va, vb, "the coin must not depend on call history");
            if va.is_some() {
                dropped += 1;
            }
        }
        // Binomial(1000, 0.5): anything outside [400, 600] is ~2e-10.
        assert!((400..=600).contains(&dropped), "{dropped} of 1000 dropped");

        // A different seed loses a different packet set.
        let mut c = FaultState::new(&config, 8);
        let diverges = (0..1_000u64).any(|seq| {
            let k = key(1_000 + seq * 50, 2, seq);
            c.judge(k, NodeId(3), k.time) != b.judge(k, NodeId(3), k.time)
        });
        assert!(diverges, "distinct seeds must lose distinct packets");
    }

    #[test]
    fn loss_extremes_always_or_never_drop() {
        for (p, expect_drop) in [(0.0, false), (1.0, true)] {
            let config = FaultConfig {
                loss: vec![LossRule {
                    link: LinkMatch::default(),
                    probability: p,
                }],
                ..FaultConfig::default()
            };
            let mut state = FaultState::new(&config, 1);
            for seq in 0..100u64 {
                let k = key(seq * 10, 0, seq);
                assert_eq!(
                    state.judge(k, NodeId(1), k.time).is_some(),
                    expect_drop,
                    "p = {p}"
                );
            }
        }
    }

    #[test]
    fn loss_rules_respect_link_matchers_and_loopback() {
        let config = FaultConfig {
            loss: vec![LossRule {
                link: LinkMatch {
                    from: Some(NodeId(0)),
                    to: Some(NodeId(1)),
                },
                probability: 1.0,
            }],
            ..FaultConfig::default()
        };
        let mut state = FaultState::new(&config, 1);
        let k = key(100, 0, 0);
        assert!(state.judge(k, NodeId(1), k.time).is_some());
        assert!(state.judge(k, NodeId(2), k.time).is_none(), "other link");
        let self_k = key(100, 1, 0);
        assert!(
            state.judge(self_k, NodeId(1), self_k.time).is_none(),
            "loopback is exempt even under p = 1"
        );
    }

    #[test]
    fn one_shot_drop_fires_exactly_once_at_its_index() {
        let config = FaultConfig {
            drops: vec![OneShotDrop {
                from: NodeId(0),
                to: NodeId(1),
                packet: 3,
            }],
            ..FaultConfig::default()
        };
        let mut state = FaultState::new(&config, 1);
        let verdicts: Vec<bool> = (0..6u64)
            .map(|seq| {
                let k = key(100 + seq * 10, 0, seq);
                state.judge(k, NodeId(1), k.time).is_some()
            })
            .collect();
        assert_eq!(verdicts, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn down_window_is_half_open() {
        let config = FaultConfig {
            down: vec![DownWindow {
                link: LinkMatch::default(),
                down_from: SimTime::from_nanos(100),
                down_until: SimTime::from_nanos(200),
            }],
            ..FaultConfig::default()
        };
        let mut state = FaultState::new(&config, 1);
        for (nanos, down) in [(99, false), (100, true), (199, true), (200, false)] {
            let k = key(nanos, 0, nanos);
            assert_eq!(
                state.judge(k, NodeId(1), k.time),
                down.then_some(DropCause::LinkDown),
                "t = {nanos}"
            );
        }
    }

    #[test]
    fn bounded_queue_tail_drops_and_drains() {
        let config = FaultConfig {
            queues: vec![QueueRule {
                from: NodeId(0),
                to: NodeId(1),
                capacity: 2,
                service: SimDuration::from_nanos(100),
            }],
            ..FaultConfig::default()
        };
        let mut state = FaultState::new(&config, 1);
        let mut seq = 0u64;
        let mut judge = |state: &mut FaultState, nanos: u64| {
            let k = key(nanos, 0, seq);
            seq += 1;
            state.judge(k, NodeId(1), k.time)
        };
        // Three back-to-back arrivals: the third finds the queue full.
        assert_eq!(judge(&mut state, 10), None);
        assert_eq!(judge(&mut state, 10), None);
        assert_eq!(judge(&mut state, 10), Some(DropCause::Queue));
        // After one service interval a slot has drained.
        assert_eq!(judge(&mut state, 115), None);
        assert_eq!(judge(&mut state, 116), Some(DropCause::Queue));
        // A long idle period empties the queue entirely.
        assert_eq!(judge(&mut state, 10_000), None);
        assert_eq!(judge(&mut state, 10_000), None);
    }

    #[test]
    fn config_serde_roundtrip_skips_empty_sections() {
        let config = FaultConfig {
            loss: vec![LossRule {
                link: LinkMatch {
                    from: None,
                    to: Some(NodeId(4)),
                },
                probability: 0.01,
            }],
            ..FaultConfig::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        assert!(
            !json.contains("drops"),
            "empty sections are skipped: {json}"
        );
        assert!(!json.contains("\"from\""), "wildcard endpoints are skipped");
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}

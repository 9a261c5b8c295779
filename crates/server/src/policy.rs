//! Connection acceptance policies (paper Section III).
//!
//! A policy decides, for a hunted connection reaching a *non-final*
//! candidate server, whether the local application instance accepts the
//! connection or passes it on to the next candidate in the SR list.  The
//! final candidate always accepts (satisfiability guarantee), so policies
//! are never consulted for it.
//!
//! * [`StaticThreshold`] — the paper's `SRc` (Algorithm 1): accept iff fewer
//!   than `c` worker threads are busy.
//! * [`DynamicThreshold`] — the paper's `SRdyn` (Algorithm 2): adapt `c` to
//!   keep the acceptance ratio near 1/2 over a sliding window.
//! * [`AlwaysAccept`] / [`NeverAccept`] — the degenerate policies `c = n+1`
//!   and `c = 0`, both equivalent to random load balancing.

use serde::{Deserialize, Serialize};

use crate::worker::Scoreboard;

/// The outcome of a policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// srlb-lint: allow(unused-pub) -- reached through srlb_server::AcceptPolicy::decide
pub enum AcceptDecision {
    /// Deliver the connection to the local application instance
    /// (`SegmentsLeft ← 0`).
    Accept,
    /// Forward the connection to the next candidate in the SR list
    /// (`SegmentsLeft ← SegmentsLeft − 1`).
    PassOn,
}

impl AcceptDecision {
    /// Returns `true` for [`AcceptDecision::Accept`].
    pub fn is_accept(self) -> bool {
        self == AcceptDecision::Accept
    }
}

/// A connection acceptance policy, consulted once per hunted connection that
/// reaches this server as a non-final candidate.
pub trait AcceptPolicy: std::fmt::Debug + Send {
    /// Decides whether to accept given the current application state.
    fn decide(&mut self, scoreboard: Scoreboard) -> AcceptDecision;

    /// The current acceptance threshold, if the policy has one (used by the
    /// dynamic-policy ablation benches and tests).
    fn current_threshold(&self) -> Option<usize> {
        None
    }

    /// A short name for reports (e.g. `"SR4"`, `"SRdyn"`).
    fn name(&self) -> String;
}

/// Always accept: equivalent to `SRc` with `c = n + 1`; every connection is
/// served by the first candidate, reducing to random load balancing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlwaysAccept;

impl AcceptPolicy for AlwaysAccept {
    fn decide(&mut self, _scoreboard: Scoreboard) -> AcceptDecision {
        AcceptDecision::Accept
    }
    fn name(&self) -> String {
        "always-accept".to_string()
    }
}

/// Never accept: equivalent to `SRc` with `c = 0`; every connection is served
/// by the final candidate, also reducing to random load balancing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeverAccept;

impl AcceptPolicy for NeverAccept {
    fn decide(&mut self, _scoreboard: Scoreboard) -> AcceptDecision {
        AcceptDecision::PassOn
    }
    fn name(&self) -> String {
        "never-accept".to_string()
    }
}

/// The paper's static policy `SRc` (Algorithm 1): accept iff fewer than `c`
/// worker threads are busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticThreshold {
    /// The busy-thread threshold `c`.
    pub threshold: usize,
}

impl StaticThreshold {
    /// Creates the policy `SRc` with threshold `c`.
    pub fn new(threshold: usize) -> Self {
        StaticThreshold { threshold }
    }
}

impl AcceptPolicy for StaticThreshold {
    fn decide(&mut self, scoreboard: Scoreboard) -> AcceptDecision {
        if scoreboard.busy < self.threshold {
            AcceptDecision::Accept
        } else {
            AcceptDecision::PassOn
        }
    }

    fn current_threshold(&self) -> Option<usize> {
        Some(self.threshold)
    }

    fn name(&self) -> String {
        format!("SR{}", self.threshold)
    }
}

/// The paper's dynamic policy `SRdyn` (Algorithm 2).
///
/// Decisions are counted over a window of `window_size` consultations; at
/// the end of each window, if the acceptance ratio fell below `low_ratio`
/// the threshold `c` is incremented (up to the number of workers), and if it
/// rose above `high_ratio` the threshold is decremented (down to 0).  The
/// paper uses a window of 50 with thresholds 0.4 and 0.6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicThreshold {
    threshold: usize,
    window_size: u32,
    low_ratio: f64,
    high_ratio: f64,
    attempts: u32,
    accepted: u32,
}

impl DynamicThreshold {
    /// Creates the paper's `SRdyn`: initial threshold 1, window 50,
    /// adaptation band `[0.4, 0.6]`.
    pub fn paper_default() -> Self {
        Self::new(1, 50, 0.4, 0.6)
    }

    /// Creates a dynamic policy with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero or the ratios do not satisfy
    /// `0 <= low <= high <= 1`.
    pub fn new(
        initial_threshold: usize,
        window_size: u32,
        low_ratio: f64,
        high_ratio: f64,
    ) -> Self {
        assert!(window_size > 0, "window size must be positive");
        assert!(
            (0.0..=1.0).contains(&low_ratio)
                && (0.0..=1.0).contains(&high_ratio)
                && low_ratio <= high_ratio,
            "adaptation ratios must satisfy 0 <= low <= high <= 1"
        );
        DynamicThreshold {
            threshold: initial_threshold,
            window_size,
            low_ratio,
            high_ratio,
            attempts: 0,
            accepted: 0,
        }
    }
}

impl AcceptPolicy for DynamicThreshold {
    fn decide(&mut self, scoreboard: Scoreboard) -> AcceptDecision {
        // End-of-window adaptation (Algorithm 2 adapts when the counter
        // reaches the window size, before making the current decision).
        self.attempts += 1;
        if self.attempts == self.window_size {
            let ratio = self.accepted as f64 / self.window_size as f64;
            if ratio < self.low_ratio && self.threshold < scoreboard.total {
                self.threshold += 1;
            } else if ratio > self.high_ratio && self.threshold > 0 {
                self.threshold -= 1;
            }
            self.attempts = 0;
            self.accepted = 0;
        }

        if scoreboard.busy < self.threshold {
            self.accepted += 1;
            AcceptDecision::Accept
        } else {
            AcceptDecision::PassOn
        }
    }

    fn current_threshold(&self) -> Option<usize> {
        Some(self.threshold)
    }

    fn name(&self) -> String {
        "SRdyn".to_string()
    }
}

/// Serialisable policy configuration, turned into a boxed [`AcceptPolicy`]
/// per server by the experiment driver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// Always accept at the first candidate.
    AlwaysAccept,
    /// Never accept at a non-final candidate.
    NeverAccept,
    /// The static `SRc` policy with the given threshold.
    Static {
        /// Busy-thread threshold `c`.
        threshold: usize,
    },
    /// The dynamic `SRdyn` policy.
    Dynamic {
        /// Initial threshold.
        initial_threshold: usize,
        /// Adaptation window size (number of decisions).
        window_size: u32,
        /// Lower acceptance-ratio bound.
        low_ratio: f64,
        /// Upper acceptance-ratio bound.
        high_ratio: f64,
    },
}

impl PolicyConfig {
    /// The paper's `SRdyn` parameters.
    pub fn paper_dynamic() -> Self {
        PolicyConfig::Dynamic {
            initial_threshold: 1,
            window_size: 50,
            low_ratio: 0.4,
            high_ratio: 0.6,
        }
    }

    /// Builds a fresh policy instance from this configuration.
    pub fn build(&self) -> Box<dyn AcceptPolicy> {
        match *self {
            PolicyConfig::AlwaysAccept => Box::new(AlwaysAccept),
            PolicyConfig::NeverAccept => Box::new(NeverAccept),
            PolicyConfig::Static { threshold } => Box::new(StaticThreshold::new(threshold)),
            PolicyConfig::Dynamic {
                initial_threshold,
                window_size,
                low_ratio,
                high_ratio,
            } => Box::new(DynamicThreshold::new(
                initial_threshold,
                window_size,
                low_ratio,
                high_ratio,
            )),
        }
    }

    /// A short name for reports (`"SR4"`, `"SRdyn"`, …).
    pub fn name(&self) -> String {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb(busy: usize, total: usize) -> Scoreboard {
        Scoreboard { busy, total }
    }

    #[test]
    fn static_policy_matches_algorithm1() {
        let mut p = StaticThreshold::new(4);
        assert!(p.decide(sb(0, 32)).is_accept());
        assert!(p.decide(sb(3, 32)).is_accept());
        assert_eq!(p.decide(sb(4, 32)), AcceptDecision::PassOn);
        assert_eq!(p.decide(sb(31, 32)), AcceptDecision::PassOn);
        assert_eq!(p.current_threshold(), Some(4));
        assert_eq!(p.name(), "SR4");
    }

    #[test]
    fn degenerate_static_policies_match_always_and_never() {
        // c = 0: never accept at the first candidate.
        let mut zero = StaticThreshold::new(0);
        assert_eq!(zero.decide(sb(0, 32)), AcceptDecision::PassOn);
        // c = n + 1: always accept.
        let mut all = StaticThreshold::new(33);
        assert!(all.decide(sb(32, 32)).is_accept());

        let mut always = AlwaysAccept;
        let mut never = NeverAccept;
        assert!(always.decide(sb(32, 32)).is_accept());
        assert_eq!(never.decide(sb(0, 32)), AcceptDecision::PassOn);
        assert_eq!(always.current_threshold(), None);
        assert_eq!(never.name(), "never-accept");
        assert_eq!(always.name(), "always-accept");
    }

    #[test]
    fn dynamic_policy_raises_threshold_under_low_acceptance() {
        // Busy count always high: nothing is accepted, so at each window end
        // the threshold should rise by one (until it reaches total workers).
        let mut p = DynamicThreshold::paper_default();
        assert_eq!(p.current_threshold(), Some(1));
        for _ in 0..50 {
            p.decide(sb(32, 32));
        }
        assert_eq!(p.current_threshold(), Some(2));
        for _ in 0..(50 * 40) {
            p.decide(sb(32, 32));
        }
        assert_eq!(p.current_threshold(), Some(32), "threshold is capped at n");
    }

    #[test]
    fn dynamic_policy_lowers_threshold_under_high_acceptance() {
        let mut p = DynamicThreshold::new(5, 50, 0.4, 0.6);
        // Idle server: everything is accepted while the threshold is above
        // zero, so the threshold falls.  Once it reaches 0 the acceptance
        // ratio collapses and the policy pushes it back to 1, so in steady
        // state it oscillates around the floor (this is the behaviour the
        // paper describes: c = 0 degenerates to second-candidate-only).
        let mut reached_zero = false;
        for _ in 0..(50 * 10) {
            p.decide(sb(0, 32));
            if p.current_threshold() == Some(0) {
                reached_zero = true;
            }
        }
        assert!(reached_zero, "threshold should reach the floor of 0");
        assert!(p.current_threshold().unwrap() <= 1, "stays near the floor");
    }

    #[test]
    fn dynamic_policy_stays_put_in_band() {
        // Alternate accept / pass-on so the ratio is exactly 0.5.
        let mut p = DynamicThreshold::new(4, 50, 0.4, 0.6);
        for i in 0..500 {
            let busy = if i % 2 == 0 { 0 } else { 32 };
            p.decide(sb(busy, 32));
        }
        assert_eq!(p.current_threshold(), Some(4));
    }

    #[test]
    fn dynamic_policy_window_resets_counters() {
        let mut p = DynamicThreshold::new(1, 10, 0.4, 0.6);
        // First window: all pass-on -> threshold 2.
        for _ in 0..10 {
            p.decide(sb(32, 32));
        }
        assert_eq!(p.current_threshold(), Some(2));
        // Second window: all accepted -> threshold back to 1.
        for _ in 0..10 {
            p.decide(sb(0, 32));
        }
        assert_eq!(p.current_threshold(), Some(1));
    }

    #[test]
    fn config_builds_matching_policies() {
        assert_eq!(PolicyConfig::Static { threshold: 8 }.name(), "SR8");
        assert_eq!(PolicyConfig::paper_dynamic().name(), "SRdyn");
        assert_eq!(PolicyConfig::AlwaysAccept.name(), "always-accept");
        assert_eq!(PolicyConfig::NeverAccept.name(), "never-accept");
        let mut built = PolicyConfig::Static { threshold: 2 }.build();
        assert!(built.decide(sb(1, 32)).is_accept());
        assert!(!built.decide(sb(2, 32)).is_accept());
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_panics() {
        DynamicThreshold::new(1, 0, 0.4, 0.6);
    }

    #[test]
    #[should_panic(expected = "ratios")]
    fn inverted_ratios_panic() {
        DynamicThreshold::new(1, 10, 0.7, 0.3);
    }
}

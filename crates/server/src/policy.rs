//! Connection acceptance (paper Section III).
//!
//! A server consults its acceptance state for a hunted connection reaching
//! it as a *non-final* candidate: accept locally, or pass the connection on
//! to the next candidate in the SR list.  The final candidate always
//! accepts (satisfiability guarantee), so it never consults it.
//!
//! * `SRc` (Algorithm 1): accept iff fewer than `c` worker threads are busy.
//! * `SRdyn` (Algorithm 2): adapt `c` to keep the acceptance ratio near 1/2
//!   over windows of decisions.
//! * always / never accept: the degenerate thresholds `c = n + 1` and
//!   `c = 0`, both equivalent to random load balancing.

use serde::{Deserialize, Serialize};

/// Serialisable acceptance policy of one server.
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
    /// The dynamic `SRdyn` policy: decisions are counted over windows of
    /// `window_size` consultations; at the end of each window the threshold
    /// rises by one (up to the number of workers) if the acceptance ratio
    /// fell below `low_ratio`, and falls by one (down to 0) if it rose above
    /// `high_ratio`.
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
    /// The paper's `SRdyn` parameters: initial threshold 1, window 50,
    /// adaptation band `[0.4, 0.6]`.
    pub fn paper_dynamic() -> Self {
        PolicyConfig::Dynamic {
            initial_threshold: 1,
            window_size: 50,
            low_ratio: 0.4,
            high_ratio: 0.6,
        }
    }

    /// A short name for reports (`"SR4"`, `"SRdyn"`, …).
    pub fn name(&self) -> String {
        match self {
            PolicyConfig::AlwaysAccept => "always-accept".to_string(),
            PolicyConfig::NeverAccept => "never-accept".to_string(),
            PolicyConfig::Static { threshold } => format!("SR{threshold}"),
            PolicyConfig::Dynamic { .. } => "SRdyn".to_string(),
        }
    }
}

/// A server's acceptance state: its policy, plus SRdyn's current threshold
/// and the current window's counts.
#[derive(Debug)]
pub(crate) struct Acceptance {
    policy: PolicyConfig,
    threshold: usize,
    attempts: u32,
    accepted: u32,
}

impl Acceptance {
    pub(crate) fn new(policy: PolicyConfig) -> Self {
        let threshold = match policy {
            PolicyConfig::Static { threshold } => threshold,
            PolicyConfig::Dynamic {
                initial_threshold, ..
            } => initial_threshold,
            PolicyConfig::AlwaysAccept | PolicyConfig::NeverAccept => 0,
        };
        Acceptance {
            policy,
            threshold,
            attempts: 0,
            accepted: 0,
        }
    }

    /// Decides one hunted connection with `busy` of `total` workers busy.
    pub(crate) fn accepts(&mut self, busy: usize, total: usize) -> bool {
        match self.policy {
            PolicyConfig::AlwaysAccept => true,
            PolicyConfig::NeverAccept => false,
            PolicyConfig::Static { .. } => busy < self.threshold,
            PolicyConfig::Dynamic {
                window_size,
                low_ratio,
                high_ratio,
                ..
            } => {
                // Algorithm 2: count the attempt, adapt when the counter
                // reaches the window size, then decide.
                self.attempts += 1;
                if self.attempts == window_size {
                    let ratio = self.accepted as f64 / window_size as f64;
                    if ratio < low_ratio && self.threshold < total {
                        self.threshold += 1;
                    } else if ratio > high_ratio && self.threshold > 0 {
                        self.threshold -= 1;
                    }
                    self.attempts = 0;
                    self.accepted = 0;
                }
                let accept = busy < self.threshold;
                self.accepted += u32::from(accept);
                accept
            }
        }
    }

    /// The threshold `c` in force, for the policies that have one.
    #[cfg(test)]
    pub(crate) fn current_threshold(&self) -> Option<usize> {
        match self.policy {
            PolicyConfig::Static { .. } | PolicyConfig::Dynamic { .. } => Some(self.threshold),
            PolicyConfig::AlwaysAccept | PolicyConfig::NeverAccept => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dynamic(initial_threshold: usize, window_size: u32) -> Acceptance {
        Acceptance::new(PolicyConfig::Dynamic {
            initial_threshold,
            window_size,
            low_ratio: 0.4,
            high_ratio: 0.6,
        })
    }

    #[test]
    fn static_policy_matches_algorithm1() {
        let mut p = Acceptance::new(PolicyConfig::Static { threshold: 4 });
        assert!(p.accepts(0, 32));
        assert!(p.accepts(3, 32));
        assert!(!p.accepts(4, 32));
        assert!(!p.accepts(31, 32));
        assert_eq!(p.current_threshold(), Some(4));
    }

    #[test]
    fn degenerate_static_policies_match_always_and_never() {
        // c = 0: never accept at the first candidate.
        assert!(!Acceptance::new(PolicyConfig::Static { threshold: 0 }).accepts(0, 32));
        // c = n + 1: always accept.
        assert!(Acceptance::new(PolicyConfig::Static { threshold: 33 }).accepts(32, 32));

        let mut always = Acceptance::new(PolicyConfig::AlwaysAccept);
        let mut never = Acceptance::new(PolicyConfig::NeverAccept);
        assert!(always.accepts(32, 32));
        assert!(!never.accepts(0, 32));
        assert_eq!(always.current_threshold(), None);
        assert_eq!(never.current_threshold(), None);
    }

    #[test]
    fn names_match_the_reports() {
        assert_eq!(PolicyConfig::Static { threshold: 8 }.name(), "SR8");
        assert_eq!(PolicyConfig::paper_dynamic().name(), "SRdyn");
        assert_eq!(PolicyConfig::AlwaysAccept.name(), "always-accept");
        assert_eq!(PolicyConfig::NeverAccept.name(), "never-accept");
    }

    #[test]
    fn dynamic_policy_raises_threshold_under_low_acceptance() {
        // Busy count always high: nothing is accepted, so at each window end
        // the threshold should rise by one (until it reaches total workers).
        let mut p = Acceptance::new(PolicyConfig::paper_dynamic());
        assert_eq!(p.current_threshold(), Some(1));
        for _ in 0..50 {
            p.accepts(32, 32);
        }
        assert_eq!(p.current_threshold(), Some(2));
        for _ in 0..(50 * 40) {
            p.accepts(32, 32);
        }
        assert_eq!(p.current_threshold(), Some(32), "threshold is capped at n");
    }

    #[test]
    fn dynamic_policy_lowers_threshold_under_high_acceptance() {
        let mut p = dynamic(5, 50);
        // Idle server: everything is accepted while the threshold is above
        // zero, so the threshold falls.  Once it reaches 0 the acceptance
        // ratio collapses and the policy pushes it back to 1, so in steady
        // state it oscillates around the floor (this is the behaviour the
        // paper describes: c = 0 degenerates to second-candidate-only).
        let mut reached_zero = false;
        for _ in 0..(50 * 10) {
            p.accepts(0, 32);
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
        let mut p = dynamic(4, 50);
        for i in 0..500 {
            let busy = if i % 2 == 0 { 0 } else { 32 };
            p.accepts(busy, 32);
        }
        assert_eq!(p.current_threshold(), Some(4));
    }

    #[test]
    fn dynamic_policy_window_resets_counters() {
        let mut p = dynamic(1, 10);
        // First window: all pass-on -> threshold 2.
        for _ in 0..10 {
            p.accepts(32, 32);
        }
        assert_eq!(p.current_threshold(), Some(2));
        // Second window: all accepted -> threshold back to 1.
        for _ in 0..10 {
            p.accepts(0, 32);
        }
        assert_eq!(p.current_threshold(), Some(1));
    }

    #[test]
    fn dynamic_window_ratio_is_compared_strictly() {
        // The window closes on its 50th attempt, before that attempt is
        // decided: 20 of 50 is exactly `low_ratio` and 30 of 50 exactly
        // `high_ratio`, and neither moves the threshold.
        for accepted in [20, 30] {
            let mut p = dynamic(40, 50);
            for i in 0..50 {
                p.accepts(if i < accepted { 0 } else { 40 }, 64);
            }
            assert_eq!(p.current_threshold(), Some(40), "{accepted} of 50");
        }
    }

    proptest::proptest! {
        /// The static policy is monotone in the busy count: if it refuses at
        /// some load it refuses at every higher load, and it accepts exactly
        /// the loads strictly below the threshold.
        #[test]
        fn static_policy_is_monotone(threshold in 0usize..40, total in 1usize..40) {
            let mut p = Acceptance::new(PolicyConfig::Static { threshold });
            for busy in 0..=total {
                proptest::prop_assert_eq!(p.accepts(busy, total), busy < threshold);
            }
        }

        /// The dynamic policy's threshold always stays within [0, total
        /// workers], regardless of the load pattern it observes.
        #[test]
        fn dynamic_policy_threshold_stays_in_bounds(
            window in 1u32..100,
            total in 1usize..64,
            loads in proptest::collection::vec(0usize..64, 0..500),
        ) {
            let mut p = dynamic(1, window);
            for busy in loads {
                p.accepts(busy.min(total), total);
                let c = p.current_threshold().unwrap();
                proptest::prop_assert!(c <= total, "threshold {c} exceeded total {total}");
            }
        }
    }
}

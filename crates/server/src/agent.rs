//! The application agent.
//!
//! In the paper the agent is a VPP plugin that reads Apache's scoreboard
//! shared memory so the virtual router can consult application state without
//! system calls or synchronisation.  Here the agent simply pairs a
//! [`WorkerPool`](crate::worker::WorkerPool) scoreboard reader with an [`AcceptPolicy`] and tracks
//! acceptance statistics.

use crate::policy::{AcceptDecision, AcceptPolicy};
use crate::worker::Scoreboard;

/// The per-server application agent: policy plus decision statistics.
#[derive(Debug)]
pub struct ApplicationAgent {
    policy: Box<dyn AcceptPolicy>,
    consultations: u64,
    accepted: u64,
}

impl ApplicationAgent {
    /// Creates an agent running the given policy.
    pub fn new(policy: Box<dyn AcceptPolicy>) -> Self {
        ApplicationAgent {
            policy,
            consultations: 0,
            accepted: 0,
        }
    }

    /// Consults the policy for a hunted connection, given the current
    /// scoreboard.
    pub fn decide(&mut self, scoreboard: Scoreboard) -> AcceptDecision {
        self.consultations += 1;
        let decision = self.policy.decide(scoreboard);
        if decision.is_accept() {
            self.accepted += 1;
        }
        decision
    }

    /// Number of times the policy has been consulted.
    pub fn consultations(&self) -> u64 {
        self.consultations
    }

    /// Number of consultations that resulted in acceptance.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Acceptance ratio so far (0.0 if never consulted).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.consultations == 0 {
            0.0
        } else {
            self.accepted as f64 / self.consultations as f64
        }
    }

    /// The policy's current threshold, if it has one.
    pub fn current_threshold(&self) -> Option<usize> {
        self.policy.current_threshold()
    }

    /// The policy's name.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticThreshold;

    #[test]
    fn agent_tracks_statistics() {
        let mut agent = ApplicationAgent::new(Box::new(StaticThreshold::new(2)));
        assert_eq!(agent.acceptance_ratio(), 0.0);
        let accept = agent.decide(Scoreboard { busy: 0, total: 4 });
        let pass = agent.decide(Scoreboard { busy: 3, total: 4 });
        assert!(accept.is_accept());
        assert!(!pass.is_accept());
        assert_eq!(agent.consultations(), 2);
        assert_eq!(agent.accepted(), 1);
        assert!((agent.acceptance_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(agent.current_threshold(), Some(2));
        assert_eq!(agent.policy_name(), "SR2");
    }
}

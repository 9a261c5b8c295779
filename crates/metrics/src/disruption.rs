//! Disruption metrics for dynamic-cluster scenarios.
//!
//! A scenario run (server churn, load-balancer failover, capacity changes)
//! divides an experiment into *phases*: the intervals between consecutive
//! control events.  The [`DisruptionCollector`] slices the per-request
//! records by phase (a request belongs to the phase in which it was *sent*)
//! and reports, per phase, how many connections completed, were reset or
//! never finished, the response-time summary, and the Jain fairness of
//! per-server completions — so the disruption caused by each event is
//! directly attributable.

use serde::{Deserialize, Serialize};

use crate::collector::{RequestOutcome, RequestRecord};
use crate::fairness::jain_fairness;
use crate::summary::Summary;

/// Statistics for one phase of a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Label of the event that opened this phase (`"start"` for the first).
    pub label: String,
    /// Start of the phase in seconds since the beginning of the run.
    pub start_seconds: f64,
    /// End of the phase (`None` for the final, open-ended phase).
    pub end_seconds: Option<f64>,
    /// Requests sent during the phase.
    pub sent: u64,
    /// Requests sent during the phase that completed.
    pub completed: u64,
    /// Requests sent during the phase whose connection was reset.
    pub resets: u64,
    /// Requests sent during the phase that never finished.
    pub unfinished: u64,
    /// Requests sent during the phase that the client aborted after
    /// exhausting its retransmission budget (fault-injection runs only;
    /// omitted from serialized stats when zero so fault-free outputs stay
    /// byte-identical to those of older versions).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub aborted: u64,
    /// Total retransmissions across requests sent during the phase
    /// (fault-injection runs only; omitted when zero, as above).
    #[serde(default, skip_serializing_if = "is_zero_u64")]
    pub retransmits: u64,
    /// Mean response time of the phase's completed requests (ms).
    pub mean_response_ms: f64,
    /// 99th-percentile response time of the phase's completed requests (ms).
    pub p99_response_ms: f64,
    /// Jain fairness of per-server completion counts within the phase
    /// (1.0 = perfectly even; 0.0 when nothing completed).
    pub fairness: f64,
}

/// Serde helper: skip serializing zero counters.
fn is_zero_u64(n: &u64) -> bool {
    *n == 0
}

/// Slices request records into phases delimited by scenario control events.
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionCollector {
    /// `(label, start_seconds)` per phase, sorted by start time; the first
    /// phase starts at 0.
    boundaries: Vec<(String, f64)>,
    /// Number of backend servers (for per-server completion counting).
    servers: usize,
}

impl DisruptionCollector {
    /// Creates a collector for phases opened by the given `(label,
    /// start_seconds)` events over a cluster of `servers` backends.  A
    /// `"start"` phase at `t = 0` is prepended unless the first boundary
    /// already starts at 0.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not sorted by start time.
    pub fn new(events: Vec<(String, f64)>, servers: usize) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].1 <= w[1].1),
            "phase boundaries must be sorted by start time"
        );
        let mut boundaries = Vec::with_capacity(events.len() + 1);
        if events.first().is_none_or(|(_, t)| *t > 0.0) {
            boundaries.push(("start".to_string(), 0.0));
        }
        boundaries.extend(events);
        DisruptionCollector {
            boundaries,
            servers,
        }
    }

    /// Number of phases.
    pub(crate) fn phase_count(&self) -> usize {
        self.boundaries.len()
    }

    /// Index of the phase a request sent at `t` seconds belongs to.
    pub(crate) fn phase_of(&self, t: f64) -> usize {
        self.boundaries
            .partition_point(|(_, start)| *start <= t)
            .saturating_sub(1)
    }

    /// Computes the per-phase statistics over `records`.
    pub fn stats(&self, records: &[RequestRecord]) -> Vec<PhaseStats> {
        let n = self.phase_count();
        let mut sent = vec![0u64; n];
        let mut completed = vec![0u64; n];
        let mut resets = vec![0u64; n];
        let mut unfinished = vec![0u64; n];
        let mut aborted = vec![0u64; n];
        let mut retransmits = vec![0u64; n];
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut per_server: Vec<Vec<f64>> = vec![vec![0.0; self.servers]; n];
        for record in records {
            let phase = self.phase_of(record.sent_at_seconds);
            sent[phase] += 1;
            retransmits[phase] += u64::from(record.retransmits);
            match record.outcome {
                RequestOutcome::Completed => {
                    completed[phase] += 1;
                    if let Some(ms) = record.response_time_ms {
                        times[phase].push(ms);
                    }
                    if let Some(server) = record.served_by {
                        if (server as usize) < self.servers {
                            per_server[phase][server as usize] += 1.0;
                        }
                    }
                }
                RequestOutcome::Reset => resets[phase] += 1,
                RequestOutcome::Unfinished => unfinished[phase] += 1,
                RequestOutcome::Aborted => aborted[phase] += 1,
            }
        }
        (0..n)
            .map(|i| {
                let summary = Summary::from_samples(times[i].clone());
                PhaseStats {
                    label: self.boundaries[i].0.clone(),
                    start_seconds: self.boundaries[i].1,
                    end_seconds: self.boundaries.get(i + 1).map(|(_, t)| *t),
                    sent: sent[i],
                    completed: completed[i],
                    resets: resets[i],
                    unfinished: unfinished[i],
                    aborted: aborted[i],
                    retransmits: retransmits[i],
                    mean_response_ms: summary.mean(),
                    p99_response_ms: summary.percentile(99.0).unwrap_or(0.0),
                    // `jain_fairness` reports an all-zero vector as 1.0;
                    // an empty phase is "no data", not "perfectly fair".
                    fairness: if completed[i] == 0 {
                        0.0
                    } else {
                        jain_fairness(&per_server[i])
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RequestClass;

    fn record(t: f64, outcome: RequestOutcome, server: Option<u32>) -> RequestRecord {
        RequestRecord {
            sent_at_seconds: t,
            response_time_ms: (outcome == RequestOutcome::Completed).then_some(10.0 * (t + 1.0)),
            class: RequestClass::Synthetic,
            outcome,
            served_by: server,
            retransmits: 0,
        }
    }

    #[test]
    fn prepends_a_start_phase() {
        let collector = DisruptionCollector::new(vec![("failover".into(), 5.0)], 2);
        assert_eq!(collector.phase_count(), 2);
        assert_eq!(collector.phase_of(0.0), 0);
        assert_eq!(collector.phase_of(4.999), 0);
        assert_eq!(collector.phase_of(5.0), 1);
        assert_eq!(collector.phase_of(100.0), 1);
    }

    #[test]
    fn explicit_zero_phase_is_not_duplicated() {
        let collector =
            DisruptionCollector::new(vec![("warmup".into(), 0.0), ("churn".into(), 2.0)], 1);
        assert_eq!(collector.phase_count(), 2);
        assert_eq!(collector.phase_of(1.0), 0);
    }

    #[test]
    fn slices_outcomes_and_times_by_send_phase() {
        let collector = DisruptionCollector::new(vec![("failover".into(), 10.0)], 2);
        let records = vec![
            record(1.0, RequestOutcome::Completed, Some(0)),
            record(2.0, RequestOutcome::Completed, Some(1)),
            record(3.0, RequestOutcome::Reset, None),
            // Sent pre-failover, but attributed to phase 0 by send time even
            // though it finished later.
            record(9.0, RequestOutcome::Unfinished, None),
            record(11.0, RequestOutcome::Completed, Some(0)),
            record(12.0, RequestOutcome::Reset, None),
        ];
        let stats = collector.stats(&records);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "start");
        assert_eq!(stats[0].sent, 4);
        assert_eq!(stats[0].completed, 2);
        assert_eq!(stats[0].resets, 1);
        assert_eq!(stats[0].unfinished, 1);
        assert_eq!(stats[0].end_seconds, Some(10.0));
        // Both servers completed one request each: perfect fairness.
        assert!((stats[0].fairness - 1.0).abs() < 1e-9);
        assert!((stats[0].mean_response_ms - 25.0).abs() < 1e-9);

        assert_eq!(stats[1].label, "failover");
        assert_eq!(stats[1].sent, 2);
        assert_eq!(stats[1].completed, 1);
        assert_eq!(stats[1].resets, 1);
        assert_eq!(stats[1].end_seconds, None);
        // Only server 0 completed anything: fairness 1/2 over 2 servers.
        assert!((stats[1].fairness - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_phase_reports_zero_fairness() {
        let collector = DisruptionCollector::new(vec![("failover".into(), 10.0)], 4);
        // Everything sent after the failover is reset: nothing completes.
        let stats = collector.stats(&[
            record(1.0, RequestOutcome::Completed, Some(0)),
            record(11.0, RequestOutcome::Reset, None),
            record(12.0, RequestOutcome::Reset, None),
        ]);
        assert_eq!(stats[1].completed, 0);
        assert_eq!(stats[1].fairness, 0.0, "no completions is not 'fair'");
    }

    #[test]
    fn serde_roundtrip() {
        let collector = DisruptionCollector::new(vec![("e".into(), 1.0)], 1);
        let stats = collector.stats(&[record(0.5, RequestOutcome::Completed, Some(0))]);
        let json = serde_json::to_string(&stats[0]).unwrap();
        let back: PhaseStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats[0]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_boundaries_panic() {
        DisruptionCollector::new(vec![("b".into(), 5.0), ("a".into(), 1.0)], 1);
    }

    #[test]
    fn aborts_and_retransmits_are_sliced_by_phase_and_skipped_when_zero() {
        let collector = DisruptionCollector::new(vec![("failover".into(), 10.0)], 2);
        let mut retried = record(1.0, RequestOutcome::Completed, Some(0));
        retried.retransmits = 2;
        let mut gave_up = record(11.0, RequestOutcome::Aborted, None);
        gave_up.retransmits = 5;
        let stats = collector.stats(&[
            retried,
            record(2.0, RequestOutcome::Completed, Some(1)),
            gave_up,
        ]);
        assert_eq!(stats[0].retransmits, 2);
        assert_eq!(stats[0].aborted, 0);
        assert_eq!(stats[1].aborted, 1);
        assert_eq!(stats[1].retransmits, 5);
        assert_eq!(stats[1].sent, 1);

        // Fault-free phases serialize without the new fields.
        let clean = collector.stats(&[record(1.0, RequestOutcome::Completed, Some(0))]);
        let json = serde_json::to_string(&clean[0]).unwrap();
        assert!(!json.contains("aborted"), "{json}");
        assert!(!json.contains("retransmits"), "{json}");
        let json = serde_json::to_string(&stats[1]).unwrap();
        assert!(json.contains("\"aborted\":1"));
    }
}

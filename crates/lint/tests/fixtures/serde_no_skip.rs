//! Fixture: must trip exactly one `serde-no-skip` finding.

#[derive(serde::Serialize, serde::Deserialize)]
struct RetrySpec {
    /// Proper pairing: default AND skip — must NOT be flagged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget: Option<u32>,
    /// Missing pairing: the default re-serializes into every artifact.
    #[serde(default)]
    pub attempts: u32,
}

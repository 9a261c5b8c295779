//! Fixture: must trip exactly one `ambient-time` finding.

fn elapsed_hint() -> std::time::Duration {
    let start = std::time::Instant::now();
    start.elapsed()
}

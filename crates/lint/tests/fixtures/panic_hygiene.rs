//! Fixture: must trip exactly one `panic-hygiene` finding.

fn first(values: &[u32]) -> u32 {
    values.first().copied().unwrap()
}

//! Fixture: must trip exactly one `unused-allow` finding.

// srlb-lint: allow(ambient-time) -- nothing on the next line reads the clock
fn quiet() -> u32 {
    41
}

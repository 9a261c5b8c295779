//! Fixture: must trip exactly one `bad-directive` finding.

// srlb-lint: allow(unordered-iter)
fn quiet() -> u32 {
    42
}

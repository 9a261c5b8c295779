//! Fixture: must trip exactly one `unused-pub` finding.

pub use std::collections::BTreeMap;

/// Named by nobody outside this file: reported.
pub fn lonely() -> u32 {
    helper() + shared()
}

fn helper() -> u32 {
    1
}

pub(crate) fn shared() -> u32 {
    2
}

struct Fields {
    pub public_field: u32,
}

#[cfg(test)]
mod tests {
    pub fn test_only() {}
}

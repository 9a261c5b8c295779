//! Fixture: must trip exactly one `unordered-iter` finding.

fn sum_values(m: &std::collections::HashMap<u32, u64>) -> u64 {
    let mut total = 0;
    for (_, v) in m.iter() {
        total += v;
    }
    total
}

//! Fixture: must trip exactly one `ambient-rand` finding.

fn roll() -> u64 {
    let mut rng = rand::thread_rng();
    rand::Rng::next_u64(&mut rng)
}

//! Seeded, fork-able randomness.
//!
//! Every experiment takes a single `u64` seed; components that need
//! independent random streams obtain them by `SimRng::fork`ing with a
//! distinct label, so that adding randomness to one component does not
//! perturb the stream seen by another (a common source of irreproducibility
//! in simulation studies).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic random number generator with labelled sub-streams.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for the sub-stream named `label`.
    ///
    /// Forking is a pure function of `(seed, label)`: the returned generator
    /// does not share state with `self` and does not consume numbers from it.
    pub(crate) fn fork(&self, label: u64) -> SimRng {
        // SplitMix64-style mixing of the seed and the label.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(label.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Derives an independent generator from a string label (hashed
    /// deterministically).
    pub fn fork_named(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.fork(h)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "independent seeds should rarely collide");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = SimRng::new(42);
        let mut f1 = root.fork(1);
        let mut f1_again = root.fork(1);
        let mut f2 = root.fork(2);
        let s1: Vec<u64> = (0..16).map(|_| f1.next_u64()).collect();
        let s1_again: Vec<u64> = (0..16).map(|_| f1_again.next_u64()).collect();
        let s2: Vec<u64> = (0..16).map(|_| f2.next_u64()).collect();
        assert_eq!(s1, s1_again);
        assert_ne!(s1, s2);
    }

    #[test]
    fn fork_does_not_consume_parent_state() {
        let mut a = SimRng::new(99);
        let before: u64 = a.gen();
        let mut b = SimRng::new(99);
        let _child = b.fork(5);
        let after: u64 = b.gen();
        assert_eq!(before, after);
    }

    #[test]
    fn fork_named_matches_itself() {
        let root = SimRng::new(1);
        let mut x = root.fork_named("servers");
        let mut y = root.fork_named("servers");
        let mut z = root.fork_named("clients");
        assert_eq!(x.next_u64(), y.next_u64());
        let _ = z.next_u64();
    }

    #[test]
    fn seed_accessor_returns_original() {
        assert_eq!(SimRng::new(123).seed(), 123);
    }

    #[test]
    fn fill_bytes_works() {
        let mut rng = SimRng::new(3);
        let mut buf = [0u8; 32];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        rng.try_fill_bytes(&mut buf).unwrap();
    }
}

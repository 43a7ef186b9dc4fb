//! Deterministic simulation RNG.
//!
//! The simulator must be byte-for-byte reproducible across runs and library
//! upgrades, so instead of depending on `rand`'s unspecified `StdRng`
//! algorithm we implement xoshiro256++ (Blackman & Vigna, 2019) with a
//! SplitMix64 seeder, and plug it into the `rand` ecosystem by implementing
//! the infallible side of [`rand::TryRng`] (which supplies [`rand::Rng`]
//! through rand's blanket impl).

use rand::TryRng;
use std::convert::Infallible;

/// A seedable, deterministic xoshiro256++ generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Derives an independent child generator for a named subsystem.
    ///
    /// Giving each subsystem (arrivals, mining, topology…) its own stream
    /// keeps event schedules stable when one subsystem changes how much
    /// randomness it consumes.
    pub fn fork(&self, label: &str) -> SimRng {
        // Mix the label into the current state without advancing self.
        let mut acc = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for &b in label.as_bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x100_0000_01b3);
        }
        SimRng::seed_from_u64(self.s[0] ^ acc.rotate_left(17))
    }

    /// Derives an independent child generator for item `index` of a named
    /// family, without advancing `self`.
    ///
    /// Giving transaction *i* the stream `fork_indexed("user-tx", i)` makes
    /// its draws a pure function of `(parent seed, label, i)`: no other
    /// item's draws, and no order of drawing, can change them.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let mut acc = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for &b in label.as_bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x100_0000_01b3);
        }
        for &b in index.to_le_bytes().iter() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x100_0000_01b3);
        }
        SimRng::seed_from_u64(self.s[0] ^ acc.rotate_left(17))
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range {lo}..={hi}");
        lo + self.next_below(hi - lo + 1)
    }

    /// Bernoulli draw with success probability `p`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_below(slice.len() as u64) as usize])
        }
    }
}

impl TryRng for SimRng {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next_raw() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next_raw())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let matches = (0..100).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(matches < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn next_below_unbiased_small_bound() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.next_below(3) as usize] += 1;
        }
        for c in counts {
            assert!((c as i64 - 10_000).abs() < 600, "counts {counts:?}");
        }
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let v = rng.next_range(5, 7);
            assert!((5..=7).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 7;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn fork_streams_are_independent_and_stable() {
        let root = SimRng::seed_from_u64(99);
        let mut a1 = root.fork("arrivals");
        let mut a2 = root.fork("arrivals");
        let mut m = root.fork("mining");
        assert_eq!(a1.next_raw(), a2.next_raw());
        // Streams with different labels should differ immediately.
        let mut a3 = root.fork("arrivals");
        assert_ne!(a3.next_raw(), m.next_raw());
    }

    #[test]
    fn indexed_forks_are_stable_and_distinct() {
        let root = SimRng::seed_from_u64(99);
        let mut a = root.fork_indexed("user-tx", 5);
        let mut b = root.fork_indexed("user-tx", 5);
        assert_eq!(a.next_raw(), b.next_raw());
        // Neighbouring indices, other labels, and the plain fork all differ.
        let mut c = root.fork_indexed("user-tx", 6);
        let mut d = root.fork_indexed("self-tx", 5);
        let mut e = root.fork("user-tx");
        let fresh = root.fork_indexed("user-tx", 5).next_raw();
        assert_ne!(fresh, c.next_raw());
        assert_ne!(fresh, d.next_raw());
        assert_ne!(fresh, e.next_raw());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn rand_trait_fill_bytes_fills_everything() {
        use rand::Rng;
        let mut rng = SimRng::seed_from_u64(13);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let _ = rng.next_u32();
        let _ = rng.next_u64();
    }

    #[test]
    fn choose_handles_empty() {
        let mut rng = SimRng::seed_from_u64(1);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}

//! Correcting measured intervals for the host's speed.
//!
//! On a shared machine the host's user-mode throughput swings in phases
//! that last seconds to minutes, and a whole set of runs can fall into one
//! phase (see `README.md`). So the benchmark runs a fixed reference kernel
//! before and after every set-up and every pass, and divides each interval
//! by how much slower than nominal the kernel ran around it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The memory-bound half's time, in seconds, on the machine the benchmark
/// was written on (2 shared vCPUs of a 2.1 GHz Xeon, in a quiet phase).
const NOMINAL_MEMORY_SECONDS: f64 = 0.055;

/// The compute-bound half's time on the same machine.
const NOMINAL_COMPUTE_SECONDS: f64 = 0.013;

/// Keys the memory-bound half inserts: a table of about 16 MiB.
const KEYS: u64 = 400_000;

/// Rounds of the compute-bound half.
const ROUNDS: u64 = 3_000_000;

/// SplitMix64's output function: spreads neighbouring integers apart.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel and the memory it works in. The memory is
/// allocated once, so that the kernel's time does not depend on the state
/// of the heap the workload around it leaves. It uses standard-library
/// code only, so that no change to the program moves it.
struct Reference {
    hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
}

impl Reference {
    fn new() -> Reference {
        let capacity = KEYS as usize;
        Reference {
            hashed: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Runs the kernel once and returns how much slower than nominal it
    /// ran: the mean of its two halves' time ratios. Slow host phases
    /// slowed the memory-bound half more than the passes and the
    /// compute-bound half less; over windows of 8 to 30 passes of each
    /// workload, their mean tracked the passes better than either half.
    fn slowdown(&mut self) -> f64 {
        let started = Instant::now();
        self.hashed.clear();
        self.sorted.clear();
        let mut key = 7;
        for i in 0..KEYS {
            key = splitmix64(key);
            self.hashed.insert(key, i);
            self.sorted.push(key);
        }
        self.sorted.sort_unstable();
        let mut acc = 0u64;
        for i in 0..KEYS {
            let probe = splitmix64(i);
            acc = acc.wrapping_add(self.hashed.get(&probe).copied().unwrap_or(1));
            acc ^= self.sorted.partition_point(|&k| k < probe) as u64;
        }
        let memory = started.elapsed().as_secs_f64();

        let started = Instant::now();
        for _ in 0..ROUNDS {
            acc = splitmix64(acc);
        }
        let compute = started.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        (memory / NOMINAL_MEMORY_SECONDS + compute / NOMINAL_COMPUTE_SECONDS) / 2.0
    }
}

/// `seconds` as they would have read on a nominal host, given the kernel's
/// slowdowns just before and just after the interval.
fn scale(seconds: f64, before: f64, after: f64) -> f64 {
    seconds / ((before + after) / 2.0)
}

/// Turns measured intervals into normalised seconds: seconds on a host
/// where the reference kernel runs at its nominal speed. Each interval must
/// follow the previous call directly, so that one kernel run ends one
/// interval's bracket and starts the next one's.
pub struct HostClock {
    reference: Reference,
    /// Every slowdown so far, the latest last.
    slowdowns: Vec<f64>,
}

impl HostClock {
    /// Runs the kernel once, to bracket the first interval.
    pub fn new() -> HostClock {
        let mut reference = Reference::new();
        let first = reference.slowdown();
        HostClock {
            reference,
            slowdowns: vec![first],
        }
    }

    /// Runs the kernel again and returns `seconds`, the interval since the
    /// previous kernel run, in normalised seconds.
    pub fn normalise(&mut self, seconds: f64) -> f64 {
        let before = *self.slowdowns.last().expect("new() runs the kernel");
        let after = self.reference.slowdown();
        self.slowdowns.push(after);
        scale(seconds, before, after)
    }

    /// Every slowdown so far.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_the_kernels_bracketing_slowdowns() {
        assert!((scale(2.0, 1.0, 1.0) - 2.0).abs() < 1e-12);
        // The kernel ran 1.5x slow around the interval: the host was slow.
        assert!((scale(3.0, 1.5, 1.5) - 2.0).abs() < 1e-12);
        // A slow phase that began mid-interval counts half.
        assert!((scale(2.5, 1.0, 1.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn each_kernel_run_brackets_two_intervals() {
        let mut clock = HostClock::new();
        let a = clock.normalise(1.0);
        let b = clock.normalise(1.0);
        let s = clock.slowdowns();
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|&x| x > 0.0));
        assert!((a - scale(1.0, s[0], s[1])).abs() < 1e-12);
        assert!((b - scale(1.0, s[1], s[2])).abs() < 1e-12);
    }
}

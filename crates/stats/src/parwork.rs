//! Deterministic fork-join parallelism on `std::thread::scope`, and the
//! only code in the workspace that spawns threads (`clippy.toml` bans
//! `std::thread::{scope, spawn, available_parallelism}` everywhere else).
//!
//! The simulator and auditor must be byte-for-byte reproducible at any
//! worker count, so this layer enforces one discipline everywhere it is
//! used: **work items are independent, and results are joined in input
//! order** regardless of which worker computed them or when it finished.
//! A caller that needs an order-sensitive fold performs it serially over
//! the joined vector — the parallel region only ever computes pure
//! per-item values (the "deterministic join" contract, see DESIGN.md §8).
//!
//! Only coarse fan-outs use it — whole experiments, whole simulations,
//! per-window fleet fusion — because per-block and per-batch fan-outs
//! cost more in thread spawns than they overlap.
//!
//! No work-stealing runtime and no new dependencies: workers are scoped
//! threads pulling indices off a shared atomic claim counter, which gives
//! dynamic load balancing for skewed item costs while the index-addressed
//! join keeps the output identical to the serial loop.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the detected worker count (used by the
/// CI dual-run gate to force 1-worker and N-worker runs on the same box).
pub const WORKERS_ENV: &str = "CN_WORKERS";

/// A fixed-width fork-join pool descriptor.
///
/// `Pool` is a plain value (no threads are retained between calls); each
/// `map` opens a `std::thread::scope`, runs, and joins. A pool of width 1
/// never spawns and is exactly the serial loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

#[allow(clippy::disallowed_methods, reason = "fork-join goes through cn_stats::Pool")]
impl Pool {
    /// A pool sized from `CN_WORKERS` if set (clamped to `1..=64`), else
    /// from [`std::thread::available_parallelism`].
    pub fn auto() -> Pool {
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = match std::env::var(WORKERS_ENV) {
            Ok(v) => v.trim().parse::<usize>().unwrap_or(detected).clamp(1, 64),
            Err(_) => detected,
        };
        Pool { workers }
    }

    /// A pool of exactly `workers` workers (minimum 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool { workers: workers.max(1) }
    }

    /// The pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns results in **input order**.
    ///
    /// `f` must be a pure function of its item (plus shared read-only
    /// state); the join is index-addressed, so the output is byte-identical
    /// to `items.iter().map(f).collect()` at any worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let width = self.workers.min(n.max(1));
        if width <= 1 {
            return items.iter().map(&f).collect();
        }

        let next = AtomicUsize::new(0);
        let mut shards: Vec<Vec<(usize, R)>> = Vec::with_capacity(width);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(&items[i])));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                shards.push(h.join().expect("parwork worker panicked"));
            }
        });

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in shards.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for w in [1, 2, 3, 8] {
            let out = Pool::with_workers(w).map(&items, |&x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "workers={w}");
        }
    }

    #[test]
    fn map_matches_serial_for_skewed_costs() {
        let items: Vec<usize> = (0..64).collect();
        let work = |&i: &usize| {
            // Skew: later items spin longer, so claim order != finish order.
            let mut acc = i as u64;
            for k in 0..(i * 500) as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        };
        let serial = Pool::with_workers(1).map(&items, work);
        let parallel = Pool::with_workers(7).map(&items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: [u8; 0] = [];
        assert!(Pool::with_workers(8).map(&empty, |&b| b).is_empty());
        assert_eq!(Pool::with_workers(8).map(&[7u8], |&b| b * 2), vec![14]);
    }

    #[test]
    fn width_clamps_to_item_count() {
        // More workers than items must not deadlock or drop items.
        let out = Pool::with_workers(16).map(&[1u8, 2], |&b| b);
        assert_eq!(out, vec![1, 2]);
    }
}

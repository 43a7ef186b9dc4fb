//! Deterministic fork-join parallelism on `std::thread::scope`.
//!
//! The simulator and auditor must be byte-for-byte reproducible at any
//! worker count, so this layer enforces one discipline everywhere it is
//! used: **work items are independent, and results are joined in input
//! order** regardless of which worker computed them or when it finished.
//! A caller that needs an order-sensitive fold performs it serially over
//! the joined vector — the parallel region only ever computes pure
//! per-item values (the "deterministic join" contract, see DESIGN.md §8).
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

    /// A serial pool (width 1); `map` degenerates to the plain loop.
    pub fn serial() -> Pool {
        Pool { workers: 1 }
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

    /// Runs `f` once over every item **in place** — the batch-join shape
    /// for fan-outs that mutate disjoint state (one mempool view per item)
    /// instead of returning values.
    ///
    /// Items are claimed off the same atomic counter as [`Pool::map`];
    /// because each index is claimed exactly once, each item's mutex is
    /// locked exactly once and never contended — it exists only to let the
    /// scoped threads share the slice safely without `unsafe`. `f` must
    /// treat items as independent (no cross-item reads or writes); under
    /// that discipline the final state is identical to the serial
    /// `for item in items { f(item) }` at any worker count.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let n = items.len();
        let width = self.workers.min(n.max(1));
        if width <= 1 {
            for item in items.iter_mut() {
                f(item);
            }
            return;
        }
        let cells: Vec<std::sync::Mutex<&mut T>> =
            items.iter_mut().map(std::sync::Mutex::new).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..width {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let mut cell = cells[i].lock().expect("uncontended per-item lock");
                    f(&mut cell);
                });
            }
        });
    }

    /// Generates `count` values from an index-addressed constructor, in
    /// index order. Sugar for [`Pool::map`] over `0..count` without
    /// materializing the index vector's contents into item payloads.
    pub fn build<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let idx: Vec<usize> = (0..count).collect();
        self.map(&idx, |&i| f(i))
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
        let serial = Pool::serial().map(&items, work);
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
    fn build_is_index_order() {
        let out = Pool::with_workers(5).build(33, |i| i * i);
        let expect: Vec<usize> = (0..33).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn width_clamps_to_item_count() {
        // More workers than items must not deadlock or drop items.
        let out = Pool::with_workers(16).map(&[1u8, 2], |&b| b);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for w in [1, 2, 3, 8] {
            let mut items: Vec<u64> = (0..257).collect();
            Pool::with_workers(w).for_each_mut(&mut items, |x| *x = *x * 3 + 1);
            let expect: Vec<u64> = (0..257).map(|x| x * 3 + 1).collect();
            assert_eq!(items, expect, "workers={w}");
        }
    }

    #[test]
    fn for_each_mut_handles_empty_and_skew() {
        let mut empty: Vec<u8> = Vec::new();
        Pool::with_workers(8).for_each_mut(&mut empty, |_| unreachable!());
        let mut items: Vec<(usize, u64)> = (0..64).map(|i| (i, 0)).collect();
        Pool::with_workers(7).for_each_mut(&mut items, |(i, acc)| {
            for k in 0..(*i * 500) as u64 {
                *acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
        });
        let mut expect: Vec<(usize, u64)> = (0..64).map(|i| (i, 0)).collect();
        for (i, acc) in &mut expect {
            for k in 0..(*i * 500) as u64 {
                *acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
        }
        assert_eq!(items, expect);
    }
}

//! Deterministic parallel fan-out for sweep binaries.
//!
//! A sweep binary evaluates many independent `(workload, policy, gpus)`
//! points, each of which is a single-threaded, seeded, bit-reproducible
//! simulation. [`par_map`] fans those points across cores and returns the
//! results in input order, so a sweep's output is byte-identical whether it
//! ran on one thread or sixteen — the parallelism lives strictly *between*
//! simulations, never inside one.
//!
//! Workers are scoped threads spawned per call: a sweep point costs
//! milliseconds to seconds of simulation, so thread spawns are noise.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads: `NEXUS_BENCH_THREADS` if set (0 or 1 forces
/// serial), otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("NEXUS_BENCH_THREADS") {
        return v
            .trim()
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("NEXUS_BENCH_THREADS must be an integer, got {v:?}"))
            .max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item, fanning across threads, and returns results
/// in input order.
///
/// Workers claim items through a shared next-index counter (cheap
/// work-stealing — sweep points vary wildly in cost) and results are
/// placed back by index, so the output is identical to
/// `items.iter().map(f).collect()` for any thread count.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` as "parallel worker
/// panicked", after every worker has been joined.
///
/// # Examples
///
/// ```
/// let squares = bench::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results travel
            // back through `join`, which synchronizes.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(claim)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for done in joined {
        let Ok(done) = done else {
            panic!("parallel worker panicked");
        };
        for (i, r) in done {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven per-item cost exercises the work-stealing interleave.
        let f = |&x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let serial: Vec<_> = items.iter().map(f).collect();
        assert_eq!(par_map(&items, f), serial);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, |&x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Back-to-back sweeps share the process-wide pool; results stay
        // order-exact on every reuse.
        for round in 0u64..5 {
            let items: Vec<u64> = (0..40).map(|i| i + round * 100).collect();
            let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(par_map(&items, |&x| x * 3), serial);
        }
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        // Enough items that workers actually spawn even on small machines.
        let items: Vec<u32> = (0..64).collect();
        if thread_count() < 2 {
            // Serial path panics inline; match the harness expectation.
            panic!("parallel worker panicked");
        }
        par_map(&items, |&x| {
            assert!(x != 13, "boom");
            x
        });
    }
}

//! The workspace's one deterministic worker pool.
//!
//! Every parallel loop in UpKit — window diffs within one patch, update
//! preparation across a token batch, fleet and campaign shards, gateway
//! shards, chaos and adversary cases — has the same shape: a slice of
//! independent jobs whose results must come back *in input order* no
//! matter which worker finishes first. [`parallel_map`] is the only code
//! that spawns threads for them. Workers claim job indices from a shared
//! atomic cursor, keep `(index, result)` pairs, and the pairs are put back
//! into index order after the join, so output is a deterministic function
//! of the inputs alone. `upkit-core::parallel` layers per-job tracing on
//! top of this pool.

use core::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in input order.
///
/// `result[i] == f(i, &items[i])` exactly as if the map ran sequentially:
/// each index is claimed by exactly one worker and its result is placed at
/// that index, so scheduling cannot reorder or interleave results. With
/// `threads <= 1` or a single item the map runs inline on the calling
/// thread, so callers can use one code path for both configurations. A
/// panicking job re-raises its panic on the calling thread.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // The cursor only hands out indices; results travel back through the
    // joins, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return done;
            };
            done.push((index, f(index, item)));
        }
    };
    // The calling thread is one of the workers, so a map spawns
    // `workers - 1` threads.
    let mut done: Vec<(usize, R)> = crossbeam::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(|_| claim())).collect();
        let mut done = claim();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    })
    .expect("every worker was joined");
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1usize, 2, 4, 9] {
            let out = parallel_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(
                out,
                (0..100).map(|x| x * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let items: Vec<usize> = (0..57).collect();
        let calls = AtomicUsize::new(0);
        let out = parallel_map(&items, 5, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [7u8, 8];
        let out = parallel_map(&items, 64, |_, &x| u32::from(x) + 1);
        assert_eq!(out, vec![8, 9]);
    }
}

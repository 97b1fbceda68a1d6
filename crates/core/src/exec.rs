//! Scoped fan-out of independent tasks across threads — the execution
//! engine behind [`SpbTree::range_batch`], [`SpbTree::knn_batch`] and the
//! partition-parallel similarity join.
//!
//! Built on `std::thread::scope` only (no external runtime): workers may
//! borrow the tree and the task slice directly, and every worker is
//! joined before [`parallel_map`] returns, so no task outlives its
//! borrows. Tasks are whole queries or join partitions (0.5–10 ms each),
//! so hand-out is one shared cursor: each worker claims the next
//! unclaimed index until none is left, which also keeps one slow task
//! from holding up the rest.
//!
//! [`SpbTree::range_batch`]: crate::SpbTree::range_batch
//! [`SpbTree::knn_batch`]: crate::SpbTree::knn_batch

use std::sync::atomic::{AtomicUsize, Ordering};

/// The `exec.queue_depth` gauge: tasks of the most recent batch no
/// worker has claimed yet. Process-global, so an operator can see
/// backlog while a batch runs.
fn queue_depth_gauge() -> &'static std::sync::Arc<spb_obs::Gauge> {
    static G: std::sync::OnceLock<std::sync::Arc<spb_obs::Gauge>> = std::sync::OnceLock::new();
    G.get_or_init(|| spb_obs::gauge("exec.queue_depth"))
}

/// Applies `f` to every item on up to `threads` workers, returning
/// results in input order. `f` gets the item's index and a reference to
/// it. `threads <= 1` (or a single item) runs inline on the caller's
/// thread, which is also the reference behaviour batch results are
/// tested against.
///
/// # Panics
/// Panics if `f` panics on a worker thread, as it would inline.
#[allow(clippy::expect_used)]
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Only claims indices, publishes no data: results travel through join.
    let cursor = AtomicUsize::new(0);
    let depth = queue_depth_gauge();
    depth.set(n as i64);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        depth.set((n - i - 1) as i64);
                        out.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every task runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..500).collect();
        parallel_map(8, &items, |_, &x| {
            counters[x].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[42], |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn one_slow_task_does_not_serialise_the_rest() {
        // One slow task up front must not serialise the rest behind it.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, items);
    }
}

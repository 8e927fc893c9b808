//! The workspace's one worker pool: a deterministic-order parallel map.
//!
//! Sweep cells (`bench::SweepRunner`), serve shards and any other set of
//! independent work items fan out through [`par_map`]. Workers claim item
//! indices from a shared atomic counter (work stealing by index), which
//! keeps the pool balanced when item costs are skewed, and results land
//! in input order whatever the interleaving, so reports built from them
//! are byte-identical for every worker count.
//!
//! The pool lives here because every worker must [`crate::flush`] its
//! thread-local observability buffers before its scoped closure returns:
//! `std::thread::scope` can unblock before the worker's TLS destructors
//! (the automatic flush) have run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every index in `0..n` on up to `workers` threads and
/// returns the results in index order.
///
/// With one worker (or at most one item) everything runs on the calling
/// thread and no thread is spawned. A `workers` of 0 counts as 1.
pub fn par_map<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    *slots[i].lock().unwrap() = Some(r);
                }
                crate::flush();
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every claimed slot"))
        .collect()
}

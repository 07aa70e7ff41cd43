//! A minimal `std::thread` worker pool for embarrassingly parallel sweeps.
//!
//! The figure binaries and probes solve many independent `(n, α, property-set)`
//! LPs; [`parallel_map`] fans them out over a scoped worker pool with
//! work-stealing by atomic index — no ordering requirements on task cost, no
//! dependencies beyond `std`.  Results come back in input order, and a panic in
//! any task propagates to the caller (via the scoped-thread join), so error
//! handling with `Result` items behaves exactly as in the serial loop it
//! replaces.
//!
//! The pool size defaults to the machine's available parallelism and can be
//! pinned with the `CPM_THREADS` environment variable (`CPM_THREADS=1` recovers
//! fully serial execution, e.g. for clean per-task timing).
//!
//! Zero- and one-item inputs short-circuit before any of that: they run on the
//! caller's thread without reading `CPM_THREADS` or probing the machine, so a
//! caller that usually hands over a single task (the serving engine's warm
//! batch is one sampling chunk) pays only for the task itself.  The variable is
//! deliberately not cached: it is re-read on every call with two or more items,
//! so a process may re-pin the pool between sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: `CPM_THREADS` when set and positive,
/// otherwise [`std::thread::available_parallelism`], never more than `tasks`.
pub fn worker_count(tasks: usize) -> usize {
    let configured = std::env::var("CPM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0);
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    configured.unwrap_or(available).max(1).min(tasks.max(1))
}

/// Apply `f` to every item on a small worker pool, returning the results in
/// input order.
///
/// Tasks are claimed by atomic counter, so long and short tasks interleave
/// without static partitioning — exactly what the LP sweeps need, where solve
/// time varies by orders of magnitude across the parameter grid.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let tasks = items.len();
    // A single task never needs a pool, so it skips the worker-count probe.
    let workers = if tasks <= 1 { 1 } else { worker_count(tasks) };
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let slots = &slots;
    let results = &results;
    let next = &next;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task claimed twice");
                let result = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    results
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("result slot poisoned")
                .take()
                .expect("worker completed every claimed task")
        })
        .collect()
}

/// [`parallel_map`] for fallible tasks: apply `f` to every item on the pool
/// and collect the results in input order, returning the first error (by input
/// order) if any task failed.  This is the shape every LP sweep needs, so the
/// grid-build / fan-out / `?`-collect boilerplate lives here once.
pub fn try_parallel_map<T, R, E, F>(items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    parallel_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_regardless_of_task_cost() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(items, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn propagates_result_errors_like_the_serial_loop() {
        let items = vec![1i32, 2, 3, 4];
        let out = try_parallel_map(items, |i| {
            if i == 3 {
                Err("three".to_string())
            } else {
                Ok(i * 10)
            }
        });
        assert_eq!(out, Err("three".to_string()));
        assert_eq!(
            try_parallel_map(vec![1i32, 2], |i| Ok::<_, String>(i * 10)),
            Ok(vec![10, 20])
        );
    }

    #[test]
    fn worker_count_is_bounded_by_tasks() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
    }

    #[test]
    fn empty_and_single_item_inputs_short_circuit() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(empty, |x: i32| x).is_empty());
        assert_eq!(parallel_map(vec![9], |x| x + 1), vec![10]);
    }
}

//! `CPM_THREADS` is re-read on every multi-item `parallel_map`, and a
//! single-item map never leaves the caller's thread.
//!
//! This lives in its own test binary with a single `#[test]` because it sets
//! a process-wide environment variable, which must not race other tests.

use std::collections::HashSet;
use std::sync::Barrier;
use std::thread::{self, ThreadId};

use cpm_eval::par::{parallel_map, worker_count};

fn threads_used(tasks: usize, work: impl Fn() + Sync) -> Vec<ThreadId> {
    parallel_map((0..tasks).collect(), |_| {
        work();
        thread::current().id()
    })
}

#[test]
fn cpm_threads_is_honoured_on_every_call_and_single_items_stay_serial() {
    let caller = thread::current().id();

    // A single item runs inline whatever the pool size would be.
    std::env::set_var("CPM_THREADS", "4");
    assert_eq!(threads_used(1, || ()), vec![caller]);
    assert!(threads_used(0, || ()).is_empty());

    // Pinned to one worker: every task runs on the caller's thread.
    std::env::set_var("CPM_THREADS", "1");
    assert_eq!(worker_count(16), 1);
    assert!(threads_used(8, || ()).iter().all(|&id| id == caller));

    // Re-pinned to three after earlier calls: three tasks that each wait for
    // the other two can only finish if three workers run at once.
    std::env::set_var("CPM_THREADS", "3");
    assert_eq!(worker_count(16), 3);
    let barrier = Barrier::new(3);
    let ids = threads_used(3, || {
        barrier.wait();
    });
    let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
    assert_eq!(distinct.len(), 3, "{ids:?}");
    assert!(!distinct.contains(&caller));

    // Re-pinned to two: sixteen tasks share at most two pool threads.
    std::env::set_var("CPM_THREADS", "2");
    assert_eq!(worker_count(16), 2);
    let distinct: HashSet<ThreadId> = threads_used(16, thread::yield_now).into_iter().collect();
    assert!(distinct.len() <= 2, "{distinct:?}");
    assert!(!distinct.contains(&caller));

    // And back to serial.
    std::env::set_var("CPM_THREADS", "1");
    assert!(threads_used(8, || ()).iter().all(|&id| id == caller));
    std::env::remove_var("CPM_THREADS");
}

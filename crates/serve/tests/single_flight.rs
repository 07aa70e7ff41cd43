//! Single-flight guarantee: N threads racing the same cold key trigger exactly
//! one design solve; everyone else blocks on the in-flight entry and receives
//! the shared result.

use std::sync::{Arc, Barrier};

use cpm_core::{Alpha, Property, PropertySet};
use cpm_serve::prelude::*;

/// A key whose design requires a real LP solve (the paper's WM), so the race
/// window is wide enough for every thread to arrive while the solve runs.
fn cold_wm_key() -> SpecKey {
    SpecKey::new(
        8,
        Alpha::new(0.9).unwrap(),
        PropertySet::empty().with(Property::ColumnMonotonicity),
    )
}

#[test]
fn racing_threads_trigger_exactly_one_design_solve() {
    let threads = 8;
    let cache = Arc::new(DesignCache::new(16));
    let key = cold_wm_key();
    let barrier = Arc::new(Barrier::new(threads));

    let designs: Vec<Arc<DesignedMechanism>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    cache.get(&key).expect("the WM design must succeed")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one SolveStats-carrying design solve happened, no matter how many
    // requesters raced the cold key.
    let stats = cache.stats();
    assert_eq!(stats.design_solves, 1, "stats: {stats:?}");
    assert_eq!(stats.lp_solves, 1, "the WM key requires the simplex");
    assert_eq!(stats.misses, 1, "only the winner counts as a miss");
    assert_eq!(
        stats.hits + stats.coalesced,
        threads as u64 - 1,
        "every loser either coalesced onto the flight or hit the fresh entry"
    );
    assert_eq!(stats.entries, 1);

    // Everyone holds the *same* design (pointer-identical, solved once).
    for design in &designs {
        assert!(Arc::ptr_eq(design, &designs[0]));
    }
    let solver_stats = designs[0]
        .solver_stats()
        .expect("an LP-designed mechanism carries its SolveStats");
    assert!(solver_stats.pivots() > 0);
}

#[test]
fn racing_engine_batches_share_one_design() {
    // The same guarantee one level up: concurrent privatize_batch calls on a
    // shared engine, all needing the same cold key.
    let threads = 6;
    let engine = Arc::new(Engine::with_defaults());
    let key = cold_wm_key();
    let barrier = Arc::new(Barrier::new(threads));

    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let requests: Vec<Request> =
                    (0..64).map(|i| Request::new(key, (i + t) % 9)).collect();
                barrier.wait();
                let outcome = engine.privatize_batch(&requests).unwrap();
                assert_eq!(outcome.outputs.len(), 64);
                assert!(outcome.outputs.iter().all(|&o| o <= 8));
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.design_solves, 1, "stats: {stats:?}");
    assert_eq!(stats.lp_solves, 1);
}

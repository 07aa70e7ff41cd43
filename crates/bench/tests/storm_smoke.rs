//! Release-mode design-storm smoke test: the socket benchmark's storm key
//! list (WM n = 64, a WM α sweep at n = 48, L1 and L2 at n = 96), warmed
//! through one `DesignCache` one key per call, must take each key's own seed
//! — the GM crash basis or the basis lifted from the BASICDP relaxation —
//! and stay within a pivot and wall-clock budget.  A design that walks cold
//! (6 018 pivots for the α = 0.915 key when its seed is lost) fails here.
//!
//! `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI runs it
//! explicitly with
//! `cargo test --release -p cpm-bench --test storm_smoke -- --ignored`.

use std::time::{Duration, Instant};

use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};
use cpm_serve::DesignCache;

/// Per-key pivot budget (the slowest lifted key measures ~400).
const MAX_PIVOTS_PER_KEY: usize = 1_000;
/// Storm pivot budget (the lifted route measures ~3 020).
const MAX_PIVOTS_TOTAL: usize = 3_500;
const MAX_WALL: Duration = Duration::from_secs(15);

fn key(n: usize, alpha: f64, properties: &str, objective: ObjectiveKey) -> SpecKey {
    let properties: PropertySet = properties.parse().expect("property names are valid");
    SpecKey::with_objective(n, Alpha::new(alpha).unwrap(), properties, objective)
}

/// The storm in warm order, as `perfbench`'s `gen::storm_keys` lists it.
fn storm_keys() -> Vec<SpecKey> {
    let mut keys = vec![key(64, 0.9, "WH+CM", ObjectiveKey::L0)];
    keys.extend((0..8).map(|i| key(48, 0.880 + 0.005 * i as f64, "WH+CM", ObjectiveKey::L0)));
    keys.push(key(96, 0.9, "", ObjectiveKey::L1));
    keys.push(key(96, 0.9, "", ObjectiveKey::L2));
    keys
}

#[test]
#[ignore = "release-mode storm smoke test; run explicitly (see CI workflow)"]
fn storm_keys_design_from_their_own_seeds_within_budget() {
    let cache = DesignCache::new(64);
    let started = Instant::now();
    let mut total = 0;
    for key in storm_keys() {
        let designs = cache.warm(&[key]).expect("storm key designs");
        let stats = designs[0].solver_stats().expect("every storm key is an LP");
        let pivots = stats.pivots();
        eprintln!(
            "{key}: {pivots} pivots ({}), warm-started {}",
            stats.form, stats.warm_started
        );
        assert!(stats.warm_started, "{key} must start from its own seed");
        assert!(
            pivots <= MAX_PIVOTS_PER_KEY,
            "{key}: {pivots} pivots > {MAX_PIVOTS_PER_KEY}"
        );
        total += pivots;
    }
    let wall = started.elapsed();
    eprintln!("storm: {total} pivots in {wall:.2?}");
    assert!(
        total <= MAX_PIVOTS_TOTAL,
        "storm: {total} pivots > {MAX_PIVOTS_TOTAL}"
    );
    assert!(wall < MAX_WALL, "storm took {wall:.2?}");
}

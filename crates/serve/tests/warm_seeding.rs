//! The serving side of dual-simplex warm starts:
//!
//! * family seeding — a cold key's LP is seeded from the nearest resident
//!   α-neighbour, observable through `CacheStats::warm_seeded`;
//! * `warm()` α-sweep chaining — one cold solve, the rest seeded;
//! * snapshot compatibility — a pinned PR-4-era (pre-basis) snapshot still
//!   loads, a spec whose solver options name since-deleted knobs still
//!   designs, a basis-bearing snapshot loads on builds that ignore the
//!   field (unknown fields are skipped by the deserialiser), and a design
//!   whose basis was written for the full-space program (before designs
//!   solved over reflection orbits) still serves, while its basis is
//!   declined as a seed — unless S made presolve reduce the full program to
//!   the orbit program, where it still fits;
//! * concurrent merging savers — the advisory `.lock` closes the
//!   read-modify-write race on a shared `CPM_WARM_FILE`.

use std::sync::Arc;

use cpm_core::lp::DesignProblem;
use cpm_core::{
    Alpha, DesignedMechanism, MechanismSpec, Objective, ObjectiveKey, Property, PropertySet,
    SpecKey,
};
use cpm_serve::cache::DesignCache;
use cpm_simplex::LpForm;

fn a(v: f64) -> Alpha {
    Alpha::new(v).unwrap()
}

/// A key in the WM family (WH + CM at strong privacy forces the LP).
fn wm_key(n: usize, alpha: f64) -> SpecKey {
    SpecKey::new(
        n,
        a(alpha),
        PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity),
    )
}

#[test]
fn cold_keys_seed_from_the_nearest_resident_alpha_neighbour() {
    let cache = DesignCache::new(16);
    let donor = wm_key(8, 0.90);
    cache.get(&donor).unwrap();
    assert_eq!(cache.stats().warm_seeded, 0, "first key has no neighbour");

    let neighbour = wm_key(8, 0.905);
    let design = cache.get(&neighbour).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.warm_seeded, 1, "the α-neighbour seeds the solve");
    assert!(design.used_lp());
    assert!(design.mechanism().satisfies_dp(a(0.905), 1e-6));
    assert!(design.requested_satisfied());

    // A different family (same n, different properties) must not be seeded
    // from the WM designs.
    let other_family = SpecKey::new(8, a(0.902), PropertySet::empty().with(Property::Fairness));
    cache.get(&other_family).unwrap();
    assert_eq!(
        cache.stats().warm_seeded,
        1,
        "cross-family keys never seed from each other"
    );
}

#[test]
fn seeded_designs_match_cold_designs_on_score_and_properties() {
    let seeded = DesignCache::new(16);
    seeded.get(&wm_key(8, 0.90)).unwrap();
    let warm = seeded.get(&wm_key(8, 0.91)).unwrap();
    assert_eq!(seeded.stats().warm_seeded, 1);

    let cold_cache = DesignCache::new(16);
    cold_cache.set_family_seeding(false);
    cold_cache.get(&wm_key(8, 0.90)).unwrap();
    let cold = cold_cache.get(&wm_key(8, 0.91)).unwrap();
    assert_eq!(cold_cache.stats().warm_seeded, 0, "seeding disabled");

    assert!((warm.score() - cold.score()).abs() < 1e-9);
    assert!(warm.requested_satisfied() && cold.requested_satisfied());
}

#[test]
fn warm_sweeps_chain_alpha_neighbours_within_a_family() {
    let cache = DesignCache::new(32);
    // Deliberately unsorted α sweep plus one foreign family member.
    let keys = vec![
        wm_key(8, 0.93),
        wm_key(8, 0.90),
        SpecKey::new(8, a(0.9), PropertySet::empty()),
        wm_key(8, 0.92),
        wm_key(8, 0.91),
    ];
    let designs = cache.warm(&keys).unwrap();
    assert_eq!(designs.len(), keys.len());
    // Results come back in key order regardless of the sweep's sort.
    for (key, design) in keys.iter().zip(&designs) {
        assert_eq!(design.key(), *key);
    }
    let stats = cache.stats();
    assert_eq!(stats.design_solves, 5);
    // The WM family pays one cold solve; its three other members are seeded
    // (the GM key is closed-form and alone in its family).
    assert_eq!(stats.warm_seeded, 3, "sweep chains warm starts: {stats:?}");
}

#[test]
fn eviction_and_clear_prune_the_family_index() {
    // Single stripe, capacity 1: designing a second family member evicts the
    // first; the index must follow, so the evicted key cannot seed anyone.
    let cache = DesignCache::with_shards(1, 1);
    cache.get(&wm_key(8, 0.90)).unwrap();
    cache.get(&wm_key(8, 0.905)).unwrap();
    assert_eq!(cache.stats().warm_seeded, 1);
    assert_eq!(cache.stats().evictions, 1);

    cache.clear();
    // With the index cleared, the next design has no neighbour to seed from.
    cache.get(&wm_key(8, 0.907)).unwrap();
    assert_eq!(
        cache.stats().warm_seeded,
        1,
        "a cleared cache must not seed from evicted designs"
    );
}

/// A PR-4-era snapshot entry, serialised before `DesignedMechanism` carried a
/// `basis` field (and before `SolveStats` carried `dual_iterations` /
/// `warm_started`): the WH-LP design for n = 2, α = 0.9.  Pinned as a literal
/// so the compatibility contract survives serialiser refactors.
const PRE_BASIS_FIXTURE: &str = r#"[{"spec":{"n":2,"alpha":0.9,"properties":"{WH}","objective":"L0","tolerance":0.000001,"solver":null},"choice":"WeakHonestLp","mechanism":{"n":2,"entries":[0.3703703703703704,0.33333333333333337,0.30000000000000004,0.3296296296296295,0.3333333333333333,0.3296296296296295,0.30000000000000004,0.33333333333333337,0.3703703703703704]},"solver_stats":{"phase1_iterations":15,"phase2_iterations":0,"degenerate_pivots":11,"bland_activations":0,"artificial_variables":10,"refactorizations":2,"basis_updates":15,"basis_repairs":0,"devex_resets":0,"backend":"SparseRevised"},"report":{"satisfied":[["RH",true],["RM",true],["CH",true],["CM",true],["F",false],["WH",true],["S",true]]},"score":0.9629629629629629,"design_nanos":511588}]"#;

#[test]
fn pre_basis_snapshots_still_load() {
    // Directly as an artifact: the missing basis defaults to None.
    let designs: Vec<DesignedMechanism> =
        serde_json::from_str(PRE_BASIS_FIXTURE).expect("PR-4 snapshot parses");
    assert_eq!(designs.len(), 1);
    assert!(designs[0].optimal_basis().is_none());
    assert!(designs[0].solver_stats().is_some());

    // And through the cache loader: resident and servable.
    let cache = DesignCache::new(8);
    let loaded = cache
        .load_snapshot(&mut PRE_BASIS_FIXTURE.as_bytes())
        .expect("PR-4 snapshot loads");
    assert_eq!(loaded, 1);
    let key = SpecKey::new(2, a(0.9), PropertySet::empty().with(Property::WeakHonesty));
    assert!(cache.peek(&key).is_some(), "restored design is resident");
}

/// A `MechanismSpec` serialised while `SolveOptions` still carried its
/// pivot-rule, pricing, partial-pricing, backend, refactor-interval and
/// repair-budget knobs (the WM design for n = 4, α = 0.9, with the then
/// default options, which priced Phase 2 with Devex).  Pinned as a literal so
/// the compatibility contract survives serialiser refactors.
const DELETED_OPTIONS_FIXTURE: &str = r#"{"n":4,"alpha":0.9,"properties":"{RM, CM, WH}","objective":"L0","tolerance":0.000001,"solver":{"max_iterations":500000,"tolerance":0.000000001,"pivot_rule":{"Hybrid":{"degenerate_threshold":64}},"backend":"SparseRevised","refactor_interval":64,"pricing":"Devex","partial_pricing":0,"max_repairs":2,"warm_basis":null,"presolve":true,"form":"Auto"}}"#;

#[test]
fn specs_naming_deleted_solver_options_still_design() {
    let spec: MechanismSpec =
        serde_json::from_str(DELETED_OPTIONS_FIXTURE).expect("old solver options parse");
    let options = spec.solver_options().expect("the solver override survives");
    assert_eq!(options.max_iterations, 500_000);
    assert_eq!(options.tolerance, 1e-9);
    assert_eq!(options.warm_basis, None);
    assert!(options.presolve);
    assert_eq!(options.form, LpForm::Auto);

    // The deleted knobs are ignored, so the override is today's route and
    // designs exactly what the spec without an override designs.
    let designed = spec.design().expect("the old spec designs");
    let plain = spec.key().spec().design().unwrap();
    assert!(designed.requested_satisfied());
    assert_eq!(designed.choice(), plain.choice());
    assert_eq!(designed.mechanism().entries(), plain.mechanism().entries());
}

#[test]
fn basis_bearing_snapshots_load_on_builds_that_ignore_the_field() {
    // A snapshot written by this build carries the basis; the deserialiser
    // skips unknown fields, so a build that has never heard of `basis` (or of
    // any future field) still loads it.  Simulate the future-field case by
    // injecting one.
    let cache = DesignCache::new(8);
    cache.get(&wm_key(6, 0.9)).unwrap();
    let mut snapshot = Vec::new();
    cache.save_snapshot(&mut snapshot).unwrap();
    let text = String::from_utf8(snapshot).unwrap();
    assert!(
        text.contains("\"basis\":["),
        "new snapshots carry the basis"
    );

    let with_future_field = text.replacen("{\"spec\"", "{\"future_field\":42,\"spec\"", 1);
    let fresh = DesignCache::new(8);
    let loaded = fresh
        .load_snapshot(&mut with_future_field.as_bytes())
        .expect("unknown fields are ignored");
    assert_eq!(loaded, 1);
    let restored = fresh.peek(&wm_key(6, 0.9)).expect("resident");
    assert!(
        restored.optimal_basis().is_some(),
        "the basis survives the round trip"
    );
}

/// The optimal basis the full-space program of `key`'s LP reports — what a
/// snapshot written before designs solved over reflection orbits stores.
fn full_space_basis(key: &SpecKey, properties: PropertySet) -> Vec<usize> {
    let problem = DesignProblem::constrained(
        key.n,
        key.alpha_value(),
        key.objective.to_objective(),
        properties,
    );
    let (full, _) = problem.build_full_lp().unwrap();
    full.solve_with(&problem.recommended_options())
        .unwrap()
        .optimal_basis
        .expect("the full program reports a basis")
}

/// Design `key`, write a snapshot whose basis is replaced by `basis`, and
/// load it into a fresh cache.  The restored design must serve the stored
/// matrix bit-exactly, without a solve.
fn restore_with_basis(key: &SpecKey, basis: &[usize]) -> DesignCache {
    let cache = DesignCache::new(8);
    let stored = cache.get(key).unwrap();
    let mut snapshot = Vec::new();
    cache.save_snapshot(&mut snapshot).unwrap();
    let text = String::from_utf8(snapshot).unwrap();
    let basis_json = |basis: &[usize]| {
        format!(
            "\"basis\":{}",
            serde_json::to_string(&basis.to_vec()).unwrap()
        )
    };
    let written = basis_json(stored.optimal_basis().expect("an LP design has a basis"));
    assert!(text.contains(&written), "the snapshot stores the basis");
    let older = text.replacen(&written, &basis_json(basis), 1);

    let fresh = DesignCache::new(8);
    assert_eq!(fresh.load_snapshot(&mut older.as_bytes()).unwrap(), 1);
    let restored = fresh.get(key).unwrap();
    assert_eq!(restored.optimal_basis(), Some(basis));
    assert_eq!(
        restored.mechanism().entries(),
        stored.mechanism().entries(),
        "the stored matrix is served bit-exactly"
    );
    assert_eq!(fresh.stats().lp_solves, 0, "restored, not re-solved");
    fresh
}

/// A snapshot written before designs solved over reflection orbits stores
/// full-space bases.  The WM-L2 closure `{CH, CM, WH}` has no S, so its full
/// program is about twice the orbit program's size after presolve: the stale
/// basis is offered to an α-neighbour, declined, and the neighbour is
/// exactly the orbit program's cold design.
#[test]
fn full_space_bases_from_older_snapshots_are_declined_as_seeds() {
    let key =
        |alpha| SpecKey::with_objective(8, a(alpha), wm_key(8, alpha).properties, ObjectiveKey::L2);
    let closure = key(0.9).properties.closure();
    let stale = full_space_basis(&key(0.9), closure);
    let cache = restore_with_basis(&key(0.9), &stale);

    let neighbour = cache.get(&key(0.905)).unwrap();
    assert_eq!(cache.stats().warm_seeded, 1, "the stale basis is offered");
    let stats = neighbour.solver_stats().expect("WM-L2 runs the simplex");
    assert!(
        !stats.warm_started,
        "a full-space seed must be declined: {stats:?}"
    );
    let cold = DesignProblem::constrained(8, a(0.905), Objective::l2(), closure)
        .with_crash_seed(false)
        .solve()
        .unwrap();
    assert_ne!(stale.len(), cold.optimal_basis.unwrap().len());
    assert_eq!(neighbour.mechanism().entries(), cold.mechanism.entries());
}

/// The L0 WM key's full program carries S, and presolve aliases S's rows
/// down to exactly the orbit program — so a stale full-space basis still
/// fits the orbit program and seeds the α-neighbour like a fresh one.
#[test]
fn full_space_bases_of_s_programs_still_fit_the_orbit_program() {
    let wm_closure = PropertySet::empty()
        .with(Property::WeakHonesty)
        .with(Property::RowMonotonicity)
        .with(Property::ColumnMonotonicity)
        .with(Property::Symmetry);
    let stale = full_space_basis(&wm_key(8, 0.9), wm_closure);
    let (orbit, _) = DesignProblem::constrained(8, a(0.9), Objective::l0(), wm_closure)
        .build_lp()
        .unwrap();
    let cold_orbit = orbit.solve().unwrap().optimal_basis.unwrap();
    assert_eq!(stale, cold_orbit, "the same presolved program");

    let cache = restore_with_basis(&wm_key(8, 0.9), &stale);
    let neighbour = cache.get(&wm_key(8, 0.905)).unwrap();
    assert_eq!(cache.stats().warm_seeded, 1);
    assert!(neighbour.solver_stats().unwrap().warm_started);
    let unseeded = DesignCache::new(8).get(&wm_key(8, 0.905)).unwrap();
    assert!((neighbour.score() - unseeded.score()).abs() < 1e-12);
}

#[test]
fn concurrent_merging_savers_do_not_drop_each_others_designs() {
    let path =
        std::env::temp_dir().join(format!("cpm-concurrent-merge-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Eight caches, each resident with a distinct key, all merging into one
    // file concurrently.  Without the `.lock` serialisation two savers can
    // interleave between read and rename and silently drop entries.
    let savers = 8usize;
    let caches: Vec<Arc<DesignCache>> = (0..savers)
        .map(|i| {
            let cache = Arc::new(DesignCache::new(4));
            cache
                .get(&SpecKey::new(2 + i, a(0.5), PropertySet::empty()))
                .unwrap();
            cache
        })
        .collect();
    let handles: Vec<_> = caches
        .iter()
        .map(|cache| {
            let cache = Arc::clone(cache);
            let path = path.clone();
            std::thread::spawn(move || cache.save_snapshot_file_merging(&path).unwrap())
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let check = DesignCache::new(64);
    let loaded = check.load_snapshot_file(&path).unwrap();
    assert_eq!(
        loaded, savers,
        "every saver's design survives the concurrent merge"
    );
    let mut lock_name = path.as_os_str().to_owned();
    lock_name.push(".lock");
    assert!(
        !std::path::PathBuf::from(lock_name).exists(),
        "the advisory lock is released"
    );
    let _ = std::fs::remove_file(&path);
}

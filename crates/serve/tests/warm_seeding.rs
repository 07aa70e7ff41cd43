//! Warming the serving cache:
//!
//! * warm order — a key's design is a function of the key alone, so warming
//!   an α sweep in any order, one key per call or all in one call, serves
//!   exactly the matrix `key.spec().design()` computes on its own;
//! * snapshot compatibility — a pinned PR-4-era (pre-basis) snapshot still
//!   loads, a spec whose solver options name since-deleted knobs still
//!   designs, a pinned snapshot from the releases whose designs carried their
//!   LP basis still loads and serves its stored matrix, and new snapshots
//!   carry no basis;
//! * concurrent merging savers — the advisory `.lock` closes the
//!   read-modify-write race on a shared `CPM_WARM_FILE`.

use std::sync::Arc;

use cpm_core::{Alpha, DesignedMechanism, MechanismSpec, Property, PropertySet, SpecKey};
use cpm_serve::cache::DesignCache;

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

/// The WM-L0 n = 8 α sweep 0.880, 0.885, …, 0.915.
fn wm_sweep() -> Vec<SpecKey> {
    (0..8)
        .map(|i| wm_key(8, 0.880 + 0.005 * i as f64))
        .collect()
}

/// Every design in `designs` is bit-identical to its key designed alone.
fn assert_designed_alone(designs: &[Arc<DesignedMechanism>], order: &str) {
    for design in designs {
        let alone = design.key().spec().design().unwrap();
        assert!(design.used_lp(), "{}: the WM key runs the LP", design.key());
        assert_eq!(
            design.mechanism().entries(),
            alone.mechanism().entries(),
            "{order}: {} differs from its design alone",
            design.key()
        );
    }
}

#[test]
fn warm_order_does_not_change_any_design() {
    let sweep = wm_sweep();
    for (order, keys) in [
        ("ascending", sweep.clone()),
        ("descending", sweep.iter().rev().copied().collect()),
    ] {
        let cache = DesignCache::new(16);
        let designs: Vec<_> = keys
            .iter()
            .map(|key| cache.warm(&[*key]).unwrap().remove(0))
            .collect();
        assert_designed_alone(&designs, order);
    }

    // One call over an unsorted sweep plus a closed-form key: the designs
    // come back in key order.
    let mut keys: Vec<SpecKey> = [3, 0, 6, 1, 7, 4, 2, 5].map(|i| sweep[i]).to_vec();
    keys.insert(4, SpecKey::new(8, a(0.9), PropertySet::empty()));
    let cache = DesignCache::new(16);
    let designs = cache.warm(&keys).unwrap();
    for (key, design) in keys.iter().zip(&designs) {
        assert_eq!(design.key(), *key);
    }
    let lp: Vec<_> = designs.into_iter().filter(|d| d.used_lp()).collect();
    assert_eq!(lp.len(), sweep.len());
    assert_designed_alone(&lp, "one call");
}

/// A PR-4-era snapshot entry, serialised before `DesignedMechanism` carried a
/// `basis` field (and before `SolveStats` carried `dual_iterations` /
/// `warm_started`): the WH-LP design for n = 2, α = 0.9.  Pinned as a literal
/// so the compatibility contract survives serialiser refactors.
const PRE_BASIS_FIXTURE: &str = r#"[{"spec":{"n":2,"alpha":0.9,"properties":"{WH}","objective":"L0","tolerance":0.000001,"solver":null},"choice":"WeakHonestLp","mechanism":{"n":2,"entries":[0.3703703703703704,0.33333333333333337,0.30000000000000004,0.3296296296296295,0.3333333333333333,0.3296296296296295,0.30000000000000004,0.33333333333333337,0.3703703703703704]},"solver_stats":{"phase1_iterations":15,"phase2_iterations":0,"degenerate_pivots":11,"bland_activations":0,"artificial_variables":10,"refactorizations":2,"basis_updates":15,"basis_repairs":0,"devex_resets":0,"backend":"SparseRevised"},"report":{"satisfied":[["RH",true],["RM",true],["CH",true],["CM",true],["F",false],["WH",true],["S",true]]},"score":0.9629629629629629,"design_nanos":511588}]"#;

#[test]
fn pre_basis_snapshots_still_load() {
    // Directly as an artifact.
    let designs: Vec<DesignedMechanism> =
        serde_json::from_str(PRE_BASIS_FIXTURE).expect("PR-4 snapshot parses");
    assert_eq!(designs.len(), 1);
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
    // The `"solver"` field is ignored: the spec is its key's spec, and designs
    // exactly what that spec designs.
    let plain = spec.key().spec();
    assert_eq!(spec, plain);
    let designed = spec.design().expect("the old spec designs");
    let reference = plain.design().unwrap();
    assert!(designed.requested_satisfied());
    assert_eq!(designed.choice(), reference.choice());
    assert_eq!(
        designed.mechanism().entries(),
        reference.mechanism().entries()
    );
}

/// A snapshot written while designs carried the optimal basis of their LP
/// solve (the WM design for n = 4, α = 0.9).  Pinned as a literal so the
/// compatibility contract survives serialiser refactors.
const BASIS_FIXTURE: &str = r#"[{"spec":{"n":4,"alpha":0.9,"properties":"{CM, WH}","objective":"L0","tolerance":0.000001,"solver":null},"choice":"WeakHonestColumnMonotoneLp","mechanism":{"n":4,"entries":[0.2469135802469136,0.2222222222222222,0.19999999999999998,0.18436213991769546,0.18436213991769548,0.20000000000000004,0.2222222222222222,0.2,0.18436213991769546,0.18436213991769548,0.18436213991769548,0.18683127572016467,0.2,0.18683127572016467,0.18436213991769548,0.18436213991769548,0.18436213991769546,0.2,0.2222222222222222,0.20000000000000004,0.18436213991769548,0.18436213991769546,0.19999999999999998,0.2222222222222222,0.2469135802469136]},"solver_stats":{"phase1_iterations":0,"phase2_iterations":0,"degenerate_pivots":0,"bland_activations":0,"artificial_variables":0,"refactorizations":3,"basis_updates":6,"basis_repairs":0,"steepest_edge_resets":0,"bound_flips":0,"presolve_rows_removed":3,"presolve_cols_removed":0,"dual_iterations":6,"warm_started":true,"form":"Primal"},"report":{"satisfied":[["RH",true],["RM",true],["CH",true],["CM",true],["F",false],["WH",true],["S",true]]},"score":0.9654320987654321,"design_nanos":654105,"basis":[10,11,7,13,0,15,2,17,18,19,20,5,22,23,6,25,26,27,28,29,30,31,32,33,34,35,3,37,38,39,40,41,42,43,44,9,4,1,48,49,8,51,12]}]"#;

#[test]
fn basis_bearing_snapshots_load_on_builds_that_ignore_the_field() {
    assert!(BASIS_FIXTURE.contains("\"basis\":["));
    let stored: Vec<DesignedMechanism> = serde_json::from_str(BASIS_FIXTURE).unwrap();
    let cache = DesignCache::new(8);
    assert_eq!(
        cache.load_snapshot(&mut BASIS_FIXTURE.as_bytes()).unwrap(),
        1
    );
    let key = wm_key(4, 0.9);
    let served = cache.get(&key).unwrap();
    assert_eq!(
        served.mechanism().entries(),
        stored[0].mechanism().entries(),
        "the stored matrix is served bit-exactly"
    );
    assert_eq!(cache.stats().lp_solves, 0, "restored, not re-solved");
    let designed = key.spec().design().unwrap();
    assert!((served.score() - designed.score()).abs() < 1e-12);

    // New snapshots carry no basis, and the deserialiser skips unknown
    // fields, so a field added later does not break loading either.
    let mut snapshot = Vec::new();
    cache.save_snapshot(&mut snapshot).unwrap();
    let text = String::from_utf8(snapshot).unwrap();
    assert!(!text.contains("\"basis\""), "new snapshots carry no basis");
    let with_future_field = text.replacen("{\"spec\"", "{\"future_field\":42,\"spec\"", 1);
    let fresh = DesignCache::new(8);
    let loaded = fresh
        .load_snapshot(&mut with_future_field.as_bytes())
        .expect("unknown fields are ignored");
    assert_eq!(loaded, 1);
    assert!(fresh.peek(&key).is_some());
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

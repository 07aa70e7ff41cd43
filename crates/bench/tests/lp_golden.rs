//! Release-mode golden test for the LP trajectories serving runs.  Every LP
//! key of the socket benchmark's three key sets (`perfbench`'s
//! `probe_keys`, `collect_keys` and `storm_keys`: the WH and CM probe keys,
//! the two n = 32 WM collect keys, the WM storm sweep and the n = 96 L1/L2
//! keys) is designed on its own through `SpecKey::spec().design()`, and must
//! reproduce its pinned pivot count (relaxation included), refactorisation
//! count and FNV-1a hash of the designed matrix's f64 bits.
//!
//! The pins make "this change keeps every trajectory bit-identical" a
//! checked claim.  A change that moves a trajectory on purpose (pricing,
//! ratio test, factorisation cadence, the program the builder emits,
//! seeding) re-pins the table from the failure message, which prints every
//! key's actual row, and says why in its description.
//!
//! A second test pins the route of the designs no seed fits: every property
//! set with F (64 of them) under the L1 and L2 objectives at α = 0.9,
//! n ∈ {12, 16}, and at α = 0.99, n ∈ {10, 12}.  They are reachable over the
//! wire and walk the cold two-phase primal route, which the perfbench keys
//! above never take.
//!
//! `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI runs
//! both explicitly with
//! `cargo test --release -p cpm-bench --test lp_golden -- --ignored`.

use cpm_core::properties::Property;
use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};

fn key(n: usize, alpha: f64, properties: &str, objective: ObjectiveKey) -> SpecKey {
    let properties: PropertySet = properties.parse().expect("property names are valid");
    SpecKey::with_objective(n, Alpha::new(alpha).unwrap(), properties, objective)
}

/// `perfbench`'s `probe_keys`, `collect_keys` and `storm_keys`, in that
/// order, built as `perfbench/src/gen.rs` builds them (the storm's α values
/// are computed, not written out, so their bits match).
fn perfbench_keys() -> Vec<SpecKey> {
    let probe_properties = ["", "WH", "CM", "F"];
    let mut keys: Vec<SpecKey> = (0..16)
        .map(|rank| {
            let n = [32, 16, 24, 8, 12][rank % 5];
            key(n, 0.9, probe_properties[rank % 4], ObjectiveKey::L0)
        })
        .collect();
    keys.push(key(32, 0.9, "", ObjectiveKey::L0));
    keys.push(key(128, 0.9, "", ObjectiveKey::L0));
    keys.push(key(32, 0.9, "WH+CM", ObjectiveKey::L0));
    keys.push(key(32, 0.9, "WH+CM", ObjectiveKey::L2));
    keys.push(key(64, 0.9, "WH+CM", ObjectiveKey::L0));
    keys.extend((0..8).map(|i| key(48, 0.880 + 0.005 * i as f64, "WH+CM", ObjectiveKey::L0)));
    keys.push(key(96, 0.9, "", ObjectiveKey::L1));
    keys.push(key(96, 0.9, "", ObjectiveKey::L2));
    keys
}

/// `(pivots, refactorisations, matrix hash)` of each LP key of
/// [`perfbench_keys`], in order; the closed-form keys are skipped.
///
/// Last re-pinned when the steepest-edge weight update dropped its cross
/// term (the bounded BTRAN of the masked entering column and its row pass):
/// every Phase-2 pivot now updates the weights the way an abandoned cross
/// term already did, so the keys whose attempts had succeeded walk new
/// paths.  Summed pivots went 4 008 → 3 957.  The seven rows that kept
/// their pins had never used a cross term: the WH keys and n = 12 `{CM}`
/// finish in the warm start's dual simplex, and on the n = 32 WM-L2 collect
/// key and the n = 96 L1/L2 keys every cross-term BTRAN was abandoned.
/// Each of the thirteen moved rows had used 1 to 102.  A moved hash is
/// another optimal vertex of a program with tied optima.
const GOLDEN: [(usize, usize, u64); 20] = [
    // probe_keys
    (10, 3, 0xa9bc_7910_ba77_1279),  // (n=16, α=0.9, {WH}, L0)
    (186, 9, 0xfe4a_2f77_e1ca_6154), // (n=24, α=0.9, {CM}, L0)
    (130, 8, 0x9931_8c11_cde0_6e1b), // (n=16, α=0.9, {CM}, L0)
    (18, 3, 0x63d1_a525_660a_90c3),  // (n=12, α=0.9, {WH}, L0)
    (191, 9, 0xe3da_79e1_d6a5_0e59), // (n=32, α=0.9, {CM}, L0)
    (12, 3, 0x2c9e_947e_7796_d753),  // (n=8, α=0.9, {WH}, L0)
    (55, 4, 0xc832_c9d7_bd82_a14b),  // (n=12, α=0.9, {CM}, L0)
    // collect_keys
    (191, 9, 0xe3da_79e1_d6a5_0e59),  // (n=32, α=0.9, {CM, WH}, L0)
    (195, 10, 0x7ba6_6e64_3ecf_e6df), // (n=32, α=0.9, {CM, WH}, L2)
    // storm_keys
    (412, 10, 0xbdd9_b89b_9f4a_b0d6), // (n=64, α=0.9, {CM, WH}, L0)
    (231, 10, 0xb37e_5819_65d7_ea47), // (n=48, α=0.88, {CM, WH}, L0)
    (226, 10, 0x432e_ccb5_2347_75ad), // (n=48, α=0.885, {CM, WH}, L0)
    (272, 11, 0x3822_927d_8da0_b8ea), // (n=48, α=0.89, {CM, WH}, L0)
    (263, 11, 0x79ef_1819_d67e_3ed7), // (n=48, α=0.895, {CM, WH}, L0)
    (289, 11, 0xeb27_9513_947e_0c4a), // (n=48, α=0.9, {CM, WH}, L0)
    (335, 13, 0xf8e0_d322_d495_1214), // (n=48, α=0.905, {CM, WH}, L0)
    (342, 13, 0x97ec_80d0_27a6_6c9c), // (n=48, α=0.91, {CM, WH}, L0)
    (442, 15, 0x9893_b654_fba6_461a), // (n=48, α=0.915, {CM, WH}, L0)
    (49, 2, 0x1ebf_b0b4_aaba_604c),   // (n=96, α=0.9, {}, L1)
    (108, 2, 0xec18_9dfd_bc90_8828),  // (n=96, α=0.9, {}, L2)
];

/// FNV-1a over the matrix entries' f64 bit patterns, one 64-bit word per
/// entry, in row-major order.
fn matrix_hash(entries: &[f64]) -> u64 {
    entries.iter().fold(0xcbf2_9ce4_8422_2325, |hash, entry| {
        (hash ^ entry.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
#[ignore = "release-mode golden test; run explicitly (see CI workflow)"]
fn perfbench_lp_keys_keep_their_trajectories() {
    let mut actual = Vec::new();
    let mut rows = Vec::new();
    for key in perfbench_keys() {
        let designed = key.spec().design().expect("perfbench keys design");
        let Some(stats) = designed.solver_stats() else {
            continue;
        };
        let pin = (
            stats.pivots(),
            stats.refactorizations,
            matrix_hash(designed.mechanism().entries()),
        );
        rows.push(format!(
            "    ({}, {}, {:#018x}), // {key}",
            pin.0, pin.1, pin.2
        ));
        actual.push(pin);
    }
    assert!(
        actual == GOLDEN,
        "LP trajectories moved; actual rows:\n{}",
        rows.join("\n")
    );
}

/// `(n, α, summed pivots)` of the 64 F sets × {L1, L2} (an F set has no
/// relaxation to seed it, so these are the cold walks alone).  At α = 0.99
/// the cold route has stalled on the full program's degenerate bases (see
/// `lift_differential`'s `COLD_ROUTE_CYCLES`).
const F_SET_PIVOTS: [(usize, f64, usize); 4] = [
    (12, 0.9, 25_694),
    (16, 0.9, 36_350),
    (10, 0.99, 17_808),
    (12, 0.99, 28_002),
];

#[test]
#[ignore = "release-mode golden test; run explicitly (see CI workflow)"]
fn f_sets_keep_their_cold_route() {
    let others: Vec<Property> = Property::ALL
        .into_iter()
        .filter(|&property| property != Property::Fairness)
        .collect();
    let mut actual = Vec::new();
    let mut failures = Vec::new();
    for (n, alpha, _) in F_SET_PIVOTS {
        let mut pivots = 0;
        for subset in 0..1u32 << others.len() {
            let properties: PropertySet = others
                .iter()
                .enumerate()
                .filter(|&(bit, _)| subset & 1 << bit != 0)
                .map(|(_, &property)| property)
                .chain([Property::Fairness])
                .collect();
            for objective in [ObjectiveKey::L1, ObjectiveKey::L2] {
                let key =
                    SpecKey::with_objective(n, Alpha::new(alpha).unwrap(), properties, objective);
                match key.spec().design() {
                    Ok(designed) => {
                        pivots += designed
                            .solver_stats()
                            .expect("an F set is designed by LP")
                            .pivots();
                    }
                    Err(error) => failures.push(format!("{key}: {error}")),
                }
            }
        }
        actual.push((n, alpha, pivots));
    }
    assert!(
        failures.is_empty(),
        "F-set designs failed:\n{}",
        failures.join("\n")
    );
    assert_eq!(actual, F_SET_PIVOTS, "F-set routes moved");
}

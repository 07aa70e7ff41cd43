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
//! `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI runs it
//! explicitly with
//! `cargo test --release -p cpm-bench --test lp_golden -- --ignored`.

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
const GOLDEN: [(usize, usize, u64); 20] = [
    // probe_keys
    (10, 3, 0xa9bc_7910_ba77_1279),   // (n=16, α=0.9, {WH}, L0)
    (170, 9, 0xfe4a_2f77_e1ca_6154),  // (n=24, α=0.9, {CM}, L0)
    (129, 8, 0x0f05_90b2_b182_cb0b),  // (n=16, α=0.9, {CM}, L0)
    (18, 3, 0x63d1_a525_660a_90c3),   // (n=12, α=0.9, {WH}, L0)
    (193, 10, 0xd2c8_15e1_80fb_4132), // (n=32, α=0.9, {CM}, L0)
    (12, 3, 0x2c9e_947e_7796_d753),   // (n=8, α=0.9, {WH}, L0)
    (55, 4, 0xc832_c9d7_bd82_a14b),   // (n=12, α=0.9, {CM}, L0)
    // collect_keys
    (193, 10, 0xd2c8_15e1_80fb_4132), // (n=32, α=0.9, {CM, WH}, L0)
    (195, 10, 0x7ba6_6e64_3ecf_e6df), // (n=32, α=0.9, {CM, WH}, L2)
    // storm_keys
    (393, 9, 0xae9a_9cbc_16d0_e9e5),  // (n=64, α=0.9, {CM, WH}, L0)
    (226, 10, 0x7896_9c1a_c986_2c79), // (n=48, α=0.88, {CM, WH}, L0)
    (223, 10, 0x8092_a1da_7afe_1709), // (n=48, α=0.885, {CM, WH}, L0)
    (277, 11, 0x4c94_70f3_4807_653a), // (n=48, α=0.89, {CM, WH}, L0)
    (296, 11, 0x2d25_8b77_fe79_93bf), // (n=48, α=0.895, {CM, WH}, L0)
    (295, 11, 0x851d_3f8f_cc81_b40d), // (n=48, α=0.9, {CM, WH}, L0)
    (336, 13, 0xe61c_8de9_4958_5bdf), // (n=48, α=0.905, {CM, WH}, L0)
    (412, 15, 0x4f97_1dab_1e16_7c9a), // (n=48, α=0.91, {CM, WH}, L0)
    (418, 15, 0x2194_7c5d_027a_9562), // (n=48, α=0.915, {CM, WH}, L0)
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

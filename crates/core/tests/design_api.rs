//! Integration tests for the typed design path (`MechanismSpec` →
//! `DesignedMechanism`):
//!
//! 1. **Property tests** — `MechanismSpec` ↔ JSON ↔ `SpecKey` round trips are
//!    exact for randomly generated specs (bit-exact α, every property subset,
//!    every objective family member).
//! 2. **Golden compatibility** — the new API reproduces the pre-redesign
//!    pipeline (`select_mechanism` + closed forms / property-constrained LP +
//!    symmetrisation) **bit for bit** across all 128 property subsets at two
//!    `(n, α)` points, one in each privacy regime.

use cpm_core::prelude::*;
use proptest::prelude::*;

fn a(v: f64) -> Alpha {
    Alpha::new(v).unwrap()
}

/// The pre-redesign design pipeline, reconstructed from its public pieces: the
/// Figure-5 selection, the closed-form constructions, and the property-set LPs
/// (WH-LP solves with `{WH, RM, S}`, WM with `{WH, RM, CM, S}`), each LP result
/// symmetrised.  This is exactly what the pre-redesign free design function
/// did, so it is the golden reference the new path must match bit for bit.
fn golden_design(requested: PropertySet, n: usize, alpha: Alpha) -> (MechanismChoice, Mechanism) {
    let choice = select_mechanism(requested, n, alpha);
    let solve = |properties: PropertySet| {
        let solution = optimal_constrained(n, alpha, Objective::l0(), properties)
            .expect("golden LP must solve");
        symmetrize(&solution.mechanism)
    };
    let mechanism = match choice {
        MechanismChoice::Geometric => GeometricMechanism::new(n, alpha).unwrap().into_matrix(),
        MechanismChoice::ExplicitFair => {
            ExplicitFairMechanism::new(n, alpha).unwrap().into_matrix()
        }
        MechanismChoice::Uniform => UniformMechanism::new(n).unwrap().into_matrix(),
        MechanismChoice::WeakHonestLp => solve(
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::RowMonotonicity)
                .with(Property::Symmetry),
        ),
        MechanismChoice::WeakHonestColumnMonotoneLp => solve(
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::RowMonotonicity)
                .with(Property::ColumnMonotonicity)
                .with(Property::Symmetry),
        ),
    };
    (choice, mechanism)
}

/// All 128 property subsets at two `(n, α)` points: the strong-privacy regime
/// (α > 1/2, where the LP choices actually run the simplex) and the weak
/// regime (α ≤ 1/2, where everything short-circuits to GM/EM).  The new API
/// must reproduce the golden pipeline bit for bit.
#[test]
fn golden_all_128_subsets_reproduce_the_old_pipeline_bit_for_bit() {
    for (n, alpha) in [(3usize, a(0.85)), (4, a(0.5))] {
        for subset in PropertySet::power_set() {
            let (golden_choice, golden) = golden_design(subset, n, alpha);

            let designed = MechanismSpec::new(n, alpha)
                .properties(subset)
                .build()
                .unwrap()
                .design()
                .unwrap_or_else(|e| panic!("subset {subset} at n={n}: {e}"));
            assert_eq!(
                designed.choice(),
                Some(golden_choice),
                "subset {subset} at n={n}"
            );
            assert_eq!(
                designed.mechanism().entries(),
                golden.entries(),
                "subset {subset} at n={n}, α={alpha}: new API diverged from the \
                 pre-redesign pipeline"
            );
        }
    }
}

/// The designed artifact's serde round trip is exact for a representative of
/// every Figure-5 branch (closed forms and both LP choices).
#[test]
fn designed_mechanism_serde_round_trip_covers_every_flowchart_branch() {
    let cases: Vec<(usize, f64, PropertySet)> = vec![
        (4, 0.5, PropertySet::empty()), // GM (weak regime)
        (4, 0.9, PropertySet::empty().with(Property::Fairness)), // EM
        (3, 0.9, PropertySet::empty().with(Property::WeakHonesty)), // WH-LP
        (
            4,
            0.9,
            PropertySet::empty().with(Property::ColumnMonotonicity),
        ), // WM LP
    ];
    for (n, alpha, properties) in cases {
        let designed = MechanismSpec::new(n, a(alpha))
            .properties(properties)
            .build()
            .unwrap()
            .design()
            .unwrap();
        let text = serde_json::to_string(&designed).unwrap();
        let back: DesignedMechanism = serde_json::from_str(&text).unwrap();
        assert_eq!(back, designed, "n={n} α={alpha} {properties}");
        assert_eq!(back.key(), designed.key());
        assert_eq!(back.mechanism().entries(), designed.mechanism().entries());
        assert_eq!(back.choice(), designed.choice());
        assert_eq!(back.score(), designed.score());
    }
}

fn objective_from(index: u8, d: usize) -> ObjectiveKey {
    match index % 4 {
        0 => ObjectiveKey::L0,
        1 => ObjectiveKey::L0Beyond(d),
        2 => ObjectiveKey::L1,
        _ => ObjectiveKey::L2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Spec → JSON → spec is the identity, and the key survives unchanged —
    /// for arbitrary n, bit patterns of α, property subsets, objectives, and
    /// tolerances.
    #[test]
    fn prop_spec_json_round_trip_is_exact(
        n in 1usize..200,
        alpha_raw in 1e-6f64..1.0,
        bits in 0u8..128,
        objective_index in 0u8..4,
        d_frac in 0.0f64..1.0,
        tolerance_exp in 1.0f64..12.0,
    ) {
        let alpha = Alpha::new(alpha_raw).unwrap();
        let properties: PropertySet = PropertySet::power_set()[bits as usize];
        let d = ((n as f64) * d_frac) as usize; // ≤ n, so the spec validates
        let objective = objective_from(objective_index, d);
        let tolerance = 10f64.powf(-tolerance_exp);

        let spec = MechanismSpec::new(n, alpha)
            .properties(properties)
            .objective(objective)
            .tolerance(tolerance)
            .build()
            .expect("spec is valid by construction");

        let text = serde_json::to_string(&spec).unwrap();
        let back: MechanismSpec = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.key(), spec.key());
        prop_assert_eq!(back.alpha().key_bits(), alpha.key_bits());

        // The key round trips on its own, too.
        let key_text = serde_json::to_string(&spec.key()).unwrap();
        let key_back: SpecKey = serde_json::from_str(&key_text).unwrap();
        prop_assert_eq!(key_back, spec.key());
    }

    /// Two specs share a key exactly when their four key components agree —
    /// tolerance and solver overrides never affect cache identity.
    #[test]
    fn prop_spec_key_equality_matches_component_equality(
        n1 in 1usize..40, n2 in 1usize..40,
        alpha_raw in 1e-3f64..1.0,
        bits1 in 0u8..128, bits2 in 0u8..128,
        objective_index in 0u8..4,
        tolerance_exp in 1.0f64..12.0,
    ) {
        let alpha = Alpha::new(alpha_raw).unwrap();
        let objective = objective_from(objective_index, 0);
        let spec1 = MechanismSpec::new(n1, alpha)
            .properties(PropertySet::power_set()[bits1 as usize])
            .objective(objective);
        let spec2 = MechanismSpec::new(n2, alpha)
            .properties(PropertySet::power_set()[bits2 as usize])
            .objective(objective)
            .tolerance(10f64.powf(-tolerance_exp));
        let keys_equal = spec1.key() == spec2.key();
        let components_equal = n1 == n2 && bits1 == bits2;
        prop_assert_eq!(keys_equal, components_equal);
    }
}

//! Differential coverage for dual-simplex warm starts at the design layer:
//! a warm-started α-neighbour re-solve must agree with a cold primal solve —
//! same objective (within tolerance) and the same achieved `PropertyReport` —
//! across random α pairs and all property subsets, and every unusable seed
//! must fall back to the cold path rather than erroring.

use cpm_core::prelude::*;
use cpm_core::properties::PropertySet;
use proptest::prelude::*;

fn a(v: f64) -> Alpha {
    Alpha::new(v).unwrap()
}

/// The constrained L0 problem for one `(n, α, properties)` triple.
fn problem(n: usize, alpha: f64, properties: PropertySet) -> DesignProblem {
    DesignProblem::constrained(n, a(alpha), Objective::l0(), properties)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random α-neighbour pairs × all 128 property subsets × n ∈ {8, 16}:
    /// the warm re-solve agrees with the cold solve on the objective and on
    /// every achieved property.  (n = 16 is drawn at a third of the rate of
    /// n = 8 — a debug-mode n = 16 constrained solve costs seconds, and the
    /// differential logic it exercises is identical.)
    #[test]
    fn warm_resolves_agree_with_cold_solves(
        subset_index in 0usize..128,
        base_alpha in 0.55f64..0.95,
        delta in -0.04f64..0.04,
        pick_n in 0usize..3,
    ) {
        let n = [8usize, 8, 16][pick_n];
        let properties = PropertySet::power_set()[subset_index];
        let neighbour_alpha = (base_alpha + delta).clamp(0.51, 0.99);

        let donor = problem(n, base_alpha, properties)
            .solve()
            .expect("donor solve");
        let seed = donor.optimal_basis.clone();
        prop_assert!(seed.is_some(), "LP solves must report their basis");

        let cold = problem(n, neighbour_alpha, properties)
            .solve()
            .expect("cold solve");
        let warm = problem(n, neighbour_alpha, properties)
            .with_warm_basis(seed)
            .solve()
            .expect("warm solve");

        prop_assert!(
            (warm.objective_value - cold.objective_value).abs() < 1e-6,
            "objective: warm {} vs cold {}",
            warm.objective_value,
            cold.objective_value
        );
        // Degenerate LPs have alternate optimal vertices, and an incidental
        // *unrequested* property can hold at one vertex and not another — so
        // the reports are compared over the requested closure (where both
        // solves are constrained) rather than over all seven properties.
        let warm_report = PropertyReport::evaluate(&warm.mechanism, 1e-6);
        let cold_report = PropertyReport::evaluate(&cold.mechanism, 1e-6);
        for property in properties.closure().iter() {
            prop_assert!(
                warm_report.holds(property) == cold_report.holds(property),
                "requested property {} must agree",
                property.short_name()
            );
        }
        prop_assert!(warm.mechanism.satisfies_dp(a(neighbour_alpha), 1e-6));
        prop_assert!(properties.all_hold(&warm.mechanism, 1e-6));

        // A warm start may only ever save pivots, never add a Phase 1.
        if warm.solver_stats.warm_started {
            prop_assert_eq!(warm.solver_stats.phase1_iterations, 0);
        }
    }
}

#[test]
fn near_neighbour_warm_starts_take_the_dual_path_and_save_pivots() {
    let properties = wm_properties();
    let donor = problem(16, 0.90, properties).solve().unwrap();
    let cold = problem(16, 0.905, properties).solve().unwrap();
    let warm = problem(16, 0.905, properties)
        .with_warm_basis(donor.optimal_basis.clone())
        .solve()
        .unwrap();

    assert!(
        warm.solver_stats.warm_started,
        "a near α-neighbour seed must take the warm path"
    );
    let cold_pivots = cold.solver_stats.pivots();
    let warm_pivots = warm.solver_stats.pivots();
    assert!(
        warm_pivots * 4 < cold_pivots,
        "warm re-solve must cost < 25% of the cold solve's pivots \
         (warm {warm_pivots} vs cold {cold_pivots})"
    );
    assert!((warm.objective_value - cold.objective_value).abs() < 1e-9);
}

#[test]
fn mismatched_and_cross_objective_seeds_fall_back_to_the_primal_path() {
    let properties = wm_properties();
    let cold = problem(8, 0.9, properties).solve().unwrap();

    // A basis from a differently-shaped LP (wrong n): wrong length, rejected
    // up front.
    let foreign = problem(4, 0.9, properties).solve().unwrap();
    let fallback = problem(8, 0.9, properties)
        .with_warm_basis(foreign.optimal_basis)
        .solve()
        .unwrap();
    assert!(!fallback.solver_stats.warm_started);
    assert!((fallback.objective_value - cold.objective_value).abs() < 1e-9);

    // A same-shape basis optimised for a *different objective* is generally
    // dual-infeasible under L0 costs; whether it squeaks past the relaxed
    // check or not, the answer must match the cold solve exactly.
    let l2_donor = DesignProblem::constrained(8, a(0.9), Objective::l2(), properties)
        .solve()
        .unwrap();
    let cross = problem(8, 0.9, properties)
        .with_warm_basis(l2_donor.optimal_basis)
        .solve()
        .unwrap();
    assert!((cross.objective_value - cold.objective_value).abs() < 1e-6);
}

#[test]
fn mechanism_spec_threads_the_hint_and_the_artifact_carries_its_basis() {
    // The WM family at n = 8 runs the LP; its artifact must expose a basis.
    let donor = MechanismSpec::new(8, a(0.90))
        .properties(wm_properties())
        .build()
        .unwrap()
        .design()
        .unwrap();
    let basis = donor
        .optimal_basis()
        .expect("LP-designed artifact carries its optimal basis")
        .to_vec();

    let cold = MechanismSpec::new(8, a(0.905))
        .properties(wm_properties())
        .build()
        .unwrap()
        .design()
        .unwrap();
    let warm = MechanismSpec::new(8, a(0.905))
        .properties(wm_properties())
        .warm_start(Some(basis))
        .build()
        .unwrap()
        .design()
        .unwrap();

    assert!((warm.score() - cold.score()).abs() < 1e-9);
    assert!(warm.requested_satisfied() && cold.requested_satisfied());
    assert_eq!(warm.choice(), cold.choice());
    // The hint is transient: equal specs, equal serde forms.
    assert_eq!(warm.spec(), cold.spec());
    let warm_json = serde_json::to_string(warm.spec()).unwrap();
    let cold_json = serde_json::to_string(cold.spec()).unwrap();
    assert_eq!(warm_json, cold_json);

    // Closed-form designs have no basis to offer.
    let gm = MechanismSpec::new(8, a(0.5))
        .build()
        .unwrap()
        .design()
        .unwrap();
    assert!(gm.optimal_basis().is_none());
}

#[test]
fn designed_mechanism_serde_round_trips_the_basis_exactly() {
    let designed = MechanismSpec::new(6, a(0.9))
        .properties(wm_properties())
        .build()
        .unwrap()
        .design()
        .unwrap();
    assert!(designed.optimal_basis().is_some());
    let text = serde_json::to_string(&designed).unwrap();
    let back: DesignedMechanism = serde_json::from_str(&text).unwrap();
    assert_eq!(back, designed);
    assert_eq!(back.optimal_basis(), designed.optimal_basis());
}

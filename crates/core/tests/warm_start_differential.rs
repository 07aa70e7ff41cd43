//! Differential coverage for dual-simplex warm starts at the design layer:
//! a design problem seeded through `SolveOptions::warm_basis` from an
//! α-neighbour's optimal basis must agree with the problem's own solve —
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

/// Solve `problem` from `seed`, passed as the solver's own warm basis.
fn solve_from(problem: DesignProblem, seed: Option<Vec<usize>>) -> DesignSolution {
    let options = problem.recommended_options().with_warm_basis(seed);
    problem.solve_with(&options).expect("seeded solve")
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
        let warm = solve_from(problem(n, neighbour_alpha, properties), seed);

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
    let warm = solve_from(problem(16, 0.905, properties), donor.optimal_basis.clone());

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
    let fallback = solve_from(problem(8, 0.9, properties), foreign.optimal_basis);
    assert!(!fallback.solver_stats.warm_started);
    assert!((fallback.objective_value - cold.objective_value).abs() < 1e-9);

    // A same-shape basis optimised for a *different objective* is generally
    // dual-infeasible under L0 costs; whether it squeaks past the relaxed
    // check or not, the answer must match the cold solve exactly.
    let l2_donor = DesignProblem::constrained(8, a(0.9), Objective::l2(), properties)
        .solve()
        .unwrap();
    let cross = solve_from(problem(8, 0.9, properties), l2_donor.optimal_basis);
    assert!((cross.objective_value - cold.objective_value).abs() < 1e-6);
}

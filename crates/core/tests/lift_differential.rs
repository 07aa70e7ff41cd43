//! Differential coverage for the relax-then-lift seed: a property-constrained
//! design seeded from its BASICDP relaxation's optimal basis must reach the
//! same optimum as a fully cold solve (`with_crash_seed(false)`) and as the
//! dense-tableau oracle, over the objectives, property sets, group sizes and
//! privacy levels the lift serves.  The lifted route runs in the form
//! `LpForm::Auto` picks and in forced dual form, where the lifted seed is
//! primal feasible but dual infeasible.
//!
//! The cold route has a known defect the lift does not share: on three cases
//! at α = 0.99, n = 10 it pivots until the budget runs out (on L1 `{RM}` a
//! zero-step cycle with the Bland fallback active).  Those cases are listed
//! in [`COLD_ROUTE_CYCLES`]; everywhere else all three routes must agree.  A
//! fix to the cold route empties that list.

use cpm_core::prelude::*;
use cpm_core::properties::{Property, PropertySet};
use cpm_simplex::{oracle, LpForm, SimplexError};

/// Pivot budget of the cold reference solves: 10x the most any case that
/// terminates needs (462), so a cycling cold solve fails in seconds.
const COLD_PIVOT_BUDGET: usize = 5_000;

/// `(objective, properties, n, α)` cases whose cold solve exhausts the
/// pivot budget.  The lifted route and the dense oracle still agree on
/// them.
const COLD_ROUTE_CYCLES: [(&str, &str, usize, f64); 3] = [
    ("L1", "RM", 10, 0.99),
    ("L0", "RM", 10, 0.99),
    ("L0", "RH", 10, 0.99),
];

fn assert_same_objective(what: &str, got: f64, expected: f64) {
    let scale = expected.abs().max(got.abs()).max(1e-12);
    assert!(
        (got - expected).abs() <= 1e-9 * scale,
        "{what}: objective {got} vs {expected} (relative {:e})",
        (got - expected).abs() / scale
    );
}

/// Run the grid — property sets {WH, CM, RM, CH, RH, WH+CM, WH+RM+CM} ×
/// n ∈ {3, 6, 10} × α ∈ {0.5, 0.9, 0.99} — under one objective.
fn lifted_cold_and_dense_oracle_agree(name: &str, objective: Objective) {
    use Property::*;
    let property_sets: [PropertySet; 7] = [
        [WeakHonesty].into_iter().collect(),
        [ColumnMonotonicity].into_iter().collect(),
        [RowMonotonicity].into_iter().collect(),
        [ColumnHonesty].into_iter().collect(),
        [RowHonesty].into_iter().collect(),
        [WeakHonesty, ColumnMonotonicity].into_iter().collect(),
        [WeakHonesty, RowMonotonicity, ColumnMonotonicity]
            .into_iter()
            .collect(),
    ];
    let mut cycling = Vec::new();
    for properties in property_sets {
        for n in [3usize, 6, 10] {
            for alpha in [0.5, 0.9, 0.99] {
                let problem = DesignProblem::constrained(
                    n,
                    Alpha::new(alpha).unwrap(),
                    objective.clone(),
                    properties,
                );
                let case = format!("{name} {properties} n={n} α={alpha}");
                let options = problem.recommended_options();
                let (lp, _) = problem.build_lp().unwrap();
                let dense = oracle::solve_dense(&lp, &options).expect("dense oracle");
                let cold = problem
                    .clone()
                    .with_crash_seed(false)
                    .solve_with(&options.clone().with_max_iterations(COLD_PIVOT_BUDGET));
                match cold {
                    Ok(cold) => assert_same_objective(
                        &format!("{case} cold"),
                        cold.objective_value,
                        dense.objective_value,
                    ),
                    Err(CoreError::Solver(SimplexError::IterationLimit { .. })) => {
                        cycling.push((properties, n, alpha));
                    }
                    Err(error) => panic!("{case}: cold solve failed: {error}"),
                }
                for form in [LpForm::Auto, LpForm::Dual] {
                    let lifted = problem
                        .solve_with(&options.clone().with_form(form))
                        .expect("lifted solve");
                    assert_same_objective(
                        &format!("{case} lifted ({form})"),
                        lifted.objective_value,
                        dense.objective_value,
                    );
                    assert!(properties.all_hold(&lifted.mechanism, 1e-6), "{case}");
                }
            }
        }
    }
    let known: Vec<(PropertySet, usize, f64)> = COLD_ROUTE_CYCLES
        .iter()
        .filter(|case| case.0 == name)
        .map(|&(_, properties, n, alpha)| (properties.parse().unwrap(), n, alpha))
        .collect();
    assert_eq!(
        cycling, known,
        "{name}: cold solves that exhausted {COLD_PIVOT_BUDGET} pivots"
    );
}

#[test]
fn l1_lifted_cold_and_dense_oracle_agree() {
    lifted_cold_and_dense_oracle_agree("L1", Objective::l1());
}

#[test]
fn l2_lifted_cold_and_dense_oracle_agree() {
    lifted_cold_and_dense_oracle_agree("L2", Objective::l2());
}

/// `L0` without symmetry — the L0 sets serving designs add S, which the lift
/// does not serve.
#[test]
fn l0_lifted_cold_and_dense_oracle_agree() {
    lifted_cold_and_dense_oracle_agree("L0", Objective::l0());
}

/// The lift must actually be taken: a silent fall-back to a cold solve still
/// gets the right answer, so only the seed's outcome shows it.
#[test]
fn wm_l2_n8_is_warm_started_from_the_lifted_seed() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::constrained(8, alpha, Objective::l2(), wm_properties());
    for form in [LpForm::Auto, LpForm::Dual] {
        let lifted = problem
            .solve_with(&problem.recommended_options().with_form(form))
            .unwrap();
        assert!(
            lifted.solver_stats.warm_started,
            "{form}: the lifted seed must be accepted ({:?})",
            lifted.solver_stats
        );
        assert_eq!(lifted.solver_stats.phase1_iterations, 0, "{form}");
        if form == LpForm::Dual {
            // The seed is walked in dual form, not deferred to the primal.
            assert_eq!(lifted.solver_stats.form, LpForm::Dual);
        }
    }
    let cold = problem.clone().with_crash_seed(false).solve().unwrap();
    assert!(!cold.solver_stats.warm_started, "crash_seed(false) is cold");
}

/// Lift scope: the serving WM-L0 key goes through Figure 5, which adds S, so
/// its LP has equality rows presolve aliases and no lifted seed fits.  It
/// must not pay for a relaxation solve: its route and pivot count stay
/// exactly those of the GM-crash route (phase 2 only, in dual form).
#[test]
fn wm_l0_serving_key_keeps_its_route_without_a_relaxation() {
    let key = SpecKey::new(
        32,
        Alpha::new(0.9).unwrap(),
        PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity),
    );
    let designed = key.spec().design().unwrap();
    let stats = designed.solver_stats().expect("WM-L0 is an LP design");
    assert_eq!(
        (
            stats.phase1_iterations,
            stats.phase2_iterations,
            stats.dual_iterations
        ),
        (0, 1_423, 0),
        "{stats:?}"
    );
    assert!(!stats.warm_started);
    assert_eq!(stats.form, LpForm::Dual);
}

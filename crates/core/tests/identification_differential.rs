//! Differential coverage for the cell classes `DesignProblem::build_lp`
//! identifies: fairness's diagonal and, at `α = 1`, each row of the matrix
//! become one variable, on top of the reflection orbits.  A design solved
//! over those classes must reach the optimum of the unreduced program —
//! `DesignProblem::build_full_lp`, one variable per cell and every row
//! written out — solved by the dense-tableau oracle and by the cold revised
//! route, and its mechanism must satisfy DP and every requested property.
//!
//! The grid is `L0`/`L1`/`L2` × n ∈ {6, 10} × (every F set at
//! α ∈ {0.5, 0.9}, and all 128 sets at α = 1): 1 536 designs.  The n = 6
//! half runs in the ordinary `cargo test`; the n = 10 half, where the dense
//! oracle takes ~100 s even in release mode, is `#[ignore]`d and run with
//! `cargo test --release -p cpm-core --test identification_differential -- --ignored`.
//! The dense oracle check at the end pins a program it used to declare
//! infeasible.

use cpm_core::prelude::*;
use cpm_core::properties::{Property, PropertySet};
use cpm_simplex::{oracle, SolveOptions};

/// Pivot budget of the reference solves; no case needs more than a fraction
/// of it.
const REFERENCE_PIVOT_BUDGET: usize = 20_000;

fn objectives() -> [Objective; 3] {
    [Objective::l0(), Objective::l1(), Objective::l2()]
}

fn assert_same_objective(what: &str, got: f64, expected: f64) {
    let scale = expected.abs().max(1.0);
    assert!(
        (got - expected).abs() <= 1e-7 * scale,
        "{what}: objective {got} vs {expected}"
    );
}

/// Design `problem` and check it against both references on its full
/// program.
fn design_agrees_with_the_full_program(problem: &DesignProblem) {
    let case = format!(
        "{} {} n={} α={}",
        problem.objective.loss.name(),
        problem.properties,
        problem.n,
        problem.alpha.value()
    );
    let design = problem
        .solve()
        .unwrap_or_else(|error| panic!("{case}: design failed: {error}"));
    let (full, _) = problem.build_full_lp().unwrap();
    let options = problem
        .recommended_options()
        .with_max_iterations(REFERENCE_PIVOT_BUDGET);
    let dense = oracle::solve_dense(&full, &options)
        .unwrap_or_else(|error| panic!("{case}: dense oracle failed: {error}"));
    let cold = full
        .solve_with(&options)
        .unwrap_or_else(|error| panic!("{case}: cold full-program solve failed: {error}"));
    assert_same_objective(
        &format!("{case} vs dense oracle"),
        design.objective_value,
        dense.objective_value,
    );
    assert_same_objective(
        &format!("{case} vs cold full program"),
        design.objective_value,
        cold.objective_value,
    );
    assert!(
        design.mechanism.satisfies_dp(problem.alpha, 1e-6),
        "{case}: DP"
    );
    assert!(
        problem.properties.all_hold(&design.mechanism, 1e-6),
        "{case}: requested properties"
    );
}

/// Every F set at α ∈ {0.5, 0.9}: the diagonal is one variable.
fn f_sets_agree(n: usize) {
    for objective in objectives() {
        for alpha in [0.5, 0.9] {
            for properties in PropertySet::power_set() {
                if properties.contains(Property::Fairness) {
                    design_agrees_with_the_full_program(&DesignProblem::constrained(
                        n,
                        Alpha::new(alpha).unwrap(),
                        objective.clone(),
                        properties,
                    ));
                }
            }
        }
    }
}

/// All 128 sets at α = 1: each row is one variable (and, under F, the whole
/// matrix is).
fn alpha_one_sets_agree(n: usize) {
    for objective in objectives() {
        for properties in PropertySet::power_set() {
            design_agrees_with_the_full_program(&DesignProblem::constrained(
                n,
                Alpha::new(1.0).unwrap(),
                objective.clone(),
                properties,
            ));
        }
    }
}

#[test]
fn f_sets_agree_with_the_full_program() {
    f_sets_agree(6);
}

#[test]
fn all_128_sets_at_alpha_one_agree_with_the_full_program() {
    alpha_one_sets_agree(6);
}

#[test]
#[ignore = "release-mode differential at n = 10; run explicitly (see CI workflow)"]
fn f_sets_at_n10_agree_with_the_full_program() {
    f_sets_agree(10);
}

#[test]
#[ignore = "release-mode differential at n = 10; run explicitly (see CI workflow)"]
fn all_128_sets_at_alpha_one_at_n10_agree_with_the_full_program() {
    alpha_one_sets_agree(10);
}

/// The full `{WH, RM, S}` `L0` program at n = 10: a dense tableau that
/// pivots on elements down to the tolerance declares it infeasible at
/// α = 0.99 (tolerance 1e-9) and at α = 0.5 (tolerance 1e-10).  The oracle
/// must solve it and agree with the revised simplex.
#[test]
fn dense_oracle_solves_the_unreduced_wh_rm_s_program() {
    let properties: PropertySet = "WH+RM+S".parse().unwrap();
    for (alpha, tolerance) in [(0.99, 1e-9), (0.5, 1e-10)] {
        let problem =
            DesignProblem::constrained(10, Alpha::new(alpha).unwrap(), Objective::l0(), properties);
        let (full, _) = problem.build_full_lp().unwrap();
        let options = SolveOptions::default().with_tolerance(tolerance);
        let dense = oracle::solve_dense(&full, &options)
            .unwrap_or_else(|error| panic!("α = {alpha}: dense oracle failed: {error}"));
        let revised = full.solve_with(&options).unwrap();
        assert_same_objective(
            &format!("α = {alpha}"),
            dense.objective_value,
            revised.objective_value,
        );
    }
}

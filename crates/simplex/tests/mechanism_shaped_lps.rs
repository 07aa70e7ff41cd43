//! Stress tests shaped like the mechanism-design LPs that `cpm-core` generates:
//! probability-simplex columns coupled by ratio ("DP-style") constraints.  These
//! exercise exactly the degenerate structure the solver must handle in production,
//! without depending on `cpm-core`.

// The grid construction mirrors the paper's double-subscript notation; explicit index
// loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

use cpm_simplex::{oracle, LinearProgram, LpForm, Relation, SolveOptions, VariableId};
use proptest::prelude::*;

/// Build the BASICDP-shaped LP: an (n+1)x(n+1) grid of variables, column sums equal
/// to one, ratio constraints between adjacent columns in every row, and a cost of 1
/// on every off-diagonal cell (the L0 objective with uniform weights, unscaled).
fn basic_dp_lp(n: usize, alpha: f64) -> (LinearProgram, Vec<Vec<VariableId>>) {
    let dim = n + 1;
    let mut lp = LinearProgram::minimize();
    let mut vars = Vec::with_capacity(dim);
    for i in 0..dim {
        let mut row = Vec::with_capacity(dim);
        for j in 0..dim {
            let v = lp.add_variable(format!("rho_{i}_{j}"));
            if i != j {
                lp.set_objective_coefficient(v, 1.0 / dim as f64);
            }
            row.push(v);
        }
        vars.push(row);
    }
    for j in 0..dim {
        let terms: Vec<_> = (0..dim).map(|i| (vars[i][j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Equal, 1.0);
    }
    for i in 0..dim {
        for j in 0..n {
            lp.add_constraint(
                vec![(vars[i][j], 1.0), (vars[i][j + 1], -alpha)],
                Relation::GreaterEq,
                0.0,
            );
            lp.add_constraint(
                vec![(vars[i][j + 1], 1.0), (vars[i][j], -alpha)],
                Relation::GreaterEq,
                0.0,
            );
        }
    }
    (lp, vars)
}

/// Closed form for the optimum of the BASICDP L0 problem (Theorem 3 of the paper):
/// the unscaled objective of the truncated geometric mechanism, n/(n+1) * 2a/(1+a)
/// ... expressed directly via its trace (n-1) (1-a)/(1+a) + 2/(1+a).
fn geometric_optimum(n: usize, alpha: f64) -> f64 {
    let trace = (n as f64 - 1.0) * (1.0 - alpha) / (1.0 + alpha) + 2.0 / (1.0 + alpha);
    1.0 - trace / (n as f64 + 1.0)
}

#[test]
fn basic_dp_lp_matches_the_geometric_closed_form() {
    for n in [2usize, 4, 6, 9] {
        for alpha in [0.3, 0.62, 0.9] {
            let (lp, vars) = basic_dp_lp(n, alpha);
            let solution = lp.solve().unwrap();
            let expected = geometric_optimum(n, alpha);
            assert!(
                (solution.objective_value - expected).abs() < 1e-7,
                "n={n} alpha={alpha}: {} vs {expected}",
                solution.objective_value
            );
            // The solution must be a valid column-stochastic matrix.
            for j in 0..=n {
                let total: f64 = (0..=n).map(|i| solution.value(vars[i][j])).sum();
                assert!((total - 1.0).abs() < 1e-7);
            }
        }
    }
}

/// Steepest edge in either LP form and the dense oracle's Dantzig pricing
/// reach the same optimum on the degenerate DP grid.
#[test]
fn all_pivot_rules_agree_on_the_dp_shaped_lp() {
    let (lp, _) = basic_dp_lp(5, 0.76);
    let options = SolveOptions::default().with_max_iterations(2_000_000);
    let objectives = [
        lp.solve_with(&options.clone().with_form(LpForm::Primal)),
        lp.solve_with(&options.clone().with_form(LpForm::Dual)),
        oracle::solve_dense(&lp, &options),
    ]
    .map(|solution| solution.unwrap().objective_value);
    assert!((objectives[0] - objectives[1]).abs() < 1e-7);
    assert!((objectives[1] - objectives[2]).abs() < 1e-7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any alpha and small n, the BASICDP optimum matches the geometric closed
    /// form and the LP never reports infeasibility or unboundedness.
    #[test]
    fn prop_basic_dp_objective_matches_theory(n in 1usize..7, alpha in 0.05f64..0.99) {
        let (lp, _) = basic_dp_lp(n, alpha);
        let solution = lp.solve().unwrap();
        let expected = geometric_optimum(n, alpha);
        prop_assert!((solution.objective_value - expected).abs() < 1e-6,
            "n={} alpha={}: {} vs {}", n, alpha, solution.objective_value, expected);
    }

    /// Adding a diagonal lower bound (the weak-honesty constraint) keeps the LP
    /// feasible and can only increase the optimum; the bound 1/(n+1) is always
    /// attainable because the uniform matrix is feasible.
    #[test]
    fn prop_weak_honesty_rows_keep_the_lp_feasible(n in 1usize..6, alpha in 0.05f64..0.99) {
        let (mut lp, vars) = basic_dp_lp(n, alpha);
        let bound = 1.0 / (n as f64 + 1.0);
        for (i, row) in vars.iter().enumerate() {
            lp.add_constraint(vec![(row[i], 1.0)], Relation::GreaterEq, bound);
        }
        let constrained = lp.solve().unwrap().objective_value;
        let unconstrained = geometric_optimum(n, alpha);
        prop_assert!(constrained + 1e-7 >= unconstrained);
        prop_assert!(constrained <= n as f64 / (n as f64 + 1.0) + 1e-7);
    }
}

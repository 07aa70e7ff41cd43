//! Differential tests for the steepest-edge pricing and the ratio test: the
//! revised simplex must land on the dense oracle's optimum, on the
//! mechanism-shaped grid and on LPs whose variables carry two-sided bounds
//! (each bound standardises as a row).

// The grid construction mirrors the paper's double-subscript notation; explicit
// index loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

use cpm_simplex::{oracle, LinearProgram, Relation, SolveOptions, VariableId};

/// The BASICDP-shaped grid LP from the mechanism formulation (see
/// `mechanism_shaped_lps.rs`): degenerate, ratio-coupled, equality-normalised.
fn dp_lp(n: usize, alpha: f64) -> LinearProgram {
    let dim = n + 1;
    let mut lp = LinearProgram::minimize();
    let mut vars: Vec<Vec<VariableId>> = Vec::with_capacity(dim);
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
    lp
}

fn options() -> SolveOptions {
    SolveOptions::default().with_max_iterations(2_000_000)
}

#[test]
fn steepest_edge_agrees_with_the_dense_oracle() {
    let lp = dp_lp(5, 0.62);
    let sparse = lp.solve_with(&options()).unwrap();
    let dense = oracle::solve_dense(&lp, &SolveOptions::default()).unwrap();
    assert!((sparse.objective_value - dense.objective_value).abs() < 1e-8);
}

/// A pure box LP: maximise the sum of K variables in `[0, 1]` under one loose
/// aggregate cap.  Every entering variable hits its *own* upper bound before
/// the aggregate slack blocks, so the optimum sits at every upper bound.
/// (The name is from the retired bound-flipping ratio test; each bound is
/// now a row.)
#[test]
fn loose_caps_are_solved_by_bound_flips_not_pivots() {
    const K: usize = 12;
    let mut lp = LinearProgram::minimize();
    let vars: Vec<VariableId> = (0..K)
        .map(|i| {
            let v = lp.add_variable_with_bounds(format!("x{i}"), 0.0, 1.0);
            lp.set_objective_coefficient(v, -1.0);
            v
        })
        .collect();
    lp.add_constraint(
        vars.iter().map(|&v| (v, 1.0)),
        Relation::LessEq,
        2.0 * K as f64,
    );
    let solution = lp.solve_with(&options()).unwrap();
    assert!((solution.objective_value - -(K as f64)).abs() < 1e-9);
    for &v in &vars {
        assert!((solution.value(v) - 1.0).abs() < 1e-9);
    }
    assert_eq!(solution.stats.phase1_iterations, 0);
}

/// With a *tight* cap the optimum sits on the cap, with one variable strictly
/// inside its box.  Revised and dense solves must agree exactly.  (The name
/// is from the retired bound-flipping ratio test.)
#[test]
fn tight_caps_mix_flips_and_pivots_and_agree_with_dense() {
    const K: usize = 8;
    let cap = 4.5;
    let mut lp = LinearProgram::minimize();
    let vars: Vec<VariableId> = (0..K)
        .map(|i| {
            let v = lp.add_variable_with_bounds(format!("x{i}"), 0.0, 1.0);
            // Distinct costs make the optimum unique: fill the cheapest first.
            lp.set_objective_coefficient(v, -(K as f64 - i as f64));
            v
        })
        .collect();
    lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::LessEq, cap);
    let sparse = lp.solve_with(&options()).unwrap();
    let dense = oracle::solve_dense(&lp, &SolveOptions::default()).unwrap();
    // Greedy closed form: x0..x3 = 1, x4 = 0.5 -> -(8+7+6+5) - 4*0.5.
    let expected = -(8.0 + 7.0 + 6.0 + 5.0) - 4.0 * 0.5;
    assert!((sparse.objective_value - expected).abs() < 1e-9);
    assert!((sparse.objective_value - dense.objective_value).abs() < 1e-9);
}

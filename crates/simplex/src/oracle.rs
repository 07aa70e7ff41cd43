//! The dense full-tableau simplex, kept as a reference solver.
//!
//! [`solve_dense`] runs the classic two-phase tableau method: every pivot
//! updates all `rows · cols` entries, Phase 1 and Phase 2 both price with the
//! Dantzig rule, and the same Bland fallback as the production route (after
//! a run of consecutive degenerate pivots) guarantees termination.  It
//! shares standardisation with [`LinearProgram::solve_with`] but none of the
//! revised machinery (LU factors, steepest-edge pricing, warm starts, the
//! dual form), which is what makes it an independent check on that
//! machinery.  Its
//! `O(rows · cols)` pivots limit it to small programs; nothing in the serving
//! path calls it.
//!
//! ```
//! use cpm_simplex::{oracle, LinearProgram, Relation, SolveOptions};
//!
//! let mut lp = LinearProgram::maximize();
//! let x = lp.add_variable("x");
//! let y = lp.add_variable("y");
//! lp.set_objective_coefficient(x, 3.0);
//! lp.set_objective_coefficient(y, 5.0);
//! lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
//! lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
//! lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
//!
//! let reference = oracle::solve_dense(&lp, &SolveOptions::default()).unwrap();
//! let production = lp.solve().unwrap();
//! assert!((reference.objective_value - production.objective_value).abs() < 1e-9);
//! ```

use crate::error::SimplexError;
use crate::model::LinearProgram;
use crate::solution::Solution;
use crate::solver::{solve_standard, PhaseOutcome, PivotState, SolveOptions, SolvedPoint};
use crate::standard::StandardForm;
use crate::tableau::Tableau;

/// Smallest pivot element the ratio test accepts, whatever the tolerance.
/// With the floor at the tolerance, Phase 1 on the full `{WH, RM, S}` `L0`
/// program at n = 10 pivots on elements of 1e-8 to 1e-10; the division
/// drives basic values negative (to ~−1e-7), and Phase 1 then reports the
/// feasible program infeasible.
const MIN_PIVOT: f64 = 1e-7;

/// Solve `lp` with the dense tableau.  Honours [`SolveOptions::max_iterations`]
/// and [`SolveOptions::tolerance`]; always pivots on the primal from a cold
/// start, so `warm_basis` and `form` are ignored.  Reports the same
/// [`SimplexError`] classes as the production route.
pub fn solve_dense(lp: &LinearProgram, options: &SolveOptions) -> Result<Solution, SimplexError> {
    solve_standard(&lp.standardize()?, |sf| pivot_dense(sf, options))
}

/// The dense two-phase driver over a row-encoded standard form.
fn pivot_dense(sf: &StandardForm, options: &SolveOptions) -> Result<SolvedPoint, SimplexError> {
    let eps = options.tolerance;

    // Densify the CSC matrix and append artificial columns for rows without a
    // basic slack.
    let num_core_columns = sf.num_columns();
    let num_artificials = (0..sf.num_rows()).filter(|&r| sf.hint(r).is_none()).count();
    let total_columns = num_core_columns + num_artificials;

    let mut rows = sf.matrix.to_dense_rows();
    for row in rows.iter_mut() {
        row.resize(total_columns, 0.0);
    }
    // Insert artificial basics in row order so that `basis[r]` lines up with row `r`.
    let mut basis = vec![usize::MAX; sf.num_rows()];
    let mut artificial_index = 0;
    for r in 0..sf.num_rows() {
        match sf.hint(r) {
            Some(col) => basis[r] = col,
            None => {
                let col = num_core_columns + artificial_index;
                rows[r][col] = 1.0;
                basis[r] = col;
                artificial_index += 1;
            }
        }
    }

    let mut tableau = Tableau::new(rows, sf.rhs.clone(), basis);
    let mut state = PivotState::new(options);
    state.stats.artificial_variables = num_artificials;

    // ------------------------------- Phase 1 -------------------------------
    if num_artificials > 0 {
        let mut phase1_costs = vec![0.0; total_columns];
        for cost in phase1_costs.iter_mut().skip(num_core_columns) {
            *cost = 1.0;
        }
        tableau.set_costs(&phase1_costs);
        let before = state.iterations_left;
        let outcome = run_phase(
            &mut tableau,
            options,
            eps,
            num_core_columns,
            &mut state,
            true,
        )?;
        state.stats.phase1_iterations = before - state.iterations_left;
        if matches!(outcome, PhaseOutcome::Unbounded) {
            // Phase 1 objective is bounded below by zero; unboundedness indicates a
            // numerical breakdown.
            return Err(SimplexError::NumericalBreakdown {
                context: "phase 1 of the dense tableau became unbounded",
                repairs: 0,
            });
        }
        if tableau.objective() > 1e-6 {
            return Err(SimplexError::Infeasible);
        }
        drive_out_artificials(&mut tableau, num_core_columns, eps);
    }

    // ------------------------------- Phase 2 -------------------------------
    let mut phase2_costs = sf.costs.clone();
    phase2_costs.resize(total_columns, 0.0);
    tableau.set_costs(&phase2_costs);
    state.start_phase();
    let before = state.iterations_left;
    let outcome = run_phase(
        &mut tableau,
        options,
        eps,
        num_core_columns,
        &mut state,
        false,
    )?;
    state.stats.phase2_iterations = before - state.iterations_left;
    if matches!(outcome, PhaseOutcome::Unbounded) {
        return Err(SimplexError::Unbounded);
    }

    let z = tableau.basic_solution();
    Ok(SolvedPoint {
        z: z[..num_core_columns].to_vec(),
        objective: tableau.objective(),
        stats: state.stats,
        basis: Some(tableau.basis().to_vec()),
    })
}

/// Run simplex pivots until optimality or unboundedness for the current cost row.
fn run_phase(
    tableau: &mut Tableau,
    options: &SolveOptions,
    eps: f64,
    num_core_columns: usize,
    state: &mut PivotState,
    is_phase1: bool,
) -> Result<PhaseOutcome, SimplexError> {
    // In Phase 1 artificial columns may appear in the basis (they start there) but
    // must never *re-enter* once they have left; in Phase 2 they must never enter.
    let entering_limit = if is_phase1 {
        tableau.num_cols()
    } else {
        num_core_columns
    };

    loop {
        if state.iterations_left == 0 {
            return Err(SimplexError::IterationLimit {
                limit: options.max_iterations,
            });
        }

        let entering = choose_entering(
            tableau,
            entering_limit,
            num_core_columns,
            eps,
            state.using_bland,
            is_phase1,
        );
        let Some(col) = entering else {
            return Ok(PhaseOutcome::Optimal);
        };
        let Some(row) = tableau.ratio_test(col, eps.max(MIN_PIVOT), eps) else {
            return Ok(PhaseOutcome::Unbounded);
        };

        let nondegenerate = tableau.pivot(row, col);
        state.record_pivot(nondegenerate);
    }
}

/// Choose the entering column: the most negative reduced cost (Dantzig), or
/// the lowest eligible index while the Bland fallback is active.
///
/// Artificial columns (indices `>= num_core_columns`) are never allowed to enter:
/// in Phase 1 they start basic and only ever leave, and in Phase 2 `entering_limit`
/// already excludes them.
fn choose_entering(
    tableau: &Tableau,
    entering_limit: usize,
    num_core_columns: usize,
    eps: f64,
    use_bland: bool,
    is_phase1: bool,
) -> Option<usize> {
    let limit = entering_limit.min(tableau.num_cols());
    let excluded_from = if is_phase1 { num_core_columns } else { limit };
    if use_bland {
        (0..limit)
            .filter(|&j| j < excluded_from)
            .find(|&j| tableau.reduced_cost(j) < -eps)
    } else {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..limit {
            if j >= excluded_from {
                continue;
            }
            let rc = tableau.reduced_cost(j);
            if rc < -eps {
                match best {
                    None => best = Some((j, rc)),
                    Some((_, best_rc)) if rc < best_rc => best = Some((j, rc)),
                    _ => {}
                }
            }
        }
        best.map(|(j, _)| j)
    }
}

/// After Phase 1, pivot any artificial variables that are still basic (at value zero)
/// out of the basis.  Rows where this is impossible are redundant constraints; their
/// artificial stays basic at zero and is harmless because the entire row is zero on
/// the structural columns.
fn drive_out_artificials(tableau: &mut Tableau, num_core_columns: usize, eps: f64) {
    for row in 0..tableau.num_rows() {
        let basic = tableau.basis()[row];
        if basic >= num_core_columns {
            if let Some(col) = tableau.first_nonzero_in_row(row, num_core_columns, eps) {
                tableau.pivot(row, col);
            } else {
                debug_assert!(tableau.row_is_zero_up_to(row, num_core_columns, eps));
                debug_assert!(tableau.rhs(row).abs() <= 1e-6);
            }
        }
    }
}

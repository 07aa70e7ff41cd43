//! Conversion of a user-facing [`LinearProgram`] into sparse standard form.
//!
//! Standard form here means
//!
//! ```text
//! minimise   c' z
//! subject to A z = b,   z >= 0,   b >= 0
//! ```
//!
//! obtained by shifting / splitting bounded and free variables, adding slack and
//! surplus columns, and flipping the sign of rows with negative right-hand sides.
//! A variable with two finite bounds becomes a shifted column plus a
//! `z ≤ upper − lower` row; these bound rows follow the constraint rows, in
//! variable order, so every column has bounds `[0, ∞)`.
//! Rows that end up containing a `+1` slack column with non-negative right-hand side
//! record that column as a *basis hint*; the solver only needs artificial variables
//! for the remaining rows, which keeps Phase 1 small for the mechanism-design LPs
//! (whose inequality constraints almost all have zero right-hand sides).
//!
//! The constraint matrix `A` is assembled as `(row, col, value)` triplets and
//! compressed into a CSC [`SparseMatrix`] — no dense row is ever materialised, so
//! standardisation is `O(nnz)` in time and memory.  The dense reference solver
//! densifies on demand; the revised simplex consumes the CSC columns
//! directly.
//!
//! A program is standardised once: [`LinearProgram::standardize`] validates
//! the model and returns the [`StandardForm`] every solve, crash basis and
//! lifted seed then reads, so a caller that holds it can drop the builder.

use crate::error::SimplexError;
use crate::model::{LinearProgram, Objective, Relation};
use crate::sparse::SparseMatrix;

/// How a user variable is reconstructed from standard-form columns.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VariableMapping {
    /// `x = offset + z[col]`
    Shifted { col: usize, offset: f64 },
    /// `x = offset - z[col]` (used for variables with only an upper bound)
    Negated { col: usize, offset: f64 },
    /// `x = z[pos] - z[neg]` (free variable split)
    Split { pos: usize, neg: usize },
    /// `x` is fixed to a constant by its bounds.
    Fixed(f64),
}

/// A validated linear program in sparse standard form, `min c'z, Az = b,
/// z ≥ 0, b ≥ 0`: the one form every solve runs on.
///
/// Built by [`LinearProgram::standardize`], which validates the model and
/// standardises it exactly once; [`StandardForm::solve_with`] solves it (as
/// [`LinearProgram::solve_with`] does), and [`crash_basis`] and
/// [`lift_basis`] express their seeds against it.  It holds everything a
/// solve needs to report values over the model's variables, so a caller can
/// drop the builder [`LinearProgram`] once its seeds are built.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// The constraint matrix over all columns (structural + slack/surplus), CSC.
    pub(crate) matrix: SparseMatrix,
    /// Right-hand sides, all non-negative.
    pub(crate) rhs: Vec<f64>,
    /// Minimisation costs for every column (structural + slack/surplus).
    pub(crate) costs: Vec<f64>,
    /// Number of structural columns; columns `num_structural..num_columns()`
    /// are the slack/surplus singletons appended per inequality row (the
    /// dualize transform folds them into sign bounds on the dual variables).
    pub(crate) num_structural: usize,
    /// Number of the model's constraint rows; the rows after them are the
    /// bound rows of two-sided variable bounds.
    pub(crate) num_constraints: usize,
    /// Per-row column index usable as the initial basic variable, if any.
    pub(crate) basis_hint: Vec<Option<usize>>,
    /// Mapping from user variables to standard-form columns.
    pub(crate) mapping: Vec<VariableMapping>,
    /// Constant added to the (minimisation) objective by variable shifts.
    pub(crate) objective_constant: f64,
    /// Whether the user asked to maximise (the reported objective must be negated back).
    pub(crate) maximize: bool,
}

impl LinearProgram {
    /// Validate the model and convert it to the [`StandardForm`] its solves
    /// run on.
    pub fn standardize(&self) -> Result<StandardForm, SimplexError> {
        self.validate()?;
        Ok(standardize(self))
    }
}

impl StandardForm {
    /// Number of columns (excluding artificials, which the solver appends itself).
    pub fn num_columns(&self) -> usize {
        self.costs.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Coefficient at `(row, col)` — test/diagnostic accessor.
    #[cfg(test)]
    pub(crate) fn coeff(&self, row: usize, col: usize) -> f64 {
        self.matrix.get(row, col)
    }

    /// Recover the user-variable values from a standard-form point.
    pub(crate) fn recover_values(&self, z: &[f64]) -> Vec<f64> {
        self.mapping
            .iter()
            .map(|m| match *m {
                VariableMapping::Shifted { col, offset } => offset + z[col],
                VariableMapping::Negated { col, offset } => offset - z[col],
                VariableMapping::Split { pos, neg } => z[pos] - z[neg],
                VariableMapping::Fixed(v) => v,
            })
            .collect()
    }

    /// The slack or surplus column of each row (`None` on equality rows).
    pub(crate) fn slack_of_row(&self) -> Vec<Option<usize>> {
        let mut slack_of_row = vec![None; self.num_rows()];
        for col in self.num_structural..self.num_columns() {
            let mut entries = self.matrix.column(col);
            let (row, _) = entries
                .next()
                .expect("slack columns are nonempty singletons");
            debug_assert!(entries.next().is_none(), "slack columns are singletons");
            debug_assert!(slack_of_row[row].is_none(), "one slack per row");
            slack_of_row[row] = Some(col);
        }
        slack_of_row
    }

    /// The bound row of user variable `var` — the `z ≤ upper − lower` row
    /// standardisation writes after the constraint rows for a variable with
    /// two finite bounds — if it has one.
    fn bound_row(&self, var: usize) -> Option<usize> {
        match self.mapping[var] {
            VariableMapping::Shifted { col, .. } => self
                .matrix
                .column(col)
                .map(|(row, _)| row)
                .find(|&row| row >= self.num_constraints),
            _ => None,
        }
    }

    /// Whether this is the standard form of `lp`'s shape: its variables and
    /// constraint rows.  Seeds are only built against a matching form.
    fn fits(&self, lp: &LinearProgram) -> bool {
        self.mapping.len() == lp.num_variables() && self.num_constraints == lp.num_constraints()
    }
}

/// Build the sparse standard form of `lp`: every column has bounds
/// `[0, ∞)`, and two-sided variable bounds become `z ≤ upper − lower` rows
/// after the constraint rows.
pub(crate) fn standardize(lp: &LinearProgram) -> StandardForm {
    let maximize = lp.objective == Objective::Maximize;
    let sign = if maximize { -1.0 } else { 1.0 };

    // 1. Map user variables to standard-form columns.
    let mut mapping = Vec::with_capacity(lp.variables.len());
    let mut costs: Vec<f64> = Vec::new();
    let mut objective_constant = 0.0;
    // Extra `column <= bound` rows generated by two-sided bounds, expressed directly
    // in terms of standard-form columns.
    let mut extra_upper_rows: Vec<(usize, f64)> = Vec::new();

    for (i, var) in lp.variables.iter().enumerate() {
        let c = sign * lp.objective_coefficients[i];
        let (lower, upper_bound) = (var.lower, var.upper);
        if lower.is_finite() && upper_bound.is_finite() && (upper_bound - lower).abs() == 0.0 {
            // Fixed variable: contributes a constant to the objective and to each row.
            objective_constant += c * lower;
            mapping.push(VariableMapping::Fixed(lower));
        } else if lower.is_finite() {
            let col = costs.len();
            costs.push(c);
            objective_constant += c * lower;
            mapping.push(VariableMapping::Shifted { col, offset: lower });
            if upper_bound.is_finite() {
                extra_upper_rows.push((col, upper_bound - lower));
            }
        } else if upper_bound.is_finite() {
            // Only an upper bound: substitute x = upper - z, z >= 0.
            let col = costs.len();
            costs.push(-c);
            objective_constant += c * upper_bound;
            mapping.push(VariableMapping::Negated {
                col,
                offset: upper_bound,
            });
        } else {
            // Free variable: split into positive and negative parts.
            let pos = costs.len();
            costs.push(c);
            let neg = costs.len();
            costs.push(-c);
            mapping.push(VariableMapping::Split { pos, neg });
        }
    }

    let num_structural_columns = costs.len();
    let num_rows = lp.num_constraints() + extra_upper_rows.len();
    let num_slacks = lp
        .constraints()
        .filter(|c| c.relation != Relation::Equal)
        .count()
        + extra_upper_rows.len();
    let total_columns = num_structural_columns + num_slacks;
    costs.resize(total_columns, 0.0);

    // 2. Emit each row's sparse terms (over standard-form columns) as triplets,
    //    appending the slack/surplus entry and flipping signs where needed.
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(lp.num_terms() + num_rows);
    let mut rhs_vec = Vec::with_capacity(num_rows);
    let mut basis_hint = Vec::with_capacity(num_rows);
    let mut next_slack = num_structural_columns;
    // Scratch sparse row, reused across constraints (merged via sort below).
    let mut row_terms: Vec<(usize, f64)> = Vec::new();

    let mut push_row = |row_terms: &mut Vec<(usize, f64)>,
                        relation: Relation,
                        mut rhs: f64,
                        triplets: &mut Vec<(usize, usize, f64)>,
                        rhs_vec: &mut Vec<f64>,
                        basis_hint: &mut Vec<Option<usize>>| {
        let row = rhs_vec.len();
        let slack = match relation {
            Relation::LessEq => {
                let col = next_slack;
                next_slack += 1;
                row_terms.push((col, 1.0));
                Some(col)
            }
            Relation::GreaterEq => {
                let col = next_slack;
                next_slack += 1;
                row_terms.push((col, -1.0));
                Some(col)
            }
            Relation::Equal => None,
        };
        // Flip the row when the right-hand side is negative, and also for `>=` rows
        // with a zero right-hand side: flipping turns their surplus column into a
        // `+1` slack usable as the initial basic variable, which is what keeps
        // Phase 1 tiny for the mechanism-design LPs (all DP inequalities have rhs 0).
        let flip = rhs < 0.0 || (rhs == 0.0 && relation == Relation::GreaterEq);
        let row_sign = if flip { -1.0 } else { 1.0 };
        if flip {
            rhs = -rhs;
        }
        let mut slack_value = 0.0;
        for &(col, value) in row_terms.iter() {
            if Some(col) == slack {
                slack_value = row_sign * value;
            }
            triplets.push((row, col, row_sign * value));
        }
        let hint = slack.filter(|_| slack_value > 0.0);
        rhs_vec.push(rhs);
        basis_hint.push(hint);
    };

    for constraint in lp.constraints() {
        row_terms.clear();
        let mut rhs = constraint.rhs;
        for &(var, coefficient) in constraint.terms {
            match mapping[var.index()] {
                VariableMapping::Shifted { col, offset } => {
                    row_terms.push((col, coefficient));
                    rhs -= coefficient * offset;
                }
                VariableMapping::Negated { col, offset } => {
                    row_terms.push((col, -coefficient));
                    rhs -= coefficient * offset;
                }
                VariableMapping::Split { pos, neg } => {
                    row_terms.push((pos, coefficient));
                    row_terms.push((neg, -coefficient));
                }
                VariableMapping::Fixed(v) => {
                    rhs -= coefficient * v;
                }
            }
        }
        push_row(
            &mut row_terms,
            constraint.relation,
            rhs,
            &mut triplets,
            &mut rhs_vec,
            &mut basis_hint,
        );
    }
    for &(col, bound) in &extra_upper_rows {
        row_terms.clear();
        row_terms.push((col, 1.0));
        push_row(
            &mut row_terms,
            Relation::LessEq,
            bound,
            &mut triplets,
            &mut rhs_vec,
            &mut basis_hint,
        );
    }

    // 3. Compress to CSC; `from_triplets` merges duplicate terms per row/column.
    let matrix = SparseMatrix::from_triplets(num_rows, total_columns, &triplets);

    StandardForm {
        matrix,
        rhs: rhs_vec,
        costs,
        num_structural: num_structural_columns,
        num_constraints: lp.num_constraints(),
        basis_hint,
        mapping,
        objective_constant,
        maximize,
    }
}

/// Activity tolerance for [`crash_basis`] row classification: a row whose
/// activity is within this distance of its right-hand side — **relative to
/// the magnitude of the row's own terms** — is treated as *tight* at the
/// conjectured point.  The relative scale matters: mechanism LPs have rows
/// whose terms decay geometrically (down to ~1e-13 at n = 256), and an
/// absolute tolerance would classify every far-tail row as tight and wreck
/// the crash.  Against the per-row scale, float cancellation noise sits at
/// ~1e-16 while a genuinely loose geometric-tail row sits at ~1e-1, so 1e-7
/// separates them with room on both sides.
///
/// Build a **crash basis** for `lp` from a conjectured (near-)optimal point.
///
/// `values` gives one value per model variable.  The returned vector is a
/// standard-form basis — one column per standard-form row — encoding the
/// active set the point implies: variables off their lower bound become
/// basic (a variable at its upper bound leaves its bound row tight), rows
/// with visible slack keep their slack column basic, and the
/// leftover rows (the tight ones) host the basic structural columns.  When
/// the point has more interior variables than tight rows, the smallest ones
/// are demoted to nonbasic (they are the near-degenerate tail); when it has
/// fewer, the unclaimed rows fall back to their own slack column — or an
/// artificial marker for equality rows — exactly as a cold solve treats
/// redundant rows.
///
/// The basis is expressed against `sf`, the [`StandardForm`] of `lp` (read,
/// never rebuilt), the space
/// [`SolveOptions::warm_basis`](crate::SolveOptions::warm_basis) lives in;
/// `lp` supplies the rows' activities as the model writes them.
/// On the BASICDP program, where the closed-form Geometric Mechanism is the
/// exact `L0` optimum, the crash reduces the solve to one factorisation; under
/// the other objectives it is a feasible start.  Property-constrained
/// programs are better seeded from their relaxation with [`lift_basis`].
///
/// The seed is a *hint*, never an answer: the solver discards a seed of the
/// wrong shape, and the warm-start machinery factors it, rejects it if
/// singular or infeasible both ways, and certifies optimality with the
/// ordinary primal machinery.
///
/// Returns `None` when `values` has the wrong length or `sf` does not have
/// `lp`'s shape.
pub fn crash_basis(lp: &LinearProgram, sf: &StandardForm, values: &[f64]) -> Option<Vec<usize>> {
    if values.len() != lp.num_variables() || !sf.fits(lp) {
        return None;
    }
    let m = sf.num_rows();
    let num_core = sf.num_columns();
    let slack_of_row = sf.slack_of_row();

    // Interior structural columns, remembered with their distance from zero
    // so the near-degenerate tail can be demoted first.  A strictly positive
    // distance counts — closed-form conjectures produce exact zeros at the
    // bounds they sit on, and geometrically decaying interiors (~1e-13 at
    // n = 256) are interior all the same.
    let mut interior: Vec<(f64, usize)> = Vec::new();
    for (var, mapping) in sf.mapping.iter().enumerate() {
        let value = values[var];
        match *mapping {
            VariableMapping::Shifted { col, offset } => {
                let dist = value - offset;
                if dist > 0.0 {
                    interior.push((dist, col));
                }
            }
            VariableMapping::Negated { col, offset } => {
                let dist = offset - value;
                if dist > 0.0 {
                    interior.push((dist, col));
                }
            }
            VariableMapping::Split { pos, neg } => {
                if value > 0.0 {
                    interior.push((value, pos));
                } else if value < 0.0 {
                    interior.push((-value, neg));
                }
            }
            VariableMapping::Fixed(_) => {}
        }
    }

    // Rows with visible slack at the conjectured point keep their slack
    // basic.  Constraint activities come from the model itself (the standard
    // form may have flipped row signs; the model view has not); a bound row
    // is loose when its variable sits below its upper bound.
    let mut slots: Vec<Option<usize>> = vec![None; m];
    for (row, constraint) in lp.constraints().enumerate() {
        let Some(slack_col) = slack_of_row[row] else {
            continue;
        };
        let mut activity = 0.0;
        let mut scale = constraint.rhs.abs();
        for &(var, coeff) in constraint.terms {
            let term = coeff * values[var.index()];
            activity += term;
            scale = scale.max(term.abs());
        }
        if (activity - constraint.rhs).abs() > 1e-7 * scale {
            slots[row] = Some(slack_col);
        }
    }
    for (var, mapping) in sf.mapping.iter().enumerate() {
        if let (Some(row), VariableMapping::Shifted { offset, .. }) = (sf.bound_row(var), mapping) {
            let (dist, span) = (values[var] - offset, sf.rhs[row]);
            if (span - dist).abs() > 1e-7 * span.max(dist.abs()) {
                slots[row] = slack_of_row[row];
            }
        }
    }

    // Hand the empty slots (tight + equality rows) to the largest interior
    // columns; demote any excess, and pad any shortfall with the row's own
    // slack — or an artificial marker on equality rows, which the solver's
    // seeded path re-keys to that slot.
    let open = slots.iter().filter(|slot| slot.is_none()).count();
    if interior.len() > open {
        interior.sort_by(|a, b| b.0.total_cmp(&a.0));
        interior.truncate(open);
    }
    let mut spares = interior.iter().map(|&(_, col)| col);
    let basis = slots
        .into_iter()
        .enumerate()
        .map(|(row, slot)| {
            slot.or_else(|| spares.next())
                // Tight row left over: keep its slack basic at zero, the
                // same degenerate state a cold solve would report.
                .or(slack_of_row[row])
                .unwrap_or(num_core + row)
        })
        .collect();
    Some(basis)
}

/// **Lift** an optimal basis of `relaxed` to a warm seed for `lp`, a program
/// that appends rows to it and may raise finite lower bounds.
///
/// `lp` must have the same variables, upper bounds and objective as
/// `relaxed`, each lower bound equal or raised from a finite one, and its
/// constraints must start with `relaxed`'s; `relaxed_basis` is the
/// [`Solution::optimal_basis`](crate::Solution::optimal_basis) of a solve of
/// `relaxed`.  A raised lower bound only shifts its column, so both
/// standard forms have the same structural columns, and the relaxation's
/// rows map onto `lp`'s row for row: its constraint rows are a prefix of
/// `lp`'s, and its bound rows (one per two-sided variable bound) follow
/// `lp`'s appended constraint rows.  The lifted basis keeps every basic
/// column of the relaxation on its mapped row and makes the slack of each
/// appended row basic.
///
/// Under the same objective the lifted basis is **dual feasible** by
/// construction: the appended rows' multipliers are zero, so every reduced
/// cost is the relaxation's.  It is primal infeasible exactly where the
/// relaxed optimum violates an appended row or a raised bound, which the warm
/// start's dual simplex repairs.  In dual form the same seed is primal feasible and dual
/// infeasible, and the warm start runs the primal simplex from it.
///
/// `relaxed_sf` and `sf` are the [`StandardForm`]s of `relaxed` and `lp`,
/// which the lift reads instead of rebuilding; the models themselves are
/// only compared.
///
/// Returns `None` when `lp` does not extend `relaxed`, when either standard
/// form does not have its model's shape, when the basis has the wrong
/// length, or when an appended row is an equality (it has no slack to make
/// basic).  Like any seed, the result is a hint the solver verifies, never
/// an answer.
pub fn lift_basis(
    relaxed: &LinearProgram,
    relaxed_sf: &StandardForm,
    relaxed_basis: &[usize],
    lp: &LinearProgram,
    sf: &StandardForm,
) -> Option<Vec<usize>> {
    let raises_lower_bounds = relaxed.variables.len() == lp.variables.len()
        && relaxed.variables.iter().zip(&lp.variables).all(|(a, b)| {
            a.upper == b.upper
                && (a.lower == b.lower
                    || (a.lower.is_finite() && a.lower < b.lower && b.lower < b.upper))
        });
    let extends = relaxed.objective == lp.objective
        && relaxed.objective_coefficients == lp.objective_coefficients
        && raises_lower_bounds
        && relaxed.num_constraints() <= lp.num_constraints()
        && relaxed
            .constraints()
            .zip(lp.constraints())
            .all(|(a, b)| a == b);
    if !extends || !relaxed_sf.fits(relaxed) || !sf.fits(lp) {
        return None;
    }
    let (from, to) = (relaxed_sf, sf);
    if relaxed_basis.len() != from.num_rows() {
        return None;
    }
    let kept = relaxed.num_constraints();
    let appended = lp.num_constraints() - kept;
    let image = |row: usize| if row < kept { row } else { row + appended };
    let num_structural = from.num_structural;
    let to_slack = to.slack_of_row();
    let mut row_of_slack = vec![0; from.num_columns() - num_structural];
    for (row, slack) in from.slack_of_row().into_iter().enumerate() {
        if let Some(col) = slack {
            row_of_slack[col - num_structural] = row;
        }
    }

    // Each basic column moves to the slot of its row's image; an artificial
    // marker keeps marking its (mapped) slot.  The appended rows keep their
    // own slack basic.
    let mut lifted = vec![None; to.num_rows()];
    for (slot, &col) in relaxed_basis.iter().enumerate() {
        let target_slot = image(slot);
        lifted[target_slot] = Some(if col < num_structural {
            col
        } else if col < from.num_columns() {
            to_slack[image(row_of_slack[col - num_structural])]?
        } else {
            to.num_columns() + target_slot
        });
    }
    lifted
        .into_iter()
        .zip(&to_slack)
        .map(|(basic, &slack)| basic.or(slack))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};

    #[test]
    fn less_eq_rows_get_basic_slack_hints() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        let sf = standardize(&lp);
        assert_eq!(sf.num_rows(), 1);
        assert_eq!(sf.num_columns(), 2);
        assert_eq!(sf.basis_hint[0], Some(1));
        assert_eq!(sf.rhs[0], 4.0);
    }

    #[test]
    fn greater_eq_with_zero_rhs_becomes_basic_after_flip() {
        // x - y >= 0 has rhs 0; after adding the surplus and flipping the sign the
        // surplus column becomes +1 and is usable as the initial basic variable.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::GreaterEq, 0.0);
        let sf = standardize(&lp);
        assert_eq!(sf.basis_hint[0], Some(2));
        // Row was flipped: -x + y + s = 0.
        assert_eq!(sf.coeff(0, 0), -1.0);
        assert_eq!(sf.coeff(0, 1), 1.0);
        assert_eq!(sf.coeff(0, 2), 1.0);
    }

    #[test]
    fn greater_eq_with_positive_rhs_has_no_hint() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        let sf = standardize(&lp);
        assert_eq!(sf.basis_hint[0], None);
        assert_eq!(sf.coeff(0, 1), -1.0);
    }

    #[test]
    fn equality_rows_have_no_slack() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::Equal, 1.0);
        let sf = standardize(&lp);
        assert_eq!(sf.num_columns(), 1);
        assert_eq!(sf.basis_hint[0], None);
    }

    #[test]
    fn lower_bound_shift_adjusts_rhs_and_constant() {
        // x in [2, inf), minimise 3x subject to x <= 5  =>  z = x - 2.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", 2.0, f64::INFINITY);
        lp.set_objective_coefficient(x, 3.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 5.0);
        let sf = standardize(&lp);
        assert_eq!(sf.objective_constant, 6.0);
        assert_eq!(sf.rhs[0], 3.0);
        assert_eq!(sf.recover_values(&[1.0, 0.0]), vec![3.0]);
    }

    #[test]
    fn fixed_variable_is_substituted() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", 2.0, 2.0);
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::LessEq, 10.0);
        let sf = standardize(&lp);
        // only y (plus its slack) remains as columns
        assert_eq!(sf.num_columns(), 2);
        assert_eq!(sf.objective_constant, 2.0);
        assert_eq!(sf.rhs[0], 8.0);
        assert_eq!(sf.mapping[0], VariableMapping::Fixed(2.0));
    }

    #[test]
    fn free_variable_is_split() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", f64::NEG_INFINITY, f64::INFINITY);
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, -5.0);
        let sf = standardize(&lp);
        assert_eq!(sf.mapping[0], VariableMapping::Split { pos: 0, neg: 1 });
        assert_eq!(sf.recover_values(&[0.0, 5.0, 0.0]), vec![-5.0]);
    }

    #[test]
    fn upper_bounded_only_variable_is_negated() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", f64::NEG_INFINITY, 4.0);
        lp.set_objective_coefficient(x, 2.0);
        let sf = standardize(&lp);
        assert_eq!(
            sf.mapping[0],
            VariableMapping::Negated {
                col: 0,
                offset: 4.0
            }
        );
        assert_eq!(sf.costs[0], -2.0);
        assert_eq!(sf.objective_constant, 8.0);
        assert_eq!(sf.recover_values(&[1.0]), vec![3.0]);
    }

    #[test]
    fn two_sided_bounds_add_upper_row() {
        let mut lp = LinearProgram::minimize();
        let _x = lp.add_variable_with_bounds("x", 1.0, 4.0);
        let sf = standardize(&lp);
        assert_eq!(sf.num_rows(), 1);
        assert_eq!(sf.rhs[0], 3.0);
        assert_eq!(sf.basis_hint[0], Some(1));
    }

    #[test]
    fn maximization_flips_cost_sign() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 5.0);
        let sf = standardize(&lp);
        assert!(sf.maximize);
        assert_eq!(sf.costs[0], -5.0);
    }

    #[test]
    fn duplicate_terms_merge_in_the_matrix() {
        // 2x expressed as x + x must appear as a single CSC entry of 2.0.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::LessEq, 6.0);
        let sf = standardize(&lp);
        assert_eq!(sf.coeff(0, 0), 2.0);
        assert_eq!(sf.matrix.column_nnz(0), 1);
    }

    #[test]
    fn dp_shaped_rows_stay_sparse() {
        // 100 two-term ratio rows over 100 variables: nnz must scale with terms,
        // not with rows x cols.
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("x", 100);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.9)], Relation::GreaterEq, 0.0);
        }
        let sf = standardize(&lp);
        // 2 structural terms + 1 slack per row.
        assert_eq!(sf.matrix.nnz(), 99 * 3);
        assert!(sf.matrix.fill_ratio() < 0.02);
    }
}

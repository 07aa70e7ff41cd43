//! Dual-form solving: build the dual of a standardized primal LP, solve it
//! with the ordinary revised-simplex machinery, and map the dual-optimal
//! basis back to a **primal-optimal basis** by complementary slackness.
//!
//! ## Why
//!
//! The mechanism-design LPs are tall: ~2x more rows than columns (33 153 ×
//! 16 641 at n = 128).  The simplex basis is square in the *row* count, so
//! every FTRAN/BTRAN/factorisation on the primal pays for 33 k rows.  The
//! dual of `min c'z, Az = b, z ≥ 0` is `max b'y, A'y ≤ c` — one row per
//! primal *structural* column — so its basis is half the size.  Better
//! still, every mechanism-LP cost is ≥ 0, which makes `y = 0` feasible for
//! the dual: the dual standard form starts from an all-slack basis and
//! **Phase 1 vanishes entirely**.
//!
//! ## The dualize transform
//!
//! [`dualize`] consumes a primal [`StandardForm`] and emits the dual's
//! standard form directly — no intermediate model, no names, no second
//! standardisation:
//!
//! * each primal row `r` becomes a dual variable `y_r`.  Primal slack
//!   columns are *folded into sign bounds* instead of rows of their own: a
//!   `+1` slack on row `r` means the dual constraint `y_r ≤ 0` (one column,
//!   `y_r = −z`), a `−1` surplus means `y_r ≥ 0` (one column, `y_r = z`),
//!   and an equality row leaves `y_r` free (a split pair).  This is what
//!   keeps the dual at `num_structural` rows rather than `num_columns` rows;
//! * each primal structural column `j` becomes the dual row
//!   `Σ_r a_rj · y_r ≤ c_j` plus its slack;
//! * the dual objective is `min −b'y` (the primal minimisation objective is
//!   `−1 ×` the dual optimum).
//!
//! The dual's columns are the primal's rows, so its CSC matrix is the
//! primal's row-wise (CSR) mirror over the structural columns, each `y`
//! column signed by its bound and each dual row by its right-hand side's
//! sign.  The result is the standard form the model route — writing the
//! dual as a [`LinearProgram`](crate::LinearProgram) and standardising it —
//! produces, bit for bit; that route survives as a test reference
//! ([`reference`]) and a differential test pins the two together.
//!
//! ## The basis-mapping contract
//!
//! Both directions are purely combinatorial — no numerics:
//!
//! * **dual-optimal → primal basis** ([`Dualized::map_dual_basis`]): the
//!   primal basic set is `S = {j : the dual slack of row j is nonbasic}`
//!   (the structurally tight dual rows), one per basic dual `y` column;
//!   every primal row whose `y_r` is *nonbasic* (so `y_r = 0`) is filled
//!   with its own slack column — or an artificial marker for equality rows.
//!   Nonsingularity of the dual basis is equivalent to nonsingularity of
//!   this primal candidate (expand both determinants along their unit
//!   columns and the same `A[Y, S]` minor remains).
//! * **primal seed → dual seed** ([`Dualized::map_primal_seed`]): the exact
//!   inverse, so a primal warm seed — a stored optimal basis or a lifted
//!   one — seeds the dual solve too.
//!
//! The mapped primal basis is then handed to the ordinary warm-start
//! machinery ([`revised::warm_solve`]), which factors it, verifies dual
//! feasibility of the reduced costs, mops up any degenerate residue in a
//! handful of pivots, and **certifies optimality with the primal machinery**
//! — the dual solve is a (very fast) seed generator, never the authority on
//! the answer.  Anything that goes wrong at any step reports `None` and the
//! caller falls back to the cold primal path.

use crate::error::SimplexError;
use crate::revised;
use crate::solver::{LpForm, SolveOptions, SolvedPoint};
use crate::sparse::{check_u32, SparseMatrix};
use crate::standard::{StandardForm, VariableMapping};

/// A dualized program plus the bookkeeping needed to map bases across forms.
pub(crate) struct Dualized {
    /// Standard form of the dual LP (every `y` bound is one-sided, so it has
    /// one row per primal structural column and no bound rows).
    pub sf: StandardForm,
    /// Per primal row: the primal slack/surplus column folded into `y_r`'s
    /// sign bound, if the row has one (equality rows do not).
    primal_slack_of_row: Vec<Option<usize>>,
    /// Per dual *structural* column: the primal row whose `y` it encodes
    /// (the split columns of a free `y` both map to their row).
    y_col_row: Vec<usize>,
}

/// Scale of the deterministic dual-rhs anti-degeneracy perturbation (see
/// [`dual_rhs`]).  Well above the solver's feasibility tolerance (so ties
/// actually break) and small enough that the perturbed optimal basis stays
/// within a few certification pivots of the true one.
const RHS_PERTURBATION: f64 = 1e-6;

/// The right-hand side of dual row `j`: the primal cost `c_j` plus a tiny
/// deterministic **anti-degeneracy perturbation**.  Mechanism-LP costs are
/// full of exact ties (uniform objective weights), and ties in the dual rhs
/// are what make the dual walk spin on degenerate vertices (60%+ zero-step
/// pivots unperturbed).  A low-discrepancy positive offset breaks every tie
/// while keeping `y = 0` feasible (`c ≥ 0` stays `≥ 0`).  Exactness is
/// *not* lost: the perturbed dual-optimal basis is only used as a seed, and
/// the primal certification re-solves with the true costs.
fn dual_rhs(primal: &StandardForm, j: usize) -> f64 {
    const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
    let jitter = ((j + 1) as f64 * PHI_FRAC).fract();
    let eps = RHS_PERTURBATION * (1.0 + primal.costs[j].abs()) * (0.5 + jitter);
    primal.costs[j] + eps
}

/// Build the dual of a primal standard form (see the module docs).
pub(crate) fn dualize(primal: &StandardForm) -> Dualized {
    let m = primal.num_rows();
    let ns = primal.num_structural;

    // Each row's slack/surplus singleton folds into a bound.
    let slack_of_row = primal.slack_of_row();

    // One dual variable per primal row, its columns in row order: `max b'y`
    // as a minimisation gives `y_r` the objective coefficient `−b_r`.
    let mut mapping = Vec::with_capacity(m);
    let mut costs = Vec::with_capacity(m + ns);
    let mut y_col_row = Vec::with_capacity(m);
    for (r, slack) in slack_of_row.iter().enumerate() {
        let c = -primal.rhs[r];
        let col = costs.len();
        match *slack {
            // `+1` slack: its dual constraint is `y_r ≤ 0`, so `y_r = −z`.
            Some(slack) if primal.matrix.get(r, slack) > 0.0 => {
                costs.push(-c);
                mapping.push(VariableMapping::Negated { col, offset: 0.0 });
                y_col_row.push(r);
            }
            // `−1` surplus: `−y_r ≤ 0`, i.e. `y_r ≥ 0`, so `y_r = z`.
            Some(_) => {
                costs.push(c);
                mapping.push(VariableMapping::Shifted { col, offset: 0.0 });
                y_col_row.push(r);
            }
            // Equality row: a free multiplier, split in two.
            None => {
                costs.extend([c, -c]);
                mapping.push(VariableMapping::Split {
                    pos: col,
                    neg: col + 1,
                });
                y_col_row.extend([r, r]);
            }
        }
    }
    let num_structural = costs.len();
    costs.resize(num_structural + ns, 0.0);

    // One `≤` row per primal structural column.  A row whose rhs is negative
    // is flipped, and then its slack is no basis hint.
    let mut row_sign = Vec::with_capacity(ns);
    let mut rhs = Vec::with_capacity(ns);
    let mut basis_hint = Vec::with_capacity(ns);
    for j in 0..ns {
        // Every `y` is bounded at zero, so no shift moves the rhs.
        let b = dual_rhs(primal, j);
        let flip = b < 0.0;
        row_sign.push(if flip { -1.0 } else { 1.0 });
        rhs.push(if flip { -b } else { b });
        basis_hint.push((!flip).then_some(num_structural + j));
    }

    // The dual's columns are the primal's rows: `y_r`'s column holds
    // `(j, ±a_rj)` over primal row r's structural entries, then each dual
    // row's slack is a signed unit column.
    let rows = primal.matrix.leading_row_major(ns);
    let nnz: usize = mapping
        .iter()
        .enumerate()
        .map(|(r, y)| match y {
            VariableMapping::Split { .. } => 2 * rows.row_nnz(r),
            _ => rows.row_nnz(r),
        })
        .sum::<usize>()
        + ns;
    check_u32(nnz, "entries");
    let mut col_ptr = Vec::with_capacity(num_structural + ns + 1);
    let mut row_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    col_ptr.push(0u32);
    let mut push_column = |r: usize, negated: bool| {
        let (cols, entries) = rows.row_slices(r);
        for (&j, &a) in cols.iter().zip(entries) {
            let value = if negated { -a } else { a };
            row_idx.push(j);
            values.push(row_sign[j as usize] * value);
        }
        col_ptr.push(row_idx.len() as u32);
    };
    for (r, y) in mapping.iter().enumerate() {
        match y {
            VariableMapping::Negated { .. } => push_column(r, true),
            VariableMapping::Shifted { .. } => push_column(r, false),
            VariableMapping::Split { .. } => {
                push_column(r, false);
                push_column(r, true);
            }
            VariableMapping::Fixed(_) => unreachable!("no dual variable is bound-fixed"),
        }
    }
    for (j, &sign) in row_sign.iter().enumerate() {
        row_idx.push(j as u32);
        values.push(sign * 1.0);
        col_ptr.push(row_idx.len() as u32);
    }

    let sf = StandardForm {
        matrix: SparseMatrix::from_csc(ns, col_ptr, row_idx, values),
        rhs,
        costs,
        num_structural,
        num_constraints: ns,
        basis_hint,
        mapping,
        // Nor the objective: it has no constant.
        objective_constant: 0.0,
        maximize: false,
    };
    Dualized {
        sf,
        primal_slack_of_row: slack_of_row,
        y_col_row,
    }
}

/// The model route to the dual — write it as a
/// [`LinearProgram`](crate::LinearProgram) and standardise that — kept as the
/// reference [`dualize`] is tested against.  Compiled for the crate's own
/// tests and, behind the `dual-reference` feature, for the differential
/// test over the design programs in `cpm-core`.
#[cfg(any(test, feature = "dual-reference"))]
#[doc(hidden)]
pub mod reference {
    use super::{dual_rhs, dualize, Dualized};
    use crate::model::{LinearProgram, Relation};
    use crate::standard::{standardize, StandardForm, VariableMapping};

    /// The dual of `primal` through a named model and `standardize`.
    pub(crate) fn dualize_via_model(primal: &StandardForm) -> Dualized {
        let m = primal.num_rows();
        let ns = primal.num_structural;
        let slack_of_row = primal.slack_of_row();

        let mut lp = LinearProgram::minimize();
        let y: Vec<_> = (0..m)
            .map(|r| {
                let (lower, upper) = match slack_of_row[r] {
                    Some(col) if primal.matrix.get(r, col) > 0.0 => (f64::NEG_INFINITY, 0.0),
                    Some(_) => (0.0, f64::INFINITY),
                    None => (f64::NEG_INFINITY, f64::INFINITY),
                };
                let var = lp.add_variable_with_bounds(format!("y{r}"), lower, upper);
                lp.set_objective_coefficient(var, -primal.rhs[r]);
                var
            })
            .collect();
        for j in 0..ns {
            lp.add_constraint(
                primal.matrix.column(j).map(|(r, a)| (y[r], a)),
                Relation::LessEq,
                dual_rhs(primal, j),
            );
        }

        let sf = standardize(&lp);
        let mut y_col_row = vec![0usize; sf.num_structural];
        for (r, mapping) in sf.mapping.iter().enumerate() {
            match *mapping {
                VariableMapping::Shifted { col, .. } | VariableMapping::Negated { col, .. } => {
                    y_col_row[col] = r;
                }
                VariableMapping::Split { pos, neg } => {
                    y_col_row[pos] = r;
                    y_col_row[neg] = r;
                }
                VariableMapping::Fixed(_) => unreachable!("no dual variable is bound-fixed"),
            }
        }
        Dualized {
            sf,
            primal_slack_of_row: slack_of_row,
            y_col_row,
        }
    }

    /// Bitwise equality of two floats (`0.0` and `−0.0` differ).
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Where the direct dual of `primal` differs from the model route's, if
    /// anywhere: matrix (entries and bits), `rhs`, `costs`, `basis_hint`,
    /// `mapping`, `num_structural`, `num_constraints`, the objective
    /// constant and `y_col_row`.
    pub(crate) fn dual_difference(primal: &StandardForm) -> Option<String> {
        let (direct, model) = (dualize(primal), dualize_via_model(primal));
        let (a, b) = (&direct.sf, &model.sf);
        let columns_match = a.matrix.num_rows() == b.matrix.num_rows()
            && a.matrix.num_cols() == b.matrix.num_cols()
            && (0..a.matrix.num_cols()).all(|j| {
                let ((rows_a, values_a), (rows_b, values_b)) =
                    (a.matrix.column_slices(j), b.matrix.column_slices(j));
                rows_a == rows_b && same_bits(values_a, values_b)
            });
        let checks = [
            ("matrix", columns_match),
            ("rhs", same_bits(&a.rhs, &b.rhs)),
            ("costs", same_bits(&a.costs, &b.costs)),
            ("basis_hint", a.basis_hint == b.basis_hint),
            (
                "mapping",
                a.mapping.len() == b.mapping.len()
                    && a.mapping.iter().zip(&b.mapping).all(|pair| match pair {
                        (
                            VariableMapping::Shifted { col, offset },
                            VariableMapping::Shifted { col: c, offset: o },
                        )
                        | (
                            VariableMapping::Negated { col, offset },
                            VariableMapping::Negated { col: c, offset: o },
                        ) => col == c && offset.to_bits() == o.to_bits(),
                        (x, y) => x == y,
                    }),
            ),
            ("num_structural", a.num_structural == b.num_structural),
            ("num_constraints", a.num_constraints == b.num_constraints),
            (
                "objective_constant",
                a.objective_constant.to_bits() == b.objective_constant.to_bits()
                    && a.maximize == b.maximize,
            ),
            ("y_col_row", direct.y_col_row == model.y_col_row),
            (
                "primal_slack_of_row",
                direct.primal_slack_of_row == model.primal_slack_of_row,
            ),
        ];
        let differ: Vec<&str> = checks
            .iter()
            .filter(|(_, same)| !same)
            .map(|(field, _)| *field)
            .collect();
        (!differ.is_empty()).then(|| format!("direct dual differs in {}", differ.join(", ")))
    }

    /// Standardise `lp` and compare its direct dual with the model route's
    /// bit for bit: `Err` names the fields that differ.
    pub fn check_dual_of(lp: &LinearProgram) -> Result<(), String> {
        let primal = lp.standardize().map_err(|error| error.to_string())?;
        match dual_difference(&primal) {
            Some(difference) => Err(difference),
            None => Ok(()),
        }
    }
}

impl Dualized {
    /// The dual standard-form slack column of dual row `j` (every dual row is
    /// a `<=` row, so slacks are appended in row order).
    fn dual_slack_col(&self, j: usize) -> usize {
        self.sf.num_structural + j
    }

    /// The dual standard-form column to make basic when `y_r` must be basic.
    /// For a free `y` (primal equality row) the positive split part is used;
    /// if the optimum wants `y_r < 0` the dual cleanup swaps in the negative
    /// part with an ordinary pivot.
    fn y_entry_col(&self, r: usize) -> usize {
        match self.sf.mapping[r] {
            VariableMapping::Shifted { col, .. } | VariableMapping::Negated { col, .. } => col,
            VariableMapping::Split { pos, .. } => pos,
            VariableMapping::Fixed(_) => unreachable!("no dual variable is bound-fixed"),
        }
    }

    /// Map a primal-optimal basis (primal standard-form column per primal
    /// row) to the complementary dual basis, usable as a dual warm seed.
    ///
    /// Basic primal structural columns become *tight* dual rows (their dual
    /// slack leaves the seed); every primal row covered by a basic slack or
    /// artificial has `y_r = 0` nonbasic, and the remaining rows' `y`
    /// columns pair up with the tight dual rows (the pairing inside the set
    /// is arbitrary — the factorisation re-keys rows).  `None` for any seed
    /// that is malformed or double-covers a row; the dual solve then simply
    /// starts cold.
    pub fn map_primal_seed(&self, primal: &StandardForm, seed: &[usize]) -> Option<Vec<usize>> {
        let m = primal.num_rows();
        let ns = primal.num_structural;
        let num_core = primal.num_columns();
        if seed.len() != m {
            return None;
        }
        let mut in_s = vec![false; ns];
        let mut covered = vec![false; m];
        for (slot, &col) in seed.iter().enumerate() {
            let covered_row = if col < ns {
                if in_s[col] {
                    return None;
                }
                in_s[col] = true;
                continue;
            } else if col < num_core {
                // A slack column covers its own row, wherever it is listed.
                primal
                    .matrix
                    .column(col)
                    .next()
                    .map(|(row, _)| row)
                    .expect("slack columns are nonempty")
            } else {
                // Artificial markers keep the row they are listed under basic
                // (the same convention `RevisedState::with_basis` applies).
                slot
            };
            if covered[covered_row] {
                return None;
            }
            covered[covered_row] = true;
        }

        let mut uncovered = (0..m).filter(|&r| !covered[r]);
        let mut dual_seed = Vec::with_capacity(ns);
        for (j, &in_basis) in in_s.iter().enumerate().take(ns) {
            if in_basis {
                dual_seed.push(self.y_entry_col(uncovered.next()?));
            } else {
                dual_seed.push(self.dual_slack_col(j));
            }
        }
        if uncovered.next().is_some() {
            return None;
        }
        Some(dual_seed)
    }

    /// Map a dual-optimal basis back to a primal basis (see the module docs
    /// for the complementary-slackness argument).  `None` when the dual
    /// basis is not mappable (a split `y` with both parts basic, or a count
    /// mismatch) — the caller falls back to the cold primal path.
    pub fn map_dual_basis(
        &self,
        primal: &StandardForm,
        dual_basis: &[usize],
    ) -> Option<Vec<usize>> {
        let nd = self.sf.num_rows();
        let nds = self.sf.num_structural;
        let dual_core = self.sf.num_columns();
        let m = primal.num_rows();
        if dual_basis.len() != nd {
            return None;
        }
        // `tight[j]`: the dual slack of row j is nonbasic and no artificial
        // pins the row — primal column j joins the basic set S.
        let mut tight = vec![true; nd];
        let mut y_basic = vec![false; m];
        for (slot, &col) in dual_basis.iter().enumerate() {
            if col < nds {
                let r = self.y_col_row[col];
                if y_basic[r] {
                    // Both split parts of a free y basic would be singular.
                    return None;
                }
                y_basic[r] = true;
            } else if col < dual_core {
                tight[col - nds] = false;
            } else {
                tight[slot] = false;
            }
        }

        let mut s_cols = (0..nd).filter(|&j| tight[j]);
        let mut primal_basis = Vec::with_capacity(m);
        let mut next_artificial = primal.num_columns();
        for (r, &y_is_basic) in y_basic.iter().enumerate().take(m) {
            if y_is_basic {
                // A basic y_r pairs with one tight dual row's structural
                // column (pairing arbitrary — the factorisation re-keys).
                primal_basis.push(s_cols.next()?);
            } else if let Some(col) = self.primal_slack_of_row[r] {
                primal_basis.push(col);
            } else {
                // Equality row with y_r = 0: redundant at this vertex; keep
                // it basic through an artificial marker, exactly as a cold
                // primal solve reports redundant rows.
                primal_basis.push(next_artificial);
                next_artificial += 1;
            }
        }
        if s_cols.next().is_some() {
            return None;
        }
        Some(primal_basis)
    }
}

/// Solve `sf` (a primal standard form) through its dual.
///
/// `Ok(None)` means "not handled here — run the primal path": the program is
/// ineligible (no rows or structural columns), the dual solve hit
/// a non-budget error (a dual infeasibility/unboundedness maps to a primal
/// unboundedness/infeasibility the primal path classifies authoritatively),
/// a caller warm seed mapped into dual form but was declined there (the
/// primal warm path repairs such seeds natively), the returned basis did not
/// map back, or the primal certification declined.  Only
/// [`SimplexError::IterationLimit`] propagates — the budget is shared, so the
/// primal path could not finish either.
pub(crate) fn solve_via_dual(
    sf: &StandardForm,
    options: &SolveOptions,
) -> Result<Option<SolvedPoint>, SimplexError> {
    if sf.num_rows() == 0 || sf.num_structural == 0 {
        return Ok(None);
    }

    let dual = dualize(sf);
    let mapped_seed = options
        .warm_basis
        .as_deref()
        .and_then(|seed| dual.map_primal_seed(sf, seed));
    let dual_options = options
        .clone()
        .with_form(LpForm::Primal)
        .with_warm_basis(None);
    let dual_point = match &mapped_seed {
        // A caller seed that maps is tried through the dual-side warm
        // machinery directly.  If it is declined, do NOT pay a cold dual
        // solve: a declined seed here is typically a perturbed program's basis
        // that is infeasible both ways under the new coefficients.  The dual
        // form cannot repair that, while the primal warm path's dual-simplex
        // cleanup is built for its primal half.  Deferring hands the
        // untouched seed back to the primal path.
        Some(seed) => match revised::warm_solve(&dual.sf, &dual_options, seed) {
            Some(point) => point,
            None => return Ok(None),
        },
        None => match revised::solve(&dual.sf, &dual_options) {
            Ok(point) => point,
            Err(error @ SimplexError::IterationLimit { .. }) => return Err(error),
            Err(_) => return Ok(None),
        },
    };

    let primal_seed = dual_point
        .basis
        .as_deref()
        .and_then(|basis| dual.map_dual_basis(sf, basis));
    let ds = dual_point.stats;
    // Nothing after the basis map reads the dual program or its solved
    // point: free them before the certification solve, whose working set is
    // the design's peak.
    drop(dual_point);
    drop(mapped_seed);
    drop(dual);
    let Some(primal_seed) = primal_seed else {
        return Ok(None);
    };

    // Certification: the complementary basis is primal-optimal up to
    // degenerate ties, and the ordinary warm-start machinery proves it —
    // factor, exact reduced costs, dual cleanup (0 pivots when the mapping is
    // exact), primal cleanup, fresh-factor confirmation.
    let certify_options = options.clone().with_warm_basis(None);
    let Some(mut point) = revised::warm_solve(sf, &certify_options, &primal_seed) else {
        return Ok(None);
    };

    let stats = &mut point.stats;
    stats.form = LpForm::Dual;
    stats.add_work(&ds);
    // "Warm-started" reports whether the *caller's* seed steered the solve —
    // here, whether it survived the map into dual form and was accepted
    // there.  The internal certification warm start is an implementation
    // detail of the dual path, not a seeded solve.
    stats.warm_started = ds.warm_started;
    Ok(Some(point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};
    use crate::solver::SolveOptions;
    use crate::standard::standardize;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// Solve `lp` through the dual path and return the point; panics if the
    /// dual path declines (these fixtures are all eligible).
    fn via_dual(lp: &LinearProgram) -> SolvedPoint {
        let sf = standardize(lp);
        solve_via_dual(&sf, &SolveOptions::default())
            .expect("dual solve must not error")
            .expect("fixture must be dual-eligible")
    }

    fn primal_objective(lp: &LinearProgram) -> f64 {
        lp.solve_with(&SolveOptions::default())
            .unwrap()
            .objective_value
    }

    /// The fixtures the tests below solve, as models.
    fn fixtures() -> Vec<LinearProgram> {
        let mut mixed = LinearProgram::minimize();
        let x = mixed.add_variable("x");
        let y = mixed.add_variable("y");
        mixed.set_objective_coefficient(x, 1.0);
        mixed.set_objective_coefficient(y, 2.0);
        mixed.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.0);
        mixed.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0);
        mixed.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Equal, 3.0);

        let mut bounded = LinearProgram::minimize();
        let f = bounded.add_variable_with_bounds("f", f64::NEG_INFINITY, f64::INFINITY);
        let lo = bounded.add_variable_with_bounds("lo", 1.0, f64::INFINITY);
        let hi = bounded.add_variable_with_bounds("hi", f64::NEG_INFINITY, 5.0);
        bounded.set_objective_coefficient(f, 1.0);
        bounded.set_objective_coefficient(lo, 2.0);
        bounded.set_objective_coefficient(hi, -1.0);
        bounded.add_constraint(vec![(f, 1.0), (lo, 1.0)], Relation::GreaterEq, 1.0);
        bounded.add_constraint(vec![(f, 1.0), (lo, 1.0)], Relation::LessEq, 6.0);
        bounded.add_constraint(vec![(f, 1.0), (hi, 1.0)], Relation::GreaterEq, -2.0);

        let mut chain = LinearProgram::minimize();
        let vars = chain.add_variables("p", 6);
        for (i, v) in vars.iter().enumerate() {
            chain.set_objective_coefficient(*v, 1.0 + i as f64);
        }
        chain.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        for w in vars.windows(2) {
            chain.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Relation::GreaterEq, 0.0);
        }

        let mut infeasible = LinearProgram::minimize();
        let x = infeasible.add_variable("x");
        infeasible.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        infeasible.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);

        let mut unbounded = LinearProgram::minimize();
        let x = unbounded.add_variable("x");
        let y = unbounded.add_variable("y");
        unbounded.set_objective_coefficient(x, -1.0);
        unbounded.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 1.0);

        vec![mixed, bounded, chain, infeasible, unbounded]
    }

    #[test]
    fn direct_dual_matches_the_model_route_on_the_fixtures() {
        for (i, lp) in fixtures().iter().enumerate() {
            assert_eq!(
                reference::dual_difference(&standardize(lp)),
                None,
                "fixture {i}"
            );
        }
    }

    /// A deterministic random program: `≤`/`≥`/`=` rows with negative, zero
    /// and positive right-hand sides (zero ones flip `≥` rows and produce
    /// signed zeros), and variables free, fixed, or bounded on one or both
    /// sides.
    fn random_program(seed: u64) -> LinearProgram {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut lp = if next() % 2 == 0 {
            LinearProgram::minimize()
        } else {
            LinearProgram::maximize()
        };
        let num_vars = 2 + (next() % 9) as usize;
        let vars: Vec<_> = (0..num_vars)
            .map(|i| {
                let bound = |v: u64| (v % 7) as f64 * 0.5 - 1.5;
                let (lower, upper) = match next() % 6 {
                    0 | 1 => (0.0, f64::INFINITY),
                    2 => (bound(next()), f64::INFINITY),
                    3 => (f64::NEG_INFINITY, bound(next())),
                    4 => {
                        let lower = bound(next());
                        (lower, lower + 0.5 + (next() % 3) as f64)
                    }
                    _ => (f64::NEG_INFINITY, f64::INFINITY),
                };
                let var = lp.add_variable_with_bounds(format!("x{i}"), lower, upper);
                lp.set_objective_coefficient(var, (next() % 9) as f64 * 0.25 - 0.5);
                var
            })
            .collect();
        let num_rows = 1 + (next() % 12) as usize;
        for _ in 0..num_rows {
            let mut terms = Vec::new();
            for &v in &vars {
                if next() % 3 != 0 {
                    terms.push((v, (next() % 11) as f64 * 0.3 - 1.5));
                }
            }
            let relation = match next() % 3 {
                0 => Relation::LessEq,
                1 => Relation::GreaterEq,
                _ => Relation::Equal,
            };
            let rhs = match next() % 4 {
                0 => 0.0,
                1 => -((next() % 5) as f64) * 0.7 - 0.1,
                _ => (next() % 5) as f64 * 0.7 + 0.1,
            };
            lp.add_constraint(terms, relation, rhs);
        }
        lp
    }

    #[test]
    fn direct_dual_matches_the_model_route_on_random_programs() {
        let (mut equalities, mut flipped, mut split) = (0, 0, 0);
        for seed in 0..2_000 {
            let primal = standardize(&random_program(seed));
            if primal.num_structural == 0 {
                continue;
            }
            assert_eq!(
                reference::dual_difference(&primal),
                None,
                "random program {seed}"
            );
            let dual = dualize(&primal);
            equalities += primal.slack_of_row().iter().filter(|s| s.is_none()).count();
            flipped += dual.sf.basis_hint.iter().filter(|h| h.is_none()).count();
            split += dual
                .sf
                .mapping
                .iter()
                .filter(|m| matches!(m, VariableMapping::Split { .. }))
                .count();
        }
        // The generator reaches every branch of the builder.
        assert!(equalities > 0 && flipped > 0 && split > 0);
    }

    #[test]
    fn dualize_folds_slacks_into_bounds_and_transposes() {
        // min x + 2y  s.t.  x + y >= 2 (surplus),  x - y <= 1 (slack),
        //                   x + 3y = 3 (equality).
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Equal, 3.0);
        let sf = standardize(&lp);
        let dual = dualize(&sf);

        // One dual row per primal structural column; the slack columns fold
        // into bounds instead of rows.
        assert_eq!(dual.sf.num_rows(), 2);
        assert_eq!(sf.num_structural, 2);
        // y_0 (>= row with positive rhs keeps its -1 surplus): y_0 >= 0 costs
        // one structural column; y_1 (<= row): y_1 <= 0, negated, one more;
        // y_2 (equality): free, split into two.  Total 4 structural columns.
        assert_eq!(dual.sf.num_structural, 4);
        // Each primal structural column's CSC column became a dual row.
        assert_eq!(dual.sf.num_columns(), 4 + 2);
    }

    #[test]
    fn dual_form_matches_primal_on_inequality_mixes() {
        // The fixture above has a >= row, a <= row, and an equality row.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Equal, 3.0);
        let point = via_dual(&lp);
        assert_close(point.objective, primal_objective(&lp));
        assert_eq!(point.stats.form, LpForm::Dual);
    }

    #[test]
    fn dual_form_handles_free_and_bounded_variables() {
        // A free variable (split in the primal standard form) and variables
        // with shifted/negated one-sided bounds; also a range-like pair of
        // rows bracketing the same expression.
        let mut lp = LinearProgram::minimize();
        let f = lp.add_variable_with_bounds("f", f64::NEG_INFINITY, f64::INFINITY);
        let lo = lp.add_variable_with_bounds("lo", 1.0, f64::INFINITY);
        let hi = lp.add_variable_with_bounds("hi", f64::NEG_INFINITY, 5.0);
        lp.set_objective_coefficient(f, 1.0);
        lp.set_objective_coefficient(lo, 2.0);
        lp.set_objective_coefficient(hi, -1.0);
        // Range rows: 1 <= f + lo <= 6.
        lp.add_constraint(vec![(f, 1.0), (lo, 1.0)], Relation::GreaterEq, 1.0);
        lp.add_constraint(vec![(f, 1.0), (lo, 1.0)], Relation::LessEq, 6.0);
        lp.add_constraint(vec![(f, 1.0), (hi, 1.0)], Relation::GreaterEq, -2.0);
        let point = via_dual(&lp);
        let sf = standardize(&lp);
        let values = sf.recover_values(&point.z);
        assert_close(
            point.objective + sf.objective_constant,
            primal_objective(&lp),
        );
        // f + lo within the range rows.
        let range = values[0] + values[1];
        assert!((1.0 - 1e-9..=6.0 + 1e-9).contains(&range));
    }

    #[test]
    fn dual_basis_maps_back_to_a_zero_pivot_primal_seed() {
        // The recovered basis must be primal-optimal as-is: re-solving the
        // primal seeded with it performs no pivots at all.
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("p", 6);
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(*v, 1.0 + i as f64);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Relation::GreaterEq, 0.0);
        }
        let point = via_dual(&lp);
        let seed = point.basis.clone().expect("dual path reports a basis");
        let sf = standardize(&lp);
        let reseeded = revised::warm_solve(&sf, &SolveOptions::default(), &seed)
            .expect("a dual-recovered basis must be warm-start-valid");
        assert_eq!(reseeded.stats.dual_iterations, 0);
        assert_eq!(reseeded.stats.phase2_iterations, 0);
        assert_close(reseeded.objective, point.objective);
    }

    #[test]
    fn primal_seed_round_trips_through_the_dual_seed_mapping() {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("p", 5);
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(*v, 1.0 + (i % 3) as f64);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.9)], Relation::GreaterEq, 0.0);
        }
        let sf = standardize(&lp);
        let cold = revised::solve(&sf, &SolveOptions::default()).unwrap();
        let primal_basis = cold.basis.unwrap();

        let dual = dualize(&sf);
        let dual_seed = dual
            .map_primal_seed(&sf, &primal_basis)
            .expect("an optimal primal basis maps to a dual seed");
        // The mapped seed must be accepted by the dual solve's warm path and
        // the whole dual path must reproduce the optimum.
        let options = SolveOptions::default().with_warm_basis(Some(primal_basis));
        let point = solve_via_dual(&sf, &options).unwrap().unwrap();
        assert!(point.stats.warm_started, "mapped seed must be accepted");
        assert_close(point.objective, cold.objective);
        // And the dual seed itself is structurally sound: one entry per dual
        // row, all distinct.
        let mut seen = vec![false; dual.sf.num_columns()];
        assert_eq!(dual_seed.len(), dual.sf.num_rows());
        for &col in &dual_seed {
            assert!(!seen[col]);
            seen[col] = true;
        }
    }

    #[test]
    fn infeasible_and_unbounded_programs_fall_back_to_the_primal_path() {
        // Infeasible primal: the dual is unbounded; the path must decline
        // rather than misreport.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        let sf = standardize(&lp);
        assert!(solve_via_dual(&sf, &SolveOptions::default())
            .unwrap()
            .is_none());

        // Unbounded primal: the dual is infeasible; same contract.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, -1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 1.0);
        let sf = standardize(&lp);
        assert!(solve_via_dual(&sf, &SolveOptions::default())
            .unwrap()
            .is_none());
    }
}

//! LP presolve: problem reductions applied **before** standardisation.
//!
//! The mechanism-design LPs carry structure the simplex method pays for but
//! never needs: at `α = 1` every differential-privacy ratio pair
//! `{x_a − x_b ≥ 0, x_b − x_a ≥ 0}` collapses to an equality (whole DP chains
//! alias to a single variable), duplicated property rows re-state each other,
//! and singleton rows are just bounds in disguise.  [`presolve`] strips all of
//! those in one deterministic pipeline:
//!
//! 1. **Aliasing** — two-term rows with equal-and-opposite coefficients and a
//!    zero right-hand side are collected; an equality (or a `≥`/`≤` pair in
//!    both directions) merges its endpoints through a union–find.  Merged
//!    variables pool their objective coefficients and intersect their bounds.
//! 2. **Row reduction to fixpoint** — fixed variables (equal bounds) are
//!    substituted into the right-hand side, empty rows are checked for
//!    consistency and dropped, and singleton rows are folded into variable
//!    bounds (which may fix further variables, so the pass iterates).
//! 3. **Duplicate rows** — surviving rows are deduplicated on their exact
//!    (variable, coefficient) pattern; inequalities keep the tighter
//!    right-hand side, equalities must agree.
//! 4. **Empty columns** — variables left out of every surviving row are fixed
//!    at whichever of their bounds the objective prefers (kept in the problem
//!    when that bound is infinite, so the solver still certifies
//!    unboundedness).
//!
//! The output is a compacted [`LinearProgram`] plus a [`PostsolveMap`] that
//! expands a reduced solution back to the full variable space and carries the
//! objective contribution of everything that was eliminated.  The pipeline is
//! **deterministic**: the same input program always produces the same reduced
//! program, so warm bases cached against presolved solves stay exchangeable
//! across runs (the reduced standard form *is* the basis space — see the
//! crate docs).

use std::collections::HashMap;

use crate::error::SimplexError;
use crate::model::{LinearProgram, Objective, Relation, VariableId};

/// Feasibility slack for redundant-row consistency checks (`0 ≤ rhs` and
/// friends): matches the solver's own Phase-1 feasibility tolerance.
const FEAS_EPS: f64 = 1e-9;

/// What became of one original variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarDisposition {
    /// Survives as column `new` of the reduced program.
    Kept(usize),
    /// Eliminated at this value (fixed bounds, or an empty column driven to
    /// its preferred bound).
    Fixed(f64),
    /// Aliased to the original variable `rep` (always itself `Kept` or
    /// `Fixed`, never another alias).
    Alias(usize),
}

/// Expansion recipe from the reduced variable space back to the original one.
#[derive(Debug, Clone)]
pub(crate) struct PostsolveMap {
    pub vars: Vec<VarDisposition>,
    /// Objective contribution of eliminated variables, in raw coefficient
    /// terms (add to the reduced objective value for either direction).
    pub objective_offset: f64,
    pub rows_removed: usize,
    pub cols_removed: usize,
}

impl PostsolveMap {
    /// Expand a reduced solution vector to the original variable space.
    pub fn expand_values(&self, reduced: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.vars.len()];
        for (i, disp) in self.vars.iter().enumerate() {
            match *disp {
                VarDisposition::Kept(new) => full[i] = reduced[new],
                VarDisposition::Fixed(value) => full[i] = value,
                VarDisposition::Alias(_) => {}
            }
        }
        // Representatives are resolved above, so one pass suffices.
        for (i, disp) in self.vars.iter().enumerate() {
            if let VarDisposition::Alias(rep) = *disp {
                full[i] = full[rep];
            }
        }
        full
    }
}

/// A presolved program and the map back to the original space.
#[derive(Debug)]
pub(crate) struct Presolved {
    pub lp: LinearProgram,
    pub map: PostsolveMap,
    /// The original row each reduced row came from (`row_origin[r]` for
    /// reduced row `r`, strictly increasing).
    pub row_origin: Vec<usize>,
}

/// One constraint row under reduction.
struct Row {
    terms: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

/// Union–find with path compression (no ranking: chains here are short and
/// determinism matters more than depth).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge, keeping the **smaller original index** as the representative so
    /// the reduction is order-independent and deterministic.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (keep, fold) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[fold] = keep;
        }
    }
}

/// Run the reduction pipeline.  Errors only on *provable* infeasibility
/// (contradictory singleton rows or crossed derived bounds).
pub(crate) fn presolve(lp: &LinearProgram) -> Result<Presolved, SimplexError> {
    let num_vars = lp.num_variables();

    // ---- 1. alias detection over equal-and-opposite two-term rows ----------
    let mut uf = UnionFind::new(num_vars);
    {
        // Directed dominance edges `a ≥ b` from `c·x_a − c·x_b ≥ 0`; a pair in
        // both directions is an equality.  Equality rows alias immediately.
        let mut ge_edges: HashMap<(usize, usize), ()> = HashMap::new();
        for row in lp.constraints() {
            let Some((a, b)) = opposite_pair(row.terms) else {
                continue;
            };
            if row.rhs != 0.0 {
                continue;
            }
            match row.relation {
                Relation::Equal => uf.union(a, b),
                // `opposite_pair` orients so the positive coefficient is on
                // `a`: GreaterEq means x_a ≥ x_b, LessEq the reverse.
                Relation::GreaterEq => {
                    if ge_edges.remove(&(b, a)).is_some() {
                        uf.union(a, b);
                    } else {
                        ge_edges.insert((a, b), ());
                    }
                }
                Relation::LessEq => {
                    if ge_edges.remove(&(a, b)).is_some() {
                        uf.union(a, b);
                    } else {
                        ge_edges.insert((b, a), ());
                    }
                }
            }
        }
    }

    // Pool objective coefficients and intersect bounds onto representatives.
    let mut cost = vec![0.0; num_vars];
    let mut lower = vec![0.0; num_vars];
    let mut upper = vec![0.0; num_vars];
    for i in 0..num_vars {
        let (lo, up) = lp.bounds(VariableId(i));
        lower[i] = lo;
        upper[i] = up;
    }
    for i in 0..num_vars {
        let root = uf.find(i);
        if root != i {
            cost[root] += lp.objective_coefficient(VariableId(i));
            lower[root] = lower[root].max(lower[i]);
            upper[root] = upper[root].min(upper[i]);
        }
    }
    for i in 0..num_vars {
        if uf.find(i) == i {
            cost[i] += lp.objective_coefficient(VariableId(i));
            if lower[i] > upper[i] + FEAS_EPS {
                return Err(SimplexError::Infeasible);
            }
            // A crossing within tolerance collapses to a point.
            if lower[i] > upper[i] {
                upper[i] = lower[i];
            }
        }
    }

    // ---- rows in root space ------------------------------------------------
    let mut rows: Vec<Option<Row>> = Vec::with_capacity(lp.num_constraints());
    let mut scratch: HashMap<usize, f64> = HashMap::new();
    for row in lp.constraints() {
        scratch.clear();
        for &(var, coeff) in row.terms {
            *scratch.entry(uf.find(var.0)).or_insert(0.0) += coeff;
        }
        let mut terms: Vec<(usize, f64)> = scratch
            .iter()
            .map(|(&v, &c)| (v, c))
            .filter(|&(_, c)| c != 0.0)
            .collect();
        terms.sort_unstable_by_key(|&(v, _)| v);
        rows.push(Some(Row {
            terms,
            relation: row.relation,
            rhs: row.rhs,
        }));
    }

    // ---- 2. fixed-substitution / empty-row / singleton fixpoint ------------
    let mut fixed: Vec<Option<f64>> = (0..num_vars)
        .map(|i| {
            (uf.parent[i] == i && lower[i].is_finite() && lower[i] == upper[i]).then_some(lower[i])
        })
        .collect();
    loop {
        let mut changed = false;
        for slot in rows.iter_mut() {
            let Some(row) = slot else { continue };
            // Substitute currently-fixed variables into the right-hand side.
            if row.terms.iter().any(|&(v, _)| fixed[v].is_some()) {
                let Row { terms, rhs, .. } = row;
                terms.retain(|&(v, c)| {
                    if let Some(value) = fixed[v] {
                        *rhs -= c * value;
                        false
                    } else {
                        true
                    }
                });
            }
            match row.terms.len() {
                0 => {
                    let consistent = match row.relation {
                        Relation::Equal => row.rhs.abs() <= FEAS_EPS,
                        Relation::LessEq => row.rhs >= -FEAS_EPS,
                        Relation::GreaterEq => row.rhs <= FEAS_EPS,
                    };
                    if !consistent {
                        return Err(SimplexError::Infeasible);
                    }
                    *slot = None;
                    changed = true;
                }
                1 => {
                    let (v, c) = row.terms[0];
                    let bound = row.rhs / c;
                    // Orient the relation by the coefficient sign.
                    let rel = if c > 0.0 {
                        row.relation
                    } else {
                        match row.relation {
                            Relation::LessEq => Relation::GreaterEq,
                            Relation::GreaterEq => Relation::LessEq,
                            Relation::Equal => Relation::Equal,
                        }
                    };
                    match rel {
                        Relation::Equal => {
                            if bound < lower[v] - FEAS_EPS || bound > upper[v] + FEAS_EPS {
                                return Err(SimplexError::Infeasible);
                            }
                            lower[v] = bound;
                            upper[v] = bound;
                        }
                        Relation::GreaterEq => lower[v] = lower[v].max(bound),
                        Relation::LessEq => upper[v] = upper[v].min(bound),
                    }
                    if lower[v] > upper[v] + FEAS_EPS {
                        return Err(SimplexError::Infeasible);
                    }
                    if lower[v] >= upper[v] {
                        let value = lower[v];
                        upper[v] = value;
                        fixed[v] = Some(value);
                    }
                    *slot = None;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // ---- 3. duplicate rows -------------------------------------------------
    // Normalise every LessEq to a GreaterEq (negated coefficients and
    // right-hand side) so mirrored statements of the same halfspace share a
    // key, then dedup on the exact bit pattern of the terms.
    for row in rows.iter_mut().flatten() {
        if matches!(row.relation, Relation::LessEq) {
            for (_, c) in row.terms.iter_mut() {
                *c = -*c;
            }
            row.rhs = -row.rhs;
            row.relation = Relation::GreaterEq;
        }
    }
    let mut seen: HashMap<(bool, Vec<(usize, u64)>), usize> = HashMap::new();
    for idx in 0..rows.len() {
        let Some(row) = &rows[idx] else { continue };
        let key = (
            matches!(row.relation, Relation::Equal),
            row.terms
                .iter()
                .map(|&(v, c)| (v, c.to_bits()))
                .collect::<Vec<_>>(),
        );
        let this_rhs = row.rhs;
        match seen.get(&key) {
            None => {
                seen.insert(key, idx);
            }
            Some(&prev_idx) => {
                let prev = rows[prev_idx].as_mut().expect("kept row is live");
                if key.0 {
                    // Equalities must agree to be redundant.
                    if (prev.rhs - this_rhs).abs() > FEAS_EPS {
                        return Err(SimplexError::Infeasible);
                    }
                } else {
                    // Keep the tighter `≥`: the larger right-hand side.
                    prev.rhs = prev.rhs.max(this_rhs);
                }
                rows[idx] = None;
            }
        }
    }

    // ---- 4. empty columns --------------------------------------------------
    let mut used = vec![false; num_vars];
    for row in rows.iter().flatten() {
        for &(v, _) in &row.terms {
            used[v] = true;
        }
    }
    let min_sense = |c: f64| match lp.objective() {
        Objective::Minimize => c,
        Objective::Maximize => -c,
    };
    for v in 0..num_vars {
        if uf.parent[v] != v || fixed[v].is_some() || used[v] {
            continue;
        }
        let ec = min_sense(cost[v]);
        let target = if ec > 0.0 {
            lower[v]
        } else if ec < 0.0 {
            upper[v]
        } else if lower[v].is_finite() {
            lower[v]
        } else if upper[v].is_finite() {
            upper[v]
        } else {
            0.0
        };
        if target.is_finite() {
            fixed[v] = Some(target);
        }
        // An infinite preferred bound stays in the problem so the solver
        // certifies unboundedness itself.
    }

    // ---- 5. compact --------------------------------------------------------
    let mut vars = vec![VarDisposition::Fixed(0.0); num_vars];
    let mut objective_offset = 0.0;
    let mut reduced = LinearProgram::new(lp.objective());
    for v in 0..num_vars {
        if uf.parent[v] != v {
            continue; // aliases resolved below, after roots have dispositions
        }
        if let Some(value) = fixed[v] {
            vars[v] = VarDisposition::Fixed(value);
            objective_offset += cost[v] * value;
        } else {
            let id = reduced.add_variable_with_bounds(
                lp.variable_name(VariableId(v)),
                lower[v],
                upper[v],
            );
            reduced.set_objective_coefficient(id, cost[v]);
            vars[v] = VarDisposition::Kept(id.index());
        }
    }
    for (v, var) in vars.iter_mut().enumerate().take(num_vars) {
        let root = uf.find(v);
        if root != v {
            *var = VarDisposition::Alias(root);
        }
    }
    let mut row_origin = Vec::with_capacity(lp.num_constraints());
    for (origin, row) in rows.iter().enumerate() {
        let Some(row) = row else { continue };
        row_origin.push(origin);
        reduced.add_constraint(
            row.terms.iter().map(|&(v, c)| {
                let VarDisposition::Kept(new) = vars[v] else {
                    unreachable!("live rows only reference kept variables")
                };
                (VariableId(new), c)
            }),
            row.relation,
            row.rhs,
        );
    }

    let map = PostsolveMap {
        rows_removed: lp.num_constraints() - reduced.num_constraints(),
        cols_removed: num_vars - reduced.num_variables(),
        vars,
        objective_offset,
    };
    Ok(Presolved {
        lp: reduced,
        map,
        row_origin,
    })
}

/// Recognise a two-term row `c·x_a − c·x_b` (`c ≠ 0`, distinct variables),
/// returning `(a, b)` with the **positive** coefficient on `a`.
fn opposite_pair(terms: &[(VariableId, f64)]) -> Option<(usize, usize)> {
    let [(va, ca), (vb, cb)] = *terms else {
        return None;
    };
    if va == vb || ca == 0.0 || ca != -cb {
        return None;
    }
    if ca > 0.0 {
        Some((va.0, vb.0))
    } else {
        Some((vb.0, va.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_lp(alpha: f64) -> LinearProgram {
        // A 3-long DP-style chain: x0 − α·x1 ≥ 0, x1 − α·x0 ≥ 0 (pairwise both
        // directions at α = 1), plus a normalising equality.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variables("x", 3);
        for w in x.windows(2) {
            lp.add_constraint([(w[0], 1.0), (w[1], -alpha)], Relation::GreaterEq, 0.0);
            lp.add_constraint([(w[1], 1.0), (w[0], -alpha)], Relation::GreaterEq, 0.0);
        }
        lp.add_constraint(x.iter().map(|&v| (v, 1.0)), Relation::Equal, 3.0);
        lp.set_objective_coefficient(x[0], 1.0);
        lp
    }

    #[test]
    fn alpha_one_chain_collapses_to_one_variable() {
        let pre = presolve(&chain_lp(1.0)).unwrap();
        // x1, x2 alias to x0; the four ratio rows vanish; the equality row
        // becomes 3·x0 = 3 — a singleton — which fixes x0 = 1 and removes it
        // too, leaving nothing to solve.
        assert_eq!(pre.lp.num_variables(), 0);
        assert_eq!(pre.lp.num_constraints(), 0);
        assert_eq!(pre.map.cols_removed, 3);
        assert_eq!(pre.map.rows_removed, 5);
        assert_eq!(pre.map.expand_values(&[]), vec![1.0, 1.0, 1.0]);
        assert_eq!(pre.map.objective_offset, 1.0);
    }

    #[test]
    fn fractional_alpha_chain_is_untouched() {
        let pre = presolve(&chain_lp(0.9)).unwrap();
        assert_eq!(pre.lp.num_variables(), 3);
        assert_eq!(pre.lp.num_constraints(), 5);
        assert_eq!(pre.map.rows_removed, 0);
        assert_eq!(pre.map.cols_removed, 0);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint([(x, 2.0)], Relation::GreaterEq, 4.0); // x >= 2
        lp.add_constraint([(y, -1.0)], Relation::GreaterEq, -5.0); // y <= 5
        lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::GreaterEq, 3.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.num_constraints(), 1);
        assert_eq!(pre.lp.num_variables(), 2);
        assert_eq!(pre.lp.bounds(VariableId(0)), (2.0, f64::INFINITY));
        assert_eq!(pre.lp.bounds(VariableId(1)), (0.0, 5.0));
    }

    #[test]
    fn contradictory_singletons_are_infeasible() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint([(x, 1.0)], Relation::GreaterEq, 5.0);
        lp.add_constraint([(x, 1.0)], Relation::LessEq, 4.0);
        assert_eq!(presolve(&lp).unwrap_err(), SimplexError::Infeasible);
    }

    #[test]
    fn fixed_variables_substitute_into_rows_and_objective() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", 2.0, 2.0);
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 5.0);
        let pre = presolve(&lp).unwrap();
        // x = 2 substitutes: the row becomes the singleton y = 3, fixing y too.
        assert_eq!(pre.lp.num_variables(), 0);
        assert_eq!(pre.map.expand_values(&[]), vec![2.0, 3.0]);
        assert_eq!(pre.map.objective_offset, 3.0 * 2.0 + 3.0);
    }

    #[test]
    fn duplicate_inequalities_keep_the_tighter_rhs() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::GreaterEq, 1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0);
        // The mirrored LessEq on negated coefficients is the same halfspace.
        lp.add_constraint([(x, -1.0), (y, -1.0)], Relation::LessEq, -2.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.num_constraints(), 1);
        assert_eq!(pre.lp.constraint(0).rhs, 4.0);
        assert_eq!(pre.map.rows_removed, 2);
        // The survivor is the first statement of the halfspace.
        assert_eq!(pre.row_origin, vec![0]);
    }

    #[test]
    fn conflicting_duplicate_equalities_are_infeasible() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        assert_eq!(presolve(&lp).unwrap_err(), SimplexError::Infeasible);
    }

    #[test]
    fn empty_columns_are_fixed_at_their_preferred_bound() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x"); // cost +1, unused -> lower bound 0
        let y = lp.add_variable_with_bounds("y", 0.0, 7.0); // cost −1 -> upper
        let z = lp.add_variable("z"); // cost −1, open above -> must stay
        let w = lp.add_variable("w");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, -1.0);
        lp.set_objective_coefficient(z, -1.0);
        lp.add_constraint([(w, 1.0), (z, 1.0)], Relation::Equal, 1.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.map.vars[0], VarDisposition::Fixed(0.0));
        assert_eq!(pre.map.vars[1], VarDisposition::Fixed(7.0));
        assert!(matches!(pre.map.vars[2], VarDisposition::Kept(_)));
        assert_eq!(pre.map.objective_offset, -7.0);
    }

    #[test]
    fn alias_pools_costs_and_intersects_bounds() {
        let mut lp = LinearProgram::minimize();
        let a = lp.add_variable_with_bounds("a", 0.0, 10.0);
        let b = lp.add_variable_with_bounds("b", 1.0, 4.0);
        let c = lp.add_variable("c");
        lp.set_objective_coefficient(a, 2.0);
        lp.set_objective_coefficient(b, 3.0);
        lp.set_objective_coefficient(c, 1.0);
        lp.add_constraint([(a, 1.0), (b, -1.0)], Relation::Equal, 0.0);
        lp.add_constraint([(a, 1.0), (c, 1.0)], Relation::GreaterEq, 2.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.num_variables(), 2);
        // The representative keeps the smaller index (a) with pooled cost and
        // the intersection [1, 4] of the member boxes.
        assert_eq!(pre.lp.bounds(VariableId(0)), (1.0, 4.0));
        assert_eq!(pre.lp.objective_coefficient(VariableId(0)), 5.0);
        assert_eq!(pre.map.vars[1], VarDisposition::Alias(0));
    }
}

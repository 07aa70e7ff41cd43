//! Model-builder API for linear programs.
//!
//! A [`LinearProgram`] is built incrementally: variables are added first (each
//! receiving a [`VariableId`]), then objective coefficients, bounds, and linear
//! constraints.  The builder performs eager validation so that malformed models are
//! rejected at construction time rather than deep inside the solver.
//!
//! Constraints are stored **sparsely in a single arena**: one flat `(variable,
//! coefficient)` term pool plus per-constraint offsets, rather than one heap
//! allocation per row.  The mechanism-design LPs add tens of thousands of two-term
//! rows, so the arena keeps model construction `O(nnz)` with two amortised
//! allocations total, and hands the standardiser contiguous slices to scan.

use crate::error::SimplexError;
use crate::solution::Solution;
use crate::solver::SolveOptions;

/// Identifier of a variable inside a [`LinearProgram`].
///
/// The wrapped index is stable for the lifetime of the program and indexes into
/// [`Solution::values`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub(crate) usize);

impl VariableId {
    /// The raw index of the variable (the position in [`Solution::values`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise the objective function.
    Minimize,
    /// Maximise the objective function.
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr <= rhs`
    LessEq,
    /// `expr >= rhs`
    GreaterEq,
    /// `expr == rhs`
    Equal,
}

/// A borrowed view of one constraint `sum_i coeff_i * x_i  (<=|>=|=)  rhs`.
///
/// Views index into the program's term arena; they are produced by
/// [`LinearProgram::constraint`] and [`LinearProgram::constraints`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint<'a> {
    /// Sparse `(variable, coefficient)` terms.  A variable may appear more than
    /// once; coefficients are summed during standardisation.
    pub terms: &'a [(VariableId, f64)],
    /// The relation between the expression and the right-hand side.
    pub relation: Relation,
    /// The right-hand side constant.
    pub rhs: f64,
}

/// Per-variable metadata.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Variable {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
}

/// A linear program under construction.
///
/// Variables are non-negative by default (`0 <= x < +inf`); bounds can be adjusted
/// with [`LinearProgram::set_bounds`].  The objective defaults to all-zero
/// coefficients.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) objective: Objective,
    pub(crate) objective_coefficients: Vec<f64>,
    pub(crate) variables: Vec<Variable>,
    /// Flat term pool; constraint `i` owns `terms[term_ptr[i] .. term_ptr[i + 1]]`.
    pub(crate) terms: Vec<(VariableId, f64)>,
    /// Arena offsets, one more entry than there are constraints.
    pub(crate) term_ptr: Vec<usize>,
    pub(crate) relations: Vec<Relation>,
    pub(crate) rhs_values: Vec<f64>,
}

impl LinearProgram {
    /// Create an empty minimisation problem.
    pub fn minimize() -> Self {
        Self::new(Objective::Minimize)
    }

    /// Create an empty maximisation problem.
    pub fn maximize() -> Self {
        Self::new(Objective::Maximize)
    }

    /// Create an empty program with the given optimisation direction.
    pub fn new(objective: Objective) -> Self {
        LinearProgram {
            objective,
            objective_coefficients: Vec::new(),
            variables: Vec::new(),
            terms: Vec::new(),
            term_ptr: vec![0],
            relations: Vec::new(),
            rhs_values: Vec::new(),
        }
    }

    /// The optimisation direction of this program.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Number of structural variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.relations.len()
    }

    /// Total number of constraint terms (the model's nonzero count before
    /// standardisation).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Add a non-negative variable with the given (diagnostic) name.
    pub fn add_variable(&mut self, name: impl Into<String>) -> VariableId {
        self.add_variable_with_bounds(name, 0.0, f64::INFINITY)
    }

    /// Add a variable with explicit bounds. `lower` may be `-inf` (free below) and
    /// `upper` may be `+inf` (free above).
    pub fn add_variable_with_bounds(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
    ) -> VariableId {
        let id = VariableId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            lower,
            upper,
        });
        self.objective_coefficients.push(0.0);
        id
    }

    /// Add `count` non-negative variables named `"{prefix}{i}"`, returning their ids.
    pub fn add_variables(&mut self, prefix: &str, count: usize) -> Vec<VariableId> {
        (0..count)
            .map(|i| self.add_variable(format!("{prefix}{i}")))
            .collect()
    }

    /// Set the objective coefficient of a variable (replacing any previous value).
    pub fn set_objective_coefficient(&mut self, var: VariableId, coefficient: f64) {
        self.objective_coefficients[var.0] = coefficient;
    }

    /// Add `delta` to the objective coefficient of a variable.
    pub fn add_objective_coefficient(&mut self, var: VariableId, delta: f64) {
        self.objective_coefficients[var.0] += delta;
    }

    /// Current objective coefficient of a variable.
    pub fn objective_coefficient(&self, var: VariableId) -> f64 {
        self.objective_coefficients[var.0]
    }

    /// Replace the bounds of a variable.
    pub fn set_bounds(&mut self, var: VariableId, lower: f64, upper: f64) {
        self.variables[var.0].lower = lower;
        self.variables[var.0].upper = upper;
    }

    /// Bounds of a variable as `(lower, upper)`.
    pub fn bounds(&self, var: VariableId) -> (f64, f64) {
        (self.variables[var.0].lower, self.variables[var.0].upper)
    }

    /// Diagnostic name of a variable.
    pub fn variable_name(&self, var: VariableId) -> &str {
        &self.variables[var.0].name
    }

    /// Add a linear constraint from any source of sparse terms (a `vec![...]`, an
    /// array, or a lazily-computed iterator — the terms are written straight into
    /// the constraint arena without an intermediate allocation).  Returns the
    /// constraint's index.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VariableId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> usize {
        self.terms.extend(terms);
        self.term_ptr.push(self.terms.len());
        self.relations.push(relation);
        self.rhs_values.push(rhs);
        self.relations.len() - 1
    }

    /// A borrowed view of constraint `index`.
    pub fn constraint(&self, index: usize) -> Constraint<'_> {
        Constraint {
            terms: &self.terms[self.term_ptr[index]..self.term_ptr[index + 1]],
            relation: self.relations[index],
            rhs: self.rhs_values[index],
        }
    }

    /// Iterate over all constraints in insertion order.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = Constraint<'_>> {
        (0..self.num_constraints()).map(|i| self.constraint(i))
    }

    /// Validate the model: all referenced variables exist, all numbers are finite
    /// (except infinite bounds), and bounds are consistent.
    pub fn validate(&self) -> Result<(), SimplexError> {
        if self.variables.is_empty() {
            return Err(SimplexError::EmptyModel);
        }
        for (i, v) in self.variables.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(SimplexError::NonFiniteValue {
                    context: "variable bounds",
                });
            }
            if v.lower > v.upper {
                return Err(SimplexError::InconsistentBounds {
                    index: i,
                    lower: v.lower,
                    upper: v.upper,
                });
            }
        }
        for &c in &self.objective_coefficients {
            if !c.is_finite() {
                return Err(SimplexError::NonFiniteValue {
                    context: "objective coefficients",
                });
            }
        }
        for &rhs in &self.rhs_values {
            if !rhs.is_finite() {
                return Err(SimplexError::NonFiniteValue {
                    context: "constraint right-hand side",
                });
            }
        }
        for &(var, coeff) in &self.terms {
            if var.0 >= self.variables.len() {
                return Err(SimplexError::UnknownVariable {
                    index: var.0,
                    num_variables: self.variables.len(),
                });
            }
            if !coeff.is_finite() {
                return Err(SimplexError::NonFiniteValue {
                    context: "constraint coefficients",
                });
            }
        }
        Ok(())
    }

    /// Solve with default [`SolveOptions`] (sparse LU revised simplex,
    /// steepest-edge Phase-2 pricing, periodic refactorisation with basis
    /// repair).
    pub fn solve(&self) -> Result<Solution, SimplexError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solve with explicit options (iteration limit, tolerance, warm-start
    /// basis, LP form): [`LinearProgram::standardize`], then
    /// [`StandardForm::solve_with`](crate::StandardForm::solve_with).  A
    /// caller that builds seeds against the standard form, or wants to drop
    /// the builder before solving, makes the two calls itself.
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SimplexError> {
        self.standardize()?.solve_with(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_variables_and_constraints() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable_with_bounds("y", 1.0, 5.0);
        assert_eq!(lp.num_variables(), 2);
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        assert_eq!(lp.variable_name(x), "x");
        assert_eq!(lp.bounds(y), (1.0, 5.0));

        lp.set_objective_coefficient(x, 2.0);
        lp.add_objective_coefficient(x, 0.5);
        assert_eq!(lp.objective_coefficient(x), 2.5);

        let idx = lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 3.0);
        assert_eq!(idx, 0);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.constraint(0).relation, Relation::LessEq);
        assert_eq!(lp.constraint(0).terms, &[(x, 1.0), (y, -1.0)]);
    }

    #[test]
    fn constraints_can_come_from_iterators_without_a_vec() {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("p", 4);
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        lp.add_constraint([(vars[0], 2.0), (vars[3], -1.0)], Relation::GreaterEq, 0.0);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.num_terms(), 6);
        assert_eq!(lp.constraint(0).terms.len(), 4);
        assert_eq!(lp.constraint(1).rhs, 0.0);
        let collected: Vec<usize> = lp.constraints().map(|c| c.terms.len()).collect();
        assert_eq!(collected, vec![4, 2]);
    }

    #[test]
    fn add_variables_batch_names() {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("rho_", 3);
        assert_eq!(vars.len(), 3);
        assert_eq!(lp.variable_name(vars[2]), "rho_2");
    }

    #[test]
    fn validate_rejects_empty_model() {
        let lp = LinearProgram::minimize();
        assert_eq!(lp.validate(), Err(SimplexError::EmptyModel));
    }

    #[test]
    fn validate_rejects_unknown_variable() {
        let mut lp = LinearProgram::minimize();
        let _x = lp.add_variable("x");
        lp.add_constraint(vec![(VariableId(7), 1.0)], Relation::Equal, 1.0);
        assert!(matches!(
            lp.validate(),
            Err(SimplexError::UnknownVariable { index: 7, .. })
        ));
    }

    #[test]
    fn validate_rejects_nan_objective() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, f64::NAN);
        assert!(matches!(
            lp.validate(),
            Err(SimplexError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn validate_rejects_inconsistent_bounds() {
        let mut lp = LinearProgram::minimize();
        lp.add_variable_with_bounds("x", 3.0, 1.0);
        assert!(matches!(
            lp.validate(),
            Err(SimplexError::InconsistentBounds { index: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_infinite_rhs() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, f64::INFINITY);
        assert!(matches!(
            lp.validate(),
            Err(SimplexError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn validate_accepts_well_formed_model() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 10.0);
        assert!(lp.validate().is_ok());
    }
}

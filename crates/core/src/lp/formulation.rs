//! The BASICDP linear program (Eqs. 3–6) and its property-constrained extensions.
//!
//! Variables are `ρ_{i,j} = Pr[output = i | input = j]`.  The LP minimises
//! `Σ_j w_j Σ_i penalty(i, j) · ρ_{i,j}` subject to
//!
//! * every column summing to one (Eq. 5) with non-negative entries (Eq. 4),
//! * the differential-privacy ratio constraints between adjacent inputs (Eq. 6),
//! * and any requested subset of the structural properties of Section IV-A,
//!   each of which is itself a set of linear (in)equalities (Theorem 2).
//!
//! The upper bound `ρ_{i,j} ≤ 1` of Eq. (4) is implied by non-negativity plus the
//! column-sum equality, so it is omitted to keep the LP smaller.
//!
//! # Cell classes
//!
//! [`DesignProblem::build_lp`] gives one variable to each class of cells that
//! some optimum holds equal, so the program arrives at the solver already
//! reduced.  Three identifications come from the paper's own structure:
//!
//! * **Reflection orbits (Theorem 1).**  Every penalty depends on `|i − j|`
//!   only, and DP, every property and the output-side DP constraint are
//!   closed under the reflection `(i, j) ↦ (n − i, n − j)`.  So when the
//!   prior is reflection-symmetric (`w_j = w_{n−j}`, see
//!   [`Prior::is_reflection_symmetric`]), symmetrising any feasible mechanism
//!   keeps it feasible at the same objective (Theorem 1,
//!   [`crate::symmetrize`]), and some optimum is symmetric: the orbit
//!   `{(i, j), (n − i, n − j)}` is one class.
//! * **Fairness (Eq. 11)** makes every diagonal cell equal: when F is
//!   requested the diagonal is one class.
//! * **DP at `α = 1` (Eq. 6)** reads `ρ_{i,j} = ρ_{i,j+1}`: every row of the
//!   matrix is one class.
//!
//! Classes are the connected components of these identifications, so they
//! compose (at `α = 1` under F every cell is one variable).  `vars[i][j]` is
//! the variable of `(i, j)`'s class, named after and created in the
//! row-major order of its first cell, and its objective coefficient is
//! summed over the class.  Each row is written over cells as before; mapped
//! onto classes, its terms merge, a row that cancels entirely — symmetry's
//! `ρ_{i,j} = ρ_{n−i,n−j}` over orbits, fairness's `ρ_{i,i} = ρ_{0,0}`, DP
//! and row properties at `α = 1` — vanishes, and a row that coincides with
//! one already emitted (a reflection's image) is emitted once.  Over orbits
//! the program is about half the size and its optimum is symmetric by
//! construction.  Weak honesty's floors `ρ_{i,i} ≥ 1/(n+1)` (Eq. 13) are
//! lower bounds on the diagonal variables rather than rows.
//! [`DesignProblem::build_full_lp`] keeps one variable per cell and every
//! row: it is the reference the reduced program is tested against.
//!
//! [`Prior::is_reflection_symmetric`]: crate::objective::Prior::is_reflection_symmetric

// The formulation indexes a 2-D grid of LP variables by (row, column) throughout;
// explicit index loops mirror the paper's double subscripts better than iterator
// chains would.
#![allow(clippy::needless_range_loop)]

use std::collections::hash_map::{Entry, HashMap};

use serde::{Deserialize, Serialize};

use cpm_simplex::{
    Constraint, LinearProgram, Relation, SolveOptions, SolveStats, StandardForm, VariableId,
};

use crate::alpha::Alpha;
use crate::error::CoreError;
use crate::matrix::Mechanism;
use crate::objective::{Aggregator, Objective};
use crate::properties::{Property, PropertySet};

/// A constrained mechanism-design problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignProblem {
    /// Group size `n` (the mechanism is `(n+1) × (n+1)`).
    pub n: usize,
    /// Privacy parameter α of Definition 2.
    pub alpha: Alpha,
    /// The objective to minimise.
    pub objective: Objective,
    /// The structural properties to enforce on top of BASICDP.
    pub properties: PropertySet,
    /// Optional *output-side* DP constraint (the extension suggested in the paper's
    /// conclusion): bound the ratio of probabilities between neighbouring *outputs*
    /// within each column by `[β, 1/β]`.  `None` disables it (the paper's setting).
    #[serde(default)]
    pub output_dp: Option<Alpha>,
}

/// The result of solving a [`DesignProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSolution {
    /// The optimal mechanism (column-renormalised to remove LP round-off).
    pub mechanism: Mechanism,
    /// The optimal objective value reported by the LP (unrescaled, Definition 3).
    pub objective_value: f64,
    /// Solver statistics (iteration counts, artificial variables, ...).
    pub solver_stats: SolveStats,
    /// The optimal standard-form basis of the LP solve, when the solver could
    /// report one — what relax-then-lift lifts from the BASICDP relaxation
    /// (see [`DesignProblem::solve_with`]).
    pub optimal_basis: Option<Vec<usize>>,
}

impl DesignProblem {
    /// A BASICDP-only problem (Section III) under the given objective.
    pub fn unconstrained(n: usize, alpha: Alpha, objective: Objective) -> Self {
        DesignProblem {
            n,
            alpha,
            objective,
            properties: PropertySet::empty(),
            output_dp: None,
        }
    }

    /// A fully-specified constrained problem (Section IV).
    pub fn constrained(
        n: usize,
        alpha: Alpha,
        objective: Objective,
        properties: PropertySet,
    ) -> Self {
        DesignProblem {
            n,
            alpha,
            objective,
            properties,
            output_dp: None,
        }
    }

    /// Additionally require the output-side DP constraint with parameter `beta`
    /// (Section VI's suggested extension): within every column, neighbouring outputs
    /// must have probabilities within a factor `[β, 1/β]` of each other.
    #[must_use]
    pub fn with_output_dp(mut self, beta: Alpha) -> Self {
        self.output_dp = Some(beta);
        self
    }

    /// Build the linear program and the `ρ` variable grid (`vars[i][j]`),
    /// with one variable per class of cells the problem forces equal (see the
    /// [module docs](self)): reflection orbits when the prior is
    /// reflection-symmetric, F's diagonal, and each row at `α = 1`.  WH's
    /// floors are variable bounds.
    ///
    /// Exposed so that callers (benches, tests) can inspect LP sizes; most users
    /// should call [`DesignProblem::solve`].
    pub fn build_lp(&self) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        self.build(true)
    }

    /// Build the full-space program — one variable per cell and every row,
    /// S's and F's equalities and WH's floors included — whatever the prior
    /// and `α`.  This is the reference formulation the reduced program of
    /// [`DesignProblem::build_lp`] is checked against; designs never solve it.
    pub fn build_full_lp(&self) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        self.build(false)
    }

    fn build(&self, reduced: bool) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        if self.n == 0 {
            return Err(CoreError::InvalidGroupSize { value: self.n });
        }
        let n = self.n;
        let dim = n + 1;
        let weights = self.objective.prior.weights(n)?;
        let alpha = self.alpha.value();

        let mut lp = LinearProgram::minimize();
        // vars[i][j] = rho_{i,j}; a class's first cell in row-major order
        // creates its variable, so every later cell finds it already made.
        let class = if reduced {
            self.cell_classes()
        } else {
            (0..dim * dim).collect()
        };
        let mut cell_vars: Vec<VariableId> = Vec::with_capacity(dim * dim);
        for (cell, &first) in class.iter().enumerate() {
            let var = if first == cell {
                lp.add_variable(format!("rho_{}_{}", cell / dim, cell % dim))
            } else {
                cell_vars[first]
            };
            cell_vars.push(var);
        }
        let vars: Vec<Vec<VariableId>> = cell_vars.chunks(dim).map(<[_]>::to_vec).collect();

        // Objective (Eq. 3).  A class's coefficient is the sum over its cells.
        let t_max = match self.objective.aggregator {
            Aggregator::Sum => {
                for j in 0..dim {
                    for i in 0..dim {
                        let coefficient = weights[j] * self.objective.loss.penalty(i, j);
                        if coefficient != 0.0 {
                            lp.add_objective_coefficient(vars[i][j], coefficient);
                        }
                    }
                }
                None
            }
            // Epigraph formulation: minimise t with t >= per-column loss.
            Aggregator::Max => {
                let t = lp.add_variable("t_max");
                lp.set_objective_coefficient(t, 1.0);
                Some(t)
            }
        };

        let mut rows = Rows::new(&mut lp, reduced);
        if let Some(t) = t_max {
            for j in 0..dim {
                let loss = (0..dim).filter_map(|i| {
                    let coefficient = self.objective.loss.penalty(i, j);
                    (coefficient != 0.0).then(|| (vars[i][j], -coefficient))
                });
                rows.add(
                    std::iter::once((t, 1.0)).chain(loss),
                    Relation::GreaterEq,
                    0.0,
                );
            }
        }

        // Column stochasticity (Eq. 5).  Non-negativity (Eq. 4) is the default
        // variable bound.
        for j in 0..dim {
            rows.add((0..dim).map(|i| (vars[i][j], 1.0)), Relation::Equal, 1.0);
        }

        // Differential privacy (Eq. 6): rho_{i,j} >= alpha * rho_{i,j+1} and vice versa.
        for i in 0..dim {
            for j in 0..n {
                rows.add(
                    [(vars[i][j], 1.0), (vars[i][j + 1], -alpha)],
                    Relation::GreaterEq,
                    0.0,
                );
                rows.add(
                    [(vars[i][j + 1], 1.0), (vars[i][j], -alpha)],
                    Relation::GreaterEq,
                    0.0,
                );
            }
        }

        // Structural properties (Section IV-A), each as linear constraints.
        for property in self.properties.iter() {
            add_property_constraints(&mut rows, &vars, n, property);
        }

        // Optional output-side DP (the paper's suggested extension): within each
        // column j, rho_{i,j} >= beta * rho_{i+1,j} and vice versa.
        if let Some(beta) = self.output_dp {
            let b = beta.value();
            for j in 0..dim {
                for i in 0..n {
                    rows.add(
                        [(vars[i][j], 1.0), (vars[i + 1][j], -b)],
                        Relation::GreaterEq,
                        0.0,
                    );
                    rows.add(
                        [(vars[i + 1][j], 1.0), (vars[i][j], -b)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
            }
        }

        Ok((lp, vars))
    }

    /// The class of each cell (row-major index `i · (n+1) + j`) under the
    /// identifications this problem allows (see the [module docs](self)),
    /// as the index of the class's first cell.
    fn cell_classes(&self) -> Vec<usize> {
        /// The first cell of `cell`'s class, compressing the path on the way.
        fn first(class: &mut [usize], mut cell: usize) -> usize {
            while class[cell] != cell {
                class[cell] = class[class[cell]];
                cell = class[cell];
            }
            cell
        }
        /// Merge two classes; the merged class keeps the earlier first cell.
        fn join(class: &mut [usize], a: usize, b: usize) {
            let (a, b) = (first(class, a), first(class, b));
            class[a.max(b)] = a.min(b);
        }

        let n = self.n;
        let dim = n + 1;
        let mut class: Vec<usize> = (0..dim * dim).collect();
        if self.objective.prior.is_reflection_symmetric() {
            for cell in 0..dim * dim {
                join(&mut class, cell, dim * dim - 1 - cell);
            }
        }
        if self.properties.contains(Property::Fairness) {
            for i in 1..dim {
                join(&mut class, i * dim + i, 0);
            }
        }
        if self.alpha.value() == 1.0 {
            for i in 0..dim {
                for j in 1..dim {
                    join(&mut class, i * dim + j, i * dim);
                }
            }
        }
        (0..dim * dim).map(|cell| first(&mut class, cell)).collect()
    }

    /// Solver options tuned for this problem instance:
    /// [`SolveOptions::tuned`] sized for the `(n+1)²`-variable LP (a pivot
    /// budget that never trips the generic iteration limit at n = 128 and
    /// beyond, and `LpForm::Auto`).
    ///
    /// `LpForm::Auto` routes the property-constrained mechanism LPs through
    /// the **dual form** once they are large enough to care (≥ 512 rows and
    /// ≥ [`cpm_simplex::LpForm::AUTO_MIN_ASPECT`] rows per column, which the
    /// WM programs satisfy at 3–4x): the dual basis is a fraction of the
    /// size and the nonnegative mechanism costs make phase 1 vanish.  BASICDP
    /// (~2x), small programs and square ones keep the primal path;
    /// [`cpm_simplex::SolveStats::form`] reports which form actually ran.
    pub fn recommended_options(&self) -> SolveOptions {
        let dim = self.n + 1;
        SolveOptions::tuned(dim * dim)
    }

    /// Solve the design problem with recommended solver options (see
    /// [`DesignProblem::recommended_options`]).
    pub fn solve(&self) -> Result<DesignSolution, CoreError> {
        self.solve_with(&self.recommended_options())
    }

    /// Solve the design problem with explicit solver options.  Options that
    /// carry a [`SolveOptions::warm_basis`] seed the solve from it; otherwise
    /// the problem seeds the solve itself.  Which seed depends on the rows:
    ///
    /// * **BASICDP** (no property rows): the closed-form **Geometric
    ///   Mechanism crash basis**.  Theorem 3 makes GM the exact optimum of the
    ///   unconstrained `L0` program, so the crash collapses that solve to a
    ///   single factorisation; under the other objectives GM is a feasible
    ///   vertex the dual-form walk starts from.
    /// * **Property rows without equalities** (every set without F — the
    ///   orbit program has no S rows, so this covers the Figure-5 WM and
    ///   WH-LP sets): **relax then lift**.  The BASICDP relaxation is solved
    ///   first (itself GM-crash seeded) under the same objective, and its
    ///   optimal basis, with each property row's slack made basic (WH's
    ///   floors raise lower bounds instead), seeds this solve through
    ///   [`cpm_simplex::lift_basis`].  That seed is dual feasible by
    ///   construction, so the warm start only repairs the property
    ///   violations; the relaxation's pivots are included in
    ///   [`DesignSolution::solver_stats`].
    /// * **F, or S in the full space** (an asymmetric prior): F's diagonal
    ///   is one variable, so the program has other columns than its
    ///   relaxation, and S's equality rows have no slack to make basic; no
    ///   lifted seed fits, so no relaxation is paid for.  These solves run
    ///   cold.
    ///
    /// A seed is a hint the solver verifies: one that does not fit is
    /// discarded and the solve proceeds cold — a seed can change pivot
    /// counts, never answers.  `cpm_lp_crash_seeded_total` counts each seed
    /// by kind and by whether the solver used it.  Every seed is derived
    /// from this problem alone, so a design does not depend on what was
    /// solved before it.  The unseeded walk of the same program is
    /// [`DesignProblem::build_lp`] solved with
    /// [`LinearProgram::solve_with`].
    pub fn solve_with(&self, options: &SolveOptions) -> Result<DesignSolution, CoreError> {
        let solution = self.solve_seeded(options);
        // The design's solves shared this thread's factorisation workspace;
        // free it now rather than keep its largest basis's size for the
        // thread's life.
        cpm_simplex::release_thread_workspace();
        solution
    }

    /// Build this problem's program and standardise it once: the builder
    /// model (kept only while seeds are built against it), its standard
    /// form and the `ρ` variable grid.
    fn prepare(&self) -> Result<(LinearProgram, StandardForm, Vec<Vec<VariableId>>), CoreError> {
        let (lp, vars) = self.build_lp()?;
        let sf = lp.standardize()?;
        Ok((lp, sf, vars))
    }

    /// Pick the seed (see [`DesignProblem::solve_with`]), solve, and count
    /// the seed's outcome.  Each builder model is dropped as soon as the
    /// seeds built against it exist, so a solve holds its program once: as
    /// its standard form.
    fn solve_seeded(&self, options: &SolveOptions) -> Result<DesignSolution, CoreError> {
        if options.warm_basis.is_some() || !(self.properties.is_empty() || self.lift_fits()) {
            let (_, sf, vars) = self.prepare()?;
            return self.solve_built(&sf, &vars, options);
        }
        if self.properties.is_empty() {
            let (lp, sf, vars) = self.prepare()?;
            let crash = self.geometric_crash_basis(&lp, &sf, &vars);
            drop(lp);
            return self.solve_from_seed(&sf, &vars, options, crash, CrashSeed::Geometric);
        }

        // Relax then lift: BASICDP under the same objective has the same
        // variables and leading rows, without the property and output-DP
        // rows.  Its models stay alive until the lift has compared them.
        let relaxation = DesignProblem::unconstrained(self.n, self.alpha, self.objective.clone());
        // A relaxation that fails to build or solve only costs the seed.
        let relaxed = relaxation.prepare().ok().and_then(|(lp, sf, vars)| {
            let crash = relaxation.geometric_crash_basis(&lp, &sf, &vars);
            let solution = relaxation
                .solve_from_seed(&sf, &vars, options, crash, CrashSeed::Geometric)
                .ok()?;
            Some((lp, sf, solution.optimal_basis, solution.solver_stats))
        });
        let (lp, sf, vars) = self.prepare()?;
        let lifted = relaxed
            .as_ref()
            .and_then(|(relaxed_lp, relaxed_sf, basis, _)| {
                cpm_simplex::lift_basis(relaxed_lp, relaxed_sf, basis.as_deref()?, &lp, &sf)
            });
        let relaxation_stats = relaxed.map(|(.., stats)| stats);
        drop(lp);
        let mut solution = self.solve_from_seed(&sf, &vars, options, lifted, CrashSeed::Lift)?;
        if let Some(relaxation) = &relaxation_stats {
            solution.solver_stats.add_work(relaxation);
        }
        Ok(solution)
    }

    /// Solve `sf` from `seed` when there is one and count the seed's
    /// outcome under `kind`.  A crash seed that could not be built is not
    /// counted; a lift that could not be built counts as declined.
    fn solve_from_seed(
        &self,
        sf: &StandardForm,
        vars: &[Vec<VariableId>],
        options: &SolveOptions,
        seed: Option<Vec<usize>>,
        kind: CrashSeed,
    ) -> Result<DesignSolution, CoreError> {
        let counted = seed.is_some() || matches!(kind, CrashSeed::Lift);
        let solution = match seed {
            Some(seed) => self.solve_built(sf, vars, &options.clone().with_warm_basis(Some(seed))),
            None => self.solve_built(sf, vars, options),
        }?;
        if counted {
            kind.record(solution.solver_stats.warm_started);
        }
        Ok(solution)
    }

    /// Whether a basis lifted from the BASICDP relaxation fits this
    /// problem's program (see [`DesignProblem::solve_with`]): it has the
    /// relaxation's variables — F's diagonal class never does — and no
    /// property row is an equality — S's only in the full space (the orbit
    /// program has none).  Decided from the problem alone, before anything is
    /// solved.
    fn lift_fits(&self) -> bool {
        !self.properties.contains(Property::Fairness)
            && (self.objective.prior.is_reflection_symmetric()
                || !self.properties.contains(Property::Symmetry))
    }

    /// Solve the already-standardised program `sf` (over the `vars` grid)
    /// with `options` as given, and extract the mechanism.
    fn solve_built(
        &self,
        sf: &StandardForm,
        vars: &[Vec<VariableId>],
        options: &SolveOptions,
    ) -> Result<DesignSolution, CoreError> {
        let solution = sf.solve_with(options)?;
        let dim = self.n + 1;

        // Extract the matrix, clamping tiny negative round-off and renormalising each
        // column so the result is exactly column-stochastic.
        let mut entries = vec![0.0; dim * dim];
        for (i, row) in vars.iter().enumerate() {
            for (j, &var) in row.iter().enumerate() {
                entries[i * dim + j] = solution.value(var).max(0.0);
            }
        }
        for j in 0..dim {
            // Summed in reflected pairs, so columns j and n − j of a symmetric
            // solution get bit-identical totals and the result stays exactly
            // symmetric.
            let total: f64 = (0..=self.n / 2)
                .map(|i| {
                    let mirror = self.n - i;
                    let top = entries[i * dim + j];
                    if mirror == i {
                        top
                    } else {
                        top + entries[mirror * dim + j]
                    }
                })
                .sum();
            if (total - 1.0).abs() > 1e-4 {
                return Err(CoreError::DegenerateSolution {
                    reason: format!("column {j} sums to {total} after solving"),
                });
            }
            for i in 0..dim {
                entries[i * dim + j] /= total;
            }
        }
        let mechanism = Mechanism::from_row_major_unchecked(self.n, entries);
        mechanism.validate(1e-7)?;

        Ok(DesignSolution {
            mechanism,
            objective_value: solution.objective_value,
            solver_stats: solution.stats,
            optimal_basis: solution.optimal_basis,
        })
    }

    /// The closed-form crash seed for this problem: the active set implied by
    /// the Geometric Mechanism at this `(n, α)`, expressed as a standard-form
    /// basis via [`cpm_simplex::crash_basis`] (see
    /// [`DesignProblem::solve_with`] for when it helps and how it can fail
    /// safely).
    fn geometric_crash_basis(
        &self,
        lp: &LinearProgram,
        sf: &StandardForm,
        vars: &[Vec<VariableId>],
    ) -> Option<Vec<usize>> {
        let gm = crate::mechanisms::GeometricMechanism::new(self.n, self.alpha).ok()?;
        let gm = gm.matrix();
        let dim = self.n + 1;
        let mut values = vec![0.0; lp.num_variables()];
        for i in 0..dim {
            for j in 0..dim {
                values[vars[i][j].index()] = gm.prob(i, j);
            }
        }
        // The epigraph variable of a `Max` aggregator (the last variable)
        // sits at the largest per-column loss of the conjectured mechanism.
        if let Aggregator::Max = self.objective.aggregator {
            let t = (0..dim)
                .map(|j| {
                    (0..dim)
                        .map(|i| self.objective.loss.penalty(i, j) * gm.prob(i, j))
                        .sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            if let Some(value) = values.last_mut() {
                *value = t;
            }
        }
        cpm_simplex::crash_basis(lp, sf, &values)
    }
}

/// The two seeds [`DesignProblem::solve_with`] builds, as counted by
/// `cpm_lp_crash_seeded_total`.
#[derive(Debug, Clone, Copy)]
enum CrashSeed {
    /// The closed-form Geometric Mechanism crash basis.
    Geometric,
    /// The BASICDP relaxation's optimal basis, lifted.
    Lift,
}

impl CrashSeed {
    /// Count one seeded solve: `accepted` when the solver started from the
    /// seed, `declined` when it discarded the seed (or, for a lift, when no
    /// seed could be built) and solved cold.
    fn record(self, accepted: bool) {
        match (self, accepted) {
            (CrashSeed::Geometric, true) => {
                cpm_obs::counter!("cpm_lp_crash_seeded_total{seed=\"crash\",outcome=\"accepted\"}")
                    .inc();
            }
            (CrashSeed::Geometric, false) => {
                cpm_obs::counter!("cpm_lp_crash_seeded_total{seed=\"crash\",outcome=\"declined\"}")
                    .inc();
            }
            (CrashSeed::Lift, true) => {
                cpm_obs::counter!("cpm_lp_crash_seeded_total{seed=\"lift\",outcome=\"accepted\"}")
                    .inc();
            }
            (CrashSeed::Lift, false) => {
                cpm_obs::counter!("cpm_lp_crash_seeded_total{seed=\"lift\",outcome=\"declined\"}")
                    .inc();
            }
        }
    }
}

/// The constraint rows of a program under construction.  In the full
/// program a row goes into the LP as written.  In the reduced program its
/// terms are merged per class variable, a row that cancels to nothing is
/// dropped, and so is a row identical to one already emitted — a
/// reflection's image, which the orbit variables have already made the same
/// row, or a column-monotonicity row that restates a column-honesty one —
/// and a single-variable floor is a bound instead of a row.
struct Rows<'a> {
    lp: &'a mut LinearProgram,
    /// Reduced program only: the index of the first emitted row under each
    /// row fingerprint.
    emitted: Option<HashMap<u64, usize>>,
    merged: Vec<(VariableId, f64)>,
}

impl<'a> Rows<'a> {
    fn new(lp: &'a mut LinearProgram, reduced: bool) -> Self {
        Rows {
            lp,
            emitted: reduced.then(HashMap::default),
            merged: Vec::new(),
        }
    }

    /// `var ≥ floor`.
    fn at_least(&mut self, var: VariableId, floor: f64) {
        if self.emitted.is_some() {
            let (lower, upper) = self.lp.bounds(var);
            self.lp.set_bounds(var, lower.max(floor), upper);
        } else {
            self.add([(var, 1.0)], Relation::GreaterEq, floor);
        }
    }

    fn add(
        &mut self,
        terms: impl IntoIterator<Item = (VariableId, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        let Some(emitted) = &mut self.emitted else {
            self.lp.add_constraint(terms, relation, rhs);
            return;
        };
        let merged = &mut self.merged;
        merged.clear();
        merged.extend(terms);
        merged.sort_unstable_by_key(|&(var, _)| var.index());
        merged.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        merged.retain(|&(_, coefficient)| coefficient != 0.0);
        if merged.is_empty() {
            // A row that cancels (S's over orbits, F's, and DP's and the row
            // properties' at α = 1) reads 0 = 0.
            debug_assert_eq!(rhs, 0.0);
            return;
        }

        // An FxHash-style fingerprint: the rows are short and there are
        // tens of thousands of them, so SipHash would dominate the build.
        let mix = |hash: u64, word: u64| {
            (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        };
        let fingerprint = merged.iter().fold(
            mix(relation as u64, rhs.to_bits()),
            |hash, &(var, coefficient)| mix(mix(hash, var.index() as u64), coefficient.to_bits()),
        );
        let row = Constraint {
            terms: merged,
            relation,
            rhs,
        };
        match emitted.entry(fingerprint) {
            Entry::Occupied(first) if self.lp.constraint(*first.get()) == row => return,
            // A fingerprint collision: keep the row (were it a duplicate,
            // it would only be redundant).
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                slot.insert(self.lp.num_constraints());
            }
        }
        self.lp
            .add_constraint(merged.iter().copied(), relation, rhs);
    }
}

/// Append the linear constraints encoding one structural property (Theorem 2).
fn add_property_constraints(
    rows: &mut Rows<'_>,
    vars: &[Vec<VariableId>],
    n: usize,
    property: Property,
) {
    let dim = n + 1;
    match property {
        // RH (Eq. 7): rho_{i,i} >= rho_{i,j} for all j != i.
        Property::RowHonesty => {
            for i in 0..dim {
                for j in 0..dim {
                    if i != j {
                        rows.add(
                            [(vars[i][i], 1.0), (vars[i][j], -1.0)],
                            Relation::GreaterEq,
                            0.0,
                        );
                    }
                }
            }
        }
        // RM (Eq. 8): within row i, entries are non-increasing moving away from the
        // diagonal: rho_{i,j-1} <= rho_{i,j} for j <= i and rho_{i,j+1} <= rho_{i,j}
        // for j >= i.
        Property::RowMonotonicity => {
            for i in 0..dim {
                for j in 1..=i {
                    rows.add(
                        [(vars[i][j], 1.0), (vars[i][j - 1], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
                for j in i..n {
                    rows.add(
                        [(vars[i][j], 1.0), (vars[i][j + 1], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
            }
        }
        // CH (Eq. 9): rho_{j,j} >= rho_{i,j} for all i != j.
        Property::ColumnHonesty => {
            for j in 0..dim {
                for i in 0..dim {
                    if i != j {
                        rows.add(
                            [(vars[j][j], 1.0), (vars[i][j], -1.0)],
                            Relation::GreaterEq,
                            0.0,
                        );
                    }
                }
            }
        }
        // CM (Eq. 10): within column j, entries are non-increasing moving away from
        // the diagonal.
        Property::ColumnMonotonicity => {
            for j in 0..dim {
                for i in 1..=j {
                    rows.add(
                        [(vars[i][j], 1.0), (vars[i - 1][j], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
                for i in j..n {
                    rows.add(
                        [(vars[i][j], 1.0), (vars[i + 1][j], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
            }
        }
        // F (Eq. 11): all diagonal entries equal.
        Property::Fairness => {
            for i in 1..dim {
                rows.add(
                    [(vars[i][i], 1.0), (vars[0][0], -1.0)],
                    Relation::Equal,
                    0.0,
                );
            }
        }
        // WH (Eq. 13): diagonal entries at least 1/(n+1).
        Property::WeakHonesty => {
            let bound = 1.0 / dim as f64;
            for i in 0..dim {
                rows.at_least(vars[i][i], bound);
            }
        }
        // S (Eq. 14): rho_{i,j} = rho_{n-i,n-j}; only half the pairs are needed.
        // Over reflection orbits every such row cancels.
        Property::Symmetry => {
            for i in 0..dim {
                for j in 0..dim {
                    let (oi, oj) = (n - i, n - j);
                    if (i, j) < (oi, oj) {
                        rows.add(
                            [(vars[i][j], 1.0), (vars[oi][oj], -1.0)],
                            Relation::Equal,
                            0.0,
                        );
                    }
                }
            }
        }
    }
}

/// The unconstrained (BASICDP-only) optimal mechanism for the given objective — the
/// Ghosh et al. setting of Section III.  For `L0` this is the Geometric Mechanism
/// (Theorem 3).
pub fn optimal_unconstrained(
    n: usize,
    alpha: Alpha,
    objective: Objective,
) -> Result<DesignSolution, CoreError> {
    DesignProblem::unconstrained(n, alpha, objective).solve()
}

/// The optimal mechanism satisfying a subset of the structural properties
/// (Theorem 2).
pub fn optimal_constrained(
    n: usize,
    alpha: Alpha,
    objective: Objective,
    properties: PropertySet,
) -> Result<DesignSolution, CoreError> {
    DesignProblem::constrained(n, alpha, objective, properties).solve()
}

/// The property set defining the paper's WM (Section V-A: "From now on, we use
/// WM to refer to the mechanism with WH, RM and CM properties").
pub fn wm_properties() -> PropertySet {
    PropertySet::empty()
        .with(Property::WeakHonesty)
        .with(Property::RowMonotonicity)
        .with(Property::ColumnMonotonicity)
}

/// The standard `L0` design problem for a property subset: shorthand for
/// [`DesignProblem::constrained`] with [`Objective::l0`].
pub fn l0_problem(n: usize, alpha: Alpha, properties: PropertySet) -> DesignProblem {
    DesignProblem::constrained(n, alpha, Objective::l0(), properties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form;
    use crate::mechanisms::{ExplicitFairMechanism, GeometricMechanism};
    use crate::objective::{rescaled_l0, LossKind, Prior};

    fn a(v: f64) -> Alpha {
        Alpha::new(v).unwrap()
    }

    /// A `DesignProblem` serialized while it still had a `crash_seed` field
    /// (either value) must deserialize: the field is ignored, and every
    /// design seeds itself.
    #[test]
    fn retired_crash_seed_field_still_deserializes() {
        let problem = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        let json = serde_json::to_string(&problem).unwrap();
        assert!(!json.contains("crash_seed"));
        for value in ["true", "false"] {
            let fields = json.strip_suffix('}').unwrap();
            let old = format!("{fields},\"crash_seed\":{value}}}");
            let back: DesignProblem = serde_json::from_str(&old).unwrap();
            assert_eq!(back, problem);
        }
    }

    #[test]
    fn lp_sizes_are_as_expected() {
        // The uniform prior is reflection-symmetric: one variable per orbit,
        // ⌈25 / 2⌉ = 13, and one row per row orbit.
        let problem = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        let (lp, vars) = problem.build_lp().unwrap();
        assert_eq!(vars.len(), 5);
        assert_eq!(lp.num_variables(), 13);
        assert_eq!(vars[1][3], vars[3][1]);
        assert_ne!(vars[1][3], vars[3][3]);
        // Column sums 0..=2 + half of the 2 * 5 * 4 DP constraints.
        assert_eq!(lp.num_constraints(), 3 + 20);

        // WH's floors are bounds on the three diagonal orbits, not rows.
        let weak_honesty = PropertySet::empty().with(Property::WeakHonesty);
        let constrained = DesignProblem::constrained(4, a(0.62), Objective::l0(), weak_honesty);
        let (lp2, vars) = constrained.build_lp().unwrap();
        assert_eq!(lp2.num_constraints(), 23);
        assert_eq!(lp2.bounds(vars[3][3]), (0.2, f64::INFINITY));
        assert_eq!(lp2.bounds(vars[3][1]), (0.0, f64::INFINITY));

        // An asymmetric prior keeps every cell: 25 variables, 5 column sums
        // + 2 * 5 * 4 DP constraints; the full program adds 5 WH rows.
        let skewed = Objective {
            prior: Prior::Weights(vec![0.1, 0.2, 0.2, 0.2, 0.3]),
            ..Objective::l0()
        };
        let (full, vars) = DesignProblem::constrained(4, a(0.62), skewed, weak_honesty)
            .build_lp()
            .unwrap();
        assert_eq!(full.num_variables(), 25);
        assert_ne!(vars[1][3], vars[3][1]);
        assert_eq!(full.num_constraints(), 45);
        let (reference, _) = constrained.build_full_lp().unwrap();
        assert_eq!(reference.num_variables(), 25);
        assert_eq!(reference.num_constraints(), 45 + 5);
    }

    /// Theorem 1 in LP form: the orbit program reaches the full program's
    /// optimum under every property, the output-side DP rows and the
    /// minimax epigraph, at odd and even n (the centre orbit), and its
    /// mechanism is exactly symmetric.
    #[test]
    fn orbit_and_full_programs_reach_the_same_optimum() {
        let mut problems = Vec::new();
        for n in 1..=5usize {
            for property in Property::ALL {
                let properties = PropertySet::empty().with(property);
                problems.push(DesignProblem::constrained(
                    n,
                    a(0.8),
                    Objective::l1(),
                    properties,
                ));
            }
            problems.push(DesignProblem::constrained(
                n,
                a(0.9),
                Objective::l0(),
                PropertySet::all(),
            ));
            problems.push(
                DesignProblem::unconstrained(n, a(0.9), Objective::l2()).with_output_dp(a(0.9)),
            );
            let minimax = Objective {
                aggregator: Aggregator::Max,
                ..Objective::l0()
            };
            problems.push(DesignProblem::constrained(
                n,
                a(0.7),
                minimax,
                wm_properties(),
            ));
            if n >= 2 {
                problems.push(DesignProblem::unconstrained(
                    n,
                    a(0.9),
                    Objective::l0_beyond(1),
                ));
            }
        }
        for problem in problems {
            let case = format!(
                "{} {} n={} α={}",
                problem.objective.loss.name(),
                problem.properties,
                problem.n,
                problem.alpha.value()
            );
            let options = problem.recommended_options();
            let (full, _) = problem.build_full_lp().unwrap();
            let full = full.solve_with(&options).expect("full program solves");
            let orbit = problem.solve().expect("orbit program solves");
            assert!(
                (orbit.objective_value - full.objective_value).abs() <= 1e-9,
                "{case}: orbit {} vs full {}",
                orbit.objective_value,
                full.objective_value
            );
            assert!(
                Property::Symmetry.holds(&orbit.mechanism, 0.0),
                "{case}: not exactly symmetric"
            );
            assert!(orbit.mechanism.satisfies_dp(problem.alpha, 1e-6), "{case}");
            assert!(
                problem.properties.all_hold(&orbit.mechanism, 1e-6),
                "{case}"
            );
        }
    }

    fn equality_rows(lp: &LinearProgram) -> usize {
        lp.constraints()
            .filter(|row| row.relation == Relation::Equal)
            .count()
    }

    /// Fairness makes the diagonal one variable, so its equality rows
    /// cancel; the full program keeps a variable per cell and every F row.
    #[test]
    fn fairness_gives_the_diagonal_one_variable() {
        let fair = PropertySet::empty().with(Property::Fairness);
        let problem = DesignProblem::constrained(4, a(0.9), Objective::l2(), fair);
        let (lp, vars) = problem.build_lp().unwrap();
        // 13 orbits, of which the diagonal's three are one class.
        assert_eq!(lp.num_variables(), 11);
        for i in 0..5 {
            assert_eq!(vars[i][i], vars[0][0]);
        }
        assert_ne!(vars[0][1], vars[0][0]);
        // The only equalities left are the three column-sum orbits.
        assert_eq!(equality_rows(&lp), 3);

        let (full, vars) = problem.build_full_lp().unwrap();
        assert_eq!(full.num_variables(), 25);
        assert_ne!(vars[1][1], vars[0][0]);
        assert_eq!(equality_rows(&full), 5 + 4);
    }

    /// At α = 1 DP holds every row constant: each row is one variable, the
    /// DP rows cancel, and every column sum is the same row.  Under a
    /// symmetric prior rows i and n − i are one orbit as well.
    #[test]
    fn alpha_one_gives_each_row_one_variable() {
        let skewed = Objective {
            prior: Prior::Weights(vec![0.1, 0.2, 0.2, 0.2, 0.1, 0.2]),
            ..Objective::l1()
        };
        for (objective, variables) in [(Objective::l1(), 3), (skewed, 6)] {
            let problem = DesignProblem::unconstrained(5, a(1.0), objective);
            let (lp, vars) = problem.build_lp().unwrap();
            assert_eq!(lp.num_variables(), variables);
            for row in &vars {
                assert!(row.iter().all(|&var| var == row[0]));
            }
            assert_ne!(vars[0][0], vars[1][0]);
            assert_eq!(lp.num_constraints(), 1, "one column-sum row");

            let (full, _) = problem.build_full_lp().unwrap();
            assert_eq!(full.num_variables(), 36);
            assert_eq!(full.num_constraints(), 6 + 2 * 6 * 5);
            let reference = full.solve().unwrap();
            let solution = problem.solve().unwrap();
            assert!((solution.objective_value - reference.objective_value).abs() <= 1e-9);
        }
    }

    /// An asymmetric prior is solved in the full space: there, requiring
    /// symmetry costs utility, so the orbit program would be wrong.
    #[test]
    fn asymmetric_priors_solve_the_full_program() {
        let skewed = Objective {
            prior: Prior::Weights(vec![0.05, 0.05, 0.1, 0.3, 0.5]),
            ..Objective::l1()
        };
        let problem = DesignProblem::constrained(4, a(0.9), skewed, wm_properties());
        let solution = problem.solve().unwrap();
        let (full, _) = problem.build_full_lp().unwrap();
        let reference = full.solve().unwrap();
        assert!((solution.objective_value - reference.objective_value).abs() <= 1e-9);
        let symmetric = DesignProblem {
            properties: wm_properties().with(Property::Symmetry),
            ..problem
        };
        let symmetric = symmetric.solve().unwrap();
        assert!(solution.objective_value < symmetric.objective_value - 1e-6);
        assert!(Property::Symmetry.holds(&symmetric.mechanism, 1e-6));
        assert!(!Property::Symmetry.holds(&solution.mechanism, 1e-6));
    }

    #[test]
    fn unconstrained_l0_recovers_the_geometric_mechanism() {
        // Theorem 3: GM is the unique optimal BASICDP mechanism for L0.
        for n in [2usize, 3, 5] {
            for alpha in [0.5, 0.62, 0.9] {
                let solution =
                    optimal_unconstrained(n, a(alpha), Objective::l0()).expect("solve ok");
                let gm = GeometricMechanism::new(n, a(alpha)).unwrap();
                let lp_l0 = rescaled_l0(&solution.mechanism);
                assert!(
                    (lp_l0 - gm.l0_score()).abs() < 1e-6,
                    "n={n} alpha={alpha}: LP {lp_l0} vs closed form {}",
                    gm.l0_score()
                );
                // Uniqueness: the matrices should agree entrywise.
                for i in 0..=n {
                    for j in 0..=n {
                        assert!(
                            (solution.mechanism.prob(i, j) - gm.matrix().prob(i, j)).abs() < 1e-5,
                            "n={n} alpha={alpha} cell ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fully_constrained_l0_matches_the_explicit_fair_mechanism_cost() {
        // Theorem 4: EM is L0-optimal among mechanisms with all properties, so the LP
        // optimum with all properties must equal EM's closed-form cost.
        for n in [2usize, 3, 4, 5] {
            for alpha in [0.62, 0.9] {
                let solution =
                    optimal_constrained(n, a(alpha), Objective::l0(), PropertySet::all())
                        .expect("solve ok");
                let em = ExplicitFairMechanism::new(n, a(alpha)).unwrap();
                let lp_l0 = rescaled_l0(&solution.mechanism);
                assert!(
                    (lp_l0 - em.l0_score()).abs() < 1e-6,
                    "n={n} alpha={alpha}: LP {lp_l0} vs EM {}",
                    em.l0_score()
                );
                assert!(PropertySet::all().all_hold(&solution.mechanism, 1e-6));
            }
        }
    }

    #[test]
    fn constrained_solutions_satisfy_dp_and_requested_properties() {
        let properties = PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity);
        let solution =
            optimal_constrained(5, a(0.76), Objective::l0(), properties).expect("solve ok");
        assert!(solution.mechanism.satisfies_dp(a(0.76), 1e-6));
        assert!(properties.all_hold(&solution.mechanism, 1e-6));
    }

    #[test]
    fn weak_honest_mechanism_cost_is_sandwiched_between_gm_and_em() {
        // Section IV-D: L0(GM) <= L0(WM) <= L0(EM).
        for n in [3usize, 5, 7] {
            for alpha in [0.76, 0.9] {
                let wm = optimal_constrained(n, a(alpha), Objective::l0(), wm_properties())
                    .expect("solve ok");
                let wm_l0 = rescaled_l0(&wm.mechanism);
                let gm_l0 = closed_form::gm_l0(a(alpha));
                let em_l0 = closed_form::em_l0(n, a(alpha));
                assert!(wm_l0 + 1e-6 >= gm_l0, "n={n} alpha={alpha}");
                assert!(wm_l0 <= em_l0 + 1e-6, "n={n} alpha={alpha}");
            }
        }
    }

    #[test]
    fn l2_unconstrained_can_collapse_to_a_constant_output() {
        // Figure 1: for L2 the unconstrained "optimal" mechanism ignores its input.
        // For n = 7 and alpha = 0.62 it always reports 2 (or the mirror image 5) with
        // high probability; at minimum it must have several all-zero rows.
        let solution = optimal_unconstrained(7, a(0.62), Objective::l2()).expect("solve ok");
        let zero_rows = solution.mechanism.zero_rows(1e-7);
        assert!(
            !zero_rows.is_empty(),
            "expected output gaps in the unconstrained L2 mechanism"
        );
    }

    #[test]
    fn constrained_l2_has_no_gaps() {
        // Figure 2: adding the properties eliminates the gaps.
        let solution =
            optimal_constrained(5, a(0.62), Objective::l2(), PropertySet::all()).expect("solve ok");
        assert!(solution.mechanism.zero_rows(1e-9).is_empty());
        assert!(solution.mechanism.min_entry() > 0.0);
    }

    #[test]
    fn minimax_objective_is_supported() {
        let problem = DesignProblem {
            n: 3,
            alpha: a(0.7),
            objective: Objective {
                loss: LossKind::ZeroOne,
                prior: Prior::Uniform,
                aggregator: Aggregator::Max,
            },
            properties: PropertySet::empty().with(Property::Symmetry),
            output_dp: None,
        };
        let solution = problem.solve().expect("solve ok");
        // The minimax L0 loss of any DP mechanism is at least the uniform-column
        // loss; sanity-check the value is in (0, 1).
        assert!(solution.objective_value > 0.0 && solution.objective_value < 1.0);
        assert!(solution.mechanism.satisfies_dp(a(0.7), 1e-6));
    }

    #[test]
    fn output_dp_extension_yields_doubly_smooth_mechanisms() {
        // The paper's concluding extension: also bound the ratio between neighbouring
        // outputs.  GM badly violates this for alpha > 1/2 (its boundary rows spike),
        // so the doubly-constrained optimum must cost strictly more than GM but can
        // never exceed EM+uniformity... at minimum it must satisfy both checks.
        let alpha = a(0.9);
        let n = 4;
        let problem = DesignProblem::unconstrained(n, alpha, Objective::l0()).with_output_dp(alpha);
        let solution = problem
            .solve()
            .expect("output-DP LP must solve (UM is feasible)");
        assert!(solution.mechanism.satisfies_dp(alpha, 1e-6));
        assert!(solution.mechanism.satisfies_output_dp(alpha, 1e-6));
        let gm = GeometricMechanism::new(n, alpha).unwrap();
        assert!(!gm.matrix().satisfies_output_dp(alpha, 1e-6));
        assert!(rescaled_l0(&solution.mechanism) >= gm.l0_score() - 1e-6);
        assert!(rescaled_l0(&solution.mechanism) <= 1.0 + 1e-9);

        // Combining with fairness still works (UM witnesses feasibility).
        let fair = DesignProblem::constrained(
            n,
            alpha,
            Objective::l0(),
            PropertySet::empty().with(Property::Fairness),
        )
        .with_output_dp(alpha)
        .solve()
        .expect("fair + output-DP LP must solve");
        assert!(Property::Fairness.holds(&fair.mechanism, 1e-6));
        assert!(fair.mechanism.satisfies_output_dp(alpha, 1e-6));
    }

    #[test]
    fn recommended_options_scale_the_pivot_budget_with_n() {
        let small = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        assert_eq!(small.recommended_options().max_iterations, 500_000);
        let large = DesignProblem::unconstrained(128, a(0.62), Objective::l0());
        assert_eq!(large.recommended_options().max_iterations, 60 * 129 * 129);
    }

    #[test]
    fn invalid_group_size_is_rejected() {
        let problem = DesignProblem::unconstrained(0, a(0.5), Objective::l0());
        assert!(matches!(
            problem.build_lp(),
            Err(CoreError::InvalidGroupSize { value: 0 })
        ));
    }

    #[test]
    fn fairness_plus_weak_honesty_is_feasible_even_when_gm_is_not_honest() {
        // For alpha = 0.9, n = 2 GM badly violates weak honesty (Example 1), but the
        // constrained LP must still find a fair, weakly honest mechanism (UM witnesses
        // feasibility; EM is the optimum).
        let properties = PropertySet::empty()
            .with(Property::Fairness)
            .with(Property::WeakHonesty);
        let solution =
            optimal_constrained(2, a(0.9), Objective::l0(), properties).expect("solve ok");
        assert!(properties.all_hold(&solution.mechanism, 1e-6));
        let em = ExplicitFairMechanism::new(2, a(0.9)).unwrap();
        assert!((rescaled_l0(&solution.mechanism) - em.l0_score()).abs() < 1e-6);
    }
}

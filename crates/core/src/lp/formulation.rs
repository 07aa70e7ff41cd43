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
//! # Reflection orbits (Theorem 1)
//!
//! Every penalty depends on `|i − j|` only, and DP, every property and the
//! output-side DP constraint are closed under the reflection
//! `(i, j) ↦ (n − i, n − j)`.  So when the prior is reflection-symmetric
//! (`w_j = w_{n−j}`, see [`Prior::is_reflection_symmetric`]), symmetrising
//! any feasible mechanism keeps it feasible at the same objective (Theorem 1,
//! [`crate::symmetrize`]), and some optimum is symmetric.
//! [`DesignProblem::build_lp`] then solves over one variable per orbit
//! `{(i, j), (n − i, n − j)}` — `⌈(n+1)²/2⌉` columns, with `vars[i][j]` and
//! `vars[n−i][n−j]` the same variable and objective coefficients summed over
//! the orbit.  Each row is written over cells as before; mapped onto orbits,
//! a row and its reflection become the same row, which is emitted once (as
//! is any other row that coincides in orbit space), and rows that cancel
//! entirely — symmetry's `ρ_{i,j} = ρ_{n−i,n−j}`, fairness's
//! `ρ_{n,n} = ρ_{0,0}` — vanish.  The program is about half the size, has no
//! S equality rows, and its optimum is symmetric by construction.  A prior
//! that is not reflection-symmetric keeps the full `(n+1)²` program
//! ([`DesignProblem::build_full_lp`], also the reference the orbit program is
//! tested against).
//!
//! [`Prior::is_reflection_symmetric`]: crate::objective::Prior::is_reflection_symmetric

// The formulation indexes a 2-D grid of LP variables by (row, column) throughout;
// explicit index loops mirror the paper's double subscripts better than iterator
// chains would.
#![allow(clippy::needless_range_loop)]

use std::collections::hash_map::{Entry, HashMap};

use serde::{Deserialize, Serialize};

use cpm_simplex::{Constraint, LinearProgram, Relation, SolveOptions, SolveStats, VariableId};

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
    /// Seed otherwise-cold solves (on by default; `false` gives a fully cold
    /// solve, for solver ablations).  Which seed depends on the rows:
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
    ///   optimal basis, with each property row's slack made basic, seeds
    ///   this solve through [`cpm_simplex::lift_basis`].  That seed is dual
    ///   feasible by construction, so the warm start only repairs the
    ///   property violations; the relaxation's pivots are included in
    ///   [`DesignSolution::solver_stats`].
    /// * **F, or S in the full space** (an asymmetric prior): their equality
    ///   rows make presolve alias columns, so no lifted seed fits and no
    ///   relaxation is paid for; presolve removes those rows too, so no
    ///   raw-space crash basis fits either.  These solves run cold.
    ///
    /// A seed is a hint the solver verifies: one that does not fit is
    /// discarded and the solve proceeds cold — the flag can change pivot
    /// counts, never answers.  `cpm_lp_crash_seeded_total` counts each seed
    /// by kind and by whether the solver used it.  An explicit
    /// [`SolveOptions::warm_basis`] replaces the seed.
    ///
    /// Every seed is derived from this problem alone, so a design does not
    /// depend on what was solved before it.
    #[serde(default = "default_crash_seed")]
    pub crash_seed: bool,
}

fn default_crash_seed() -> bool {
    true
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
    /// (see [`DesignProblem::crash_seed`]).
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
            crash_seed: true,
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
            crash_seed: true,
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

    /// Enable or disable the closed-form crash seed for cold solves (see
    /// [`DesignProblem::crash_seed`]).
    #[must_use]
    pub fn with_crash_seed(mut self, crash_seed: bool) -> Self {
        self.crash_seed = crash_seed;
        self
    }

    /// Build the linear program and the `ρ` variable grid (`vars[i][j]`):
    /// over reflection orbits when the prior is reflection-symmetric (see the
    /// [module docs](self)), over all `(n+1)²` cells otherwise.
    ///
    /// Exposed so that callers (benches, tests) can inspect LP sizes; most users
    /// should call [`DesignProblem::solve`].
    pub fn build_lp(&self) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        self.build(self.objective.prior.is_reflection_symmetric())
    }

    /// Build the full-space program — one variable per cell and every row,
    /// S's equalities included — whatever the prior.  This is the reference
    /// formulation the orbit program of [`DesignProblem::build_lp`] is checked
    /// against; designs with a reflection-symmetric prior never solve it.
    pub fn build_full_lp(&self) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        self.build(false)
    }

    fn build(&self, orbits: bool) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        if self.n == 0 {
            return Err(CoreError::InvalidGroupSize { value: self.n });
        }
        let n = self.n;
        let dim = n + 1;
        let weights = self.objective.prior.weights(n)?;
        let alpha = self.alpha.value();

        let mut lp = LinearProgram::minimize();
        // vars[i][j] = rho_{i,j}; in orbit space the cell the reflection maps
        // (i, j) to comes first in row-major order, so it already has its
        // variable.
        let mut vars: Vec<Vec<VariableId>> = Vec::with_capacity(dim);
        for i in 0..dim {
            let mut row = Vec::with_capacity(dim);
            for j in 0..dim {
                let var = if orbits && (n - i, n - j) < (i, j) {
                    if n - i == i {
                        row[n - j]
                    } else {
                        vars[n - i][n - j]
                    }
                } else {
                    lp.add_variable(format!("rho_{i}_{j}"))
                };
                row.push(var);
            }
            vars.push(row);
        }

        // Objective (Eq. 3).  An orbit's coefficient is the sum over its cells.
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

        let mut rows = Rows::new(&mut lp, orbits);
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
    /// the problem picks its own seed (see [`DesignProblem::crash_seed`]).
    pub fn solve_with(&self, options: &SolveOptions) -> Result<DesignSolution, CoreError> {
        let (lp, vars) = self.build_lp()?;
        self.solve_seeded(&lp, &vars, options)
    }

    /// Pick the seed for the already-built `lp` (see
    /// [`DesignProblem::crash_seed`]), solve, and count the seed's outcome.
    fn solve_seeded(
        &self,
        lp: &LinearProgram,
        vars: &[Vec<VariableId>],
        options: &SolveOptions,
    ) -> Result<DesignSolution, CoreError> {
        let mut relaxation_stats = None;
        let (seed, seed_kind) = if options.warm_basis.is_some() || !self.crash_seed {
            (None, None)
        } else if self.properties.is_empty() {
            let crash = self.geometric_crash_basis(lp, vars);
            let kind = crash.is_some().then_some(CrashSeed::Geometric);
            (crash, kind)
        } else if self.lift_fits() {
            // BASICDP under the same objective: the same variables and
            // leading rows, without the property and output-DP rows.
            let relaxation =
                DesignProblem::unconstrained(self.n, self.alpha, self.objective.clone());
            let (relaxed_lp, relaxed_vars) = relaxation.build_lp()?;
            // A relaxation that fails to solve only costs the seed.
            let lifted = relaxation
                .solve_seeded(&relaxed_lp, &relaxed_vars, options)
                .ok()
                .and_then(|solution| {
                    relaxation_stats = Some(solution.solver_stats);
                    let basis = solution.optimal_basis?;
                    cpm_simplex::lift_basis(&relaxed_lp, &basis, lp, options.presolve)
                });
            (lifted, Some(CrashSeed::Lift))
        } else {
            (None, None)
        };
        let mut solution = match seed {
            Some(seed) => self.solve_built(lp, vars, &options.clone().with_warm_basis(Some(seed))),
            None => self.solve_built(lp, vars, options),
        }?;
        if let Some(kind) = seed_kind {
            kind.record(solution.solver_stats.warm_started);
        }
        if let Some(relaxation) = &relaxation_stats {
            solution.solver_stats.add_work(relaxation);
        }
        Ok(solution)
    }

    /// Whether a basis lifted from the BASICDP relaxation fits this
    /// problem's property rows (see [`DesignProblem::crash_seed`]): none of
    /// them is an equality — F's never, S's only in the full space (the orbit
    /// program has none).  Decided from the problem alone, before anything is
    /// solved.
    fn lift_fits(&self) -> bool {
        !self.properties.contains(Property::Fairness)
            && (self.objective.prior.is_reflection_symmetric()
                || !self.properties.contains(Property::Symmetry))
    }

    /// Solve the already-built `lp` (over the `vars` grid) with `options` as
    /// given, and extract the mechanism.
    fn solve_built(
        &self,
        lp: &LinearProgram,
        vars: &[Vec<VariableId>],
        options: &SolveOptions,
    ) -> Result<DesignSolution, CoreError> {
        let solution = lp.solve_with(options)?;
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
    /// [`DesignProblem::crash_seed`] for when it helps and how it can fail
    /// safely).
    fn geometric_crash_basis(
        &self,
        lp: &LinearProgram,
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
        cpm_simplex::crash_basis(lp, &values)
    }
}

/// The two seeds [`DesignProblem::crash_seed`] builds, as counted by
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

/// The constraint rows of a program under construction.  In the full space a
/// row goes into the LP as written.  In orbit space its terms are merged per
/// orbit variable, a row that cancels to nothing is dropped, and so is a row
/// identical to one already emitted — a reflection's image, which the orbit
/// variables have already made the same row.
struct Rows<'a> {
    lp: &'a mut LinearProgram,
    /// Orbit space only: the index of the first emitted row under each row
    /// fingerprint.
    emitted: Option<HashMap<u64, usize>>,
    merged: Vec<(VariableId, f64)>,
}

impl<'a> Rows<'a> {
    fn new(lp: &'a mut LinearProgram, orbits: bool) -> Self {
        Rows {
            lp,
            emitted: orbits.then(HashMap::default),
            merged: Vec::new(),
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
            // A row that cancels (S's, and F's ρ_{n,n} = ρ_{0,0}) reads 0 = 0.
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
            // A fingerprint collision: keep the row (a duplicate would only
            // cost presolve a row to remove).
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
                rows.add([(vars[i][i], 1.0)], Relation::GreaterEq, bound);
            }
        }
        // S (Eq. 14): rho_{i,j} = rho_{n-i,n-j}; only half the pairs are needed.
        // In orbit space every such row cancels.
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

    /// A pre-PR-7 serialized `DesignProblem` carries no `crash_seed` field;
    /// it must deserialize with the seed on (the production default), not
    /// `bool::default()`.
    #[test]
    fn missing_crash_seed_field_defaults_to_on() {
        let problem = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        let mut json = serde_json::to_string(&problem).unwrap();
        assert!(json.contains("\"crash_seed\":true"));
        json = json.replace(",\"crash_seed\":true", "");
        let back: DesignProblem = serde_json::from_str(&json).unwrap();
        assert!(back.crash_seed);
        assert_eq!(back, problem);
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

        let weak_honesty = PropertySet::empty().with(Property::WeakHonesty);
        let constrained = DesignProblem::constrained(4, a(0.62), Objective::l0(), weak_honesty);
        let (lp2, _) = constrained.build_lp().unwrap();
        assert_eq!(lp2.num_constraints(), 23 + 3);

        // An asymmetric prior keeps the full program: 25 variables, 5 column
        // sums + 2 * 5 * 4 DP constraints (+ 5 WH rows).
        let skewed = Objective {
            prior: Prior::Weights(vec![0.1, 0.2, 0.2, 0.2, 0.3]),
            ..Objective::l0()
        };
        let (full, vars) = DesignProblem::constrained(4, a(0.62), skewed, weak_honesty)
            .build_lp()
            .unwrap();
        assert_eq!(full.num_variables(), 25);
        assert_ne!(vars[1][3], vars[3][1]);
        assert_eq!(full.num_constraints(), 45 + 5);
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
            crash_seed: true,
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

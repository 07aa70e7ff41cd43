//! The solve route and the options it takes.
//!
//! Every solve runs one route: [`LinearProgram::standardize`] validates and
//! standardises the program once, and [`StandardForm::solve_with`] runs the
//! sparse revised simplex on it (primal or dual form, see [`LpForm`]);
//! [`LinearProgram::solve_with`] is the two in a row.
//! The pivoting itself lives in [`crate::revised`]: the basis inverse is a
//! sparse LU factorisation updated in place by Forrest–Tomlin rank-one
//! updates, so a pivot costs `O(nnz)` (see [`crate::lu`]).  Phase 1 prices
//! with the Dantzig rule, Phase 2 with projected steepest edge, and both fall
//! back to Bland's rule after [`DEGENERATE_THRESHOLD`] consecutive degenerate
//! pivots, which guarantees termination.
//!
//! [`SolveOptions`] carries only what callers vary: the pivot budget, the
//! tolerance, a warm-start basis, and the LP form.  The dense full-tableau
//! method survives as a reference solver in [`crate::oracle`], which shares
//! the standardisation step below.

use serde::{Deserialize, Serialize};

use crate::error::SimplexError;
#[cfg(doc)]
use crate::model::LinearProgram;
use crate::revised;
use crate::solution::{Solution, SolveStatus};
use crate::standard::StandardForm;

/// Consecutive degenerate pivots tolerated before the pricing falls back to
/// Bland's rule (and back after the next improving pivot).
pub(crate) const DEGENERATE_THRESHOLD: usize = 64;

/// Which form of the linear program the simplex pivots on.
///
/// The mechanism-design LPs have ~2x more constraint rows than columns, so
/// their **dual** has a basis half the size — and because every cost is
/// non-negative, `y = 0` is dual-feasible, which makes Phase 1 vanish in dual
/// form.  The solver's `dual` module builds the dual, solves it with the ordinary
/// machinery, and maps the dual-optimal basis back to a primal-optimal one by
/// complementary slackness, so [`Solution::optimal_basis`](crate::Solution)
/// stays expressed in the *primal* standard form either way: warm starts and
/// lifted seeds are form-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LpForm {
    /// Decide per problem: solve tall programs (rows ≥
    /// [`LpForm::AUTO_MIN_ASPECT`] · cols and at least
    /// [`LpForm::AUTO_MIN_ROWS`] rows) in dual form, everything else in
    /// primal form.  The default.
    #[default]
    Auto,
    /// Always pivot on the primal (the pre-dual behaviour).
    Primal,
    /// Pivot on the dual whenever the program is eligible (at least one row
    /// and one structural column).  An ineligible or
    /// numerically unlucky dual attempt silently falls back to the primal
    /// path — [`SolveStats::form`] reports which form actually ran.
    Dual,
}

impl LpForm {
    /// Minimum row count before [`LpForm::Auto`] considers the dual form:
    /// below this the whole solve is milliseconds and the extra
    /// dualize/certify factorisations are pure overhead.
    pub const AUTO_MIN_ROWS: usize = 512;

    /// Minimum rows-per-column aspect before [`LpForm::Auto`] takes the dual
    /// form.  Measured on the mechanism LPs over reflection orbits: BASICDP
    /// (aspect ~2.0) solves faster in primal form — L1 at n = 96 in ~100 ms
    /// against ~130 ms, L0 at n = 256 in ~0.5 s against ~1.6 s — while the
    /// property-constrained WM programs (aspect 3–4) solve faster in dual
    /// form: WM-L0 at n = 64 in ~0.23 s against ~0.64 s.
    pub const AUTO_MIN_ASPECT: f64 = 2.5;
}

impl std::fmt::Display for LpForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpForm::Auto => write!(f, "auto"),
            LpForm::Primal => write!(f, "primal"),
            LpForm::Dual => write!(f, "dual"),
        }
    }
}

/// Options controlling a solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Hard cap on the total number of pivots across both phases.
    pub max_iterations: usize,
    /// Absolute tolerance used for reduced costs, ratio tests, and feasibility checks.
    pub tolerance: f64,
    /// Seed the solve from this standard-form basis (one
    /// column index per constraint row, as reported by
    /// [`Solution::optimal_basis`](crate::Solution::optimal_basis) of an
    /// earlier solve of an *identically shaped* program, or built by
    /// [`crash_basis`](crate::crash_basis) or [`lift_basis`](crate::lift_basis)).
    /// A valid, dual-feasible seed skips Phase 1 entirely and replaces most of
    /// Phase 2 with a short **dual simplex** cleanup; a primal-feasible one
    /// skips Phase 1 and runs Phase 2 from the seed.  A seed that is
    /// malformed, singular, or infeasible both ways silently falls back to the
    /// ordinary two-phase primal path ([`SolveStats::warm_started`] reports
    /// which path ran).
    #[serde(default)]
    pub warm_basis: Option<Vec<usize>>,
    /// Which form of the LP to pivot on (see [`LpForm`]).
    /// [`LpForm::Auto`] (the default) solves tall programs in dual form; a
    /// warm seed composes with either choice — in dual form the stored
    /// primal-optimal basis is mapped to a dual-feasible seed by
    /// complementary slackness.
    #[serde(default)]
    pub form: LpForm,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: 500_000,
            tolerance: 1e-9,
            warm_basis: None,
            form: LpForm::default(),
        }
    }
}

impl SolveOptions {
    /// Options tuned for a problem with `num_variables` LP variables: the
    /// pivot budget scales with the variable count (~60 pivots per variable
    /// comfortably covers the observed worst case — degenerate constrained
    /// designs pivot ≈ 3x columns); everything else is the default.  Chain
    /// the `with_*` builders below to override a single knob without
    /// re-deriving the rest:
    ///
    /// ```
    /// use cpm_simplex::{LpForm, SolveOptions};
    /// let options = SolveOptions::tuned(4_096).with_form(LpForm::Primal);
    /// assert_eq!(options.form, LpForm::Primal);
    /// assert!(options.max_iterations >= 60 * 4_096);
    /// ```
    pub fn tuned(num_variables: usize) -> Self {
        SolveOptions {
            max_iterations: 500_000usize.max(60 * num_variables),
            ..SolveOptions::default()
        }
    }

    /// Builder: replace [`SolveOptions::max_iterations`].
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Builder: replace [`SolveOptions::tolerance`].
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Builder: replace [`SolveOptions::warm_basis`].
    #[must_use]
    pub fn with_warm_basis(mut self, warm_basis: Option<Vec<usize>>) -> Self {
        self.warm_basis = warm_basis;
        self
    }

    /// Builder: replace [`SolveOptions::form`].
    #[must_use]
    pub fn with_form(mut self, form: LpForm) -> Self {
        self.form = form;
        self
    }
}

/// Statistics about a completed solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Pivots performed in Phase 1 (finding a feasible basis).
    pub phase1_iterations: usize,
    /// Pivots performed in Phase 2 (optimising the user objective).
    pub phase2_iterations: usize,
    /// Number of pivots that were degenerate (did not change the objective).
    pub degenerate_pivots: usize,
    /// Number of times the hybrid rule fell back to Bland's rule.
    pub bland_activations: usize,
    /// Number of artificial variables that were required.
    pub artificial_variables: usize,
    /// How many full LU factorisations of the basis were
    /// performed (the initial one, the periodic rebuilds, and any repairs).
    /// This is deliberately **not** the pivot count — each pivot between
    /// factorisations is a rank-one update, reported separately in
    /// [`SolveStats::basis_updates`].
    pub refactorizations: usize,
    /// Total Forrest–Tomlin rank-one basis updates
    /// applied across the solve (one per pivot that did not trigger a
    /// refactorisation).
    pub basis_updates: usize,
    /// How many numerical breakdowns were repaired by
    /// rebuilding the factorisation (possibly from the last good basis)
    /// instead of aborting the solve.
    pub basis_repairs: usize,
    /// How many times the projected steepest-edge
    /// reference framework was rebuilt because an entering column's stored
    /// weight disagreed with the exact projected norm of its FTRANed column.
    #[serde(default)]
    pub steepest_edge_resets: usize,
    /// Peak bytes held by the LU factors plus this thread's elimination
    /// workspace (buffer capacities, read after every factorisation and at
    /// the end of each solve).  Across the solves one result folds together
    /// (see [`SolveStats::add_work`]) it is the largest of their peaks.
    #[serde(default)]
    pub factor_bytes: usize,
    /// Dual-simplex pivots performed by a warm-started
    /// solve before the primal cleanup confirmed optimality.  Zero for cold
    /// solves (and for warm seeds that fell back to the primal path).
    #[serde(default)]
    pub dual_iterations: usize,
    /// Whether this solve was produced by the warm-start path (a seeded basis
    /// plus a dual-simplex cleanup) rather than the two-phase primal method.
    #[serde(default)]
    pub warm_started: bool,
    /// Which form of the LP the pivots ran on.  [`LpForm::Dual`] means the
    /// dualized program was solved and its optimal basis mapped back to the
    /// primal by complementary slackness; `phase1_iterations` /
    /// `phase2_iterations` then count the dual-form pivots plus the primal
    /// certification cleanup.  Always `Primal` or `Dual` in a reported stat —
    /// never `Auto` (that is an *options* value, resolved before the solve).
    #[serde(default = "default_stats_form")]
    pub form: LpForm,
}

impl SolveStats {
    /// Every pivot the solve made: Phase 1, Phase 2 and dual simplex.  A
    /// warm-started solve can do all its work in the dual iterations.
    pub fn pivots(&self) -> usize {
        self.phase1_iterations + self.phase2_iterations + self.dual_iterations
    }

    /// Add the pivoting work of `earlier` — a solve that ran on the way to
    /// this one, such as the dual-form walk before its certification or a
    /// relaxation whose basis seeded this solve — to these counters.  What
    /// describes the final solve (`form`, `warm_started`) stays this solve's,
    /// and `factor_bytes` becomes the larger of the two peaks.
    pub fn add_work(&mut self, earlier: &SolveStats) {
        self.phase1_iterations += earlier.phase1_iterations;
        self.phase2_iterations += earlier.phase2_iterations;
        self.degenerate_pivots += earlier.degenerate_pivots;
        self.bland_activations += earlier.bland_activations;
        self.artificial_variables += earlier.artificial_variables;
        self.refactorizations += earlier.refactorizations;
        self.basis_updates += earlier.basis_updates;
        self.basis_repairs += earlier.basis_repairs;
        self.steepest_edge_resets += earlier.steepest_edge_resets;
        self.factor_bytes = self.factor_bytes.max(earlier.factor_bytes);
        self.dual_iterations += earlier.dual_iterations;
    }
}

// Pre-dual snapshots carry no `form` field; every solve they describe ran on
// the primal.  (Referenced by the serde attribute string above.)
#[allow(dead_code)]
fn default_stats_form() -> LpForm {
    LpForm::Primal
}

/// Outcome of running simplex iterations to optimality on one phase.
pub(crate) enum PhaseOutcome {
    /// No improving column remains.
    Optimal,
    /// An improving column has no blocking row.
    Unbounded,
}

/// Book-keeping shared by the revised simplex and the dense oracle: remaining
/// pivot budget, statistics, and the pricing-to-Bland fallback state.
pub(crate) struct PivotState {
    pub iterations_left: usize,
    pub stats: SolveStats,
    pub using_bland: bool,
    degenerate_streak: usize,
}

impl PivotState {
    pub fn new(options: &SolveOptions) -> Self {
        PivotState {
            iterations_left: options.max_iterations,
            stats: SolveStats {
                // The dual path overrides this after merging its own counters.
                form: LpForm::Primal,
                ..SolveStats::default()
            },
            using_bland: false,
            degenerate_streak: 0,
        }
    }

    /// Reset the per-phase Bland fallback (each phase starts out pricing).
    pub fn start_phase(&mut self) {
        self.using_bland = false;
        self.degenerate_streak = 0;
    }

    /// Record one pivot: an improving pivot leaves Bland mode, and the
    /// [`DEGENERATE_THRESHOLD`]-th degenerate pivot in a row enters it.
    pub fn record_pivot(&mut self, nondegenerate: bool) {
        self.iterations_left -= 1;
        if nondegenerate {
            self.degenerate_streak = 0;
            self.using_bland = false;
        } else {
            self.stats.degenerate_pivots += 1;
            self.degenerate_streak += 1;
            if !self.using_bland && self.degenerate_streak >= DEGENERATE_THRESHOLD {
                self.using_bland = true;
                self.stats.bland_activations += 1;
            }
        }
    }
}

/// A standard-form optimum as produced by a pivoting driver: the point over the core
/// (structural + slack) columns plus the minimisation objective value.
pub(crate) struct SolvedPoint {
    pub z: Vec<f64>,
    pub objective: f64,
    pub stats: SolveStats,
    /// The optimal basis: one column index per row, where an index `>=` the
    /// core column count marks a redundant row whose artificial variable
    /// stayed (harmlessly) basic at zero.  `None` only when the program had
    /// no constraint rows.
    pub basis: Option<Vec<usize>>,
}

impl StandardForm {
    /// Solve with explicit options (iteration limit, tolerance, warm-start
    /// basis, LP form), reporting values over the model's variables.
    ///
    /// This is the observability choke point for the whole solver: every
    /// solve is wrapped in a `simplex/lp_solve` span, completed stats are
    /// folded into the global metrics registry, and a
    /// [`SimplexError::NumericalBreakdown`] that *escapes* (repair budget
    /// exhausted — the recoverable ones are handled in the revised simplex)
    /// dumps the flight recorder to stderr.  Setting
    /// `CPM_OBS_INJECT_BREAKDOWN=1` forces that terminal path without needing
    /// a genuinely singular basis (used by the observability integration
    /// test; keep it out of multi-test processes — it poisons every solve).
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SimplexError> {
        let span = cpm_obs::span!("simplex", "lp_solve");
        let injected = std::env::var("CPM_OBS_INJECT_BREAKDOWN")
            .map(|v| !matches!(v.trim(), "" | "0" | "off" | "false"))
            .unwrap_or(false);
        let result = if injected {
            Err(SimplexError::NumericalBreakdown {
                context: "injected by CPM_OBS_INJECT_BREAKDOWN",
                repairs: 0,
            })
        } else {
            self.solve_route(options)
        };
        match &result {
            Ok(solution) => record_solve_metrics(&solution.stats, span.elapsed_nanos()),
            Err(SimplexError::NumericalBreakdown { context, repairs }) => {
                cpm_obs::counter!("cpm_lp_breakdowns_total").inc();
                cpm_obs::error(
                    "simplex",
                    format!("terminal numerical breakdown: {context} (after {repairs} repairs)"),
                );
                cpm_obs::flight::dump("solver numerical breakdown");
            }
            Err(_) => {}
        }
        result
    }

    fn solve_route(&self, options: &SolveOptions) -> Result<Solution, SimplexError> {
        let form = resolve_form(options, self);
        solve_standard(self, |sf| {
            if form == LpForm::Dual {
                // An ineligible or numerically unlucky dual attempt falls back to
                // the primal path, which is always correct.
                if let Some(point) = crate::dual::solve_via_dual(sf, options)? {
                    return Ok(point);
                }
            }
            revised::solve(sf, options)
        })
    }
}

/// Fold one completed solve's [`SolveStats`] into the metrics registry (see
/// the cpm-obs crate docs for the catalogue).
fn record_solve_metrics(stats: &SolveStats, solve_nanos: u64) {
    if !cpm_obs::enabled() {
        return;
    }
    if stats.form == LpForm::Dual {
        cpm_obs::counter!("cpm_lp_solves_total{form=\"dual\"}").inc();
        cpm_obs::histogram!("cpm_lp_solve_nanos{form=\"dual\"}").record(solve_nanos);
    } else {
        cpm_obs::counter!("cpm_lp_solves_total{form=\"primal\"}").inc();
        cpm_obs::histogram!("cpm_lp_solve_nanos{form=\"primal\"}").record(solve_nanos);
    }
    cpm_obs::counter!("cpm_lp_pivots_total{phase=\"primal\"}")
        .add((stats.phase1_iterations + stats.phase2_iterations) as u64);
    cpm_obs::counter!("cpm_lp_pivots_total{phase=\"dual\"}").add(stats.dual_iterations as u64);
    cpm_obs::counter!("cpm_lp_refactorizations_total").add(stats.refactorizations as u64);
    cpm_obs::counter!("cpm_lp_repairs_total").add(stats.basis_repairs as u64);
    if stats.warm_started {
        cpm_obs::counter!("cpm_lp_warm_started_total").inc();
    }
}

/// Run `pivot` on a standard form and turn its optimum into a [`Solution`]
/// over the program's variables.  A program without constraint rows is
/// answered directly, without pivoting.  Shared by the production route and
/// [`crate::oracle`].
pub(crate) fn solve_standard(
    sf: &StandardForm,
    pivot: impl FnOnce(&StandardForm) -> Result<SolvedPoint, SimplexError>,
) -> Result<Solution, SimplexError> {
    if sf.num_rows() == 0 {
        // No constraints: the optimum of a non-negative-variable LP is attained
        // at the lower bounds unless a negative cost makes it unbounded.
        return solve_unconstrained(sf);
    }
    let point = pivot(sf)?;
    let values = sf.recover_values(&point.z);
    let mut objective_value = point.objective + sf.objective_constant;
    if sf.maximize {
        objective_value = -objective_value;
    }
    Ok(Solution {
        status: SolveStatus::Optimal,
        objective_value,
        values,
        stats: point.stats,
        optimal_basis: point.basis,
    })
}

/// Resolve [`SolveOptions::form`] to the form the solve will actually run on:
/// `Auto` becomes `Dual` exactly when the program is tall enough
/// for the half-size dual basis to pay for the dualize and certification
/// factorisations — at least [`LpForm::AUTO_MIN_ROWS`] rows and rows ≥
/// [`LpForm::AUTO_MIN_ASPECT`] · cols, counted as the model wrote them
/// (constraints, variables).
fn resolve_form(options: &SolveOptions, sf: &StandardForm) -> LpForm {
    match options.form {
        LpForm::Primal => LpForm::Primal,
        LpForm::Dual => LpForm::Dual,
        LpForm::Auto => {
            let rows = sf.num_constraints;
            let cols = sf.mapping.len();
            let tall = rows as f64 >= LpForm::AUTO_MIN_ASPECT * cols as f64;
            if rows >= LpForm::AUTO_MIN_ROWS && tall {
                LpForm::Dual
            } else {
                LpForm::Primal
            }
        }
    }
}

/// Handle the degenerate "no constraints" case directly: every column sits
/// at zero, unless a negative cost runs it without bound.
fn solve_unconstrained(sf: &StandardForm) -> Result<Solution, SimplexError> {
    if sf.costs.iter().any(|&c| c < 0.0) {
        return Err(SimplexError::Unbounded);
    }
    let values = sf.recover_values(&vec![0.0; sf.num_columns()]);
    let mut objective_value = sf.objective_constant;
    if sf.maximize {
        objective_value = -objective_value;
    }
    Ok(Solution {
        status: SolveStatus::Optimal,
        objective_value,
        values,
        stats: SolveStats {
            form: LpForm::Primal,
            ..SolveStats::default()
        },
        optimal_basis: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};
    use crate::oracle::solve_dense;
    use crate::standard::standardize;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// Solve with the production route and with the dense oracle, so every
    /// shared driver test exercises both implementations.
    fn solve_both(
        lp: &LinearProgram,
        options: &SolveOptions,
    ) -> [Result<Solution, SimplexError>; 2] {
        [lp.solve_with(options), solve_dense(lp, options)]
    }

    /// Beale's classic cycling example: pure Dantzig pricing cycles on it
    /// forever; the optimum is −0.05.
    fn beale() -> LinearProgram {
        let mut lp = LinearProgram::minimize();
        let x1 = lp.add_variable("x1");
        let x2 = lp.add_variable("x2");
        let x3 = lp.add_variable("x3");
        let x4 = lp.add_variable("x4");
        lp.set_objective_coefficient(x1, -0.75);
        lp.set_objective_coefficient(x2, 150.0);
        lp.set_objective_coefficient(x3, -0.02);
        lp.set_objective_coefficient(x4, 6.0);
        lp.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::LessEq,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::LessEq,
            0.0,
        );
        lp.add_constraint(vec![(x3, 1.0)], Relation::LessEq, 1.0);
        lp
    }

    /// The standard form of a synthetic program with `rows` single-term
    /// rows over `cols` columns.
    fn program(rows: usize, cols: usize) -> StandardForm {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("x", cols);
        for r in 0..rows {
            lp.add_constraint([(vars[r % cols], 1.0)], Relation::GreaterEq, 0.0);
        }
        standardize(&lp)
    }

    #[test]
    fn auto_form_takes_the_dual_only_for_tall_programs() {
        let auto = SolveOptions::default();
        // Aspect 2.0 — BASICDP's — stays primal; aspect 3.0 — WM's — goes dual.
        assert_eq!(resolve_form(&auto, &program(1_000, 500)), LpForm::Primal);
        assert_eq!(resolve_form(&auto, &program(1_500, 500)), LpForm::Dual);
        assert_eq!(resolve_form(&auto, &program(1_250, 500)), LpForm::Dual);
        assert_eq!(resolve_form(&auto, &program(1_249, 500)), LpForm::Primal);
        // Too few rows to pay for the dual's extra factorisations.
        assert_eq!(resolve_form(&auto, &program(300, 100)), LpForm::Primal);
        // Explicit forms are taken as given.
        let primal = auto.clone().with_form(LpForm::Primal);
        assert_eq!(resolve_form(&primal, &program(1_500, 500)), LpForm::Primal);
        let dual = auto.with_form(LpForm::Dual);
        assert_eq!(resolve_form(&dual, &program(300, 300)), LpForm::Dual);
    }

    /// Options and stats serialised while the solver still had a presolve
    /// pass carry its retired fields, which must be ignored; pre-dual stats
    /// carry no `form`, which must fill from its documented default
    /// (`Primal`), not `Default::default()` — this pins the vendored derive's
    /// `#[serde(default = "path")]` support.  Stats that still carry the
    /// retired `cross_term_abandoned` count load too, and stats without
    /// `factor_bytes` load with zero bytes.
    #[test]
    fn serde_defaults_for_missing_presolve_and_form_fields() {
        let options_json = serde_json::to_string(&SolveOptions::default()).unwrap();
        assert!(!options_json.contains("presolve"));
        let retired = options_json.replace("\"form\":", "\"presolve\":false,\"form\":");
        assert!(retired.contains("\"presolve\":false"));
        let options: SolveOptions = serde_json::from_str(&retired).unwrap();
        assert_eq!(options, SolveOptions::default());
        let retired_stats = serde_json::to_string(&SolveStats::default())
            .unwrap()
            .replace(
                '{',
                "{\"presolve_rows_removed\":3,\"presolve_cols_removed\":1,",
            );
        let stats: SolveStats = serde_json::from_str(&retired_stats).unwrap();
        assert_eq!(stats, SolveStats::default());

        let mut stats_json = serde_json::to_string(&SolveStats {
            form: LpForm::Dual,
            ..SolveStats::default()
        })
        .unwrap();
        assert!(stats_json.contains("\"form\":"));
        stats_json = stats_json.replace(",\"form\":\"Dual\"", "");
        assert!(
            !stats_json.contains("form"),
            "field removed from the fixture"
        );
        let stats: SolveStats = serde_json::from_str(&stats_json).unwrap();
        assert_eq!(
            stats.form,
            LpForm::Primal,
            "a pre-dual snapshot's solve ran on the primal"
        );

        // Stats written while the steepest-edge update still had its cross
        // term carry the retired count, which must be ignored.
        let retired_stats = serde_json::to_string(&SolveStats::default())
            .unwrap()
            .replace('{', "{\"cross_term_abandoned\":7,");
        assert!(retired_stats.contains("\"cross_term_abandoned\":7"));
        let stats: SolveStats = serde_json::from_str(&retired_stats).unwrap();
        assert_eq!(stats, SolveStats::default());

        // Stats written before the factor footprint was measured load with
        // zero bytes.
        let measured = SolveStats {
            factor_bytes: 4_096,
            ..SolveStats::default()
        };
        let older = serde_json::to_string(&measured)
            .unwrap()
            .replace("\"factor_bytes\":4096,", "");
        assert!(
            !older.contains("factor_bytes"),
            "field removed from the fixture"
        );
        let stats: SolveStats = serde_json::from_str(&older).unwrap();
        assert_eq!(stats, SolveStats::default());
    }

    #[test]
    fn classic_textbook_maximisation() {
        // max 3x + 5y subject to x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            let solution = solution.unwrap();
            assert_close(solution.objective_value, 36.0);
            assert_close(solution.value(x), 2.0);
            assert_close(solution.value(y), 6.0);
        }
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + 2y subject to x + y = 10, x - y >= 2.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 10.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::GreaterEq, 2.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            let solution = solution.unwrap();
            // Optimal at y = 0, x = 10 -> objective 10.
            assert_close(solution.objective_value, 10.0);
            assert_close(solution.value(x), 10.0);
            assert_close(solution.value(y), 0.0);
            assert!(solution.stats.artificial_variables >= 1);
        }
    }

    #[test]
    fn infeasible_program_is_detected() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        for result in solve_both(&lp, &SolveOptions::default()) {
            assert_eq!(result.unwrap_err(), SimplexError::Infeasible);
        }
    }

    #[test]
    fn unbounded_program_is_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::LessEq, 1.0);
        for result in solve_both(&lp, &SolveOptions::default()) {
            assert_eq!(result.unwrap_err(), SimplexError::Unbounded);
        }
    }

    #[test]
    fn unconstrained_minimisation_sits_at_lower_bounds() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", 2.0, f64::INFINITY);
        lp.set_objective_coefficient(x, 3.0);
        let solution = lp.solve().unwrap();
        assert_close(solution.objective_value, 6.0);
        assert_close(solution.value(x), 2.0);
    }

    #[test]
    fn unconstrained_with_negative_cost_is_unbounded() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, -1.0);
        assert_eq!(lp.solve().unwrap_err(), SimplexError::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates_with_anticycling_rules() {
        // The hybrid Bland fallback is the only anti-cycling path, so pin it
        // on Beale's example under the default options.  The oracle prices
        // Dantzig, cycles, and must be rescued by the fallback; the revised
        // simplex must reach the same optimum.
        let lp = beale();
        let [revised, dense] = solve_both(&lp, &SolveOptions::default());
        let (revised, dense) = (revised.unwrap(), dense.unwrap());
        assert_close(revised.objective_value, -0.05);
        assert_close(dense.objective_value, -0.05);
        assert!(
            dense.stats.bland_activations >= 1,
            "the Dantzig oracle only escapes the cycle through the Bland fallback"
        );
        assert!(dense.stats.degenerate_pivots >= DEGENERATE_THRESHOLD);
    }

    #[test]
    fn dantzig_rule_cycles_on_beale_and_hits_the_iteration_limit() {
        // Companion to the test above: Dantzig pricing makes no progress on
        // Beale's example, so a pivot budget that runs out before the Bland
        // fallback engages ends in the iteration limit.
        let options = SolveOptions::default().with_max_iterations(DEGENERATE_THRESHOLD);
        assert!(matches!(
            solve_dense(&beale(), &options).unwrap_err(),
            SimplexError::IterationLimit { .. }
        ));
    }

    #[test]
    fn redundant_equalities_are_tolerated() {
        // x + y = 4 stated twice; the second row becomes redundant after Phase 1.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 4.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            let solution = solution.unwrap();
            assert_close(solution.objective_value, 4.0);
            assert_close(solution.value(x), 4.0);
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        let solution = lp.solve().unwrap();
        assert!(solution.stats.pivots() >= 1);
        assert_eq!(solution.stats.artificial_variables, 1);
        // LU accounting: the initial factorisation always runs, every pivot is
        // a rank-one update, and a clean solve needs no repairs.
        assert!(solution.stats.refactorizations >= 1);
        assert!(solution.stats.basis_updates >= 1);
        // Every recorded pivot is a rank-one update (driving residual
        // artificials out after Phase 1 may add a few more).
        assert!(solution.stats.basis_updates >= solution.stats.pivots());
        assert_eq!(solution.stats.basis_repairs, 0);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        let options = SolveOptions::default().with_max_iterations(1);
        for result in solve_both(&lp, &options) {
            assert!(matches!(
                result.unwrap_err(),
                SimplexError::IterationLimit { limit: 1 }
            ));
        }
    }
}

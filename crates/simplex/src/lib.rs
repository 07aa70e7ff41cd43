//! # cpm-simplex
//!
//! A small, dependency-free **sparse** linear-programming solver used by
//! [`cpm-core`](https://example.org) to solve the constrained mechanism-design LPs of
//! *"Constrained Private Mechanisms for Count Data"* (ICDE 2018).
//!
//! The paper solves all constrained designs with an off-the-shelf LP solver
//! (PyLPSolve / lp_solve).  No LP solver crate is part of the allowed offline
//! dependency set for this reproduction, so this crate implements the classic
//! **two-phase primal simplex** method along one solve route:
//!
//! * a [`LinearProgram`] model-builder API (named variables, bounds, `<=`/`>=`/`=`
//!   constraints, minimisation or maximisation objectives) storing constraints
//!   sparsely in a term arena,
//! * conversion to one sparse (CSC) standard form, `min c'z, Az = b, z ≥ 0`,
//!   with slack / surplus / artificial variables — a two-sided variable bound
//!   becomes one more row — see [`SparseMatrix`],
//! * Phase 1 (minimise the sum of artificials) to find a basic feasible solution,
//! * Phase 2 with the user objective,
//! * the **revised simplex**: the basis inverse is a **sparse LU
//!   factorisation** maintained by Forrest–Tomlin rank-one updates, so a pivot
//!   costs `O(nnz)` instead of the dense tableau's `O(rows · cols)` — the
//!   mechanism-design LPs have only 2 to `n+1` nonzeros per row, so this is the
//!   difference between toy and production group sizes,
//! * the dense full tableau kept only as a reference solver,
//!   [`oracle::solve_dense`], which the differential tests check the revised
//!   simplex against,
//! * **dual-simplex warm starts** ([`SolveOptions::warm_basis`]): seeding a
//!   solve with the [`Solution::optimal_basis`] of an identically shaped
//!   program skips Phase 1 entirely and replaces most of Phase 2 with a short
//!   dual cleanup (dual Devex row pricing + Harris-style dual ratio test),
//!   then certifies optimality with the ordinary primal machinery.  A seed
//!   is a closed-form crash basis ([`crash_basis`]), a relaxation's optimum
//!   lifted by [`lift_basis`], or the optimal basis of an earlier solve of
//!   an identically shaped program; the design layer builds the first two
//!   from each problem alone.
//!   A seed that is primal but not dual feasible (a relaxation's optimum
//!   lifted by [`lift_basis`], seen in dual form) runs the primal Phase 2
//!   from where it stands.  Any defective seed (wrong shape, singular,
//!   infeasible both ways) falls back to the cold primal path silently;
//!   [`SolveStats::warm_started`] and
//!   [`SolveStats::dual_iterations`] report which path ran,
//! * a **dual-form solve path** ([`SolveOptions::form`], [`LpForm`]): tall
//!   programs (the mechanism LPs have ~2x more rows than columns) are
//!   transposed by `dual.rs` and solved as `min −b'y, A'y ≤ c` — one row per
//!   primal *structural* column, so the basis is half the size, and because
//!   the mechanism costs satisfy `c ≥ 0` the all-slack start is feasible and
//!   **phase 1 vanishes**.  The dual-optimal basis maps back to a
//!   primal-optimal basis by complementary slackness and is certified with
//!   the ordinary warm-start machinery, so callers still receive primal
//!   values, duals, objective, and a warm-start-valid
//!   [`Solution::optimal_basis`].  [`SolveStats::form`] reports which form
//!   ran,
//! * a **crash-basis constructor** ([`crash_basis`]): turns a conjectured
//!   optimal point (e.g. a closed-form mechanism the caller believes is the
//!   LP's optimum) into a standard-form basis by classifying tight rows and
//!   interior columns, usable as a warm seed.  The seed is a *hint, never an
//!   answer*: it flows through the same warm-start verification as any other
//!   seed, so a wrong conjecture costs one declined factorisation and falls
//!   back to the cold path — it can never produce a wrong optimum.
//!
//! ## Architecture: the standardise → solve pipeline
//!
//! A call to [`LinearProgram::solve`] flows through four layers, and the
//! program is held once at each: the standard form is built once and every
//! later layer reads it.
//!
//! ```text
//! LinearProgram          model.rs      named variables, bounds, constraint arena
//!       │ standardize    (validates; the builder can be dropped after this)
//!       ▼
//! StandardForm           standard.rs   min c'z, Az = b, z ≥ 0, b ≥ 0 (two-sided
//!       │                sparse.rs     bounds become rows); u32-indexed CSC matrix
//!       │                              (SparseMatrix + RowMajor mirror + SPA utils);
//!       │                              crash_basis / lift_basis read it, solve_with
//!       │                              solves it
//!       │ LpForm::Dual (tall programs, Auto-picked by aspect ratio)
//!       ├──────────────▶ dual.rs       dualize: the dual's StandardForm straight
//!       │                              from the primal's row-wise mirror (its CSC
//!       │                              columns are the primal's rows), slack
//!       │                              columns fold into y sign bounds, c ≥ 0 ⇒
//!       │                              all-slack start (no phase 1); solve it with
//!       │                              the same revised machinery below, map the
//!       │                              dual basis back by complementary slackness
//!       │                              (basic structural column ⇔ tight dual row,
//!       │                              basic y_r ⇔ nonbasic primal slack), drop the
//!       │                              dual, and certify the basis through the
//!       │                              warm-start path — the recovered basis is
//!       │                              primal-optimal and warm-start-valid (a
//!       │                              re-solve takes 0 pivots)
//!       ▼
//! revised simplex        revised.rs    two-phase driver, Harris two-pass ratio
//!       │                              test, Dantzig (phase 1) / steepest-edge
//!       │                              (phase 2) pricing with a Bland fallback,
//!       │                              incremental reduced costs, basis
//!       │                              repair, dual-simplex warm starts; times
//!       │                              each pivot stage per solve
//!       │                              (PIVOT_STAGES)
//!       ▼
//! LU basis inverse       lu.rs         Markowitz factorisation (singleton peeling
//!                                      + threshold pivoting), Suhl–Suhl ordered
//!                                      sparse triangular FTRAN/BTRAN with
//!                                      dense-result pattern harvest,
//!                                      Forrest–Tomlin updates
//! ```
//!
//! The solver takes the program as written: it has no presolve.  The design
//! LPs arrive already reduced — `cpm-core`'s builder gives each class of
//! cells that the paper's structure forces equal (reflection orbits,
//! fairness's diagonal, the rows of an `α = 1` mechanism) one variable,
//! drops the rows that cancel and writes single-variable floors as bounds —
//! so [`Solution::optimal_basis`] and [`SolveOptions::warm_basis`] are
//! expressed in the standard form of the program the caller built.
//!
//! The LU factors are rebuilt every 32 Forrest–Tomlin updates — stretched to
//! `rows / 32` on tall problems — and whenever an update signals numerical
//! trouble (the *basis repair* path, which gives up after two consecutive
//! repairs with [`SimplexError::NumericalBreakdown`]).
//!
//! ## Pricing and ratio tests
//!
//! The pricing is fixed per phase; the leaving side always runs the Harris
//! two-pass ratio test (Bland's exact minimum ratio in the fallback).  Every
//! column is bounded below by zero only, so each entering column moves up
//! from zero and each leaving variable lands on zero: the design LPs
//! (Eqs. 3–6 of the paper) need no upper bounds, since the column sums
//! already imply `ρ ≤ 1`.
//!
//! | phase             | entering rule                                   | why |
//! |-------------------|-------------------------------------------------|-----|
//! | Phase 1           | Dantzig: most negative reduced cost             | drives the artificials out in near-minimal pivots; reference weights inflate the count ~10x |
//! | Phase 2, warm cleanup | projected steepest edge: `d_j² / ‖B⁻¹a_j‖²` in the reference frame, weights re-anchored on refactorisation | fewest pivots and least time on every measured mechanism LP |
//! | after 64 degenerate pivots in a row | Bland: lowest eligible index, until the next improving pivot | guarantees termination |
//!
//! Steepest edge is the only Phase-2 rule because it never lost a pricing
//! ablation against Devex and Dantzig: on the WM-L0 design LP it takes
//! 700 pivots at n = 16 (Devex 924, Dantzig 1 459) and 3 529 at n = 32
//! (5 670 / 7 162), and on the L1/L2 designs every rule walks the same pivots
//! (see BENCHMARKS.md).  The dual simplex of a warm start prices its leaving
//! row with dual Devex weights, a separate mechanism.  [`SolveStats`] reports
//! factorisations, rank-one updates, repairs, Bland fallbacks and
//! steepest-edge framework resets ([`SolveStats::steepest_edge_resets`]), and
//! the weight updates whose cross-term BTRAN was abandoned
//! ([`SolveStats::cross_term_abandoned`]).
//!
//! ## Example
//!
//! ```
//! use cpm_simplex::{LinearProgram, Relation, SolveStatus};
//!
//! // minimise  -3x - 5y
//! // subject to x      <= 4
//! //                 2y <= 12
//! //            3x + 2y <= 18
//! //            x, y >= 0
//! let mut lp = LinearProgram::minimize();
//! let x = lp.add_variable("x");
//! let y = lp.add_variable("y");
//! lp.set_objective_coefficient(x, -3.0);
//! lp.set_objective_coefficient(y, -5.0);
//! lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
//! lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
//! lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
//!
//! let solution = lp.solve().unwrap();
//! assert_eq!(solution.status, SolveStatus::Optimal);
//! assert!((solution.objective_value - (-36.0)).abs() < 1e-9);
//! assert!((solution.value(x) - 2.0).abs() < 1e-9);
//! assert!((solution.value(y) - 6.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod error;
mod lu;
mod model;
pub mod oracle;
mod revised;
mod solution;
mod solver;
pub mod sparse;
mod standard;
mod tableau;

#[cfg(any(test, feature = "dual-reference"))]
#[doc(hidden)]
pub use dual::reference as dual_reference;
pub use error::SimplexError;
pub use lu::release_thread_workspace;
pub use model::{Constraint, LinearProgram, Objective, Relation, VariableId};
pub use revised::PIVOT_STAGES;
pub use solution::{Solution, SolveStatus};
pub use solver::{LpForm, SolveOptions, SolveStats};
pub use sparse::SparseMatrix;
pub use standard::{crash_basis, lift_basis, StandardForm};

//! Differential coverage for the orbit program and the relax-then-lift
//! seed.  A property-constrained design — solved over reflection orbits
//! (Theorem 1) and seeded from its BASICDP relaxation's optimal basis — must
//! reach the same optimum as the full `(n+1)²` program solved cold and by
//! the dense-tableau oracle, over the objectives, property sets, group sizes
//! (odd and even, so the centre orbit is covered) and privacy levels the
//! lift serves.  The lifted route runs in the form `LpForm::Auto` picks and
//! in forced dual form, where the lifted seed is primal feasible but dual
//! infeasible.
//!
//! The cold route on the full program has a known defect the lifted orbit
//! route does not share: on one case at α = 0.99, n = 10 it pivots until the
//! budget runs out.  That case is listed in [`COLD_ROUTE_CYCLES`];
//! everywhere else all three routes must agree.  Designs no seed fits (the F
//! sets) run that cold route too, and [`COLD_ROUTE_STALLS`] pins two of them
//! that fail.  A fix to the cold route empties both lists.

use cpm_core::prelude::*;
use cpm_core::properties::{Property, PropertySet};
use cpm_simplex::{oracle, LpForm, SimplexError};

/// Pivot budget of the cold reference solves: 10x the most any case that
/// terminates needs (462), so a cycling cold solve fails in seconds.
const COLD_PIVOT_BUDGET: usize = 5_000;

/// `(objective, properties, n, α)` cases whose cold full-program solve
/// exhausts the pivot budget.  The lifted orbit route and the dense oracle
/// still agree on them.
///
/// One more full-space stall, too slow to re-run here: the full
/// `{WH, RM, CM, S}` L0 program at n = 64, α = 0.9, forced into
/// `LpForm::Primal` under `recommended_options`, ends in
/// `IterationLimit { limit: 500000 }` after ~190 s (the route designs took
/// before they solved over orbits).  The orbit program, lifted, solves it in
/// primal form in ~0.5 s (2-vCPU VM).
///
/// Which cases stall depends on where the factors are rebuilt, not only on
/// the program: L1 `{RM}` and L0 `{RM}` at the same point also stall when
/// the solver refactorises every 64 updates instead of every 32.
const COLD_ROUTE_CYCLES: [(&str, &str, usize, f64); 1] = [("L0", "RH", 10, 0.99)];

/// Pivot budget of the [`COLD_ROUTE_STALLS`] solves: ~4x the 540 pivots
/// the most expensive F set that does solve at their `(n, α)` needs under
/// the same objective.
const STALL_PIVOT_BUDGET: usize = 2_000;

/// Property sets whose design fails on the cold route at n = 12, α = 0.5
/// under `L0` with the `Max` aggregator, and how.  An F set gets no seed
/// (its diagonal is one variable, so its program has other columns than
/// its relaxation and no lifted basis fits) and is solved cold.  At this
/// point 20 of the 64 F sets fail under `L0`-`Max`, none with WH: the 8
/// with CM but not RM pivot until the budget runs out (`{CM, F}` ends in
/// `IterationLimit { limit: 500000 }` after ~10 s under
/// `recommended_options`), and the 12 with RM fail in phase 1 within 100
/// pivots.  None fails at n ≤ 8, and no F set fails under
/// `Sum` `L0`/`L1`/`L2` at n ∈ {12, 16, 24}.  These two stand for the two
/// failure modes.
const COLD_ROUTE_STALLS: [(&str, ColdStall); 2] = [
    ("CM+F", ColdStall::PivotBudget),
    ("RM+F", ColdStall::Phase1Unbounded),
];

/// How a [`COLD_ROUTE_STALLS`] design fails.
#[derive(Debug)]
enum ColdStall {
    /// `IterationLimit` at [`STALL_PIVOT_BUDGET`].
    PivotBudget,
    /// `NumericalBreakdown`: phase 1 became unbounded.
    Phase1Unbounded,
}

fn assert_same_objective(what: &str, got: f64, expected: f64) {
    let scale = expected.abs().max(got.abs()).max(1e-12);
    assert!(
        (got - expected).abs() <= 1e-9 * scale,
        "{what}: objective {got} vs {expected} (relative {:e})",
        (got - expected).abs() / scale
    );
}

/// Run the grid — property sets {WH, CM, RM, CH, RH, WH+CM, WH+RM+CM} plus
/// `extra_sets` × n ∈ {3, 6, 10} × α ∈ {0.5, 0.9, 0.99} — under one
/// objective.
fn lifted_cold_and_dense_oracle_agree(name: &str, objective: Objective, extra_sets: &[&str]) {
    use Property::*;
    let mut property_sets: Vec<PropertySet> = vec![
        [WeakHonesty].into_iter().collect(),
        [ColumnMonotonicity].into_iter().collect(),
        [RowMonotonicity].into_iter().collect(),
        [ColumnHonesty].into_iter().collect(),
        [RowHonesty].into_iter().collect(),
        [WeakHonesty, ColumnMonotonicity].into_iter().collect(),
        [WeakHonesty, RowMonotonicity, ColumnMonotonicity]
            .into_iter()
            .collect(),
    ];
    property_sets.extend(
        extra_sets
            .iter()
            .map(|set| set.parse::<PropertySet>().unwrap()),
    );
    let mut cycling = Vec::new();
    for properties in property_sets {
        for n in [3usize, 6, 10] {
            for alpha in [0.5, 0.9, 0.99] {
                let problem = DesignProblem::constrained(
                    n,
                    Alpha::new(alpha).unwrap(),
                    objective.clone(),
                    properties,
                );
                let case = format!("{name} {properties} n={n} α={alpha}");
                let options = problem.recommended_options();
                // The references solve the full program; the design solves
                // the orbit program.
                let (full, _) = problem.build_full_lp().unwrap();
                let dense = oracle::solve_dense(&full, &options).expect("dense oracle");
                let cold = full.solve_with(&options.clone().with_max_iterations(COLD_PIVOT_BUDGET));
                match cold {
                    Ok(cold) => assert_same_objective(
                        &format!("{case} cold"),
                        cold.objective_value,
                        dense.objective_value,
                    ),
                    Err(SimplexError::IterationLimit { .. }) => {
                        cycling.push((properties, n, alpha));
                    }
                    Err(error) => panic!("{case}: cold solve failed: {error}"),
                }
                for form in [LpForm::Auto, LpForm::Dual] {
                    let lifted = problem
                        .solve_with(&options.clone().with_form(form))
                        .expect("lifted solve");
                    assert_same_objective(
                        &format!("{case} lifted ({form})"),
                        lifted.objective_value,
                        dense.objective_value,
                    );
                    assert!(properties.all_hold(&lifted.mechanism, 1e-6), "{case}");
                    assert!(
                        Property::Symmetry.holds(&lifted.mechanism, 0.0),
                        "{case}: the orbit optimum is exactly symmetric"
                    );
                }
            }
        }
    }
    let known: Vec<(PropertySet, usize, f64)> = COLD_ROUTE_CYCLES
        .iter()
        .filter(|case| case.0 == name)
        .map(|&(_, properties, n, alpha)| (properties.parse().unwrap(), n, alpha))
        .collect();
    assert_eq!(
        cycling, known,
        "{name}: cold solves that exhausted {COLD_PIVOT_BUDGET} pivots"
    );
}

#[test]
fn l1_lifted_cold_and_dense_oracle_agree() {
    lifted_cold_and_dense_oracle_agree("L1", Objective::l1(), &[]);
}

#[test]
fn l2_lifted_cold_and_dense_oracle_agree() {
    lifted_cold_and_dense_oracle_agree("L2", Objective::l2(), &[]);
}

/// `L0`, plus the two S-bearing Figure-5 sets serving designs solve (WH-LP
/// and WM), which the lift serves now that the orbit program has no S rows.
#[test]
fn l0_lifted_cold_and_dense_oracle_agree() {
    lifted_cold_and_dense_oracle_agree("L0", Objective::l0(), &["WH+RM+S", "WH+RM+CM+S"]);
}

#[test]
fn known_cold_route_stalls_still_fail() {
    let objective = Objective {
        aggregator: Aggregator::Max,
        ..Objective::l0()
    };
    for (properties, stall) in COLD_ROUTE_STALLS {
        let problem = DesignProblem::constrained(
            12,
            Alpha::new(0.5).unwrap(),
            objective.clone(),
            properties.parse().unwrap(),
        );
        let options = problem
            .recommended_options()
            .with_max_iterations(STALL_PIVOT_BUDGET);
        let error = problem.solve_with(&options).unwrap_err();
        let as_pinned = match (&stall, &error) {
            (ColdStall::PivotBudget, CoreError::Solver(SimplexError::IterationLimit { limit })) => {
                *limit == STALL_PIVOT_BUDGET
            }
            (
                ColdStall::Phase1Unbounded,
                CoreError::Solver(SimplexError::NumericalBreakdown { context, .. }),
            ) => context.starts_with("phase 1"),
            _ => false,
        };
        assert!(as_pinned, "{properties}: expected {stall:?}, got {error:?}");
    }
}

/// The lift must actually be taken: a silent fall-back to a cold solve still
/// gets the right answer, so only the seed's outcome shows it.
#[test]
fn wm_l2_n8_is_warm_started_from_the_lifted_seed() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::constrained(8, alpha, Objective::l2(), wm_properties());
    for form in [LpForm::Auto, LpForm::Dual] {
        let lifted = problem
            .solve_with(&problem.recommended_options().with_form(form))
            .unwrap();
        assert!(
            lifted.solver_stats.warm_started,
            "{form}: the lifted seed must be accepted ({:?})",
            lifted.solver_stats
        );
        assert_eq!(lifted.solver_stats.phase1_iterations, 0, "{form}");
        if form == LpForm::Dual {
            // The seed is walked in dual form, not deferred to the primal.
            assert_eq!(lifted.solver_stats.form, LpForm::Dual);
        }
    }
    let (lp, _) = problem.build_lp().unwrap();
    let cold = lp.solve_with(&problem.recommended_options()).unwrap();
    assert!(
        !cold.stats.warm_started,
        "the unseeded program is solved cold"
    );
}

/// The serving WM-L0 key goes through Figure 5, which adds S.  Over orbits
/// its program has no S rows, so it takes the lifted seed: its route and
/// pivot count are pinned (relaxation included; 1 423 cold phase-2 pivots
/// on the full program before the orbit formulation).
#[test]
fn wm_l0_serving_key_takes_the_lifted_route() {
    let key = SpecKey::new(
        32,
        Alpha::new(0.9).unwrap(),
        PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity),
    );
    let designed = key.spec().design().unwrap();
    let stats = designed.solver_stats().expect("WM-L0 is an LP design");
    assert_eq!(
        (
            stats.phase1_iterations,
            stats.phase2_iterations,
            stats.dual_iterations
        ),
        (0, 193, 0),
        "{stats:?}"
    );
    assert!(stats.warm_started, "{stats:?}");
    assert_eq!(stats.form, LpForm::Dual);
}

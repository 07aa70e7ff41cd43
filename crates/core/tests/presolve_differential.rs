//! Differential coverage for the LP presolve pass at the design layer: a
//! presolved solve must agree with an un-presolved solve of the same design
//! problem — same objective (within tolerance), the same achieved
//! `PropertyReport` over the requested closure, and a postsolved
//! `optimal_basis` that a warm re-solve accepts — across the 128 property
//! subsets and n ∈ {8, 16}.

use cpm_core::prelude::*;
use cpm_core::properties::PropertySet;
use cpm_simplex::SolveOptions;
use proptest::prelude::*;

fn a(v: f64) -> Alpha {
    Alpha::new(v).unwrap()
}

/// The constrained L0 problem for one `(n, α, properties)` triple.
fn problem(n: usize, alpha: f64, properties: PropertySet) -> DesignProblem {
    DesignProblem::constrained(n, a(alpha), Objective::l0(), properties)
}

fn options(problem: &DesignProblem, presolve: bool) -> SolveOptions {
    SolveOptions {
        presolve,
        ..problem.recommended_options()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random α × all 128 property subsets × n ∈ {8, 16}: presolved and
    /// un-presolved solves agree on the objective, on every property in the
    /// requested closure, and the presolved solve's postsolved basis seeds a
    /// warm re-solve that lands on the same optimum.  (n = 16 is drawn at a
    /// third of the rate of n = 8 — a debug-mode n = 16 constrained solve
    /// costs seconds, and the reduction logic it exercises is identical.)
    #[test]
    fn presolved_solves_agree_with_unpresolved_solves(
        subset_index in 0usize..128,
        alpha in 0.55f64..0.95,
        pick_n in 0usize..3,
    ) {
        let n = [8usize, 8, 16][pick_n];
        let properties = PropertySet::power_set()[subset_index];
        let p = problem(n, alpha, properties);

        let presolved = p.solve_with(&options(&p, true)).expect("presolved solve");
        let plain = p.solve_with(&options(&p, false)).expect("un-presolved solve");

        prop_assert!(
            (presolved.objective_value - plain.objective_value).abs() < 1e-6,
            "objective: presolved {} vs plain {}",
            presolved.objective_value,
            plain.objective_value
        );
        prop_assert_eq!(plain.solver_stats.presolve_rows_removed, 0);
        prop_assert_eq!(plain.solver_stats.presolve_cols_removed, 0);

        // Degenerate LPs have alternate optimal vertices, and an incidental
        // *unrequested* property can hold at one vertex and not another — so
        // the reports are compared over the requested closure (where both
        // solves are constrained) rather than over all seven properties.
        let presolved_report = PropertyReport::evaluate(&presolved.mechanism, 1e-6);
        let plain_report = PropertyReport::evaluate(&plain.mechanism, 1e-6);
        for property in properties.closure().iter() {
            prop_assert!(
                presolved_report.holds(property) && plain_report.holds(property),
                "requested property {} must hold on both solves",
                property.short_name()
            );
        }
        prop_assert!(presolved.mechanism.satisfies_dp(a(alpha), 1e-6));

        // Postsolved basis validity: the basis the presolved solve reports is
        // expressed in the *original* standard form, so an un-presolved warm
        // re-solve must accept it (or cleanly fall back) and reach the same
        // objective.
        prop_assert!(presolved.optimal_basis.is_some(),
            "presolved LP solves must still report a postsolved basis");
        let reseed_options =
            options(&p, false).with_warm_basis(presolved.optimal_basis.clone());
        let reseeded = p
            .solve_with(&reseed_options)
            .expect("warm re-solve from a postsolved basis");
        prop_assert!(
            (reseeded.objective_value - plain.objective_value).abs() < 1e-6,
            "re-seeded objective {} vs plain {}",
            reseeded.objective_value,
            plain.objective_value
        );
        if reseeded.solver_stats.warm_started {
            prop_assert_eq!(reseeded.solver_stats.phase1_iterations, 0);
        }
    }
}

/// The weak-honesty singleton rows (`ρ_jj ≥ threshold`) are exactly the shape
/// presolve folds into variable bounds, so the stats must attribute removed
/// rows on a WH-constrained design — and the default solve path (presolve on)
/// must report the same optimum as the paper's closed form did before.
#[test]
fn weak_honesty_designs_report_presolve_reductions() {
    let p = problem(8, 0.76, wm_properties());
    let solved = p.solve().unwrap();
    assert!(
        solved.solver_stats.presolve_rows_removed > 0,
        "WH singleton rows should fold into bounds (stats: {:?})",
        solved.solver_stats
    );
    let plain = p.solve_with(&options(&p, false)).unwrap();
    assert!((solved.objective_value - plain.objective_value).abs() < 1e-9);
}

/// Exhaustive sweep at n = 4: every one of the 128 property subsets solved
/// with and without presolve at one α, agreeing on the objective.  The group
/// size is kept small so the sweep stays debug-mode cheap; the proptest above
/// covers n ∈ {8, 16} on sampled subsets.
#[test]
fn all_128_subsets_agree_at_n4() {
    for (index, &properties) in PropertySet::power_set().iter().enumerate() {
        let p = problem(4, 0.76, properties);
        let presolved = p.solve_with(&options(&p, true)).unwrap();
        let plain = p.solve_with(&options(&p, false)).unwrap();
        assert!(
            (presolved.objective_value - plain.objective_value).abs() < 1e-7,
            "subset {index} ({properties}): presolved {} vs plain {}",
            presolved.objective_value,
            plain.objective_value
        );
    }
}

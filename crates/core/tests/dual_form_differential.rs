//! Differential coverage for the dual-form solve path at the design layer:
//! a forced [`LpForm::Dual`] solve must agree with a forced `Primal` solve —
//! same objective to 1e-9 and the same achieved `PropertyReport` over the
//! requested closure — across random property subsets and n ∈ {8, 16}, and
//! whenever the dual path actually ran, the primal basis it recovers through
//! complementary slackness must warm-start a primal re-solve with zero pivots.

use cpm_core::prelude::*;
use cpm_core::properties::PropertySet;
use cpm_simplex::LpForm;
use proptest::prelude::*;

fn a(v: f64) -> Alpha {
    Alpha::new(v).unwrap()
}

/// The constrained L0 problem for one `(n, α, properties)` triple.
fn problem(n: usize, alpha: f64, properties: PropertySet) -> DesignProblem {
    DesignProblem::constrained(n, a(alpha), Objective::l0(), properties)
}

fn solve_as(problem: &DesignProblem, form: LpForm) -> DesignSolution {
    problem
        .solve_with(&problem.recommended_options().with_form(form))
        .expect("differential solves must succeed")
}

/// When the dual path produced this solution (it can decline and defer to
/// the primal path, which reports `Primal`), its recovered basis must re-solve the same problem under the
/// primal form as a pure warm start: accepted, no Phase 1, and zero pivots of
/// either kind — the complementary-slackness mapping is exact, not heuristic.
fn assert_zero_pivot_reseed(problem: &DesignProblem, dual: &DesignSolution) {
    if dual.solver_stats.form != LpForm::Dual {
        return;
    }
    let basis = dual
        .optimal_basis
        .clone()
        .expect("a dual-form solve certifies and reports a primal basis");
    let reseeded = problem
        .solve_with(
            &problem
                .recommended_options()
                .with_form(LpForm::Primal)
                .with_warm_basis(Some(basis)),
        )
        .expect("reseeded solve must succeed");
    assert!(
        reseeded.solver_stats.warm_started,
        "the dual path's recovered basis must be warm-start-valid"
    );
    assert_eq!(reseeded.solver_stats.phase1_iterations, 0);
    assert_eq!(
        reseeded.solver_stats.pivots(),
        0,
        "an optimal basis re-solves in zero pivots"
    );
    assert!((reseeded.objective_value - dual.objective_value).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random draws over all 128 property subsets × n ∈ {8, 16} (n = 16 at a
    /// third of the rate — the differential logic is identical and a debug
    /// n = 16 constrained solve costs seconds): forced dual and forced primal
    /// agree on the objective and on every requested property, and the dual
    /// path's basis warm-starts a zero-pivot primal re-solve.
    #[test]
    fn dual_form_agrees_with_primal_across_property_subsets(
        subset_index in 0usize..128,
        alpha in 0.55f64..0.95,
        pick_n in 0usize..3,
    ) {
        let n = [8usize, 8, 16][pick_n];
        let properties = PropertySet::power_set()[subset_index];
        let problem = problem(n, alpha, properties);

        let primal = solve_as(&problem, LpForm::Primal);
        let dual = solve_as(&problem, LpForm::Dual);

        prop_assert_eq!(primal.solver_stats.form, LpForm::Primal);
        prop_assert!(
            (dual.objective_value - primal.objective_value).abs() < 1e-9,
            "objective: dual {} vs primal {}",
            dual.objective_value,
            primal.objective_value
        );
        // Degenerate LPs have alternate optimal vertices, and an incidental
        // *unrequested* property can hold at one vertex and not another — so
        // the reports are compared over the requested closure (where both
        // solves are constrained) rather than over all seven properties.
        let dual_report = PropertyReport::evaluate(&dual.mechanism, 1e-6);
        let primal_report = PropertyReport::evaluate(&primal.mechanism, 1e-6);
        for property in properties.closure().iter() {
            prop_assert!(
                dual_report.holds(property) == primal_report.holds(property),
                "requested property {} must agree across forms",
                property.short_name()
            );
        }
        prop_assert!(dual.mechanism.satisfies_dp(a(alpha), 1e-6));
        prop_assert!(properties.all_hold(&dual.mechanism, 1e-6));

        assert_zero_pivot_reseed(&problem, &dual);
    }
}

/// The unconstrained BASICDP LP is tall, so a forced dual solve must
/// actually take the dual path — and its recovered basis is exact.
#[test]
fn unconstrained_dual_form_runs_dual_and_recovers_an_exact_basis() {
    for n in [8usize, 16] {
        // Solve the unseeded program, so the dual walk is exercised rather
        // than certified away in zero pivots by the closed-form crash seed.
        let problem = DesignProblem::unconstrained(n, a(0.9), Objective::l0());
        let (lp, _) = problem.build_lp().unwrap();
        let options = |form| problem.recommended_options().with_form(form);
        let primal = lp.solve_with(&options(LpForm::Primal)).unwrap();
        let dual = lp.solve_with(&options(LpForm::Dual)).unwrap();

        assert_eq!(dual.stats.form, LpForm::Dual);
        assert_eq!(
            dual.stats.phase1_iterations, 0,
            "the dual starts feasible: no Phase 1"
        );
        assert!((dual.objective_value - primal.objective_value).abs() < 1e-9);
        let reseeded = lp
            .solve_with(&options(LpForm::Primal).with_warm_basis(dual.optimal_basis))
            .unwrap();
        assert!(reseeded.stats.warm_started, "{:?}", reseeded.stats);
        assert_eq!(
            reseeded.stats.pivots(),
            0,
            "an optimal basis re-solves in zero pivots"
        );
        assert!((reseeded.objective_value - dual.objective_value).abs() < 1e-9);
    }
}

/// The WM family (the paper's central constrained design) at n = 16, checked
/// deterministically: both forms reach the same optimum and the dual path's
/// basis round-trips.
#[test]
fn wm_family_agrees_across_forms() {
    let problem = problem(16, 0.9, wm_properties());
    let primal = solve_as(&problem, LpForm::Primal);
    let dual = solve_as(&problem, LpForm::Dual);
    assert!((dual.objective_value - primal.objective_value).abs() < 1e-9);
    assert!(wm_properties().all_hold(&dual.mechanism, 1e-6));
    assert_zero_pivot_reseed(&problem, &dual);
}

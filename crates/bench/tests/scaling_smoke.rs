//! Release-mode scaling smoke test: the n = 64 unconstrained-L0 design LP must
//! solve well within a generous wall-clock bound, n = 128 must stay inside
//! the post-dual-form budget (the crash-seeded dual certification is ~0.2 s;
//! a regression to the cold walk is tens of seconds), n = 256 must solve
//! through `LpForm::Auto`'s dual routing, the WM-L0 and WM-L2 LPs that
//! serving actually solves must keep their pivot counts, and two `α = 1`
//! designs must keep the pivot counts of their row-class programs.
//!
//! These are `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI
//! runs them explicitly with
//! `cargo test --release -p cpm-bench --test scaling_smoke -- --ignored`.
//! The bound is deliberately loose (the LU-based solver does n = 64 in a few
//! seconds in release mode) — the test exists to catch order-of-magnitude
//! regressions of the solver hot path, not millisecond drift.

use std::time::{Duration, Instant};

use cpm_core::prelude::*;
use cpm_simplex::LpForm;

/// Generous ceiling for one n = 64 unconstrained-L0 solve in release mode.
/// The eta-file baseline needed ~22 s; the LU factors are several times faster,
/// so 60 s only trips on a genuine architectural regression.
const N64_BUDGET: Duration = Duration::from_secs(60);

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn n64_unconstrained_l0_solves_within_budget() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::unconstrained(64, alpha, Objective::l0());
    let start = Instant::now();
    let solution = problem.solve().expect("n = 64 BASICDP must solve");
    let elapsed = start.elapsed();
    assert!(
        elapsed < N64_BUDGET,
        "n = 64 unconstrained L0 took {elapsed:?} (budget {N64_BUDGET:?})"
    );
    // Theorem 3 closed form for the BASICDP L0 optimum.
    let n = 64.0f64;
    let a = alpha.value();
    let trace = (n - 1.0) * (1.0 - a) / (1.0 + a) + 2.0 / (1.0 + a);
    let expected = 1.0 - trace / (n + 1.0);
    assert!(
        (solution.objective_value - expected).abs() < 1e-6,
        "objective {} vs closed form {expected}",
        solution.objective_value
    );
}

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn n128_unconstrained_l0_completes_without_breakdown() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::unconstrained(128, alpha, Objective::l0());
    let solution = problem
        .solve()
        .expect("n = 128 BASICDP must complete without NumericalBreakdown");
    let n = 128.0f64;
    let a = alpha.value();
    let trace = (n - 1.0) * (1.0 - a) / (1.0 + a) + 2.0 / (1.0 + a);
    let expected = 1.0 - trace / (n + 1.0);
    assert!(
        (solution.objective_value - expected).abs() < 1e-6,
        "objective {} vs closed form {expected}",
        solution.objective_value
    );
}

/// Ceiling for the default-path n = 128 solve under the PR-7 machinery: the
/// closed-form geometric crash basis certifies through the dual form in zero
/// pivots.  Measured: ~0.2 s over orbits (~0.5 s in the full space) and
/// 0 + 0 pivots on the dev box (the PR-6 cold walk was ~32 s and 257 + ~38k
/// pivots; PR 5, ~91 s).  15 s / 1k pivots trips whenever the crash seed
/// stops being accepted — which silently falls back to the tens-of-seconds
/// cold walk — while tolerating slow CI hardware.
const N128_BUDGET: Duration = Duration::from_secs(15);
const N128_PIVOT_BUDGET: usize = 1_000;

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn n128_default_solve_stays_under_the_pivot_and_time_budget() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::unconstrained(128, alpha, Objective::l0());
    let start = Instant::now();
    let solution = problem.solve().expect("n = 128 BASICDP must solve");
    let elapsed = start.elapsed();
    let pivots = solution.solver_stats.pivots();
    assert!(
        elapsed < N128_BUDGET,
        "n = 128 default-path solve took {elapsed:?} (budget {N128_BUDGET:?})"
    );
    assert!(
        pivots < N128_PIVOT_BUDGET,
        "n = 128 default-path solve took {pivots} pivots (budget {N128_PIVOT_BUDGET})"
    );
    let n = 128.0f64;
    let a = alpha.value();
    let trace = (n - 1.0) * (1.0 - a) / (1.0 + a) + 2.0 / (1.0 + a);
    let expected = 1.0 - trace / (n + 1.0);
    assert!(
        (solution.objective_value - expected).abs() < 1e-6,
        "objective {} vs closed form {expected}",
        solution.objective_value
    );
}

/// Generous ceiling for the n = 256 unconstrained-L0 LP (65 921 rows ×
/// 33 025 orbit columns; 131 841 × 66 049 in the full space, a size the
/// pre-dual solver never finished).  Measured: ~0.5 s, 0 + 0 pivots,
/// through `LpForm::Auto` → primal with the geometric crash seed (~1.6 s in
/// dual form, ~6 s in dual form over the full space).
const N256_BUDGET: Duration = Duration::from_secs(60);
const N256_PIVOT_BUDGET: usize = 1_000;

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn n256_lp_solves_within_budget() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::unconstrained(256, alpha, Objective::l0());
    let start = Instant::now();
    let solution = problem.solve().expect("n = 256 BASICDP must solve");
    let elapsed = start.elapsed();
    assert!(
        elapsed < N256_BUDGET,
        "n = 256 solve took {elapsed:?} (budget {N256_BUDGET:?})"
    );
    let pivots = solution.solver_stats.pivots();
    assert!(
        pivots < N256_PIVOT_BUDGET,
        "n = 256 solve took {pivots} pivots (budget {N256_PIVOT_BUDGET})"
    );
    assert_eq!(
        solution.solver_stats.form,
        LpForm::Primal,
        "LpForm::Auto must keep the aspect-2 n = 256 BASICDP LP in primal form"
    );
    let n = 256.0f64;
    let a = alpha.value();
    let trace = (n - 1.0) * (1.0 - a) / (1.0 + a) + 2.0 / (1.0 + a);
    let expected = 1.0 - trace / (n + 1.0);
    assert!(
        (solution.objective_value - expected).abs() < 1e-6,
        "objective {} vs closed form {expected}",
        solution.objective_value
    );
}

/// The full seven-property request at n = 256: Figure 5 routes any
/// fairness-containing closure to the Explicit Fair closed form, so this
/// exercises selection, construction, and the seven-property report on a
/// 257 × 257 matrix — the design path at a group size the paper never reached.
#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn n256_all_properties_design_completes() {
    let alpha = Alpha::new(0.9).unwrap();
    let designed = MechanismSpec::new(256, alpha)
        .properties(PropertySet::all())
        .build()
        .expect("spec must validate")
        .design()
        .expect("n = 256 all-properties design must complete");
    assert!(
        designed.requested_satisfied(),
        "every requested property must hold on the designed matrix"
    );
    assert_eq!(designed.mechanism().group_size(), 256);
}

/// Ceilings for the cold WM-L0 n = 32 solve (`{WH, RM, CM}`, α = 0.9, the
/// unseeded `build_lp` program under `recommended_options`) — the walk the
/// pricing rules are judged on.
/// Measured through `recommended_options` on the orbit program: 1 686
/// pivots and ~0.13 s on a 2-vCPU box (3 529 pivots and ~0.6 s in the full
/// space); the default route seeds this program from its relaxation and
/// takes 193.  Pivot counts are deterministic, so the
/// pivot ceiling catches any change of pricing or route; the wall budget
/// only catches order-of-magnitude regressions.
const WM32_PIVOT_BUDGET: usize = 5_000;
const WM32_BUDGET: Duration = Duration::from_secs(30);

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn wm_l0_n32_cold_solve_stays_under_the_pivot_and_time_budget() {
    let alpha = Alpha::new(0.9).unwrap();
    let problem = DesignProblem::constrained(32, alpha, Objective::l0(), wm_properties());
    let (lp, vars) = problem.build_lp().unwrap();
    let start = Instant::now();
    let solution = lp
        .solve_with(&problem.recommended_options())
        .expect("n = 32 WM-L0 must solve");
    let elapsed = start.elapsed();
    let stats = solution.stats;
    assert!(!stats.warm_started, "the reference walk is unseeded");
    let pivots = stats.pivots();
    assert!(
        pivots <= WM32_PIVOT_BUDGET,
        "n = 32 WM-L0 took {pivots} pivots (budget {WM32_PIVOT_BUDGET}; stats {stats:?})"
    );
    assert!(
        elapsed < WM32_BUDGET,
        "n = 32 WM-L0 took {elapsed:?} (budget {WM32_BUDGET:?})"
    );
    let mechanism = Mechanism::from_fn(32, |i, j| solution.value(vars[i][j]).max(0.0))
        .expect("the LP optimum is column-stochastic");
    assert!(wm_properties().all_hold(&mechanism, 1e-6));
    // Section IV-D: L0(GM) <= L0(WM) <= L0(EM).
    let score = rescaled_l0(&mechanism);
    assert!(score + 1e-6 >= closed_form::gm_l0(alpha), "score {score}");
    assert!(
        score <= closed_form::em_l0(32, alpha) + 1e-6,
        "score {score}"
    );
}

/// Ceilings for the WM-L2 design `collect_loop` serves (n = 32, `{WH, CM}`
/// under `L2`, closure `{CH, CM, WH}`, α = 0.9).  Its seed is lifted from
/// the BASICDP relaxation: measured 59 relaxation + 154 lifted pivots and
/// ~0.05 s on a 2-vCPU box over reflection orbits (118 + 337 and ~0.17 s in
/// the full space), against 3 735 pivots and ~1.0 s for the full-space cold
/// walk the lift replaced.  The pivot ceiling counts the relaxation too (the design
/// reports both), so it trips whenever the lifted seed stops being built or
/// accepted; the wall budget only catches order-of-magnitude regressions.
const WM_L2_N32_PIVOT_BUDGET: usize = 1_000;
const WM_L2_N32_BUDGET: Duration = Duration::from_secs(15);

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn wm_l2_n32_lifted_solve_stays_under_the_pivot_and_time_budget() {
    let alpha = Alpha::new(0.9).unwrap();
    let key = SpecKey::with_objective(
        32,
        alpha,
        PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity),
        ObjectiveKey::L2,
    );
    let start = Instant::now();
    let designed = key.spec().design().expect("n = 32 WM-L2 must design");
    let elapsed = start.elapsed();
    let stats = *designed.solver_stats().expect("WM-L2 is an LP design");
    let pivots = stats.pivots();
    assert!(
        stats.warm_started,
        "the lifted seed must be accepted (stats {stats:?})"
    );
    assert!(
        pivots <= WM_L2_N32_PIVOT_BUDGET,
        "n = 32 WM-L2 took {pivots} pivots (budget {WM_L2_N32_PIVOT_BUDGET}; stats {stats:?})"
    );
    assert!(
        elapsed < WM_L2_N32_BUDGET,
        "n = 32 WM-L2 took {elapsed:?} (budget {WM_L2_N32_BUDGET:?})"
    );
    assert!(designed.requested_satisfied());
}

/// Ceilings for the WM-L0 key the design storm opens with (n = 64, `WH+CM`
/// under `L0`, α = 0.9), designed through the serving route: Figure 5 adds
/// S, the program is solved over reflection orbits, and the seed is lifted
/// from the BASICDP relaxation.  Measured 393 pivots (relaxation included)
/// and ~0.25 s on a 2-vCPU box, against 6 316 cold pivots and ~2 s on the
/// full program with S.  The pivot ceiling trips whenever the orbit program
/// or its lifted seed is lost; the wall budget only catches
/// order-of-magnitude regressions.
const WM_L0_N64_PIVOT_BUDGET: usize = 1_000;
const WM_L0_N64_BUDGET: Duration = Duration::from_secs(15);

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn wm_l0_n64_serving_route_stays_under_the_pivot_and_time_budget() {
    let alpha = Alpha::new(0.9).unwrap();
    let key = SpecKey::new(
        64,
        alpha,
        PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity),
    );
    let start = Instant::now();
    let designed = key.spec().design().expect("n = 64 WM-L0 must design");
    let elapsed = start.elapsed();
    let stats = *designed.solver_stats().expect("WM-L0 is an LP design");
    let pivots = stats.pivots();
    assert!(
        stats.warm_started,
        "the lifted seed must be accepted (stats {stats:?})"
    );
    assert!(
        pivots <= WM_L0_N64_PIVOT_BUDGET,
        "n = 64 WM-L0 took {pivots} pivots (budget {WM_L0_N64_PIVOT_BUDGET}; stats {stats:?})"
    );
    assert!(
        elapsed < WM_L0_N64_BUDGET,
        "n = 64 WM-L0 took {elapsed:?} (budget {WM_L0_N64_BUDGET:?})"
    );
    assert!(designed.requested_satisfied());
    assert!(Property::Symmetry.holds(designed.mechanism(), 0.0));
}

/// Pivot ceilings for two `α = 1` designs, where DP holds every row of the
/// matrix constant and the builder gives each row one variable: `{WH, CM}`
/// under `L0` at n = 64 and the unconstrained `L1` design at n = 32.  Over
/// reflection orbits with every DP row written out they take 2 204 and 635
/// pivots; over row classes, 0 and 2.
const ALPHA_ONE_WH_CM_N64_PIVOT_BUDGET: usize = 200;
const ALPHA_ONE_L1_N32_PIVOT_BUDGET: usize = 50;

#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn alpha_one_designs_solve_over_row_classes_within_the_pivot_budget() {
    let alpha = Alpha::new(1.0).unwrap();
    let wh_cm = PropertySet::empty()
        .with(Property::WeakHonesty)
        .with(Property::ColumnMonotonicity);
    let cases = [
        (
            DesignProblem::constrained(64, alpha, Objective::l0(), wh_cm),
            ALPHA_ONE_WH_CM_N64_PIVOT_BUDGET,
        ),
        (
            DesignProblem::unconstrained(32, alpha, Objective::l1()),
            ALPHA_ONE_L1_N32_PIVOT_BUDGET,
        ),
    ];
    for (problem, budget) in cases {
        let case = format!(
            "{} {} n = {}",
            problem.objective.loss.name(),
            problem.properties,
            problem.n
        );
        let solution = problem.solve().expect("α = 1 designs solve");
        let stats = solution.solver_stats;
        assert!(
            stats.pivots() <= budget,
            "{case}: {} pivots (budget {budget}; stats {stats:?})",
            stats.pivots()
        );
        // At α = 1 every row of the mechanism is constant.
        let mechanism = &solution.mechanism;
        for i in 0..=problem.n {
            assert!(
                (0..=problem.n)
                    .all(|j| (mechanism.prob(i, j) - mechanism.prob(i, 0)).abs() <= 1e-12),
                "{case}: row {i} is not constant"
            );
        }
        assert!(problem.properties.all_hold(mechanism, 1e-6), "{case}");
    }
}

/// `LpForm::Auto`'s aspect threshold (`LpForm::AUTO_MIN_ASPECT`) on the
/// orbit programs serving solves, as measured: BASICDP (aspect ~2.0, the
/// `design_storm` L1/L2 keys) is faster in primal form, the WM programs
/// (aspect 3–4) in dual form.
#[test]
#[ignore = "release-mode scaling smoke test; run explicitly (see CI workflow)"]
fn auto_form_picks_the_measured_form_for_served_programs() {
    let alpha = Alpha::new(0.9).unwrap();
    let wm = PropertySet::empty()
        .with(Property::WeakHonesty)
        .with(Property::ColumnMonotonicity);
    let cases = [
        (96, PropertySet::empty(), ObjectiveKey::L1, LpForm::Primal),
        (96, PropertySet::empty(), ObjectiveKey::L2, LpForm::Primal),
        (64, wm, ObjectiveKey::L0, LpForm::Dual),
        (32, wm, ObjectiveKey::L2, LpForm::Dual),
    ];
    for (n, properties, objective, form) in cases {
        let designed = SpecKey::with_objective(n, alpha, properties, objective)
            .spec()
            .design()
            .unwrap();
        let stats = designed.solver_stats().expect("an LP design");
        assert_eq!(
            stats.form, form,
            "{objective} {properties} n = {n}: {stats:?}"
        );
    }
}

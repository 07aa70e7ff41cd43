//! Dual-simplex warm starts through the public API: a solve's
//! `Solution::optimal_basis` seeds `SolveOptions::warm_basis` of a re-solve,
//! which must agree with the cold answer while skipping Phase 1 — and every
//! defective seed must fall back to the cold primal path instead of erroring.

use cpm_simplex::{
    crash_basis, lift_basis, LinearProgram, LpForm, Relation, SolveOptions, VariableId,
};

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-7, "{a} != {b}");
}

/// A mechanism-shaped LP: a probability-style equality row plus chained ratio
/// inequalities whose coefficient is the `alpha` parameter being swept.
fn ratio_lp(n: usize, alpha: f64) -> (LinearProgram, Vec<VariableId>) {
    let mut lp = LinearProgram::minimize();
    let vars = lp.add_variables("p", n);
    for (i, v) in vars.iter().enumerate() {
        lp.set_objective_coefficient(*v, 1.0 + i as f64 * 0.25);
    }
    lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
    for w in vars.windows(2) {
        lp.add_constraint(vec![(w[0], 1.0), (w[1], -alpha)], Relation::GreaterEq, 0.0);
        lp.add_constraint(vec![(w[1], 1.0), (w[0], -alpha)], Relation::GreaterEq, 0.0);
    }
    (lp, vars)
}

/// [`crash_basis`] against `lp`'s own standard form.
fn crash(lp: &LinearProgram, values: &[f64]) -> Option<Vec<usize>> {
    crash_basis(lp, &lp.standardize().unwrap(), values)
}

/// [`lift_basis`] between the two models' own standard forms.
fn lift(relaxed: &LinearProgram, basis: &[usize], lp: &LinearProgram) -> Option<Vec<usize>> {
    let (relaxed_sf, sf) = (relaxed.standardize().unwrap(), lp.standardize().unwrap());
    lift_basis(relaxed, &relaxed_sf, basis, lp, &sf)
}

fn warm_options(basis: Vec<usize>) -> SolveOptions {
    SolveOptions {
        warm_basis: Some(basis),
        ..SolveOptions::default()
    }
}

#[test]
fn resolving_with_the_own_optimal_basis_is_warm_and_pivot_free() {
    let (lp, _) = ratio_lp(12, 0.8);
    let cold = lp.solve().unwrap();
    let basis = cold
        .optimal_basis
        .clone()
        .expect("a clean solve reports its basis");

    let warm = lp.solve_with(&warm_options(basis)).unwrap();
    assert!(warm.stats.warm_started, "the warm path must have run");
    assert_eq!(
        warm.stats.phase1_iterations, 0,
        "no Phase 1 on a warm start"
    );
    assert_eq!(
        warm.stats.dual_iterations, 0,
        "the own optimal basis is already primal feasible"
    );
    assert_close(warm.objective_value, cold.objective_value);
    for (w, c) in warm.values.iter().zip(cold.values.iter()) {
        assert_close(*w, *c);
    }
}

#[test]
fn alpha_neighbour_warm_start_agrees_with_the_cold_solve() {
    let (base, _) = ratio_lp(16, 0.80);
    let seed = base
        .solve()
        .unwrap()
        .optimal_basis
        .expect("basis available");

    for alpha in [0.78, 0.79, 0.81, 0.82, 0.85] {
        let (lp, _) = ratio_lp(16, alpha);
        let cold = lp.solve().unwrap();
        let warm = lp.solve_with(&warm_options(seed.clone())).unwrap();
        assert_close(warm.objective_value, cold.objective_value);
        for (w, c) in warm.values.iter().zip(cold.values.iter()) {
            assert_close(*w, *c);
        }
        let cold_pivots = cold.stats.pivots();
        let warm_pivots = warm.stats.pivots();
        if warm.stats.warm_started {
            assert_eq!(warm.stats.phase1_iterations, 0);
            assert!(
                warm_pivots <= cold_pivots,
                "alpha {alpha}: warm {warm_pivots} pivots vs cold {cold_pivots}"
            );
        }
    }
}

#[test]
fn dual_infeasible_seed_falls_back_to_the_primal_path() {
    // max 3x + 5y over three <= rows: the all-slack basis is primal feasible
    // but badly dual infeasible (both structural reduced costs are negative),
    // so the dual cleanup must not run: the primal simplex walks from the
    // seed.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.set_objective_coefficient(x, 3.0);
    lp.set_objective_coefficient(y, 5.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
    lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
    lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
    // Standard form: columns 0..1 structural, 2..4 slacks; the slack basis.
    let solution = lp.solve_with(&warm_options(vec![2, 3, 4])).unwrap();
    assert_eq!(
        solution.stats.dual_iterations, 0,
        "a dual-infeasible seed must not run the dual simplex"
    );
    assert_eq!(solution.stats.phase1_iterations, 0);
    assert!(solution.stats.phase2_iterations >= 1);
    assert_close(solution.objective_value, 36.0);
    assert_close(solution.value(x), 2.0);
    assert_close(solution.value(y), 6.0);
}

#[test]
fn primal_feasible_seed_runs_phase_2_from_the_seed() {
    // max 3x + 5y over two two-term <= rows: the all-slack basis is primal
    // feasible but dual infeasible.  The
    // warm path must take it anyway and walk Phase 2 from it — no Phase 1,
    // no dual pivots — to the cold optimum at (3, 1).
    let mut lp = LinearProgram::maximize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.set_objective_coefficient(x, 3.0);
    lp.set_objective_coefficient(y, 5.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::LessEq, 4.0);
    lp.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::LessEq, 6.0);
    // Standard form: columns 0..1 structural, 2..3 slacks; the slack basis.
    let solution = lp.solve_with(&warm_options(vec![2, 3])).unwrap();
    assert!(
        solution.stats.warm_started,
        "a primal-feasible seed is a start"
    );
    assert_eq!(solution.stats.phase1_iterations, 0);
    assert_eq!(solution.stats.dual_iterations, 0);
    assert!(solution.stats.phase2_iterations >= 1);
    assert_close(solution.objective_value, 14.0);
    assert_close(solution.value(x), 3.0);
    assert_close(solution.value(y), 1.0);
}

#[test]
fn seed_infeasible_both_ways_falls_back_to_the_primal_path() {
    // The same program plus x + y >= 1: its surplus column, basic in the
    // all-slack seed, sits at -1, so the seed is primal infeasible as well as
    // dual infeasible and the warm path must decline it.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.set_objective_coefficient(x, 3.0);
    lp.set_objective_coefficient(y, 5.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::LessEq, 4.0);
    lp.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::LessEq, 6.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 1.0);
    let solution = lp.solve_with(&warm_options(vec![2, 3, 4])).unwrap();
    assert!(
        !solution.stats.warm_started,
        "a seed infeasible both ways must not take the warm path"
    );
    assert_close(solution.objective_value, 14.0);
}

/// `ratio_lp` plus appended rows that cut off its optimum: a singleton
/// floor on the last variable, `p0 <= p1`, and the same halfspace restated
/// as `p1 - p0 >= 0`.
fn extended_ratio_lp(n: usize, alpha: f64) -> LinearProgram {
    let (mut lp, vars) = ratio_lp(n, alpha);
    lp.add_constraint(vec![(vars[n - 1], 1.0)], Relation::GreaterEq, 0.05);
    lp.add_constraint(vec![(vars[0], 1.0), (vars[1], -1.0)], Relation::LessEq, 0.0);
    lp.add_constraint(
        vec![(vars[1], 1.0), (vars[0], -1.0)],
        Relation::GreaterEq,
        0.0,
    );
    lp
}

#[test]
fn lifted_relaxation_basis_warm_starts_the_extended_program() {
    let (relaxed, _) = ratio_lp(10, 0.8);
    let lp = extended_ratio_lp(10, 0.8);
    for form in [LpForm::Primal, LpForm::Dual] {
        let options = SolveOptions::default().with_form(form);
        let basis = relaxed
            .solve_with(&options)
            .unwrap()
            .optimal_basis
            .expect("the relaxation reports its basis");
        let lifted = lift(&relaxed, &basis, &lp).expect("appended inequality rows always lift");
        let cold = lp.solve_with(&options).unwrap();
        let warm = lp
            .solve_with(&options.clone().with_warm_basis(Some(lifted)))
            .unwrap();
        assert!(
            warm.stats.warm_started,
            "{form}: the lifted seed must be used"
        );
        assert_eq!(warm.stats.phase1_iterations, 0);
        // In dual form the lifted seed is primal feasible and dual
        // infeasible; it must be walked there, not deferred to the primal.
        assert_eq!(warm.stats.form, form);
        assert_close(warm.objective_value, cold.objective_value);
        for (w, c) in warm.values.iter().zip(cold.values.iter()) {
            assert_close(*w, *c);
        }
    }
}

#[test]
fn lift_basis_refuses_what_it_cannot_map() {
    let (relaxed, vars) = ratio_lp(6, 0.8);
    let basis = relaxed.solve().unwrap().optimal_basis.unwrap();
    let lp = extended_ratio_lp(6, 0.8);
    assert!(lift(&relaxed, &basis, &lp).is_some());
    // A standard form of another program's shape.
    let (relaxed_sf, sf) = (relaxed.standardize().unwrap(), lp.standardize().unwrap());
    assert!(lift_basis(&relaxed, &sf, &basis, &lp, &sf).is_none());
    assert!(lift_basis(&relaxed, &relaxed_sf, &basis, &lp, &relaxed_sf).is_none());

    // Wrong basis length.
    assert!(lift(&relaxed, &basis[1..], &lp).is_none());
    // Not an extension: another objective, or the relaxation's rows changed.
    let mut other_objective = lp.clone();
    other_objective.set_objective_coefficient(vars[0], 7.0);
    assert!(lift(&relaxed, &basis, &other_objective).is_none());
    let (tighter, _) = ratio_lp(6, 0.7);
    assert!(lift(&tighter, &basis, &lp).is_none());
    // An appended equality `p1 = p2` has no slack to make basic.
    let mut equality = relaxed.clone();
    equality.add_constraint(vec![(vars[1], 1.0), (vars[2], -1.0)], Relation::Equal, 0.0);
    assert!(lift(&relaxed, &basis, &equality).is_none());
    // A bound that is not a raised lower bound changes the columns: an upper
    // bound adds a bound row, and equal bounds fix the variable away.
    for (lower, upper) in [(0.0, 0.5), (0.1, 0.1)] {
        let mut rebounded = relaxed.clone();
        rebounded.set_bounds(vars[2], lower, upper);
        assert!(lift(&relaxed, &basis, &rebounded).is_none());
    }
}

#[test]
fn lifted_basis_warm_starts_a_program_with_raised_lower_bounds() {
    let (relaxed, vars) = ratio_lp(10, 0.8);
    let mut lp = relaxed.clone();
    lp.set_bounds(vars[9], 0.05, f64::INFINITY);
    lp.add_constraint(vec![(vars[0], 1.0), (vars[1], -1.0)], Relation::LessEq, 0.0);
    for form in [LpForm::Primal, LpForm::Dual] {
        let options = SolveOptions::default().with_form(form);
        let basis = relaxed.solve_with(&options).unwrap().optimal_basis.unwrap();
        let lifted = lift(&relaxed, &basis, &lp).expect("a raised lower bound lifts");
        let cold = lp.solve_with(&options).unwrap();
        let warm = lp
            .solve_with(&options.clone().with_warm_basis(Some(lifted)))
            .unwrap();
        assert!(warm.stats.warm_started, "{form}: {:?}", warm.stats);
        assert_close(warm.objective_value, cold.objective_value);
        assert!(warm.value(vars[9]) >= 0.05 - 1e-9);
    }
}

#[test]
fn malformed_seeds_fall_back_instead_of_erroring() {
    let (lp, _) = ratio_lp(8, 0.7);
    let cold = lp.solve().unwrap();
    let good = cold.optimal_basis.clone().unwrap();

    // Wrong length, duplicate entries, out-of-range column: all must solve
    // cold, none may error or take the warm path.
    let mut duplicated = good.clone();
    duplicated[1] = duplicated[0];
    let mut out_of_range = good.clone();
    out_of_range[0] = usize::MAX;
    for bad in [vec![0usize; 3], duplicated, out_of_range, Vec::new()] {
        let solution = lp.solve_with(&warm_options(bad)).unwrap();
        assert!(!solution.stats.warm_started);
        assert_close(solution.objective_value, cold.objective_value);
    }
}

#[test]
fn singular_seed_falls_back() {
    // A structurally valid (distinct, in-range) basis can still be singular:
    // two surplus columns of rows that became linearly dependent... simplest
    // robust construction: pick structural columns that cannot span the rows.
    let mut lp = LinearProgram::minimize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.set_objective_coefficient(x, 1.0);
    lp.set_objective_coefficient(y, 2.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 10.0);
    lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::LessEq, 30.0);
    // Columns: x = 0, y = 1, slack of row 1 = 2.  {x, y} is singular on these
    // two rows once the slack is excluded?  No — [[1,1],[2,2]] is singular.
    let solution = lp.solve_with(&warm_options(vec![0, 1])).unwrap();
    assert!(!solution.stats.warm_started, "singular seed must fall back");
    assert_close(solution.objective_value, 10.0);
}

#[test]
fn warm_basis_round_trips_through_solve_options_serde() {
    let options = SolveOptions {
        warm_basis: Some(vec![3, 1, 4, 1 + 4]),
        ..SolveOptions::default()
    };
    let text = serde_json::to_string(&options).unwrap();
    let back: SolveOptions = serde_json::from_str(&text).unwrap();
    assert_eq!(back, options);

    // Options serialised before the warm-basis field existed still load.
    let legacy = serde_json::to_string(&SolveOptions::default()).unwrap();
    let legacy = legacy.replace(",\"warm_basis\":null", "");
    assert!(!legacy.contains("warm_basis"));
    let back: SolveOptions = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back, SolveOptions::default());
}

/// `ratio_lp` with every variable boxed in `[0.02, 0.15]`: the optimum puts
/// the cheap head of the chain on its upper bound.  Each two-sided bound
/// standardises as a `z ≤ upper − lower` row.
fn boxed_ratio_lp(n: usize, alpha: f64) -> (LinearProgram, Vec<VariableId>) {
    let (mut lp, vars) = ratio_lp(n, alpha);
    for &v in &vars {
        lp.set_bounds(v, 0.02, 0.15);
    }
    (lp, vars)
}

#[test]
fn boxed_program_resolves_from_its_own_optimal_basis_warm_and_pivot_free() {
    let (lp, vars) = boxed_ratio_lp(12, 0.8);
    for form in [LpForm::Primal, LpForm::Dual] {
        let options = SolveOptions::default().with_form(form);
        let cold = lp.solve_with(&options).unwrap();
        assert!(
            vars.iter().any(|&v| (cold.value(v) - 0.15).abs() < 1e-9),
            "{form}: some upper bound must be tight"
        );
        let basis = cold
            .optimal_basis
            .clone()
            .expect("a clean solve reports its basis");
        let warm = lp
            .solve_with(&options.clone().with_warm_basis(Some(basis)))
            .unwrap();
        assert!(warm.stats.warm_started, "{form}: {:?}", warm.stats);
        assert_eq!(warm.stats.form, form);
        if form == LpForm::Primal {
            assert_eq!(warm.stats.pivots(), 0, "{:?}", warm.stats);
        }
        assert_close(warm.objective_value, cold.objective_value);
        for (w, c) in warm.values.iter().zip(cold.values.iter()) {
            assert_close(*w, *c);
        }
    }
}

#[test]
fn crash_and_lift_accept_two_sided_bounds() {
    let (relaxed, vars) = boxed_ratio_lp(10, 0.8);
    let options = SolveOptions::default();
    let optimum = relaxed.solve_with(&options).unwrap();

    // A crash basis at the optimum is accepted and certifies it.
    let crash = crash(&relaxed, &optimum.values).expect("boxed programs crash");
    let crashed = relaxed
        .solve_with(&options.clone().with_warm_basis(Some(crash)))
        .unwrap();
    assert!(crashed.stats.warm_started, "{:?}", crashed.stats);
    assert_close(crashed.objective_value, optimum.objective_value);

    // The relaxation's basis lifts to the program with appended rows.
    let mut lp = relaxed.clone();
    lp.add_constraint(vec![(vars[0], 1.0), (vars[1], -1.0)], Relation::LessEq, 0.0);
    lp.add_constraint(vec![(vars[9], 1.0)], Relation::GreaterEq, 0.05);
    for form in [LpForm::Primal, LpForm::Dual] {
        let options = SolveOptions::default().with_form(form);
        let basis = relaxed.solve_with(&options).unwrap().optimal_basis.unwrap();
        let lifted = lift(&relaxed, &basis, &lp).expect("two-sided bounds lift");
        let cold = lp.solve_with(&options).unwrap();
        let warm = lp
            .solve_with(&options.clone().with_warm_basis(Some(lifted)))
            .unwrap();
        assert!(warm.stats.warm_started, "{form}: {:?}", warm.stats);
        assert_close(warm.objective_value, cold.objective_value);
    }
}

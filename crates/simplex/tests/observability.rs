//! Flight-recorder integration: an injected terminal solver breakdown must
//! fail the solve *and* dump the flight recorder.
//!
//! `CPM_OBS_INJECT_BREAKDOWN` poisons every `StandardForm::solve_with` call in the
//! process, so this lives in its own integration-test binary (one process per
//! test file) and runs as a single `#[test]` — the other simplex test binaries
//! never see the variable.

use cpm_simplex::{LinearProgram, Relation, SimplexError, SolveStatus};

fn small_feasible_lp() -> LinearProgram {
    let mut lp = LinearProgram::minimize();
    let x1 = lp.add_variable("x1");
    let x2 = lp.add_variable("x2");
    lp.set_objective_coefficient(x1, 0.6);
    lp.set_objective_coefficient(x2, 0.35);
    lp.add_constraint(vec![(x1, 5.0), (x2, 7.0)], Relation::GreaterEq, 8.0);
    lp.add_constraint(vec![(x1, 4.0), (x2, 2.0)], Relation::GreaterEq, 15.0);
    lp
}

#[test]
fn injected_breakdown_dumps_flight_recorder() {
    let lp = small_feasible_lp();

    // Sanity: the program solves cleanly before injection, and the solve
    // leaves spans in the flight recorder for the dump to replay.
    let solution = lp.solve().expect("uninjected solve succeeds");
    assert_eq!(solution.status, SolveStatus::Optimal);
    assert!(
        !cpm_obs::flight::recent().is_empty(),
        "solve should leave spans in the flight recorder"
    );

    let dumps_before = cpm_obs::registry().counter("cpm_flight_dumps_total").get();
    let breakdowns_before = cpm_obs::registry().counter("cpm_lp_breakdowns_total").get();

    std::env::set_var("CPM_OBS_INJECT_BREAKDOWN", "1");
    let err = lp.solve().expect_err("injected solve must fail");
    std::env::set_var("CPM_OBS_INJECT_BREAKDOWN", "0");

    assert!(
        matches!(err, SimplexError::NumericalBreakdown { .. }),
        "expected NumericalBreakdown, got {err:?}"
    );
    let dumps_after = cpm_obs::registry().counter("cpm_flight_dumps_total").get();
    let breakdowns_after = cpm_obs::registry().counter("cpm_lp_breakdowns_total").get();
    assert_eq!(
        dumps_after,
        dumps_before + 1,
        "terminal breakdown must dump the flight recorder exactly once"
    );
    assert_eq!(breakdowns_after, breakdowns_before + 1);

    // The dump drains into any writer; replaying it here shows the recorder
    // retained the pre-breakdown solve spans.
    let mut replay = Vec::new();
    let replayed = cpm_obs::flight::dump_to(&mut replay, "test replay");
    assert!(replayed > 0, "recorder should still hold records");
    let text = String::from_utf8(replay).expect("dump is valid UTF-8");
    assert!(
        text.contains("simplex"),
        "dump should mention the simplex target:\n{text}"
    );

    // Injection off again: the same program solves.
    lp.solve().expect("solve succeeds after clearing injection");
}

//! The direct dual builder against its model route on real design programs:
//! for every LP key the socket benchmark serves with n ≤ 48 (the
//! `lp_golden` keys), the program the design layer solves and its BASICDP
//! relaxation are dualized both ways — straight from the primal standard
//! form, and through a named `LinearProgram` that is then standardised —
//! and the two dual standard forms must agree bit for bit: matrix, rhs,
//! costs, basis hints, variable mapping, structural count and the
//! `y`-column rows.

use cpm_core::prelude::*;
use cpm_core::properties::PropertySet;
use cpm_core::selection::select_mechanism;
use cpm_simplex::dual_reference::check_dual_of;

fn a(v: f64) -> Alpha {
    Alpha::new(v).unwrap()
}

/// The program `SpecKey::spec().design()` solves for `(n, α, properties,
/// objective)`: under `L0` the Figure-5 choice's property set, otherwise
/// the requested closure.
fn design_problem(
    n: usize,
    alpha: f64,
    properties: &str,
    objective: ObjectiveKey,
) -> DesignProblem {
    let requested: PropertySet = properties.parse().expect("property names are valid");
    let properties = match objective {
        ObjectiveKey::L0 => match select_mechanism(requested, n, a(alpha)) {
            MechanismChoice::WeakHonestLp => "WH+RM+S".parse().unwrap(),
            MechanismChoice::WeakHonestColumnMonotoneLp => "WH+RM+CM+S".parse().unwrap(),
            choice => panic!("({n}, {alpha}, {requested}) is a closed form: {choice:?}"),
        },
        _ => requested.closure(),
    };
    DesignProblem::constrained(n, a(alpha), objective.to_objective(), properties)
}

/// The `lp_golden` keys with n ≤ 48: the WH and CM probe keys, the two
/// n = 32 WM collect keys and the n = 48 WM storm sweep.
fn golden_keys() -> Vec<(usize, f64, &'static str, ObjectiveKey)> {
    let mut keys = vec![
        (16, 0.9, "WH", ObjectiveKey::L0),
        (24, 0.9, "CM", ObjectiveKey::L0),
        (16, 0.9, "CM", ObjectiveKey::L0),
        (12, 0.9, "WH", ObjectiveKey::L0),
        (32, 0.9, "CM", ObjectiveKey::L0),
        (8, 0.9, "WH", ObjectiveKey::L0),
        (12, 0.9, "CM", ObjectiveKey::L0),
        (32, 0.9, "WH+CM", ObjectiveKey::L0),
        (32, 0.9, "WH+CM", ObjectiveKey::L2),
    ];
    keys.extend((0..8).map(|i| (48, 0.880 + 0.005 * i as f64, "WH+CM", ObjectiveKey::L0)));
    keys
}

#[test]
fn direct_dual_matches_the_model_route_on_the_golden_design_programs() {
    let keys = golden_keys();
    assert_eq!(keys.len(), 17);
    for (n, alpha, properties, objective) in keys {
        let problem = design_problem(n, alpha, properties, objective);
        let relaxation = DesignProblem::unconstrained(n, a(alpha), problem.objective.clone());
        for (label, program) in [("design", &problem), ("relaxation", &relaxation)] {
            let (lp, _) = program.build_lp().expect("golden programs build");
            if let Err(difference) = check_dual_of(&lp) {
                panic!("({n}, {alpha}, {properties}, {objective:?}) {label}: {difference}");
            }
        }
    }
}

//! The mechanism-selection flowchart of Figure 5 and the named-mechanism summary of
//! Figure 6 (Section IV-D).
//!
//! Although there are `2^7 = 128` possible property combinations, at most four
//! distinct behaviours arise under the `L0` objective:
//!
//! 1. **EM** whenever fairness is requested (it satisfies everything else for free).
//! 2. **GM** when only row-side properties and symmetry are requested — and also
//!    whenever weak honesty is requested but `n ≥ 2α/(1−α)` (Lemma 2) or a column
//!    property is requested with `α ≤ 1/2` (Lemma 3), because GM then already
//!    satisfies them at the unconstrained-optimal cost.
//! 3. The **WH LP** (weak honesty alone) otherwise, when no column property is needed.
//! 4. The **WH + CM LP** (the paper's WM) when a column property is needed.
//!
//! [`select_mechanism`] reproduces this decision procedure.  Building the chosen
//! mechanism is the job of the typed design path —
//! [`crate::design::MechanismSpec::design`] — which selects here and realises
//! the choice (solving an LP when required).
//!
//! The two LP choices solve their property sets (`{WH, RM, S}` and
//! `{WH, RM, CM, S}`) over reflection orbits (Theorem 1, see
//! [`crate::lp::formulation`]): the prior is uniform, so the LP's optimum is
//! symmetric by construction and needs no symmetrisation afterwards, and with
//! no S equality rows left the solve is seeded from its BASICDP relaxation.

use serde::{Deserialize, Serialize};

use cpm_simplex::SolveStats;

use crate::alpha::Alpha;
use crate::closed_form;
use crate::error::CoreError;
use crate::matrix::Mechanism;
use crate::mechanisms::{ExplicitFairMechanism, GeometricMechanism, UniformMechanism};
use crate::objective::Objective;
use crate::properties::{Property, PropertySet};

/// The distinct mechanism choices of Figure 5 / Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MechanismChoice {
    /// The truncated Geometric Mechanism (unconstrained optimum, Theorem 3).
    Geometric,
    /// The Explicit Fair Mechanism (Theorem 4).
    ExplicitFair,
    /// The LP-optimal mechanism with weak honesty (plus the free row properties).
    WeakHonestLp,
    /// The LP-optimal mechanism with weak honesty and column monotonicity — the
    /// paper's WM.
    WeakHonestColumnMonotoneLp,
    /// The trivial uniform baseline (never selected by the flowchart; provided for
    /// completeness of Figure 6).
    Uniform,
}

impl MechanismChoice {
    /// Short display name as used in the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            MechanismChoice::Geometric => "GM",
            MechanismChoice::ExplicitFair => "EM",
            MechanismChoice::WeakHonestLp => "WH-LP",
            MechanismChoice::WeakHonestColumnMonotoneLp => "WM",
            MechanismChoice::Uniform => "UM",
        }
    }
}

/// Figure 5: choose the mechanism that optimally satisfies `requested` under the
/// `L0` objective at group size `n` and privacy level α.
pub fn select_mechanism(requested: PropertySet, n: usize, alpha: Alpha) -> MechanismChoice {
    let closed = requested.closure();

    // Fairness (with anything else) → the Explicit Fair Mechanism.
    if closed.contains(Property::Fairness) {
        return MechanismChoice::ExplicitFair;
    }

    let wants_column_property =
        closed.contains(Property::ColumnHonesty) || closed.contains(Property::ColumnMonotonicity);
    let wants_weak_honesty = closed.contains(Property::WeakHonesty);

    // In the weak-privacy regime alpha <= 1/2, GM already satisfies the column
    // properties (Lemma 3) and hence weak honesty, so GM covers every request that
    // does not include fairness.
    if alpha.value() <= 0.5 {
        return MechanismChoice::Geometric;
    }

    if wants_column_property {
        return MechanismChoice::WeakHonestColumnMonotoneLp;
    }

    if wants_weak_honesty {
        // Lemma 2: for n >= 2 alpha / (1 - alpha), GM is already weakly honest.
        if closed_form::gm_satisfies_weak_honesty(n, alpha) {
            return MechanismChoice::Geometric;
        }
        return MechanismChoice::WeakHonestLp;
    }

    // Only row-side properties and/or symmetry: GM has them all at optimal cost.
    MechanismChoice::Geometric
}

/// Materialise one [`MechanismChoice`]: closed forms for GM/EM/UM, the
/// LP optimum (symmetric by construction) for the two LP-defined choices.
///
/// Each LP solves with its own size-scaled
/// [`crate::lp::DesignProblem::recommended_options`].  This is the single
/// realisation routine behind [`crate::design::MechanismSpec::design`].  The
/// second return slot holds the LP statistics when the simplex ran.
pub(crate) fn realize_choice(
    choice: MechanismChoice,
    n: usize,
    alpha: Alpha,
) -> Result<(Mechanism, Option<SolveStats>), CoreError> {
    let solve_lp = |properties: PropertySet| {
        let solution =
            crate::lp::DesignProblem::constrained(n, alpha, Objective::l0(), properties).solve()?;
        Ok((solution.mechanism, Some(solution.solver_stats)))
    };
    match choice {
        MechanismChoice::Geometric => Ok((GeometricMechanism::new(n, alpha)?.into_matrix(), None)),
        MechanismChoice::ExplicitFair => {
            Ok((ExplicitFairMechanism::new(n, alpha)?.into_matrix(), None))
        }
        MechanismChoice::Uniform => Ok((UniformMechanism::new(n)?.into_matrix(), None)),
        MechanismChoice::WeakHonestLp => solve_lp(
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::RowMonotonicity)
                .with(Property::Symmetry),
        ),
        MechanismChoice::WeakHonestColumnMonotoneLp => solve_lp(
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::RowMonotonicity)
                .with(Property::ColumnMonotonicity)
                .with(Property::Symmetry),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::MechanismSpec;
    use crate::lp::formulation::optimal_constrained;
    use crate::objective::rescaled_l0;

    fn a(v: f64) -> Alpha {
        Alpha::new(v).unwrap()
    }

    fn set(props: &[Property]) -> PropertySet {
        props.iter().copied().collect()
    }

    fn design(requested: PropertySet, n: usize, alpha: Alpha) -> (MechanismChoice, Mechanism) {
        let designed = MechanismSpec::new(n, alpha)
            .properties(requested)
            .build()
            .unwrap()
            .design()
            .unwrap();
        let choice = designed.choice().expect("L0 designs carry a choice");
        (choice, designed.into_mechanism())
    }

    #[test]
    fn fairness_always_selects_em() {
        for extra in [
            vec![Property::Fairness],
            vec![Property::Fairness, Property::ColumnMonotonicity],
            vec![
                Property::Fairness,
                Property::Symmetry,
                Property::WeakHonesty,
            ],
        ] {
            assert_eq!(
                select_mechanism(set(&extra), 8, a(0.9)),
                MechanismChoice::ExplicitFair
            );
        }
    }

    #[test]
    fn row_only_requests_select_gm() {
        for props in [
            vec![],
            vec![Property::Symmetry],
            vec![Property::RowHonesty],
            vec![Property::RowMonotonicity, Property::Symmetry],
        ] {
            assert_eq!(
                select_mechanism(set(&props), 8, a(0.9)),
                MechanismChoice::Geometric
            );
        }
    }

    #[test]
    fn weak_privacy_always_selects_gm_unless_fair() {
        // alpha <= 1/2: GM subsumes WM (Lemma 3), so only EM and GM remain.
        assert_eq!(
            select_mechanism(set(&[Property::ColumnMonotonicity]), 5, a(0.5)),
            MechanismChoice::Geometric
        );
        assert_eq!(
            select_mechanism(set(&[Property::WeakHonesty]), 2, a(0.4)),
            MechanismChoice::Geometric
        );
        assert_eq!(
            select_mechanism(set(&[Property::Fairness]), 5, a(0.5)),
            MechanismChoice::ExplicitFair
        );
    }

    #[test]
    fn weak_honesty_selects_gm_above_the_lemma_2_threshold() {
        // alpha = 2/3 -> threshold 4.
        let alpha = a(2.0 / 3.0);
        assert_eq!(
            select_mechanism(set(&[Property::WeakHonesty]), 5, alpha),
            MechanismChoice::Geometric
        );
        assert_eq!(
            select_mechanism(set(&[Property::WeakHonesty]), 3, alpha),
            MechanismChoice::WeakHonestLp
        );
    }

    #[test]
    fn column_requests_select_wm_in_the_strong_privacy_regime() {
        assert_eq!(
            select_mechanism(set(&[Property::ColumnHonesty]), 8, a(0.9)),
            MechanismChoice::WeakHonestColumnMonotoneLp
        );
        assert_eq!(
            select_mechanism(
                set(&[Property::ColumnMonotonicity, Property::RowHonesty]),
                8,
                a(0.9)
            ),
            MechanismChoice::WeakHonestColumnMonotoneLp
        );
    }

    #[test]
    fn realized_mechanisms_satisfy_what_was_requested() {
        let cases: Vec<(Vec<Property>, usize, f64)> = vec![
            (vec![Property::Fairness], 4, 0.9),
            (vec![Property::WeakHonesty], 3, 0.9),
            (vec![Property::ColumnMonotonicity], 4, 0.9),
            (vec![Property::RowMonotonicity], 5, 0.62),
            (vec![], 5, 0.62),
        ];
        for (props, n, alpha) in cases {
            let requested = set(&props);
            let (choice, mechanism) = design(requested, n, a(alpha));
            assert!(
                requested.all_hold(&mechanism, 1e-6),
                "{requested} not satisfied by {}",
                choice.short_name()
            );
            assert!(mechanism.satisfies_dp(a(alpha), 1e-6));
        }
    }

    #[test]
    fn the_flowchart_never_loses_utility() {
        // Whatever Figure 5 picks must be at least as good (in L0) as solving the LP
        // with the requested properties directly.
        let alpha = a(0.9);
        let n = 4;
        for props in [
            set(&[Property::WeakHonesty]),
            set(&[Property::ColumnHonesty]),
            set(&[Property::RowMonotonicity]),
        ] {
            let (_, shortcut) = design(props, n, alpha);
            let direct = optimal_constrained(n, alpha, Objective::l0(), props).unwrap();
            assert!(
                rescaled_l0(&shortcut) <= rescaled_l0(&direct.mechanism) + 1e-6,
                "{props}"
            );
        }
    }

    #[test]
    fn realize_choice_reports_lp_statistics_only_for_lp_choices() {
        let alpha = a(0.9);
        let (gm, stats) = realize_choice(MechanismChoice::Geometric, 6, alpha).unwrap();
        assert!(stats.is_none(), "GM is closed-form, no LP solve");
        assert!(gm.satisfies_dp(alpha, 1e-9));

        let (wm, stats) =
            realize_choice(MechanismChoice::WeakHonestColumnMonotoneLp, 4, alpha).unwrap();
        let stats = stats.expect("WM requires an LP solve");
        assert!(stats.pivots() > 0);
        assert!(wm.satisfies_dp(alpha, 1e-6));
    }

    #[test]
    fn short_names_match_the_paper() {
        assert_eq!(MechanismChoice::Geometric.short_name(), "GM");
        assert_eq!(MechanismChoice::ExplicitFair.short_name(), "EM");
        assert_eq!(
            MechanismChoice::WeakHonestColumnMonotoneLp.short_name(),
            "WM"
        );
        assert_eq!(MechanismChoice::Uniform.short_name(), "UM");
    }
}

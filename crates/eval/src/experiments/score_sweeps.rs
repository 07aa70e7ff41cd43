//! Analytic / LP score sweeps: Figures 6, 8 and 9.
//!
//! These experiments need no sampling: they evaluate the rescaled `L0` score of the
//! named mechanisms (closed forms for GM / EM / UM, the LP for WM and other property
//! combinations) across group sizes, privacy levels, and property combinations.

use serde::{Deserialize, Serialize};

use cpm_core::prelude::*;

use crate::runner::{l0_score, NamedMechanism};

// ---------------------------------------------------------------------------
// Figure 6: the named-mechanism summary table.
// ---------------------------------------------------------------------------

/// One row of the Figure 6 table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedMechanismRow {
    /// Mechanism label (GM / WM / EM / UM).
    pub mechanism: String,
    /// Whether each of the seven properties holds for this instance, keyed by the
    /// paper's short property names.
    pub properties: Vec<(String, bool)>,
    /// The rescaled `L0` score.
    pub l0: f64,
}

/// The Figure 6 table for a concrete `(n, α)` instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedMechanismTable {
    /// Group size used to instantiate the mechanisms.
    pub n: usize,
    /// Privacy parameter.
    pub alpha: f64,
    /// One row per named mechanism.
    pub rows: Vec<NamedMechanismRow>,
}

/// Build the Figure 6 table (property satisfaction and `L0`) for `(n, α)`.
pub fn named_mechanism_table(n: usize, alpha: Alpha) -> Result<NamedMechanismTable, CoreError> {
    let mut rows = Vec::new();
    for which in NamedMechanism::PAPER_SET {
        let matrix = crate::runner::build_mechanism(which, n, alpha)?;
        let report = PropertyReport::evaluate(&matrix, 1e-6);
        rows.push(NamedMechanismRow {
            mechanism: which.label().to_string(),
            properties: report.satisfied,
            l0: rescaled_l0(&matrix),
        });
    }
    Ok(NamedMechanismTable {
        n,
        alpha: alpha.value(),
        rows,
    })
}

// ---------------------------------------------------------------------------
// Figure 8: combinations of properties with weak honesty.
// ---------------------------------------------------------------------------

/// The nine meaningful property combinations on top of weak honesty studied in
/// Section V-A: ∅, RH, RM, CH, CM, RH+CH, RH+CM, RM+CH, RM+CM.
pub fn weak_honesty_combinations() -> Vec<(String, PropertySet)> {
    use Property::*;
    let base = PropertySet::empty().with(WeakHonesty);
    vec![
        ("WH".to_string(), base),
        ("WH+RH".to_string(), base.with(RowHonesty)),
        ("WH+RM".to_string(), base.with(RowMonotonicity)),
        ("WH+CH".to_string(), base.with(ColumnHonesty)),
        ("WH+CM".to_string(), base.with(ColumnMonotonicity)),
        (
            "WH+RH+CH".to_string(),
            base.with(RowHonesty).with(ColumnHonesty),
        ),
        (
            "WH+RH+CM".to_string(),
            base.with(RowHonesty).with(ColumnMonotonicity),
        ),
        (
            "WH+RM+CH".to_string(),
            base.with(RowMonotonicity).with(ColumnHonesty),
        ),
        (
            "WH+RM+CM".to_string(),
            base.with(RowMonotonicity).with(ColumnMonotonicity),
        ),
    ]
}

/// One point of the Figure 8 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationPoint {
    /// The swept parameter value (group size for 8a, α for 8b).
    pub x: f64,
    /// `(combination label, optimal L0)` for each property combination.
    pub scores: Vec<(String, f64)>,
}

/// Data behind Figure 8(a) or 8(b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationSweep {
    /// Which parameter is on the x axis: `"n"` or `"alpha"`.
    pub swept: String,
    /// The fixed parameter (α for 8a, n for 8b).
    pub fixed: f64,
    /// The sweep points.
    pub points: Vec<CombinationPoint>,
}

/// Figure 8(a): the optimal `L0` of each weak-honesty combination as a function of
/// the group size, at fixed α (the paper uses α = 0.76, whose Lemma-2 threshold is
/// `2α/(1−α) ≈ 6.33`).
pub fn combinations_vs_group_size(
    alpha: Alpha,
    group_sizes: &[usize],
) -> Result<CombinationSweep, CoreError> {
    // One task per sweep point; each task solves its nine property-set LPs.
    let points = crate::par::try_parallel_map(group_sizes.to_vec(), |n| {
        let scores = weak_honesty_combinations()
            .into_iter()
            .map(|(label, properties)| {
                let solution = optimal_constrained(n, alpha, Objective::l0(), properties)?;
                Ok((label, rescaled_l0(&solution.mechanism)))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok::<_, CoreError>(CombinationPoint {
            x: n as f64,
            scores,
        })
    })?;
    Ok(CombinationSweep {
        swept: "n".to_string(),
        fixed: alpha.value(),
        points,
    })
}

/// Figure 8(b): the same combinations as a function of α at fixed group size.
pub fn combinations_vs_alpha(n: usize, alphas: &[Alpha]) -> Result<CombinationSweep, CoreError> {
    // One task per sweep point; each task solves its nine property-set LPs.
    let points = crate::par::try_parallel_map(alphas.to_vec(), |alpha| {
        let scores = weak_honesty_combinations()
            .into_iter()
            .map(|(label, properties)| {
                let solution = optimal_constrained(n, alpha, Objective::l0(), properties)?;
                Ok((label, rescaled_l0(&solution.mechanism)))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok::<_, CoreError>(CombinationPoint {
            x: alpha.value(),
            scores,
        })
    })?;
    Ok(CombinationSweep {
        swept: "alpha".to_string(),
        fixed: n as f64,
        points,
    })
}

// ---------------------------------------------------------------------------
// Figure 9: L0 of the four named mechanisms across group sizes.
// ---------------------------------------------------------------------------

/// One point of a Figure 9 panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScorePoint {
    /// Group size.
    pub n: usize,
    /// `(mechanism label, rescaled L0)`.
    pub scores: Vec<(String, f64)>,
}

/// One panel of Figure 9 (a fixed α, L0 versus group size).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreSweep {
    /// Privacy parameter of the panel.
    pub alpha: f64,
    /// The Lemma-2 threshold `2α/(1−α)` at which WM converges onto GM.
    pub convergence_threshold: f64,
    /// The sweep points.
    pub points: Vec<ScorePoint>,
}

/// The α values of Figure 9's three panels: 2/3, 10/11, 99/100.
pub fn figure9_alphas() -> Vec<Alpha> {
    vec![
        Alpha::new(2.0 / 3.0).unwrap(),
        Alpha::new(10.0 / 11.0).unwrap(),
        Alpha::new(0.99).unwrap(),
    ]
}

/// The optimal `L0` of the mechanism constrained by weak honesty *alone* (plus the
/// free symmetry / row properties).  This is the curve the paper's Figure 9 text
/// describes as "WM converging on GM at n = 2α/(1−α)": once GM itself satisfies weak
/// honesty (Lemma 2) it is feasible for this LP and, being the unconstrained optimum,
/// also optimal — so the closed form is used without solving anything.
pub fn weak_honesty_only_l0(n: usize, alpha: Alpha) -> Result<f64, CoreError> {
    if closed_form::gm_satisfies_weak_honesty(n, alpha) {
        return Ok(closed_form::gm_l0(alpha));
    }
    let solution = optimal_constrained(
        n,
        alpha,
        Objective::l0(),
        PropertySet::empty().with(Property::WeakHonesty),
    )?;
    Ok(rescaled_l0(&solution.mechanism))
}

/// Compute one Figure 9 panel over the given group sizes.
///
/// The series are GM, the weak-honesty-only optimum ("WH", the curve whose
/// convergence onto GM the paper describes), WM (= WH + RM + CM, the mechanism used
/// in the paper's empirical comparisons — slightly above GM for α > 1/2 because GM is
/// not column monotone there, Lemma 3), EM, and UM.
pub fn l0_versus_group_size(alpha: Alpha, group_sizes: &[usize]) -> Result<ScoreSweep, CoreError> {
    // Each point needs two LP solves (WH and WM); fan the points out.
    let points = crate::par::try_parallel_map(group_sizes.to_vec(), |n| {
        let scores = vec![
            (
                "GM".to_string(),
                l0_score(NamedMechanism::Geometric, n, alpha)?,
            ),
            ("WH".to_string(), weak_honesty_only_l0(n, alpha)?),
            (
                "WM".to_string(),
                l0_score(NamedMechanism::WeakHonest, n, alpha)?,
            ),
            (
                "EM".to_string(),
                l0_score(NamedMechanism::ExplicitFair, n, alpha)?,
            ),
            (
                "UM".to_string(),
                l0_score(NamedMechanism::Uniform, n, alpha)?,
            ),
        ];
        Ok::<_, CoreError>(ScorePoint { n, scores })
    })?;
    Ok(ScoreSweep {
        alpha: alpha.value(),
        convergence_threshold: alpha.weak_honesty_threshold(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: f64) -> Alpha {
        Alpha::new(v).unwrap()
    }

    fn score_of(point: &CombinationPoint, label: &str) -> f64 {
        point
            .scores
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| *s)
            .unwrap()
    }

    #[test]
    fn figure6_table_matches_the_paper_claims() {
        let table = named_mechanism_table(4, a(0.9)).unwrap();
        let row = |label: &str| table.rows.iter().find(|r| r.mechanism == label).unwrap();
        let holds = |row: &NamedMechanismRow, p: &str| {
            row.properties
                .iter()
                .find(|(name, _)| name == p)
                .map(|(_, ok)| *ok)
                .unwrap()
        };
        // Figure 6: all four are symmetric and row monotone; EM and UM are fair and
        // column monotone; GM is not fair (and at alpha=0.9 not column monotone).
        for label in ["GM", "WM", "EM", "UM"] {
            assert!(holds(row(label), "S"), "{label} symmetric");
            assert!(holds(row(label), "RM"), "{label} row monotone");
        }
        assert!(!holds(row("GM"), "F"));
        assert!(!holds(row("GM"), "CM"));
        assert!(holds(row("EM"), "F"));
        assert!(holds(row("EM"), "CM"));
        assert!(holds(row("UM"), "F"));
        assert!(!holds(row("WM"), "F"));
        assert!(holds(row("WM"), "WH"));
        // L0 ordering GM <= WM <= EM <= UM = 1.
        assert!(row("GM").l0 <= row("WM").l0 + 1e-6);
        assert!(row("WM").l0 <= row("EM").l0 + 1e-6);
        assert!(row("EM").l0 <= row("UM").l0 + 1e-6);
        assert!((row("UM").l0 - 1.0).abs() < 1e-9);
        assert!((row("GM").l0 - closed_form::gm_l0(a(0.9))).abs() < 1e-9);
    }

    #[test]
    fn figure8_combinations_collapse_to_two_behaviours() {
        // Section V-A: with alpha = 0.76 and n above the threshold 6.33, the row-only
        // combinations cost 2 alpha/(1+alpha) (= GM), while the column combinations
        // cost more (they equal WM/EM's cost); so there are exactly two distinct
        // levels among the nine combinations.
        let alpha = a(0.76);
        let sweep = combinations_vs_group_size(alpha, &[8]).unwrap();
        let point = &sweep.points[0];
        let gm_cost = closed_form::gm_l0(alpha);
        for label in ["WH", "WH+RH", "WH+RM"] {
            assert!(
                (score_of(point, label) - gm_cost).abs() < 1e-5,
                "{label}: {} vs {gm_cost}",
                score_of(point, label)
            );
        }
        let column_cost = score_of(point, "WH+CM");
        assert!(column_cost > gm_cost + 1e-6);
        for label in ["WH+CH", "WH+RH+CH", "WH+RM+CM", "WH+RH+CM", "WH+RM+CH"] {
            assert!(
                (score_of(point, label) - column_cost).abs() < 1e-5,
                "{label}: {} vs {column_cost}",
                score_of(point, label)
            );
        }
    }

    #[test]
    fn figure8_below_threshold_wh_costs_more_than_gm() {
        // For n below the Lemma-2 threshold, plain WH is strictly more expensive than
        // the unconstrained GM cost.
        let alpha = a(0.76);
        let sweep = combinations_vs_group_size(alpha, &[3]).unwrap();
        let wh = score_of(&sweep.points[0], "WH");
        assert!(wh > closed_form::gm_l0(alpha) + 1e-6);
    }

    #[test]
    fn figure8b_alpha_sweep_matches_independent_solves() {
        // The per-α fan-out must return each point's own scores, in α order.
        let alphas = [a(0.6), a(0.76), a(0.9)];
        let sweep = combinations_vs_alpha(5, &alphas).unwrap();
        assert_eq!(sweep.points.len(), alphas.len());
        for (point, &alpha) in sweep.points.iter().zip(&alphas) {
            for (label, properties) in weak_honesty_combinations() {
                let cold = optimal_constrained(5, alpha, Objective::l0(), properties).unwrap();
                assert!(
                    (score_of(point, &label) - rescaled_l0(&cold.mechanism)).abs() < 1e-6,
                    "alpha={} {label}: sweep {} vs cold {}",
                    alpha.value(),
                    score_of(point, &label),
                    rescaled_l0(&cold.mechanism)
                );
            }
        }
    }

    #[test]
    fn figure9_weak_honesty_curve_converges_onto_gm_at_the_threshold() {
        // alpha = 2/3: threshold 4.  Above it the weak-honesty-only score equals GM's
        // (the convergence the paper describes); below it it is strictly worse.  The
        // full WM (with column monotonicity) stays sandwiched between the WH curve and
        // EM for every n, because GM is not column monotone at alpha > 1/2 (Lemma 3).
        let alpha = a(2.0 / 3.0);
        let sweep = l0_versus_group_size(alpha, &[2, 3, 4, 6, 8]).unwrap();
        assert!((sweep.convergence_threshold - 4.0).abs() < 1e-9);
        for point in &sweep.points {
            let get = |label: &str| {
                point
                    .scores
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, s)| *s)
                    .unwrap()
            };
            let (gm, wh, wm, em, um) = (get("GM"), get("WH"), get("WM"), get("EM"), get("UM"));
            assert!(
                gm <= wh + 1e-6 && wh <= wm + 1e-6 && wm <= em + 1e-6 && em <= um + 1e-6,
                "n={}: {gm} {wh} {wm} {em} {um}",
                point.n
            );
            if point.n >= 4 {
                assert!(
                    (wh - gm).abs() < 1e-6,
                    "n={} should have converged",
                    point.n
                );
            } else {
                assert!(wh > gm + 1e-6, "n={} should not have converged", point.n);
            }
        }
    }

    #[test]
    fn figure9_alphas_match_the_paper() {
        let alphas = figure9_alphas();
        assert_eq!(alphas.len(), 3);
        assert!((alphas[1].weak_honesty_threshold() - 20.0).abs() < 1e-9);
        assert!((alphas[2].weak_honesty_threshold() - 198.0).abs() < 1e-6);
    }
}

//! Objective (loss) functions for mechanism design (Definition 3 and Eq. (1)).
//!
//! The paper evaluates a mechanism `P` with
//!
//! ```text
//! O_{p,⊕}(P) = ⊕_j  w_j Σ_i Pr[i|j] |i − j|^p
//! ```
//!
//! where `⊕` is `Σ` (expected loss under the prior `w`) or `max` (worst case over
//! inputs).  The headline objective of the paper is the rescaled `L0`
//! (Eq. 1): `L0(P) = (n+1)/n − trace(P)/n`, the (rescaled) probability of reporting a
//! wrong answer under a uniform prior, normalised so the trivial uniform mechanism
//! scores exactly 1.  `L0,d` generalises this to the probability of reporting an
//! answer *more than* `d` steps from the truth.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::matrix::Mechanism;

/// The per-cell penalty `|i − j|^p` (or its thresholded variants).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossKind {
    /// `p = 0` with the convention `0^0 = 0`: penalise every wrong answer equally.
    /// This is the paper's `L0`.
    ZeroOne,
    /// Penalise answers strictly more than `d` steps from the truth (the paper's
    /// `L0,d`; `d = 0` coincides with [`LossKind::ZeroOne`]).
    ZeroOneBeyond(usize),
    /// `p = 1`: absolute error (the paper's `L1`).
    Absolute,
    /// `p = 2`: squared error (the paper's `L2`).
    Squared,
}

impl LossKind {
    /// The penalty assigned to reporting `output` when the truth is `input`.
    #[inline]
    pub fn penalty(self, output: usize, input: usize) -> f64 {
        let d = output.abs_diff(input);
        match self {
            LossKind::ZeroOne => {
                if d == 0 {
                    0.0
                } else {
                    1.0
                }
            }
            LossKind::ZeroOneBeyond(threshold) => {
                if d > threshold {
                    1.0
                } else {
                    0.0
                }
            }
            LossKind::Absolute => d as f64,
            LossKind::Squared => (d * d) as f64,
        }
    }

    /// Human-readable name matching the paper (`L0`, `L0,d`, `L1`, `L2`).
    pub fn name(self) -> String {
        match self {
            LossKind::ZeroOne => "L0".to_string(),
            LossKind::ZeroOneBeyond(d) => format!("L0,{d}"),
            LossKind::Absolute => "L1".to_string(),
            LossKind::Squared => "L2".to_string(),
        }
    }
}

/// How per-input losses are aggregated across inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregator {
    /// Expected loss under the prior weights (`⊕ = Σ`).
    Sum,
    /// Worst case over inputs (`⊕ = max`), as in the minimax setting of
    /// Gupte–Sundararajan.
    Max,
}

/// Prior weights over the inputs `0..=n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Prior {
    /// The uniform prior `w_j = 1/(n+1)` used throughout the paper unless stated.
    Uniform,
    /// An explicit prior; must have length `n + 1`, be non-negative, and sum to 1.
    Weights(Vec<f64>),
}

impl Prior {
    /// Whether the weights are invariant under the reflection `j ↦ n − j`
    /// (`w_j = w_{n−j}`, exactly).  With every penalty depending on `|i − j|`
    /// only, this is what lets the design LP solve over reflection orbits
    /// (Theorem 1, [`crate::lp::DesignProblem::build_lp`]).
    pub fn is_reflection_symmetric(&self) -> bool {
        match self {
            Prior::Uniform => true,
            Prior::Weights(w) => w.iter().eq(w.iter().rev()),
        }
    }

    /// Materialise the weights for a group of size `n`.
    pub fn weights(&self, n: usize) -> Result<Vec<f64>, CoreError> {
        match self {
            Prior::Uniform => Ok(vec![1.0 / (n as f64 + 1.0); n + 1]),
            Prior::Weights(w) => {
                if w.len() != n + 1 {
                    return Err(CoreError::InvalidWeights {
                        reason: "prior length must be n + 1",
                    });
                }
                if w.iter().any(|&x| !x.is_finite() || x < 0.0) {
                    return Err(CoreError::InvalidWeights {
                        reason: "prior weights must be finite and non-negative",
                    });
                }
                let total: f64 = w.iter().sum();
                if (total - 1.0).abs() > 1e-6 {
                    return Err(CoreError::InvalidWeights {
                        reason: "prior weights must sum to 1",
                    });
                }
                Ok(w.clone())
            }
        }
    }
}

/// A complete objective: penalty kind, prior, and aggregation operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// The per-cell penalty.
    pub loss: LossKind,
    /// Prior over inputs.
    pub prior: Prior,
    /// Aggregation across inputs.
    pub aggregator: Aggregator,
}

impl Objective {
    /// The paper's default objective: expected `L0` loss under a uniform prior.
    pub fn l0() -> Self {
        Objective {
            loss: LossKind::ZeroOne,
            prior: Prior::Uniform,
            aggregator: Aggregator::Sum,
        }
    }

    /// Expected `L1` (absolute error) under a uniform prior.
    pub fn l1() -> Self {
        Objective {
            loss: LossKind::Absolute,
            prior: Prior::Uniform,
            aggregator: Aggregator::Sum,
        }
    }

    /// Expected `L2` (squared error) under a uniform prior.
    pub fn l2() -> Self {
        Objective {
            loss: LossKind::Squared,
            prior: Prior::Uniform,
            aggregator: Aggregator::Sum,
        }
    }

    /// Expected `L0,d` loss under a uniform prior.
    pub fn l0_beyond(d: usize) -> Self {
        Objective {
            loss: LossKind::ZeroOneBeyond(d),
            prior: Prior::Uniform,
            aggregator: Aggregator::Sum,
        }
    }

    /// Evaluate `O_{p,⊕}` (Definition 3) on a mechanism: the *unrescaled* value.
    pub fn value(&self, mechanism: &Mechanism) -> Result<f64, CoreError> {
        let n = mechanism.group_size();
        let weights = self.prior.weights(n)?;
        let per_input = |j: usize| -> f64 {
            (0..mechanism.dim())
                .map(|i| mechanism.prob(i, j) * self.loss.penalty(i, j))
                .sum()
        };
        let value = match self.aggregator {
            Aggregator::Sum => (0..mechanism.dim())
                .map(|j| weights[j] * per_input(j))
                .sum(),
            Aggregator::Max => (0..mechanism.dim())
                .map(per_input)
                .fold(f64::NEG_INFINITY, f64::max),
        };
        Ok(value)
    }
}

/// The closed, enumerable family of objectives the design path keys on.
///
/// [`Objective`] is deliberately open-ended (arbitrary priors are `Vec<f64>`),
/// which makes it a poor hash key.  The typed design entry point
/// ([`crate::design::MechanismSpec`]) keys the family actually used by the
/// paper's designs — uniform prior, sum-aggregated losses — and converts to a
/// full [`Objective`] on demand.  Designs outside this family (explicit priors,
/// the minimax aggregator) go through [`crate::lp::DesignProblem`] directly.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum ObjectiveKey {
    /// The paper's headline `L0` (probability of any wrong answer).
    #[default]
    L0,
    /// `L0,d`: probability of an answer more than `d` steps from the truth.
    L0Beyond(usize),
    /// Expected absolute error `L1`.
    L1,
    /// Expected squared error `L2`.
    L2,
}

impl ObjectiveKey {
    /// The full [`Objective`] this key denotes.
    pub fn to_objective(self) -> Objective {
        match self {
            ObjectiveKey::L0 => Objective::l0(),
            ObjectiveKey::L0Beyond(d) => Objective::l0_beyond(d),
            ObjectiveKey::L1 => Objective::l1(),
            ObjectiveKey::L2 => Objective::l2(),
        }
    }

    /// Parse the paper's notation: `L0`, `L1`, `L2`, or `L0,d` (e.g. `L0,2`).
    /// Case-insensitive; an empty string means the default `L0`.
    pub fn parse(text: &str) -> Option<ObjectiveKey> {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Some(ObjectiveKey::L0);
        }
        match trimmed.to_ascii_uppercase().as_str() {
            "L0" => Some(ObjectiveKey::L0),
            "L1" => Some(ObjectiveKey::L1),
            "L2" => Some(ObjectiveKey::L2),
            upper => {
                let d = upper.strip_prefix("L0,")?.trim().parse().ok()?;
                Some(ObjectiveKey::L0Beyond(d))
            }
        }
    }

    /// The paper's name for the objective (`L0`, `L0,d`, `L1`, `L2`).
    pub fn name(self) -> String {
        self.to_objective().loss.name()
    }
}

impl std::str::FromStr for ObjectiveKey {
    type Err = CoreError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        ObjectiveKey::parse(text).ok_or_else(|| CoreError::UnknownObjective {
            text: text.to_string(),
        })
    }
}

impl std::fmt::Display for ObjectiveKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The rescaled `L0` score of Eq. (1): `(n+1)/n − trace(P)/n`.
///
/// Equals `(n+1)/n` times the probability (under a uniform prior) of reporting a
/// wrong answer, and is exactly 1 for the trivial uniform mechanism.
pub fn rescaled_l0(mechanism: &Mechanism) -> f64 {
    let n = mechanism.group_size() as f64;
    (n + 1.0) / n - mechanism.trace() / n
}

/// The rescaled `L0,d` score: `(n+1)/n` times the probability mass more than `d`
/// steps off the main diagonal under a uniform prior, so that `d = 0` recovers
/// [`rescaled_l0`].
pub fn rescaled_l0_d(mechanism: &Mechanism, d: usize) -> Result<f64, CoreError> {
    let n = mechanism.group_size();
    if d > n {
        return Err(CoreError::InvalidDistanceThreshold { d, n });
    }
    let dim = mechanism.dim();
    let uniform = 1.0 / dim as f64;
    let mass: f64 = (0..dim)
        .map(|j| {
            (0..dim)
                .filter(|&i| i.abs_diff(j) > d)
                .map(|i| mechanism.prob(i, j))
                .sum::<f64>()
                * uniform
        })
        .sum();
    Ok((dim as f64) / (n as f64) * mass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_mechanism(n: usize) -> Mechanism {
        Mechanism::from_fn(n, |_, _| 1.0 / (n as f64 + 1.0)).unwrap()
    }

    fn identity_mechanism(n: usize) -> Mechanism {
        Mechanism::from_fn(n, |i, j| if i == j { 1.0 } else { 0.0 }).unwrap()
    }

    #[test]
    fn penalties_match_definitions() {
        assert_eq!(LossKind::ZeroOne.penalty(3, 3), 0.0);
        assert_eq!(LossKind::ZeroOne.penalty(3, 4), 1.0);
        assert_eq!(LossKind::ZeroOneBeyond(1).penalty(3, 4), 0.0);
        assert_eq!(LossKind::ZeroOneBeyond(1).penalty(3, 5), 1.0);
        assert_eq!(LossKind::Absolute.penalty(1, 4), 3.0);
        assert_eq!(LossKind::Squared.penalty(1, 4), 9.0);
        assert_eq!(LossKind::ZeroOneBeyond(2).name(), "L0,2");
        assert_eq!(LossKind::ZeroOne.name(), "L0");
    }

    #[test]
    fn identity_mechanism_has_zero_loss() {
        let m = identity_mechanism(5);
        for objective in [Objective::l0(), Objective::l1(), Objective::l2()] {
            assert_eq!(objective.value(&m).unwrap(), 0.0);
        }
        assert!((rescaled_l0(&m)).abs() < 1e-12);
    }

    #[test]
    fn uniform_mechanism_scores_match_the_paper() {
        // The paper: O_{0,Σ}(UM) = n/(n+1) and the rescaled L0 of UM is exactly 1.
        for n in [2, 4, 7, 16] {
            let m = uniform_mechanism(n);
            let o = Objective::l0().value(&m).unwrap();
            assert!((o - n as f64 / (n as f64 + 1.0)).abs() < 1e-12);
            assert!((rescaled_l0(&m) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rescaled_l0_consistency_with_unrescaled() {
        let m = uniform_mechanism(6);
        let unrescaled = Objective::l0().value(&m).unwrap();
        let n = 6.0;
        assert!((rescaled_l0(&m) - (n + 1.0) / n * unrescaled).abs() < 1e-12);
    }

    #[test]
    fn rescaled_l0_d_reduces_to_l0_at_zero() {
        let m = uniform_mechanism(5);
        assert!((rescaled_l0_d(&m, 0).unwrap() - rescaled_l0(&m)).abs() < 1e-12);
        // For the uniform mechanism, L0,d = (n+1)/n * (# cells with |i-j| > d) / (n+1)^2.
        let l01 = rescaled_l0_d(&m, 1).unwrap();
        let n = 5usize;
        let count = (0..=n)
            .flat_map(|j| (0..=n).map(move |i| (i, j)))
            .filter(|(i, j)| i.abs_diff(*j) > 1)
            .count();
        let expected =
            (n as f64 + 1.0) / n as f64 * count as f64 / ((n as f64 + 1.0) * (n as f64 + 1.0));
        assert!((l01 - expected).abs() < 1e-12);
    }

    #[test]
    fn rescaled_l0_d_rejects_large_thresholds() {
        let m = uniform_mechanism(3);
        assert!(matches!(
            rescaled_l0_d(&m, 4),
            Err(CoreError::InvalidDistanceThreshold { d: 4, n: 3 })
        ));
    }

    #[test]
    fn max_aggregator_takes_worst_input() {
        // A mechanism that is perfect on input 0 but noisy on input 2.
        let m = Mechanism::from_fn(2, |i, j| match j {
            0 => {
                if i == 0 {
                    1.0
                } else {
                    0.0
                }
            }
            1 => {
                if i == 1 {
                    0.8
                } else {
                    0.1
                }
            }
            _ => 1.0 / 3.0,
        })
        .unwrap();
        let minimax = Objective {
            loss: LossKind::ZeroOne,
            prior: Prior::Uniform,
            aggregator: Aggregator::Max,
        };
        assert!((minimax.value(&m).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_priors_are_validated() {
        assert!(Prior::Weights(vec![0.5, 0.5]).weights(1).is_ok());
        assert!(Prior::Weights(vec![0.5, 0.5]).weights(2).is_err());
        assert!(Prior::Weights(vec![0.7, 0.7]).weights(1).is_err());
        assert!(Prior::Weights(vec![-0.5, 1.5]).weights(1).is_err());
    }

    #[test]
    fn weighted_objective_uses_the_prior() {
        // All prior mass on input 0: only column 0 matters.
        let m = Mechanism::from_fn(2, |i, j| match (i, j) {
            (0, 0) => 0.9,
            (1, 0) => 0.1,
            (2, 0) => 0.0,
            _ => 1.0 / 3.0,
        })
        .unwrap();
        let objective = Objective {
            loss: LossKind::ZeroOne,
            prior: Prior::Weights(vec![1.0, 0.0, 0.0]),
            aggregator: Aggregator::Sum,
        };
        assert!((objective.value(&m).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn objective_key_parses_the_paper_notation() {
        assert_eq!(ObjectiveKey::parse(""), Some(ObjectiveKey::L0));
        assert_eq!(ObjectiveKey::parse("l0"), Some(ObjectiveKey::L0));
        assert_eq!(ObjectiveKey::parse("L1"), Some(ObjectiveKey::L1));
        assert_eq!(ObjectiveKey::parse("L2"), Some(ObjectiveKey::L2));
        assert_eq!(ObjectiveKey::parse("L0,2"), Some(ObjectiveKey::L0Beyond(2)));
        assert_eq!(ObjectiveKey::parse("nope"), None);
        assert_eq!(ObjectiveKey::L0Beyond(3).name(), "L0,3");
        assert_eq!(
            "L0,3".parse::<ObjectiveKey>(),
            Ok(ObjectiveKey::L0Beyond(3))
        );
        assert!(matches!(
            "bogus".parse::<ObjectiveKey>(),
            Err(CoreError::UnknownObjective { .. })
        ));
        assert_eq!(ObjectiveKey::default(), ObjectiveKey::L0);
    }

    #[test]
    fn objective_key_denotes_the_right_objective() {
        assert_eq!(ObjectiveKey::L0.to_objective(), Objective::l0());
        assert_eq!(ObjectiveKey::L1.to_objective(), Objective::l1());
        assert_eq!(ObjectiveKey::L2.to_objective(), Objective::l2());
        assert_eq!(
            ObjectiveKey::L0Beyond(2).to_objective(),
            Objective::l0_beyond(2)
        );
    }

    #[test]
    fn fair_mechanism_objective_is_prior_independent() {
        // Lemma 1: for fair mechanisms the L0 objective is 1 - y for any prior.
        let fair = Mechanism::from_fn(2, |i, j| if i == j { 0.5 } else { 0.25 }).unwrap();
        let uniform = Objective::l0().value(&fair).unwrap();
        let skewed = Objective {
            loss: LossKind::ZeroOne,
            prior: Prior::Weights(vec![0.7, 0.2, 0.1]),
            aggregator: Aggregator::Sum,
        }
        .value(&fair)
        .unwrap();
        assert!((uniform - 0.5).abs() < 1e-12);
        assert!((skewed - 0.5).abs() < 1e-12);
    }
}

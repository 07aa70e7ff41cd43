//! The privacy parameter α and its relationship to ε.
//!
//! The paper parameterises differential privacy by `α ∈ (0, 1]` where a mechanism is
//! α-DP if `α ≤ Pr[i|j] / Pr[i|j+1] ≤ 1/α` for every output `i` and neighbouring
//! inputs `j, j+1` (Definition 2).  This is the usual ε-DP with `α = exp(−ε)`:
//! α close to 1 is *strong* privacy (tight ratio), α close to 0 is weak privacy.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// The multiplicative privacy parameter `α ∈ (0, 1]` of Definition 2.
///
/// Construct with [`Alpha::new`] (validating) or [`Alpha::from_epsilon`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Alpha(f64);

impl Alpha {
    /// Create a privacy parameter, validating `0 < α <= 1`.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if value.is_finite() && value > 0.0 && value <= 1.0 {
            Ok(Alpha(value))
        } else {
            Err(CoreError::InvalidAlpha { value })
        }
    }

    /// Convert from the additive privacy budget: `α = exp(−ε)`, requiring `ε >= 0`.
    pub fn from_epsilon(epsilon: f64) -> Result<Self, CoreError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(CoreError::InvalidAlpha {
                value: (-epsilon).exp(),
            });
        }
        Alpha::new((-epsilon).exp())
    }

    /// The raw value of α.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The IEEE-754 bit pattern of α, suitable as a hash-map key component.
    ///
    /// [`Alpha::new`] guarantees the value is finite and strictly positive, so the
    /// bit pattern is canonical: there is no NaN (whose payload bits would make
    /// equal-comparing values hash differently) and no `-0.0` / `+0.0` split.  Two
    /// α values key the same cache slot iff they are the same `f64`.
    #[inline]
    pub fn key_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// This α as a bit-exact, hashable cache key.
    #[inline]
    pub fn key(self) -> AlphaKey {
        AlphaKey(self.key_bits())
    }

    /// The equivalent additive privacy budget `ε = −ln α`.
    #[inline]
    pub fn epsilon(self) -> f64 {
        -self.0.ln()
    }

    /// The group-size threshold `2α / (1 − α)` of Lemma 2: the Geometric Mechanism
    /// satisfies weak honesty iff `n` is at least this value.  Returns `+inf` for
    /// `α = 1`.
    pub fn weak_honesty_threshold(self) -> f64 {
        if self.0 >= 1.0 {
            f64::INFINITY
        } else {
            2.0 * self.0 / (1.0 - self.0)
        }
    }

    /// Lemma 3: the Geometric Mechanism is column monotone iff `α <= 1/2`.
    pub fn geometric_is_column_monotone(self) -> bool {
        self.0 <= 0.5
    }

    /// The values of α used throughout the paper's experiments:
    /// `{1/2, 2/3, 0.76, 0.9, 10/11, 0.91, 99/100}` (Sections IV–V).
    pub fn paper_values() -> Vec<Alpha> {
        [0.5, 2.0 / 3.0, 0.76, 0.9, 10.0 / 11.0, 0.91, 0.99]
            .into_iter()
            .map(|a| Alpha::new(a).expect("paper alpha values are valid"))
            .collect()
    }
}

impl std::fmt::Display for Alpha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A bit-exact, hashable key for an [`Alpha`].
///
/// `Alpha` itself is only `PartialEq` (it wraps an `f64`), which rules it out as a
/// `HashMap` key.  `AlphaKey` wraps the IEEE-754 bit pattern instead, giving `Eq` and
/// `Hash` without epsilon-comparison bugs: `0.9` written two ways collides, while a
/// value one ulp away keys a different slot — exactly the contract a design cache
/// wants (float α values arriving over the wire are either byte-identical or they
/// denote a different design request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AlphaKey(u64);

impl AlphaKey {
    /// The raw bit pattern (identical to [`Alpha::key_bits`]).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Recover the α this key was built from.
    #[inline]
    pub fn alpha(self) -> Alpha {
        Alpha(f64::from_bits(self.0))
    }
}

impl From<Alpha> for AlphaKey {
    fn from(alpha: Alpha) -> Self {
        alpha.key()
    }
}

impl Serialize for AlphaKey {
    /// Serialises as the α value itself.  The vendored JSON layer prints `f64`s
    /// with shortest round-trippable formatting, so the bit pattern survives a
    /// serialise → parse cycle exactly — the same contract the key itself makes.
    fn serialize(&self, writer: &mut serde::Writer<'_>) -> Result<(), serde::Error> {
        writer.number(self.alpha().value())
    }
}

impl Deserialize for AlphaKey {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = f64::from_value(value)?;
        Alpha::new(raw)
            .map(Alpha::key)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl std::fmt::Display for AlphaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.alpha())
    }
}

impl TryFrom<f64> for Alpha {
    type Error = CoreError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Alpha::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_values() {
        for alpha in Alpha::paper_values() {
            assert!(alpha.value() > 0.0 && alpha.value() <= 1.0);
        }
    }

    #[test]
    fn rejects_out_of_range_values() {
        assert!(Alpha::new(0.0).is_err());
        assert!(Alpha::new(-0.1).is_err());
        assert!(Alpha::new(1.1).is_err());
        assert!(Alpha::new(f64::NAN).is_err());
        assert!(Alpha::new(1.0).is_ok());
        assert!(Alpha::new(1e-12).is_ok());
    }

    #[test]
    fn epsilon_round_trip() {
        let alpha = Alpha::new(0.62).unwrap();
        let eps = alpha.epsilon();
        let back = Alpha::from_epsilon(eps).unwrap();
        assert!((alpha.value() - back.value()).abs() < 1e-12);
        // alpha = exp(-eps) ≈ 1 - eps for small eps.
        let strong = Alpha::from_epsilon(0.01).unwrap();
        assert!((strong.value() - 0.99).abs() < 1e-3);
    }

    #[test]
    fn from_epsilon_rejects_negative_budgets() {
        assert!(Alpha::from_epsilon(-1.0).is_err());
        assert!(Alpha::from_epsilon(f64::INFINITY).is_err());
        assert_eq!(Alpha::from_epsilon(0.0).unwrap().value(), 1.0);
    }

    #[test]
    fn weak_honesty_threshold_matches_lemma_2() {
        // alpha = 0.76 -> threshold = 2*0.76/0.24 = 6.333... (used in Fig. 8a).
        let alpha = Alpha::new(0.76).unwrap();
        assert!((alpha.weak_honesty_threshold() - 6.333333333333333).abs() < 1e-9);
        // alpha = 2/3 -> threshold 4 (Fig. 9a); alpha = 10/11 -> 20 (Fig. 9b).
        assert!((Alpha::new(2.0 / 3.0).unwrap().weak_honesty_threshold() - 4.0).abs() < 1e-9);
        assert!((Alpha::new(10.0 / 11.0).unwrap().weak_honesty_threshold() - 20.0).abs() < 1e-9);
        assert!(Alpha::new(1.0)
            .unwrap()
            .weak_honesty_threshold()
            .is_infinite());
    }

    #[test]
    fn column_monotonicity_threshold_matches_lemma_3() {
        assert!(Alpha::new(0.5).unwrap().geometric_is_column_monotone());
        assert!(Alpha::new(0.3).unwrap().geometric_is_column_monotone());
        assert!(!Alpha::new(0.51).unwrap().geometric_is_column_monotone());
    }

    #[test]
    fn key_bits_collide_for_the_same_float_parsed_two_ways() {
        // The same mathematical value reached through different front doors — a
        // literal, a string parse, and `from_epsilon(-ln 0.9)` rounded back — must
        // share one cache slot whenever they round to the same f64.
        let literal = Alpha::new(0.9).unwrap();
        let parsed = Alpha::new("0.9".parse::<f64>().unwrap()).unwrap();
        assert_eq!(literal.key(), parsed.key());
        assert_eq!(literal.key_bits(), parsed.key_bits());

        // 0.9 + 1e-17 is below half an ulp of 0.9 (~5.5e-17), so IEEE-754 rounds the
        // sum back to exactly 0.9: per bit equality the two MUST collide.
        let nudged = Alpha::new(0.9 + 1e-17).unwrap();
        assert_eq!(nudged.value().to_bits(), 0.9f64.to_bits());
        assert_eq!(literal.key(), nudged.key());

        // One whole ulp away is a genuinely different f64 and keys a different slot.
        let next_up = Alpha::new(f64::from_bits(0.9f64.to_bits() + 1)).unwrap();
        assert_ne!(literal.key(), next_up.key());
        assert_ne!(literal.key_bits(), next_up.key_bits());
    }

    #[test]
    fn alpha_key_round_trips_and_is_usable_in_a_hash_map() {
        use std::collections::HashMap;
        let mut cache: HashMap<AlphaKey, &'static str> = HashMap::new();
        for alpha in Alpha::paper_values() {
            cache.insert(alpha.key(), "design");
            assert_eq!(alpha.key().alpha().value(), alpha.value());
            assert_eq!(AlphaKey::from(alpha), alpha.key());
        }
        assert_eq!(cache.len(), Alpha::paper_values().len());
        assert_eq!(cache.get(&Alpha::new(0.9).unwrap().key()), Some(&"design"));
    }

    #[test]
    fn alpha_key_serde_is_bit_exact_and_validating() {
        use serde::{Deserialize, Serialize};
        for alpha in Alpha::paper_values() {
            let key = alpha.key();
            let back = AlphaKey::from_value(&key.to_value()).unwrap();
            assert_eq!(back, key, "bit-exact round trip for α = {alpha}");
        }
        // Out-of-range values are rejected at deserialisation time.
        assert!(AlphaKey::from_value(&serde::Value::Number(1.5)).is_err());
        assert!(AlphaKey::from_value(&serde::Value::Number(0.0)).is_err());
    }

    #[test]
    fn try_from_and_display() {
        let alpha: Alpha = 0.9f64.try_into().unwrap();
        assert_eq!(alpha.to_string(), "0.9");
        assert!(Alpha::try_from(2.0).is_err());
    }
}

//! The typed design entry point: [`MechanismSpec`] → [`DesignedMechanism`].
//!
//! The paper's pipeline (Figure 5) turns *requested properties + objective +
//! (n, α)* into one of a handful of mechanisms.  Historically that pipeline was
//! reachable through several divergent free functions, each returning a
//! different shape; this module funnels every design through one typed path:
//!
//! ```
//! use cpm_core::prelude::*;
//!
//! let designed = MechanismSpec::new(4, Alpha::new(0.9).unwrap())
//!     .properties(PropertySet::empty().with(Property::Fairness))
//!     .objective(ObjectiveKey::L0)
//!     .build()
//!     .unwrap()
//!     .design()
//!     .unwrap();
//! assert_eq!(designed.choice(), Some(MechanismChoice::ExplicitFair));
//! assert!(designed.requested_satisfied());
//! ```
//!
//! * [`MechanismSpec`] is a validated builder over everything that determines a
//!   design: `n`, `α`, the requested [`PropertySet`], an [`ObjectiveKey`], the
//!   property-check tolerance, and optional solver overrides.  It has a
//!   canonical serde form and projects to a bit-exact, hashable [`SpecKey`].
//! * [`SpecKey`] is the cache identity of a design: `(n, bit-exact α via
//!   [`AlphaKey`], properties, objective)`.  Tolerance and solver overrides are
//!   deliberately excluded — they tune *how* a design is computed and checked,
//!   not *which* distribution it denotes.
//! * [`DesignedMechanism`] is the finished artifact: the matrix, the Figure-5
//!   [`MechanismChoice`] provenance, the solver statistics when an LP ran, the
//!   achieved [`PropertyReport`], the rescaled-`L0` score, and lazily-built
//!   [`MechanismSampler`] / [`AliasSampler`] accessors.  The whole artifact
//!   (minus the rebuildable samplers) is serde round-trippable, which is what
//!   makes warm-start snapshot files possible for the serving cache.

use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cpm_simplex::{SolveOptions, SolveStats};

use crate::alpha::{Alpha, AlphaKey};
use crate::error::CoreError;
use crate::lp::DesignProblem;
use crate::matrix::Mechanism;
use crate::objective::{rescaled_l0, ObjectiveKey};
use crate::properties::{PropertyReport, PropertySet};
use crate::sampling::{AliasSampler, MechanismSampler};
use crate::selection::{self, MechanismChoice};

/// Default absolute tolerance for the achieved-property report (matches the
/// tolerance the LP tests use for property checks on solved matrices).
pub const DEFAULT_PROPERTY_TOLERANCE: f64 = 1e-6;

// ---------------------------------------------------------------------------
// SpecKey
// ---------------------------------------------------------------------------

/// Everything that determines one mechanism design, as a bit-exact hashable
/// cache key: `(n, α by IEEE-754 bit pattern, requested properties, objective)`.
///
/// Two requests share a design iff their keys are equal; floating α is keyed
/// through [`AlphaKey`] so there are no epsilon comparisons anywhere.  The
/// properties are kept *pre-closure* — the design routine takes the implication
/// closure itself, so `{CM}` and `{CM, CH, WH}` are distinct keys that map to
/// the same mechanism; callers wanting maximal cache reuse should normalise
/// with [`PropertySet::closure`] before keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecKey {
    /// Group size `n` (the matrix is `(n+1) × (n+1)`).
    pub n: usize,
    /// The privacy parameter, keyed by its IEEE-754 bit pattern.
    pub alpha: AlphaKey,
    /// The requested structural properties (pre-closure).
    pub properties: PropertySet,
    /// The design objective.
    pub objective: ObjectiveKey,
}

impl SpecKey {
    /// Build a key for the paper's default `L0` objective.
    pub fn new(n: usize, alpha: Alpha, properties: PropertySet) -> Self {
        SpecKey {
            n,
            alpha: alpha.key(),
            properties,
            objective: ObjectiveKey::L0,
        }
    }

    /// Build a key with an explicit objective.
    pub fn with_objective(
        n: usize,
        alpha: Alpha,
        properties: PropertySet,
        objective: ObjectiveKey,
    ) -> Self {
        SpecKey {
            n,
            alpha: alpha.key(),
            properties,
            objective,
        }
    }

    /// The α value this key denotes.
    #[inline]
    pub fn alpha_value(&self) -> Alpha {
        self.alpha.alpha()
    }

    /// The default-tuned [`MechanismSpec`] this key denotes (not yet validated —
    /// chain `.build()`; [`MechanismSpec::design`] validates either way).
    pub fn spec(&self) -> MechanismSpec {
        MechanismSpec::new(self.n, self.alpha_value())
            .properties(self.properties)
            .objective(self.objective)
    }
}

impl fmt::Display for SpecKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(n={}, α={}, {}, {})",
            self.n, self.alpha, self.properties, self.objective
        )
    }
}

impl Serialize for SpecKey {
    /// Canonical form: `{"n": …, "alpha": …, "properties": "{WH, CM}",
    /// "objective": "L0"}` — α bit-exact through the shortest-round-trip float
    /// formatting, properties and objective in the paper's notation.
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("alpha".to_string(), self.alpha.to_value()),
            (
                "properties".to_string(),
                self.properties.to_string().to_value(),
            ),
            (
                "objective".to_string(),
                self.objective.to_string().to_value(),
            ),
        ])
    }
}

impl Deserialize for SpecKey {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = serde::as_object(value, "SpecKey")?;
        let field = |name: &str| {
            serde::object_get(pairs, name)
                .ok_or_else(|| serde::Error::missing_field("SpecKey", name))
        };
        let n = usize::from_value(field("n")?)?;
        let alpha = AlphaKey::from_value(field("alpha")?)?;
        let properties: PropertySet = String::from_value(field("properties")?)?
            .parse()
            .map_err(|e: CoreError| serde::Error::custom(e.to_string()))?;
        let objective: ObjectiveKey = String::from_value(field("objective")?)?
            .parse()
            .map_err(|e: CoreError| serde::Error::custom(e.to_string()))?;
        Ok(SpecKey {
            n,
            alpha,
            properties,
            objective,
        })
    }
}

// ---------------------------------------------------------------------------
// MechanismSpec
// ---------------------------------------------------------------------------

/// A validated specification of one mechanism design — the single entry point
/// of the design path.
///
/// Build with [`MechanismSpec::new`] and the chainable setters, validate with
/// [`MechanismSpec::build`], and run with [`MechanismSpec::design`]:
///
/// ```
/// use cpm_core::prelude::*;
///
/// let spec = MechanismSpec::new(6, Alpha::new(0.9).unwrap())
///     .properties("WH+CM".parse().unwrap())
///     .build()
///     .unwrap();
/// let designed = spec.design().unwrap();
/// assert_eq!(designed.key(), spec.key());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismSpec {
    n: usize,
    alpha: Alpha,
    properties: PropertySet,
    objective: ObjectiveKey,
    tolerance: f64,
    solver: Option<SolveOptions>,
}

impl MechanismSpec {
    /// Start a spec for group size `n` at privacy level `alpha`, with no
    /// requested properties, the paper's `L0` objective, the default property
    /// tolerance, and per-problem recommended solver options.
    pub fn new(n: usize, alpha: Alpha) -> Self {
        MechanismSpec {
            n,
            alpha,
            properties: PropertySet::empty(),
            objective: ObjectiveKey::L0,
            tolerance: DEFAULT_PROPERTY_TOLERANCE,
            solver: None,
        }
    }

    /// Set the requested structural properties.
    #[must_use]
    pub fn properties(mut self, properties: PropertySet) -> Self {
        self.properties = properties;
        self
    }

    /// Add one requested property.
    #[must_use]
    pub fn with_property(mut self, property: crate::properties::Property) -> Self {
        self.properties.insert(property);
        self
    }

    /// Set the design objective (default `L0`).
    #[must_use]
    pub fn objective(mut self, objective: ObjectiveKey) -> Self {
        self.objective = objective;
        self
    }

    /// Set the absolute tolerance used for the achieved-property report.
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Override the simplex options (default: each LP picks its own size-scaled
    /// [`DesignProblem::recommended_options`]).
    #[must_use]
    pub fn solver(mut self, options: SolveOptions) -> Self {
        self.solver = Some(options);
        self
    }

    /// Validate the spec, returning it unchanged on success.
    ///
    /// Checks: `n ≥ 1`; the tolerance is finite and positive; an `L0,d`
    /// objective has `d ≤ n` (beyond that every output is free and the LP is
    /// degenerate).
    pub fn build(self) -> Result<Self, CoreError> {
        self.validate()?;
        Ok(self)
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.n == 0 {
            return Err(CoreError::InvalidGroupSize { value: self.n });
        }
        if !self.tolerance.is_finite() || self.tolerance <= 0.0 {
            return Err(CoreError::InvalidSpec {
                reason: format!(
                    "property tolerance must be a positive finite number, got {}",
                    self.tolerance
                ),
            });
        }
        if let ObjectiveKey::L0Beyond(d) = self.objective {
            if d > self.n {
                return Err(CoreError::InvalidDistanceThreshold { d, n: self.n });
            }
        }
        Ok(())
    }

    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Privacy parameter α.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// The requested structural properties (pre-closure).
    pub fn requested(&self) -> PropertySet {
        self.properties
    }

    /// The design objective.
    pub fn objective_key(&self) -> ObjectiveKey {
        self.objective
    }

    /// The achieved-property check tolerance.
    pub fn property_tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The solver override, if any.
    pub fn solver_options(&self) -> Option<&SolveOptions> {
        self.solver.as_ref()
    }

    /// The bit-exact cache key of this spec (tolerance and solver overrides are
    /// excluded — see [`SpecKey`]).
    pub fn key(&self) -> SpecKey {
        SpecKey::with_objective(self.n, self.alpha, self.properties, self.objective)
    }

    /// Run the design: `L0` requests go through the Figure-5 flowchart (which
    /// short-circuits to closed forms whenever it can), other objectives solve
    /// the property-constrained LP directly.  Validates the spec first, so a
    /// spec that skipped [`MechanismSpec::build`] still cannot design nonsense.
    pub fn design(&self) -> Result<DesignedMechanism, CoreError> {
        self.validate()?;
        let start = Instant::now();
        let (choice, mechanism, solver_stats) = match self.objective {
            ObjectiveKey::L0 => {
                let choice = selection::select_mechanism(self.properties, self.n, self.alpha);
                let (mechanism, stats) =
                    selection::realize_choice(choice, self.n, self.alpha, self.solver.as_ref())?;
                (Some(choice), mechanism, stats)
            }
            objective => {
                let problem = DesignProblem::constrained(
                    self.n,
                    self.alpha,
                    objective.to_objective(),
                    self.properties.closure(),
                );
                let solution = match &self.solver {
                    Some(options) => problem.solve_with(options)?,
                    None => problem.solve()?,
                };
                (None, solution.mechanism, Some(solution.solver_stats))
            }
        };
        let design_nanos = start.elapsed().as_nanos() as u64;
        cpm_obs::histogram!("cpm_design_nanos").record(design_nanos);
        if solver_stats.is_some() {
            cpm_obs::counter!("cpm_design_solves_total{kind=\"lp\"}").inc();
        } else {
            cpm_obs::counter!("cpm_design_solves_total{kind=\"flowchart\"}").inc();
        }
        let report = PropertyReport::evaluate(&mechanism, self.tolerance);
        let score = rescaled_l0(&mechanism);
        // The stored spec drops a warm basis passed through the solver
        // override, so the artifact records what was designed, not how its
        // solve was seeded.
        let mut stored = self.clone();
        if let Some(solver) = &mut stored.solver {
            solver.warm_basis = None;
        }
        Ok(DesignedMechanism {
            spec: stored,
            choice,
            mechanism,
            solver_stats,
            report,
            score,
            design_nanos,
            cdf_sampler: OnceLock::new(),
            alias_sampler: OnceLock::new(),
            inverse: OnceLock::new(),
        })
    }
}

impl fmt::Display for MechanismSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

impl Serialize for MechanismSpec {
    /// Canonical form: the [`SpecKey`] fields plus `tolerance` and `solver`.
    fn to_value(&self) -> serde::Value {
        let serde::Value::Object(mut pairs) = self.key().to_value() else {
            unreachable!("SpecKey serialises to an object");
        };
        pairs.push(("tolerance".to_string(), self.tolerance.to_value()));
        pairs.push(("solver".to_string(), self.solver.to_value()));
        serde::Value::Object(pairs)
    }
}

impl Deserialize for MechanismSpec {
    /// Validates on the way in: a malformed spec is a deserialisation error,
    /// never a live `MechanismSpec`.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let key = SpecKey::from_value(value)?;
        let pairs = serde::as_object(value, "MechanismSpec")?;
        let tolerance = match serde::object_get(pairs, "tolerance") {
            Some(raw) => f64::from_value(raw)?,
            None => DEFAULT_PROPERTY_TOLERANCE,
        };
        let solver = match serde::object_get(pairs, "solver") {
            Some(raw) => Option::<SolveOptions>::from_value(raw)?,
            None => None,
        };
        let mut spec = key.spec().tolerance(tolerance);
        if let Some(options) = solver {
            spec = spec.solver(options);
        }
        spec.build()
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

// ---------------------------------------------------------------------------
// DesignedMechanism
// ---------------------------------------------------------------------------

/// A finished design: the matrix plus everything worth knowing about how it
/// came to be, with lazily-built samplers for the serving hot path.
///
/// Serde round trips are exact — `serialize → deserialize` reproduces the
/// matrix bit-for-bit and the same [`SpecKey`] — which is what makes cache
/// snapshot files a faithful substitute for re-running the LP.
#[derive(Debug)]
pub struct DesignedMechanism {
    spec: MechanismSpec,
    choice: Option<MechanismChoice>,
    mechanism: Mechanism,
    solver_stats: Option<SolveStats>,
    report: PropertyReport,
    score: f64,
    design_nanos: u64,
    cdf_sampler: OnceLock<MechanismSampler>,
    alias_sampler: OnceLock<AliasSampler>,
    inverse: OnceLock<Result<Vec<f64>, CoreError>>,
}

impl Clone for DesignedMechanism {
    /// Clones the design data; sampler caches start empty in the clone.
    fn clone(&self) -> Self {
        DesignedMechanism {
            spec: self.spec.clone(),
            choice: self.choice,
            mechanism: self.mechanism.clone(),
            solver_stats: self.solver_stats,
            report: self.report.clone(),
            score: self.score,
            design_nanos: self.design_nanos,
            cdf_sampler: OnceLock::new(),
            alias_sampler: OnceLock::new(),
            inverse: OnceLock::new(),
        }
    }
}

impl PartialEq for DesignedMechanism {
    /// Equality over the design data (the lazily-built samplers are caches, not
    /// state).
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.choice == other.choice
            && self.mechanism == other.mechanism
            && self.solver_stats == other.solver_stats
            && self.report == other.report
            && self.score == other.score
            && self.design_nanos == other.design_nanos
    }
}

impl DesignedMechanism {
    /// The spec this design answers.
    pub fn spec(&self) -> &MechanismSpec {
        &self.spec
    }

    /// The bit-exact cache key of the spec.
    pub fn key(&self) -> SpecKey {
        self.spec.key()
    }

    /// Which Figure-5 mechanism the design resolved to (`None` for non-`L0`
    /// objectives, which bypass the flowchart and solve the LP directly).
    pub fn choice(&self) -> Option<MechanismChoice> {
        self.choice
    }

    /// The designed column-stochastic matrix.
    pub fn mechanism(&self) -> &Mechanism {
        &self.mechanism
    }

    /// Consume the artifact, keeping only the matrix.
    pub fn into_mechanism(self) -> Mechanism {
        self.mechanism
    }

    /// Simplex statistics when the design required an LP solve; `None` for the
    /// closed-form constructions (GM, EM, UM).
    pub fn solver_stats(&self) -> Option<&SolveStats> {
        self.solver_stats.as_ref()
    }

    /// Whether the design ran the simplex (as opposed to a closed form).
    pub fn used_lp(&self) -> bool {
        self.solver_stats.is_some()
    }

    /// The achieved properties of the designed matrix, evaluated at the spec's
    /// tolerance over all seven properties.
    pub fn report(&self) -> &PropertyReport {
        &self.report
    }

    /// Whether every *requested* property holds according to the report.
    pub fn requested_satisfied(&self) -> bool {
        self.spec
            .requested()
            .iter()
            .all(|property| self.report.holds(property))
    }

    /// The rescaled `L0` score of Eq. (1) (1.0 = the trivial uniform mechanism).
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Wall-clock time the design took (closed form or LP).
    pub fn design_time(&self) -> Duration {
        Duration::from_nanos(self.design_nanos)
    }

    /// The `O(log n)`-per-draw CDF sampler, built on first use.
    pub fn sampler(&self) -> &MechanismSampler {
        self.cdf_sampler
            .get_or_init(|| MechanismSampler::new(&self.mechanism))
    }

    /// The `O(1)`-per-draw Walker/Vose alias sampler, built on first use — the
    /// serving hot path.
    pub fn alias_sampler(&self) -> &AliasSampler {
        self.alias_sampler
            .get_or_init(|| AliasSampler::new(&self.mechanism))
    }

    /// The cached row-major inverse `M⁻¹` of the designed matrix — the
    /// estimator's linear map from observed output histograms to unbiased
    /// input-frequency estimates.  Factored once on first use (like the
    /// samplers); the `Err` outcome is cached too, so singular designs (the
    /// Uniform mechanism) fail in O(1) on every subsequent call.
    pub fn inverse(&self) -> Result<&[f64], CoreError> {
        match self.inverse.get_or_init(|| self.mechanism.inverse()) {
            Ok(inv) => Ok(inv.as_slice()),
            Err(e) => Err(e.clone()),
        }
    }
}

impl fmt::Display for DesignedMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} (L0 = {:.4})",
            self.key(),
            self.choice.map(MechanismChoice::short_name).unwrap_or("LP"),
            self.score
        )
    }
}

impl Serialize for DesignedMechanism {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("spec".to_string(), self.spec.to_value()),
            ("choice".to_string(), self.choice.to_value()),
            ("mechanism".to_string(), self.mechanism.to_value()),
            ("solver_stats".to_string(), self.solver_stats.to_value()),
            ("report".to_string(), self.report.to_value()),
            ("score".to_string(), self.score.to_value()),
            ("design_nanos".to_string(), self.design_nanos.to_value()),
        ])
    }
}

impl Deserialize for DesignedMechanism {
    /// Rebuilds the artifact, re-validating the matrix (dimensions and column
    /// stochasticity) so a corrupt snapshot is rejected instead of served.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = serde::as_object(value, "DesignedMechanism")?;
        let field = |name: &str| {
            serde::object_get(pairs, name)
                .ok_or_else(|| serde::Error::missing_field("DesignedMechanism", name))
        };
        let spec = MechanismSpec::from_value(field("spec")?)?;
        let choice = Option::<MechanismChoice>::from_value(field("choice")?)?;
        let mechanism = Mechanism::from_value(field("mechanism")?)?;
        if mechanism.group_size() != spec.n() {
            return Err(serde::Error::custom(format!(
                "designed matrix is for n = {} but the spec says n = {}",
                mechanism.group_size(),
                spec.n()
            )));
        }
        mechanism
            .validate(1e-7)
            .map_err(|e| serde::Error::custom(format!("invalid designed matrix: {e}")))?;
        let solver_stats = Option::<SolveStats>::from_value(field("solver_stats")?)?;
        let report = PropertyReport::from_value(field("report")?)?;
        let score = f64::from_value(field("score")?)?;
        let design_nanos = u64::from_value(field("design_nanos")?)?;
        // Snapshots written while designs still carried their LP basis hold
        // a `"basis"` field; it is ignored.
        Ok(DesignedMechanism {
            spec,
            choice,
            mechanism,
            solver_stats,
            report,
            score,
            design_nanos,
            cdf_sampler: OnceLock::new(),
            alias_sampler: OnceLock::new(),
            inverse: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form;
    use crate::properties::Property;

    fn a(v: f64) -> Alpha {
        Alpha::new(v).unwrap()
    }

    #[test]
    fn the_acceptance_chain_designs_a_fair_mechanism() {
        let designed = MechanismSpec::new(4, a(0.9))
            .properties(PropertySet::empty().with(Property::Fairness))
            .objective(ObjectiveKey::L0)
            .build()
            .unwrap()
            .design()
            .unwrap();
        assert_eq!(designed.choice(), Some(MechanismChoice::ExplicitFair));
        assert!(!designed.used_lp(), "EM is closed form");
        assert!(designed.requested_satisfied());
        assert!((designed.score() - closed_form::em_l0(4, a(0.9))).abs() < 1e-9);
        assert!(designed.mechanism().satisfies_dp(a(0.9), 1e-9));
    }

    #[test]
    fn build_validates_the_spec() {
        assert!(matches!(
            MechanismSpec::new(0, a(0.9)).build(),
            Err(CoreError::InvalidGroupSize { value: 0 })
        ));
        assert!(matches!(
            MechanismSpec::new(4, a(0.9)).tolerance(0.0).build(),
            Err(CoreError::InvalidSpec { .. })
        ));
        assert!(matches!(
            MechanismSpec::new(4, a(0.9)).tolerance(f64::NAN).build(),
            Err(CoreError::InvalidSpec { .. })
        ));
        assert!(matches!(
            MechanismSpec::new(4, a(0.9))
                .objective(ObjectiveKey::L0Beyond(5))
                .build(),
            Err(CoreError::InvalidDistanceThreshold { d: 5, n: 4 })
        ));
        // design() validates too, even without build().
        assert!(MechanismSpec::new(0, a(0.9)).design().is_err());
    }

    #[test]
    fn lp_designs_carry_their_provenance_and_stats() {
        let designed = MechanismSpec::new(6, a(0.9))
            .with_property(Property::ColumnMonotonicity)
            .build()
            .unwrap()
            .design()
            .unwrap();
        assert_eq!(
            designed.choice(),
            Some(MechanismChoice::WeakHonestColumnMonotoneLp)
        );
        let stats = designed.solver_stats().expect("WM runs the simplex");
        assert!(stats.pivots() > 0);
        assert!(designed.requested_satisfied());
        assert!(designed.report().holds(Property::WeakHonesty));
    }

    #[test]
    fn non_l0_objectives_bypass_the_flowchart() {
        let designed = MechanismSpec::new(4, a(0.9))
            .objective(ObjectiveKey::L1)
            .build()
            .unwrap()
            .design()
            .unwrap();
        assert_eq!(designed.choice(), None);
        assert!(designed.used_lp());
        assert!(designed.mechanism().satisfies_dp(a(0.9), 1e-6));
    }

    #[test]
    fn samplers_are_lazy_and_consistent_with_the_matrix() {
        let designed = MechanismSpec::new(5, a(0.7))
            .build()
            .unwrap()
            .design()
            .unwrap();
        let alias = designed.alias_sampler();
        for j in 0..designed.mechanism().dim() {
            let pmf = alias.implied_pmf(j);
            for (i, &mass) in pmf.iter().enumerate() {
                assert!((mass - designed.mechanism().prob(i, j)).abs() < 1e-12);
            }
        }
        // Both samplers resolve the same uniform identically where regions align.
        let cdf = designed.sampler();
        assert_eq!(cdf.dim(), designed.mechanism().dim());
    }

    #[test]
    fn serde_round_trip_is_exact() {
        for (n, alpha, properties) in [
            (4usize, 0.9, PropertySet::empty()),
            (5, 0.62, PropertySet::empty().with(Property::Fairness)),
            (
                6,
                0.9,
                PropertySet::empty().with(Property::ColumnMonotonicity),
            ),
        ] {
            let designed = MechanismSpec::new(n, a(alpha))
                .properties(properties)
                .build()
                .unwrap()
                .design()
                .unwrap();
            let text = serde_json::to_string(&designed).unwrap();
            let back: DesignedMechanism = serde_json::from_str(&text).unwrap();
            assert_eq!(back, designed, "n={n} α={alpha}");
            assert_eq!(back.key(), designed.key());
            // Matrix is bit-for-bit identical.
            assert_eq!(back.mechanism().entries(), designed.mechanism().entries());
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected_on_deserialisation() {
        let designed = MechanismSpec::new(3, a(0.8))
            .build()
            .unwrap()
            .design()
            .unwrap();
        let serde::Value::Object(pairs) = designed.to_value() else {
            panic!("expected object");
        };
        // Corrupt the matrix entries: zero out the first column.
        let mut corrupted = pairs.clone();
        for (name, value) in corrupted.iter_mut() {
            if name == "mechanism" {
                let serde::Value::Object(matrix_fields) = value else {
                    panic!("matrix must be an object")
                };
                for (field, entries) in matrix_fields.iter_mut() {
                    if field == "entries" {
                        *entries = vec![0.0f64; 16].to_value();
                    }
                }
            }
        }
        let result = DesignedMechanism::from_value(&serde::Value::Object(corrupted));
        assert!(result.is_err(), "an all-zero matrix must be rejected");

        // A matrix whose size contradicts the spec is rejected too.
        let other = MechanismSpec::new(4, a(0.8))
            .build()
            .unwrap()
            .design()
            .unwrap();
        let mut mismatched = pairs;
        for (name, value) in mismatched.iter_mut() {
            if name == "mechanism" {
                *value = other.mechanism().to_value();
            }
        }
        assert!(DesignedMechanism::from_value(&serde::Value::Object(mismatched)).is_err());
    }

    #[test]
    fn spec_keys_distinguish_every_component_and_collide_on_equal_floats() {
        use std::collections::HashSet;
        let alpha = a(0.9);
        let mut set = HashSet::new();
        set.insert(SpecKey::new(8, alpha, PropertySet::empty()));
        // Same α parsed a second way collides (bit equality).
        let reparsed = a("0.9".parse::<f64>().unwrap());
        assert!(!set.insert(SpecKey::new(8, reparsed, PropertySet::empty())));
        // Changing any component yields a fresh key.
        assert!(set.insert(SpecKey::new(9, alpha, PropertySet::empty())));
        assert!(set.insert(SpecKey::new(8, a(0.91), PropertySet::empty())));
        assert!(set.insert(SpecKey::new(
            8,
            alpha,
            PropertySet::empty().with(Property::WeakHonesty)
        )));
        assert!(set.insert(SpecKey::with_objective(
            8,
            alpha,
            PropertySet::empty(),
            ObjectiveKey::L1
        )));
    }

    #[test]
    fn spec_key_and_spec_serde_round_trip() {
        let key = SpecKey::with_objective(
            12,
            a(10.0 / 11.0),
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::Symmetry),
            ObjectiveKey::L0Beyond(2),
        );
        let text = serde_json::to_string(&key).unwrap();
        let back: SpecKey = serde_json::from_str(&text).unwrap();
        assert_eq!(back, key);

        let spec = key.spec().tolerance(1e-8).build().unwrap();
        let text = serde_json::to_string(&spec).unwrap();
        let back: MechanismSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.key(), key);

        // An invalid spec is a deserialisation error, not a live value.
        let bad = r#"{"n":0,"alpha":0.9,"properties":"","objective":"L0"}"#;
        assert!(serde_json::from_str::<MechanismSpec>(bad).is_err());
        let bad_alpha = r#"{"n":4,"alpha":1.5,"properties":"","objective":"L0"}"#;
        assert!(serde_json::from_str::<SpecKey>(bad_alpha).is_err());
    }
}

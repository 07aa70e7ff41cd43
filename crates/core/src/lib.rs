//! # cpm-core — Constrained Private Mechanisms for Count Data
//!
//! This crate implements the core contribution of *"Constrained Private Mechanisms
//! for Count Data"* (Cormode, Kulkarni, Srivastava — ICDE 2018): the design of
//! α-differentially-private mechanisms for releasing the count of a group of `n`
//! individuals, with structural constraints that rule out the pathologies (output
//! gaps and spikes) of plain loss-minimising designs.
//!
//! ## What's here
//!
//! * [`Mechanism`] — the `(n+1) × (n+1)` column-stochastic matrix representation of a
//!   count mechanism (Definition 1), with DP verification (Definition 2).
//! * [`Alpha`] — the privacy parameter `α = exp(−ε)`.
//! * [`Property`] / [`PropertySet`] — the seven structural properties of Section IV-A
//!   (row/column honesty and monotonicity, fairness, weak honesty, symmetry) with
//!   their implication lattice.
//! * [`Objective`], [`rescaled_l0`], [`rescaled_l0_d`] — the loss functions of
//!   Definition 3 and the rescaled `L0` / `L0,d` scores of Eq. (1).
//! * [`mechanisms`] — explicit constructions: the truncated Geometric Mechanism
//!   ([`GeometricMechanism`], Definition 4), the paper's new Explicit Fair Mechanism
//!   ([`ExplicitFairMechanism`], Eq. 16), the Uniform baseline, randomized response,
//!   the Exponential Mechanism, and a discretised Laplace mechanism.
//! * [`design`] — **the design entry point**: [`MechanismSpec`] (a validated builder
//!   with a canonical serde form and a bit-exact [`SpecKey`]) and the
//!   [`DesignedMechanism`] artifact it produces (matrix + provenance + solver stats +
//!   achieved-property report + lazily-built samplers, serde round-trippable).
//! * [`lp`] — the BASICDP linear program (Eqs. 3–6) plus any subset of the structural
//!   properties (Theorem 2), solved with the workspace's own simplex solver.  This is
//!   the low-level escape hatch for objectives outside the [`ObjectiveKey`] family
//!   (explicit priors, the minimax aggregator).
//! * [`selection`] — the Figure 5 flowchart collapsing the 128 property combinations
//!   to at most four distinct mechanisms.
//! * [`symmetrize`] — the Theorem 1 symmetrisation construction.
//! * [`derivability`] — the Gupte–Sundararajan "derivable from GM" test.
//! * [`sampling`] — drawing private outputs from a mechanism (and directly from GM).
//! * [`closed_form`] — analytic scores used as oracles and fast paths.
//!
//! ## Example: designing a constrained mechanism
//!
//! Every design goes through one typed entry point: a [`MechanismSpec`] is
//! validated at `build()` and produces a [`DesignedMechanism`] carrying the
//! matrix together with its provenance.
//!
//! ```
//! use cpm_core::prelude::*;
//!
//! let alpha = Alpha::new(0.9).unwrap();
//! let n = 4;
//!
//! // The unconstrained L0-optimal mechanism is the Geometric Mechanism ...
//! let gm = GeometricMechanism::new(n, alpha).unwrap();
//! // ... but it is not even weakly honest at this privacy level (Lemma 2).
//! assert!(!Property::WeakHonesty.holds(gm.matrix(), 1e-9));
//!
//! // Ask the design path for a fair mechanism instead: the Figure-5 flowchart
//! // picks the Explicit Fair Mechanism, no LP required.
//! let designed = MechanismSpec::new(n, alpha)
//!     .properties(PropertySet::empty().with(Property::Fairness))
//!     .build()
//!     .unwrap()
//!     .design()
//!     .unwrap();
//! assert_eq!(designed.choice(), Some(MechanismChoice::ExplicitFair));
//! assert!(!designed.used_lp());
//! assert!(designed.requested_satisfied());
//! assert!(PropertySet::all().all_hold(designed.mechanism(), 1e-9));
//!
//! // The artifact knows its own price: the rescaled-L0 cost of all seven
//! // properties is tiny relative to GM's optimum (Figure 6).
//! let loss_gm = rescaled_l0(gm.matrix());
//! assert!(designed.score() <= loss_gm * (1.0 + 1.0 / n as f64) + 1e-9);
//!
//! // The spec round-trips through JSON with a bit-exact cache key — the basis
//! // of the serving cache's snapshot files.
//! let text = serde_json::to_string(designed.spec()).unwrap();
//! let back: MechanismSpec = serde_json::from_str(&text).unwrap();
//! assert_eq!(back.key(), designed.key());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod closed_form;
pub mod derivability;
pub mod design;
pub mod error;
pub mod linalg;
pub mod lp;
pub mod matrix;
pub mod mechanisms;
pub mod objective;
pub mod properties;
pub mod sampling;
pub mod selection;
pub mod symmetrize;

pub use alpha::{Alpha, AlphaKey};
pub use design::{DesignedMechanism, MechanismSpec, SpecKey, DEFAULT_PROPERTY_TOLERANCE};
pub use error::CoreError;
pub use linalg::LuFactors;
pub use matrix::{Mechanism, DEFAULT_TOLERANCE};
pub use mechanisms::{
    BinaryRandomizedResponse, ExplicitFairMechanism, ExponentialMechanism, GeometricMechanism,
    LaplaceMechanism, NaryRandomizedResponse, UniformMechanism,
};
pub use objective::{
    rescaled_l0, rescaled_l0_d, Aggregator, LossKind, Objective, ObjectiveKey, Prior,
};
pub use properties::{Property, PropertyReport, PropertySet};
pub use sampling::{AliasSampler, MechanismSampler};
pub use selection::MechanismChoice;

/// Commonly used items, re-exported for `use cpm_core::prelude::*`.
pub mod prelude {
    pub use crate::alpha::{Alpha, AlphaKey};
    pub use crate::closed_form;
    pub use crate::derivability::{derivability_violations, is_derivable_from_geometric};
    pub use crate::design::{
        DesignedMechanism, MechanismSpec, SpecKey, DEFAULT_PROPERTY_TOLERANCE,
    };
    pub use crate::error::CoreError;
    pub use crate::linalg::LuFactors;
    pub use crate::lp::{
        optimal_constrained, optimal_unconstrained, wm_properties, DesignProblem, DesignSolution,
    };
    pub use crate::matrix::{Mechanism, DEFAULT_TOLERANCE};
    pub use crate::mechanisms::{
        BinaryRandomizedResponse, ExplicitFairMechanism, ExponentialMechanism, GeometricMechanism,
        LaplaceMechanism, NaryRandomizedResponse, UniformMechanism,
    };
    pub use crate::objective::{
        rescaled_l0, rescaled_l0_d, Aggregator, LossKind, Objective, ObjectiveKey, Prior,
    };
    pub use crate::properties::{Property, PropertyReport, PropertySet};
    pub use crate::sampling::{sample_geometric_direct, AliasSampler, MechanismSampler};
    pub use crate::selection::{self, select_mechanism, MechanismChoice};
    pub use crate::symmetrize::{reflect, symmetrize};
}

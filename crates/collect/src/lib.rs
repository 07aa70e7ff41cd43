//! # cpm-collect — report collection and frequency estimation
//!
//! The consuming half of the local-differential-privacy loop.  `cpm-serve`
//! designs mechanisms and privatizes draws; this crate ingests the resulting
//! *reports* — (mechanism key, privatized output) pairs, never true inputs —
//! and inverts the designed mechanism matrix to recover unbiased estimates of
//! the true input-frequency histogram, with plug-in variances and confidence
//! intervals (the paper's Section V error machinery promoted from offline
//! evaluation to an online estimator).
//!
//! ```text
//!  clients                    collector
//!  ───────                    ─────────
//!  draw ~ M(·|input) ──report──▶ wire::decode_batch      (b"CPMR" frames)
//!                                   │
//!                                   ▼
//!                              ReportCollector            (lock-striped,
//!                                   │ observed()           atomic counters)
//!                                   ▼
//!                              estimator::estimate_from_design
//!                                   │ t̂ = M⁻¹·o, Var̂, CIs
//!                                   ▼
//!                              snapshot::write_file        (atomic tmp-rename)
//! ```
//!
//! * [`wire`] — the fixed-size binary report format (20-byte records under a
//!   versioned batch header) that rides the serve front end's length-prefixed
//!   framing; every field validated on decode, every key against the
//!   workspace's one key rule, [`cpm_wire::check_key`], which the
//!   accumulator applies too.
//! * [`accumulator`] — [`ReportCollector`]: per-key output histograms sharded
//!   like the design cache, one shard-lock acquisition per batch and one
//!   relaxed atomic add per report, with saturating cross-collector merge.
//! * [`estimator`] — the matrix-inversion estimator over a
//!   [`DesignedMechanism`](cpm_core::DesignedMechanism)'s cached inverse,
//!   plus the closed-form [`expected_rmse`] oracle the end-to-end tests
//!   assert against.
//! * [`snapshot`] — periodic [`EstimateSnapshot`] persistence with the same
//!   atomic tmp-rename discipline as `cpm_serve::snapshot`.
//!
//! The serve front end exposes the pipeline over the wire as binary report
//! frames plus JSON `{"op":"report"}` / `{"op":"estimate"}` — see
//! `cpm_serve::frontend` for the grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod estimator;
pub mod snapshot;
pub mod wire;

pub use accumulator::{
    CollectorStats, IngestSummary, ReportCollector, DEFAULT_MAX_KEYS, DEFAULT_SHARDS,
};
pub use estimator::{
    estimate, estimate_from_design, estimate_with_inverse, expected_rmse, FrequencyEstimates,
};
pub use snapshot::EstimateSnapshot;
pub use wire::{Report, WireError, REPORT_MAGIC, WIRE_VERSION};

/// Commonly used items, re-exported for `use cpm_collect::prelude::*`.
pub mod prelude {
    pub use crate::accumulator::{CollectorStats, IngestSummary, ReportCollector};
    pub use crate::estimator::{
        estimate, estimate_from_design, estimate_with_inverse, expected_rmse, FrequencyEstimates,
    };
    pub use crate::snapshot::EstimateSnapshot;
    pub use crate::wire::{self, Report, WireError};
}

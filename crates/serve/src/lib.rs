//! # cpm-serve — the mechanism-serving subsystem
//!
//! The paper's deliverable is a *mechanism*: a column-stochastic matrix that,
//! once designed (via LP or closed form), privatizes group counts one draw at a
//! time.  The rest of the workspace designs matrices and runs offline
//! experiments; this crate serves draws under load.  Design is expensive
//! (seconds of simplex) but perfectly amortizable — real deployments ask for the
//! same `(n, α, properties, objective)` design millions of times — while a draw
//! through an alias table costs `O(1)`.
//!
//! ## Request path
//!
//! ```text
//!            ┌────────────────────────── cpm-serve ──────────────────────────┐
//!            │                                                               │
//!  request   │  ┌───────────────┐      ┌──────────────────┐                  │
//!  (n, α,  ──┼─▶│ SpecKey       │─────▶│   DesignCache    │── miss ──┐       │
//!  props,    │  │ (bit-exact α  │      │ sharded stripes, │          ▼       │
//!  obj,      │  │  via AlphaKey)│      │ single-flight,   │   ┌─────────────┐│
//!  count j)  │  └───────────────┘      │ LRU, warm()      │   │ Figure-5    ││
//!            │                         └────────┬─────────┘   │ selection / ││
//!            │                                  │ hit         │ WM LP solve ││
//!            │                                  ▼             │ (cpm-core + ││
//!            │                         ┌──────────────────┐   │ cpm-simplex)││
//!            │                         │ Arc<Designed-    │◀──┴─────────────┘│
//!            │                         │   Mechanism>     │                  │
//!            │                         │ matrix + stats + │                  │
//!            │                         │ lazy samplers    │                  │
//!            │                         └────────┬─────────┘                  │
//!            │                                  │                            │
//!            │                                  ▼                            │
//!            │                         ┌──────────────────┐                  │
//!  output  ◀─┼─────────────────────────│ AliasSampler     │                  │
//!  (draw i)  │                         │ O(1) Walker/Vose │                  │
//!            │                         │ draw, column j   │                  │
//!            │                         └──────────────────┘                  │
//!            └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! The wire `privatize` op is one *run* — one key and the counts to draw for
//! it — and [`Engine::privatize_run`] serves it as one: one cache peek, then
//! the draws land straight in the reply, one seeded, reproducible RNG stream
//! per `min_chunk` chunk.  Mixed batches take the same path in bulk:
//! [`Engine::privatize_batch`] groups requests into runs by key, resolves
//! every distinct key through the cache (cold LP solves run concurrently on
//! the [`cpm_eval::par`] pool; concurrent requests for the *same* cold key
//! coalesce onto one solve), then hands the runs to the same sampler.
//!
//! ## Serving I/O: reactor + codec split
//!
//! The I/O stack layers a readiness-driven reactor over one transport-agnostic
//! protocol state machine, so every transport and codec shares a single
//! dispatcher:
//!
//! ```text
//!            ┌──────────────────────── crate::net ────────────────────────┐
//!            │  worker 0                      workers 1..N                │
//!            │  ┌─────────────────┐           ┌──────────────────────┐    │
//!  clients ──┼─▶│ nonblocking     │ round-    │ poll(2) over wake    │    │
//!            │  │ listener +      │──robin───▶│ pipe + owned conns   │    │
//!            │  │ poll(2) + conns │ injection │ (buffers, idle reap) │    │
//!            │  └────────┬────────┘  queues   └──────────┬───────────┘    │
//!            └───────────┼────────────────────────────────┼───────────────┘
//!                        │ raw bytes in / response bytes out
//!                        ▼                                ▼
//!            ┌─────────────────────── crate::proto ───────────────────────┐
//!            │  ProtoConnection: sniff ─▶ frame ─▶ decode ─▶ dispatch     │
//!            │                                                            │
//!            │  first bytes:  "GET "  ──▶ HTTP GET /metrics (one-shot)    │
//!            │  frame payload: b"CPMF" ─▶ compact binary codec (cpm-wire) │
//!            │                 b"CPMR" ─▶ binary report batch             │
//!            │                 else    ─▶ JSON (WireRequest/WireResponse) │
//!            │                                                            │
//!            │  every codec ──▶ Op ──▶ dispatch_op(engine) ──▶ response   │
//!            │  (report ops pass a per-connection token bucket first)     │
//!            └────────────────────────────────────────────────────────────┘
//!                        ▲
//!                        │ blocking Read/Write adapter
//!            ┌───────────┴───────────┐
//!            │ crate::frontend::serve_connection (stdio bin, tests)       │
//!            └────────────────────────────────────────────────────────────┘
//! ```
//!
//! ## Pieces
//!
//! * [`key`] — re-exports the cache identity, [`cpm_core::SpecKey`]: the
//!   bit-exact projection of a [`cpm_core::MechanismSpec`].  The serving layer
//!   no longer defines its own key type.
//! * [`cache`] — [`DesignCache`]: lock-striped, single-flight, LRU-bounded,
//!   storing `Arc<DesignedMechanism>` artifacts, with [`DesignCache::warm`]
//!   precomputation, hit/miss/solve counters, and snapshot
//!   save/load persistence.
//! * [`engine`] — [`Engine`]: run-shaped privatization (one key, many
//!   inputs, drawn in place) with per-batch [`BatchStats`] (hits, misses,
//!   design time, sample time); mixed-key request batches are grouped into
//!   runs first.
//! * [`proto`] — the transport-agnostic protocol state machine: bytes in,
//!   response bytes out.  One dispatcher serves three frame codecs (JSON,
//!   compact `b"CPMF"` binary, `b"CPMR"` report batches) plus a content-
//!   negotiated `GET /metrics` HTTP mode, with per-connection report rate
//!   limiting.  A `privatize` op goes to [`Engine::privatize_run`] as it
//!   arrived, one key and its inputs, without a request per input.
//! * [`frontend`] — the blocking `Read`/`Write` adapter over [`proto`] (the
//!   `serve_stdio` binary serves stdin/stdout) and the JSON request/response
//!   types.
//! * [`net`] — the poll(2) reactor serving [`proto`] over TCP / unix sockets
//!   (the `serve_tcp` binary): a fixed worker set owns every connection, so
//!   concurrency is bounded by file descriptors, not threads.
//! * [`boot`] — environment-driven start-up: `CPM_SERVE_WARM` key specs and
//!   `CPM_WARM_FILE` snapshot load/save shared by the binaries, plus the
//!   `CPM_COLLECT_FLUSH_SECS` background estimate-snapshot flusher.
//! * [`snapshot`] — offline snapshot-file helpers (read / atomic write /
//!   merge / [`snapshot::KeyFilter`]) behind the `cpm-snapshot` inspector
//!   binary, for stitching warm files together between runs.
//! * [`workload`] — hot-key / Zipf-mix / cold-storm request generators shared
//!   by the `serve_probe` bin, the `serving_throughput` bench, and the demo.
//!
//! ## The collect loop
//!
//! Serving draws is half of a local-differential-privacy deployment; the
//! other half is *collecting* the privatized outputs and estimating the true
//! input-frequency histogram.  Every [`Engine`] owns a
//! [`cpm_collect::ReportCollector`] ([`Engine::collector`]); reports reach it
//! three ways:
//!
//! * binary `b"CPMR"` report frames on any front-end connection (the
//!   line-rate path — see [`frontend`] for the grammar);
//! * the JSON `{"op":"report"}` fallback;
//! * engine loopback — [`Engine::set_collecting`] (or
//!   `CPM_COLLECT_OUTPUTS=1`) makes every privatize feed its own outputs
//!   straight into the collector, closing the loop in one process.
//!
//! `{"op":"estimate"}` then inverts the designed mechanism matrix over the
//! accumulated histogram (`cpm_collect::estimate_from_design`, inverse cached
//! on the [`cpm_core::DesignedMechanism`]) and returns unbiased estimates
//! with plug-in variances.
//!
//! ## Observability
//!
//! Every layer above reports into the [`cpm_obs`] telemetry crate: the cache
//! keeps live hit/miss/evict/coalesce counters and a resident-entries gauge,
//! the engine records per-batch and per-chunk latency histograms, the wire
//! front end counts and times each op (and answers the `metrics` op with a
//! Prometheus-style scrape of the whole registry), the TCP listener tracks
//! connection lifecycle, and boot times snapshot load/save.  Tracing is gated
//! by `CPM_TRACE`, periodic stderr scrapes by `CPM_METRICS_DUMP`, and the
//! whole subsystem by `CPM_OBS=0`.  See the `cpm-obs` front page for the full
//! metric catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod cache;
pub mod engine;
pub mod error;
pub mod frontend;
pub mod key;
pub mod net;
pub mod proto;
pub mod snapshot;
pub mod workload;

pub use cache::{CacheStats, DesignCache, Lookup};
pub use engine::{BatchOutcome, BatchStats, Engine, EngineConfig, Request};
pub use error::ServeError;
pub use frontend::{serve_connection, ConnectionSummary, WireRequest, WireResponse};
pub use key::{ObjectiveKey, SpecKey};
pub use net::{Server, ServerSummary};
pub use proto::{Op, ProtoConfig, ProtoConnection};

/// Commonly used items, re-exported for `use cpm_serve::prelude::*`.
pub mod prelude {
    pub use crate::boot::{bootstrap, BootReport};
    pub use crate::cache::{CacheStats, DesignCache, Lookup};
    pub use crate::engine::{BatchOutcome, BatchStats, Engine, EngineConfig, Request};
    pub use crate::error::ServeError;
    pub use crate::frontend::{serve_connection, ConnectionSummary};
    pub use crate::key::{ObjectiveKey, SpecKey};
    pub use crate::net::{Server, ServerSummary};
    pub use crate::workload::{hot_key_requests, zipf_requests};
    pub use cpm_core::{DesignedMechanism, MechanismSpec};
}

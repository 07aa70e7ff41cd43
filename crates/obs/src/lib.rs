//! # cpm-obs — observability substrate for the constrained-private-mechanism stack
//!
//! Zero-dependency telemetry shared by every runtime crate: a global
//! [`metrics`] registry (atomic counters / gauges / log2 latency histograms
//! with a Prometheus-style text renderer), RAII [`trace`] spans with an
//! env-gated structured logger, and a [`flight`] recorder ring buffer dumped
//! to stderr on terminal failures.
//!
//! ## Switches and environment variables
//!
//! | Variable | Effect |
//! |---|---|
//! | `CPM_OBS=0` / `off` / `false` | Master kill switch: every counter/gauge/histogram update, span, and flight record becomes a single relaxed load (the "uninstrumented floor" the overhead test measures against). Defaults to on. |
//! | `CPM_TRACE=level[:t1,t2]` | Stderr verbosity (`off`\|`error`\|`info`\|`debug`), optionally restricted to the listed targets (`simplex`, `cache`, `engine`, `net`, `boot`, `wire`). Default `off`. Flight recording is independent of this level. |
//! | `CPM_METRICS_DUMP=secs` | Spawn a background thread that prints the full metrics exposition to stderr every `secs` seconds (disabled when unset/0/unparseable). |
//!
//! ## Metrics catalogue
//!
//! All histograms record **nanoseconds** unless the name says otherwise.
//! Labels are baked into the registered name (`family{label="value"}`).
//!
//! | Name | Type | Labels | Meaning |
//! |---|---|---|---|
//! | `cpm_flight_dumps_total` | counter | — | Flight-recorder dumps emitted (breakdowns, poisonings, frontend errors). |
//! | `cpm_lp_solves_total` | counter | `form` (`primal`/`dual`) | LP solves completed by `cpm-simplex`, by formulation. |
//! | `cpm_lp_crash_seeded_total` | counter | — | Solves that started from a closed-form geometric crash basis. |
//! | `cpm_lp_warm_started_total` | counter | — | Solves warm-started from a cached basis. |
//! | `cpm_lp_pivots_total` | counter | `phase` (`primal`/`dual`) | Simplex pivots, by phase. |
//! | `cpm_lp_refactorizations_total` | counter | — | Basis refactorizations (periodic + triggered). |
//! | `cpm_lp_repairs_total` | counter | — | Numerical repairs that recovered. |
//! | `cpm_lp_breakdowns_total` | counter | — | Terminal numerical breakdowns (each also dumps the flight recorder). |
//! | `cpm_lp_solve_nanos` | histogram | `form` | Wall time per LP solve. |
//! | `cpm_design_solves_total` | counter | `kind` (`flowchart`/`lp`) | Mechanism designs, split closed-form selection vs LP. |
//! | `cpm_design_nanos` | histogram | — | Wall time per mechanism design. |
//! | `cpm_cache_hits_total` | counter | — | Design-cache hits. |
//! | `cpm_cache_misses_total` | counter | — | Design-cache misses (includes coalesced waiters). |
//! | `cpm_cache_coalesced_total` | counter | — | Requests that waited on another thread's in-flight design. |
//! | `cpm_cache_evictions_total` | counter | — | LRU evictions. |
//! | `cpm_cache_warm_seeded_total` | counter | — | Designs warm-started from an α-neighbour basis. |
//! | `cpm_cache_resident_entries` | gauge | — | Entries currently resident across all shards. |
//! | `cpm_cache_wait_nanos` | histogram | — | Time spent blocked on single-flight coalescing. |
//! | `cpm_engine_batches_total` | counter | — | Privatize batches served. |
//! | `cpm_engine_draws_total` | counter | — | Noise draws produced. |
//! | `cpm_engine_batch_nanos` | histogram | — | End-to-end latency per privatize batch. |
//! | `cpm_engine_chunk_nanos` | histogram | — | Latency per per-thread sampling chunk (the thread-scaling probe reads this). |
//! | `cpm_net_connections_total` | counter | — | Connections accepted. |
//! | `cpm_net_rejections_total` | counter | — | Connections rejected at the configured connection ceiling. |
//! | `cpm_net_active_connections` | gauge | — | Currently open connections. |
//! | `cpm_net_workers` | gauge | — | Reactor worker threads serving all connections. |
//! | `cpm_net_bytes_in_total` | counter | — | Bytes read from client sockets. |
//! | `cpm_net_bytes_out_total` | counter | — | Response bytes written to client sockets. |
//! | `cpm_net_idle_closed_total` | counter | — | Connections reaped by the idle timeout. |
//! | `cpm_net_conn_errors_total` | counter | — | Connections torn down by I/O or protocol error (each dumps the flight recorder). |
//! | `cpm_net_frame_decode_errors_total` | counter | — | Frames refused as undecodable (bad JSON, malformed `CPMF`/`CPMR`). |
//! | `cpm_wire_requests_total` | counter | `op` | Wire requests dispatched, by op (`privatize`, `warm`, `stats`, `metrics`, ...). |
//! | `cpm_wire_op_nanos` | histogram | `op` | Dispatch latency per wire op. |
//! | `cpm_report_rate_limited_total` | counter | — | Reports refused by the per-connection `CPM_REPORT_RATE` token bucket. |
//! | `cpm_http_requests_total` | counter | — | HTTP requests served (the `GET /metrics` endpoint). |
//! | `cpm_collect_flushes_total` | counter | — | Background estimate-snapshot flushes completed. |
//! | `cpm_collect_flush_errors_total` | counter | — | Flush passes (or per-key estimates) that failed. |
//! | `cpm_collect_flush_nanos` | histogram | — | Wall time per estimate-snapshot flush. |
//! | `cpm_boot_snapshot_load_nanos` | histogram | — | Warm-file snapshot load time at boot. |
//! | `cpm_boot_snapshot_save_nanos` | histogram | — | Warm-file snapshot save time at shutdown. |
//! | `cpm_boot_warm_keys_total` | counter | — | Keys pre-warmed at boot (file + `CPM_SERVE_WARM`). |
//! | `cpm_cache_shard_resident` | gauge | `shard` | Ready designs resident per cache stripe (closed label set — one per stripe). |
//! | `cpm_collect_reports_total` | counter | — | Privatized reports accepted by the collector. |
//! | `cpm_collect_rejected_total` | counter | — | Reports dropped as out of range for their key. |
//! | `cpm_collect_batches_total` | counter | — | Report batches ingested. |
//! | `cpm_collect_keys` | gauge | — | Distinct mechanism keys with resident accumulators. |
//! | `cpm_collect_ingest_nanos` | histogram | — | Wall time per ingested batch. |
//! | `cpm_collect_estimates_total` | counter | — | Frequency estimations performed. |
//! | `cpm_collect_estimate_nanos` | histogram | — | Wall time per estimation (matrix inverse cached on the design). |
//!
//! ## Scraping
//!
//! The serve frontend exposes the exposition over the wire protocol:
//! `{"op":"metrics"}` returns it in the response's `metrics` field — see
//! `cpm_serve::frontend` for the grammar and an example scrape.

pub mod flight;
pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, registry, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use trace::{now_nanos, Level, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let off = std::env::var("CPM_OBS")
            .map(|v| {
                matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "off" | "false"
                )
            })
            .unwrap_or(false);
        AtomicBool::new(!off)
    })
}

/// Whether instrumentation is live.  When false every record/span/event is a
/// near-free early return — this is the floor the ≤5% overhead budget is
/// measured against.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Flip the master switch at runtime (used by the overhead smoke test to
/// compare instrumented vs floor in one process).
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Emit an `error`-level event (always flight-recorded; printed when
/// `CPM_TRACE` admits it).
pub fn error(target: &'static str, message: String) {
    trace::event(Level::Error, target, message);
}

/// Emit an `info`-level event.
pub fn info(target: &'static str, message: String) {
    trace::event(Level::Info, target, message);
}

/// Resolve a counter once per call site and operate on it.
///
/// ```
/// cpm_obs::counter!("cpm_cache_hits_total").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolve a gauge once per call site and operate on it.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Resolve a histogram once per call site and operate on it.
///
/// ```
/// cpm_obs::histogram!("cpm_engine_batch_nanos").record(1_500);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<&'static $crate::Histogram> = std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Open an RAII span over the rest of the enclosing scope:
/// `let _span = span!("simplex", "lp_solve");`
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr) => {
        $crate::SpanGuard::enter($target, $name)
    };
}

/// If `CPM_METRICS_DUMP=secs` is set to a positive integer, spawn a background
/// thread printing the metrics exposition to stderr on that period.  Idempotent
/// (only the first call spawns); returns whether the dumper is running.
pub fn start_metrics_dump_from_env() -> bool {
    static STARTED: OnceLock<bool> = OnceLock::new();
    *STARTED.get_or_init(|| {
        let Some(secs) = std::env::var("CPM_METRICS_DUMP")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&s| s > 0)
        else {
            return false;
        };
        std::thread::Builder::new()
            .name("cpm-metrics-dump".to_string())
            .spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_secs(secs));
                eprintln!(
                    "=== cpm metrics dump (t={:.1}s) ===\n{}=== end metrics dump ===",
                    now_nanos() as f64 / 1e9,
                    registry().render()
                );
            })
            .is_ok()
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_a_static_handle() {
        let first = counter!("obs_lib_test_total");
        first.inc();
        let second = counter!("obs_lib_test_total");
        assert!(std::ptr::eq(first, second));
        if crate::enabled() {
            assert_eq!(second.get(), 1);
        }
        let h = histogram!("obs_lib_test_nanos");
        h.record(42);
        let g = gauge!("obs_lib_test_gauge");
        g.set(-3);
        let text = crate::registry().render();
        assert!(text.contains("obs_lib_test_total"));
        assert!(text.contains("obs_lib_test_nanos"));
        assert!(text.contains("obs_lib_test_gauge"));
    }

    #[test]
    fn set_enabled_round_trips() {
        // Other tests in this binary rely on the switch being on, so restore it.
        let was = crate::enabled();
        crate::set_enabled(false);
        assert!(!crate::enabled());
        crate::set_enabled(true);
        assert!(crate::enabled());
        crate::set_enabled(was);
    }
}

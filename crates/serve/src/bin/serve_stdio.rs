//! The stdin/stdout mechanism server: length-prefixed frames in, frames out
//! (see [`cpm_serve::proto`] for the protocol — JSON, compact `CPMF` binary,
//! and `CPMR` report batches all share the framing).
//!
//! Configuration comes from the environment (`CPM_SERVE_CAPACITY`,
//! `CPM_SERVE_SEED`, `CPM_COLLECT_OUTPUTS`, plus `CPM_THREADS` for the
//! sampling pool; see [`EngineConfig::from_env`]).  Keys listed in
//! `CPM_SERVE_WARM` (semicolon-separated `n:alpha:properties[:objective]`
//! specs, e.g. `32:0.9:WH+CM;64:0.9:`) are designed before the first frame
//! is read, and a `CPM_WARM_FILE` snapshot is loaded before / written after warming (see
//! [`cpm_serve::boot`]), so restarts pay deploy-time I/O instead of
//! first-request LP solves.  `CPM_COLLECT_FLUSH_SECS` starts the background
//! estimate-snapshot flusher; `CPM_REPORT_RATE` rate-limits report ingestion.

use std::io;
use std::sync::Arc;

use cpm_serve::boot::start_flusher_from_env;
use cpm_serve::prelude::*;

fn main() -> io::Result<()> {
    let engine = Arc::new(Engine::new(EngineConfig::from_env()));
    bootstrap(&engine)?;
    let _flusher = start_flusher_from_env(&engine);

    let stdin = io::stdin();
    let stdout = io::stdout();
    let summary = serve_connection(&engine, &mut stdin.lock(), &mut stdout.lock())?;
    let stats = engine.cache_stats();
    eprintln!(
        "cpm-serve: connection closed after {} frame(s), {} draw(s); cache: {} hits, {} misses, {} designs, {} preloaded",
        summary.frames, summary.draws, stats.hits, stats.misses, stats.design_solves, stats.preloaded,
    );
    Ok(())
}

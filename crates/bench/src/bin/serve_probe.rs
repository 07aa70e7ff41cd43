//! Serving probe: sweep batch size × thread count × key diversity through the
//! `cpm-serve` engine and print draws/sec per cell — the serving counterpart of
//! `backend_scaling`.  Quicker and more informative for tuning than the
//! statistical Criterion bench.
//!
//! Three key-diversity scenarios per (batch, threads) cell:
//!
//! * `hot`   — one resident GM key (pure sampling throughput);
//! * `zipf`  — a Zipf(1.1) mix over 16 keys, all resident (cache-hit path under
//!   realistic skew);
//! * `storm` — the cache is cleared first, so the batch pays its own design
//!   cost, LP keys included (cold-start amortisation + single flight).
//!
//! After the grid, a **thread-scaling curve** re-runs the hot scenario per
//! thread count and reads the engine's own `cpm_engine_chunk_nanos` /
//! `cpm_engine_batch_nanos` telemetry (histogram deltas per cell) — per-chunk
//! p50/p99 shows whether extra threads shrink the work each one does or just
//! add scheduling noise.  On a single-CPU host the sweep degenerates to one
//! row (and says so) rather than failing.
//!
//! After that, an **α-sweep storm** times a cold start over eight α values
//! of one `(n, properties, objective)` family, each designed from its own
//! seed.
//!
//! Overrides: `CPM_SERVE_BATCHES=10000,100000` (batch sizes),
//! `CPM_SERVE_THREAD_SWEEP=1,2,8` (thread counts), `--full` widens both sweeps;
//! `CPM_SERVE_SWEEP_N` (default 32) sizes the α-sweep storm.
//! Thread counts are applied by setting `CPM_THREADS` before each cell, so set
//! nothing else that reads it while the probe runs.

use std::time::Instant;

use cpm_bench::cli::FigureOptions;
use cpm_core::{Alpha, Property, PropertySet};
use cpm_serve::prelude::*;
use cpm_serve::workload;

fn env_list(name: &str) -> Option<Vec<usize>> {
    let list = std::env::var(name).ok()?;
    let parsed: Vec<usize> = list
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    if parsed.is_empty() {
        eprintln!("warning: {name}={list:?} has no parsable entries; using the default sweep");
        None
    } else {
        Some(parsed)
    }
}

/// The key mix: rank 0 is a hot unconstrained GM; deeper ranks alternate
/// closed-form and LP-designed (WH / CM) keys over several group sizes.
fn key_mix(count: usize) -> Vec<SpecKey> {
    let alpha = Alpha::new(0.9).unwrap();
    let properties = [
        PropertySet::empty(),
        PropertySet::empty().with(Property::WeakHonesty),
        PropertySet::empty().with(Property::ColumnMonotonicity),
        PropertySet::empty().with(Property::Fairness),
    ];
    (0..count)
        .map(|rank| {
            let n = [32, 16, 24, 8, 12][rank % 5];
            SpecKey::new(n, alpha, properties[rank % properties.len()])
        })
        .collect()
}

fn main() {
    let options = FigureOptions::from_env();
    let batches = env_list("CPM_SERVE_BATCHES").unwrap_or_else(|| {
        if options.full {
            vec![1_000, 10_000, 100_000, 1_000_000]
        } else {
            vec![10_000, 100_000]
        }
    });
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = env_list("CPM_SERVE_THREAD_SWEEP").unwrap_or_else(|| {
        let mut sweep = vec![1, 2, 4, 8, available];
        sweep.retain(|&t| t <= available);
        sweep.dedup();
        sweep
    });

    let keys = key_mix(16);
    println!(
        "batch | threads | scenario | unique keys | design | sample | draws/sec | hits/misses"
    );
    run_grid(&batches, &threads, &keys);
    thread_scaling(&threads, keys[0]);
    alpha_sweep_storm();
    solver_stats_attribution();
}

/// Per-key solver-stat attribution: where the LP wins come from.  The form,
/// the pivots per phase and the steepest-edge framework resets are
/// [`SolveStats`](cpm_simplex::SolveStats) counters the probe surfaces so a
/// serving regression can be traced to the responsible solver layer.
fn solver_stats_attribution() {
    let alpha = Alpha::new(0.9).unwrap();
    let n: usize = std::env::var("CPM_SERVE_SWEEP_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let families = [
        ("unconstrained", PropertySet::empty()),
        ("WH", PropertySet::empty().with(Property::WeakHonesty)),
        (
            "WH+CM",
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::ColumnMonotonicity),
        ),
    ];
    println!();
    println!("solver attribution (n = {n}) | form | pivots p1+p2 | SE resets");
    for (label, properties) in families {
        let designed = SpecKey::new(n, alpha, properties)
            .spec()
            .design()
            .expect("attribution designs must solve");
        match designed.solver_stats() {
            Some(stats) => println!(
                "{label:13} | {} | {}+{} | {}",
                stats.form,
                stats.phase1_iterations,
                stats.phase2_iterations,
                stats.steepest_edge_resets,
            ),
            None => println!("{label:13} | closed form (no LP)"),
        }
    }
}

fn run_grid(batches: &[usize], threads: &[usize], keys: &[SpecKey]) {
    for &batch_size in batches {
        for &thread_count in threads {
            std::env::set_var("CPM_THREADS", thread_count.to_string());
            for scenario in ["hot", "zipf", "storm"] {
                let engine = Engine::new(EngineConfig::default());
                let requests = match scenario {
                    "hot" => workload::hot_key_requests(keys[0], batch_size, 1),
                    _ => workload::zipf_requests(keys, 1.1, batch_size, 1),
                };
                if scenario != "storm" {
                    // Resident designs: the batch measures pure serving.
                    let unique: Vec<SpecKey> = if scenario == "hot" {
                        vec![keys[0]]
                    } else {
                        keys.to_vec()
                    };
                    engine.warm(&unique).expect("warm-up designs must succeed");
                }
                let start = Instant::now();
                match engine.privatize_batch(&requests) {
                    Ok(outcome) => {
                        let total = start.elapsed();
                        let stats = outcome.stats;
                        println!(
                            "{batch_size:7} | {thread_count:2} | {scenario:5} | {:2} | {:9.2?} | {:9.2?} | {:10.0} | {}/{}",
                            stats.unique_keys,
                            stats.design_time,
                            stats.sample_time,
                            batch_size as f64 / total.as_secs_f64(),
                            stats.cache_hits,
                            stats.cache_misses,
                        );
                    }
                    Err(error) => {
                        println!(
                            "{batch_size:7} | {thread_count:2} | {scenario:5} | failed after {:.2?}: {error}",
                            start.elapsed()
                        );
                    }
                }
            }
        }
    }
}

/// Thread-scaling curve on the hot scenario, read from the engine's own
/// telemetry: per-cell deltas of the `cpm_engine_chunk_nanos` and
/// `cpm_engine_batch_nanos` histograms.  Chunks are the unit the engine shards
/// across the pool, so chunk p50/p99 is the per-thread view of the batch —
/// ideal scaling halves chunk latency per doubling while draws/sec doubles.
fn thread_scaling(threads: &[usize], hot_key: SpecKey) {
    let batch_size: usize = std::env::var("CPM_SERVE_SCALING_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let chunk_hist = cpm_obs::registry().histogram("cpm_engine_chunk_nanos");
    let batch_hist = cpm_obs::registry().histogram("cpm_engine_batch_nanos");

    println!();
    println!(
        "thread scaling (hot key, batch = {batch_size}) | chunks | chunk p50 | chunk p99 | batch | draws/sec"
    );
    if threads.len() == 1 {
        println!("(single-thread sweep: host reports one available CPU, so the curve is one row)");
    }
    for &thread_count in threads {
        std::env::set_var("CPM_THREADS", thread_count.to_string());
        let engine = Engine::new(EngineConfig::default());
        engine.warm(&[hot_key]).expect("hot design must solve");
        let requests = workload::hot_key_requests(hot_key, batch_size, 1);
        let chunk_before = chunk_hist.snapshot();
        let batch_before = batch_hist.snapshot();
        let start = Instant::now();
        engine
            .privatize_batch(&requests)
            .expect("hot batch must privatize");
        let total = start.elapsed();
        let chunks = chunk_hist.snapshot().diff(&chunk_before);
        let batch = batch_hist.snapshot().diff(&batch_before);
        println!(
            "{thread_count:2} | {:3} | {:>9} | {:>9} | {:>9} | {:10.0}",
            chunks.count,
            format_nanos(chunks.p50()),
            format_nanos(chunks.p99()),
            format_nanos(batch.p50()),
            batch_size as f64 / total.as_secs_f64(),
        );
    }
}

/// Render an optional nanosecond quantile as a human duration.
fn format_nanos(nanos: Option<u64>) -> String {
    match nanos {
        None => "-".to_string(),
        Some(n) if n >= 1_000_000_000 => format!("{:.2}s", n as f64 / 1e9),
        Some(n) if n >= 1_000_000 => format!("{:.2}ms", n as f64 / 1e6),
        Some(n) if n >= 1_000 => format!("{:.2}us", n as f64 / 1e3),
        Some(n) => format!("{n}ns"),
    }
}

/// Cold-start storm over an α sweep of one LP family (the WM at strong
/// privacy): total design time and LP solves.
fn alpha_sweep_storm() {
    let n: usize = std::env::var("CPM_SERVE_SWEEP_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let properties = PropertySet::empty()
        .with(Property::WeakHonesty)
        .with(Property::ColumnMonotonicity);
    let sweep: Vec<SpecKey> = (0..8)
        .map(|i| {
            let alpha = 0.88 + 0.005 * i as f64;
            SpecKey::new(n, Alpha::new(alpha).unwrap(), properties)
        })
        .collect();

    println!();
    println!("alpha-sweep storm (n = {n}, WH+CM, 8 α values) | design total | LP solves");
    let engine = Engine::new(EngineConfig::default());
    let start = Instant::now();
    engine.warm(&sweep).expect("sweep designs must succeed");
    println!(
        "{:>10.2?} | {:2}",
        start.elapsed(),
        engine.cache_stats().lp_solves
    );
}

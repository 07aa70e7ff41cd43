//! The privatization engine: a run of inputs under one key → design → chunk → draw.
//!
//! The unit of work is a *run*: one [`SpecKey`] and the true counts to draw
//! for it, which is exactly what a client's wire `privatize` op carries.
//! [`Engine::privatize_run`] validates the inputs once, resolves the design
//! with one [`DesignCache::peek`] (blocking on a design or an in-flight solve
//! only when the key is not resident), and draws each `min_chunk` chunk of
//! the run straight into the reply's output vector: a warm run allocates that
//! vector and nothing else.
//!
//! [`Engine::privatize_batch`] takes a batch of [`Request`]s, which may mix
//! keys.  It groups them into runs in first-appearance order, hands the runs
//! to the same sampler and scatters the outputs back into request order;
//! cold keys of a mixed batch fan out across the [`cpm_eval::par`] worker
//! pool and coalesce via single flight.
//!
//! Chunks, not runs, are the unit of parallelism: every chunk owns a
//! dedicated RNG stream seeded from `(engine seed, batch ordinal, stream
//! ordinal)`, the streams numbered across the runs in order, so a batch's
//! outputs are a pure function of its contents and seeds — reproducible
//! regardless of how the OS schedules the workers, and identical whether the
//! batch arrived as a wire op or as requests — while distinct chunks draw
//! from decorrelated streams.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use cpm_collect::ReportCollector;
use cpm_core::{DesignedMechanism, SpecKey};

use crate::cache::{CacheStats, DesignCache, Lookup};
use crate::error::ServeError;

/// One privatization request: draw one output from the design for `key`,
/// conditioned on the true count `input`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Which mechanism design to draw from.
    pub key: SpecKey,
    /// The true count to privatise (`0..=key.n`).
    pub input: usize,
}

impl Request {
    /// Build a request.
    pub fn new(key: SpecKey, input: usize) -> Self {
        Request { key, input }
    }
}

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum resident designs in the cache.
    pub cache_capacity: usize,
    /// Base seed; every batch derives its RNG streams from this (and the batch
    /// ordinal), so two engines with the same seed replay identically.
    pub seed: u64,
    /// Minimum draws per sampling shard — below this, fan-out overhead beats the
    /// parallel speedup and the batch stays on fewer workers.
    pub min_chunk: usize,
    /// Whether privatize batches auto-feed their `(key, output)` pairs into
    /// the engine's [`ReportCollector`] (loopback collection; real LDP
    /// deployments leave this off and let clients send reports explicitly).
    pub collect_outputs: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
            seed: 0x5EED_CAFE,
            min_chunk: 4096,
            collect_outputs: false,
        }
    }
}

impl EngineConfig {
    /// Read overrides from the environment: `CPM_SERVE_CAPACITY`,
    /// `CPM_SERVE_SEED`, and `CPM_COLLECT_OUTPUTS` (`1`/`on`/`true` turns
    /// loopback collection on; each optional, falling back to the defaults).
    /// `min_chunk` keeps its default.
    pub fn from_env() -> Self {
        fn env_u64(name: &str) -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        let defaults = EngineConfig::default();
        EngineConfig {
            cache_capacity: env_u64("CPM_SERVE_CAPACITY")
                .map(|v| v as usize)
                .unwrap_or(defaults.cache_capacity),
            seed: env_u64("CPM_SERVE_SEED").unwrap_or(defaults.seed),
            collect_outputs: std::env::var("CPM_COLLECT_OUTPUTS")
                .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "on" | "true"))
                .unwrap_or(defaults.collect_outputs),
            ..defaults
        }
    }
}

/// Per-batch accounting returned alongside the outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Distinct mechanism keys in the batch.
    pub unique_keys: usize,
    /// Keys satisfied by a resident design.
    pub cache_hits: u64,
    /// Keys that waited on a design another thread was already running.
    pub coalesced: u64,
    /// Keys this batch had to design (cold misses).
    pub cache_misses: u64,
    /// The subset of misses whose design ran the simplex (closed forms excluded).
    pub lp_solves: u64,
    /// Wall-clock time of the design phase (cache lookups + any solves).
    pub design_time: Duration,
    /// Wall-clock time of the sampling phase (all draws, fan-out included).
    pub sample_time: Duration,
    /// Sampling shards the batch was split into.
    pub sample_chunks: usize,
}

impl BatchStats {
    /// Count how one key's design was resolved.
    fn count_lookup(&mut self, design: &DesignedMechanism, lookup: Lookup) {
        match lookup {
            Lookup::Hit => self.cache_hits += 1,
            Lookup::Coalesced => self.coalesced += 1,
            Lookup::Designed => {
                self.cache_misses += 1;
                if design.used_lp() {
                    self.lp_solves += 1;
                }
            }
        }
    }

    /// Draws per second achieved by the sampling phase (0 when empty/instant).
    pub fn draws_per_sec(&self) -> f64 {
        let secs = self.sample_time.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }
}

/// The result of privatising one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One privatised output per request, in request order.
    pub outputs: Vec<usize>,
    /// What it cost.
    pub stats: BatchStats,
}

/// The mechanism-serving engine: a [`DesignCache`] plus the batched sampling
/// fan-out.  Cheap to share (`&Engine` is `Sync`); one engine serves any number
/// of connections or threads.
#[derive(Debug)]
pub struct Engine {
    cache: DesignCache,
    seed: u64,
    min_chunk: usize,
    batches: AtomicU64,
    collector: Arc<ReportCollector>,
    collect_outputs: AtomicBool,
}

impl Engine {
    /// Build an engine from a config.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: DesignCache::new(config.cache_capacity),
            seed: config.seed,
            min_chunk: config.min_chunk.max(1),
            batches: AtomicU64::new(0),
            collector: Arc::new(ReportCollector::new()),
            collect_outputs: AtomicBool::new(config.collect_outputs),
        }
    }

    /// An engine with the default configuration.
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// The underlying design cache.
    pub fn cache(&self) -> &DesignCache {
        &self.cache
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's report collector.  Always present (and cheap while
    /// empty): the wire `report` op feeds it whether or not loopback
    /// collection is on.
    pub fn collector(&self) -> &Arc<ReportCollector> {
        &self.collector
    }

    /// Whether privatize batches loop their outputs back into the collector.
    pub fn is_collecting(&self) -> bool {
        self.collect_outputs.load(Ordering::Relaxed)
    }

    /// Flip loopback collection at runtime (also settable at construction via
    /// [`EngineConfig::collect_outputs`] / `CPM_COLLECT_OUTPUTS=1`).
    pub fn set_collecting(&self, on: bool) {
        self.collect_outputs.store(on, Ordering::Relaxed);
    }

    /// Resolve one design through the cache (designing on a cold miss).
    pub fn design(&self, key: &SpecKey) -> Result<Arc<DesignedMechanism>, ServeError> {
        self.cache.get(key)
    }

    /// Precompute the designs for a declared key set (see [`DesignCache::warm`]).
    pub fn warm(&self, keys: &[SpecKey]) -> Result<(), ServeError> {
        self.cache.warm(keys).map(|_| ())
    }

    /// Persist every resident design to `path` (see
    /// [`DesignCache::save_snapshot`]).  Returns the number of designs written.
    pub fn save_snapshot<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<usize> {
        self.cache.save_snapshot_file(path)
    }

    /// Restore designs from a snapshot file written by
    /// [`Engine::save_snapshot`].  Returns the number of designs inserted;
    /// restored keys serve their first request with zero LP solves.
    pub fn load_snapshot<P: AsRef<std::path::Path>>(&self, path: P) -> Result<usize, ServeError> {
        self.cache.load_snapshot_file(path)
    }

    /// Privatise a batch, deriving this batch's RNG streams from the engine seed
    /// and a monotone batch ordinal (two *consecutive* identical batches draw
    /// from different streams; use [`Engine::privatize_batch_seeded`] to replay).
    pub fn privatize_batch(&self, requests: &[Request]) -> Result<BatchOutcome, ServeError> {
        self.privatize_batch_seeded(requests, self.next_batch_seed())
    }

    /// Privatise a batch with an explicit stream seed: the outputs are a pure
    /// function of `(requests, batch_seed, min_chunk)` — independent of worker
    /// count and scheduling — the reproducibility contract used by the tests and
    /// by replayable deployments.
    ///
    /// The requests are grouped into runs by key, in first-appearance order,
    /// and the runs go to the same sampler as [`Engine::privatize_run`].
    pub fn privatize_batch_seeded(
        &self,
        requests: &[Request],
        batch_seed: u64,
    ) -> Result<BatchOutcome, ServeError> {
        if requests.is_empty() {
            return Ok(BatchOutcome::default());
        }
        for (index, request) in requests.iter().enumerate() {
            if request.input > request.key.n {
                return Err(ServeError::InvalidInput {
                    index,
                    input: request.input,
                    n: request.key.n,
                });
            }
        }

        // Lay the requests out run by run: `order` lists the request indices
        // key by key, so each run's inputs (and outputs) are one contiguous
        // slice, and the scatter below puts every output back in request order.
        let mut run_of: HashMap<SpecKey, usize> = HashMap::new();
        let mut runs: Vec<(SpecKey, Vec<u32>)> = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            let slot = *run_of.entry(request.key).or_insert_with(|| {
                runs.push((request.key, Vec::new()));
                runs.len() - 1
            });
            runs[slot].1.push(index as u32);
        }
        let order: Vec<u32> = runs
            .iter()
            .flat_map(|(_, indices)| indices.iter().copied())
            .collect();
        let inputs: Vec<usize> = order
            .iter()
            .map(|&index| requests[index as usize].input)
            .collect();
        let mut rest = inputs.as_slice();
        let run_inputs: Vec<(SpecKey, &[usize])> = runs
            .iter()
            .map(|(key, indices)| {
                let (head, tail) = rest.split_at(indices.len());
                rest = tail;
                (*key, head)
            })
            .collect();
        let mut grouped = vec![0; inputs.len()];
        let stats = self.privatize_runs(&run_inputs, &mut grouped, batch_seed)?;
        let mut outputs = vec![0; requests.len()];
        for (&index, drawn) in order.iter().zip(grouped) {
            outputs[index as usize] = drawn;
        }
        Ok(BatchOutcome { outputs, stats })
    }

    /// Privatise one run — every input drawn from the design for `key` — with
    /// the next batch ordinal's streams.  This is the wire `privatize` op: it
    /// draws exactly what [`Engine::privatize_batch`] would for the same
    /// requests and ordinal, without building a request per input.
    pub fn privatize_run(
        &self,
        key: &SpecKey,
        inputs: &[usize],
    ) -> Result<BatchOutcome, ServeError> {
        self.privatize_run_seeded(key, inputs, self.next_batch_seed())
    }

    /// [`Engine::privatize_run`] with an explicit stream seed (the run form of
    /// [`Engine::privatize_batch_seeded`]).
    pub fn privatize_run_seeded(
        &self,
        key: &SpecKey,
        inputs: &[usize],
        batch_seed: u64,
    ) -> Result<BatchOutcome, ServeError> {
        if inputs.is_empty() {
            return Ok(BatchOutcome::default());
        }
        if let Some(index) = inputs.iter().position(|&input| input > key.n) {
            return Err(ServeError::InvalidInput {
                index,
                input: inputs[index],
                n: key.n,
            });
        }
        let mut outputs = vec![0; inputs.len()];
        let stats = self.privatize_runs(&[(*key, inputs)], &mut outputs, batch_seed)?;
        Ok(BatchOutcome { outputs, stats })
    }

    /// The stream seed of the next batch ordinal.
    fn next_batch_seed(&self) -> u64 {
        let batch = self.batches.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ splitmix64(batch))
    }

    /// The privatize path for a batch laid out as runs of validated inputs,
    /// drawing run after run into `outputs` (their concatenation's length):
    /// resolve each run's design, draw, loop back, count.
    fn privatize_runs(
        &self,
        runs: &[(SpecKey, &[usize])],
        outputs: &mut [usize],
        batch_seed: u64,
    ) -> Result<BatchStats, ServeError> {
        let batch_span = cpm_obs::span!("engine", "privatize_batch");
        let mut stats = BatchStats {
            requests: outputs.len(),
            unique_keys: runs.len(),
            ..BatchStats::default()
        };

        // Design phase: a resident key is one lock-and-look peek; only keys
        // that are cold — or must wait on an in-flight solve — block, and a
        // mixed batch fans those out across the worker pool.  A single run
        // resolves into a stack slot, so a warm run allocates nothing here.
        let design_start = Instant::now();
        let single: [Run<'_>; 1];
        let several: Vec<Run<'_>>;
        let resolved: &[Run<'_>] = if let [(key, inputs)] = runs {
            let (design, lookup) = match self.cache.peek(key) {
                Some(design) => (design, Lookup::Hit),
                None => self.cache.get_with_outcome(key)?,
            };
            stats.count_lookup(&design, lookup);
            single = [Run { design, inputs }];
            &single
        } else {
            let mut designs: Vec<Option<(Arc<DesignedMechanism>, Lookup)>> = runs
                .iter()
                .map(|(key, _)| self.cache.peek(key).map(|design| (design, Lookup::Hit)))
                .collect();
            let cold: Vec<usize> = (0..runs.len())
                .filter(|&slot| designs[slot].is_none())
                .collect();
            if !cold.is_empty() {
                let outcomes = cpm_eval::par::try_parallel_map(
                    cold.iter().map(|&slot| runs[slot].0).collect(),
                    |key| self.cache.get_with_outcome(&key),
                )?;
                for (slot, outcome) in cold.into_iter().zip(outcomes) {
                    designs[slot] = Some(outcome);
                }
            }
            several = designs
                .into_iter()
                .zip(runs)
                .map(|(entry, &(_, inputs))| {
                    let (design, lookup) = entry.expect("every run is resolved by peek or get");
                    stats.count_lookup(&design, lookup);
                    Run { design, inputs }
                })
                .collect();
            &several
        };
        stats.design_time = design_start.elapsed();

        let sample_start = Instant::now();
        stats.sample_chunks = self.sample(resolved, outputs, batch_seed);
        stats.sample_time = sample_start.elapsed();

        // Loopback collection: feed each run's outputs into the collector so
        // an estimate can be served without a client-side report round trip.
        if self.collect_outputs.load(Ordering::Relaxed) {
            let mut rest = &*outputs;
            for (key, inputs) in runs {
                let (head, tail) = rest.split_at(inputs.len());
                self.collector.ingest_batch(key, head.iter().copied());
                rest = tail;
            }
        }

        cpm_obs::counter!("cpm_engine_batches_total").inc();
        cpm_obs::counter!("cpm_engine_draws_total").add(stats.requests as u64);
        cpm_obs::histogram!("cpm_engine_batch_nanos").record(batch_span.elapsed_nanos());
        Ok(stats)
    }

    /// The sampling phase: split each run into chunks of `min_chunk` draws,
    /// one dedicated RNG stream per chunk, numbered across the runs in order,
    /// and draw every chunk straight into its slice of `outputs`.  The chunk
    /// layout depends only on the run lengths and `min_chunk` — NOT on the
    /// worker count — so outputs are identical whether the pool has 1 thread
    /// or 64.  Returns the number of chunks.
    fn sample(&self, runs: &[Run<'_>], outputs: &mut [usize], batch_seed: u64) -> usize {
        let chunk_len = self.min_chunk;
        let draw =
            |design: &DesignedMechanism, inputs: &[usize], out: &mut [usize], stream: u64| {
                // Per-chunk timing is what the thread-scaling probe reads: each
                // chunk runs on one worker, so the chunk-latency histogram is the
                // per-thread view of the sampling phase.
                let chunk_start = Instant::now();
                let mut rng = StdRng::seed_from_u64(splitmix64(
                    batch_seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ));
                let sampler = design.alias_sampler();
                for (slot, &input) in out.iter_mut().zip(inputs) {
                    *slot = sampler.sample(input, &mut rng);
                }
                cpm_obs::histogram!("cpm_engine_chunk_nanos")
                    .record_duration(chunk_start.elapsed());
            };
        let chunks: usize = runs
            .iter()
            .map(|run| run.inputs.len().div_ceil(chunk_len))
            .sum();
        if let ([run], 1) = (runs, chunks) {
            // The common warm case — one run, one chunk — needs no task list.
            draw(&run.design, run.inputs, outputs, 0);
            return 1;
        }
        let mut tasks = Vec::with_capacity(chunks);
        let mut rest = outputs;
        for run in runs {
            let (out, tail) = rest.split_at_mut(run.inputs.len());
            rest = tail;
            for (inputs, out) in run.inputs.chunks(chunk_len).zip(out.chunks_mut(chunk_len)) {
                let stream = tasks.len() as u64;
                tasks.push((&*run.design, inputs, out, stream));
            }
        }
        cpm_eval::par::parallel_map(tasks, |(design, inputs, out, stream)| {
            draw(design, inputs, out, stream)
        });
        chunks
    }
}

/// One key's share of a batch, resolved for sampling: its design and the
/// inputs to draw for it.
struct Run<'a> {
    design: Arc<DesignedMechanism>,
    inputs: &'a [usize],
}

/// SplitMix64: decorrelate nearby seeds before they reach xoshiro's SplitMix
/// initialisation (two mixing rounds keep consecutive batch ordinals from
/// producing overlapping streams).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{Alpha, Property, PropertySet};

    fn key(n: usize, alpha: f64) -> SpecKey {
        SpecKey::new(n, Alpha::new(alpha).unwrap(), PropertySet::empty())
    }

    #[test]
    fn batches_are_reproducible_given_a_seed() {
        let engine = Engine::with_defaults();
        let requests: Vec<Request> = (0..1000)
            .map(|i| Request::new(key(8, 0.5), i % 9))
            .collect();
        let first = engine.privatize_batch_seeded(&requests, 42).unwrap();
        let second = engine.privatize_batch_seeded(&requests, 42).unwrap();
        assert_eq!(first.outputs, second.outputs);
        let different = engine.privatize_batch_seeded(&requests, 43).unwrap();
        assert_ne!(first.outputs, different.outputs);
        assert!(first.outputs.iter().all(|&o| o <= 8));
    }

    #[test]
    fn mixed_key_batches_group_and_report_stats() {
        let engine = Engine::with_defaults();
        let hot = key(6, 0.5);
        let cold = SpecKey::new(
            6,
            Alpha::new(0.9).unwrap(),
            PropertySet::empty().with(Property::WeakHonesty),
        );
        engine.warm(&[hot]).unwrap();
        let requests: Vec<Request> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    Request::new(hot, i % 7)
                } else {
                    Request::new(cold, i % 7)
                }
            })
            .collect();
        let outcome = engine.privatize_batch(&requests).unwrap();
        assert_eq!(outcome.outputs.len(), 200);
        assert_eq!(outcome.stats.unique_keys, 2);
        assert_eq!(outcome.stats.cache_hits, 1, "warmed key is a hit");
        assert_eq!(outcome.stats.cache_misses, 1, "cold key designs once");
        assert_eq!(outcome.stats.lp_solves, 1, "WH at n=6, alpha=0.9 is an LP");
        // Second batch: both keys resident now.
        let outcome = engine.privatize_batch(&requests).unwrap();
        assert_eq!(outcome.stats.cache_hits, 2);
        assert_eq!(outcome.stats.cache_misses, 0);
    }

    #[test]
    fn out_of_range_inputs_are_rejected_up_front() {
        let engine = Engine::with_defaults();
        let requests = vec![Request::new(key(4, 0.5), 5)];
        let error = engine.privatize_batch(&requests).unwrap_err();
        assert_eq!(
            error,
            ServeError::InvalidInput {
                index: 0,
                input: 5,
                n: 4
            }
        );
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let engine = Engine::with_defaults();
        let outcome = engine.privatize_batch(&[]).unwrap();
        assert!(outcome.outputs.is_empty());
        assert_eq!(outcome.stats.requests, 0);
    }

    #[test]
    fn loopback_collection_is_off_by_default_and_exact_when_on() {
        let engine = Engine::with_defaults();
        let hot = key(4, 0.5);
        let cold = key(6, 0.9);
        let requests: Vec<Request> = (0..1000)
            .map(|i| {
                if i % 3 == 0 {
                    Request::new(cold, i % 7)
                } else {
                    Request::new(hot, i % 5)
                }
            })
            .collect();
        engine.privatize_batch_seeded(&requests, 9).unwrap();
        assert!(engine.collector().is_empty(), "collection must be opt-in");

        engine.set_collecting(true);
        assert!(engine.is_collecting());
        let outcome = engine.privatize_batch_seeded(&requests, 9).unwrap();
        // The collector's histograms must equal the batch outputs exactly.
        for k in [hot, cold] {
            let mut expected = vec![0u64; k.n + 1];
            for (request, &output) in requests.iter().zip(&outcome.outputs) {
                if request.key == k {
                    expected[output] += 1;
                }
            }
            assert_eq!(engine.collector().observed(&k).unwrap(), expected);
        }
        // One ingest call per run, not per same-key stretch in request order:
        // the interleaved batch is two runs.
        assert_eq!(
            engine.collector().stats(),
            cpm_collect::CollectorStats {
                ingested: requests.len() as u64,
                rejected: 0,
                batches: 2,
                keys: 2,
            }
        );
        // A wire-shaped run is one more ingest call.
        engine.privatize_run(&hot, &[0, 1, 2, 3, 4]).unwrap();
        let stats = engine.collector().stats();
        assert_eq!((stats.ingested, stats.batches), (1005, 3));
    }

    #[test]
    fn batch_outputs_follow_the_mechanism_distribution() {
        // The engine must sample from the actual design: empirical frequencies over
        // a large hot-key batch match the GM column.
        let engine = Engine::with_defaults();
        let k = key(4, 0.5);
        let design = engine.design(&k).unwrap();
        let input = 2usize;
        let requests = vec![Request::new(k, input); 200_000];
        let outcome = engine.privatize_batch_seeded(&requests, 7).unwrap();
        let mut counts = [0usize; 5];
        for &o in &outcome.outputs {
            counts[o] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / requests.len() as f64;
            let expected = design.mechanism().prob(i, input);
            assert!(
                (empirical - expected).abs() < 0.01,
                "output {i}: {empirical} vs {expected}"
            );
        }
    }
}

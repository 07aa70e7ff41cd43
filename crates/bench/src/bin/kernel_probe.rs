//! Kernel probe: the per-record kernels of one collect cycle, in process.
//!
//! Each kernel runs `ROUNDS` rounds of `REPS` repetitions on a warm GM key
//! (n = 32, α = 0.9, the `collect_loop` workload's first key); a round's
//! per-repetition time is its wall time over `REPS`, and the probe prints
//! the median round with the fastest and slowest beside it.  The numbers land
//! in BENCHMARKS.md's "Collect-loop kernels" section.
//!
//! Kernels:
//!
//! * `draws/256` — 256 alias draws through `AliasSampler::sample` from a
//!   freshly seeded `StdRng`, as the engine draws one chunk;
//! * `ingest/256` — one 256-record decoded `CPMR` batch through
//!   `ReportCollector::ingest_reports`;
//! * `json-ack` — the batch's JSON acknowledgement through
//!   `serde_json::to_string`;
//! * `frame/cpmf-privatize-256` and `frame/cpmr-256` — whole warm frames
//!   through `ProtoConnection::ingest`, the reply drained after each.
//!
//! Run it with `cargo run --release -p cpm-bench --bin kernel_probe`.

use std::hint::black_box;
use std::time::Instant;

use cpm_collect::wire::encode_batch;
use cpm_collect::{Report, ReportCollector};
use cpm_core::{Alpha, PropertySet, SpecKey};
use cpm_serve::engine::Engine;
use cpm_serve::proto::{encode_request, Op};
use cpm_serve::{ProtoConfig, ProtoConnection, WireResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 7;
const REPS: usize = 20_000;
const BATCH: usize = 256;

/// Per-repetition nanoseconds of `ROUNDS` rounds of `REPS` calls of `work`,
/// sorted.
fn rounds(mut work: impl FnMut()) -> Vec<f64> {
    for _ in 0..REPS / 10 {
        work();
    }
    let mut per_rep: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..REPS {
                work();
            }
            start.elapsed().as_nanos() as f64 / REPS as f64
        })
        .collect();
    per_rep.sort_by(f64::total_cmp);
    per_rep
}

fn print(name: &str, per_rep: &[f64]) {
    println!(
        "{name:<26} {:>8.2} µs  (rounds {:.2} – {:.2})",
        per_rep[per_rep.len() / 2] / 1e3,
        per_rep[0] / 1e3,
        per_rep[per_rep.len() - 1] / 1e3
    );
}

/// Length-prefix one frame payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

fn main() {
    let key = SpecKey::new(32, Alpha::new(0.9).unwrap(), PropertySet::empty());
    let dim = key.n + 1;
    let design = key.spec().design().expect("GM designs in closed form");
    let inputs: Vec<usize> = (0..BATCH).map(|i| (i * 7) % dim).collect();
    println!("kernel probe: GM n = 32, α = 0.9; median of {ROUNDS} rounds × {REPS} reps\n");

    let sampler = design.alias_sampler();
    let mut outputs = vec![0usize; BATCH];
    let mut seed = 0;
    print(
        "draws/256",
        &rounds(|| {
            // A fresh stream per batch, as the engine seeds one per chunk.
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            for (slot, &input) in outputs.iter_mut().zip(&inputs) {
                *slot = sampler.sample(input, &mut rng);
            }
            black_box(&outputs);
        }),
    );

    let reports: Vec<Report> = outputs
        .iter()
        .map(|&output| Report::new(key, output as u32).unwrap())
        .collect();
    let collector = ReportCollector::new();
    print(
        "ingest/256",
        &rounds(|| {
            black_box(collector.ingest_reports(black_box(&reports)));
        }),
    );

    let ack = WireResponse {
        ok: true,
        ingested: BATCH as u64,
        ..WireResponse::default()
    };
    print(
        "json-ack",
        &rounds(|| {
            black_box(serde_json::to_string(black_box(&ack)).unwrap());
        }),
    );

    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let mut serve = |bytes: &[u8]| {
        conn.ingest(&engine, bytes).expect("a well-formed frame");
        let written = conn.pending_output().len();
        conn.advance_output(written);
    };
    let privatize = frame(
        &encode_request(&Op::Privatize {
            key,
            inputs: inputs.clone(),
        })
        .unwrap(),
    );
    print("frame/cpmf-privatize-256", &rounds(|| serve(&privatize)));
    let batch = frame(&encode_batch(&reports).unwrap());
    print("frame/cpmr-256", &rounds(|| serve(&batch)));
}

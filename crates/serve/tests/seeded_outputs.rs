//! Pins the seeded privatize outputs bit for bit.
//!
//! A batch's outputs are a pure function of `(requests, batch_seed,
//! min_chunk)`: which chunk draws from which RNG stream, and in which order
//! it draws, is part of the serving contract (replayable deployments and the
//! benchmark's reply checks depend on it).  These tests hash the outputs of
//! fixed batches with FNV-1a and compare against hashes recorded from the
//! grouped `HashMap` engine this crate used to ship, so any change to the
//! stream layout or draw order fails here rather than silently re-rolling
//! every reply.  The keys are closed-form GM designs, so the pins do not
//! move with the LP solver.

use cpm_core::{Alpha, PropertySet};
use cpm_serve::engine::{Engine, EngineConfig, Request};
use cpm_serve::proto::{dispatch_op, Op};
use cpm_serve::SpecKey;

fn gm(n: usize, alpha: f64) -> SpecKey {
    SpecKey::new(n, Alpha::new(alpha).unwrap(), PropertySet::empty())
}

fn engine(min_chunk: usize) -> Engine {
    Engine::new(EngineConfig {
        min_chunk,
        seed: 0xFEED_F00D,
        ..EngineConfig::default()
    })
}

/// FNV-1a over the outputs' little-endian `u64` bytes.
fn fnv1a(outputs: &[usize]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &output in outputs {
        for byte in (output as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

fn interleaved() -> Vec<Request> {
    let keys = [gm(8, 0.5), gm(5, 0.9), gm(12, 0.3)];
    (0..500)
        .map(|i| {
            let key = keys[i % 3];
            Request::new(key, (i * 7) % (key.n + 1))
        })
        .collect()
}

#[test]
fn one_key_three_chunk_batch_is_pinned() {
    let engine = engine(128);
    let key = gm(8, 0.5);
    let requests: Vec<Request> = (0..300).map(|i| Request::new(key, i % 9)).collect();
    let outcome = engine.privatize_batch_seeded(&requests, 0xC0FFEE).unwrap();
    assert_eq!(outcome.stats.sample_chunks, 3);
    assert_eq!(outcome.outputs.len(), 300);
    assert_eq!(fnv1a(&outcome.outputs), 0x4FEA_48B3_CF48_1E25);
}

#[test]
fn interleaved_three_key_batch_is_pinned() {
    let engine = engine(128);
    let requests = interleaved();
    let outcome = engine.privatize_batch_seeded(&requests, 0xC0FFEE).unwrap();
    // 167 + 167 + 166 requests per key: two chunks each.
    assert_eq!(outcome.stats.unique_keys, 3);
    assert_eq!(outcome.stats.sample_chunks, 6);
    for (request, &output) in requests.iter().zip(&outcome.outputs) {
        assert!(output <= request.key.n);
    }
    assert_eq!(fnv1a(&outcome.outputs), 0x4DA8_7D7C_FA44_0BAB);
}

#[test]
fn the_wire_op_replays_privatize_batch() {
    // Two engines with the same seed: the wire op on one and
    // `privatize_batch` on the other draw the same batch ordinals, so their
    // outputs must agree op for op, single chunk and multi chunk alike.
    for min_chunk in [4096, 64] {
        let wire = engine(min_chunk);
        let direct = engine(min_chunk);
        for (ordinal, (key, len)) in [(gm(8, 0.5), 1), (gm(5, 0.9), 16), (gm(12, 0.3), 256)]
            .into_iter()
            .enumerate()
        {
            let inputs: Vec<usize> = (0..len).map(|i| (i * 5) % (key.n + 1)).collect();
            let (response, close) = dispatch_op(
                &wire,
                &Op::Privatize {
                    key,
                    inputs: inputs.clone(),
                },
            );
            assert!(response.ok && !close, "{}", response.error);
            let requests: Vec<Request> = inputs.iter().map(|&i| Request::new(key, i)).collect();
            let outcome = direct.privatize_batch(&requests).unwrap();
            assert_eq!(
                response.outputs, outcome.outputs,
                "batch ordinal {ordinal}, min_chunk {min_chunk}"
            );
        }
    }
}

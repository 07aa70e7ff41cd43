//! Differential test of the `CPMR` batch decoder.
//!
//! `decode_batch` validates a record's key bytes only when they differ from
//! the previous record's, reusing the decoded key across a run.  That must be
//! invisible: for any frame it returns exactly what decoding every record on
//! its own with `decode_record` returns — the same reports, or the same first
//! error.  The frames here mix long single-key runs, strictly alternating
//! keys and one-key frames, with up to two corrupted fields placed anywhere,
//! typically in the middle of a run.

use cpm_collect::wire::{decode_batch, decode_record, encode_batch, HEADER_LEN, RECORD_LEN};
use cpm_collect::{Report, WireError};
use cpm_core::{Alpha, ObjectiveKey, Property, PropertySet, SpecKey};
use cpm_wire::KeyError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Offsets of the record fields this test corrupts (see the wire module's
/// frame layout).
const N: usize = 0;
const ALPHA: usize = 4;
const PROPS: usize = 12;
const OBJECTIVE: usize = 13;
const D: usize = 14;
const OUTPUT: usize = 16;

fn key_pool() -> Vec<SpecKey> {
    let alpha = |a| Alpha::new(a).unwrap();
    vec![
        SpecKey::new(8, alpha(0.9), PropertySet::empty()),
        SpecKey::new(
            12,
            alpha(0.5),
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::ColumnMonotonicity),
        ),
        SpecKey::with_objective(32, alpha(0.1), PropertySet::empty(), ObjectiveKey::L2),
        SpecKey::with_objective(
            6,
            alpha(1.0),
            PropertySet::empty(),
            ObjectiveKey::L0Beyond(2),
        ),
        // Same n and α as the first key, so only the objective bytes differ.
        SpecKey::with_objective(8, alpha(0.9), PropertySet::empty(), ObjectiveKey::L1),
    ]
}

/// A frame of `len` valid reports: `shape` 0 is long runs, 1 strictly
/// alternates two keys, 2 is one key throughout.
fn frame(len: usize, shape: u8, rng: &mut StdRng) -> Vec<u8> {
    let pool = key_pool();
    let mut key = pool[rng.gen_range(0..pool.len())];
    let other = pool[rng.gen_range(0..pool.len())];
    let reports: Vec<Report> = (0..len)
        .map(|i| {
            match shape {
                0 if rng.gen_range(0..64u32) == 0 => key = pool[rng.gen_range(0..pool.len())],
                1 => key = if i % 2 == 0 { pool[0] } else { other },
                _ => {}
            }
            Report::new(key, rng.gen_range(0..=key.n as u32)).unwrap()
        })
        .collect();
    encode_batch(&reports).unwrap()
}

/// Overwrite one field of record `index` with a value the decoder must
/// refuse (`kind` 1–5), or leave it alone (`kind` 0).
fn corrupt(payload: &mut [u8], index: usize, kind: u8, rng: &mut StdRng) {
    let record = &mut payload[HEADER_LEN + index * RECORD_LEN..][..RECORD_LEN];
    let n = u32::from_le_bytes(record[N..N + 4].try_into().unwrap());
    match kind {
        1 => {
            let alpha: f64 = [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY][rng.gen_range(0..5usize)];
            record[ALPHA..ALPHA + 8].copy_from_slice(&alpha.to_bits().to_le_bytes());
        }
        2 => record[PROPS] = rng.gen_range(128u8..=255),
        3 => record[N..N + 4].copy_from_slice(&0u32.to_le_bytes()),
        4 => {
            record[OBJECTIVE] = 3;
            record[D..D + 2].copy_from_slice(&(n as u16 + 1).to_le_bytes());
        }
        5 => {
            let output: u32 = n + 1 + rng.gen_range(0..1000u32);
            record[OUTPUT..OUTPUT + 4].copy_from_slice(&output.to_le_bytes());
        }
        _ => {}
    }
}

/// The reference: every record decoded on its own, first error wins.
fn record_by_record(payload: &[u8]) -> Result<Vec<Report>, WireError> {
    payload[HEADER_LEN..]
        .chunks_exact(RECORD_LEN)
        .map(decode_record)
        .collect()
}

fn same_result(
    left: &Result<Vec<Report>, WireError>,
    right: &Result<Vec<Report>, WireError>,
) -> bool {
    match (left, right) {
        // NaN α makes `WireError` compare unequal to itself; the variant and
        // the bits are what must agree.
        (
            Err(WireError::Key(KeyError::InvalidAlpha(a))),
            Err(WireError::Key(KeyError::InvalidAlpha(b))),
        ) => a.to_bits() == b.to_bits(),
        _ => left == right,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batch_decoding_equals_record_by_record_decoding(
        len in 1usize..300,
        shape in 0u8..3,
        first in (0u8..6, 0.0f64..1.0),
        second in (0u8..6, 0.0f64..1.0),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = frame(len, shape, &mut rng);
        for (kind, at) in [first, second] {
            let index = ((at * len as f64) as usize).min(len - 1);
            corrupt(&mut payload, index, kind, &mut rng);
        }
        let batch = decode_batch(&payload);
        let reference = record_by_record(&payload);
        prop_assert!(
            same_result(&batch, &reference),
            "decode_batch {:?} vs record by record {:?}",
            batch.as_ref().map(Vec::len),
            reference.as_ref().map(Vec::len)
        );
        if first.0 == 0 && second.0 == 0 {
            prop_assert!(batch.is_ok());
        }
    }
}

#[test]
fn a_bad_output_mid_run_is_caught_after_the_key_is_reused() {
    let key = key_pool()[0];
    let reports: Vec<Report> = (0..10).map(|i| Report::new(key, i % 9).unwrap()).collect();
    let mut payload = encode_batch(&reports).unwrap();
    let record = HEADER_LEN + 6 * RECORD_LEN;
    payload[record + OUTPUT..record + OUTPUT + 4].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        decode_batch(&payload),
        Err(WireError::OutputOutOfRange { output: 9, n: 8 })
    );
}

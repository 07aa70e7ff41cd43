//! The fixed-size binary report wire format.
//!
//! A *report* is the whole client→collector payload of local differential
//! privacy: the mechanism the client drew from (its bit-exact [`SpecKey`]) and
//! the privatized output index — never the true input.  Reports travel in
//! *batch frames* that ride the serve front end's existing 4-byte
//! length-prefixed framing; the first bytes of the payload distinguish a
//! binary report frame from a JSON request (JSON can never start with
//! [`REPORT_MAGIC`]).
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! header (12 bytes)                 records (20 bytes each)
//! +-------+---------+------+-------+ +-----+------------+-------+-----+-----+--------+
//! | magic | version | rsvd | count | |  n  | alpha bits | props | obj |  d  | output |
//! | 4B    | u16     | u16  | u32   | | u32 | u64        | u8    | u8  | u16 | u32    |
//! +-------+---------+------+-------+ +-----+------------+-------+-----+-----+--------+
//! ```
//!
//! * `magic` — [`REPORT_MAGIC`] (`b"CPMR"`).
//! * `version` — [`WIRE_VERSION`]; decoding accepts exactly this version and
//!   rejects everything else (no cross-version compatibility window).
//! * `count` — number of records; the frame length must match exactly.
//! * `alpha bits` — the IEEE-754 bits of α, bit-exact with [`AlphaKey`](cpm_core::AlphaKey) so a
//!   decoded report lands on the same cache/accumulator key that designed it.
//! * `props` — [`PropertySet::bits`](cpm_core::PropertySet::bits) (values ≥ 128 are invalid).
//! * `obj`/`d` — objective tag (`0=L0, 1=L1, 2=L2, 3=L0,d`) and the `L0,d`
//!   threshold (must be 0 unless the tag is `3`).
//! * `output` — the reported output index in `0..=n`.
//!
//! Every field is validated on decode: a hostile or corrupt frame yields a
//! [`WireError`], never a panic or a poisoned accumulator.  A record's key
//! obeys the workspace's one key rule, [`cpm_wire::check_key`] (`1 ≤ n ≤`
//! [`cpm_wire::MAX_WIRE_N`], `d ≤ n`), enforced inside the shared
//! [`SpecKey`] codec: the accumulator allocates `n + 1` counters per key, and
//! the server designs an `(n+1)²` matrix for it, so a frame naming a larger
//! `n` is refused whole.

use std::fmt;

use cpm_core::SpecKey;
use cpm_wire::{put_spec_key, take_spec_key, KeyError, Reader, SpecKeyError, Wire};

/// Leading bytes of a binary report frame.
pub const REPORT_MAGIC: [u8; 4] = *b"CPMR";

/// Current frame version; bump on any layout change.
pub const WIRE_VERSION: u16 = 1;

/// Bytes in the batch-frame header.
pub const HEADER_LEN: usize = 12;

/// Bytes per report record: the shared [`cpm_wire::SPEC_KEY_LEN`]-byte key
/// codec plus the `u32` output.
pub const RECORD_LEN: usize = cpm_wire::SPEC_KEY_LEN + 4;

/// One privatized report: which designed mechanism produced it and the output
/// index the client drew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// The mechanism the client was served.
    pub key: SpecKey,
    /// The privatized output index, in `0..=key.n`.
    pub output: u32,
}

impl Report {
    /// Build a report, checking the output range.
    pub fn new(key: SpecKey, output: u32) -> Result<Self, WireError> {
        if output as usize > key.n {
            return Err(WireError::OutputOutOfRange { output, n: key.n });
        }
        Ok(Report { key, output })
    }
}

/// Decoding/encoding failures for binary report frames.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The payload does not start with [`REPORT_MAGIC`].
    BadMagic,
    /// The frame's version is not the exact [`WIRE_VERSION`] this decoder
    /// speaks (older and newer frames are both refused).
    UnsupportedVersion(u16),
    /// The payload length does not match `HEADER_LEN + count * RECORD_LEN`.
    LengthMismatch {
        /// Declared record count.
        count: u32,
        /// Actual payload length in bytes.
        len: usize,
    },
    /// A record's key is invalid (see [`KeyError`]).
    Key(KeyError),
    /// A batch holds more records than the `u32` count field can declare.
    BatchTooLarge(usize),
    /// A reported output exceeds the key's group size.
    OutputOutOfRange {
        /// The reported output.
        output: u32,
        /// The group size.
        n: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "payload does not start with the CPMR report magic"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported report frame version {v} (decoder speaks {WIRE_VERSION})"
                )
            }
            WireError::LengthMismatch { count, len } => write!(
                f,
                "frame declares {count} records but carries {len} bytes \
                 (expected {})",
                HEADER_LEN + *count as usize * RECORD_LEN
            ),
            WireError::Key(error) => write!(f, "report {error}"),
            WireError::BatchTooLarge(len) => {
                write!(
                    f,
                    "batch of {len} reports exceeds the u32 record-count field"
                )
            }
            WireError::OutputOutOfRange { output, n } => {
                write!(f, "report output {output} exceeds group size {n}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<KeyError> for WireError {
    fn from(error: KeyError) -> Self {
        WireError::Key(error)
    }
}

/// Whether a frame payload looks like a binary report frame (magic match).
pub fn is_report_frame(payload: &[u8]) -> bool {
    payload.len() >= REPORT_MAGIC.len() && payload[..REPORT_MAGIC.len()] == REPORT_MAGIC
}

/// Append one record's 20 bytes to `out`: the shared [`SpecKey`] codec
/// ([`cpm_wire::put_spec_key`]) followed by the `u32` output.
///
/// Fails when the key breaks [`cpm_wire::check_key`], so every encoded record
/// decodes.
pub fn encode_record(report: &Report, out: &mut Vec<u8>) -> Result<(), WireError> {
    put_spec_key(&report.key, out)?;
    report.output.put(out);
    Ok(())
}

/// Decode one 20-byte record, validating every field.
pub fn decode_record(bytes: &[u8]) -> Result<Report, WireError> {
    assert_eq!(bytes.len(), RECORD_LEN, "record slice must be RECORD_LEN");
    let (key, output) = bytes.split_at(cpm_wire::SPEC_KEY_LEN);
    Report::new(decode_key(key)?, decode_output(output))
}

/// Decode and validate a record's key bytes.
fn decode_key(bytes: &[u8]) -> Result<SpecKey, WireError> {
    take_spec_key(&mut Reader::new(bytes)).map_err(|error| match error {
        SpecKeyError::Key(error) => WireError::Key(error),
        // Callers pass exactly SPEC_KEY_LEN bytes, so the key cannot truncate.
        SpecKeyError::Decode(_) => unreachable!("a SPEC_KEY_LEN slice cannot truncate a key"),
    })
}

/// A record's trailing `u32` output.
fn decode_output(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a record carries a 4-byte output"))
}

/// Encode a batch of reports as one frame payload (header + records), ready to
/// hand to the length-prefixed framer.
pub fn encode_batch(reports: &[Report]) -> Result<Vec<u8>, WireError> {
    if reports.len() > u32::MAX as usize {
        return Err(WireError::BatchTooLarge(reports.len()));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + reports.len() * RECORD_LEN);
    out.extend_from_slice(&REPORT_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(reports.len() as u32).to_le_bytes());
    for report in reports {
        encode_record(report, &mut out)?;
    }
    Ok(out)
}

/// Decode a frame payload into its reports, validating the header and every
/// record (each distinct run of key bytes once).
pub fn decode_batch(payload: &[u8]) -> Result<Vec<Report>, WireError> {
    if !is_report_frame(payload) {
        return Err(WireError::BadMagic);
    }
    if payload.len() < HEADER_LEN {
        return Err(WireError::LengthMismatch {
            count: 0,
            len: payload.len(),
        });
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    let expected = HEADER_LEN + count as usize * RECORD_LEN;
    if payload.len() != expected {
        return Err(WireError::LengthMismatch {
            count,
            len: payload.len(),
        });
    }
    // A frame is typically long runs of one key, so a record whose key bytes
    // repeat the previous record's reuses that (already validated) key and
    // checks only its output: the result and the first error are exactly
    // those of `decode_record` on every record.
    let mut reports = Vec::with_capacity(count as usize);
    let mut previous: Option<(&[u8], SpecKey)> = None;
    for record in payload[HEADER_LEN..].chunks_exact(RECORD_LEN) {
        let (key_bytes, output) = record.split_at(cpm_wire::SPEC_KEY_LEN);
        let key = match previous {
            Some((bytes, key)) if bytes == key_bytes => key,
            _ => {
                let key = decode_key(key_bytes)?;
                previous = Some((key_bytes, key));
                key
            }
        };
        reports.push(Report::new(key, decode_output(output))?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{Alpha, ObjectiveKey, Property, PropertySet};

    fn key(n: usize, alpha: f64) -> SpecKey {
        SpecKey::new(n, Alpha::new(alpha).unwrap(), PropertySet::empty())
    }

    fn keyed(n: usize, alpha: f64, objective: ObjectiveKey) -> SpecKey {
        SpecKey::with_objective(
            n,
            Alpha::new(alpha).unwrap(),
            PropertySet::empty(),
            objective,
        )
    }

    #[test]
    fn batch_round_trips_every_objective_and_property_mix() {
        let keys = [
            key(8, 0.9),
            keyed(32, 0.5, ObjectiveKey::L1),
            keyed(4, 0.76, ObjectiveKey::L2),
            keyed(16, 0.3, ObjectiveKey::L0Beyond(2)),
            SpecKey::new(
                6,
                Alpha::new(0.65).unwrap(),
                PropertySet::empty()
                    .with(Property::Fairness)
                    .with(Property::WeakHonesty),
            ),
        ];
        let reports: Vec<Report> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Report::new(k, i as u32).unwrap())
            .collect();
        let payload = encode_batch(&reports).unwrap();
        assert!(is_report_frame(&payload));
        assert_eq!(payload.len(), HEADER_LEN + reports.len() * RECORD_LEN);
        let decoded = decode_batch(&payload).unwrap();
        assert_eq!(decoded, reports);
    }

    #[test]
    fn alpha_bits_survive_bit_exactly() {
        // 0.1 has no exact binary representation; the key must still match.
        let k = key(5, 0.1);
        let payload = encode_batch(&[Report::new(k, 3).unwrap()]).unwrap();
        let decoded = decode_batch(&payload).unwrap();
        assert_eq!(decoded[0].key, k);
        assert_eq!(decoded[0].key.alpha.bits(), k.alpha.bits());
    }

    #[test]
    fn hostile_frames_are_rejected_not_panicked() {
        assert_eq!(decode_batch(b"not a frame"), Err(WireError::BadMagic));
        assert_eq!(decode_batch(b""), Err(WireError::BadMagic));
        // Magic present but the header itself is truncated.
        let good = encode_batch(&[Report::new(key(8, 0.9), 1).unwrap()]).unwrap();
        assert!(matches!(
            decode_batch(&good[..HEADER_LEN - 2]),
            Err(WireError::LengthMismatch { count: 0, .. })
        ));
    }

    #[test]
    fn truncated_and_overlong_frames_are_length_mismatches() {
        let good = encode_batch(&[Report::new(key(8, 0.9), 1).unwrap()]).unwrap();
        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            decode_batch(truncated),
            Err(WireError::LengthMismatch { .. })
        ));
        let mut overlong = good.clone();
        overlong.push(0);
        assert!(matches!(
            decode_batch(&overlong),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn non_current_versions_are_refused() {
        // Only the exact WIRE_VERSION is accepted: newer...
        let mut payload = encode_batch(&[Report::new(key(8, 0.9), 1).unwrap()]).unwrap();
        payload[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(
            decode_batch(&payload),
            Err(WireError::UnsupportedVersion(2))
        );
        // ...and older frames alike.
        payload[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            decode_batch(&payload),
            Err(WireError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn oversized_group_sizes_are_refused_without_allocating() {
        use cpm_wire::MAX_WIRE_N;
        let refused = WireError::Key(KeyError::InvalidGroupSize);
        // A single well-formed record claiming n = u32::MAX - 1 must bounce at
        // validation, not reach an accumulator that would allocate ~34 GB.
        let mut payload = encode_batch(&[Report::new(key(8, 0.9), 0).unwrap()]).unwrap();
        payload[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        assert_eq!(decode_batch(&payload), Err(refused.clone()));
        // The bound is exact: MAX_WIRE_N passes, MAX_WIRE_N + 1 does not.
        payload[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(MAX_WIRE_N as u32).to_le_bytes());
        assert!(decode_batch(&payload).is_ok());
        payload[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(MAX_WIRE_N as u32 + 1).to_le_bytes());
        assert_eq!(decode_batch(&payload), Err(refused.clone()));
        // Encoding refuses the same keys decoding would.
        let huge = Report {
            key: key(MAX_WIRE_N + 1, 0.9),
            output: 0,
        };
        assert_eq!(encode_record(&huge, &mut Vec::new()), Err(refused));
    }

    #[test]
    fn corrupt_records_name_the_bad_field() {
        let base = Report::new(key(8, 0.9), 1).unwrap();
        // α out of range.
        let mut payload = encode_batch(&[base]).unwrap();
        payload[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_batch(&payload),
            Err(WireError::Key(KeyError::InvalidAlpha(v))) if v == 2.0
        ));
        // Undefined property bit.
        let mut payload = encode_batch(&[base]).unwrap();
        payload[HEADER_LEN + 12] = 0x80;
        assert_eq!(
            decode_batch(&payload),
            Err(WireError::Key(KeyError::InvalidProperties(0x80)))
        );
        // Unknown objective tag.
        let mut payload = encode_batch(&[base]).unwrap();
        payload[HEADER_LEN + 13] = 9;
        assert!(matches!(
            decode_batch(&payload),
            Err(WireError::Key(KeyError::InvalidObjective { tag: 9, .. }))
        ));
        // Non-zero d on a non-L0,d objective.
        let mut payload = encode_batch(&[base]).unwrap();
        payload[HEADER_LEN + 14] = 1;
        assert!(matches!(
            decode_batch(&payload),
            Err(WireError::Key(KeyError::InvalidObjective { tag: 0, d: 1 }))
        ));
        // Output beyond n.
        let mut payload = encode_batch(&[base]).unwrap();
        payload[HEADER_LEN + 16..HEADER_LEN + 20].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            decode_batch(&payload),
            Err(WireError::OutputOutOfRange { output: 9, n: 8 })
        );
        // Zero group size.
        let mut payload = encode_batch(&[base]).unwrap();
        payload[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_batch(&payload),
            Err(WireError::Key(KeyError::InvalidGroupSize))
        );
    }

    #[test]
    fn report_new_checks_the_output_range() {
        assert!(Report::new(key(4, 0.5), 4).is_ok());
        assert_eq!(
            Report::new(key(4, 0.5), 5),
            Err(WireError::OutputOutOfRange { output: 5, n: 4 })
        );
    }
}

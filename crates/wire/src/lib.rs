//! # cpm-wire — compact binary wire primitives
//!
//! A hand-rolled `Serde`-style trait over byte buffers, shared by every binary
//! wire format in the workspace: `cpm-collect`'s `b"CPMR"` report batches and
//! `cpm-serve`'s `b"CPMF"` request/response frames both build on the same
//! primitive codecs and the same 16-byte [`SpecKey`] record, so a key decoded
//! from either format lands on the same bit-exact cache/accumulator identity.
//!
//! The idiom is deliberate (cf. `schemou` in the related `Colabie` repo): no
//! reflection, no schema compiler — each type knows how to [`Wire::put`] itself
//! onto a `Vec<u8>` and [`Wire::take`] itself off a [`Reader`], all integers
//! little-endian, all lengths `u32`-prefixed and validated against the bytes
//! actually present before any allocation is sized.
//!
//! ## Guarantees
//!
//! * **No hostile allocation** — a declared element count times the
//!   element's smallest encoding ([`Wire::MIN_LEN`]) is checked against the
//!   remaining payload before a `Vec` is reserved, so a forged length cannot
//!   demand memory the frame does not carry.
//! * **Total validation** — every decoded value is range-checked at the codec
//!   layer ([`take_spec_key`] refuses bad α, undefined property bits, unknown
//!   objective tags, and keys breaking the [`check_key`] rule); decoding
//!   never panics on any byte string.
//! * **One key rule** — [`check_key`] is the workspace's only group-size
//!   check: `1 ≤ n ≤`[`MAX_WIRE_N`], and `d ≤ n` for `L0,d`.  Both binary
//!   codecs, the JSON front end and the report collector apply it, so no
//!   serving path can hold a key another path refuses.
//! * **Bit exactness** — α travels as its IEEE-754 bit pattern, matching
//!   [`cpm_core::AlphaKey`]'s cache identity exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};

/// Bytes of an encoded [`SpecKey`]: `n` (u32), α bits (u64), property bitmask
/// (u8), objective tag (u8), `L0,d` distance (u16).
pub const SPEC_KEY_LEN: usize = 16;

/// The workspace's one group-size ceiling: the largest `n` any key may name,
/// on every wire path and in the report collector.  Designing a mechanism
/// allocates an `(n+1)²` matrix and collecting for it `n + 1` counters, so an
/// unvalidated `n` would let one 16-byte key demand gigabytes.  The paper's
/// experiments top out at `n` in the hundreds; 4096 leaves generous headroom
/// while capping one design at ~134 MB.
pub const MAX_WIRE_N: usize = 4096;

const OBJ_L0: u8 = 0;
const OBJ_L1: u8 = 1;
const OBJ_L2: u8 = 2;
const OBJ_L0_BEYOND: u8 = 3;

/// Primitive decode failures: the bytes ran out or a value cannot exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the value it declared.
    Truncated {
        /// Bytes the next value needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A declared element count exceeds what the bytes remaining in the
    /// payload can hold.
    LengthOverrun {
        /// Declared element count.
        declared: usize,
        /// Bytes remaining (each element needs at least its
        /// [`Wire::MIN_LEN`]).
        have: usize,
    },
    /// A decoded string is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "payload truncated: needed {needed} bytes, have {have}")
            }
            DecodeError::LengthOverrun { declared, have } => write!(
                f,
                "declared count {declared} exceeds the {have} bytes remaining"
            ),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an immutable payload; every `take` advances it.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading `payload` from its first byte.
    pub fn new(payload: &'a [u8]) -> Self {
        Reader { buf: payload }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been consumed (decoders use this to reject
    /// trailing garbage).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) returns N bytes"))
    }
}

/// The hand-rolled serde trait: append yourself to a byte buffer, or read
/// yourself off a [`Reader`].  Implementations must round-trip bit-exactly.
pub trait Wire: Sized {
    /// The fewest bytes one value encodes to.  A sequence's declared count
    /// is checked against the remaining payload at this many bytes per
    /// element before anything is reserved.
    const MIN_LEN: usize = 1;
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value, advancing the reader past it.
    fn take(reader: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$ty>::from_le_bytes(reader.array()?))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u8::take(reader)? != 0)
    }
}

/// `f64` travels as its IEEE-754 bit pattern — NaNs, signed zeros, and
/// subnormals all round-trip bit-exactly.
impl Wire for f64 {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::take(reader)?))
    }
}

/// Sequences carry a `u32` element count, validated against the remaining
/// payload (every element encodes to at least [`Wire::MIN_LEN`] bytes) before
/// any allocation.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(
            self.len() <= u32::MAX as usize,
            "sequence exceeds u32 count"
        );
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = u32::take(reader)? as usize;
        if count.saturating_mul(T::MIN_LEN) > reader.remaining() {
            return Err(DecodeError::LengthOverrun {
                declared: count,
                have: reader.remaining(),
            });
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::take(reader)?);
        }
        Ok(items)
    }
}

/// Strings are a `u32` byte length plus UTF-8 bytes.
impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= u32::MAX as usize, "string exceeds u32 length");
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u32::take(reader)? as usize;
        if len > reader.remaining() {
            return Err(DecodeError::LengthOverrun {
                declared: len,
                have: reader.remaining(),
            });
        }
        std::str::from_utf8(reader.bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8)
    }
}

/// [`SpecKey`] codec failures: the bytes decode, but no such key can exist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyError {
    /// The α bits decode to a value outside `(0, 1]`.
    InvalidAlpha(f64),
    /// The property bitmask has undefined bits set.
    InvalidProperties(u8),
    /// The objective tag is unknown, or `d` is inconsistent with it.
    InvalidObjective {
        /// The objective tag byte.
        tag: u8,
        /// The accompanying distance field.
        d: u16,
    },
    /// The group size is zero or exceeds [`MAX_WIRE_N`].
    InvalidGroupSize,
    /// The `L0,d` threshold exceeds the group size.
    DistanceTooLarge {
        /// The threshold.
        d: usize,
        /// The group size.
        n: usize,
    },
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::InvalidAlpha(value) => write!(f, "key alpha {value} is outside (0, 1]"),
            KeyError::InvalidProperties(bits) => {
                write!(f, "key property bitmask {bits:#04x} has undefined bits")
            }
            KeyError::InvalidObjective { tag, d } => {
                write!(f, "key objective tag {tag} with d = {d} is invalid")
            }
            KeyError::InvalidGroupSize => {
                write!(f, "key group size n must be in 1..={MAX_WIRE_N}")
            }
            KeyError::DistanceTooLarge { d, n } => {
                write!(f, "key L0,d threshold {d} exceeds group size {n}")
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// Either failure mode of [`take_spec_key`]: the bytes ran out, or they
/// decode to an impossible key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecKeyError {
    /// The primitive layer failed (truncation).
    Decode(DecodeError),
    /// A field failed validation.
    Key(KeyError),
}

impl fmt::Display for SpecKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecKeyError::Decode(e) => e.fmt(f),
            SpecKeyError::Key(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SpecKeyError {}

impl From<DecodeError> for SpecKeyError {
    fn from(e: DecodeError) -> Self {
        SpecKeyError::Decode(e)
    }
}

impl From<KeyError> for SpecKeyError {
    fn from(e: KeyError) -> Self {
        SpecKeyError::Key(e)
    }
}

fn objective_tag(objective: ObjectiveKey) -> (u8, u16) {
    match objective {
        ObjectiveKey::L0 => (OBJ_L0, 0),
        ObjectiveKey::L1 => (OBJ_L1, 0),
        ObjectiveKey::L2 => (OBJ_L2, 0),
        ObjectiveKey::L0Beyond(d) => (OBJ_L0_BEYOND, d as u16),
    }
}

/// The key rule: `1 ≤ n ≤`[`MAX_WIRE_N`], and an `L0,d` threshold `d ≤ n`.
///
/// Every path that sizes state by a key's `n` applies this one check first:
/// [`put_spec_key`] and [`take_spec_key`] (so both binary formats), the JSON
/// front end's key parser, and the report collector.
pub fn check_key(key: &SpecKey) -> Result<(), KeyError> {
    if key.n == 0 || key.n > MAX_WIRE_N {
        return Err(KeyError::InvalidGroupSize);
    }
    if let ObjectiveKey::L0Beyond(d) = key.objective {
        if d > key.n {
            return Err(KeyError::DistanceTooLarge { d, n: key.n });
        }
    }
    Ok(())
}

/// Append a [`SpecKey`]'s [`SPEC_KEY_LEN`] bytes to `out`, refusing any key
/// that breaks [`check_key`] (so every encoded key decodes).
pub fn put_spec_key(key: &SpecKey, out: &mut Vec<u8>) -> Result<(), KeyError> {
    check_key(key)?;
    let (tag, d) = objective_tag(key.objective);
    (key.n as u32).put(out);
    key.alpha.bits().put(out);
    out.push(key.properties.bits());
    out.push(tag);
    d.put(out);
    Ok(())
}

/// Decode one [`SpecKey`], validating every field: α range, property
/// bitmask, objective tag/distance consistency, and the [`check_key`] rule.
pub fn take_spec_key(reader: &mut Reader<'_>) -> Result<SpecKey, SpecKeyError> {
    let n = u32::take(reader)? as usize;
    let alpha_value = f64::from_bits(u64::take(reader)?);
    let alpha = Alpha::new(alpha_value).map_err(|_| KeyError::InvalidAlpha(alpha_value))?;
    let bits = u8::take(reader)?;
    let properties = PropertySet::from_bits(bits).ok_or(KeyError::InvalidProperties(bits))?;
    let tag = u8::take(reader)?;
    let d = u16::take(reader)?;
    let objective = match (tag, d) {
        (OBJ_L0, 0) => ObjectiveKey::L0,
        (OBJ_L1, 0) => ObjectiveKey::L1,
        (OBJ_L2, 0) => ObjectiveKey::L2,
        (OBJ_L0_BEYOND, d) => ObjectiveKey::L0Beyond(d as usize),
        (tag, d) => return Err(KeyError::InvalidObjective { tag, d }.into()),
    };
    let key = SpecKey::with_objective(n, alpha, properties, objective);
    check_key(&key)?;
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::Property;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        0xAAu8.put(&mut out);
        0xBBCCu16.put(&mut out);
        0xDDEE_FF00u32.put(&mut out);
        0x1122_3344_5566_7788u64.put(&mut out);
        (-0.0f64).put(&mut out);
        true.put(&mut out);
        String::from("héllo").put(&mut out);
        vec![1u32, 2, 3].put(&mut out);

        let mut r = Reader::new(&out);
        assert_eq!(u8::take(&mut r).unwrap(), 0xAA);
        assert_eq!(u16::take(&mut r).unwrap(), 0xBBCC);
        assert_eq!(u32::take(&mut r).unwrap(), 0xDDEE_FF00);
        assert_eq!(u64::take(&mut r).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(f64::take(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(bool::take(&mut r).unwrap());
        assert_eq!(String::take(&mut r).unwrap(), "héllo");
        assert_eq!(Vec::<u32>::take(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        7u64.put(&mut out);
        let mut r = Reader::new(&out[..5]);
        assert_eq!(
            u64::take(&mut r),
            Err(DecodeError::Truncated { needed: 8, have: 5 })
        );
    }

    #[test]
    fn forged_counts_cannot_demand_memory() {
        // A Vec<u64> declaring u32::MAX elements but carrying 4 bytes must be
        // refused before any allocation is sized.
        let mut payload = Vec::new();
        u32::MAX.put(&mut payload);
        payload.extend_from_slice(&[0, 0, 0, 0]);
        let mut r = Reader::new(&payload);
        assert_eq!(
            Vec::<u64>::take(&mut r),
            Err(DecodeError::LengthOverrun {
                declared: u32::MAX as usize,
                have: 4
            })
        );
        // Same for strings.
        let mut payload = Vec::new();
        1_000_000u32.put(&mut payload);
        payload.push(b'x');
        let mut r = Reader::new(&payload);
        assert_eq!(
            String::take(&mut r),
            Err(DecodeError::LengthOverrun {
                declared: 1_000_000,
                have: 1
            })
        );
    }

    /// A count within one byte per element is still forged when each element
    /// needs more: 1 000 declared over 1 000 bytes would reserve 4 KB of
    /// `u32`, 8 KB of `f64` or 24 KB of `String`, and then run out.
    #[test]
    fn forged_counts_are_checked_at_each_elements_smallest_encoding() {
        fn take_forged<T: Wire>(bytes: usize) -> Result<usize, DecodeError> {
            let mut payload = Vec::new();
            1_000u32.put(&mut payload);
            payload.resize(4 + bytes, 0);
            Vec::<T>::take(&mut Reader::new(&payload)).map(|items| items.len())
        }
        let overrun = Err(DecodeError::LengthOverrun {
            declared: 1_000,
            have: 1_000,
        });
        assert_eq!(take_forged::<u32>(1_000), overrun);
        assert_eq!(take_forged::<f64>(1_000), overrun);
        assert_eq!(take_forged::<String>(1_000), overrun);
        // Exactly enough bytes for the smallest encodings decodes.
        assert_eq!(take_forged::<u32>(4_000), Ok(1_000));
        assert_eq!(take_forged::<f64>(8_000), Ok(1_000));
        assert_eq!(take_forged::<String>(4_000), Ok(1_000));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut payload = Vec::new();
        2u32.put(&mut payload);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&payload);
        assert_eq!(String::take(&mut r), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn spec_keys_round_trip_across_objectives_and_properties() {
        let keys = [
            SpecKey::new(8, Alpha::new(0.9).unwrap(), PropertySet::empty()),
            SpecKey::with_objective(
                32,
                Alpha::new(0.1).unwrap(),
                PropertySet::empty().with(Property::WeakHonesty),
                ObjectiveKey::L1,
            ),
            SpecKey::with_objective(
                16,
                Alpha::new(0.5).unwrap(),
                PropertySet::empty(),
                ObjectiveKey::L0Beyond(3),
            ),
        ];
        for key in keys {
            let mut out = Vec::new();
            put_spec_key(&key, &mut out).unwrap();
            assert_eq!(out.len(), SPEC_KEY_LEN);
            let mut r = Reader::new(&out);
            assert_eq!(take_spec_key(&mut r).unwrap(), key);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn key_validation_names_the_bad_field() {
        let key = SpecKey::new(8, Alpha::new(0.9).unwrap(), PropertySet::empty());
        let mut good = Vec::new();
        put_spec_key(&key, &mut good).unwrap();

        // Zero and oversized group sizes; the ceiling itself is admitted.
        for n in [0, MAX_WIRE_N as u32 + 1, u32::MAX] {
            let mut bad = good.clone();
            bad[0..4].copy_from_slice(&n.to_le_bytes());
            assert_eq!(
                take_spec_key(&mut Reader::new(&bad)),
                Err(KeyError::InvalidGroupSize.into()),
                "n = {n}"
            );
        }
        let mut edge = good.clone();
        edge[0..4].copy_from_slice(&(MAX_WIRE_N as u32).to_le_bytes());
        assert_eq!(
            take_spec_key(&mut Reader::new(&edge)).unwrap().n,
            MAX_WIRE_N
        );
        // An L0,d threshold beyond n.
        let mut bad = good.clone();
        bad[13] = OBJ_L0_BEYOND;
        bad[14..16].copy_from_slice(&9u16.to_le_bytes());
        assert_eq!(
            take_spec_key(&mut Reader::new(&bad)),
            Err(KeyError::DistanceTooLarge { d: 9, n: 8 }.into())
        );
        // α out of range.
        let mut bad = good.clone();
        bad[4..12].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            take_spec_key(&mut Reader::new(&bad)),
            Err(SpecKeyError::Key(KeyError::InvalidAlpha(v))) if v == 2.0
        ));
        // Undefined property bit.
        let mut bad = good.clone();
        bad[12] = 0x80;
        assert_eq!(
            take_spec_key(&mut Reader::new(&bad)),
            Err(KeyError::InvalidProperties(0x80).into())
        );
        // Unknown objective tag and inconsistent d.
        let mut bad = good.clone();
        bad[13] = 9;
        assert!(matches!(
            take_spec_key(&mut Reader::new(&bad)),
            Err(SpecKeyError::Key(KeyError::InvalidObjective { tag: 9, .. }))
        ));
        let mut bad = good.clone();
        bad[14] = 1; // d = 1 on an L0 tag
        assert!(matches!(
            take_spec_key(&mut Reader::new(&bad)),
            Err(SpecKeyError::Key(KeyError::InvalidObjective { d: 1, .. }))
        ));
        // Truncated key.
        assert!(matches!(
            take_spec_key(&mut Reader::new(&good[..10])),
            Err(SpecKeyError::Decode(DecodeError::Truncated { .. }))
        ));
        // Encode-side refusals: the same rule, so every encoded key decodes.
        let huge = SpecKey::new(
            MAX_WIRE_N + 1,
            Alpha::new(0.9).unwrap(),
            PropertySet::empty(),
        );
        assert_eq!(
            put_spec_key(&huge, &mut Vec::new()),
            Err(KeyError::InvalidGroupSize)
        );
        let far = SpecKey::with_objective(
            8,
            Alpha::new(0.9).unwrap(),
            PropertySet::empty(),
            ObjectiveKey::L0Beyond(1 << 20),
        );
        assert_eq!(
            put_spec_key(&far, &mut Vec::new()),
            Err(KeyError::DistanceTooLarge { d: 1 << 20, n: 8 })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any byte string either decodes to a key that re-encodes to those
        /// exact bytes, or fails cleanly — never a panic.
        #[test]
        fn arbitrary_key_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..24)) {
            let mut reader = Reader::new(&bytes);
            if let Ok(key) = take_spec_key(&mut reader) {
                let mut out = Vec::new();
                put_spec_key(&key, &mut out).unwrap();
                prop_assert_eq!(&out[..], &bytes[..SPEC_KEY_LEN]);
            }
        }
    }
}

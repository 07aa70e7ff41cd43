//! Hostile keys through every serving path.
//!
//! One table of group sizes that break the key rule (`1 ≤ n ≤ MAX_WIRE_N`)
//! is driven through one `ProtoConnection` — a JSON `report`, a JSON `warm`,
//! a hand-built `CPMF` `warm` frame and a `CPMR` record — and through
//! `ReportCollector::ingest_batch`.  Every case must be refused before any
//! state is sized by `n`: the collector stays empty and the design cache
//! never misses.  One JSON `report` at exactly `MAX_WIRE_N` is accepted,
//! which pins the bound.

use cpm_collect::wire::{encode_batch, Report, HEADER_LEN};
use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};
use cpm_serve::proto::{self, Op, ProtoConfig, ProtoConnection, FRAME_HEADER_LEN, MAX_WIRE_N};
use cpm_serve::{Engine, WireResponse};

const HOSTILE_N: [u64; 4] = [0, MAX_WIRE_N as u64 + 1, 65_536, u32::MAX as u64];

fn key(n: usize) -> SpecKey {
    SpecKey::new(n, Alpha::new(0.9).unwrap(), PropertySet::empty())
}

/// Send one length-prefixed payload and return the one response payload.
fn exchange(conn: &mut ProtoConnection, engine: &Engine, payload: &[u8]) -> Vec<u8> {
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(payload);
    conn.ingest(engine, &framed)
        .expect("a hostile key is a soft failure");
    let pending = conn.pending_output().to_vec();
    conn.advance_output(pending.len());
    let len = u32::from_le_bytes(pending[..4].try_into().unwrap()) as usize;
    assert_eq!(pending.len(), 4 + len, "exactly one response frame");
    pending[4..].to_vec()
}

fn parse_json(reply: &[u8]) -> WireResponse {
    serde_json::from_str(std::str::from_utf8(reply).unwrap()).unwrap()
}

fn json_reply(conn: &mut ProtoConnection, engine: &Engine, request: &str) -> WireResponse {
    parse_json(&exchange(conn, engine, request.as_bytes()))
}

/// A valid `CPMF` `warm` frame for `n = 8`, with its key's `n` field
/// overwritten (the encoder refuses to write a hostile key itself).
fn cpmf_warm(n: u32) -> Vec<u8> {
    let mut frame = proto::encode_request(&Op::Warm { key: key(8) }).unwrap();
    frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 4].copy_from_slice(&n.to_le_bytes());
    frame
}

/// A one-record `CPMR` frame for `n = 8`, with the record's `n` overwritten.
fn cpmr_record(n: u32) -> Vec<u8> {
    let mut frame = encode_batch(&[Report::new(key(8), 0).unwrap()]).unwrap();
    frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&n.to_le_bytes());
    frame
}

#[test]
fn hostile_group_sizes_are_refused_on_every_path_before_anything_is_sized() {
    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    for n in HOSTILE_N {
        let report = json_reply(
            &mut conn,
            &engine,
            &format!(r#"{{"op": "report", "n": {n}, "alpha": 0.9, "reports": [0]}}"#),
        );
        assert!(!report.ok, "JSON report n = {n}");
        assert!(report.error.contains("group size"), "{}", report.error);

        let warm = json_reply(
            &mut conn,
            &engine,
            &format!(r#"{{"op": "warm", "n": {n}, "alpha": 0.9}}"#),
        );
        assert!(!warm.ok, "JSON warm n = {n}");
        assert!(warm.error.contains("group size"), "{}", warm.error);

        let wire_n = n as u32;
        let (_, binary) =
            proto::decode_response(&exchange(&mut conn, &engine, &cpmf_warm(wire_n))).unwrap();
        assert!(!binary.ok, "CPMF warm n = {n}");
        assert!(
            binary.error.starts_with("malformed binary frame"),
            "{}",
            binary.error
        );

        let batch = parse_json(&exchange(&mut conn, &engine, &cpmr_record(wire_n)));
        assert!(!batch.ok, "CPMR record n = {n}");
        assert!(
            batch.error.starts_with("malformed report frame"),
            "{}",
            batch.error
        );
        assert_eq!((batch.ingested, batch.rejected), (0, 0));

        let direct = engine.collector().ingest_batch(&key(n as usize), [0]);
        assert_eq!(
            (direct.accepted, direct.rejected),
            (0, 1),
            "ingest_batch n = {n}"
        );
    }
    assert!(
        engine.collector().is_empty(),
        "no accumulator was allocated"
    );
    assert_eq!(engine.cache_stats().misses, 0, "nothing was designed");

    // The bound is exact: a report at n = MAX_WIRE_N is accepted.
    let edge = json_reply(
        &mut conn,
        &engine,
        &format!(
            r#"{{"op": "report", "n": {MAX_WIRE_N}, "alpha": 0.9, "reports": [0, {MAX_WIRE_N}]}}"#
        ),
    );
    assert!(edge.ok, "error: {}", edge.error);
    assert_eq!((edge.ingested, edge.rejected), (2, 0));
    assert_eq!(engine.collector().len(), 1);
    assert_eq!(engine.cache_stats().misses, 0, "a report designs nothing");
}

#[test]
fn an_l0_d_threshold_beyond_n_is_refused_at_parse_with_the_cpmf_text() {
    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let json = json_reply(
        &mut conn,
        &engine,
        r#"{"op": "warm", "n": 4, "alpha": 0.9, "objective": "L0,5"}"#,
    );
    assert!(!json.ok);

    let valid = SpecKey::with_objective(
        4,
        Alpha::new(0.9).unwrap(),
        PropertySet::empty(),
        ObjectiveKey::L0Beyond(2),
    );
    let mut frame = proto::encode_request(&Op::Warm { key: valid }).unwrap();
    // The key's `d` field follows n (4 B), α (8 B), properties and tag (1 B each).
    frame[FRAME_HEADER_LEN + 14..FRAME_HEADER_LEN + 16].copy_from_slice(&5u16.to_le_bytes());
    let (_, binary) = proto::decode_response(&exchange(&mut conn, &engine, &frame)).unwrap();
    assert!(!binary.ok);
    assert_eq!(
        binary.error,
        format!("malformed binary frame: {}", json.error)
    );
    assert_eq!(engine.cache_stats().misses, 0, "refused before design");
}

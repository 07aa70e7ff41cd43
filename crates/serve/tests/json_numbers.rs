//! JSON numbers that are not the integer a field holds are refused at decode.
//!
//! Negative, fractional and out-of-range numbers in a JSON frame's integer
//! fields — privatize inputs, a group size, report outputs — must fail the
//! frame as a malformed request naming the integer type, before anything is
//! designed, drawn or counted: truncating them would serve or tally a value
//! the client never sent.

use cpm_serve::proto::{ProtoConfig, ProtoConnection};
use cpm_serve::{Engine, WireResponse};

/// Send one length-prefixed JSON payload and parse the one response.
fn exchange(conn: &mut ProtoConnection, engine: &Engine, request: &str) -> WireResponse {
    let mut framed = (request.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(request.as_bytes());
    conn.ingest(engine, &framed)
        .expect("a bad number is a soft failure");
    let pending = conn.pending_output().to_vec();
    conn.advance_output(pending.len());
    let len = u32::from_le_bytes(pending[..4].try_into().unwrap()) as usize;
    assert_eq!(pending.len(), 4 + len, "exactly one response frame");
    serde_json::from_str(std::str::from_utf8(&pending[4..]).unwrap()).unwrap()
}

#[test]
fn non_integral_negative_and_out_of_range_numbers_are_decode_errors() {
    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let frames = [
        r#"{"op":"privatize","n":4,"alpha":0.9,"inputs":[-1]}"#,
        r#"{"op":"privatize","n":4,"alpha":0.9,"inputs":[2.7]}"#,
        r#"{"op":"privatize","n":16.9,"alpha":0.9,"inputs":[1]}"#,
        r#"{"op":"report","n":4,"alpha":0.9,"reports":[-3,4.5]}"#,
        r#"{"op":"report","n":4,"alpha":0.9,"reports":[1e20]}"#,
    ];
    for frame in frames {
        let response = exchange(&mut conn, &engine, frame);
        assert!(!response.ok, "{frame} was served");
        assert!(
            response.error.starts_with("malformed request:") && response.error.contains("`usize`"),
            "{frame}: {}",
            response.error
        );
        assert!(
            response.outputs.is_empty() && response.ingested == 0,
            "{frame}"
        );
    }
    assert!(
        engine.collector().is_empty(),
        "a refused report was counted"
    );
    assert_eq!(
        engine.cache().stats().misses,
        0,
        "a refused frame was designed"
    );

    // The same frames with the numbers integral are served.
    let served = exchange(
        &mut conn,
        &engine,
        r#"{"op":"report","n":4,"alpha":0.9,"reports":[3,4]}"#,
    );
    assert!(served.ok && served.ingested == 2, "{}", served.error);
}

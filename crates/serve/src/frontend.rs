//! The wire front end: a length-prefixed request/response loop over any
//! `Read`/`Write` pair (the `serve_stdio` binary wires it to stdin/stdout; tests
//! drive it over in-memory buffers).
//!
//! ## Framing
//!
//! Each message is a 4-byte little-endian length followed by that many bytes
//! of payload.  Frames above [`MAX_FRAME_LEN`] are rejected (a corrupt length
//! prefix must not trigger a giant allocation).  A clean EOF between frames ends
//! the connection.
//!
//! A payload is UTF-8 JSON (below), a **compact binary request frame**
//! (`b"CPMF"` magic — see [`crate::proto`] for the format; its response is
//! binary too), or a **binary report frame**: if the payload starts with the
//! `b"CPMR"` magic it is decoded as a `cpm_collect::wire` batch (versioned
//! 12-byte header + 20-byte records, one `(SpecKey, output)` report each) and
//! ingested into the engine's collector.  JSON can never start with either
//! magic, so the three formats share one framing layer unambiguously.  The
//! response to a report frame is the usual JSON
//! `{"ok": true, "ingested": N, "rejected": 0}`.
//!
//! ## Requests
//!
//! ```json
//! {"op": "privatize", "n": 32, "alpha": 0.9, "properties": "WH+CM",
//!  "objective": "L0", "inputs": [3, 17, 0]}
//! ```
//!
//! `op` is one of `privatize` (default when empty), `warm`, `report`,
//! `estimate`, `stats`, `metrics`, `shutdown`.  `properties` lists the paper's
//! short names separated by `+`, `,`, or spaces.  The response mirrors the
//! request frame format:
//!
//! ```json
//! {"ok": true, "outputs": [2, 18, 1], "cache_hits": 1, ...}
//! ```
//!
//! ## The collect pipeline: `report` and `estimate`
//!
//! `report` is the JSON fallback for the binary report format — it carries
//! privatized outputs for **one** key and feeds the engine's
//! `cpm_collect::ReportCollector`:
//!
//! ```json
//! {"op": "report", "n": 32, "alpha": 0.9, "reports": [2, 18, 1, 32]}
//! ```
//!
//! → `{"ok": true, "ingested": 4, "rejected": 0}`.  Out-of-range outputs, and
//! reports for new keys once the collector holds
//! `cpm_collect::DEFAULT_MAX_KEYS`, are counted in `rejected`, never fatal.
//! Every key on every path obeys the one key rule, `cpm_wire::check_key`
//! (`1 ≤ n ≤` [`crate::proto::MAX_WIRE_N`], `d ≤ n` for `L0,d`): a request
//! breaking it fails soft with `ok: false` before anything is sized by `n`,
//! and a `CPMR` frame holding such a record is refused whole.
//!
//! `estimate` inverts the key's designed mechanism matrix over everything the
//! collector has accumulated for it, returning the unbiased input-frequency
//! estimates and their plug-in variances (`estimates[k] ± z·sqrt(variances[k])`
//! is the client's confidence interval):
//!
//! ```json
//! {"op": "estimate", "n": 32, "alpha": 0.9}
//! ```
//!
//! → `{"ok": true, "reports": 4, "estimates": [...], "variances": [...]}`.
//! Estimating a key with no reports, or a singular design (the Uniform
//! mechanism carries nothing to invert), fails soft with `ok: false`.
//!
//! ## The `metrics` op
//!
//! `{"op": "metrics"}` scrapes the process-wide [`cpm_obs`] registry without
//! restarting or attaching to the server: the response's `metrics` field holds
//! the full Prometheus-style text exposition (every other numeric field is
//! zero).  An example scrape, abbreviated:
//!
//! ```json
//! {"ok": true, "metrics": "# TYPE cpm_cache_hits_total counter\ncpm_cache_hits_total 412\n# TYPE cpm_engine_batch_nanos histogram\ncpm_engine_batch_nanos_bucket{le=\"524287\"} 9\n..."}
//! ```
//!
//! See the `cpm-obs` crate docs for the metric catalogue (names, types,
//! labels, meanings).

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use crate::engine::Engine;

/// Upper bound on one frame's payload (16 MiB) — a corrupt or hostile length
/// prefix fails fast instead of allocating unbounded memory.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// One request frame, as decoded from JSON.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireRequest {
    /// `privatize` (default when empty), `warm`, `report`, `estimate`,
    /// `stats`, `metrics`, or `shutdown`.
    #[serde(default)]
    pub op: String,
    /// Group size of the requested mechanism.
    #[serde(default)]
    pub n: usize,
    /// Privacy parameter α ∈ (0, 1].
    #[serde(default)]
    pub alpha: f64,
    /// Requested structural properties: short names separated by `+`/`,`/space
    /// (e.g. `"WH+CM"`); empty for the unconstrained design.
    #[serde(default)]
    pub properties: String,
    /// Objective: `L0` (default), `L1`, `L2`, or `L0,d`.
    #[serde(default)]
    pub objective: String,
    /// True counts to privatise (one draw per entry; `privatize` only).
    #[serde(default)]
    pub inputs: Vec<usize>,
    /// Privatised outputs to accumulate (`report` only).
    #[serde(default)]
    pub reports: Vec<usize>,
}

/// One response frame, encoded to JSON.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireResponse {
    /// Whether the request succeeded; on failure only `error` is meaningful.
    pub ok: bool,
    /// Human-readable failure reason (empty on success).
    #[serde(default)]
    pub error: String,
    /// Privatised outputs, in input order (`privatize` only).
    #[serde(default)]
    pub outputs: Vec<usize>,
    /// Cumulative cache hits (`stats`) or this batch's key hits (`privatize`).
    #[serde(default)]
    pub cache_hits: u64,
    /// Cumulative or per-batch cold misses, as above.
    #[serde(default)]
    pub cache_misses: u64,
    /// Designs performed (cumulative for `stats`; this batch for `privatize`).
    #[serde(default)]
    pub design_solves: u64,
    /// Resident designs after the request.
    #[serde(default)]
    pub entries: u64,
    /// Microseconds spent designing (this batch, or cumulative for `stats`).
    #[serde(default)]
    pub design_micros: u64,
    /// Microseconds spent sampling (this batch; 0 for `stats`).
    #[serde(default)]
    pub sample_micros: u64,
    /// The Prometheus-style text exposition (`metrics` op only; empty
    /// otherwise).
    #[serde(default)]
    pub metrics: String,
    /// Reports accepted into the collector (`report` and binary frames).
    #[serde(default)]
    pub ingested: u64,
    /// Reports dropped as out of range, as above.
    #[serde(default)]
    pub rejected: u64,
    /// Total reports backing the estimates (`estimate` only).
    #[serde(default)]
    pub reports: u64,
    /// Unbiased input-frequency estimates `t̂ = M⁻¹·o` (`estimate` only).
    #[serde(default)]
    pub estimates: Vec<f64>,
    /// Plug-in variances, one per estimate (`estimate` only).
    #[serde(default)]
    pub variances: Vec<f64>,
}

/// Totals for one served connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionSummary {
    /// Frames processed (including failed ones).
    pub frames: u64,
    /// Privatised draws returned.
    pub draws: u64,
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Read one length-prefixed frame; `Ok(None)` on clean EOF before a length
/// prefix, an `UnexpectedEof` error on EOF mid-frame.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let got = reader.read(&mut len_bytes[filled..])?;
        if got == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame length prefix",
            ));
        }
        filled += got;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let got = reader.read(&mut payload[filled..])?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame payload",
            ));
        }
        filled += got;
    }
    Ok(Some(payload))
}

/// Serve frames until EOF or a `shutdown` op.  One bad frame (malformed JSON,
/// unknown op, invalid α) yields an `ok: false` response and the loop continues;
/// only I/O failures end the connection with an error.
///
/// This is the blocking adapter over the pull-based protocol state machine in
/// [`crate::proto`] — the poll reactor in [`crate::net`] drives the identical
/// machine nonblockingly, so both transports speak byte-identical protocol.
pub fn serve_connection<R: Read, W: Write>(
    engine: &Engine,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<ConnectionSummary> {
    let mut conn = crate::proto::ProtoConnection::new(crate::proto::ProtoConfig::from_env());
    let mut buf = [0u8; 16 * 1024];
    loop {
        let got = reader.read(&mut buf)?;
        if got == 0 {
            flush_pending(&mut conn, writer)?;
            conn.finish()?;
            break;
        }
        let outcome = conn.ingest(engine, &buf[..got]);
        // Responses produced before a protocol error are still delivered.
        flush_pending(&mut conn, writer)?;
        outcome?;
        if conn.wants_close() {
            break;
        }
    }
    Ok(conn.summary())
}

fn flush_pending<W: Write>(
    conn: &mut crate::proto::ProtoConnection,
    writer: &mut W,
) -> io::Result<()> {
    loop {
        let pending = conn.pending_output();
        if pending.is_empty() {
            return writer.flush();
        }
        writer.write_all(pending)?;
        let written = pending.len();
        conn.advance_output(written);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use cpm_core::{Alpha, PropertySet, SpecKey};
    use std::io::Cursor;

    fn frame(json: &str) -> Vec<u8> {
        let mut bytes = (json.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(json.as_bytes());
        bytes
    }

    fn run(engine: &Engine, frames: &[&str]) -> (Vec<WireResponse>, ConnectionSummary) {
        let mut input = Vec::new();
        for f in frames {
            input.extend_from_slice(&frame(f));
        }
        let mut reader = Cursor::new(input);
        let mut output = Vec::new();
        let summary = serve_connection(engine, &mut reader, &mut output).unwrap();
        let mut responses = Vec::new();
        let mut cursor = Cursor::new(output);
        while let Some(payload) = read_frame(&mut cursor).unwrap() {
            let text = String::from_utf8(payload).unwrap();
            responses.push(serde_json::from_str(&text).unwrap());
        }
        (responses, summary)
    }

    #[test]
    fn privatize_round_trip_over_the_wire() {
        let engine = Engine::with_defaults();
        let (responses, summary) = run(
            &engine,
            &[r#"{"op": "privatize", "n": 8, "alpha": 0.5, "inputs": [0, 4, 8]}"#],
        );
        assert_eq!(summary.frames, 1);
        assert_eq!(summary.draws, 3);
        let response = &responses[0];
        assert!(response.ok, "error: {}", response.error);
        assert_eq!(response.outputs.len(), 3);
        assert!(response.outputs.iter().all(|&o| o <= 8));
        assert_eq!(response.cache_misses, 1);
    }

    #[test]
    fn warm_then_privatize_hits_the_cache() {
        let engine = Engine::with_defaults();
        let (responses, _) = run(
            &engine,
            &[
                r#"{"op": "warm", "n": 6, "alpha": 0.9, "properties": "WH"}"#,
                r#"{"op": "privatize", "n": 6, "alpha": 0.9, "properties": "WH", "inputs": [1, 2]}"#,
                r#"{"op": "stats"}"#,
            ],
        );
        assert!(responses.iter().all(|r| r.ok));
        assert_eq!(responses[0].entries, 1);
        assert_eq!(responses[1].cache_hits, 1);
        assert_eq!(responses[1].cache_misses, 0);
        assert_eq!(responses[2].design_solves, 1);
    }

    #[test]
    fn bad_frames_fail_soft_and_shutdown_closes() {
        let engine = Engine::with_defaults();
        let (responses, summary) = run(
            &engine,
            &[
                r#"{"op": "privatize", "n": 4, "alpha": 2.0, "inputs": [1]}"#,
                r#"{"op": "nonsense"}"#,
                "not json at all",
                r#"{"op": "shutdown"}"#,
                r#"{"op": "stats"}"#,
            ],
        );
        // The post-shutdown frame is never processed.
        assert_eq!(summary.frames, 4);
        assert!(!responses[0].ok, "alpha = 2.0 must be rejected");
        assert!(!responses[1].ok);
        assert!(!responses[2].ok);
        assert!(responses[3].ok, "shutdown acks before closing");
    }

    #[test]
    fn oversized_and_truncated_frames_are_io_errors() {
        let engine = Engine::with_defaults();
        // A length prefix far beyond MAX_FRAME_LEN.
        let mut reader = Cursor::new(((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec());
        let mut output = Vec::new();
        assert!(serve_connection(&engine, &mut reader, &mut output).is_err());
        // EOF mid-payload.
        let mut truncated = 10u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(b"abc");
        let mut reader = Cursor::new(truncated);
        assert!(serve_connection(&engine, &mut reader, &mut output).is_err());
    }

    #[test]
    fn oversized_report_group_sizes_fail_soft_without_allocating() {
        let engine = Engine::with_defaults();
        // n = u32::MAX - 1 would size a ~34 GB accumulator if it reached the
        // collector; the report op must refuse it at validation instead.
        let (responses, _) = run(
            &engine,
            &[
                r#"{"op": "report", "n": 4294967294, "alpha": 0.9, "reports": [0]}"#,
                r#"{"op": "report", "n": 0, "alpha": 0.9, "reports": [0]}"#,
            ],
        );
        assert!(!responses[0].ok);
        assert!(responses[0].error.contains("group size"));
        assert!(!responses[1].ok);
        assert!(engine.collector().is_empty());
    }

    #[test]
    fn report_then_estimate_round_trip() {
        let engine = Engine::with_defaults();
        // 60 reports at output 0, 40 at output 4, for the (n=4, α=0.5) GM.
        let mut reports = String::from(r#"{"op": "report", "n": 4, "alpha": 0.5, "reports": ["#);
        let outputs: Vec<String> = (0..100)
            .map(|i| if i < 60 { "0" } else { "4" }.to_string())
            .collect();
        reports.push_str(&outputs.join(","));
        reports.push_str("]}");
        let (responses, _) = run(
            &engine,
            &[
                &reports,
                r#"{"op": "report", "n": 4, "alpha": 0.5, "reports": [9]}"#,
                r#"{"op": "estimate", "n": 4, "alpha": 0.5}"#,
                r#"{"op": "estimate", "n": 7, "alpha": 0.5}"#,
            ],
        );
        assert!(responses[0].ok, "error: {}", responses[0].error);
        assert_eq!(responses[0].ingested, 100);
        // Output 9 is out of range for n = 4: rejected, not fatal.
        assert!(responses[1].ok);
        assert_eq!(responses[1].ingested, 0);
        assert_eq!(responses[1].rejected, 1);
        let estimate = &responses[2];
        assert!(estimate.ok, "error: {}", estimate.error);
        assert_eq!(estimate.reports, 100);
        assert_eq!(estimate.estimates.len(), 5);
        assert_eq!(estimate.variances.len(), 5);
        assert!((estimate.estimates.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        // No reports for the (n=7, α=0.5) key.
        assert!(!responses[3].ok);
        assert!(responses[3].error.contains("no reports"));
    }

    #[test]
    fn binary_report_frames_share_the_connection() {
        use cpm_collect::wire::{encode_batch, Report};
        let engine = Engine::with_defaults();
        let key = SpecKey::new(8, Alpha::new(0.9).unwrap(), PropertySet::empty());
        let reports: Vec<Report> = (0..=8).map(|o| Report::new(key, o).unwrap()).collect();
        let batch = encode_batch(&reports).unwrap();

        let mut input = Vec::new();
        input.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        input.extend_from_slice(&batch);
        input.extend_from_slice(&frame(r#"{"op": "estimate", "n": 8, "alpha": 0.9}"#));
        // A corrupt binary frame (magic intact, body truncated) fails soft.
        let corrupt = &batch[..batch.len() - 3];
        input.extend_from_slice(&(corrupt.len() as u32).to_le_bytes());
        input.extend_from_slice(corrupt);

        let mut reader = Cursor::new(input);
        let mut output = Vec::new();
        let summary = serve_connection(&engine, &mut reader, &mut output).unwrap();
        assert_eq!(summary.frames, 3);

        let mut responses: Vec<WireResponse> = Vec::new();
        let mut cursor = Cursor::new(output);
        while let Some(payload) = read_frame(&mut cursor).unwrap() {
            responses.push(serde_json::from_str(&String::from_utf8(payload).unwrap()).unwrap());
        }
        assert!(responses[0].ok, "error: {}", responses[0].error);
        assert_eq!(responses[0].ingested, 9);
        assert!(responses[1].ok, "error: {}", responses[1].error);
        assert_eq!(responses[1].reports, 9);
        assert_eq!(responses[1].estimates.len(), 9);
        assert!(!responses[2].ok, "truncated binary frame must fail soft");
        assert!(responses[2].error.contains("report frame"));
    }

    #[test]
    fn property_parsing_accepts_the_paper_separators() {
        use cpm_core::Property;
        // The wire grammar is core's `FromStr for PropertySet`.
        assert_eq!(
            "WH+CM".parse::<PropertySet>().unwrap(),
            PropertySet::empty()
                .with(Property::WeakHonesty)
                .with(Property::ColumnMonotonicity)
        );
        assert_eq!(
            "rh, s".parse::<PropertySet>().unwrap(),
            PropertySet::empty()
                .with(Property::RowHonesty)
                .with(Property::Symmetry)
        );
        assert_eq!("".parse::<PropertySet>().unwrap(), PropertySet::empty());
        assert!("XX".parse::<PropertySet>().is_err());
    }
}

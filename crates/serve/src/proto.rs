//! The transport-agnostic protocol layer: `bytes → Op → response bytes`.
//!
//! [`crate::frontend`] historically mixed three concerns — framing, op
//! dispatch, and blocking I/O.  This module pulls the first two out into a
//! *pull-based state machine* ([`ProtoConnection`]) that owns no socket: a
//! transport (the blocking `serve_stdio` loop, or the poll reactor in
//! [`crate::net`]) feeds it raw bytes with [`ProtoConnection::ingest`] and
//! drains response bytes from [`ProtoConnection::pending_output`].  The same
//! dispatcher therefore serves every transport bit-identically.
//!
//! ## Content negotiation (by first bytes)
//!
//! A connection's byte stream is sniffed once, then each frame payload again:
//!
//! * `GET ` as the first four bytes of a *connection* switches it into a
//!   one-shot HTTP mode serving `GET /metrics` (the Prometheus exposition) —
//!   an HTTP request line can never be a valid frame length prefix below
//!   [`crate::frontend::MAX_FRAME_LEN`], so the sniff is unambiguous.
//! * Inside the length-prefixed framing, a payload starting `b"CPMR"` is a
//!   binary report batch ([`cpm_collect::wire`]), `b"CPMF"` is a compact
//!   binary request frame (below), and anything else is UTF-8 JSON
//!   ([`crate::frontend::WireRequest`]).  JSON can never start with either
//!   magic.
//!
//! ## One frame path
//!
//! Each payload is decoded once, by its codec, into an [`Op`] or the reason
//! it cannot be read:
//!
//! * `b"CPMR"` → [`Op::ReportBatch`] ([`cpm_collect::wire::decode_batch`]);
//! * `b"CPMF"` → [`decode_request`];
//! * JSON → [`WireRequest`] → [`op_from_request`].
//!
//! One serve step then meters the frame, charges a decoded report op to the
//! connection's token bucket, dispatches the op through the dispatcher that
//! [`dispatch_op`] wraps, and encodes the reply in the codec the frame
//! arrived in.  The metering rule holds for every codec:
//!
//! * every frame counts once in `cpm_wire_requests_total{op}` as it arrives,
//!   and is timed in `cpm_wire_op_nanos{op}` whatever the outcome;
//! * `op` is the op the frame names: `report` for `CPMR`, otherwise the
//!   `CPMF` tag or the JSON `op`, and `other` when the frame cannot be read;
//! * a frame that fails to decode — a key breaking [`check_key`] included —
//!   adds 1 to `cpm_net_frame_decode_errors_total`.
//!
//! The seven ops are named once, in one table of name, `CPMF` tag and metric
//! handles.
//!
//! ## The `b"CPMF"` compact binary frame format
//!
//! All integers little-endian, built from [`cpm_wire`] primitives; every
//! field validated on decode, trailing bytes refused.
//!
//! ```text
//! header (8 bytes)                     body (op-specific)
//! +-------+---------+------+-----+    privatize: spec key (16B) + u32-count inputs
//! | magic | version | kind | op  |    warm/estimate: spec key (16B)
//! | 4B    | u16     | u8   | u8  |    report: spec key (16B) + u32-count outputs
//! +-------+---------+------+-----+    stats / metrics / shutdown: empty
//! ```
//!
//! `kind` is 0 for requests, 1 for responses.  A response body mirrors
//! [`crate::frontend::WireResponse`] field-for-field (`ok`, `error`,
//! `outputs`, the six counter fields, `metrics`, `ingested`, `rejected`,
//! `reports`, `estimates`, `variances`), so the binary codec round-trips
//! every op bit-exactly against the JSON codec — a property pinned by the
//! `proto_differential` test suite.  Responses are encoded in the codec the
//! request arrived in; `CPMR` report batches keep their JSON acknowledgement
//! for backward compatibility.  A response to a frame that could not be read
//! carries the tag `0xFF`.
//!
//! ## Per-connection report rate limiting
//!
//! Reports are the one op an untrusted client can spam cheaply, so each
//! connection carries an optional token bucket (`CPM_REPORT_RATE` reports per
//! second, burst = one second's worth): a `report` op or `CPMR` batch whose
//! record count exceeds the available tokens is refused with a soft failure
//! and counted in `cpm_report_rate_limited_total` — the connection itself
//! stays up.  A report is charged only once it decodes, so a frame refused
//! for its key leaves the bucket untouched.

use std::io;
use std::sync::OnceLock;
use std::time::Instant;

use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};
use cpm_obs::{Counter, Histogram};
use cpm_wire::{check_key, put_spec_key, take_seq, take_spec_key, Reader, Wire};

use crate::engine::Engine;
use crate::frontend::{ConnectionSummary, WireRequest, WireResponse, MAX_FRAME_LEN};

/// Leading bytes of a compact binary request/response frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CPMF";

/// Current binary frame version; decoding accepts exactly this version.
pub const FRAME_VERSION: u16 = 1;

/// Bytes in the binary frame header (magic + version + kind + op).
pub const FRAME_HEADER_LEN: usize = 8;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// The `CPMF` tag of a response to a frame that could not be read.
const UNREAD_TAG: u8 = 0xFF;

/// One row of [`OPS`]: an op's name and its metric handles.
struct WireOp {
    /// The JSON `op` and the `op` label of the op's metrics.
    name: &'static str,
    /// `cpm_wire_requests_total{op=...}` and `cpm_wire_op_nanos{op=...}`,
    /// resolved in the registry when the op is first served (so a label's
    /// series appear in the exposition only once it has been).
    metrics: OnceLock<(&'static Counter, &'static Histogram)>,
}

impl WireOp {
    const fn new(name: &'static str) -> Self {
        WireOp {
            name,
            metrics: OnceLock::new(),
        }
    }

    fn metrics(&self) -> (&'static Counter, &'static Histogram) {
        *self.metrics.get_or_init(|| {
            let registry = cpm_obs::registry();
            (
                registry.counter(&format!("cpm_wire_requests_total{{op=\"{}\"}}", self.name)),
                registry.histogram(&format!("cpm_wire_op_nanos{{op=\"{}\"}}", self.name)),
            )
        })
    }
}

/// The wire ops, named once.  A row's index is the op's `CPMF` tag; its name
/// is the JSON `op` and the `op` label of its metrics.  The last row, `other`,
/// labels every frame that names no op, so the label set stays closed and a
/// hostile client cannot grow the registry.
static OPS: [WireOp; 8] = [
    WireOp::new("privatize"),
    WireOp::new("warm"),
    WireOp::new("stats"),
    WireOp::new("metrics"),
    WireOp::new("report"),
    WireOp::new("estimate"),
    WireOp::new("shutdown"),
    WireOp::new("other"),
];

/// The row of [`OPS`] labelling a frame that names no op.
const OTHER: u8 = OPS.len() as u8 - 1;

/// The row of [`OPS`] a name denotes: an empty name is `privatize`, as in
/// JSON, and an unknown one is `other`.
fn row_of(name: &str) -> u8 {
    let name = if name.is_empty() { "privatize" } else { name };
    OPS[..usize::from(OTHER)]
        .iter()
        .position(|op| op.name == name)
        .map_or(OTHER, |row| row as u8)
}

/// Ceiling on buffered HTTP request headers; a client trickling an unbounded
/// header must not grow the connection buffer forever.
const MAX_HTTP_HEADER: usize = 8 * 1024;

/// The group-size ceiling every key on every wire path obeys (JSON, `CPMF`
/// and `CPMR` alike), re-exported from the one key rule in [`cpm_wire`].
pub use cpm_wire::MAX_WIRE_N;

/// One decoded request, independent of the codec it arrived in.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Draw one privatized output per input from the design for `key`.
    Privatize {
        /// The mechanism design to draw from.
        key: SpecKey,
        /// True counts to privatize.
        inputs: Vec<usize>,
    },
    /// Design (or confirm residency of) one key.
    Warm {
        /// The key to design.
        key: SpecKey,
    },
    /// Accumulate privatized outputs for one key (the JSON / CPMF form).
    Report {
        /// The mechanism the outputs were drawn from.
        key: SpecKey,
        /// The privatized outputs.
        outputs: Vec<usize>,
    },
    /// Accumulate a decoded `b"CPMR"` batch (mixed keys).
    ReportBatch(
        /// The decoded reports.
        Vec<cpm_collect::Report>,
    ),
    /// Invert the design over everything collected for one key.
    Estimate {
        /// The key to estimate.
        key: SpecKey,
    },
    /// Cumulative cache counters.
    Stats,
    /// The Prometheus-style metrics exposition.
    Metrics,
    /// Close this connection (after acknowledging).
    Shutdown,
}

impl Op {
    /// The closed metric label set (`cpm_wire_requests_total{op=...}`).
    pub fn label(&self) -> &'static str {
        OPS[usize::from(self.tag())].name
    }

    /// The op's `CPMF` tag, which is its row of [`OPS`].
    fn tag(&self) -> u8 {
        match self {
            Op::Privatize { .. } => 0,
            Op::Warm { .. } => 1,
            Op::Stats => 2,
            Op::Metrics => 3,
            Op::Report { .. } | Op::ReportBatch(_) => 4,
            Op::Estimate { .. } => 5,
            Op::Shutdown => 6,
        }
    }
}

/// Which wire codec a frame arrived in (responses mirror the request codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// UTF-8 JSON payloads (and `CPMR` batches, whose acks are JSON).
    Json,
    /// Compact `b"CPMF"` binary frames.
    Binary,
}

/// Build the mechanism key a JSON wire request denotes, refusing one that
/// breaks [`check_key`] with the text a `CPMF` frame gets.
pub(crate) fn parse_key(request: &WireRequest) -> Result<SpecKey, String> {
    let alpha = Alpha::new(request.alpha).map_err(|e| e.to_string())?;
    let properties: PropertySet = request
        .properties
        .parse()
        .map_err(|e: cpm_core::CoreError| e.to_string())?;
    let objective = ObjectiveKey::parse(&request.objective)
        .ok_or_else(|| format!("unknown objective {:?}", request.objective))?;
    let key = SpecKey::with_objective(request.n, alpha, properties, objective);
    check_key(&key).map_err(|e| e.to_string())?;
    Ok(key)
}

/// Meter one frame or op under the wire rule: `cpm_wire_requests_total{op}`
/// counts it before `work` runs, so a `metrics` op's own scrape already
/// includes it, and `cpm_wire_op_nanos{op}` records the time since `arrived`
/// once the work is done, whatever its outcome.
fn metered<R>(row: u8, arrived: Instant, work: impl FnOnce() -> R) -> R {
    let metrics = cpm_obs::enabled().then(|| OPS[usize::from(row)].metrics());
    if let Some((requests, _)) = metrics {
        requests.inc();
    }
    let outcome = work();
    if let Some((_, nanos)) = metrics {
        nanos.record_duration(arrived.elapsed());
    }
    outcome
}

/// Translate a decoded JSON request into an [`Op`].
pub fn op_from_request(request: &WireRequest) -> Result<Op, String> {
    match request.op.as_str() {
        "" | "privatize" => Ok(Op::Privatize {
            key: parse_key(request)?,
            inputs: request.inputs.clone(),
        }),
        "warm" => Ok(Op::Warm {
            key: parse_key(request)?,
        }),
        "report" => Ok(Op::Report {
            key: parse_key(request)?,
            outputs: request.reports.clone(),
        }),
        "estimate" => Ok(Op::Estimate {
            key: parse_key(request)?,
        }),
        "stats" => Ok(Op::Stats),
        "metrics" => Ok(Op::Metrics),
        "shutdown" => Ok(Op::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Whether a frame payload is a compact binary request/response frame.
pub fn is_binary_frame(payload: &[u8]) -> bool {
    payload.len() >= FRAME_MAGIC.len() && payload[..FRAME_MAGIC.len()] == FRAME_MAGIC
}

/// Encode an [`Op`] as a `b"CPMF"` request frame payload.
///
/// Fails (with a human-readable reason) when the op cannot be represented:
/// a key outside the binary codec's bounds, or a `ReportBatch` (which has its
/// own `b"CPMR"` format).
pub fn encode_request(op: &Op) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 24);
    out.extend_from_slice(&FRAME_MAGIC);
    FRAME_VERSION.put(&mut out);
    out.push(KIND_REQUEST);
    out.push(op.tag());
    match op {
        Op::Privatize { key, inputs } => {
            put_spec_key(key, &mut out).map_err(|e| e.to_string())?;
            put_u32_seq(inputs, &mut out)?;
        }
        Op::Warm { key } | Op::Estimate { key } => {
            put_spec_key(key, &mut out).map_err(|e| e.to_string())?;
        }
        Op::Report { key, outputs } => {
            put_spec_key(key, &mut out).map_err(|e| e.to_string())?;
            put_u32_seq(outputs, &mut out)?;
        }
        Op::ReportBatch(_) => {
            return Err("report batches travel as CPMR frames, not CPMF".to_string())
        }
        Op::Stats | Op::Metrics | Op::Shutdown => {}
    }
    Ok(out)
}

fn put_u32_seq(values: &[usize], out: &mut Vec<u8>) -> Result<(), String> {
    if values.len() > u32::MAX as usize {
        return Err(format!(
            "sequence of {} exceeds the u32 count",
            values.len()
        ));
    }
    (values.len() as u32).put(out);
    for &value in values {
        u32::try_from(value)
            .map_err(|_| format!("value {value} exceeds the u32 wire field"))?
            .put(out);
    }
    Ok(())
}

fn take_u32_seq(reader: &mut Reader<'_>) -> Result<Vec<usize>, String> {
    take_seq(reader, |value: u32| value as usize).map_err(|e| e.to_string())
}

/// Decode a `b"CPMF"` request frame payload into its [`Op`], validating the
/// header, every field, and the absence of trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Op, String> {
    let tag = request_tag(payload)?;
    let mut reader = Reader::new(&payload[FRAME_HEADER_LEN..]);
    let key = |reader: &mut Reader<'_>| take_spec_key(reader).map_err(|e| e.to_string());
    let op = match OPS.get(usize::from(tag)).map(|op| op.name) {
        Some("privatize") => Op::Privatize {
            key: key(&mut reader)?,
            inputs: take_u32_seq(&mut reader)?,
        },
        Some("warm") => Op::Warm {
            key: key(&mut reader)?,
        },
        Some("report") => Op::Report {
            key: key(&mut reader)?,
            outputs: take_u32_seq(&mut reader)?,
        },
        Some("estimate") => Op::Estimate {
            key: key(&mut reader)?,
        },
        Some("stats") => Op::Stats,
        Some("metrics") => Op::Metrics,
        Some("shutdown") => Op::Shutdown,
        _ => return Err(format!("unknown binary op tag {tag}")),
    };
    if !reader.is_empty() {
        return Err(format!(
            "binary frame carries {} trailing byte(s) after its body",
            reader.remaining()
        ));
    }
    Ok(op)
}

/// Check a `b"CPMF"` request frame's header and return the op tag it carries.
fn request_tag(payload: &[u8]) -> Result<u8, String> {
    if !is_binary_frame(payload) {
        return Err("payload does not start with the CPMF frame magic".to_string());
    }
    if payload.len() < FRAME_HEADER_LEN {
        return Err(format!(
            "binary frame of {} bytes is shorter than the {FRAME_HEADER_LEN}-byte header",
            payload.len()
        ));
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().expect("2 bytes"));
    if version != FRAME_VERSION {
        return Err(format!(
            "unsupported binary frame version {version} (decoder speaks {FRAME_VERSION})"
        ));
    }
    if payload[6] != KIND_REQUEST {
        return Err(format!("frame kind {} is not a request", payload[6]));
    }
    Ok(payload[7])
}

/// Encode a response as a `b"CPMF"` response frame payload, mirroring
/// [`WireResponse`] field-for-field.
pub fn encode_response(tag: u8, response: &WireResponse) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(tag, response, &mut out);
    out
}

/// [`encode_response`], appended to `out`: a connection encodes its replies
/// straight into its output buffer.
fn encode_response_into(tag: u8, response: &WireResponse, out: &mut Vec<u8>) {
    out.extend_from_slice(&FRAME_MAGIC);
    FRAME_VERSION.put(out);
    out.push(KIND_RESPONSE);
    out.push(tag);
    response.ok.put(out);
    response.error.put(out);
    // Outputs fit u32 by construction: every key's group size is at most
    // `MAX_WIRE_N`, and outputs never exceed `n`.
    (response.outputs.len() as u32).put(out);
    for &output in &response.outputs {
        (output as u32).put(out);
    }
    response.cache_hits.put(out);
    response.cache_misses.put(out);
    response.design_solves.put(out);
    response.entries.put(out);
    response.design_micros.put(out);
    response.sample_micros.put(out);
    response.metrics.put(out);
    response.ingested.put(out);
    response.rejected.put(out);
    response.reports.put(out);
    response.estimates.put(out);
    response.variances.put(out);
}

/// Decode a `b"CPMF"` response frame payload into `(op tag, response)` —
/// the client half of the binary codec, used by tests, benches, and probes.
pub fn decode_response(payload: &[u8]) -> Result<(u8, WireResponse), String> {
    if !is_binary_frame(payload) {
        return Err("payload does not start with the CPMF frame magic".to_string());
    }
    if payload.len() < FRAME_HEADER_LEN {
        return Err("binary response frame is shorter than its header".to_string());
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().expect("2 bytes"));
    if version != FRAME_VERSION {
        return Err(format!("unsupported binary frame version {version}"));
    }
    if payload[6] != KIND_RESPONSE {
        return Err(format!("frame kind {} is not a response", payload[6]));
    }
    let tag = payload[7];
    let mut reader = Reader::new(&payload[FRAME_HEADER_LEN..]);
    let mut take = || -> Result<WireResponse, cpm_wire::DecodeError> {
        Ok(WireResponse {
            ok: bool::take(&mut reader)?,
            error: String::take(&mut reader)?,
            outputs: take_seq(&mut reader, |value: u32| value as usize)?,
            cache_hits: u64::take(&mut reader)?,
            cache_misses: u64::take(&mut reader)?,
            design_solves: u64::take(&mut reader)?,
            entries: u64::take(&mut reader)?,
            design_micros: u64::take(&mut reader)?,
            sample_micros: u64::take(&mut reader)?,
            metrics: String::take(&mut reader)?,
            ingested: u64::take(&mut reader)?,
            rejected: u64::take(&mut reader)?,
            reports: u64::take(&mut reader)?,
            estimates: Vec::take(&mut reader)?,
            variances: Vec::take(&mut reader)?,
        })
    };
    let response = take().map_err(|e| e.to_string())?;
    if !reader.is_empty() {
        return Err(format!(
            "binary response carries {} trailing byte(s)",
            reader.remaining()
        ));
    }
    Ok((tag, response))
}

fn failure(message: String) -> WireResponse {
    WireResponse {
        ok: false,
        error: message,
        ..WireResponse::default()
    }
}

/// The acknowledgement of one report ingest.
fn ingested(summary: cpm_collect::IngestSummary) -> WireResponse {
    WireResponse {
        ok: true,
        ingested: summary.accepted,
        rejected: summary.rejected,
        ..WireResponse::default()
    }
}

/// Process one decoded [`Op`] against the engine, metered by the wire rule
/// (request counter on entry, latency histogram after the work).  Returns
/// the response and whether the connection should close.
pub fn dispatch_op(engine: &Engine, op: &Op) -> (WireResponse, bool) {
    metered(op.tag(), Instant::now(), || dispatch_inner(engine, op))
}

/// Decode one frame payload once: the codec its reply goes out in, and its
/// [`Op`] — or the row of [`OPS`] the frame names and why it cannot be read.
fn decode_frame(payload: &[u8]) -> (Codec, Result<Op, (u8, String)>) {
    if cpm_collect::wire::is_report_frame(payload) {
        // CPMR batches keep their JSON acknowledgement.
        let op = cpm_collect::wire::decode_batch(payload)
            .map(Op::ReportBatch)
            .map_err(|e| (row_of("report"), format!("malformed report frame: {e}")));
        (Codec::Json, op)
    } else if is_binary_frame(payload) {
        let op = decode_request(payload).map_err(|message| {
            let row = request_tag(payload).map_or(OTHER, |tag| tag.min(OTHER));
            (row, format!("malformed binary frame: {message}"))
        });
        (Codec::Binary, op)
    } else {
        let op = match std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<WireRequest>(text).map_err(|e| e.to_string()))
        {
            Ok(request) => {
                op_from_request(&request).map_err(|message| (row_of(&request.op), message))
            }
            Err(message) => Err((OTHER, format!("malformed request: {message}"))),
        };
        (Codec::Json, op)
    }
}

/// The one dispatcher, unmetered: every served frame and every
/// [`dispatch_op`] call reaches the engine through it.
fn dispatch_inner(engine: &Engine, op: &Op) -> (WireResponse, bool) {
    match op {
        Op::Privatize { key, inputs } => match engine.privatize_run(key, inputs) {
            Ok(outcome) => (
                WireResponse {
                    ok: true,
                    outputs: outcome.outputs,
                    cache_hits: outcome.stats.cache_hits,
                    cache_misses: outcome.stats.cache_misses,
                    design_solves: outcome.stats.cache_misses,
                    entries: engine.cache().len() as u64,
                    design_micros: outcome.stats.design_time.as_micros() as u64,
                    sample_micros: outcome.stats.sample_time.as_micros() as u64,
                    ..WireResponse::default()
                },
                false,
            ),
            Err(error) => (failure(error.to_string()), false),
        },
        Op::Warm { key } => match engine.warm(&[*key]) {
            Ok(()) => (
                WireResponse {
                    ok: true,
                    entries: engine.cache().len() as u64,
                    ..WireResponse::default()
                },
                false,
            ),
            Err(error) => (failure(error.to_string()), false),
        },
        Op::Report { key, outputs } => (
            ingested(
                engine
                    .collector()
                    .ingest_batch(key, outputs.iter().copied()),
            ),
            false,
        ),
        Op::ReportBatch(reports) => (ingested(engine.collector().ingest_reports(reports)), false),
        Op::Estimate { key } => match engine.collector().observed(key) {
            Some(observed) => {
                match engine
                    .design(key)
                    .map_err(|e| e.to_string())
                    .and_then(|design| {
                        cpm_collect::estimate_from_design(&design, &observed)
                            .map_err(|e| e.to_string())
                    }) {
                    Ok(freq) => (
                        WireResponse {
                            ok: true,
                            reports: freq.total_reports,
                            estimates: freq.estimates,
                            variances: freq.variances,
                            ..WireResponse::default()
                        },
                        false,
                    ),
                    Err(message) => (failure(message), false),
                }
            }
            None => (
                failure("no reports collected for this key yet".to_string()),
                false,
            ),
        },
        Op::Stats => {
            let stats = engine.cache_stats();
            (
                WireResponse {
                    ok: true,
                    cache_hits: stats.hits,
                    cache_misses: stats.misses,
                    design_solves: stats.design_solves,
                    entries: stats.entries as u64,
                    design_micros: stats.design_nanos / 1_000,
                    ..WireResponse::default()
                },
                false,
            )
        }
        Op::Metrics => (
            WireResponse {
                ok: true,
                metrics: cpm_obs::registry().render(),
                ..WireResponse::default()
            },
            false,
        ),
        Op::Shutdown => (
            WireResponse {
                ok: true,
                ..WireResponse::default()
            },
            true,
        ),
    }
}

/// A continuous-refill token bucket: `rate` tokens per second, burst capacity
/// of one second's worth (at least 1).
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket admitting `rate` units per second, starting full.
    pub fn new(rate: f64, now: Instant) -> Self {
        let burst = rate.max(1.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: now,
        }
    }

    /// Try to spend `cost` tokens at time `now`; `false` leaves the bucket
    /// untouched (a refused batch does not drain the budget of later ones).
    pub fn admit(&mut self, cost: f64, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if cost <= self.tokens {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }
}

/// Per-connection protocol configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoConfig {
    /// Reports per second one connection may submit (`None` = unlimited).
    pub report_rate: Option<f64>,
}

impl ProtoConfig {
    /// Read overrides from the environment: `CPM_REPORT_RATE` (reports per
    /// second per connection; unset, empty, or `0` means unlimited).
    pub fn from_env() -> Self {
        let report_rate = std::env::var("CPM_REPORT_RATE")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|&rate| rate > 0.0);
        ProtoConfig { report_rate }
    }
}

/// Protocol-level failures that end a connection (soft per-frame failures are
/// answered in-band and do NOT raise these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A frame length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLong(usize),
    /// The stream ended inside a frame, length prefix, or HTTP header.
    TruncatedInput,
    /// An HTTP request's headers exceed the buffered ceiling.
    HttpHeaderTooLong,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::FrameTooLong(len) => {
                write!(f, "frame length {len} exceeds MAX_FRAME_LEN")
            }
            ProtoError::TruncatedInput => write!(f, "EOF inside a frame"),
            ProtoError::HttpHeaderTooLong => {
                write!(f, "HTTP request headers exceed {MAX_HTTP_HEADER} bytes")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(error: ProtoError) -> Self {
        let kind = match error {
            ProtoError::TruncatedInput => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, error.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Sniffing the first four connection bytes (framed vs HTTP).
    Start,
    /// Length-prefixed frames (JSON / CPMF / CPMR payloads).
    Framed,
    /// One-shot HTTP request (`GET /metrics`).
    Http,
}

/// The pull-based per-connection protocol state machine.
///
/// Feed raw bytes with [`ingest`](Self::ingest); completed frames are
/// decoded, dispatched against the engine, and their responses appended to
/// the output buffer, which the transport drains via
/// [`pending_output`](Self::pending_output) / [`advance_output`](Self::advance_output).
/// The machine never blocks and owns no I/O.
#[derive(Debug)]
pub struct ProtoConnection {
    mode: Mode,
    inbuf: Vec<u8>,
    consumed: usize,
    outbuf: Vec<u8>,
    out_cursor: usize,
    closing: bool,
    limiter: Option<TokenBucket>,
    summary: ConnectionSummary,
}

impl ProtoConnection {
    /// A fresh connection in sniffing state.
    pub fn new(config: ProtoConfig) -> Self {
        ProtoConnection {
            mode: Mode::Start,
            inbuf: Vec::new(),
            consumed: 0,
            outbuf: Vec::new(),
            out_cursor: 0,
            closing: false,
            limiter: config
                .report_rate
                .map(|rate| TokenBucket::new(rate, Instant::now())),
            summary: ConnectionSummary::default(),
        }
    }

    /// Feed bytes received from the transport, processing every completed
    /// frame.  A hard protocol violation (oversized frame, oversized HTTP
    /// header) is returned — the transport should close the connection; soft
    /// failures are answered in-band and return `Ok`.
    pub fn ingest(&mut self, engine: &Engine, bytes: &[u8]) -> Result<(), ProtoError> {
        if self.closing {
            // Post-close bytes are discarded, never buffered: a peer that
            // keeps writing after `shutdown` (while refusing to read the ack,
            // so the connection cannot finish closing) must not grow this
            // buffer without bound.
            return Ok(());
        }
        self.inbuf.extend_from_slice(bytes);
        self.pump(engine)
    }

    /// Signal clean EOF from the peer.  Errors if the stream ended inside a
    /// partial frame or header.
    pub fn finish(&mut self) -> Result<(), ProtoError> {
        self.closing = true;
        if self.consumed < self.inbuf.len() {
            return Err(ProtoError::TruncatedInput);
        }
        Ok(())
    }

    /// Response bytes waiting to be written to the transport.
    pub fn pending_output(&self) -> &[u8] {
        &self.outbuf[self.out_cursor..]
    }

    /// Mark `n` output bytes as written.
    pub fn advance_output(&mut self, n: usize) {
        self.out_cursor += n;
        debug_assert!(self.out_cursor <= self.outbuf.len());
        if self.out_cursor == self.outbuf.len() {
            self.outbuf.clear();
            self.out_cursor = 0;
        }
    }

    /// Whether the connection should close once pending output is flushed
    /// (a `shutdown` op was acknowledged, or the HTTP response was served).
    pub fn closing(&self) -> bool {
        self.closing
    }

    /// Whether the transport can close now: closing and nothing left to write.
    pub fn wants_close(&self) -> bool {
        self.closing && self.pending_output().is_empty()
    }

    /// Frame/draw totals so far.
    pub fn summary(&self) -> ConnectionSummary {
        self.summary
    }

    fn pump(&mut self, engine: &Engine) -> Result<(), ProtoError> {
        loop {
            if self.closing {
                // Post-shutdown bytes are never processed (pinned behavior);
                // drop whatever arrived pipelined behind the closing frame so
                // the buffer does not outlive its last useful byte.
                self.consumed = 0;
                self.inbuf.clear();
                return Ok(());
            }
            let available = self.inbuf.len() - self.consumed;
            match self.mode {
                Mode::Start => {
                    if available < 4 {
                        return Ok(());
                    }
                    let head = &self.inbuf[self.consumed..self.consumed + 4];
                    if head == b"GET " {
                        self.mode = Mode::Http;
                    } else {
                        self.mode = Mode::Framed;
                    }
                }
                Mode::Framed => {
                    if available < 4 {
                        return Ok(());
                    }
                    let at = self.consumed;
                    let len =
                        u32::from_le_bytes(self.inbuf[at..at + 4].try_into().expect("4 bytes"))
                            as usize;
                    if len > MAX_FRAME_LEN {
                        return Err(ProtoError::FrameTooLong(len));
                    }
                    if available < 4 + len {
                        return Ok(());
                    }
                    // Decode in place: the decoded op owns its data, so the
                    // input can be drained before the serve step runs.
                    let arrived = Instant::now();
                    let (codec, decoded) = decode_frame(&self.inbuf[at + 4..at + 4 + len]);
                    self.consumed += 4 + len;
                    self.drain_consumed();
                    self.process_frame(engine, arrived, codec, decoded);
                }
                Mode::Http => {
                    let buffered = &self.inbuf[self.consumed..];
                    match find_header_end(buffered) {
                        Some(end) => {
                            let header: Vec<u8> = buffered[..end].to_vec();
                            self.consumed += end;
                            self.drain_consumed();
                            self.process_http(&header);
                            self.closing = true;
                        }
                        None if buffered.len() > MAX_HTTP_HEADER => {
                            return Err(ProtoError::HttpHeaderTooLong);
                        }
                        None => return Ok(()),
                    }
                }
            }
        }
    }

    /// Reclaim consumed input so a long-lived connection's buffer stays
    /// proportional to its *unprocessed* bytes, not its lifetime traffic.
    fn drain_consumed(&mut self) {
        if self.consumed > 0 {
            self.inbuf.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// The serve step every frame takes once [`decode_frame`] has read it
    /// (at `arrived`): meter it, charge a decoded report to the token bucket,
    /// dispatch it, and write the reply in the codec it arrived in.
    fn process_frame(
        &mut self,
        engine: &Engine,
        arrived: Instant,
        codec: Codec,
        decoded: Result<Op, (u8, String)>,
    ) {
        self.summary.frames += 1;
        let (row, reply_tag) = match &decoded {
            Ok(op) => (op.tag(), op.tag()),
            Err((row, _)) => (*row, UNREAD_TAG),
        };
        let (response, close) = metered(row, arrived, || match decoded {
            Ok(op) => match self.charge(&op, arrived) {
                Some(refused) => (refused, false),
                None => dispatch_inner(engine, &op),
            },
            Err((_, message)) => {
                cpm_obs::counter!("cpm_net_frame_decode_errors_total").inc();
                (failure(message), false)
            }
        });
        self.summary.draws += response.outputs.len() as u64;
        self.write_response(codec, reply_tag, &response);
        if close {
            self.closing = true;
        }
    }

    /// Charge a decoded report op, arrived at `now`, to the per-connection
    /// token bucket, one token a report and at least one a frame;
    /// `Some(response)` refuses it undispatched.  Every other op passes free.
    fn charge(&mut self, op: &Op, now: Instant) -> Option<WireResponse> {
        let count = match op {
            Op::Report { outputs, .. } => outputs.len(),
            Op::ReportBatch(reports) => reports.len(),
            _ => return None,
        };
        let limiter = self.limiter.as_mut()?;
        let cost = (count as f64).max(1.0);
        if limiter.admit(cost, now) {
            return None;
        }
        cpm_obs::counter!("cpm_report_rate_limited_total").add(cost as u64);
        Some(failure(format!(
            "report rate limit exceeded for this connection ({count} reports refused)"
        )))
    }

    /// Append one length-prefixed reply to `outbuf`.  The payload is written
    /// behind a placeholder prefix, which is patched once its length is known.
    fn write_response(&mut self, codec: Codec, tag: u8, response: &WireResponse) {
        let start = self.outbuf.len();
        self.outbuf.extend_from_slice(&[0; 4]);
        match codec {
            Codec::Json => self.outbuf.extend_from_slice(
                serde_json::to_string(response)
                    .expect("WireResponse always serializes")
                    .as_bytes(),
            ),
            Codec::Binary => encode_response_into(tag, response, &mut self.outbuf),
        }
        let len = self.outbuf.len() - start - 4;
        debug_assert!(len <= MAX_FRAME_LEN, "response exceeds frame cap");
        self.outbuf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    fn process_http(&mut self, header: &[u8]) {
        self.summary.frames += 1;
        cpm_obs::counter!("cpm_http_requests_total").inc();
        let text = String::from_utf8_lossy(header);
        let mut parts = text.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let (status, body) = if method != "GET" {
            ("405 Method Not Allowed", "only GET is served\n".to_string())
        } else if path == "/metrics" || path.starts_with("/metrics?") {
            ("200 OK", cpm_obs::registry().render())
        } else {
            ("404 Not Found", "try GET /metrics\n".to_string())
        };
        let head = format!(
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        self.outbuf.extend_from_slice(head.as_bytes());
        self.outbuf.extend_from_slice(body.as_bytes());
    }
}

/// Find the end of an HTTP header block (`\r\n\r\n`), returning the index one
/// past it.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    fn spec_key(n: usize, alpha: f64) -> SpecKey {
        SpecKey::new(n, Alpha::new(alpha).unwrap(), PropertySet::empty())
    }

    fn read_frames(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            frames.push(bytes[at + 4..at + 4 + len].to_vec());
            at += 4 + len;
        }
        frames
    }

    /// `take_u32_seq` decodes straight into `usize`s but keeps the sequence
    /// codec's forged-count check: a count the remaining bytes cannot hold
    /// at four bytes an input is refused before anything is reserved.
    #[test]
    fn a_forged_input_count_is_refused_before_reserving() {
        let op = Op::Privatize {
            key: spec_key(8, 0.9),
            inputs: vec![1, 2],
        };
        let mut payload = encode_request(&op).unwrap();
        let count_at = payload.len() - 2 * 4 - 4;
        payload[count_at..count_at + 4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode_request(&payload).unwrap_err(),
            "declared count 3 exceeds the 8 bytes remaining"
        );
        payload[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_request(&payload).unwrap(), op);
    }

    #[test]
    fn op_metric_handles_are_the_named_series() {
        let registry = cpm_obs::registry();
        let labels = [
            "privatize",
            "warm",
            "report",
            "estimate",
            "stats",
            "metrics",
            "shutdown",
            "other",
        ];
        for label in labels {
            let op = &OPS[usize::from(row_of(label))];
            assert_eq!(op.name, label);
            let (requests, nanos) = op.metrics();
            let named_requests =
                registry.counter(&format!("cpm_wire_requests_total{{op=\"{label}\"}}"));
            let named_nanos = registry.histogram(&format!("cpm_wire_op_nanos{{op=\"{label}\"}}"));
            assert!(std::ptr::eq(requests, named_requests), "{label}");
            assert!(std::ptr::eq(nanos, named_nanos), "{label}");
        }
        assert_eq!(row_of("no-such-op"), OTHER);
        assert_eq!(row_of(""), row_of("privatize"));
    }

    #[test]
    fn binary_request_round_trips_every_op() {
        let key = SpecKey::with_objective(
            16,
            Alpha::new(0.7).unwrap(),
            PropertySet::empty(),
            ObjectiveKey::L0Beyond(2),
        );
        let ops = [
            Op::Privatize {
                key,
                inputs: vec![0, 7, 16],
            },
            Op::Warm { key },
            Op::Report {
                key,
                outputs: vec![1, 2, 3],
            },
            Op::Estimate { key },
            Op::Stats,
            Op::Metrics,
            Op::Shutdown,
        ];
        for op in ops {
            let payload = encode_request(&op).unwrap();
            assert!(is_binary_frame(&payload));
            assert_eq!(decode_request(&payload).unwrap(), op);
        }
    }

    #[test]
    fn binary_response_round_trips_every_field() {
        let response = WireResponse {
            ok: true,
            error: "nope".to_string(),
            outputs: vec![0, 65_536],
            cache_hits: 1,
            cache_misses: 2,
            design_solves: 3,
            entries: 4,
            design_micros: 5,
            sample_micros: 6,
            metrics: "# TYPE x counter\nx 1\n".to_string(),
            ingested: 7,
            rejected: 8,
            reports: 9,
            estimates: vec![1.5, -0.25],
            variances: vec![0.125],
        };
        let payload = encode_response(Op::Stats.tag(), &response);
        let (tag, decoded) = decode_response(&payload).unwrap();
        assert_eq!(tag, Op::Stats.tag());
        assert_eq!(format!("{decoded:?}"), format!("{response:?}"));
    }

    #[test]
    fn binary_decode_refuses_malformed_frames() {
        let key = spec_key(8, 0.9);
        let good = encode_request(&Op::Warm { key }).unwrap();
        // Truncations at every prefix length fail cleanly.
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Wrong version.
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert!(decode_request(&bad).unwrap_err().contains("version"));
        // Response kind where a request is expected.
        let mut bad = good.clone();
        bad[6] = KIND_RESPONSE;
        assert!(decode_request(&bad).unwrap_err().contains("not a request"));
        // Unknown op tag.
        let mut bad = good.clone();
        bad[7] = 0x7F;
        assert!(decode_request(&bad).unwrap_err().contains("unknown"));
        // Trailing bytes.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_request(&bad).unwrap_err().contains("trailing"));
    }

    #[test]
    fn state_machine_serves_binary_and_json_on_one_connection() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let key = spec_key(6, 0.5);

        let binary = encode_request(&Op::Privatize {
            key,
            inputs: vec![0, 3, 6],
        })
        .unwrap();
        let json = br#"{"op": "stats"}"#;
        let mut input = frame(&binary);
        input.extend_from_slice(&frame(json));
        conn.ingest(&engine, &input).unwrap();

        let frames = read_frames(conn.pending_output());
        assert_eq!(frames.len(), 2);
        let (_, first) = decode_response(&frames[0]).unwrap();
        assert!(first.ok, "error: {}", first.error);
        assert_eq!(first.outputs.len(), 3);
        let second: WireResponse =
            serde_json::from_str(std::str::from_utf8(&frames[1]).unwrap()).unwrap();
        assert!(second.ok);
        assert_eq!(conn.summary().frames, 2);
        assert_eq!(conn.summary().draws, 3);
        assert!(!conn.closing());
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles_frames() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let input = frame(br#"{"op": "stats"}"#);
        for &byte in &input {
            conn.ingest(&engine, &[byte]).unwrap();
        }
        let frames = read_frames(conn.pending_output());
        assert_eq!(frames.len(), 1);
        conn.finish().unwrap();
    }

    #[test]
    fn shutdown_stops_processing_later_frames() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let mut input = frame(br#"{"op": "shutdown"}"#);
        input.extend_from_slice(&frame(br#"{"op": "stats"}"#));
        conn.ingest(&engine, &input).unwrap();
        assert!(conn.closing());
        assert_eq!(conn.summary().frames, 1, "post-shutdown frame unprocessed");
        assert_eq!(read_frames(conn.pending_output()).len(), 1);
        let pending = conn.pending_output().len();
        conn.advance_output(pending);
        assert!(conn.wants_close());
    }

    #[test]
    fn post_shutdown_bytes_are_discarded_not_buffered() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let mut input = frame(br#"{"op": "shutdown"}"#);
        // A partial frame pipelined behind the shutdown must be dropped, not
        // retained as "truncated input".
        input.extend_from_slice(&frame(br#"{"op": "stats"}"#)[..7]);
        conn.ingest(&engine, &input).unwrap();
        assert!(conn.closing());
        // A peer that keeps writing after shutdown is ignored outright.
        conn.ingest(&engine, &vec![0x55; 64 * 1024]).unwrap();
        assert_eq!(conn.summary().frames, 1);
        assert_eq!(read_frames(conn.pending_output()).len(), 1);
        // Nothing stayed buffered: EOF now is clean, not mid-frame.
        conn.finish().unwrap();
    }

    #[test]
    fn cpmr_records_beyond_the_serving_ceiling_are_rejected() {
        use cpm_collect::wire::{encode_batch, Report, HEADER_LEN, RECORD_LEN};
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let good = spec_key(8, 0.9);
        // The encoder refuses a key beyond MAX_WIRE_N, so forge the second
        // record's n by hand: the frame is malformed and refused whole, the
        // well-formed first record included.
        let mut batch =
            encode_batch(&[Report::new(good, 3).unwrap(), Report::new(good, 0).unwrap()]).unwrap();
        let second = HEADER_LEN + RECORD_LEN;
        batch[second..second + 4].copy_from_slice(&(MAX_WIRE_N as u32 + 1).to_le_bytes());
        conn.ingest(&engine, &frame(&batch)).unwrap();
        let frames = read_frames(conn.pending_output());
        let ack: WireResponse =
            serde_json::from_str(std::str::from_utf8(&frames[0]).unwrap()).unwrap();
        assert!(!ack.ok);
        assert!(
            ack.error.starts_with("malformed report frame"),
            "{}",
            ack.error
        );
        assert_eq!((ack.ingested, ack.rejected), (0, 0));
        assert!(engine.collector().is_empty(), "nothing was ingested");
    }

    #[test]
    fn oversized_prefixes_and_eof_mid_frame_are_hard_errors() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let oversized = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert_eq!(
            conn.ingest(&engine, &oversized),
            Err(ProtoError::FrameTooLong(MAX_FRAME_LEN + 1))
        );

        let mut conn = ProtoConnection::new(ProtoConfig::default());
        let mut truncated = 10u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(b"abc");
        conn.ingest(&engine, &truncated).unwrap();
        assert_eq!(conn.finish(), Err(ProtoError::TruncatedInput));
    }

    #[test]
    fn http_get_metrics_is_served_and_closes() {
        cpm_obs::counter!("cpm_wire_requests_total{op=\"stats\"}").inc();
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        conn.ingest(
            &engine,
            b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nUser-Agent: test\r\n\r\n",
        )
        .unwrap();
        assert!(conn.closing());
        let response = String::from_utf8_lossy(conn.pending_output()).to_string();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"));
        assert!(response.contains("cpm_wire_requests_total"), "{response}");

        // Unknown paths 404; the sniff only fires on the connection's first
        // bytes, so framed connections are unaffected.
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        conn.ingest(&engine, b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let response = String::from_utf8_lossy(conn.pending_output()).to_string();
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");
    }

    #[test]
    fn http_headers_cannot_grow_unboundedly() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig::default());
        conn.ingest(&engine, b"GET /metrics HTTP/1.1\r\n").unwrap();
        let filler = vec![b'a'; MAX_HTTP_HEADER + 64];
        assert_eq!(
            conn.ingest(&engine, &filler),
            Err(ProtoError::HttpHeaderTooLong)
        );
    }

    #[test]
    fn report_rate_limit_refuses_over_budget_batches_softly() {
        let engine = Engine::with_defaults();
        let mut conn = ProtoConnection::new(ProtoConfig {
            report_rate: Some(10.0),
        });
        // First batch of 10 fits the burst; the immediate second batch does not.
        let batch = br#"{"op": "report", "n": 4, "alpha": 0.5, "reports": [0,1,2,3,4,0,1,2,3,4]}"#;
        conn.ingest(&engine, &frame(batch)).unwrap();
        conn.ingest(&engine, &frame(batch)).unwrap();
        let frames = read_frames(conn.pending_output());
        let first: WireResponse =
            serde_json::from_str(std::str::from_utf8(&frames[0]).unwrap()).unwrap();
        let second: WireResponse =
            serde_json::from_str(std::str::from_utf8(&frames[1]).unwrap()).unwrap();
        assert!(first.ok, "error: {}", first.error);
        assert_eq!(first.ingested, 10);
        assert!(!second.ok, "the second batch must be refused");
        assert!(second.error.contains("rate limit"), "{}", second.error);
        // The connection survives: a non-report op still works.
        conn.ingest(&engine, &frame(br#"{"op": "stats"}"#)).unwrap();
        let frames = read_frames(conn.pending_output());
        let third: WireResponse =
            serde_json::from_str(std::str::from_utf8(frames.last().unwrap()).unwrap()).unwrap();
        assert!(third.ok);
    }

    #[test]
    fn token_bucket_refills_continuously() {
        let start = Instant::now();
        let mut bucket = TokenBucket::new(100.0, start);
        assert!(bucket.admit(100.0, start), "burst = one second's worth");
        assert!(!bucket.admit(1.0, start), "empty immediately after");
        // 50 ms later, ~5 tokens have dripped back.
        let later = start + std::time::Duration::from_millis(50);
        assert!(bucket.admit(4.0, later));
        assert!(!bucket.admit(4.0, later));
        // A refused spend must not drain the bucket.
        let much_later = later + std::time::Duration::from_secs(10);
        assert!(bucket.admit(100.0, much_later), "bucket refilled to burst");
    }
}

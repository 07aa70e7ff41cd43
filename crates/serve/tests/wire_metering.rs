//! The wire metering rule, checked frame by frame across the three codecs.
//!
//! Every frame counts once in `cpm_wire_requests_total{op}` when it arrives
//! and is timed in `cpm_wire_op_nanos{op}` whatever the outcome.  `op` is the
//! op the frame names: `report` for a `CPMR` batch, otherwise the `CPMF` tag
//! or the JSON `op`, and `other` when the frame cannot be read.  A frame that
//! fails to decode — a bad key included — adds 1 to
//! `cpm_net_frame_decode_errors_total`, and a report is charged to the
//! connection's token bucket only once it decodes.
//!
//! One table of frames (well-formed, malformed, bad-key and rate-limited,
//! each as JSON, `CPMF` and `CPMR`) goes through one rate-limited
//! connection, and every frame's counter deltas and reply are checked.  Its
//! own binary with a single test, because the metrics registry is global.

use cpm_collect::wire::{encode_batch, HEADER_LEN};
use cpm_collect::Report;
use cpm_core::{Alpha, PropertySet};
use cpm_serve::engine::Engine;
use cpm_serve::proto::{decode_response, encode_request, is_binary_frame, Op, MAX_WIRE_N};
use cpm_serve::{ProtoConfig, ProtoConnection, SpecKey, WireResponse};

/// Every `op` label the wire counters carry.
const LABELS: [&str; 8] = [
    "privatize",
    "warm",
    "stats",
    "metrics",
    "report",
    "estimate",
    "shutdown",
    "other",
];

/// The counters one frame may move.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    requests: Vec<u64>,
    timed: Vec<u64>,
    decode_errors: u64,
    rate_limited: u64,
}

fn counters() -> Counters {
    let registry = cpm_obs::registry();
    Counters {
        requests: LABELS
            .iter()
            .map(|op| {
                registry
                    .counter(&format!("cpm_wire_requests_total{{op=\"{op}\"}}"))
                    .get()
            })
            .collect(),
        timed: LABELS
            .iter()
            .map(|op| {
                registry
                    .histogram(&format!("cpm_wire_op_nanos{{op=\"{op}\"}}"))
                    .snapshot()
                    .count
            })
            .collect(),
        decode_errors: registry.counter("cpm_net_frame_decode_errors_total").get(),
        rate_limited: registry.counter("cpm_report_rate_limited_total").get(),
    }
}

/// One frame of the table and what it must do.
struct Row {
    what: &'static str,
    payload: Vec<u8>,
    /// The `op` label it is counted and timed under.
    op: &'static str,
    decode_error: bool,
    /// Reports it adds to `cpm_report_rate_limited_total`.
    rate_limited: u64,
    /// `None` for a successful reply, else a fragment of the error.
    error: Option<&'static str>,
}

fn row(what: &'static str, payload: Vec<u8>, op: &'static str) -> Row {
    Row {
        what,
        payload,
        op,
        decode_error: false,
        rate_limited: 0,
        error: None,
    }
}

impl Row {
    fn undecodable(mut self, error: &'static str) -> Self {
        self.decode_error = true;
        self.error = Some(error);
        self
    }

    fn rate_limited(mut self, reports: u64) -> Self {
        self.rate_limited = reports;
        self.error = Some("rate limit exceeded");
        self
    }
}

fn json(text: &str) -> Vec<u8> {
    text.as_bytes().to_vec()
}

fn cpmf(op: Op) -> Vec<u8> {
    encode_request(&op).expect("encodable op")
}

/// A `CPMF` frame for `op` whose key names a group size past the ceiling.
fn cpmf_bad_key(op: Op) -> Vec<u8> {
    let mut payload = cpmf(op);
    payload[8..12].copy_from_slice(&(MAX_WIRE_N as u32 + 1).to_le_bytes());
    payload
}

fn cpmr(key: SpecKey, outputs: &[u32]) -> Vec<u8> {
    let reports: Vec<Report> = outputs
        .iter()
        .map(|&output| Report::new(key, output).unwrap())
        .collect();
    encode_batch(&reports).unwrap()
}

/// The reply to one frame, in the codec the frame arrived in, and its
/// `CPMF` tag (`None` for a JSON reply).
fn reply(request: &[u8], payload: &[u8]) -> (Option<u8>, WireResponse) {
    if is_binary_frame(request) {
        let (tag, response) = decode_response(payload).expect("a CPMF reply");
        (Some(tag), response)
    } else {
        let text = std::str::from_utf8(payload).expect("a JSON reply");
        (None, serde_json::from_str(text).expect("a JSON reply"))
    }
}

#[test]
fn every_frame_is_metered_by_one_rule_in_every_codec() {
    let key = SpecKey::new(4, Alpha::new(0.5).unwrap(), PropertySet::empty());
    let privatize = || Op::Privatize {
        key,
        inputs: vec![1, 3],
    };
    let report = |outputs: Vec<usize>| Op::Report { key, outputs };
    let mut bad_version = cpmf(Op::Stats);
    bad_version[4..6].copy_from_slice(&9u16.to_le_bytes());
    let mut other_tag = cpmf(Op::Stats);
    other_tag[7] = 7;
    let mut bad_key_batch = cpmr(key, &[1]);
    bad_key_batch[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&0u32.to_le_bytes());
    let truncated_batch = cpmr(key, &[1, 2]);
    let truncated_batch = truncated_batch[..truncated_batch.len() - 1].to_vec();

    // The connection admits 3 reports a second, with a burst of 3.
    let table = [
        row("JSON stats", json(r#"{"op":"stats"}"#), "stats"),
        row("CPMF privatize", cpmf(privatize()), "privatize"),
        row(
            "JSON privatize with an empty op",
            json(r#"{"n":4,"alpha":0.5,"inputs":[0,4]}"#),
            "privatize",
        ),
        row(
            "JSON privatize, bad key",
            json(r#"{"op":"privatize","n":0,"alpha":0.5,"inputs":[0]}"#),
            "privatize",
        )
        .undecodable("group size"),
        row(
            "CPMF privatize, bad key",
            cpmf_bad_key(privatize()),
            "privatize",
        )
        .undecodable("malformed binary frame"),
        row("unreadable JSON", json("not json"), "other").undecodable("malformed request"),
        row("JSON, unknown op", json(r#"{"op":"frobnicate"}"#), "other").undecodable("unknown op"),
        row("CPMF, unknown version", bad_version, "other").undecodable("version"),
        row("CPMF, the tag past the last op", other_tag, "other")
            .undecodable("unknown binary op tag 7"),
        // A bad key is refused before the bucket is charged: the three
        // well-formed reports after it still fit the burst.
        row(
            "JSON report, bad key, into a full bucket",
            json(r#"{"op":"report","n":0,"alpha":0.5,"reports":[0,1,2]}"#),
            "report",
        )
        .undecodable("group size"),
        row(
            "JSON report",
            json(r#"{"op":"report","n":4,"alpha":0.5,"reports":[2]}"#),
            "report",
        ),
        row("CPMF report", cpmf(report(vec![3])), "report"),
        row("CPMR batch", cpmr(key, &[4]), "report"),
        // The bucket is empty now; a bad key is still refused for its key.
        row(
            "JSON report, bad key, into an empty bucket",
            json(r#"{"op":"report","n":4,"alpha":2.0,"reports":[1]}"#),
            "report",
        )
        .undecodable("alpha"),
        row(
            "CPMF report, bad key",
            cpmf_bad_key(report(vec![1])),
            "report",
        )
        .undecodable("malformed binary frame"),
        row("CPMR batch, bad key", bad_key_batch, "report").undecodable("malformed report frame"),
        row("CPMR batch, truncated", truncated_batch, "report")
            .undecodable("malformed report frame"),
        // Four reports never fit a burst of three, however long the wait.
        row(
            "JSON report over the burst",
            json(r#"{"op":"report","n":4,"alpha":0.5,"reports":[0,1,2,3]}"#),
            "report",
        )
        .rate_limited(4),
        row(
            "CPMF report over the burst",
            cpmf(report(vec![0, 1, 2, 3])),
            "report",
        )
        .rate_limited(4),
        row(
            "CPMR batch over the burst",
            cpmr(key, &[0, 1, 2, 3]),
            "report",
        )
        .rate_limited(4),
        row("CPMF estimate", cpmf(Op::Estimate { key }), "estimate"),
    ];

    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig {
        report_rate: Some(3.0),
    });
    for row in &table {
        let before = counters();
        let mut bytes = (row.payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&row.payload);
        conn.ingest(&engine, &bytes).expect("soft failures only");
        let after = counters();

        let pending = conn.pending_output();
        let (tag, response) = reply(&row.payload, &pending[4..]);
        let written = pending.len();
        conn.advance_output(written);
        match row.error {
            None => assert!(response.ok, "{}: {}", row.what, response.error),
            Some(fragment) => {
                assert!(!response.ok, "{}: refused", row.what);
                assert!(
                    response.error.contains(fragment),
                    "{}: {:?} should mention {fragment:?}",
                    row.what,
                    response.error
                );
            }
        }
        if let Some(tag) = tag {
            assert_eq!(
                tag == 0xFF,
                row.decode_error,
                "{}: reply tag {tag}",
                row.what
            );
        }

        let mut expected = before.clone();
        let at = LABELS.iter().position(|&op| op == row.op).unwrap();
        expected.requests[at] += 1;
        expected.timed[at] += 1;
        expected.decode_errors += u64::from(row.decode_error);
        expected.rate_limited += row.rate_limited;
        assert_eq!(after, expected, "{}", row.what);
    }

    // The three admitted reports, and nothing else, reached the collector.
    let observed = engine.collector().observed(&key).expect("reports for key");
    assert_eq!(observed, vec![0, 0, 1, 1, 1]);
}

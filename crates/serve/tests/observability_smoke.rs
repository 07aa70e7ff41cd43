//! Release-mode observability smoke tests.
//!
//! These are `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI
//! runs them explicitly with
//! `cargo test --release -p cpm-serve --test observability_smoke -- --ignored --test-threads=1`
//! (single-threaded: the overhead test flips the global `cpm_obs` kill switch,
//! which must not race the in-process scrape test).
//!
//! Covered end to end:
//!
//! * a real `serve_stdio` process answers the `metrics` wire op with a
//!   parseable Prometheus-style exposition whose solver / cache / engine /
//!   wire families are non-zero after a cold + warm privatize mix;
//! * the TCP front end feeds the `cpm_net_*` family, scraped through the same
//!   wire op over the socket;
//! * the instrumented hot path costs ≤ 5% over the uninstrumented floor
//!   (`cpm_obs::set_enabled(false)`) with `CPM_TRACE` off;
//! * a batch-1 `b"CPMF"` privatize through the protocol state machine — where
//!   per-request fixed costs, not draws, set the price — costs ≤ 1.5× its
//!   uninstrumented floor.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_core::{Alpha, Property, PropertySet};
use cpm_serve::frontend::{read_frame, write_frame, WireResponse};
use cpm_serve::prelude::*;
use cpm_serve::proto::{self, Op, ProtoConfig, ProtoConnection};
use cpm_serve::workload;

/// Parse a Prometheus text exposition into `sample -> value`, failing loudly
/// on any line that fits neither the comment nor the sample grammar.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let parts: Vec<&str> = comment.split_whitespace().collect();
            assert!(
                parts.len() == 3 && parts[0] == "TYPE",
                "unexpected comment line: {line:?}"
            );
            assert!(
                matches!(parts[2], "counter" | "gauge" | "histogram"),
                "unknown metric kind in: {line:?}"
            );
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("unparseable value in {line:?}: {e}"));
        assert!(
            samples.insert(name.to_string(), parsed).is_none(),
            "duplicate sample {name:?}"
        );
    }
    samples
}

/// Sum every sample whose name starts with `prefix` (so labelled counters can
/// be asserted without caring which label values fired).
fn family_total(samples: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    samples
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, value)| value)
        .sum()
}

fn frame(json: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, json.as_bytes()).unwrap();
    bytes
}

#[test]
#[ignore = "release-mode observability smoke test; run explicitly (see CI workflow)"]
fn stdio_metrics_op_scrapes_solver_cache_engine_and_wire_families() {
    let bin = env!("CARGO_BIN_EXE_serve_stdio");
    let mut serve = Command::new(bin)
        .env_remove("CPM_OBS")
        .env_remove("CPM_TRACE")
        .env_remove("CPM_SERVE_WARM")
        .env_remove("CPM_WARM_FILE")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve_stdio spawns");
    {
        let stdin = serve.stdin.as_mut().unwrap();
        // Cold LP privatize (solver + cache miss + engine), the same key again
        // (cache hit), then the scrape.
        let privatize = r#"{"op": "privatize", "n": 8, "alpha": 0.9, "properties": "WH+CM",
            "inputs": [0, 4, 8]}"#;
        stdin.write_all(&frame(privatize)).unwrap();
        stdin.write_all(&frame(privatize)).unwrap();
        stdin.write_all(&frame(r#"{"op": "metrics"}"#)).unwrap();
        stdin.write_all(&frame(r#"{"op": "shutdown"}"#)).unwrap();
    }
    let output = serve.wait_with_output().expect("serve_stdio exits");
    assert!(output.status.success(), "serving process failed");

    let mut cursor = std::io::Cursor::new(output.stdout);
    let mut responses: Vec<WireResponse> = Vec::new();
    while let Some(payload) = read_frame(&mut cursor).unwrap() {
        responses.push(serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap());
    }
    assert_eq!(responses.len(), 4, "2 privatizes + metrics + shutdown ack");
    assert!(responses[0].ok, "cold privatize: {}", responses[0].error);
    assert!(responses[1].ok, "warm privatize: {}", responses[1].error);
    let scrape = &responses[2];
    assert!(scrape.ok, "metrics op failed: {}", scrape.error);
    let samples = parse_exposition(&scrape.metrics);

    // Solver family: the WH+CM design runs exactly one LP.
    assert_eq!(family_total(&samples, "cpm_lp_solves_total"), 1.0);
    assert!(family_total(&samples, "cpm_lp_pivots_total") > 0.0);
    assert!(
        family_total(&samples, "cpm_lp_solve_nanos_count") >= 1.0,
        "the LP solve must land in a latency histogram"
    );
    // Cache family: one miss (cold), one hit (repeat), one resident design.
    assert_eq!(samples["cpm_cache_misses_total"], 1.0);
    assert_eq!(samples["cpm_cache_hits_total"], 1.0);
    assert_eq!(samples["cpm_cache_resident_entries"], 1.0);
    // Engine family: two batches of three draws each.
    assert_eq!(samples["cpm_engine_batches_total"], 2.0);
    assert_eq!(samples["cpm_engine_draws_total"], 6.0);
    assert!(samples["cpm_engine_batch_nanos_count"] >= 2.0);
    // Wire family: the scrape itself is counted before it renders, so the op
    // labels cover both privatizes and the metrics op.
    assert_eq!(samples["cpm_wire_requests_total{op=\"privatize\"}"], 2.0);
    assert_eq!(samples["cpm_wire_requests_total{op=\"metrics\"}"], 1.0);
}

#[test]
#[ignore = "release-mode observability smoke test; run explicitly (see CI workflow)"]
fn tcp_front_end_feeds_the_net_family() {
    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::tcp(Arc::clone(&engine), listener).unwrap();
    let addr = server.local_addr().unwrap();

    let net_before = cpm_obs::registry()
        .counter("cpm_net_connections_total")
        .get();

    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        br#"{"op": "privatize", "n": 12, "alpha": 0.5, "inputs": [1, 2]}"#,
    )
    .unwrap();
    let payload = read_frame(&mut stream)
        .unwrap()
        .expect("privatize response");
    let privatize: WireResponse =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(privatize.ok, "privatize failed: {}", privatize.error);

    write_frame(&mut stream, br#"{"op": "metrics"}"#).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("metrics response");
    let scrape: WireResponse =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(scrape.ok, "metrics op failed: {}", scrape.error);
    write_frame(&mut stream, br#"{"op": "shutdown"}"#).unwrap();
    let _ = read_frame(&mut stream);
    server.stop();

    let samples = parse_exposition(&scrape.metrics);
    assert!(
        samples["cpm_net_connections_total"] >= (net_before + 1) as f64,
        "the scrape's own connection must be counted"
    );
    assert!(
        samples["cpm_net_active_connections"] >= 1.0,
        "the scraping connection is still active at scrape time"
    );
    assert!(samples["cpm_wire_requests_total{op=\"metrics\"}"] >= 1.0);
}

/// One timed hot-key batch.
fn batch_time(engine: &Engine, requests: &[Request]) -> Duration {
    let start = Instant::now();
    engine.privatize_batch(requests).expect("hot batch");
    start.elapsed()
}

#[test]
#[ignore = "release-mode observability smoke test; run explicitly (see CI workflow)"]
fn enabled_telemetry_costs_at_most_five_percent_over_the_disabled_floor() {
    // The engine's instrumentation is per-batch and per-chunk (never per
    // draw), so the enabled path should be indistinguishable from the floor;
    // the 5% gate catches anyone adding per-draw telemetry later.
    let hot = SpecKey::new(
        16,
        Alpha::new(0.9).unwrap(),
        PropertySet::empty().with(Property::Fairness),
    );
    let engine = Engine::with_defaults();
    engine.warm(&[hot]).expect("hot design");
    let requests = workload::hot_key_requests(hot, 100_000, 1);
    let rounds = 7;

    // Warm-up round so page faults and lazy sampler construction don't land
    // in either measurement; then interleave the two modes (min of N each) so
    // machine-state drift during the test hits both equally.
    engine.privatize_batch(&requests).expect("warm-up batch");
    let mut floor = Duration::MAX;
    let mut instrumented = Duration::MAX;
    for _ in 0..rounds {
        cpm_obs::set_enabled(false);
        floor = floor.min(batch_time(&engine, &requests));
        cpm_obs::set_enabled(true);
        instrumented = instrumented.min(batch_time(&engine, &requests));
    }

    let overhead = instrumented.as_secs_f64() / floor.as_secs_f64() - 1.0;
    println!(
        "observability overhead: floor {floor:?}, instrumented {instrumented:?} ({:+.2}%)",
        overhead * 100.0
    );
    assert!(
        instrumented.as_secs_f64() <= floor.as_secs_f64() * 1.05,
        "instrumented hot path exceeds the 5% overhead budget: \
         floor {floor:?} vs instrumented {instrumented:?} ({:+.2}%)",
        overhead * 100.0
    );
}

/// Push `ops` copies of one framed request through the protocol state machine,
/// discarding each reply, and return the time per op.
fn per_op_time(engine: &Engine, conn: &mut ProtoConnection, framed: &[u8], ops: u32) -> Duration {
    let start = Instant::now();
    for _ in 0..ops {
        conn.ingest(engine, framed).expect("well-formed frame");
        let written = conn.pending_output().len();
        assert!(written > 0, "every frame is answered");
        conn.advance_output(written);
    }
    start.elapsed() / ops
}

#[test]
#[ignore = "release-mode observability smoke test; run explicitly (see CI workflow)"]
fn enabled_telemetry_costs_at_most_half_again_per_batch_one_op() {
    // The batch gate above times 100k draws, so per-request fixed costs (the
    // wire metric handles, the engine's per-batch counters) vanish in it.  A
    // batch-1 privatize on a warm key is almost nothing but those costs.
    let hot = SpecKey::new(
        16,
        Alpha::new(0.9).unwrap(),
        PropertySet::empty().with(Property::Fairness),
    );
    let engine = Engine::with_defaults();
    engine.warm(&[hot]).expect("hot design");
    let payload = proto::encode_request(&Op::Privatize {
        key: hot,
        inputs: vec![7],
    })
    .expect("encodable request");
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&payload);
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let (ops, rounds) = (1_000, 41);

    // Warm-up, then interleave the two modes (min of N each), as above.
    per_op_time(&engine, &mut conn, &framed, ops);
    let mut floor = Duration::MAX;
    let mut instrumented = Duration::MAX;
    for _ in 0..rounds {
        cpm_obs::set_enabled(false);
        floor = floor.min(per_op_time(&engine, &mut conn, &framed, ops));
        cpm_obs::set_enabled(true);
        instrumented = instrumented.min(per_op_time(&engine, &mut conn, &framed, ops));
    }

    let overhead = instrumented.as_secs_f64() / floor.as_secs_f64() - 1.0;
    println!(
        "per-op observability overhead: floor {} ns/op, instrumented {} ns/op ({:+.2}%)",
        floor.as_nanos(),
        instrumented.as_nanos(),
        overhead * 100.0
    );
    assert!(
        instrumented.as_secs_f64() <= floor.as_secs_f64() * 1.5,
        "instrumented batch-1 op exceeds 1.5x the uninstrumented floor: \
         {} vs {} ns/op ({:+.2}%)",
        instrumented.as_nanos(),
        floor.as_nanos(),
        overhead * 100.0
    );
}

//! Allocation budgets of the warm serving path.
//!
//! A warm privatize op should allocate its reply's outputs and nothing else,
//! and a steady-state `CPMR` report frame should allocate its decoded report
//! vector and nothing else: every further allocation is per-op overhead that
//! the sampling itself does not need.  Whole frames fed through
//! [`ProtoConnection::ingest`] add the frame path's own allocations on top
//! (the decoded op: a payload is decoded where it lies in the input buffer,
//! and a reply, binary or JSON, is encoded straight into the connection's
//! output buffer), each under a budget of its own.  This binary installs a counting
//! global allocator (its own test binary, so no other test shares it), warms
//! every lazily
//! initialised piece — the design, its alias sampler, the metric handles, the
//! collector's accumulator, the connection's buffers — and then counts the
//! allocations the measured call makes on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpm_collect::wire::{decode_batch, encode_batch};
use cpm_collect::Report;
use cpm_core::{Alpha, PropertySet};
use cpm_serve::engine::Engine;
use cpm_serve::proto::{decode_response, dispatch_op, encode_request, Op};
use cpm_serve::{ProtoConfig, ProtoConnection, SpecKey, WireResponse};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `work` and return its result with the allocations it made on this
/// thread.
fn allocations_of<R>(work: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.with(|count| count.set(0));
    COUNTING.with(|on| on.set(true));
    let result = work();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

fn gm(n: usize) -> SpecKey {
    SpecKey::new(n, Alpha::new(0.9).unwrap(), PropertySet::empty())
}

#[test]
fn a_warm_privatize_op_allocates_only_its_outputs() {
    let engine = Engine::with_defaults();
    let key = gm(32);
    for len in [1, 16, 256] {
        let op = Op::Privatize {
            key,
            inputs: (0..len).map(|i| i % (key.n + 1)).collect(),
        };
        // Warm-up: design the key, build its sampler, resolve every metric
        // handle the op touches.
        for _ in 0..3 {
            assert!(dispatch_op(&engine, &op).0.ok);
        }
        let ((response, close), allocations) = allocations_of(|| dispatch_op(&engine, &op));
        assert!(response.ok && !close, "{}", response.error);
        assert_eq!(response.outputs.len(), len);
        assert!(
            allocations <= 1,
            "a warm batch-{len} privatize made {allocations} allocations; \
             the budget is 1 (the reply's outputs)"
        );
    }
}

#[test]
fn a_steady_state_report_frame_allocates_only_its_reports() {
    let engine = Engine::with_defaults();
    let key = gm(32);
    let reports: Vec<Report> = (0..256)
        .map(|i| Report::new(key, (i % 33) as u32).unwrap())
        .collect();
    let payload = encode_batch(&reports).unwrap();
    let ingest = || {
        let decoded = decode_batch(&payload).expect("well-formed frame");
        dispatch_op(&engine, &Op::ReportBatch(decoded))
    };
    // Warm-up: the key's accumulator exists from here on.
    for _ in 0..3 {
        assert_eq!(ingest().0.ingested, 256);
    }
    let ((response, close), allocations) = allocations_of(ingest);
    assert!(response.ok && !close, "{}", response.error);
    assert_eq!(response.ingested, 256);
    assert!(
        allocations <= 1,
        "a steady-state 256-record report frame made {allocations} allocations; \
         the budget is 1 (the decoded reports)"
    );
}

/// Length-prefix one frame payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Feed one whole frame through `conn` three times to warm it, then once
/// more counting allocations; returns that reply's payload and the count.
/// Replies are drained outside the counted call, as a transport would.
fn frame_allocations(
    engine: &Engine,
    conn: &mut ProtoConnection,
    bytes: &[u8],
) -> (Vec<u8>, usize) {
    let mut reply = Vec::new();
    let mut counted = 0;
    for _ in 0..4 {
        let (result, allocations) = allocations_of(|| conn.ingest(engine, bytes));
        result.expect("a well-formed frame");
        counted = allocations;
        let pending = conn.pending_output();
        reply = pending[4..].to_vec();
        let written = pending.len();
        conn.advance_output(written);
    }
    (reply, counted)
}

#[test]
fn warm_cpmf_privatize_frames_stay_within_budget() {
    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let key = gm(32);
    for (len, budget) in [(1, 2), (16, 2), (256, 2)] {
        let op = Op::Privatize {
            key,
            inputs: (0..len).map(|i| i % (key.n + 1)).collect(),
        };
        let bytes = frame(&encode_request(&op).unwrap());
        let (reply, allocations) = frame_allocations(&engine, &mut conn, &bytes);
        let (_, response) = decode_response(&reply).unwrap();
        assert!(response.ok, "{}", response.error);
        assert_eq!(response.outputs.len(), len);
        assert!(
            allocations <= budget,
            "a warm batch-{len} CPMF privatize frame made {allocations} allocations; \
             the budget is {budget}"
        );
    }
}

#[test]
fn a_warm_json_privatize_frame_stays_within_budget() {
    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let inputs: Vec<String> = (0..16).map(|i| (i % 33).to_string()).collect();
    let request = format!(
        r#"{{"op":"privatize","n":32,"alpha":0.9,"inputs":[{}]}}"#,
        inputs.join(",")
    );
    let (reply, allocations) = frame_allocations(&engine, &mut conn, &frame(request.as_bytes()));
    let response: WireResponse =
        serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(response.ok, "{}", response.error);
    assert_eq!(response.outputs.len(), 16);
    assert!(
        allocations <= 15,
        "a warm batch-16 JSON privatize frame made {allocations} allocations; the budget is 15"
    );
}

#[test]
fn a_warm_cpmr_frame_and_a_cpmf_estimate_stay_within_budget() {
    let engine = Engine::with_defaults();
    let mut conn = ProtoConnection::new(ProtoConfig::default());
    let key = gm(32);
    let reports: Vec<Report> = (0..256)
        .map(|i| Report::new(key, (i % 33) as u32).unwrap())
        .collect();
    let batch = frame(&encode_batch(&reports).unwrap());
    let (reply, allocations) = frame_allocations(&engine, &mut conn, &batch);
    let ack: WireResponse = serde_json::from_str(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert!(ack.ok && ack.ingested == 256, "{}", ack.error);
    // The JSON acknowledgement is written straight into the output buffer.
    assert!(
        allocations <= 1,
        "a steady-state 256-record CPMR frame made {allocations} allocations; \
         the budget is 1 (the decoded reports)"
    );

    let estimate = frame(&encode_request(&Op::Estimate { key }).unwrap());
    let (reply, allocations) = frame_allocations(&engine, &mut conn, &estimate);
    let (_, response) = decode_response(&reply).unwrap();
    assert!(response.ok, "{}", response.error);
    assert_eq!(response.estimates.len(), key.n + 1);
    assert!(
        allocations <= 4,
        "a warm CPMF estimate frame made {allocations} allocations; the budget is 4"
    );
}

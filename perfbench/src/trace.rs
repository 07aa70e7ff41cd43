//! The traced replay: the same seeded steps a socket run sent, driven
//! in-process through each layer's public functions, with spans recorded by
//! this benchmark around every call (nothing inside the program is traced).
//! The traced path is a copy of the server's frame path; a reference pass
//! runs the same frames through the server's own protocol state machine, and
//! every reply of the copy must equal the reference's.  Spans live in memory
//! and are written out when the replay ends.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use cpm_collect::wire::{decode_batch, encode_batch};
use cpm_collect::Report;
use cpm_core::{Alpha, PropertySet, SpecKey};
use cpm_serve::engine::{BatchStats, Engine, EngineConfig, Request};
use cpm_serve::proto::{
    self, decode_request, decode_response, encode_request, Op, ProtoConfig, ProtoConnection,
};
use cpm_serve::{WireRequest, WireResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{json_privatize, request_payload, Generator, LoopShape, Step};
use crate::workloads::Checks;

/// Steps a replay re-runs at most (the head of the socket run's stream).
const MAX_REPLAY_STEPS: u64 = 20_000;

/// Iterations of the fixed-cost micro-probes.
const PROBE_ITERATIONS: usize = 10_000;

/// `parallel_map` calls the fan-out probe times.
const FANOUT_ITERATIONS: usize = 200;

/// The span names whose self time is reported as a share of op time.
const SELF_TIME_LAYERS: [&str; 10] = [
    "proto.decode",
    "proto.dispatch",
    "obs.registry_lookup",
    "engine.batch",
    "cache.get",
    "cache.warm",
    "collect.decode",
    "collect.ingest",
    "collect.estimate",
    "proto.encode",
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
}

/// An in-memory span recorder; when off, spans cost nothing and record nothing.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let value = work();
        self.close(id);
        value
    }

    /// Per span name: (self nanoseconds, span count); plus the nanoseconds of
    /// root `op` spans that no child covers, and the total root nanoseconds.
    fn self_times(&self) -> (BTreeMap<&'static str, (u64, u64)>, u64, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let (mut uncovered, mut total) = (0, 0);
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let own = (span.end - span.start).saturating_sub(*children);
            let entry = by_name.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
            if span.parent.is_none() {
                uncovered += own;
                total += span.end - span.start;
            }
        }
        (by_name, uncovered, total)
    }

    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// What one replay pass did, beyond its spans.
#[derive(Default)]
struct PassTotals {
    /// Time spent in the client loop's steps (the warm steps excluded: an
    /// LP solve's run-to-run noise would swamp the tracing overhead).
    loop_ns: u64,
    batches: BatchStats,
    batch_count: u64,
    records: u64,
    accepted: u64,
    rejected: u64,
    privatize: Vec<(SpecKey, Vec<usize>, WireResponse)>,
}

/// The replayed workload: keys designed before the steps, warm ops that are
/// themselves steps (the storm), and the client loop's steps.
pub struct ReplayPlan {
    pub setup_keys: Vec<SpecKey>,
    pub warm_steps: Vec<SpecKey>,
    pub shape: LoopShape,
    pub seed: u64,
    pub steps: u64,
}

/// Encoded payload and decode route of one replayed step.
enum Frame {
    Cpmf(Vec<u8>),
    Json(Vec<u8>),
    Cpmr(Vec<u8>, usize),
}

impl Frame {
    /// The client-side encoding of `step`; `None` for a report with nothing
    /// to send.  A report takes the pass's pending draws.
    fn of(step: &ReplayStep, pending: &mut Vec<Report>) -> Result<Option<Frame>, String> {
        Ok(Some(match step {
            ReplayStep::Warm(key) => Frame::Cpmf(encode_request(&Op::Warm { key: *key })?),
            ReplayStep::Loop(Step::Report) if pending.is_empty() => return Ok(None),
            ReplayStep::Loop(Step::Report) => {
                let records = std::mem::take(pending);
                Frame::Cpmr(
                    encode_batch(&records).map_err(|e| format!("{e:?}"))?,
                    records.len(),
                )
            }
            ReplayStep::Loop(step) => {
                let payload = request_payload(step).expect("non-report steps have payloads");
                match step {
                    Step::Privatize { json: true, .. } => Frame::Json(payload),
                    _ => Frame::Cpmf(payload),
                }
            }
        }))
    }

    fn payload(&self) -> &[u8] {
        match self {
            Frame::Cpmf(bytes) | Frame::Json(bytes) | Frame::Cpmr(bytes, _) => bytes,
        }
    }

    /// Whether the server answers this frame in JSON (JSON requests and
    /// `CPMR` acknowledgements) rather than `CPMF`.
    fn json_reply(&self) -> bool {
        !matches!(self, Frame::Cpmf(_))
    }
}

/// One replayed step: a storm `warm`, or a step of the client loop.
enum ReplayStep {
    Warm(SpecKey),
    Loop(Step),
}

/// One replay pass: its own engine (warmed with the plan's set-up keys),
/// tallies and the draws it has yet to report.  The reference pass feeds
/// each frame through the server's own protocol state machine
/// ([`ProtoConnection`], which the reactor feeds the bytes it reads); the
/// traced pass runs [`Pass::traced_frame`], a copy of that frame path with
/// a span around each layer call.  Both engines share the default seed, so
/// equal frames must get equal replies, and every reply is compared.
struct Pass {
    engine: Engine,
    reference: Option<ProtoConnection>,
    tracer: Tracer,
    totals: PassTotals,
    pending: Vec<Report>,
}

impl Pass {
    fn new(plan: &ReplayPlan, traced: bool) -> Result<Pass, String> {
        let engine = Engine::new(EngineConfig::default());
        engine.warm(&plan.setup_keys).map_err(|e| e.to_string())?;
        Ok(Pass {
            engine,
            reference: (!traced).then(|| ProtoConnection::new(ProtoConfig::default())),
            tracer: Tracer::new(traced),
            totals: PassTotals::default(),
            pending: Vec::new(),
        })
    }

    /// Replay `step` as request number `request` and return the decoded
    /// reply (`None` when the step sent nothing).
    fn step(&mut self, request: u64, step: &ReplayStep) -> Result<Option<WireResponse>, String> {
        // Client-side encoding happens before the op span opens: only server
        // work is inside it.
        let Some(frame) = Frame::of(step, &mut self.pending)? else {
            return Ok(None);
        };
        let reply = match &mut self.reference {
            Some(conn) => serve_frame(conn, &self.engine, frame.payload())?,
            None => self.traced_frame(request, &frame),
        };
        let response = decode_reply(&reply, frame.json_reply())?;
        match &frame {
            Frame::Cpmr(_, count) => {
                self.totals.records += *count as u64;
                self.totals.accepted += response.ingested;
                self.totals.rejected += response.rejected;
            }
            _ => {
                if let ReplayStep::Loop(Step::Privatize { key, inputs, .. }) = step {
                    self.pending
                        .extend(response.outputs.iter().map(|&output| Report {
                            key: *key,
                            output: output as u32,
                        }));
                    if self.totals.privatize.len() < PROBE_ITERATIONS {
                        self.totals
                            .privatize
                            .push((*key, inputs.clone(), response.clone()));
                    }
                }
            }
        }
        Ok(Some(response))
    }

    /// The server's frame path (`ProtoConnection::process_frame`, the
    /// dispatchers and the codecs), copied call for call with spans around
    /// them: the metric lookups under the same `cpm_obs::enabled()` gate,
    /// `CPMR` batches under the same serving ceiling.  Returns the encoded
    /// reply.
    fn traced_frame(&mut self, request: u64, frame: &Frame) -> Vec<u8> {
        let Pass {
            engine,
            tracer,
            totals,
            ..
        } = self;
        let op_span = tracer.open("op", None, request);
        let response = match frame {
            Frame::Cpmr(bytes, _) => {
                let dispatch = tracer.open("proto.dispatch", op_span, request);
                if cpm_obs::enabled() {
                    tracer.span("obs.registry_lookup", dispatch, request, || {
                        cpm_obs::registry()
                            .counter("cpm_wire_requests_total{op=\"report\"}")
                            .inc()
                    });
                }
                let op_started = Instant::now();
                let decoded =
                    tracer.span("collect.decode", dispatch, request, || decode_batch(bytes));
                let response = match decoded {
                    Ok(reports) => tracer.span("collect.ingest", dispatch, request, || {
                        ingest_capped(engine, &reports)
                    }),
                    Err(e) => failure(format!("malformed report frame: {e}")),
                };
                if cpm_obs::enabled() {
                    tracer.span("obs.registry_lookup", dispatch, request, || {
                        cpm_obs::registry()
                            .histogram("cpm_wire_op_nanos{op=\"report\"}")
                            .record_duration(op_started.elapsed())
                    });
                }
                tracer.close(dispatch);
                response
            }
            Frame::Cpmf(bytes) => {
                match tracer.span("proto.decode", op_span, request, || decode_request(bytes)) {
                    Ok(op) => traced_dispatch(engine, tracer, totals, op_span, request, &op),
                    Err(e) => failure(format!("malformed binary frame: {e}")),
                }
            }
            Frame::Json(bytes) => {
                let op = tracer.span("proto.decode", op_span, request, || {
                    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                    let wire: WireRequest =
                        serde_json::from_str(text).map_err(|e| e.to_string())?;
                    proto::op_from_request(&wire)
                });
                match op {
                    Ok(op) => traced_dispatch(engine, tracer, totals, op_span, request, &op),
                    Err(e) => failure(e),
                }
            }
        };
        let json = frame.json_reply();
        let encoded = tracer.span("proto.encode", op_span, request, || {
            if json {
                serde_json::to_string(&response)
                    .expect("responses serialize")
                    .into_bytes()
            } else {
                proto::encode_response(0, &response)
            }
        });
        tracer.close(op_span);
        encoded
    }
}

/// `proto::dispatch_op`, copied with a span around each layer call.
fn traced_dispatch(
    engine: &Engine,
    tracer: &mut Tracer,
    totals: &mut PassTotals,
    parent: Option<usize>,
    request: u64,
    op: &Op,
) -> WireResponse {
    let dispatch = tracer.open("proto.dispatch", parent, request);
    let label = op.label();
    if cpm_obs::enabled() {
        tracer.span("obs.registry_lookup", dispatch, request, || {
            cpm_obs::registry()
                .counter(&format!("cpm_wire_requests_total{{op=\"{label}\"}}"))
                .inc()
        });
    }
    let op_started = Instant::now();
    let response = match op {
        Op::Privatize { key, inputs } => {
            let batch: Vec<Request> = inputs
                .iter()
                .map(|&input| Request::new(*key, input))
                .collect();
            match tracer.span("engine.batch", dispatch, request, || {
                engine.privatize_batch(&batch)
            }) {
                Ok(outcome) => {
                    let stats = outcome.stats;
                    totals.batch_count += 1;
                    totals.batches.design_time += stats.design_time;
                    totals.batches.sample_time += stats.sample_time;
                    totals.batches.sample_chunks += stats.sample_chunks;
                    WireResponse {
                        ok: true,
                        outputs: outcome.outputs,
                        cache_hits: stats.cache_hits,
                        cache_misses: stats.cache_misses,
                        design_solves: stats.cache_misses,
                        entries: engine.cache().len() as u64,
                        design_micros: stats.design_time.as_micros() as u64,
                        sample_micros: stats.sample_time.as_micros() as u64,
                        ..WireResponse::default()
                    }
                }
                Err(e) => failure(e.to_string()),
            }
        }
        Op::ReportBatch(reports) => tracer.span("collect.ingest", dispatch, request, || {
            ingest_capped(engine, reports)
        }),
        Op::Estimate { key } => match engine.collector().observed(key) {
            Some(observed) => {
                let design = tracer.span("cache.get", dispatch, request, || engine.design(key));
                let estimates = design.map_err(|e| e.to_string()).and_then(|design| {
                    tracer.span("collect.estimate", dispatch, request, || {
                        cpm_collect::estimate_from_design(&design, &observed)
                            .map_err(|e| e.to_string())
                    })
                });
                match estimates {
                    Ok(freq) => WireResponse {
                        ok: true,
                        reports: freq.total_reports,
                        estimates: freq.estimates,
                        variances: freq.variances,
                        ..WireResponse::default()
                    },
                    Err(e) => failure(e),
                }
            }
            None => failure("no reports collected for this key yet".to_string()),
        },
        Op::Warm { key } => {
            match tracer.span("cache.warm", dispatch, request, || engine.warm(&[*key])) {
                Ok(()) => WireResponse {
                    ok: true,
                    entries: engine.cache().len() as u64,
                    ..WireResponse::default()
                },
                Err(e) => failure(e.to_string()),
            }
        }
        other => failure(format!("the replay never sends {}", other.label())),
    };
    if cpm_obs::enabled() {
        tracer.span("obs.registry_lookup", dispatch, request, || {
            cpm_obs::registry()
                .histogram(&format!("cpm_wire_op_nanos{{op=\"{label}\"}}"))
                .record_duration(op_started.elapsed())
        });
    }
    tracer.close(dispatch);
    response
}

/// The server's report ingest under its serving ceiling: records naming a
/// group size beyond [`proto::MAX_WIRE_N`] are counted as rejected.
fn ingest_capped(engine: &Engine, reports: &[Report]) -> WireResponse {
    let oversized = reports
        .iter()
        .filter(|r| r.key.n > proto::MAX_WIRE_N)
        .count() as u64;
    let summary = if oversized == 0 {
        engine.collector().ingest_reports(reports)
    } else {
        cpm_obs::counter!("cpm_report_oversized_total").add(oversized);
        let admissible: Vec<Report> = reports
            .iter()
            .filter(|r| r.key.n <= proto::MAX_WIRE_N)
            .copied()
            .collect();
        engine.collector().ingest_reports(&admissible)
    };
    WireResponse {
        ok: true,
        ingested: summary.accepted,
        rejected: summary.rejected + oversized,
        ..WireResponse::default()
    }
}

fn failure(error: String) -> WireResponse {
    WireResponse {
        ok: false,
        error,
        ..WireResponse::default()
    }
}

/// Push one length-prefixed frame through `conn` and take its reply payload.
fn serve_frame(
    conn: &mut ProtoConnection,
    engine: &Engine,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    conn.ingest(engine, &bytes).map_err(|e| e.to_string())?;
    let out = conn.pending_output();
    let len = out
        .get(..4)
        .map(|prefix| u32::from_le_bytes(prefix.try_into().expect("four bytes")) as usize)
        .ok_or("the protocol machine wrote no reply")?;
    let reply = out
        .get(4..4 + len)
        .ok_or("the protocol machine wrote a short reply")?
        .to_vec();
    conn.advance_output(4 + len);
    Ok(reply)
}

fn decode_reply(reply: &[u8], json: bool) -> Result<WireResponse, String> {
    if json {
        let text = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    } else {
        decode_response(reply).map(|(_, response)| response)
    }
}

/// A reply with its timing fields cleared, as comparable text.
fn comparable(response: &WireResponse) -> String {
    let mut response = response.clone();
    response.design_micros = 0;
    response.sample_micros = 0;
    serde_json::to_string(&response).expect("responses serialize")
}

/// Replay `plan` twice in lockstep, through the server's frame path and
/// through the traced copy of it.  The passes take turns going first at each
/// step and each times only its own share, so both see the same moments of a
/// host whose speed drifts by tens of percent from one second to the next.
/// Every pair of replies is checked for equality in `checks`.
fn run_passes(plan: &ReplayPlan, checks: &mut Checks) -> Result<(Pass, Pass), String> {
    let mut reference = Pass::new(plan, false)?;
    let mut traced = Pass::new(plan, true)?;
    let mut generator = Generator::new(plan.shape.clone(), plan.seed);
    let warm_steps = plan.warm_steps.iter().map(|&key| ReplayStep::Warm(key));
    let loop_steps = (0..plan.steps.min(MAX_REPLAY_STEPS))
        .map(|_| ReplayStep::Loop(generator.next().expect("generators never end")));
    for (request, step) in warm_steps.chain(loop_steps).enumerate() {
        let mut replies = [None, None];
        for turn in 0..2 {
            let which = (turn + request) % 2;
            let pass = if which == 0 {
                &mut reference
            } else {
                &mut traced
            };
            let started = Instant::now();
            replies[which] = pass.step(request as u64, &step)?;
            if matches!(step, ReplayStep::Loop(_)) {
                pass.totals.loop_ns += started.elapsed().as_nanos() as u64;
            }
        }
        let [expected, got] = replies.map(|reply| reply.as_ref().map(comparable));
        checks.expect(expected == got, || {
            format!(
                "replay step {request}: the traced copy replied {got:?}, the server's frame path {expected:?}"
            )
        });
    }
    Ok((reference, traced))
}

fn mean_ns(total_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

/// Time `work` once per item and return the mean nanoseconds.
fn time_each<T>(items: &[T], mut work: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        work(item);
    }
    mean_ns(started.elapsed().as_nanos() as u64, items.len() as u64)
}

/// Cold (first call, inverse computed) and steady estimate microseconds on a
/// fresh GM design at `n`.
fn estimate_probe(n: usize) -> Result<(f64, f64), String> {
    let key = SpecKey::new(
        n,
        Alpha::new(crate::gen::ALPHA).expect("valid alpha"),
        PropertySet::empty(),
    );
    let observed: Vec<u64> = (0..=n as u64).map(|i| 1_000 + 37 * i).collect();
    let mut cold = Vec::new();
    for _ in 0..3 {
        let design = key.spec().design().map_err(|e| e.to_string())?;
        let started = Instant::now();
        cpm_collect::estimate_from_design(&design, &observed).map_err(|e| e.to_string())?;
        cold.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let design = key.spec().design().map_err(|e| e.to_string())?;
    cpm_collect::estimate_from_design(&design, &observed).map_err(|e| e.to_string())?;
    let mut steady = Vec::new();
    for _ in 0..200 {
        let started = Instant::now();
        std::hint::black_box(
            cpm_collect::estimate_from_design(&design, &observed).map_err(|e| e.to_string())?,
        );
        steady.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok((
        crate::workloads::median(&cold),
        crate::workloads::median(&steady),
    ))
}

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Replay `plan` through the server's frame path and traced, probe each layer on the workload's own
/// inputs, write the spans to `trace_path`, and return the per-layer
/// metrics plus a printable self-time table.
pub fn replay(
    plan: &ReplayPlan,
    trace_path: &Path,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let (reference, traced) = run_passes(plan, checks)?;
    let Pass {
        engine,
        tracer,
        totals,
        ..
    } = traced;
    tracer.write(trace_path).map_err(|e| e.to_string())?;
    let (self_times, uncovered, root_total) = tracer.self_times();
    let mut table = vec![format!(
        "self time per layer over {} replayed ops ({} spans, written to {})",
        self_times.get("op").map_or(0, |s| s.1),
        tracer.spans.len(),
        trace_path.display()
    )];
    for (name, (own, count)) in &self_times {
        let label = if *name == "op" {
            "(unattributed)"
        } else {
            name
        };
        table.push(format!(
            "  {label:<22} {:>12.0} ns self  {:>6.2}%  {count} spans",
            *own as f64,
            100.0 * *own as f64 / root_total.max(1) as f64
        ));
    }
    let span_total = |name: &str| self_times.get(name).copied().unwrap_or((0, 0));

    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // Codec and dispatch probes over the workload's privatize requests.
    let privatize = &totals.privatize;
    let cpmf: Vec<Vec<u8>> = privatize
        .iter()
        .map(|(key, inputs, _)| {
            encode_request(&Op::Privatize {
                key: *key,
                inputs: inputs.clone(),
            })
            .expect("encodes")
        })
        .collect();
    let json: Vec<String> = privatize
        .iter()
        .map(|(key, inputs, _)| serde_json::to_string(&json_privatize(key, inputs)).expect("ok"))
        .collect();
    put(
        "proto.decode_cpmf_ns",
        time_each(&cpmf, |p| {
            std::hint::black_box(decode_request(p).expect("decodes"));
        }),
        "ns",
    );
    put(
        "proto.decode_json_ns",
        time_each(&json, |text| {
            let wire: WireRequest = serde_json::from_str(text).expect("parses");
            std::hint::black_box(proto::op_from_request(&wire).expect("valid op"));
        }),
        "ns",
    );
    put(
        "proto.encode_response_ns",
        time_each(privatize, |(_, _, response)| {
            std::hint::black_box(proto::encode_response(0, response));
        }),
        "ns",
    );
    let ops: Vec<Op> = privatize
        .iter()
        .map(|(key, inputs, _)| Op::Privatize {
            key: *key,
            inputs: inputs.clone(),
        })
        .collect();
    put(
        "proto.dispatch_ns",
        time_each(&ops, |op| {
            std::hint::black_box(proto::dispatch_op(&engine, op));
        }),
        "ns",
    );
    put(
        "obs.registry_lookup_ns",
        time_each(&ops, |op| {
            cpm_obs::registry()
                .counter(&format!("cpm_wire_requests_total{{op=\"{}\"}}", op.label()))
                .inc();
        }),
        "ns",
    );

    // Fixed costs of the parallel helper every privatize batch calls.
    let iterations = vec![(); PROBE_ITERATIONS];
    put(
        "par.worker_count_ns",
        time_each(&iterations, |_| {
            std::hint::black_box(cpm_eval::par::worker_count(std::hint::black_box(16)));
        }),
        "ns",
    );
    put(
        "par.fanout_ns",
        time_each(&iterations[..FANOUT_ITERATIONS], |_| {
            std::hint::black_box(cpm_eval::par::parallel_map((0..16u64).collect(), |x| x + 1));
        }),
        "ns",
    );

    // Engine, cache and sampler, from the traced pass and its warm engine.
    let batches = totals.batch_count.max(1) as f64;
    put(
        "engine.batch_ns",
        mean_ns(span_total("engine.batch").0, span_total("engine.batch").1),
        "ns",
    );
    put(
        "engine.design_phase_ns",
        totals.batches.design_time.as_nanos() as f64 / batches,
        "ns",
    );
    put(
        "engine.sample_phase_ns",
        totals.batches.sample_time.as_nanos() as f64 / batches,
        "ns",
    );
    put(
        "engine.sample_chunks",
        totals.batches.sample_chunks as f64 / batches,
        "count",
    );
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let draws: usize = privatize.iter().map(|(_, inputs, _)| inputs.len()).sum();
    let designs = privatize
        .iter()
        .map(|(key, inputs, _)| Ok((engine.cache().peek(key).ok_or("key not resident")?, inputs)))
        .collect::<Result<Vec<_>, String>>()?;
    let started = Instant::now();
    for (design, inputs) in &designs {
        let sampler = design.alias_sampler();
        for &input in inputs.iter() {
            std::hint::black_box(sampler.sample(input, &mut rng));
        }
    }
    put(
        "sampling.alias_draw_ns",
        mean_ns(started.elapsed().as_nanos() as u64, draws as u64),
        "ns",
    );
    put(
        "cache.peek_ns",
        time_each(privatize, |(key, _, _)| {
            std::hint::black_box(engine.cache().peek(key));
        }),
        "ns",
    );
    let stats = engine.cache_stats();
    put(
        "cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    put("cache.coalesced", stats.coalesced as f64, "count");
    put("cache.warm_seeded", stats.warm_seeded as f64, "count");

    // Designs and their simplex solves, one per distinct key.
    let (mut lp_ns, mut lp_count, mut closed_ns, mut closed_count) = (0u128, 0u64, 0u128, 0u64);
    let (mut pivots, mut refactorizations, mut warm_started) = (0u64, 0u64, 0u64);
    let mut keys: Vec<SpecKey> = plan
        .setup_keys
        .iter()
        .chain(&plan.warm_steps)
        .copied()
        .collect();
    keys.sort();
    keys.dedup();
    for key in &keys {
        let design = engine
            .cache()
            .peek(key)
            .ok_or("designed key not resident")?;
        if design.used_lp() {
            lp_ns += design.design_time().as_nanos();
            lp_count += 1;
        } else {
            closed_ns += design.design_time().as_nanos();
            closed_count += 1;
        }
        if let Some(solve) = design.solver_stats() {
            let key_pivots =
                (solve.phase1_iterations + solve.phase2_iterations + solve.dual_iterations) as u64;
            pivots += key_pivots;
            refactorizations += solve.refactorizations as u64;
            warm_started += u64::from(solve.warm_started);
            table.push(format!(
                "  design {key}: {:.1} ms, {key_pivots} pivots{}",
                design.design_time().as_secs_f64() * 1e3,
                if solve.warm_started {
                    ", warm-started"
                } else {
                    ""
                }
            ));
        }
    }
    put(
        "design.lp_ms",
        lp_ns as f64 / lp_count.max(1) as f64 / 1e6,
        "ms",
    );
    put(
        "design.closed_form_us",
        closed_ns as f64 / closed_count.max(1) as f64 / 1e3,
        "us",
    );
    put("simplex.pivots", pivots as f64, "count");
    put("simplex.refactorizations", refactorizations as f64, "count");
    put(
        "simplex.ns_per_pivot",
        lp_ns as f64 / pivots.max(1) as f64,
        "ns",
    );
    put("simplex.warm_started", warm_started as f64, "count");

    // Report collection and estimation.
    put(
        "collect.decode_ns_per_record",
        mean_ns(span_total("collect.decode").0, totals.records),
        "ns",
    );
    put(
        "collect.ingest_ns_per_record",
        mean_ns(span_total("collect.ingest").0, totals.records),
        "ns",
    );
    put(
        "collect.rejected_ratio",
        totals.rejected as f64 / (totals.accepted + totals.rejected).max(1) as f64,
        "ratio",
    );
    for n in [32, 128] {
        let (cold, steady) = estimate_probe(n)?;
        put(&format!("collect.estimate_cold_us.n{n}"), cold, "us");
        put(&format!("collect.estimate_steady_us.n{n}"), steady, "us");
    }

    // Where the replayed op time went, as shares of it.
    for name in SELF_TIME_LAYERS {
        let share = span_total(name).0 as f64 / root_total.max(1) as f64;
        put(&format!("self_share.{name}"), share, "ratio");
    }

    // The instrument's own cost and coverage.
    put(
        "trace.overhead_ratio",
        totals.loop_ns as f64 / reference.totals.loop_ns.max(1) as f64,
        "ratio",
    );
    put(
        "trace.unattributed_share",
        uncovered as f64 / root_total.max(1) as f64,
        "ratio",
    );
    Ok((m, table))
}

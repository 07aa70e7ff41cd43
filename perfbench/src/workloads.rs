//! The socket workloads: spawn `serve_tcp`, drive it in a closed loop over
//! loopback, check every reply, and diff the server's metrics around each
//! measured phase.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use cpm_collect::wire::encode_batch;
use cpm_collect::Report;
use cpm_core::SpecKey;
use cpm_serve::proto::{decode_response, Op};
use cpm_serve::WireResponse;

use crate::client::{client_cpu_secs, Conn, Metrics, ServerProc};
use crate::gen::{self, request_payload, Generator, LoopShape, Step};

/// Servers per run in the steady workloads; `setup_s` is the median of their
/// starts and every other metric the median of their phases.
const STEADY_SERVERS: usize = 8;

/// Minimum server starts per run in the design storm: a start there takes a
/// few milliseconds, so its median needs many.  They are timed in groups of
/// [`STARTS_PER_STORM`] after each storm, [`STORM_SETUP_GAP`] apart, so
/// that one burst of contention cannot shift them all.
const STORM_SETUPS: usize = 41;

const STARTS_PER_STORM: usize = 8;

const STORM_SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(20);

/// Length of the windows a phase is cut into; the windowed metrics read the
/// quieter half of them.
pub const WINDOW_SECS: f64 = 0.1;

/// Nanoseconds the reference syscall loop ([`crate::client::syscall_loop_ns`])
/// takes on the nominal host that latencies and CPU per op are scaled to.
pub const HOST_NOMINAL_NS: f64 = 20_000.0;

/// Op labels the server counts in `cpm_wire_requests_total{op=...}`.
const OP_LABELS: [&str; 5] = ["privatize", "report", "estimate", "warm", "metrics"];

/// Where and how a run executes.
pub struct RunEnv {
    /// The `serve_tcp` executable.
    pub server_exe: PathBuf,
    /// Directory for server logs and trace files.
    pub out_dir: PathBuf,
    /// Generator seed.
    pub seed: u64,
    /// Seconds of measured phases per run.
    pub seconds: f64,
}

impl RunEnv {
    fn spawn(&self, warm: &[SpecKey], index: usize) -> io::Result<ServerProc> {
        let log = self.out_dir.join(format!("server-{index}.log"));
        ServerProc::spawn(&self.server_exe, &gen::warm_spec(warm), &log)
    }
}

/// Correctness bookkeeping: every op and every check is attempted once.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one attempted op or check, failing it unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }
}

/// A closed-loop LDP client: privatize, report what was drawn, estimate.
pub struct LoopClient {
    gen: Generator,
    /// Drawn but not yet reported: `(key, input, output)`.
    pending: Vec<(SpecKey, usize, usize)>,
    /// Histogram of the true inputs whose outputs the server acknowledged.
    pub truth: BTreeMap<SpecKey, Vec<u64>>,
    /// Ops sent, by wire label.
    pub ops: BTreeMap<&'static str, u64>,
    /// Report records acknowledged as ingested.
    pub reports: u64,
    /// The window being filled.
    open: Window,
    /// Closed windows of the run, for the windowed metrics.
    pub windows: Vec<Window>,
    pub checks: Checks,
}

/// What one window of a run completed.
#[derive(Debug, Default)]
pub struct Window {
    pub secs: f64,
    pub ops: u64,
    pub privatize: u64,
    pub draws: u64,
    pub reports: u64,
    pub server_cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole in the window.
    pub steal_share: f64,
    /// The reference syscall loop's nanoseconds at the window's end.
    pub host_ns: f64,
    /// Round-trip latencies in microseconds, by wire label.
    pub latency_us: BTreeMap<&'static str, Vec<f64>>,
}

/// Clock readings at a window boundary.
struct Mark {
    at: Instant,
    server_cpu_s: f64,
    ticks: (u64, u64),
}

impl Mark {
    fn now(server_cpu: &impl Fn() -> io::Result<f64>) -> io::Result<Mark> {
        Ok(Mark {
            at: Instant::now(),
            server_cpu_s: server_cpu()?,
            ticks: crate::client::steal_ticks()?,
        })
    }
}

impl LoopClient {
    pub fn new(shape: LoopShape, seed: u64) -> Self {
        LoopClient {
            gen: Generator::new(shape, seed),
            pending: Vec::new(),
            truth: BTreeMap::new(),
            ops: BTreeMap::new(),
            reports: 0,
            open: Window::default(),
            windows: Vec::new(),
            checks: Checks::default(),
        }
    }

    fn close_window(&mut self, from: &Mark, to: &Mark) -> io::Result<()> {
        let mut window = std::mem::take(&mut self.open);
        window.secs = (to.at - from.at).as_secs_f64();
        window.server_cpu_s = to.server_cpu_s - from.server_cpu_s;
        window.steal_share =
            (to.ticks.0 - from.ticks.0) as f64 / (to.ticks.1 - from.ticks.1).max(1) as f64;
        window.host_ns = crate::client::syscall_loop_ns()?;
        self.windows.push(window);
        Ok(())
    }

    /// Reports the server acknowledged for `key`.
    pub fn acked(&self, key: &SpecKey) -> u64 {
        self.truth.get(key).map_or(0, |h| h.iter().sum())
    }

    fn timed_call(
        &mut self,
        conn: &mut Conn,
        label: &'static str,
        payload: &[u8],
    ) -> io::Result<Vec<u8>> {
        let started = Instant::now();
        let reply = conn.call(payload)?;
        let micros = started.elapsed().as_secs_f64() * 1e6;
        *self.ops.entry(label).or_default() += 1;
        self.open.ops += 1;
        self.open.privatize += u64::from(label == "privatize");
        self.open.latency_us.entry(label).or_default().push(micros);
        Ok(reply)
    }

    /// Run steps until `stop` says so, then report whatever is still
    /// pending.  `server_cpu` reads the server's CPU seconds at each window
    /// boundary.
    pub fn run(
        &mut self,
        conn: &mut Conn,
        stop: impl Fn() -> bool,
        server_cpu: impl Fn() -> io::Result<f64>,
    ) -> io::Result<()> {
        let mut last = Mark::now(&server_cpu)?;
        while !stop() {
            let step = self.gen.next().expect("generators never end");
            self.step(conn, step)?;
            if last.at.elapsed().as_secs_f64() >= WINDOW_SECS {
                let now = Mark::now(&server_cpu)?;
                self.close_window(&last, &now)?;
                last = now;
            }
        }
        if self.open.ops > 0 {
            let now = Mark::now(&server_cpu)?;
            self.close_window(&last, &now)?;
        }
        self.step(conn, Step::Report)
    }

    fn step(&mut self, conn: &mut Conn, step: Step) -> io::Result<()> {
        match step {
            Step::Privatize { key, inputs, json } => {
                let payload = request_payload(&Step::Privatize {
                    key,
                    inputs: inputs.clone(),
                    json,
                })
                .expect("privatize steps have a payload");
                let reply = self.timed_call(conn, "privatize", &payload)?;
                let response = if json {
                    decode_json(&reply)
                } else {
                    decode_response(&reply).map(|(_, r)| r)
                };
                let response = match response {
                    Ok(r) if r.ok => r,
                    Ok(r) => return self.fail(format!("privatize refused: {}", r.error)),
                    Err(e) => return self.fail(format!("privatize reply: {e}")),
                };
                let good = response.outputs.len() == inputs.len()
                    && response.outputs.iter().all(|&o| o <= key.n);
                self.checks.expect(good, || {
                    format!(
                        "privatize on n={} returned {} outputs for {} inputs",
                        key.n,
                        response.outputs.len(),
                        inputs.len()
                    )
                });
                if good {
                    self.open.draws += inputs.len() as u64;
                    self.pending.extend(
                        inputs
                            .iter()
                            .zip(&response.outputs)
                            .map(|(&input, &output)| (key, input, output)),
                    );
                }
            }
            Step::Report => {
                if self.pending.is_empty() {
                    return Ok(());
                }
                let records: Vec<Report> = self
                    .pending
                    .iter()
                    .map(|&(key, _, output)| Report {
                        key,
                        output: output as u32,
                    })
                    .collect();
                let payload = encode_batch(&records).expect("checked outputs encode");
                let reply = self.timed_call(conn, "report", &payload)?;
                let sent = std::mem::take(&mut self.pending);
                let ack = match decode_json(&reply) {
                    Ok(ack) => ack,
                    Err(e) => return self.fail(format!("report ack: {e}")),
                };
                let good = ack.ok && ack.ingested == sent.len() as u64 && ack.rejected == 0;
                self.checks.expect(good, || {
                    format!(
                        "report of {} records acked ok={} ingested={} rejected={} ({})",
                        sent.len(),
                        ack.ok,
                        ack.ingested,
                        ack.rejected,
                        ack.error
                    )
                });
                if good {
                    self.reports += sent.len() as u64;
                    self.open.reports += sent.len() as u64;
                    for (key, input, _) in sent {
                        self.truth.entry(key).or_insert_with(|| vec![0; key.n + 1])[input] += 1;
                    }
                }
            }
            Step::Estimate { key } => {
                let payload = request_payload(&Step::Estimate { key }).expect("has a payload");
                let reply = self.timed_call(conn, "estimate", &payload)?;
                match decode_response(&reply) {
                    Ok((_, r)) => {
                        let expected = self.acked(&key);
                        let good = r.ok && r.reports == expected && r.estimates.len() == key.n + 1;
                        self.checks.expect(good, || {
                            format!(
                                "estimate of n={} saw {} reports, client sent {expected} ({})",
                                key.n, r.reports, r.error
                            )
                        });
                    }
                    Err(e) => return self.fail(format!("estimate reply: {e}")),
                }
            }
        }
        Ok(())
    }

    fn fail(&mut self, message: String) -> io::Result<()> {
        self.checks.expect(false, || message);
        Ok(())
    }
}

fn decode_json(reply: &[u8]) -> Result<WireResponse, String> {
    let text = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by nearest rank (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One measured phase: wall and CPU clocks plus the metrics diff around it.
pub struct Phase {
    pub wall_s: f64,
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub before: Metrics,
    pub after: Metrics,
    /// Server bytes read and written over the phase, scrapes excluded.
    pub net_bytes: (f64, f64),
}

impl Phase {
    /// Run `work` between two in-band scrapes on `conn`.
    fn measure<T>(
        server: &ServerProc,
        conn: &mut Conn,
        work: impl FnOnce(&mut Conn) -> io::Result<T>,
    ) -> io::Result<(Phase, T)> {
        let read_before = conn.bytes_in;
        let before = conn.scrape().map_err(io::Error::other)?;
        let opening_reply = (conn.bytes_in - read_before) as f64;
        let cpu0 = server.cpu_secs()?;
        let client0 = client_cpu_secs()?;
        let started = Instant::now();
        let value = work(conn)?;
        let wall_s = started.elapsed().as_secs_f64();
        let server_cpu_s = server.cpu_secs()? - cpu0;
        let client_cpu_s = client_cpu_secs()? - client0;
        let written_before = conn.bytes_out;
        let after = conn.scrape().map_err(io::Error::other)?;
        let closing_request = (conn.bytes_out - written_before) as f64;
        // The server counts a scrape's request before it renders and its
        // reply after, so the opening reply and the closing request land
        // inside the diff.
        let net_bytes = (
            after.delta(&before, "cpm_net_bytes_in_total") - closing_request,
            after.delta(&before, "cpm_net_bytes_out_total") - opening_reply,
        );
        let phase = Phase {
            wall_s,
            server_cpu_s,
            client_cpu_s,
            before,
            after,
            net_bytes,
        };
        Ok((phase, value))
    }

    fn delta(&self, name: &str) -> f64 {
        self.after.delta(&self.before, name)
    }

    /// The instrument's self-check: the server counted exactly the ops the
    /// client sent (plus the closing scrape) and ingested exactly the
    /// reports it acknowledged.
    fn self_check(&self, ops: &BTreeMap<&'static str, u64>, reports: u64, checks: &mut Checks) {
        for label in OP_LABELS {
            let sent = ops.get(label).copied().unwrap_or(0) + u64::from(label == "metrics");
            let counted = self.delta(&format!("cpm_wire_requests_total{{op=\"{label}\"}}"));
            checks.expect(counted == sent as f64, || {
                format!("server counted {counted} {label} ops, client sent {sent}")
            });
        }
        let ingested = self.delta("cpm_collect_reports_total");
        checks.expect(ingested == reports as f64, || {
            format!("server ingested {ingested} reports, client saw {reports} acknowledged")
        });
    }
}

/// One server's measured phase.
pub struct ServerRun {
    pub wall_s: f64,
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Client ops in the phase, by wire label.
    pub ops: BTreeMap<&'static str, u64>,
    pub windows: Vec<Window>,
    /// Server-side mean privatize dispatch time, microseconds.
    pub server_privatize_us: f64,
    /// Server bytes read and written in the phase, scrapes excluded.
    pub net_bytes: (f64, f64),
    /// Seconds spent designing: the set-up warm's design time, or the
    /// storm's wall time.
    pub design_s: f64,
}

impl ServerRun {
    fn new(
        client: LoopClient,
        phase: &Phase,
        server: &ServerProc,
        design_s: f64,
    ) -> io::Result<Self> {
        Ok(ServerRun {
            wall_s: phase.wall_s,
            server_cpu_s: phase.server_cpu_s,
            client_cpu_s: phase.client_cpu_s,
            peak_rss_mb: server.peak_rss_mb()?,
            ops: client.ops,
            windows: client.windows,
            server_privatize_us: phase.after.delta_mean(
                &phase.before,
                "cpm_wire_op_nanos",
                "{op=\"privatize\"}",
            ) / 1e3,
            net_bytes: phase.net_bytes,
            design_s,
        })
    }

    /// Total client ops in the phase.
    pub fn op_count(&self) -> u64 {
        self.ops.values().sum()
    }

    /// The half of the windows in which the hypervisor stole the least CPU
    /// time: on a shared virtual machine, contention from other guests
    /// comes and goes, and the windowed metrics read the windows it spared.
    pub fn quiet_windows(&self) -> Vec<&Window> {
        let mut windows: Vec<&Window> = self.windows.iter().collect();
        windows.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
        windows.truncate(windows.len().div_ceil(2));
        windows
    }

    /// Median nanoseconds of the reference syscall loop over the quiet
    /// windows.
    pub fn host_ns(&self) -> f64 {
        median(
            &self
                .quiet_windows()
                .iter()
                .map(|w| w.host_ns)
                .collect::<Vec<_>>(),
        )
    }

    /// The factor that scales this phase's times to the nominal host.
    pub fn host_scale(&self) -> f64 {
        HOST_NOMINAL_NS / self.host_ns()
    }

    /// `numerator / denominator`, each summed over the quiet windows.
    pub fn windowed(
        &self,
        numerator: impl Fn(&Window) -> f64,
        denominator: impl Fn(&Window) -> f64,
    ) -> f64 {
        let quiet = self.quiet_windows();
        let top: f64 = quiet.iter().map(|w| numerator(w)).sum();
        let bottom: f64 = quiet.iter().map(|w| denominator(w)).sum();
        top / bottom
    }

    /// Latency samples of `label`: from the quiet windows, or from all.
    pub fn latency_us(&self, label: &str, quiet_only: bool) -> Vec<f64> {
        let windows = if quiet_only {
            self.quiet_windows()
        } else {
            self.windows.iter().collect()
        };
        windows
            .into_iter()
            .flat_map(|w| w.latency_us.get(label).into_iter().flatten().copied())
            .collect()
    }
}

/// Everything a socket run measured: one [`ServerRun`] per server it drove.
#[derive(Default)]
pub struct SocketRun {
    pub setup_s: Vec<f64>,
    pub servers: Vec<ServerRun>,
    /// Generator steps one server's phase consumed (what the replay re-runs).
    pub steps: u64,
    /// Context lines for the report (worker landing, estimate quality).
    pub notes: Vec<String>,
    pub checks: Checks,
}

impl SocketRun {
    /// Median over the servers of a per-server metric.
    pub fn per_server(&self, metric: impl Fn(&ServerRun) -> f64) -> f64 {
        median(&self.servers.iter().map(metric).collect::<Vec<_>>())
    }
}

/// Start a server and time spawn → first good reply (a `stats` op).
fn start(
    env: &RunEnv,
    warm: &[SpecKey],
    index: usize,
    run: &mut SocketRun,
) -> io::Result<(ServerProc, Conn)> {
    let started = Instant::now();
    let server = env.spawn(warm, index)?;
    let mut conn = Conn::connect(server.addr)?;
    let stats = conn.call_op(&Op::Stats).map_err(io::Error::other)?;
    run.setup_s.push(started.elapsed().as_secs_f64());
    run.checks.expect(stats.ok, || {
        format!("first stats op failed: {}", stats.error)
    });
    Ok((server, conn))
}

/// `privatize_small` and `collect_loop`: start [`STEADY_SERVERS`] servers in
/// turn, each warming the keys at set-up, and drive each with one closed-loop
/// client for an equal share of the run's seconds.  Per-server metrics are
/// combined by their median, so neither one process's memory layout nor one
/// burst of contention decides a run.  Each server's client draws its own
/// input stream ([`gen::server_seed`]), so the servers' estimates are
/// independent samples.
pub fn run_steady(env: &RunEnv, shape: LoopShape, rmse_gate: bool) -> io::Result<SocketRun> {
    let mut run = SocketRun::default();
    let mut designs = BTreeMap::new();
    let mut pooled = BTreeMap::new();
    let phase_secs = env.seconds / STEADY_SERVERS as f64;
    for index in 0..STEADY_SERVERS {
        let (server, mut conn) = start(env, &shape.keys, index, &mut run)?;
        let warmed = conn.scrape().map_err(io::Error::other)?;
        let design_s = warmed.get("cpm_design_nanos_sum") / 1e9;
        let mut client = LoopClient::new(shape.clone(), gen::server_seed(env.seed, index));
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(phase_secs);
        let (phase, ()) = Phase::measure(&server, &mut conn, |conn| {
            client.run(conn, || Instant::now() >= deadline, || server.cpu_secs())
        })?;
        phase.self_check(&client.ops, client.reports, &mut run.checks);
        run.steps = run.steps.max(client.ops.values().sum());
        final_estimates(
            &mut conn,
            &client,
            &shape.estimable,
            rmse_gate,
            &mut designs,
            &mut pooled,
            &mut run,
        )?;
        run.checks.merge(std::mem::take(&mut client.checks));
        run.servers
            .push(ServerRun::new(client, &phase, &server, design_s)?);
    }
    // One estimate's squared error is dominated by the few directions in
    // which the design's inverse amplifies noise most, so a single RMSE
    // exceeds twice its expectation by chance a few times in a hundred on
    // the WM design; pooled over the run's independent servers it does not.
    for (key, (squared_error, expected_squared)) in pooled {
        let ratio = (squared_error / expected_squared).sqrt();
        run.notes.push(format!(
            "estimate {key}: RMSE pooled over the servers = {ratio:.2}x the closed form"
        ));
        run.checks.expect(ratio <= 2.0, || {
            format!("estimate RMSE of {key}, pooled over the servers, is {ratio:.2}x the closed-form expectation")
        });
    }
    Ok(run)
}

/// After the phase: every reported key's estimate must count exactly the
/// reports the client sent.  In the collect loop, the squared RMSE against
/// the true input histogram and its closed-form expectation on the same
/// design (designed here once per run) are added to `pooled`.
fn final_estimates(
    conn: &mut Conn,
    client: &LoopClient,
    estimable: &[SpecKey],
    rmse_gate: bool,
    designs: &mut BTreeMap<SpecKey, cpm_core::DesignedMechanism>,
    pooled: &mut BTreeMap<SpecKey, (f64, f64)>,
    run: &mut SocketRun,
) -> io::Result<()> {
    for (key, truth) in &client.truth {
        if !estimable.contains(key) {
            continue;
        }
        let response = conn
            .call_op(&Op::Estimate { key: *key })
            .map_err(io::Error::other)?;
        let sent: u64 = truth.iter().sum();
        run.checks
            .expect(response.ok && response.reports == sent, || {
                format!(
                    "final estimate of {key} counts {} reports, client sent {sent} ({})",
                    response.reports, response.error
                )
            });
        if !rmse_gate || !response.ok {
            continue;
        }
        let design = match designs.entry(*key) {
            std::collections::btree_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::btree_map::Entry::Vacant(entry) => {
                entry.insert(key.spec().design().map_err(io::Error::other)?)
            }
        };
        let truth_f: Vec<f64> = truth.iter().map(|&c| c as f64).collect();
        let expected =
            cpm_collect::expected_rmse(design.mechanism(), &truth_f).map_err(io::Error::other)?;
        let rmse = (response
            .estimates
            .iter()
            .zip(&truth_f)
            .map(|(e, t)| (e - t) * (e - t))
            .sum::<f64>()
            / truth_f.len() as f64)
            .sqrt();
        let sums = pooled.entry(*key).or_insert((0.0, 0.0));
        sums.0 += rmse * rmse;
        sums.1 += expected * expected;
    }
    Ok(())
}

/// `design_storm`: on a fresh server per storm, connection A warms the storm
/// keys in sequence while connection B runs a batch-1 LDP client on the GM
/// key warmed at set-up.  Storms repeat until the run's seconds are spent.
pub fn run_storm(env: &RunEnv) -> io::Result<SocketRun> {
    let mut run = SocketRun::default();
    let storm = gen::storm_keys();
    let reader = [gen::storm_reader_key()];
    let started = Instant::now();
    let mut index = 0;
    while run.servers.is_empty() || started.elapsed().as_secs_f64() < env.seconds {
        // A is the set-up connection, accepted first; B is accepted second.
        let (server, mut conn_a) = start(env, &reader, index, &mut run)?;
        let solves_before = conn_a
            .call_op(&Op::Stats)
            .map_err(io::Error::other)?
            .design_solves;
        let accepted = conn_a.scrape().map_err(io::Error::other)?;
        let workers = accepted.get("cpm_net_workers").max(1.0) as u64;
        let b_worker = accepted.get("cpm_net_connections_total") as u64 % workers;
        // B, like every connection, spins briefly for its replies: a
        // blocking reader's round trip includes waking an idle virtual CPU,
        // whose cost flips between two levels for tens of seconds at a time
        // on a shared host.
        let mut conn_b = Conn::connect(server.addr)?;
        run.notes.push(format!(
            "storm {index}: conn A -> worker 0, conn B -> worker {b_worker} (round-robin over {workers} workers)"
        ));
        // B's windows count the CPU of the reactor thread serving B, not the
        // whole server's: the server's CPU here is mostly A's LP solves, and
        // dividing it by B's ops would measure neither.
        if b_worker == 0 {
            return Err(io::Error::other(
                "conn B shares conn A's reactor worker, so its server CPU cannot be told apart",
            ));
        }
        // A worker thread names itself when it first runs, so look it up
        // only once it has served B.
        conn_b.call_op(&Op::Stats).map_err(io::Error::other)?;
        let b_thread = server.thread_id(&format!("cpm-net-{b_worker}"))?;

        let done = AtomicBool::new(false);
        let mut warm_checks = Checks::default();
        let (phase, (mut client, storm_wall)) = Phase::measure(&server, &mut conn_a, |conn_a| {
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut client = LoopClient::new(LoopShape::storm_reader(), env.seed);
                    client
                        .run(
                            &mut conn_b,
                            || done.load(Ordering::SeqCst),
                            || server.thread_cpu_secs(b_thread),
                        )
                        .map(|()| client)
                });
                let storm_started = Instant::now();
                let mut warm_result = Ok(());
                for key in &storm {
                    match conn_a.call_op(&Op::Warm { key: *key }) {
                        Ok(r) => {
                            warm_checks.expect(r.ok, || format!("warm {key} failed: {}", r.error))
                        }
                        Err(e) => {
                            warm_result = Err(io::Error::other(e));
                            break;
                        }
                    }
                }
                let storm_wall = storm_started.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                let client = reader.join().expect("reader thread panicked")?;
                warm_result.map(|()| (client, storm_wall))
            })
        })?;
        run.steps = run.steps.max(client.ops.values().sum());
        client.ops.insert("warm", storm.len() as u64);
        phase.self_check(&client.ops, client.reports, &mut run.checks);
        let solves = conn_a
            .call_op(&Op::Stats)
            .map_err(io::Error::other)?
            .design_solves
            - solves_before;
        run.checks.expect(solves == storm.len() as u64, || {
            format!(
                "storm ran {solves} design solves for {} distinct keys",
                storm.len()
            )
        });
        run.checks.merge(warm_checks);
        run.notes
            .push(format!("storm {index}: warm ops took {storm_wall:.3} s"));
        run.checks.merge(std::mem::take(&mut client.checks));
        run.servers
            .push(ServerRun::new(client, &phase, &server, storm_wall)?);
        drop(server);
        index += 1;
        time_starts(env, &reader, STARTS_PER_STORM, &mut index, &mut run)?;
    }
    let missing = STORM_SETUPS.saturating_sub(run.setup_s.len());
    time_starts(env, &reader, missing, &mut index, &mut run)?;
    Ok(run)
}

/// Time `count` more starts of a server warming `warm`.
fn time_starts(
    env: &RunEnv,
    warm: &[SpecKey],
    count: usize,
    index: &mut usize,
    run: &mut SocketRun,
) -> io::Result<()> {
    for _ in 0..count {
        std::thread::sleep(STORM_SETUP_GAP);
        start(env, warm, *index, run)?;
        *index += 1;
    }
    Ok(())
}

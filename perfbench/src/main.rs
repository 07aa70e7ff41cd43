//! Socket-level serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <privatize_small|collect_loop|design_storm|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds `serve_tcp` from the surrounding checkout, spawns it on a loopback
//! port the kernel picks, and drives it from this one process (at most two
//! threads, two connections) in a closed loop: an LDP client needs its
//! privatized value before it can report it, and an operator's `warm` waits
//! for its design.  Every reply is checked.  `--trace 0` prints the
//! end-to-end metrics; `--trace 1` prints the per-layer metrics, which come
//! from diffing the server's metrics around each measured phase and from an
//! in-process traced replay of the same seeded steps.  Each workload's output
//! ends with one JSON line (`all` runs every workload in turn); the exit code
//! is nonzero when any check failed.

mod client;
mod gen;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use gen::LoopShape;
use trace::{Metric, ReplayPlan};
use workloads::{median, quantile, RunEnv, ServerRun, SocketRun, Window, WINDOW_SECS};

const WORKLOADS: [&str; 3] = ["privatize_small", "collect_loop", "design_storm"];

/// Steps of the generator stream the determinism check hashes.
const HASHED_STEPS: usize = 4_096;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be `all` or one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The checkout this benchmark lives in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Build `serve_tcp` from source and return its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .args(["-p", "cpm-serve", "--bin", "serve_tcp"])
        .arg("--message-format=json-render-diagnostics")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building serve_tcp failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    const FIELD: &str = "\"executable\":\"";
    stdout
        .lines()
        .filter(|line| line.contains("serve_tcp"))
        .find_map(|line| {
            let rest = &line[line.find(FIELD)? + FIELD.len()..];
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .ok_or_else(|| "cargo reported no serve_tcp executable".to_string())
}

/// The workload's one-line rationale, read from `BENCHMARK.json`.
fn rationale(root: &Path, workload: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let value: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let field = |v: &serde::Value, name: &str| match v {
        serde::Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(serde::Value::Array(workloads)) = field(&value, "workloads") else {
        return Err("BENCHMARK.json has no workloads".to_string());
    };
    workloads
        .iter()
        .find(|w| matches!(field(w, "name"), Some(serde::Value::String(n)) if n == workload))
        .and_then(|w| match field(w, "why") {
            Some(serde::Value::String(why)) => Some(why),
            _ => None,
        })
        .ok_or_else(|| format!("BENCHMARK.json does not list {workload}"))
}

fn git_rev(root: &Path) -> String {
    Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// The end-to-end metrics a user of the server sees; each is the median
/// over the run's servers.
///
/// Throughput is not among them: one closed-loop client's rate is the
/// reciprocal of its mean round trip, and on a shared virtual machine the
/// mean follows hypervisor steal (two- to threefold swings between runs)
/// while the median moves a few percent.  The rates are per-layer
/// diagnostics instead, and so is `design_s`: LP wall time follows the
/// host's speed, which drifts by more than a quarter between phases of a
/// shared machine.  In the design storm, `server_cpu_us_per_op` is the CPU of
/// the reactor thread serving the reader, per reader op.
///
/// Latencies and CPU per op are scaled to a nominal host: each server's
/// figures are multiplied by [`workloads::HOST_NOMINAL_NS`] over the median
/// time of the benchmark's own syscall loop in the same windows.  A system
/// call's cost on a shared virtual machine swings by about a third for
/// minutes at a time, and these figures swing with it; scaling removes that
/// swing, while a change to the program's own work still moves the scaled
/// figures in proportion.  The figures as measured are the per-layer `raw.*`
/// metrics.
fn end_to_end(run: &SocketRun) -> Vec<Metric> {
    let p50 = |label: &'static str| run.per_server(|s| p50_us(s, label) * s.host_scale());
    vec![
        ("setup_s".into(), median(&run.setup_s), "s"),
        ("privatize_p50_us".into(), p50("privatize"), "us"),
        ("report_p50_us".into(), p50("report"), "us"),
        ("estimate_p50_us".into(), p50("estimate"), "us"),
        (
            "server_cpu_us_per_op".into(),
            run.per_server(|s| cpu_us_per_op(s) * s.host_scale()),
            "us",
        ),
        (
            "server_peak_rss_mb".into(),
            run.per_server(|s| s.peak_rss_mb),
            "MB",
        ),
    ]
}

/// Median round trip of `label` ops over the quiet windows, as measured.
fn p50_us(server: &ServerRun, label: &str) -> f64 {
    median(&server.latency_us(label, true))
}

/// Server CPU per op over the quiet windows, as measured.
fn cpu_us_per_op(server: &ServerRun) -> f64 {
    server.windowed(|w| w.server_cpu_s * 1e6, |w| w.ops as f64)
}

/// Per-layer metrics read from outside the server during the socket run.
fn socket_layers(run: &SocketRun) -> Vec<Metric> {
    let per_op = |value: fn(&ServerRun) -> f64| run.per_server(|s| value(s) / s.op_count() as f64);
    let rate =
        |count: fn(&Window) -> u64| run.per_server(|s| s.windowed(|w| count(w) as f64, |w| w.secs));
    vec![
        ("privatize_ops_per_s".into(), rate(|w| w.privatize), "1/s"),
        ("draws_per_s".into(), rate(|w| w.draws), "1/s"),
        ("reports_per_s".into(), rate(|w| w.reports), "1/s"),
        ("design_s".into(), run.per_server(|s| s.design_s), "s"),
        (
            "host.syscall_loop_ns".into(),
            run.per_server(ServerRun::host_ns),
            "ns",
        ),
        (
            "raw.privatize_p50_us".into(),
            run.per_server(|s| p50_us(s, "privatize")),
            "us",
        ),
        (
            "raw.report_p50_us".into(),
            run.per_server(|s| p50_us(s, "report")),
            "us",
        ),
        (
            "raw.estimate_p50_us".into(),
            run.per_server(|s| p50_us(s, "estimate")),
            "us",
        ),
        (
            "raw.server_cpu_us_per_op".into(),
            run.per_server(cpu_us_per_op),
            "us",
        ),
        (
            "net.residual_us".into(),
            run.per_server(|s| median(&s.latency_us("privatize", false)) - s.server_privatize_us),
            "us",
        ),
        (
            "net.bytes_in_per_op".into(),
            per_op(|s| s.net_bytes.0),
            "bytes",
        ),
        (
            "net.bytes_out_per_op".into(),
            per_op(|s| s.net_bytes.1),
            "bytes",
        ),
        (
            "server.cpu_busy_share".into(),
            run.per_server(|s| s.server_cpu_s / s.wall_s),
            "ratio",
        ),
        (
            "client.cpu_busy_share".into(),
            run.per_server(|s| s.client_cpu_s / s.wall_s),
            "ratio",
        ),
        (
            "privatize_p99_us".into(),
            run.per_server(|s| quantile(&s.latency_us("privatize", false), 0.99)),
            "us",
        ),
        (
            "ops_failed_ratio".into(),
            run.checks.failed as f64 / run.checks.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn shape_of(workload: &str) -> LoopShape {
    match workload {
        "privatize_small" => LoopShape::privatize_small(),
        "collect_loop" => LoopShape::collect_loop(),
        _ => LoopShape::storm_reader(),
    }
}

fn run(args: &Args, workload: &str) -> Result<(SocketRun, Vec<Metric>), String> {
    let root = repo_root();
    let why = rationale(&root, workload)?;
    let server_exe = build_server(&root)?;
    let out_dir = server_exe
        .parent()
        .and_then(Path::parent)
        .ok_or("serve_tcp has no target directory")?
        .join("perfbench");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    println!("workload      {workload} — {why}");
    println!("git rev       {}", git_rev(&root));
    println!(
        "nproc         {}",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    println!("seed          {}", args.seed);
    println!("run seconds   {}", args.seconds);
    println!("network       loopback (127.0.0.1): traffic never crossed a real link");

    let shape = shape_of(workload);
    let hash = gen::stream_hash(shape.clone(), args.seed, HASHED_STEPS);
    let deterministic = hash == gen::stream_hash(shape.clone(), args.seed, HASHED_STEPS)
        && hash != gen::stream_hash(shape.clone(), args.seed.wrapping_add(1), HASHED_STEPS);
    println!("frame stream  fnv1a64 {hash:016x} over the first {HASHED_STEPS} steps");

    let env = RunEnv {
        server_exe,
        out_dir: out_dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut socket = match workload {
        "design_storm" => workloads::run_storm(&env),
        "collect_loop" => workloads::run_steady(&env, shape.clone(), true),
        _ => workloads::run_steady(&env, shape.clone(), false),
    }
    .map_err(|e| format!("socket run failed: {e}"))?;
    socket.checks.expect(deterministic, || {
        "the generator's frame stream is not a pure function of its seed".to_string()
    });

    let metrics = if args.trace {
        let (setup_keys, warm_steps) = match workload {
            "design_storm" => (vec![gen::storm_reader_key()], gen::storm_keys()),
            _ => (shape.keys.clone(), Vec::new()),
        };
        let plan = ReplayPlan {
            setup_keys,
            warm_steps,
            shape,
            seed: args.seed,
            steps: socket.steps,
        };
        let trace_path = out_dir.join(format!("trace-{workload}-{}.tsv", args.seed));
        let (mut layers, table) = trace::replay(&plan, &trace_path, &mut socket.checks)?;
        for line in table {
            println!("{line}");
        }
        layers.extend(socket_layers(&socket));
        layers
    } else {
        end_to_end(&socket)
    };
    Ok((socket, metrics))
}

/// Print a run's context, metrics and checks, then the one-line JSON result;
/// returns whether every check passed.
fn report(socket: &SocketRun, metrics: &[Metric]) -> bool {
    for (index, server) in socket.servers.iter().enumerate() {
        let quiet = server.quiet_windows();
        println!(
            "server {index}      {:.2} s phase, {} ops in {} windows of {WINDOW_SECS} s; \
             windowed metrics read the {} with the least hypervisor steal (<= {:.1}%), \
             where the syscall loop took {:.0} ns",
            server.wall_s,
            server.op_count(),
            server.windows.len(),
            quiet.len(),
            100.0 * quiet.last().map_or(0.0, |w| w.steal_share),
            server.host_ns()
        );
    }
    for note in &socket.notes {
        println!("note          {note}");
    }
    for (name, value, unit) in metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    let checks = &socket.checks;
    println!(
        "checks        {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for failure in &checks.failures {
        println!("FAILED        {failure}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    checks.failed == 0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut all_correct = true;
    for workload in workloads {
        match run(&args, workload) {
            Ok((socket, metrics)) => all_correct &= report(&socket, &metrics),
            Err(message) => {
                eprintln!("perfbench: {workload}: {message}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

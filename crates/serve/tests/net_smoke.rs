//! Release-mode reactor smoke tests.
//!
//! These are `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI
//! runs them explicitly with
//! `cargo test --release -p cpm-serve --test net_smoke -- --ignored`.
//!
//! Covered:
//!
//! * ≥1k concurrent connections served in-process by a reactor sized to
//!   exactly two worker threads (the thread census proves concurrency is
//!   bounded by file descriptors, not threads);
//! * 10k idle connections held open against a real `serve_tcp` process that
//!   stays responsive and keeps a flat thread count — the ISSUE's 10k-idle
//!   acceptance demo.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_serve::net::NetConfig;
use cpm_serve::prelude::*;
use cpm_serve::proto::{self, Op, ProtoConfig};

/// Threads currently alive in process `pid` (`/proc/<pid>/status`).
fn thread_count_of(pid: &str) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("procfs status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// Name of the thread that drains a spawned `serve_tcp`'s stderr (at most 15
/// bytes, the kernel's `comm` limit).  The idle-connection test starts it
/// while the concurrent-connection test, running alongside in this process,
/// takes its thread census, so the census leaves it out.
const STDERR_DRAIN: &str = "stderr-drain";

/// Threads alive in this process, not counting stderr-drain threads.
fn own_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task dir")
        .filter(|task| {
            let comm = task.as_ref().expect("task entry").path().join("comm");
            std::fs::read_to_string(comm).map_or(true, |name| name.trim() != STDERR_DRAIN)
        })
        .count()
}

/// Length-prefix one payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One framed binary stats round-trip over an established stream.
fn stats_roundtrip(stream: &mut TcpStream) {
    let payload = proto::encode_request(&Op::Stats).expect("stats encodes");
    stream.write_all(&frame(&payload)).expect("request writes");
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("response body");
    let (_, response) = proto::decode_response(&body).expect("stats response decodes");
    assert!(response.ok, "stats failed: {}", response.error);
}

fn connect_with_retry(addr: std::net::SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                return stream;
            }
            Err(err) if Instant::now() < deadline => {
                // Transient backlog overflow while the reactor drains accepts.
                let _ = err;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(err) => panic!("connect to {addr} failed past deadline: {err}"),
        }
    }
}

#[test]
#[ignore = "release-mode network smoke test; run explicitly (see CI workflow)"]
fn a_thousand_concurrent_connections_ride_two_worker_threads() {
    const CONNS: usize = 1_000;
    const WORKERS: usize = 2;

    let threads_before = own_thread_count();
    let engine = Arc::new(Engine::with_defaults());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let config = NetConfig {
        workers: WORKERS,
        max_connections: 16_384,
        idle_timeout: None,
        proto: ProtoConfig::default(),
    };
    let server = Server::tcp_with(engine, listener, config).expect("server spawns");
    let addr = server.local_addr().expect("tcp addr");

    let threads_with_server = own_thread_count();
    assert_eq!(
        threads_with_server - threads_before,
        WORKERS,
        "the reactor serves from exactly the configured worker set"
    );

    // Establish every connection before the first round-trip, so all 1k are
    // concurrently open while being served.
    let started = Instant::now();
    let mut streams: Vec<TcpStream> = (0..CONNS).map(|_| connect_with_retry(addr)).collect();
    for stream in &mut streams {
        stats_roundtrip(stream);
    }
    let elapsed = started.elapsed();

    let threads_under_load = own_thread_count();
    assert_eq!(
        threads_under_load - threads_before,
        WORKERS,
        "serving {CONNS} concurrent connections must not spawn extra threads"
    );

    drop(streams);
    let summary = server.stop();
    assert_eq!(summary.connections, CONNS as u64);
    assert_eq!(summary.frames, CONNS as u64);
    println!(
        "net_smoke: {CONNS} concurrent connections on {WORKERS} threads, \
         established+served in {:.2}s",
        elapsed.as_secs_f64()
    );
}

/// A `serve_tcp` child that is killed even when the test panics.
struct ServerProcess {
    child: Child,
    addr: std::net::SocketAddr,
}

impl ServerProcess {
    fn spawn(env: &[(&str, &str)]) -> ServerProcess {
        let mut command = Command::new(env!("CARGO_BIN_EXE_serve_tcp"));
        command
            .env_remove("CPM_SERVE_WARM")
            .env_remove("CPM_WARM_FILE")
            .env_remove("CPM_COLLECT_FLUSH_SECS")
            .env("CPM_SERVE_ADDR", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for (key, value) in env {
            command.env(key, value);
        }
        let mut child = command.spawn().expect("serve_tcp spawns");

        // The binary prints "cpm-serve: listening on 127.0.0.1:PORT" once the
        // listener is bound; parse the ephemeral port from that line.
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve_tcp announces its listener")
                .expect("stderr line");
            if let Some(rest) = line.strip_prefix("cpm-serve: listening on ") {
                break rest.trim().parse().expect("listen address parses");
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::Builder::new()
            .name(STDERR_DRAIN.to_string())
            .spawn(move || for _ in lines {})
            .expect("stderr drain thread spawns");
        ServerProcess { child, addr }
    }

    fn threads(&self) -> usize {
        thread_count_of(&self.child.id().to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
#[ignore = "release-mode network smoke test; run explicitly (see CI workflow)"]
fn ten_thousand_idle_connections_stay_responsive_on_a_flat_thread_count() {
    const IDLE: usize = 10_000;
    const WORKERS: usize = 2;

    let server = ServerProcess::spawn(&[
        ("CPM_NET_WORKERS", "2"),
        ("CPM_NET_MAX_CONNS", "16000"),
        ("CPM_IDLE_TIMEOUT_SECS", "600"),
    ]);

    let started = Instant::now();
    let mut idle: Vec<TcpStream> = (0..IDLE).map(|_| connect_with_retry(server.addr)).collect();
    let established = started.elapsed();

    // Every connection is open and idle; the server must still answer new
    // work promptly and without growing its thread count.
    let threads_under_load = server.threads();
    assert!(
        threads_under_load <= WORKERS + 6,
        "expected a flat thread count under {IDLE} idle connections, got {threads_under_load}"
    );

    let probe_started = Instant::now();
    for stream in idle.iter_mut().step_by(1_000) {
        stats_roundtrip(stream);
    }
    let probe_elapsed = probe_started.elapsed();
    assert!(
        probe_elapsed < Duration::from_secs(5),
        "stats probes under {IDLE} idle connections took {probe_elapsed:?}"
    );

    println!(
        "net_smoke: {IDLE} idle connections established in {:.2}s; \
         {} server threads; {} probes served in {:.1}ms",
        established.as_secs_f64(),
        threads_under_load,
        idle.len().div_ceil(1_000),
        probe_elapsed.as_secs_f64() * 1e3
    );
}

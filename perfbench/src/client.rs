//! The outside view of a server: a spawned `serve_tcp` process, a framed
//! blocking client connection, in-band metrics scrapes, and `/proc` readings.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cpm_serve::proto::{decode_response, encode_request, Op};
use cpm_serve::WireResponse;

/// Line `serve_tcp` prints on stderr once its listener is bound.
const LISTENING: &str = "cpm-serve: listening on ";

/// Longest wait for a server to come up (its warm designs included).
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// How often a starting server's log is read for its listening line.
const LISTEN_POLL: Duration = Duration::from_micros(200);

/// Longest wait for one reply; a hung server fails the run instead of
/// stalling it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a connection polls for its reply before it blocks: spinning
/// keeps this process's CPU awake, so the wake-up latency of an idle
/// virtual CPU stays out of fast round trips, while slow ones (a `warm` that
/// solves an LP) do not burn a CPU the server needs.
const SPIN: Duration = Duration::from_micros(500);

/// `/proc/<pid>/stat` CPU times are in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 for user space.
const TICKS_PER_SEC: f64 = 100.0;

/// A running `serve_tcp`, killed and reaped when dropped.
pub struct ServerProc {
    child: Child,
    /// The address the server bound (port 0 resolved by the kernel).
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `exe` on `127.0.0.1:0` with every `CPM_*` variable cleared
    /// except `CPM_SERVE_WARM = warm`, and wait for its listening line.
    /// The server's stderr goes to `log`.
    pub fn spawn(exe: &Path, warm: &str, log: &Path) -> io::Result<ServerProc> {
        let mut command = Command::new(exe);
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("CPM_") {
                command.env_remove(name);
            }
        }
        command
            .env("CPM_SERVE_ADDR", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?);
        if !warm.is_empty() {
            command.env("CPM_SERVE_WARM", warm);
        }
        let mut server = ServerProc {
            child: command.spawn()?,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(log)?;
            if let Some(at) = text.find(LISTENING) {
                let rest = &text[at + LISTENING.len()..];
                if let Some(end) = rest.find('\n') {
                    server.addr = rest[..end].trim().parse().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad address: {e}"))
                    })?;
                    return Ok(server);
                }
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "serve_tcp exited with {status} before listening: {text}"
                )));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "serve_tcp did not start listening",
                ));
            }
            // Sleep, not spin: the server's set-up warm fans its designs out
            // over every CPU, and a spinning client would slow it.
            std::thread::sleep(LISTEN_POLL);
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User + system CPU seconds the server has used so far.
    pub fn cpu_secs(&self) -> io::Result<f64> {
        cpu_secs_from_stat(&self.proc_file("stat")?)
    }

    /// The task id of the server thread named `name` (its `comm`).
    pub fn thread_id(&self, name: &str) -> io::Result<u32> {
        for entry in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            let path = entry?.path();
            if std::fs::read_to_string(path.join("comm"))?.trim() == name {
                return path
                    .file_name()
                    .and_then(|tid| tid.to_str()?.parse().ok())
                    .ok_or_else(|| io::Error::other("bad task directory"));
            }
        }
        Err(io::Error::other(format!("serve_tcp has no thread {name}")))
    }

    /// CPU seconds the server's thread `tid` has run so far, from the
    /// nanosecond run time in its `schedstat`.
    pub fn thread_cpu_secs(&self, tid: u32) -> io::Result<f64> {
        self.proc_file(&format!("task/{tid}/schedstat"))?
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<f64>().ok())
            .map(|ns| ns / 1e9)
            .ok_or_else(|| io::Error::other("bad schedstat line"))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        let line = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .ok_or_else(|| io::Error::other("no VmHWM line"))?;
        let kib: f64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("bad VmHWM line"))?;
        Ok(kib / 1024.0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// User + system CPU seconds from a `/proc/<pid>/stat` line.
pub fn cpu_secs_from_stat(stat: &str) -> io::Result<f64> {
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or_else(|| io::Error::other("bad stat line"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("bad stat field"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SEC)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn steal_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    if ticks.len() < 8 {
        return Err(io::Error::other("bad /proc/stat cpu line"));
    }
    Ok((ticks[7], ticks.iter().sum()))
}

/// Nanoseconds of a fixed loop of system calls owned by this benchmark: 16
/// round trips of 64 bytes through a Unix socket pair, written and read by
/// this one thread, so no other thread wakes.  The median of five runs.
///
/// On a shared virtual machine the cost of a system call swings by about a
/// third for minutes at a time, and every round trip to the server pays
/// several; this loop reads the swing without running any of the program.
pub fn syscall_loop_ns() -> io::Result<f64> {
    use std::os::unix::net::UnixStream;
    use std::sync::{Mutex, OnceLock};
    static PAIR: OnceLock<Mutex<(UnixStream, UnixStream)>> = OnceLock::new();
    let pair = PAIR.get_or_init(|| Mutex::new(UnixStream::pair().expect("a Unix socket pair")));
    let mut pair = pair
        .lock()
        .map_err(|_| io::Error::other("poisoned socket pair"))?;
    let (ends, mut buf) = (&mut *pair, [0u8; 64]);
    let mut samples = [0.0; 5];
    for sample in &mut samples {
        let started = Instant::now();
        for _ in 0..16 {
            ends.0.write_all(&buf)?;
            ends.1.read_exact(&mut buf)?;
        }
        *sample = started.elapsed().as_nanos() as f64;
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[2])
}

/// CPU seconds this client process has used so far.
pub fn client_cpu_secs() -> io::Result<f64> {
    cpu_secs_from_stat(&std::fs::read_to_string("/proc/self/stat")?)
}

/// One framed client connection that spins for up to [`SPIN`] on each reply
/// before it blocks.
pub struct Conn {
    stream: TcpStream,
    /// Bytes written, length prefixes included.
    pub bytes_out: u64,
    /// Bytes read, length prefixes included.
    pub bytes_in: u64,
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a reply timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Send one frame and read the reply frame.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame)?;
        self.await_reply()?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > cpm_serve::frontend::MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes"),
            ));
        }
        let mut reply = vec![0u8; len];
        self.stream.read_exact(&mut reply)?;
        self.bytes_out += frame.len() as u64;
        self.bytes_in += 4 + len as u64;
        Ok(reply)
    }

    /// Spin until reply bytes are readable or [`SPIN`] has passed.
    fn await_reply(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let started = Instant::now();
        let mut probe = [0u8; 1];
        let ready = loop {
            match self.stream.peek(&mut probe) {
                Ok(_) => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if started.elapsed() >= SPIN {
                        break Ok(());
                    }
                    std::hint::spin_loop();
                }
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        ready
    }

    /// Send an op as a `CPMF` frame and decode the `CPMF` reply.
    pub fn call_op(&mut self, op: &Op) -> Result<WireResponse, String> {
        let payload = encode_request(op)?;
        let reply = self.call(&payload).map_err(|e| e.to_string())?;
        decode_response(&reply).map(|(_, response)| response)
    }

    /// Scrape the metrics exposition in-band (the `metrics` op), so a scrape
    /// never opens another connection.
    pub fn scrape(&mut self) -> Result<Metrics, String> {
        let response = self.call_op(&Op::Metrics)?;
        if !response.ok {
            return Err(format!("metrics op failed: {}", response.error));
        }
        Ok(Metrics::parse(&response.metrics))
    }
}

/// A parsed metrics exposition: series name (labels included) → value.
#[derive(Debug, Clone, Default)]
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    /// Parse `name value` lines, skipping comments and histogram buckets.
    pub fn parse(text: &str) -> Metrics {
        Metrics(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.contains("_bucket{"))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// A series' value (0 when the server has not registered it yet).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// How much a series grew from `before` to `self`.
    pub fn delta(&self, before: &Metrics, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    /// Mean of a histogram's new samples from `before` to `self`, in its unit.
    pub fn delta_mean(&self, before: &Metrics, family: &str, labels: &str) -> f64 {
        let count = self.delta(before, &format!("{family}_count{labels}"));
        if count > 0.0 {
            self.delta(before, &format!("{family}_sum{labels}")) / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_spaces_in_the_command_name() {
        let stat = "42 (serve tcp) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(cpu_secs_from_stat(stat).unwrap(), 3.0);
    }

    #[test]
    fn exposition_parses_counters_and_histogram_sums() {
        let text = "# TYPE a counter\na_total{op=\"x\"} 3\n\
                    h_bucket{le=\"7\"} 2\nh_sum 10\nh_count 2\n";
        let after = Metrics::parse(text);
        assert_eq!(after.get("a_total{op=\"x\"}"), 3.0);
        assert_eq!(after.delta_mean(&Metrics::default(), "h", ""), 5.0);
        assert_eq!(after.get("h_bucket{le=\"7\"}"), 0.0);
    }
}

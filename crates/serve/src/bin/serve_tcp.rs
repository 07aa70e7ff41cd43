//! The socket mechanism server: one engine, a fixed set of poll-reactor
//! workers, the same framed protocol as `serve_stdio` (see
//! [`cpm_serve::proto`]): length-prefixed JSON or compact `CPMF` binary
//! frames, `CPMR` report batches, and `GET /metrics` HTTP scrapes — all
//! negotiated by first bytes on one port.
//!
//! `CPM_SERVE_ADDR` picks the listener: a `host:port` TCP address (default
//! `127.0.0.1:4700`) or `unix:/path/to.sock` for a unix-domain socket.  The
//! reactor is sized by `CPM_NET_WORKERS` / `CPM_NET_MAX_CONNS` /
//! `CPM_IDLE_TIMEOUT_SECS` (see [`cpm_serve::net::NetConfig`]); report
//! ingestion is rate-limited per connection by `CPM_REPORT_RATE`; the
//! cache/engine knobs (`CPM_SERVE_CAPACITY`, `CPM_SERVE_SEED`,
//! `CPM_COLLECT_OUTPUTS`, `CPM_THREADS`) and the warm-start
//! variables (`CPM_SERVE_WARM`, `CPM_WARM_FILE`) work exactly as they do for
//! `serve_stdio` — see [`cpm_serve::boot`].  `CPM_COLLECT_FLUSH_SECS` starts
//! the background estimate-snapshot flusher.
//!
//! A client's `shutdown` op closes that client's connection only; the listener
//! keeps accepting until the process is killed.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;

use cpm_serve::boot::start_flusher_from_env;
use cpm_serve::prelude::*;

/// Default TCP listen address.
const DEFAULT_ADDR: &str = "127.0.0.1:4700";

fn main() -> io::Result<()> {
    let engine = Arc::new(Engine::new(EngineConfig::from_env()));
    bootstrap(&engine)?;
    let _flusher = start_flusher_from_env(&engine);

    let addr = std::env::var("CPM_SERVE_ADDR").unwrap_or_else(|_| DEFAULT_ADDR.to_string());
    let server = if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let path = std::path::PathBuf::from(path);
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)?;
            eprintln!("cpm-serve: listening on unix socket {}", path.display());
            Server::unix(Arc::clone(&engine), listener)?
        }
        #[cfg(not(unix))]
        {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unix sockets are not available on this platform: {path}"),
            ));
        }
    } else {
        let listener = TcpListener::bind(&addr)?;
        eprintln!("cpm-serve: listening on {}", listener.local_addr()?);
        Server::tcp(Arc::clone(&engine), listener)?
    };

    server.wait();
    Ok(())
}

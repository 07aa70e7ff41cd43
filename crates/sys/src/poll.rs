//! Safe wrapper over `poll(2)`.
//!
//! The reactor hands this module a slice of [`PollFd`]s — one per connection,
//! plus the listener and a wake pipe — and blocks until at least one is ready
//! (or the timeout lapses).  The wrapper owns the two things that make the raw
//! syscall unsafe: the pointer/length pair is derived from a real slice, and
//! `EINTR` is retried so callers never observe a spurious error from a signal.

use std::io;
use std::os::fd::RawFd;

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: i16 = 0x004;
/// An error condition is pending (revents only).
pub const POLLERR: i16 = 0x008;
/// The peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One descriptor's interest set and readiness result, exactly as `poll(2)`
/// lays it out.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for the events in `events` (a bitmask of [`POLLIN`] /
    /// [`POLLOUT`]).
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The watched descriptor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// The readiness bits the last [`poll_ready`] call reported (error conditions
    /// `POLLERR`/`POLLHUP`/`POLLNVAL` may be set even when not requested).
    pub fn revents(&self) -> i16 {
        self.revents
    }

    /// Whether the descriptor is readable (or in an error/hangup state, which
    /// a read will surface as `Ok(0)` or an error — both handled by the read
    /// path, so they are folded in here).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether the descriptor is writable.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLNVAL) != 0
    }
}

// The symbol std's platform support already links from the C library; the
// signature matches POSIX (`nfds_t` is `c_ulong` on every Linux/glibc/musl
// target this workspace builds for, and on the BSDs/macOS `c_uint` promotes
// losslessly for the fd counts a single process can reach).
extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: core::ffi::c_int) -> i32;
}

/// Block until a descriptor in `fds` is ready, the timeout lapses, or the
/// process is interrupted (retried internally).
///
/// `timeout_ms < 0` blocks indefinitely; `0` polls without blocking.  Returns
/// the number of descriptors with non-zero `revents` (0 on timeout).
pub fn poll_ready(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively-borrowed slice of `#[repr(C)]`
        // structs laid out exactly as `struct pollfd`; the kernel writes only
        // the `revents` field of the `fds.len()` entries passed.
        let ready = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let error = io::Error::last_os_error();
        if error.kind() == io::ErrorKind::Interrupted {
            continue; // EINTR: a signal landed mid-wait; re-enter the wait.
        }
        return Err(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_after_a_write_and_timeout_when_idle() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: a zero-timeout poll reports no readiness.
        assert_eq!(poll_ready(&mut fds, 0).unwrap(), 0);
        assert!(!fds[0].readable());

        a.write_all(b"x").unwrap();
        let ready = poll_ready(&mut fds, 1_000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
    }

    #[test]
    fn writability_is_reported_for_an_open_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(poll_ready(&mut fds, 1_000).unwrap(), 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn hangup_is_folded_into_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(poll_ready(&mut fds, 1_000).unwrap(), 1);
        assert!(fds[0].readable(), "peer hangup must wake the read path");
    }
}

//! Readiness polling for the event-driven server.
//!
//! A thin safe wrapper over `poll(2)` — the one syscall the nonblocking
//! server needs that `std::net` does not expose — plus a self-pipe wake
//! channel so other threads can interrupt a sleeping `poll` (the classic
//! self-pipe trick; it replaces the old dummy-connection shutdown hack).
//! No external event-loop crate: the FFI surface is a single function on a
//! `#[repr(C)]` struct that matches `struct pollfd` exactly.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

/// Readable readiness (`POLLIN`).
pub const POLL_IN: i16 = 0x001;
/// Writable readiness (`POLLOUT`).
pub const POLL_OUT: i16 = 0x004;
/// Error condition (`POLLERR`, always polled, only returned in revents).
pub const POLL_ERR: i16 = 0x008;
/// Peer hung up (`POLLHUP`, always polled, only returned in revents).
pub const POLL_HUP: i16 = 0x010;

/// One entry of a `poll(2)` set — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLL_IN`] / [`POLL_OUT`]).
    pub events: i16,
    /// Returned events (filled in by the kernel).
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for the given events.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the descriptor is readable (or the peer closed/errored —
    /// those also surface via a read attempt).
    pub fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Block until at least one descriptor in `fds` is ready or `timeout`
/// elapses (`None` = wait forever). Returns the number of ready
/// descriptors (0 on timeout). EINTR is treated as a zero-ready wakeup —
/// the event loop re-evaluates and re-polls regardless.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let timeout_ms: std::ffi::c_int = match timeout {
        // Round up so a 0<t<1ms deadline does not busy-spin.
        Some(t) => {
            t.as_millis().min(i32::MAX as u128) as i32
                + i32::from(t.subsec_nanos() % 1_000_000 != 0)
        }
        None => -1,
    };
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// A wake channel: the event loop polls the receive end alongside its
/// sockets; any thread holding a [`Waker`] can make `poll` return
/// immediately. Built from a loopback TCP pair so it stays inside
/// `std::net` (a pipe would need two more FFI calls for no benefit).
#[derive(Debug)]
pub struct WakePipe {
    rx: TcpStream,
}

/// The sending half of a [`WakePipe`]; cheap to clone across threads.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            tx: self.tx.try_clone().expect("clone waker socket"),
        }
    }
}

impl WakePipe {
    /// Create a connected (receiver, waker) pair.
    pub fn new() -> std::io::Result<(WakePipe, Waker)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        rx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        Ok((WakePipe { rx }, Waker { tx }))
    }

    /// The descriptor to include in the poll set (watch [`POLL_IN`]).
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Discard all pending wake bytes (call after the poll reports the
    /// wake fd readable; the *reason* for the wake lives elsewhere, e.g.
    /// an atomic shutdown flag).
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl Waker {
    /// Make the receiving poll loop wake up. Never blocks meaningfully (a
    /// loopback socket buffer absorbs the byte); errors are ignored — if
    /// the receiver is gone there is nobody left to wake.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_times_out_on_quiet_fd() {
        let (pipe, _waker) = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.fd(), POLL_IN)];
        let ready = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(ready, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn waker_interrupts_poll() {
        let (mut pipe, waker) = WakePipe::new().unwrap();
        // Keep the original waker alive: dropping the last sender closes
        // the channel, which reads as permanent readiness (EOF).
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        });
        let mut fds = [PollFd::new(pipe.fd(), POLL_IN)];
        let ready = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
        pipe.drain();
        // Drained: the next poll times out instead of spinning.
        let mut fds = [PollFd::new(pipe.fd(), POLL_IN)];
        let ready = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(ready, 0);
        t.join().unwrap();
    }

    #[test]
    fn cloned_wakers_share_the_channel() {
        let (mut pipe, waker) = WakePipe::new().unwrap();
        let w2 = waker.clone();
        w2.wake();
        let mut fds = [PollFd::new(pipe.fd(), POLL_IN)];
        assert_eq!(poll_fds(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        pipe.drain();
    }
}

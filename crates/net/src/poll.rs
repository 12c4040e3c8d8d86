//! A minimal `poll(2)` binding plus the self-wake primitive the event
//! loop registers alongside its sockets.
//!
//! The workspace builds without crates.io, so the one syscall `std` has
//! no wrapper for is declared by hand against the libc that `std`
//! already links; it is this workspace's only foreign call and only
//! `unsafe` block. The poll flag values used here (`POLLIN` 0x1,
//! `POLLOUT` 0x4, `POLLERR` 0x8, `POLLHUP` 0x10, `POLLNVAL` 0x20) are
//! identical on Linux, the BSDs, and macOS, so one set of constants
//! covers every Unix target.
//!
//! [`WakePipe`] is the cross-loop half: a loop that hands a connection
//! to the loop owning its shard, or that takes a `Shutdown`, must wake
//! the other loops out of `poll`. It is a non-blocking
//! [`UnixStream::pair`](std::os::unix::net::UnixStream::pair) — pure
//! `std`, the same code on every Unix.

use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

#[cfg(not(unix))]
compile_error!("odbgc-net's event loop is a poll(2) binding: it needs a Unix target");

/// A file descriptor as the poll set carries it (`c_int`).
pub type Fd = i32;

/// How long either end of a connection busy-polls for readiness before
/// it blocks in [`poll`]. A loopback round trip lands well inside it; an
/// idle peer costs the waiting thread at most this much spinning.
pub(crate) const BUSY_POLL_WINDOW: std::time::Duration = std::time::Duration::from_micros(50);

/// Readable data available (or a peer hangup, which also reads as EOF).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;

/// One entry in a poll set: the C `struct pollfd`, laid out exactly as
/// the kernel expects so a `&mut [PollFd]` can be passed straight to the
/// syscall.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch (negative entries are ignored by the
    /// kernel, which is the standard way to leave a slot registered but
    /// inert).
    pub fd: Fd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    pub fn new(fd: Fd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the kernel reported any of `mask` on this entry.
    pub fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

mod sys {
    use std::ffi::c_int;

    use super::PollFd;

    #[cfg(target_os = "linux")]
    pub(super) type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(super) type NfdsT = std::ffi::c_uint;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

/// Waits until at least one registered event is ready, the timeout
/// elapses, or a signal interrupts the wait.
///
/// `timeout_ms` follows the syscall's convention: `-1` blocks
/// indefinitely, `0` polls without blocking, anything positive is a cap
/// in milliseconds. Returns the number of entries with non-zero
/// `revents` (0 on timeout). An `EINTR` interruption is reported as
/// `Ok(0)` — the caller's loop re-evaluates its deadlines and polls
/// again, which is exactly what it would do for a timeout.
#[allow(unsafe_code)]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `fds` is a valid, exclusively borrowed slice of repr(C)
    // pollfd entries for the duration of the call; the kernel writes
    // only the `revents` fields of the `fds.len()` entries we declare.
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NfdsT, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

// ---------------------------------------------------------------------
// Wake pipe
// ---------------------------------------------------------------------

/// The loop's cross-thread wake-up: a descriptor registered for `POLLIN`
/// in the poll set, plus a [`WakePipe::wake`] any thread may call to make
/// that descriptor readable.
///
/// Wakes are level-triggered and coalescing: any number of `wake` calls
/// before the loop drains leave the descriptor readable exactly until
/// [`WakePipe::drain`] empties it, so a burst of hand-offs costs one
/// loop iteration, not one per connection.
#[derive(Debug)]
pub struct WakePipe {
    /// Registered in the poll set; [`WakePipe::drain`] reads it empty.
    read: UnixStream,
    /// [`WakePipe::wake`] writes one byte here.
    write: UnixStream,
}

impl WakePipe {
    /// Creates the wake primitive for one loop thread.
    pub fn new() -> io::Result<WakePipe> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(WakePipe { read, write })
    }

    /// The descriptor to register with [`POLLIN`].
    pub fn fd(&self) -> Fd {
        self.read.as_raw_fd()
    }

    /// Makes the descriptor readable. Best-effort and non-blocking: a
    /// full socket buffer (`WouldBlock`) means a wake is already
    /// pending, which is all a wake means.
    pub fn wake(&self) {
        let _ = (&self.write).write(&[1]);
    }

    /// Consumes every pending wake byte so the descriptor goes quiet
    /// until the next [`WakePipe::wake`].
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // `Ok(0)` cannot happen (we hold the write end); an error is
        // `WouldBlock` once empty — either way the socket is as quiet
        // as we can make it without blocking.
        while matches!((&self.read).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn wake_pipe_is_poll_visible_and_drains_quiet() {
        let wake = WakePipe::new().expect("wake pipe");
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];

        // Quiet: an immediate poll times out with nothing ready.
        let ready = poll(&mut fds, 0).expect("poll");
        assert_eq!(ready, 0);
        assert!(!fds[0].has(POLLIN));

        // Multiple wakes coalesce into one readable level.
        wake.wake();
        wake.wake();
        let ready = poll(&mut fds, 1_000).expect("poll");
        assert_eq!(ready, 1);
        assert!(fds[0].has(POLLIN));

        // Draining returns the descriptor to quiet.
        wake.drain();
        let ready = poll(&mut fds, 0).expect("poll");
        assert_eq!(ready, 0);
    }

    #[test]
    fn wake_never_blocks_when_the_buffer_is_full() {
        let wake = WakePipe::new().expect("wake pipe");
        // Far more wakes than any socket buffer holds, none drained: the
        // test finishing at all is the non-blocking half of the contract.
        for _ in 0..1_000_000 {
            wake.wake();
        }
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 1_000).expect("poll"), 1);
        assert!(fds[0].has(POLLIN));

        // However many bytes the buffer took, one drain empties it.
        wake.drain();
        assert_eq!(poll(&mut fds, 0).expect("poll"), 0);
        assert!(!fds[0].has(POLLIN));
    }

    #[test]
    fn wake_is_cross_thread() {
        let wake = std::sync::Arc::new(WakePipe::new().expect("wake pipe"));
        let remote = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        });
        let mut fds = [PollFd::new(wake.fd(), POLLIN)];
        let ready = poll(&mut fds, 5_000).expect("poll");
        assert_eq!(ready, 1, "a wake from another thread must wake the poll");
        t.join().unwrap();
    }

    #[test]
    fn empty_poll_set_times_out() {
        let mut fds: [PollFd; 0] = [];
        assert_eq!(poll(&mut fds, 0).expect("poll"), 0);
    }
}

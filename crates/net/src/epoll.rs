//! Raw syscall bindings: the readiness notification layer under the
//! event-loop server, and the two socket calls `std::net` lacks.
//!
//! Declared directly as `extern "C"` symbols — the same no-dependency
//! pattern as `poly-bench`'s raw `signal(2)` binding (the workspace
//! builds offline; there is no libc crate to lean on). Bound here:
//!
//! - `epoll_create1`, `epoll_ctl`, `epoll_wait` and `close`: the event
//!   loop's readiness layer;
//! - `recv` with `MSG_DONTWAIT`: one read that does not block, even on a
//!   blocking socket, so a client can poll for a reply before it sleeps
//!   in `read`;
//! - `listen`: a bound listener asks again for the longest accept queue
//!   the kernel allows;
//! - `getrlimit`/`setrlimit`, so c10k-scale tests can lift
//!   `RLIMIT_NOFILE` toward its hard cap before opening thousands of
//!   sockets.
//!
//! The [`Epoll`] wrapper keeps the unsafe surface in one place: it owns
//! the epoll fd and the kernel's event buffer, registers interest by
//! `u64` token, and reads `epoll_wait` results as `(token, readable,
//! writable)` triples. The sockets themselves stay ordinary `std::net`
//! types — `TcpListener` / `TcpStream` already expose `set_nonblocking`,
//! so no `fcntl` binding is needed.

use std::ffi::c_void;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};

/// Readable interest/readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable interest/readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (`EPOLLRDHUP`). Reported when requested;
/// [`Epoll::add`] and [`Epoll::modify`] do not request it on their own.
/// With `EPOLLIN` a half-close already reads as EOF, and a loop that has
/// stopped reading a socket would be woken by this level-triggered bit
/// on every wait until the peer goes.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0x80000;
/// `recv(2)` flag: this one call does not block, whatever the socket's
/// mode.
const MSG_DONTWAIT: c_int = 0x40;
/// Events one `epoll_wait` can report.
const MAX_EVENTS: usize = 256;

/// The kernel's `struct epoll_event`. Packed on x86_64 (the kernel ABI
/// demands it there); naturally aligned everywhere else.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | ...`).
    pub events: u32,
    /// The caller's token, returned verbatim on readiness.
    pub data: u64,
}

extern "C" {
    /// `epoll_create1(2)`.
    fn epoll_create1(flags: c_int) -> c_int;
    /// `epoll_ctl(2)`.
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    /// `epoll_wait(2)`.
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    /// `close(2)`.
    fn close(fd: c_int) -> c_int;
    /// `recv(2)`.
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    /// `listen(2)`.
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    /// `getrlimit(2)`.
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    /// `setrlimit(2)`.
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

/// `struct rlimit` on 64-bit Linux: soft and hard limits as `u64`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

/// `RLIMIT_NOFILE` on every Linux architecture this repo targets.
const RLIMIT_NOFILE: c_int = 7;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Raises the process's open-file soft limit toward `want` (clamped to
/// the hard limit) and returns the soft limit now in force. A c10k test
/// calls this first: the default soft limit on many hosts is 1024 fds,
/// far under two fds per loopback connection at thousands of
/// connections.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable rlimit struct.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur >= want {
        return Ok(lim.cur);
    }
    let target = want.min(lim.max);
    let raised = Rlimit { cur: target, max: lim.max };
    // SAFETY: `raised` is a valid rlimit struct; the soft limit never
    // exceeds the hard limit, so the call cannot require privileges.
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &raised) })?;
    Ok(target)
}

/// Reads what `stream` has received without blocking, whatever the
/// socket's mode: `Ok(None)` while nothing has arrived (or a signal cut
/// the call short), `Ok(Some(0))` at EOF, and a socket error as it comes.
pub(crate) fn recv_nowait(stream: &TcpStream, buf: &mut [u8]) -> io::Result<Option<usize>> {
    // SAFETY: `buf` is valid for writes of `buf.len()` bytes, and
    // `stream` keeps its fd open for the whole call.
    let n = unsafe { recv(stream.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
    if n >= 0 {
        return Ok(Some(n as usize));
    }
    let e = io::Error::last_os_error();
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(None),
        _ => Err(e),
    }
}

/// Asks again for `listener`'s accept queue, at the longest the kernel
/// allows: it clamps the request to `net.core.somaxconn`.
/// `TcpListener::bind` asks for 128, and a burst of connects past a full
/// queue costs each dropped SYN a one-second retransmit.
pub(crate) fn listen_at_max(listener: &TcpListener) -> io::Result<()> {
    // SAFETY: no pointers; `listener` keeps its fd open for the call, and
    // listening again on a listening socket only resizes its queue.
    cvt(unsafe { listen(listener.as_raw_fd(), c_int::MAX) })?;
    Ok(())
}

/// One `(token, readiness)` result, as [`Epoll::ready`] lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The token the fd was registered under.
    pub token: u64,
    /// The socket has bytes to read, or the peer hung up (hangups are
    /// folded in: the next read returns 0/error, which is the signal the
    /// owner needs).
    pub readable: bool,
    /// The socket accepted more bytes.
    pub writable: bool,
}

/// An owned epoll instance: register fds by token, wait for readiness.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
    /// The kernel's event buffer, kept across waits, so a wait that finds
    /// nothing costs only its syscall.
    events: Box<[EpollEvent]>,
    /// How many of `events` the last wait filled.
    ready: usize,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the fd is checked below.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd, events: vec![EpollEvent::default(); MAX_EVENTS].into(), ready: 0 })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` is a valid epoll_event for ADD/MOD; DEL ignores it
        // (a non-null pointer keeps pre-2.6.9 kernel semantics happy).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest
    /// (`EPOLLIN`/`EPOLLOUT`/`EPOLLRDHUP`).
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Re-arms `fd` with a new interest set, keeping its token.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` for readiness (`0` polls) and returns
    /// the number of ready fds, which [`Epoll::ready`] then lists; `0` is
    /// a timeout. `EINTR` is absorbed and reported as a timeout, so a
    /// profiler signal never kills the event loop.
    pub fn wait(&mut self, timeout_ms: i32) -> io::Result<usize> {
        self.ready = 0;
        // SAFETY: `events` is a valid, writable array of `events.len()`
        // epoll_events.
        let n = match cvt(unsafe {
            epoll_wait(self.fd, self.events.as_mut_ptr(), self.events.len() as c_int, timeout_ms)
        }) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        self.ready = n;
        Ok(n)
    }

    /// The fds the last [`Epoll::wait`] found ready.
    pub fn ready(&self) -> impl Iterator<Item = Readiness> + '_ {
        self.events[..self.ready].iter().map(|ev| {
            // Copy out of the (possibly packed) struct before use.
            let (bits, token) = (ev.events, ev.data);
            Readiness {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                writable: bits & EPOLLOUT != 0,
            }
        })
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` came from epoll_create1 and is closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::{Duration, Instant};

    #[test]
    fn readiness_tracks_a_loopback_pair() {
        let mut ep = Epoll::new().expect("epoll_create1");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        server_end.set_nonblocking(true).unwrap();
        ep.add(server_end.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing written yet: the wait times out.
        assert_eq!(ep.wait(0).unwrap(), 0);

        // Bytes in flight: the server end becomes readable under token 7.
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let n = ep.wait(2_000).unwrap();
        assert_eq!(n, 1, "one fd ready");
        let ready: Vec<Readiness> = ep.ready().collect();
        assert_eq!(ready[0].token, 7);
        assert!(ready[0].readable);

        // Re-armed for write interest: an idle socket is instantly writable.
        ep.modify(server_end.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).unwrap();
        ep.wait(2_000).unwrap();
        assert!(ep.ready().any(|r| r.token == 7 && r.writable));

        // Deregistered: readiness stops arriving even with bytes pending.
        ep.delete(server_end.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        assert_eq!(ep.wait(0).unwrap(), 0);
        assert_eq!(ep.ready().count(), 0, "a wait that finds nothing lists nothing");
    }

    #[test]
    fn hangup_reports_as_readable() {
        let mut ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        ep.add(server_end.as_raw_fd(), EPOLLIN, 1).unwrap();
        drop(client);
        ep.wait(2_000).unwrap();
        let ready: Vec<Readiness> = ep.ready().collect();
        assert!(
            ready.iter().any(|r| r.token == 1 && r.readable),
            "a peer hangup must wake the reader: {ready:?}"
        );
    }

    #[test]
    fn recv_nowait_polls_a_blocking_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        let mut buf = [0u8; 8];
        // Nothing sent: the poll returns at once, though the socket blocks.
        assert_eq!(recv_nowait(&server_end, &mut buf).unwrap(), None);
        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let n = loop {
            if let Some(n) = recv_nowait(&server_end, &mut buf).unwrap() {
                break n;
            }
            assert!(Instant::now() < deadline, "the bytes never arrived");
        };
        assert_eq!(&buf[..n], b"ping");
        drop(client);
        let eof = loop {
            if let Some(n) = recv_nowait(&server_end, &mut buf).unwrap() {
                break n;
            }
            assert!(Instant::now() < deadline, "the hangup never arrived");
        };
        assert_eq!(eof, 0, "a hangup reads as EOF");
    }

    #[test]
    fn nofile_limit_can_be_queried_and_raised() {
        // Asking for 1 never lowers the limit, so this is a pure query.
        let current = raise_nofile_limit(1).expect("getrlimit");
        assert!(current >= 1);
        // Asking for current again is idempotent.
        assert_eq!(raise_nofile_limit(current).unwrap(), current);
    }
}

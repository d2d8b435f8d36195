//! The readiness server: one thread, many connections.
//!
//! Instead of a worker thread per connection ([`crate::server::Arch::Threads`]),
//! a single loop blocks in `epoll_wait` and services whichever sockets
//! the kernel reports ready. Each connection owns an incremental
//! [`FrameDecoder`] and an outbound byte buffer, so frames torn across
//! `read(2)` calls reassemble in place and partial writes resume on the
//! next `EPOLLOUT`. The paper's sleep-vs-spin tradeoff reappears here a
//! layer up: the loop sleeps in the kernel between readiness bursts
//! rather than burning a blocked thread per idle connection, which is
//! what makes the architecture an energy axis worth sweeping.
//!
//! A readiness burst often drains several pipelined request frames from
//! one socket at once; each is answered in arrival order through the
//! same per-frame path the threads server uses
//! ([`crate::server::answer`]), into the connection's outbound buffer.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::epoll::{Epoll, Readiness, EPOLLIN, EPOLLOUT};
use crate::proto::{FrameDecoder, Response};
use crate::server::{answer, reply, Inner};

/// Token reserved for the listening socket.
const LISTENER: u64 = 0;

/// Outbound bytes buffered per connection before the loop stops reading
/// its requests until a flush drains it — a slow reader must not balloon
/// server memory.
const MAX_OUTBUF: usize = 8 << 20;

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Encoded-but-unsent response frames (length prefixes included).
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    out_pos: usize,
    /// Current epoll interest set.
    interest: u32,
    /// Framing was lost (oversized prefix): flush what is queued, then
    /// close instead of reading on.
    closing: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// The accept-and-serve loop; runs on the server's single accept thread
/// until the stop flag is raised. Connection counters, capacity
/// refusals, and request execution are shared with the threads server.
pub(crate) fn run(listener: TcpListener, inner: &Arc<Inner>) {
    let Ok(ep) = Epoll::new() else { return };
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    if ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER).is_err() {
        return;
    }
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut ready: Vec<Readiness> = Vec::new();
    // The wait timeout doubles as the stop-flag polling cadence, exactly
    // like the threads server's per-connection read timeout.
    let timeout_ms = inner.cfg.read_timeout.as_millis().clamp(1, 1_000) as i32;

    loop {
        if ep.wait(&mut ready, timeout_ms).is_err() {
            break;
        }
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        for &ev in &ready {
            if ev.token == LISTENER {
                accept_burst(&listener, &ep, inner, &mut slab, &mut free);
                continue;
            }
            let slot = (ev.token - 1) as usize;
            let alive = match slab.get_mut(slot).and_then(Option::as_mut) {
                None => continue, // already closed earlier in this burst
                Some(conn) => {
                    let alive = service(conn, ev, inner);
                    if alive {
                        // Re-arm: write interest only while bytes queue,
                        // and no read interest while the loop would not
                        // read (level-triggered EPOLLIN would spin).
                        let want = if conn.closing || conn.pending_out() > MAX_OUTBUF {
                            EPOLLOUT
                        } else if conn.pending_out() > 0 {
                            EPOLLIN | EPOLLOUT
                        } else {
                            EPOLLIN
                        };
                        if want != conn.interest
                            && ep.modify(conn.stream.as_raw_fd(), want, ev.token).is_ok()
                        {
                            conn.interest = want;
                        }
                    }
                    alive
                }
            };
            if !alive {
                if let Some(conn) = slab[slot].take() {
                    let _ = ep.delete(conn.stream.as_raw_fd());
                    free.push(slot);
                    inner.connection_closed();
                }
            }
        }
    }
    // Shutdown: close every connection and give back its live slot.
    for conn in slab.into_iter().flatten() {
        drop(conn);
        inner.connection_closed();
    }
}

fn accept_burst(
    listener: &TcpListener,
    ep: &Epoll,
    inner: &Arc<Inner>,
    slab: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if inner.at_capacity() {
            // Accepted sockets do not inherit the listener's nonblocking
            // flag, so the bounded blocking error-frame write in refuse()
            // works here too.
            inner.refuse(stream);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        let slot = free.pop().unwrap_or_else(|| {
            slab.push(None);
            slab.len() - 1
        });
        let token = (slot + 1) as u64;
        if ep.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
            free.push(slot);
            continue;
        }
        inner.connection_opened();
        slab[slot] = Some(Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN,
            closing: false,
        });
    }
}

/// Services one readiness event. Returns false when the connection is
/// finished (EOF, socket error, or a closing connection fully flushed).
fn service(conn: &mut Conn, ev: Readiness, inner: &Inner) -> bool {
    if ev.readable && !conn.closing && !read_and_respond(conn, inner) {
        return false;
    }
    if !flush(conn) {
        return false;
    }
    // A connection that lost framing dies once its error frame is out.
    !(conn.closing && conn.pending_out() == 0)
}

/// Drains the socket into the decoder and answers every complete
/// request. Returns false on EOF or socket error.
fn read_and_respond(conn: &mut Conn, inner: &Inner) -> bool {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        // Backpressure: a reader that never drains its responses stops
        // being read from until EPOLLOUT progress frees the buffer.
        if conn.pending_out() > MAX_OUTBUF {
            return true;
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => return false,
            Ok(n) => conn.dec.push(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
        // Answer as we go, so the cap above is checked between chunks
        // of a burst larger than the scratch buffer. A `Vec` sink takes
        // every frame `answer` makes; were one refused, the connection
        // would go, not the loop.
        loop {
            match conn.dec.next_frame() {
                Ok(Some(body)) => {
                    if answer(&body, inner, &mut conn.out).is_err() {
                        return false;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // An oversized length prefix means the byte stream
                    // can no longer be framed: answer, then close after
                    // flush.
                    conn.closing = true;
                    return reply(&Response::Error(e.to_string()), inner, &mut conn.out).is_ok();
                }
            }
        }
    }
}

/// Pushes queued bytes at the socket until done or `WouldBlock`.
/// Returns false on a socket error.
fn flush(conn: &mut Conn) -> bool {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    true
}

//! The readiness server: one thread, many connections.
//!
//! Instead of a worker thread per connection ([`crate::server::Arch::Threads`]),
//! a single loop waits for readiness and services whichever sockets the
//! kernel reports ready. The paper's sleep-vs-spin tradeoff reappears
//! here a layer up, twice. Between readiness bursts the loop sleeps in
//! `epoll_wait` rather than burning a blocked thread per idle connection,
//! which is what makes the architecture an energy axis worth sweeping.
//! And before it sleeps, it spins as MUTEXEE does: it polls `epoll_wait`
//! at timeout 0, yielding the CPU between polls, for at most 50 µs, and
//! only when its previous wait ended within that budget
//! ([`crate::spin::SpinThenSleep`]). A request that lands within the
//! budget is read without the loop being put to sleep and woken; an idle
//! loop, or one behind a paced client, goes straight to sleep.
//!
//! Every socket is read through one buffer the loop owns, and each
//! complete request frame is answered where it was read, through the
//! same per-frame path the threads server uses ([`crate::server::answer`]),
//! into the connection's outbound buffer. A connection keeps only what a
//! read leaves unanswered: a frame torn across reads waits in its
//! [`FrameDecoder`] until the rest arrives, and partial writes resume on
//! the next `EPOLLOUT`. An idle connection holds no read buffer, and a
//! drained decoder or outbound buffer gives back its capacity beyond a
//! small bound.
//!
//! Backpressure works between frames: a frame is answered only while the
//! outbound buffer holds at most [`MAX_OUTBUF`], so a burst of small
//! requests for a large value cannot buffer more than the cap plus one
//! reply. Frames past the cap wait in the decoder, and the socket is not
//! read while they wait. Once `EPOLLOUT` drains the buffer below the cap,
//! the waiting frames are answered before anything new is read, so a
//! client that has sent everything still gets every reply.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::epoll::{Epoll, Readiness, EPOLLIN, EPOLLOUT};
use crate::proto::{recycle, split_frame, FrameDecoder};
use crate::server::{answer, refuse_framing, Inner, Tally};
use crate::spin::SpinThenSleep;

/// Token reserved for the listening socket.
const LISTENER: u64 = 0;

/// Outbound bytes buffered per connection past which the loop answers
/// none of its frames, and reads none, until a flush drains it — a slow
/// reader must not balloon server memory.
const MAX_OUTBUF: usize = 8 << 20;

/// Bytes one `read(2)` asks for, into the one read buffer of the loop.
const READ_BUF: usize = 64 << 10;

struct Conn {
    stream: TcpStream,
    /// What reads left unanswered: a torn frame, or frames past the cap.
    dec: FrameDecoder,
    /// Encoded-but-unsent response frames (length prefixes included).
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    out_pos: usize,
    /// Current epoll interest set.
    interest: u32,
    /// The peer is done sending (EOF), or framing was lost (oversized
    /// prefix): read no more, answer the frames already buffered, and
    /// close once every reply is out.
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
    let Ok(mut ep) = Epoll::new() else { return };
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    if ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER).is_err() {
        return;
    }
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut rbuf = vec![0u8; READ_BUF];
    let mut waiter = SpinThenSleep::new();
    // The blocking wait's timeout doubles as the stop-flag polling
    // cadence, exactly like the threads server's per-connection read
    // timeout.
    let timeout_ms = inner.cfg.read_timeout.as_millis().clamp(1, 1_000) as i32;

    loop {
        let woke = waiter.wait(|block| {
            let n = ep.wait(if block { timeout_ms } else { 0 })?;
            Ok((block || n > 0).then_some(()))
        });
        if woke.is_err() || inner.stop.load(Ordering::SeqCst) {
            break;
        }
        for ev in ep.ready() {
            if ev.token == LISTENER {
                accept_burst(&listener, &ep, inner, &mut slab, &mut free);
                continue;
            }
            let slot = (ev.token - 1) as usize;
            let alive = match slab.get_mut(slot).and_then(Option::as_mut) {
                None => continue, // already closed earlier in this burst
                Some(conn) => {
                    let alive = service(conn, ev, inner, &mut rbuf);
                    if alive {
                        // Re-arm: write interest only while bytes queue,
                        // and no read interest while the loop would not
                        // read (level-triggered EPOLLIN would spin). Over
                        // the cap, frames may wait; the EPOLLOUT that
                        // drains the buffer answers them.
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
/// finished (a socket error, or a closing connection fully answered and
/// flushed).
///
/// Each pass flushes, then answers. A pass repeats while its flush left
/// room under the cap for frames that wait, so a connection never sits
/// with answerable frames and nothing that would wake it.
fn service(conn: &mut Conn, ev: Readiness, inner: &Inner, rbuf: &mut [u8]) -> bool {
    let mut readable = ev.readable;
    loop {
        if !flush(conn) {
            return false;
        }
        let waiting = conn.dec.has_frame();
        // A closing connection goes once every reply it owes is out.
        if conn.closing && !waiting && conn.pending_out() == 0 {
            return false;
        }
        let read = readable && !conn.closing;
        if conn.pending_out() > MAX_OUTBUF || !(read || waiting) {
            return true;
        }
        let mut tally = Tally::default();
        let open = respond(conn, inner, rbuf, read, &mut tally);
        // Counted before these replies are written.
        tally.publish(&inner.counters);
        if !open {
            return false;
        }
        readable = false;
    }
}

/// Answers the frames waiting in the decoder and then, if `readable`,
/// reads the socket and answers what arrives, each frame only while `out`
/// holds at most [`MAX_OUTBUF`]: frames past the cap wait in the decoder.
/// EOF marks the connection closing; returns false on a socket error.
fn respond(
    conn: &mut Conn,
    inner: &Inner,
    rbuf: &mut [u8],
    mut readable: bool,
    tally: &mut Tally,
) -> bool {
    loop {
        while conn.pending_out() <= MAX_OUTBUF {
            match conn.dec.next_frame() {
                Ok(Some(body)) => answer(body, inner, &mut conn.out, tally),
                Ok(None) => break,
                Err(e) => return lose_framing(conn, &e, tally),
            }
        }
        if !readable || conn.pending_out() > MAX_OUTBUF {
            return true;
        }
        let n = match conn.stream.read(rbuf) {
            Ok(0) => {
                // The peer is done sending, not necessarily done reading:
                // what it sent is still answered. A torn tail never is.
                conn.closing = true;
                return true;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        // A short read drained the socket: level-triggered epoll reports
        // whatever arrives after it, so the loop need not ask again.
        readable = n == rbuf.len();
        let mut chunk = &rbuf[..n];
        // With no torn frame waiting, frames are answered where they
        // were read.
        if conn.dec.at_boundary() {
            while conn.pending_out() <= MAX_OUTBUF {
                match split_frame(chunk) {
                    Ok(Some((body, rest))) => {
                        answer(body, inner, &mut conn.out, tally);
                        chunk = rest;
                    }
                    Ok(None) => break,
                    Err(e) => return lose_framing(conn, &e, tally),
                }
            }
        }
        // A torn tail, or frames past the cap, wait in the decoder.
        conn.dec.push(chunk);
    }
}

/// An oversized length prefix means the byte stream can no longer be
/// framed: answer it, drop what follows it, and close once that is
/// flushed.
fn lose_framing(conn: &mut Conn, e: &io::Error, tally: &mut Tally) -> bool {
    conn.closing = true;
    conn.dec = FrameDecoder::new();
    refuse_framing(e, &mut conn.out, tally);
    true
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
    recycle(&mut conn.out);
    conn.out_pos = 0;
    true
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use poly_store::{PolyStore, StoreConfig};

    use super::*;
    use crate::proto::{read_frame, write_frame, Request, IDLE_CAPACITY, MAX_FRAME};
    use crate::server::{NetCounters, ServerConfig};

    fn inner(store: PolyStore) -> Inner {
        Inner {
            store: Arc::new(store),
            cfg: ServerConfig::default(),
            sampler: None,
            telemetry: None,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            counters: NetCounters::default(),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// A loopback connection the test services by hand, and its client.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let conn = Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN,
            closing: false,
        };
        (conn, client)
    }

    /// Services `conn` as readable and writable until `done`, checking
    /// `each` after every event.
    fn serve_until(
        conn: &mut Conn,
        inner: &Inner,
        done: impl Fn(&Conn) -> bool,
        each: impl Fn(&Conn),
    ) {
        let mut rbuf = vec![0u8; READ_BUF];
        let ev = Readiness { token: 1, readable: true, writable: true };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done(conn) {
            assert!(service(conn, ev, inner, &mut rbuf), "the connection closed");
            each(conn);
            assert!(Instant::now() < deadline, "the replies never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_reply_cap_holds_between_frames() {
        const VALUE: usize = 1 << 20;
        const GETS: usize = 24;
        // Two values, so the replies' order shows.
        let store = PolyStore::new(StoreConfig { shards: 2, ..Default::default() });
        let values = [vec![0x5A; VALUE], vec![0xA5; VALUE]];
        store.put(0, &values[0]);
        store.put(1, &values[1]);
        let inner = inner(store);
        let (mut conn, mut client) = pair();
        let mut burst = Vec::new();
        for i in 0..GETS {
            write_frame(&mut burst, &Request::GetV(i as u64 % 2).encode()).unwrap();
        }
        client.write_all(&burst).unwrap();
        let reply_frame = 4 + 6 + VALUE;
        let capped = |conn: &Conn| {
            assert!(
                conn.pending_out() <= MAX_OUTBUF + reply_frame,
                "{} bytes of replies buffered",
                conn.pending_out()
            );
        };
        // Nobody reads yet: the loop answers up to the cap and no further.
        let mut rbuf = vec![0u8; READ_BUF];
        let ev = Readiness { token: 1, readable: true, writable: false };
        assert!(service(&mut conn, ev, &inner, &mut rbuf));
        capped(&conn);
        let answered = inner.counters.frames.load(Ordering::Relaxed);
        assert!(answered < GETS as u64, "all {answered} frames answered at once");

        // The client reads, sending nothing more: every reply arrives, in
        // order, and the cap holds all the way.
        client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let reader = std::thread::spawn(move || {
            for i in 0..GETS {
                let body = read_frame(&mut client).unwrap().expect("a reply, not a hangup");
                assert_eq!(body[..6], [0, 1, 0, 0, 16, 0], "reply {i}'s head");
                assert!(body[6..] == values[i % 2], "reply {i} answered the wrong GETV");
            }
        });
        let drained = |conn: &Conn| {
            inner.counters.frames.load(Ordering::Relaxed) == GETS as u64 && conn.pending_out() == 0
        };
        serve_until(&mut conn, &inner, drained, capped);
        reader.join().unwrap();
    }

    #[test]
    fn an_idle_connection_gives_back_its_buffers() {
        // One PUTV of the largest frame, over a value as large: the
        // request fills the decoder, the reply `out`.
        let value = vec![0x11; MAX_FRAME - 13];
        let store = PolyStore::new(StoreConfig { shards: 2, ..Default::default() });
        store.put(7, &value);
        let inner = inner(store);
        let (mut conn, mut client) = pair();
        let put = Request::PutV(7, vec![0x22; MAX_FRAME - 13]).encode();
        assert_eq!(put.len(), MAX_FRAME);
        let writer = std::thread::spawn(move || {
            write_frame(&mut client, &put).unwrap();
            let body = read_frame(&mut client).unwrap().expect("the reply");
            assert!(body[6..] == value[..], "the PUTV returns the value it replaced");
        });
        let answered = |conn: &Conn| {
            inner.counters.frames.load(Ordering::Relaxed) == 1 && conn.pending_out() == 0
        };
        serve_until(&mut conn, &inner, answered, |_| {});
        writer.join().unwrap();
        assert!(conn.dec.capacity() <= IDLE_CAPACITY, "decoder holds {}", conn.dec.capacity());
        assert!(conn.out.capacity() <= IDLE_CAPACITY, "out holds {}", conn.out.capacity());
    }
}

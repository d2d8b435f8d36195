//! One connection's serving code, shared by both server architectures.
//!
//! A [`Conn`] is a socket, the request bytes read but not yet answered,
//! and the replies not yet written. [`Conn::service`] writes what is
//! queued, answers the complete frames waiting, reads the socket at most
//! once, answers what that read brought, and writes again. The epoll loop
//! ([`crate::event_loop`]) calls it over a nonblocking socket when the
//! kernel reports the socket ready. A threads-server worker calls it in a
//! loop over its blocking socket, whose read and write timeouts surface as
//! the same `WouldBlock` a nonblocking socket returns. So framing, the
//! reply cap, EOF, torn and oversized frames are handled once, and the two
//! architectures answer the same request bytes with the same reply bytes:
//! they differ only in how they wait.
//!
//! The caller lends the read buffer: the loop reads every socket through
//! one buffer it owns, a worker through one of its own. Each complete
//! request frame is answered where it was read, through
//! [`crate::server::answer`], into the connection's outbound buffer. A
//! connection keeps only what a read leaves unanswered: a frame torn
//! across reads waits in its [`FrameDecoder`] until the rest arrives, and
//! a partial write resumes on the next pass. A drained decoder or
//! outbound buffer gives back its capacity beyond a small bound.
//!
//! Backpressure works between frames: a frame is answered only while the
//! outbound buffer holds at most [`MAX_OUTBUF`], so a burst of small
//! requests for a large value cannot buffer more than the cap plus one
//! reply. Frames past the cap wait in the decoder, and the socket is not
//! read while they wait. Once a write drains the buffer below the cap,
//! the waiting frames are answered before anything new is read, so a
//! client that has sent everything still gets every reply.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;

use crate::proto::{frame_reply, recycle, split_frame, FrameDecoder, Response};
use crate::server::{answer, Inner, NetCounters};

/// Outbound bytes buffered per connection past which none of its frames
/// are answered, and none read, until a write drains it — a slow reader
/// must not balloon server memory.
const MAX_OUTBUF: usize = 8 << 20;

/// Bytes one `read(2)` asks for: the length of the read buffer lent to
/// [`Conn::service`].
pub(crate) const READ_BUF: usize = 64 << 10;

/// The frame and byte counts of one burst of request frames, summed
/// locally and published to the shared [`NetCounters`] in one go before
/// the burst's replies are written: three atomic adds per burst instead
/// of three per frame, and a client never reads a reply whose frame is
/// not counted yet.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) frames: u64,
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
}

impl Tally {
    fn publish(self, counters: &NetCounters) {
        counters.frames.fetch_add(self.frames, Ordering::Relaxed);
        counters.bytes_in.fetch_add(self.bytes_in, Ordering::Relaxed);
        counters.bytes_out.fetch_add(self.bytes_out, Ordering::Relaxed);
    }
}

/// One connection: its socket, what reads left unanswered, and what
/// replies are still to be written.
pub(crate) struct Conn {
    stream: TcpStream,
    /// What reads left unanswered: a torn frame, or frames past the cap.
    dec: FrameDecoder,
    /// Encoded-but-unsent response frames (length prefixes included).
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    out_pos: usize,
    /// The peer is done sending (EOF), or framing was lost (oversized
    /// prefix): read no more, answer the frames already buffered, and
    /// close once every reply is out.
    closing: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn { stream, dec: FrameDecoder::new(), out: Vec::new(), out_pos: 0, closing: false }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// What the connection waits for, as `(read, write)`: it reads while
    /// it is open and under the cap, and writes while replies are queued.
    pub(crate) fn wants(&self) -> (bool, bool) {
        (!self.closing && self.pending_out() <= MAX_OUTBUF, self.pending_out() > 0)
    }

    /// Services the connection, reading the socket at most once, and only
    /// if `readable`. Returns false when the connection is finished (a
    /// socket error, or a closing connection fully answered and flushed).
    ///
    /// Each pass flushes, then answers. A pass repeats while its flush left
    /// room under the cap for frames that wait, so a connection never sits
    /// with answerable frames and nothing that would wake it, and stops
    /// once the server is stopping: shutdown waits for one pass at most.
    pub(crate) fn service(&mut self, mut readable: bool, inner: &Inner, rbuf: &mut [u8]) -> bool {
        loop {
            if !self.flush() {
                return false;
            }
            let waiting = self.dec.has_frame();
            // A closing connection goes once every reply it owes is out.
            if self.closing && !waiting && self.pending_out() == 0 {
                return false;
            }
            let read = readable && !self.closing;
            if self.pending_out() > MAX_OUTBUF || !(read || waiting) {
                return true;
            }
            let mut tally = Tally::default();
            let open = self.respond(inner, rbuf, read, &mut tally);
            // Counted before these replies are written.
            tally.publish(&inner.counters);
            if !open {
                return false;
            }
            if inner.stop.load(Ordering::SeqCst) {
                return true;
            }
            readable = false;
        }
    }

    /// Answers the frames waiting in the decoder and then, if `read`,
    /// reads the socket once and answers what arrives, each frame only
    /// while `out` holds at most [`MAX_OUTBUF`]: frames past the cap wait
    /// in the decoder. One read per pass lets a blocking worker write its
    /// replies before it reads again; level-triggered epoll reports what a
    /// full read left in the socket. EOF marks the connection closing;
    /// returns false on a socket error.
    fn respond(&mut self, inner: &Inner, rbuf: &mut [u8], read: bool, tally: &mut Tally) -> bool {
        while self.pending_out() <= MAX_OUTBUF {
            match self.dec.next_frame() {
                Ok(Some(body)) => answer(body, inner, &mut self.out, tally),
                Ok(None) => break,
                Err(e) => return self.lose_framing(&e, tally),
            }
        }
        if !read || self.pending_out() > MAX_OUTBUF {
            return true;
        }
        let n = loop {
            match self.stream.read(rbuf) {
                Ok(0) => {
                    // The peer is done sending, not necessarily done
                    // reading: what it sent is still answered. A torn tail
                    // never is.
                    self.closing = true;
                    return true;
                }
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        };
        let mut chunk = &rbuf[..n];
        // With no torn frame waiting, frames are answered where they were
        // read.
        if self.dec.at_boundary() {
            while self.pending_out() <= MAX_OUTBUF {
                match split_frame(chunk) {
                    Ok(Some((body, rest))) => {
                        answer(body, inner, &mut self.out, tally);
                        chunk = rest;
                    }
                    Ok(None) => break,
                    Err(e) => return self.lose_framing(&e, tally),
                }
            }
        }
        // A torn tail, or frames past the cap, wait in the decoder.
        self.dec.push(chunk);
        true
    }

    /// An oversized length prefix means the byte stream can no longer be
    /// framed: answer it, drop what follows it, and close once that is
    /// flushed.
    fn lose_framing(&mut self, e: &io::Error, tally: &mut Tally) -> bool {
        self.closing = true;
        self.dec = FrameDecoder::new();
        let len = frame_reply(&mut self.out, |out| Response::Error(e.to_string()).encode_into(out));
        tally.bytes_out += len as u64;
        true
    }

    /// Pushes queued bytes at the socket until done or `WouldBlock`.
    /// Returns false on a socket error.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        recycle(&mut self.out);
        self.out_pos = 0;
        true
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
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

    /// A nonblocking loopback connection the test services by hand, and
    /// its client.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (Conn::new(stream), client)
    }

    /// Services `conn` as readable until `done`, checking `each` after
    /// every pass.
    fn serve_until(
        conn: &mut Conn,
        inner: &Inner,
        done: impl Fn(&Conn) -> bool,
        each: impl Fn(&Conn),
    ) {
        let mut rbuf = vec![0u8; READ_BUF];
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done(conn) {
            assert!(conn.service(true, inner, &mut rbuf), "the connection closed");
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
        // Nobody reads yet: the connection answers up to the cap and no
        // further.
        let mut rbuf = vec![0u8; READ_BUF];
        assert!(conn.service(true, &inner, &mut rbuf));
        capped(&conn);
        let answered = inner.counters.frames.load(Ordering::Relaxed);
        assert!(answered < GETS as u64, "all {answered} frames answered at once");

        // The client reads, sending nothing more: every reply arrives, in
        // order, and the cap holds all the way. The reader hands its socket
        // back rather than close it, so the connection cannot see EOF and
        // finish before the last pass.
        client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let reader = std::thread::spawn(move || {
            for i in 0..GETS {
                let body = read_frame(&mut client).unwrap().expect("a reply, not a hangup");
                assert_eq!(body[..6], [0, 1, 0, 0, 16, 0], "reply {i}'s head");
                assert!(body[6..] == values[i % 2], "reply {i} answered the wrong GETV");
            }
            client
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
        // The writer hands its socket back, as the reader above does.
        let writer = std::thread::spawn(move || {
            write_frame(&mut client, &put).unwrap();
            let body = read_frame(&mut client).unwrap().expect("the reply");
            assert!(body[6..] == value[..], "the PUTV returns the value it replaced");
            client
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

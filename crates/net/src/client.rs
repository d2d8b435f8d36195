//! The connection-pooled client and the network side of the open-loop
//! driver.
//!
//! A [`NetClient`] owns a pool of TCP connections to one server. It
//! implements [`poly_store::KvService`], so `poly_store::run_load_on`
//! drives it exactly like the in-process store: same pacing, same
//! staggered schedules, same latency accounting — the transport is the
//! only variable. Stats come back over the wire (`STATS` frames), so the
//! report's lock wait/hold and modeled energy reflect the *server's*
//! shard locks.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use poly_locks_sim::LockKind;
use poly_meter::MeasuredReading;
use poly_store::{
    KvConnection, KvService, PipeOp, Reply, StatsSnapshot, Submitted, Ticket, WriteBatch,
};

use crate::proto::{read_frame, read_value_reply, RequestRef, Response, WireStats};
use crate::spin::SpinRead;

/// One framed TCP connection to a [`crate::NetServer`].
///
/// Request frames are written straight into a buffered writer (a PUTV's
/// value is not copied first), and the value of a point reply is read
/// straight into the `Vec` handed back. A read that waits for a reply
/// polls the socket for up to 50 µs before it blocks, when the previous
/// wait was that short: a loopback reply then arrives without the thread
/// being put to sleep and woken.
pub struct NetConn {
    reader: BufReader<SpinRead>,
    writer: BufWriter<TcpStream>,
}

impl NetConn {
    /// Dials the server.
    pub fn dial(addr: SocketAddr) -> io::Result<NetConn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(SpinRead::new(stream.try_clone()?));
        Ok(NetConn { reader, writer: BufWriter::new(stream) })
    }

    fn exchange(&mut self, req: &RequestRef<'_>) -> io::Result<Response> {
        req.write_frame(&mut self.writer)?;
        self.writer.flush()?;
        let body = read_frame(&mut self.reader)?.ok_or_else(server_closed)?;
        Response::decode_for(&body, req)
    }

    /// Reads the next reply to a point request, its value straight off
    /// the socket into the `Vec` returned.
    fn recv_value(&mut self) -> io::Result<Response> {
        read_value_reply(&mut self.reader)?.ok_or_else(server_closed)
    }

    /// Sends one point request and waits for its value.
    fn value_request(&mut self, req: RequestRef<'_>) -> io::Result<Option<Vec<u8>>> {
        req.write_frame(&mut self.writer)?;
        self.writer.flush()?;
        match self.recv_value()? {
            Response::ValueV(v) => Ok(v),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Point lookup of the full byte value.
    pub fn get_bytes(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        self.value_request(RequestRef::GetV(key))
    }

    /// Point insert/update of a byte value; returns the previous value.
    pub fn put_bytes(&mut self, key: u64, value: &[u8]) -> io::Result<Option<Vec<u8>>> {
        self.value_request(RequestRef::PutV(key, value))
    }

    /// Point deletion returning the full byte value.
    pub fn remove_bytes(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        self.value_request(RequestRef::RemoveV(key))
    }

    /// Server-side scan; returns `(entries, epoch)`.
    pub fn scan(&mut self) -> io::Result<(u64, u64)> {
        let req = RequestRef::Scan;
        match self.exchange(&req)? {
            Response::Scan { count, epoch } => Ok((count, epoch)),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Ships a write batch; returns the number of writes applied.
    pub fn apply(&mut self, batch: &WriteBatch) -> io::Result<u32> {
        let req = RequestRef::batch(batch.ops());
        match self.exchange(&req)? {
            Response::Batch { applied } => Ok(applied),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Fetches the server's identity, merged shard stats, measured
    /// energy, and latest telemetry and heat windows in one `STATS`
    /// exchange.
    pub fn stats(&mut self) -> io::Result<WireStats> {
        let req = RequestRef::Stats;
        match self.exchange(&req)? {
            Response::Stats(ws) => Ok(*ws),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Fetches the server's journal events with `seq >= since_seq` still
    /// in its bounded ring, oldest first.
    pub fn events(&mut self, since_seq: u64) -> io::Result<Vec<poly_obs::Event>> {
        let req = RequestRef::Events { since_seq };
        match self.exchange(&req)? {
            Response::Events(events) => Ok(events),
            other => Err(unexpected(&req, &other)),
        }
    }
}

fn server_closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")
}

/// The error for a reply that is not the one `req` asked for: an error
/// reply, or one of another kind.
fn unexpected(req: &impl std::fmt::Debug, resp: &Response) -> io::Error {
    let msg = match resp {
        Response::Error(e) => format!("server error for {req:?}: {e}"),
        other => format!("mismatched response for {req:?}: {other:?}"),
    };
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A pooled client to one server: hand out sessions with
/// [`NetClient::session`], and they return to the pool on drop.
///
/// [`NetClient::with_pipeline`] turns sessions pipelined: each session
/// then owns a *fan* of connections and keeps up to *depth × fan*
/// requests in flight through the [`KvConnection::submit`]/`drain`
/// surface. The default (`fan = 1`, `depth = 1`) is a strict
/// request/response client.
pub struct NetClient {
    addr: SocketAddr,
    pool: Mutex<Vec<NetConn>>,
    lock: LockKind,
    shards: u32,
    fan: usize,
    depth: usize,
}

impl NetClient {
    /// Connects to the server and learns its identity (lock backend and
    /// shard count) via a `STATS` exchange; the probing connection seeds
    /// the pool.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<NetClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let mut conn = NetConn::dial(addr)?;
        let ws = conn.stats()?;
        Ok(NetClient {
            addr,
            pool: Mutex::new(vec![conn]),
            lock: ws.lock,
            shards: ws.shards,
            fan: 1,
            depth: 1,
        })
    }

    /// Makes every session pipelined: `fan` connections per session,
    /// submissions round-robined across them, and an advertised pipeline
    /// depth of `depth` per connection. A c10k-style run is a few driver
    /// threads × a large fan — thousands of live sockets without
    /// thousands of client threads.
    pub fn with_pipeline(mut self, fan: usize, depth: usize) -> NetClient {
        self.fan = fan.max(1);
        self.depth = depth.max(1);
        self
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's shard count (learned at connect).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of idle pooled connections.
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap().len()
    }

    /// Checks the session's fan of connections out of the pool, dialing
    /// fresh ones when the pool runs dry. The session returns its
    /// connections on drop.
    pub fn session(&self) -> io::Result<PooledConn<'_>> {
        let mut conns = Vec::with_capacity(self.fan);
        {
            let mut pool = self.pool.lock().unwrap();
            while conns.len() < self.fan {
                match pool.pop() {
                    Some(conn) => conns.push(conn),
                    None => break,
                }
            }
        }
        while conns.len() < self.fan {
            conns.push(NetConn::dial(self.addr)?);
        }
        Ok(PooledConn {
            conns,
            pending: VecDeque::new(),
            ready: Vec::new(),
            next_conn: 0,
            next_ticket: 0,
            client: self,
        })
    }
}

/// A session checked out of a [`NetClient`]: one connection by default,
/// a fan of them in pipelined mode. Implements the driver's
/// [`KvConnection`], panicking on I/O errors (the open-loop driver has
/// no error channel — a dead server invalidates the run). Use the
/// inherent [`NetConn`] methods via [`PooledConn::conn_mut`] for
/// fallible access.
pub struct PooledConn<'c> {
    conns: Vec<NetConn>,
    /// Unanswered pipelined submissions, in FIFO order: which connection
    /// carries each one, and its ticket. Every one is a point request, so
    /// every reply is read as one.
    pending: VecDeque<(usize, Ticket)>,
    /// Replies collected by an internal sync (a blocking call arriving
    /// while submissions were in flight); handed out by the next drain.
    ready: Vec<Reply>,
    next_conn: usize,
    next_ticket: u64,
    client: &'c NetClient,
}

impl PooledConn<'_> {
    /// The first underlying connection, for fallible (Result-returning)
    /// use.
    pub fn conn_mut(&mut self) -> &mut NetConn {
        &mut self.conns[0]
    }

    /// Flushes every connection, then collects the pending replies in
    /// submission order (valid because the server answers each connection
    /// FIFO). Flushing a connection with nothing queued costs no syscall.
    fn try_collect(&mut self) -> io::Result<Vec<Reply>> {
        for conn in &mut self.conns {
            conn.writer.flush()?;
        }
        let mut replies = Vec::with_capacity(self.pending.len());
        while let Some((idx, ticket)) = self.pending.pop_front() {
            let value = match self.conns[idx].recv_value()? {
                Response::ValueV(v) => v,
                other => return Err(unexpected(&ticket, &other)),
            };
            replies.push(Reply { ticket, value });
        }
        Ok(replies)
    }

    /// Lands every in-flight submission, stashing the replies for the
    /// next `drain`. Blocking calls go through this first so they never
    /// read a pipelined response as their own.
    fn sync(&mut self) {
        if !self.pending.is_empty() {
            let replies = self.try_collect().expect("net pipeline drain");
            self.ready.extend(replies);
        }
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        // A session dropped with submissions still in flight settles them
        // first (best effort); connections go back to the pool only if
        // the protocol state is clean.
        if !self.pending.is_empty() && self.try_collect().is_err() {
            return; // framing state unknown: the conns must not be reused
        }
        let mut pool = self.client.pool.lock().unwrap();
        pool.extend(self.conns.drain(..));
    }
}

impl KvConnection for PooledConn<'_> {
    fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.sync();
        self.conn_mut().get_bytes(key).expect("net get")
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Option<Vec<u8>> {
        self.sync();
        self.conn_mut().put_bytes(key, value).expect("net put")
    }

    fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        self.sync();
        self.conn_mut().remove_bytes(key).expect("net remove")
    }

    fn scan_count(&mut self) -> u64 {
        self.sync();
        self.conn_mut().scan().expect("net scan").0
    }

    fn apply(&mut self, batch: &WriteBatch) {
        self.sync();
        self.conn_mut().apply(batch).expect("net batch");
    }

    fn submit(&mut self, op: PipeOp) -> Submitted {
        let req = match &op {
            PipeOp::Get(k) => RequestRef::GetV(*k),
            PipeOp::Put(k, v) => RequestRef::PutV(*k, v),
            PipeOp::Remove(k) => RequestRef::RemoveV(*k),
        };
        let idx = self.next_conn;
        self.next_conn = (self.next_conn + 1) % self.conns.len();
        req.write_frame(&mut self.conns[idx].writer).expect("net pipeline send");
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push_back((idx, ticket));
        Submitted::Queued(ticket)
    }

    fn drain(&mut self) -> Vec<Reply> {
        let mut replies = std::mem::take(&mut self.ready);
        if !self.pending.is_empty() {
            replies.extend(self.try_collect().expect("net pipeline drain"));
        }
        replies
    }
}

impl KvService for NetClient {
    type Conn<'s> = PooledConn<'s>;

    fn connect(&self) -> PooledConn<'_> {
        self.session().expect("dialing the server")
    }

    fn lock_kind(&self) -> LockKind {
        self.lock
    }

    fn stats_and_energy(&self) -> (StatsSnapshot, Option<MeasuredReading>) {
        // One STATS frame carries the server's stats and the *server's*
        // cumulative measured energy: a TCP sweep charges joules to the
        // serving process, not to this client.
        let mut session = self.session().expect("dialing the server");
        let ws = session.conn_mut().stats().expect("net stats");
        (ws.stats, ws.measured)
    }

    fn extra_threads_per_client(&self) -> usize {
        // The server runs one worker thread per client connection; the
        // serving path's power is part of the service's cost.
        1
    }
}

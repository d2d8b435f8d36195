//! The TCP front-end: two interchangeable server architectures behind
//! one surface.
//!
//! [`Arch::Threads`] is a blocking accept loop, one worker thread per
//! connection, capped at [`ServerConfig::max_conns`]. [`Arch::Epoll`] is
//! a single readiness loop over nonblocking sockets (see
//! [`crate::event_loop`]) that scales to thousands of connections. Both
//! serve every connection through one [`Conn`], which frames, answers
//! ([`answer`]), caps and writes, so they answer the same request bytes
//! with the same reply bytes by construction. They also share counters,
//! graceful shutdown and the wire protocol, and differ only in how they
//! wait: a thread blocked in `read` per connection, or one loop in
//! `epoll_wait`.
//!
//! Construction goes through [`NetServer::builder`].

use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use poly_meter::RaplSampler;
use poly_store::{PolyStore, WriteBatch};
use poly_trace::WindowLog;

use crate::conn::{Conn, Tally, READ_BUF};
use crate::proto::{encode_value, frame_reply, write_frame, RequestRef, Response, WireStats};

/// Server architecture: how connections map onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Blocking accept loop, one worker thread per connection. The
    /// worker blocks in `read` on its socket and serves it with the same
    /// per-connection code as the epoll loop: one read buffer, every
    /// frame a read brings answered, one write of their replies.
    /// Concurrency is capped by [`ServerConfig::max_conns`].
    Threads,
    /// One event-loop thread multiplexing every connection over
    /// `epoll(7)` readiness and reading them all through one buffer, so
    /// an idle connection holds neither a thread nor a read buffer.
    /// Sustains thousands of connections.
    Epoll,
}

impl Arch {
    /// Every architecture, in sweep order.
    pub const ALL: [Arch; 2] = [Arch::Threads, Arch::Epoll];

    /// The label used in CLI flags and report columns.
    pub fn label(self) -> &'static str {
        match self {
            Arch::Threads => "threads",
            Arch::Epoll => "epoll",
        }
    }

    /// Parses a CLI label (case-insensitive).
    pub fn parse(s: &str) -> Option<Arch> {
        Arch::ALL.into_iter().find(|a| a.label().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tuning knobs of a [`NetServer`]: its connection cap. The default is
/// 16 connections per CPU for both architectures.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum concurrent connections; connections beyond it are refused
    /// at accept with an error frame. Under [`Arch::Threads`] each
    /// connection owns one worker thread, so this also caps the serving
    /// thread pool; under [`Arch::Epoll`] it caps the sockets one loop
    /// holds, and raised, leaves the fd limit as the loop's only bound.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // Thread-per-connection scaled to the host: a single-CPU box gets
        // a handful of workers, a 40-context Xeon gets hundreds.
        let par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { max_conns: par * 16 }
    }
}

/// How often an idle serving thread wakes to check for shutdown: the read
/// and write timeouts of each [`Arch::Threads`] worker, and the longest
/// blocking `epoll_wait` of the [`Arch::Epoll`] loop. It bounds the loop's
/// sleep, not the spin before it: the loop polls for at most 50 µs first,
/// and only after a wait that ended within those 50 µs.
pub(crate) const STOP_POLL: Duration = Duration::from_millis(25);

/// Aggregate serving-path counters (all connections merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Highest number of simultaneously live connections observed.
    pub peak_conns: u64,
    /// Connections refused because `max_conns` were already live (each
    /// one was answered with an error frame before the close).
    pub refused: u64,
    /// Request frames served.
    pub frames: u64,
    /// Request bytes read (bodies, excluding length prefixes).
    pub bytes_in: u64,
    /// Response bytes written (bodies, excluding length prefixes).
    pub bytes_out: u64,
}

#[derive(Default)]
pub(crate) struct NetCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) peak_conns: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            peak_conns: self.peak_conns.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

pub(crate) struct Inner {
    pub(crate) store: Arc<PolyStore>,
    pub(crate) cfg: ServerConfig,
    /// Server-side RAPL sampler: when present, STATS replies carry the
    /// serving process's cumulative measured energy.
    pub(crate) sampler: Option<Arc<RaplSampler>>,
    /// Window log written by a collector (e.g.
    /// `poly_trace::StoreCollector`): when present, STATS replies carry
    /// its latest tick's window and heat.
    pub(crate) telemetry: Option<Arc<WindowLog>>,
    pub(crate) stop: AtomicBool,
    pub(crate) live: AtomicUsize,
    pub(crate) counters: NetCounters,
    pub(crate) workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    /// Registers a newly accepted connection against the live count and
    /// the peak-concurrency high-water mark.
    pub(crate) fn connection_opened(&self) {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        self.counters.peak_conns.fetch_max(now as u64, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// True when another connection would exceed `max_conns`.
    pub(crate) fn at_capacity(&self) -> bool {
        self.live.load(Ordering::SeqCst) >= self.cfg.max_conns
    }

    /// Refuses `stream` with a protocol-level error frame (best effort,
    /// bounded by a short write timeout so a dead peer cannot stall the
    /// acceptor), then counts the refusal: a silent close would be
    /// indistinguishable from a crash on the client side.
    pub(crate) fn refuse(&self, stream: TcpStream) {
        self.counters.refused.fetch_add(1, Ordering::Relaxed);
        poly_obs::journal().emit(
            poly_obs::Level::Warn,
            "conn_refused",
            &[("max_conns", self.cfg.max_conns.to_string())],
        );
        stream.set_write_timeout(Some(Duration::from_millis(200))).ok();
        let msg =
            Response::Error(format!("server at capacity ({} connections)", self.cfg.max_conns));
        let mut w = BufWriter::new(stream);
        let _ = write_frame(&mut w, &msg.encode());
        let _ = w.flush();
    }
}

/// Configures and starts a [`NetServer`]; made by [`NetServer::builder`].
///
/// ```no_run
/// # use std::sync::Arc;
/// # use poly_net::{Arch, NetServer};
/// # use poly_store::{PolyStore, StoreConfig};
/// let store = Arc::new(PolyStore::new(StoreConfig::default()));
/// let server = NetServer::builder("127.0.0.1:0")
///     .architecture(Arch::Epoll)
///     .serve(store)
///     .unwrap();
/// # drop(server);
/// ```
#[must_use = "a builder does nothing until serve() is called"]
pub struct ServerBuilder<A: ToSocketAddrs> {
    addr: A,
    cfg: ServerConfig,
    arch: Arch,
    sampler: Option<Arc<RaplSampler>>,
    telemetry: Option<Arc<WindowLog>>,
}

impl<A: ToSocketAddrs> ServerBuilder<A> {
    /// Replaces the whole tuning block.
    pub fn config(mut self, cfg: ServerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Chooses the server architecture (default [`Arch::Threads`]).
    pub fn architecture(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// Attaches a server-side RAPL sampler: STATS replies then carry the
    /// serving process's cumulative measured energy, so remote drivers
    /// charge joules to the server, not to themselves. `None` is
    /// accepted so callers can thread an optional sampler straight
    /// through.
    pub fn metered(mut self, sampler: Option<Arc<RaplSampler>>) -> Self {
        self.sampler = sampler;
        self
    }

    /// Fills the `STATS` window and heat window from a collector's log
    /// (e.g. `poly_trace::StoreCollector::log`): each reply takes both
    /// from the log's newest tick. The caller owns the collector and
    /// stops it.
    pub fn telemetry(mut self, log: Arc<WindowLog>) -> Self {
        self.telemetry = Some(log);
        self
    }

    /// Binds the address (use port 0 for an OS-assigned loopback port)
    /// and starts serving `store` on the configured architecture. The
    /// accept queue is the longest the kernel allows, so a burst of
    /// thousands of connects does not overflow it.
    pub fn serve(self, store: Arc<PolyStore>) -> io::Result<NetServer> {
        let listener = TcpListener::bind(self.addr)?;
        crate::epoll::listen_at_max(&listener)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            store,
            cfg: self.cfg,
            sampler: self.sampler,
            telemetry: self.telemetry,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            counters: NetCounters::default(),
            workers: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            let builder = std::thread::Builder::new().name("poly-net-accept".into());
            match self.arch {
                Arch::Threads => builder.spawn(move || accept_loop(&listener, &inner))?,
                Arch::Epoll => builder.spawn(move || crate::event_loop::run(listener, &inner))?,
            }
        };
        Ok(NetServer { local_addr, arch: self.arch, inner, accept: Some(accept) })
    }
}

/// A running TCP front-end over one [`PolyStore`].
///
/// [`NetServer::builder`] configures and starts it; the architecture
/// ([`Arch`]) decides whether connections get dedicated worker threads
/// or share one readiness loop. Dropping the server — or calling
/// [`NetServer::shutdown`] — stops accepting, wakes every serving
/// thread, and joins them all, so no request is torn mid-response.
pub struct NetServer {
    local_addr: SocketAddr,
    arch: Arch,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Starts configuring a server on `addr`.
    pub fn builder<A: ToSocketAddrs>(addr: A) -> ServerBuilder<A> {
        ServerBuilder {
            addr,
            cfg: ServerConfig::default(),
            arch: Arch::Threads,
            sampler: None,
            telemetry: None,
        }
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The architecture this server is running.
    pub fn architecture(&self) -> Arch {
        self.arch
    }

    /// The store being served.
    pub fn store(&self) -> &Arc<PolyStore> {
        &self.inner.store
    }

    /// Aggregate serving-path counters (all connections merged).
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.inner.counters.snapshot()
    }

    /// Registers the serving-path counters with a metric registry, each
    /// series labeled with this server's architecture
    /// (`{server="threads"}` / `{server="epoll"}`). The collectors read
    /// the same atomics [`NetServer::net_stats`] snapshots, so a scrape
    /// at quiesce telescopes exactly to the snapshot.
    pub fn register_metrics(&self, reg: &poly_obs::MetricRegistry) {
        let arch = self.arch.label();
        let counter = |name, help, read: fn(&NetCounters) -> &AtomicU64| {
            let inner = Arc::clone(&self.inner);
            reg.register_counter(name, help, &[("server", arch)], move || {
                read(&inner.counters).load(Ordering::Relaxed)
            });
        };
        counter("net_connections_total", "Connections accepted.", |c| &c.connections);
        counter("net_refused_total", "Connections refused at capacity.", |c| &c.refused);
        counter("net_frames_total", "Request frames served.", |c| &c.frames);
        counter("net_bytes_in_total", "Request body bytes read.", |c| &c.bytes_in);
        counter("net_bytes_out_total", "Response body bytes written.", |c| &c.bytes_out);
        let inner = Arc::clone(&self.inner);
        reg.register_gauge_u64(
            "net_peak_conns",
            "Highest simultaneous connection count observed.",
            &[("server", arch)],
            move || inner.counters.peak_conns.load(Ordering::Relaxed),
        );
    }

    /// Stops accepting, wakes idle workers, and joins every serving
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in accept(); a throwaway connection to
        // ourselves unblocks it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.inner.workers.lock().unwrap());
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if inner.stop.load(Ordering::SeqCst) => return,
            Err(_) => {
                // Persistent accept errors (EMFILE when the fd budget is
                // exhausted, say) must not busy-spin the accept thread.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        if inner.at_capacity() {
            inner.refuse(stream);
            continue;
        }
        inner.connection_opened();
        let conn_inner = Arc::clone(inner);
        let worker = std::thread::Builder::new().name("poly-net-conn".into()).spawn(move || {
            serve_connection(stream, &conn_inner);
            conn_inner.connection_closed();
        });
        match worker {
            Ok(handle) => {
                let mut workers = inner.workers.lock().unwrap();
                // Drop handles of workers that already finished so a
                // long-lived server doesn't accumulate one per past
                // connection.
                workers.retain(|h| !h.is_finished());
                workers.push(handle);
            }
            Err(_) => {
                inner.connection_closed();
            }
        }
    }
}

/// Serves one connection on its worker thread, through the same [`Conn`]
/// the epoll loop services, until the peer is done or the server stops.
/// The socket's timeouts are the stop flag's polling cadence: a read that
/// times out, or a write to a client that stopped reading, returns as the
/// `WouldBlock` a nonblocking socket would, and `service` returns between
/// passes once the flag is set, so shutdown reaches a busy or a stalled
/// connection too.
fn serve_connection(stream: TcpStream, inner: &Inner) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(STOP_POLL)).is_err()
        || stream.set_write_timeout(Some(STOP_POLL)).is_err()
    {
        return;
    }
    let mut conn = Conn::new(stream);
    let mut rbuf = vec![0u8; READ_BUF];
    while !inner.stop.load(Ordering::SeqCst) {
        if !conn.service(true, inner, &mut rbuf) {
            return;
        }
    }
}

/// Answers one request frame into `out`: counts the frame and its bytes
/// in `tally`, decodes the body in place, runs it, and frames the reply in
/// place with [`frame_reply`]. A malformed body is answered with an error
/// in the request's FIFO slot (protocol rule 2).
pub(crate) fn answer(body: &[u8], inner: &Inner, out: &mut Vec<u8>, tally: &mut Tally) {
    tally.frames += 1;
    tally.bytes_in += body.len() as u64;
    let len = frame_reply(out, |out| match RequestRef::decode(body) {
        Ok(req) => execute(req, inner, out),
        Err(e) => Response::Error(e.to_string()).encode_into(out),
    });
    tally.bytes_out += len as u64;
}

/// Runs one request and appends its reply body to `out`. A point op's
/// value goes from the store's slab straight into `out`, under the shard
/// lock.
fn execute(req: RequestRef<'_>, inner: &Inner, out: &mut Vec<u8>) {
    let store = &inner.store;
    let response = match req {
        RequestRef::GetV(k) => return encode_value(out, |out| store.get_into(k, out)),
        RequestRef::PutV(k, v) => return encode_value(out, |out| store.put_into(k, v, out)),
        RequestRef::RemoveV(k) => return encode_value(out, |out| store.remove_into(k, out)),
        RequestRef::Scan => {
            let mut count = 0u64;
            let epoch = store.scan(|_, _| count += 1);
            Response::Scan { count, epoch }
        }
        RequestRef::BatchV(ops) => {
            let mut batch = WriteBatch::with_capacity(ops.len());
            for (key, val) in ops {
                match val {
                    Some(v) => batch.put(key, v),
                    None => batch.remove(key),
                }
            }
            store.apply(&batch);
            Response::Batch { applied: batch.len() as u32 }
        }
        RequestRef::Stats => Response::Stats(Box::new(wire_stats(inner))),
        RequestRef::Events { since_seq } => {
            Response::Events(poly_obs::journal().tail(since_seq, EVENTS_PER_REPLY))
        }
    };
    response.encode_into(out);
}

/// Cap on events per `EVENTS` reply: bounds the frame size and keeps a
/// tailing client incremental (it passes the last seen `seq + 1` back).
const EVENTS_PER_REPLY: usize = 256;

fn wire_stats(inner: &Inner) -> WireStats {
    // One tick supplies both windows, so they always share an index.
    let tick = inner.telemetry.as_ref().and_then(|log| log.latest());
    WireStats {
        lock: inner.store.lock_kind(),
        shards: inner.store.shard_count() as u32,
        stats: inner.store.total_stats(),
        measured: inner.sampler.as_ref().map(|s| s.reading()),
        window: tick.as_ref().map(|t| t.window),
        heat: tick.map(|t| t.heat),
    }
}

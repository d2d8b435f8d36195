//! The TCP front-end: two interchangeable server architectures behind
//! one surface.
//!
//! [`Arch::Threads`] is a blocking accept loop, one worker thread per
//! connection, capped at [`ServerConfig::max_conns`]. [`Arch::Epoll`] is
//! a single readiness loop over nonblocking sockets (see
//! [`crate::event_loop`]) that scales to thousands of connections and
//! drains pipelined bursts. Both answer every request frame through one
//! function ([`answer`]) and share counters, graceful shutdown and the
//! wire protocol; a client cannot tell them apart except by load
//! behaviour.
//!
//! Construction goes through [`NetServer::builder`].

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use poly_meter::RaplSampler;
use poly_store::{PolyStore, WriteBatch};
use poly_trace::WindowLog;

use crate::proto::{read_frame, write_frame, Request, Response, WireStats, MAX_FRAME};

/// Server architecture: how connections map onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Blocking accept loop, one worker thread per connection. Low
    /// per-request latency at small connection counts; concurrency is
    /// capped by [`ServerConfig::max_conns`].
    Threads,
    /// One event-loop thread multiplexing every connection over
    /// `epoll(7)` readiness, with per-connection buffers and incremental
    /// frame decoding. Sustains thousands of connections and drains a
    /// pipelined burst in one readiness pass.
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

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum concurrent connections; connections beyond it are closed
    /// at accept. Each connection owns one worker thread, so this caps
    /// the serving thread pool.
    pub max_conns: usize,
    /// Per-connection read timeout: how often an idle worker wakes to
    /// check for shutdown. Smaller = faster shutdown, more idle wakeups.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        // Thread-per-connection scaled to the host: a single-CPU box gets
        // a handful of workers, a 40-context Xeon gets hundreds.
        let par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { max_conns: par * 16, read_timeout: Duration::from_millis(25) }
    }
}

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
    /// and starts serving `store` on the configured architecture.
    pub fn serve(self, store: Arc<PolyStore>) -> io::Result<NetServer> {
        let listener = TcpListener::bind(self.addr)?;
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
            let _ = serve_connection(stream, &conn_inner);
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

/// A [`Read`] adapter over the connection's stream that absorbs read
/// timeouts *below* `read_exact`, so a frame arriving in slow pieces is
/// never torn: a `WouldBlock`/`TimedOut` from the socket retries in place
/// (no consumed byte is ever dropped), checking the server's stop flag on
/// each wakeup. Once the flag is set the next blocked read fails with
/// [`io::ErrorKind::ConnectionAborted`] (not `Interrupted`, which
/// `read_exact` would transparently retry).
struct PatientStream<'a> {
    stream: TcpStream,
    stop: &'a AtomicBool,
}

impl io::Read for PatientStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match io::Read::read(&mut self.stream, buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                }
                r => return r,
            }
        }
    }
}

fn serve_connection(stream: TcpStream, inner: &Inner) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // The timeout is the stop-flag polling cadence of PatientStream, not
    // a frame deadline: timeouts never surface past it.
    stream.set_read_timeout(Some(inner.cfg.read_timeout))?;
    let mut reader =
        BufReader::new(PatientStream { stream: stream.try_clone()?, stop: &inner.stop });
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(()), // client hung up cleanly
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => return Ok(()), // shutdown
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // An oversized length prefix: framing is lost, so answer,
                // then close.
                reply(&Response::Error(e.to_string()), inner, &mut writer)?;
                return writer.flush();
            }
            Err(e) => return Err(e), // torn frame or dead socket
        };
        answer(&body, inner, &mut writer)?;
        writer.flush()?;
        // Re-check between requests too: a client with back-to-back
        // frames in flight never blocks in read, so this is the only
        // point where shutdown can interpose on a busy connection.
        if inner.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Answers one request frame into `sink`, the one path both
/// architectures serve through: counts the frame and its bytes, decodes
/// it, runs it, and frames the reply with [`reply`]. A malformed body is
/// answered with an error in the request's FIFO slot (protocol rule 2).
pub(crate) fn answer<W: Write>(body: &[u8], inner: &Inner, sink: &mut W) -> io::Result<()> {
    inner.counters.frames.fetch_add(1, Ordering::Relaxed);
    inner.counters.bytes_in.fetch_add(body.len() as u64, Ordering::Relaxed);
    let response = match Request::decode(body) {
        Ok(req) => execute(req, inner),
        Err(e) => Response::Error(e.to_string()),
    };
    reply(&response, inner, sink)
}

/// Frames `response` into `sink` and counts its bytes. A reply too large
/// to frame goes out as an error that names [`MAX_FRAME`], in its place.
/// Fails only when the sink does.
pub(crate) fn reply<W: Write>(response: &Response, inner: &Inner, sink: &mut W) -> io::Result<()> {
    let mut out = response.encode();
    if out.len() > MAX_FRAME {
        let msg = format!("reply of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", out.len());
        out = Response::Error(msg).encode();
    }
    inner.counters.bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
    write_frame(sink, &out)
}

fn execute(req: Request, inner: &Inner) -> Response {
    let store = &inner.store;
    match req {
        Request::GetV(k) => Response::ValueV(store.get(k)),
        Request::PutV(k, v) => Response::ValueV(store.put(k, &v)),
        Request::RemoveV(k) => Response::ValueV(store.remove(k)),
        Request::Scan => {
            let mut count = 0u64;
            let epoch = store.scan(|_, _| count += 1);
            Response::Scan { count, epoch }
        }
        Request::BatchV(ops) => {
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
        Request::Stats => Response::Stats(Box::new(wire_stats(inner))),
        Request::Events { since_seq } => {
            Response::Events(poly_obs::journal().tail(since_seq, EVENTS_PER_REPLY))
        }
    }
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

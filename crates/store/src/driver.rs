//! The multithreaded open-loop load driver.
//!
//! Each client thread issues operations sampled from a [`KvMix`] against a
//! [`KvService`] — the in-process [`PolyStore`] or any other backend (the
//! `poly-net` TCP client implements the same trait, so every kv scenario
//! runs unchanged over the network). With a target rate, arrivals follow a
//! fixed schedule and latency is measured **from the scheduled arrival
//! time**, so queueing delay shows up in the tail (the open-loop property
//! a closed-loop benchmark hides); without one, clients run back-to-back
//! at saturation. Results fold the service's per-shard stats and the
//! modeled Xeon energy into one [`LoadReport`]; a metered service (see
//! [`crate::Metered`] and [`KvService::stats_and_energy`]) additionally
//! contributes measured RAPL joules over the same interval.

use std::time::{Duration, Instant};

use poly_locks_sim::LockKind;
use poly_meter::{EnergySource, MeasuredEnergy, MeasuredReading};

use crate::energy::EnergyEstimate;
use crate::stats::{HistogramSnapshot, LatencyHistogram, StatsSnapshot};
use crate::store::PolyStore;
use crate::workload::{KeySampler, KvMix, KvOp, Rng64};
use crate::WriteBatch;

/// The driver's deterministic value synthesis: the bytes written for
/// `key` at length `len`. The first 8 bytes are the key's little-endian
/// encoding (so an 8-byte value reads back as the key through the `u64`
/// view, [`PolyStore::get_u64`]), further bytes continue a SplitMix-style
/// stream, so any slice is checkable from `(key, len)` alone.
pub fn value_bytes(key: u64, len: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(len as usize);
    fill_value_bytes(&mut v, key, len);
    v
}

/// Overwrites `buf` with [`value_bytes`]`(key, len)`, reusing its
/// capacity: a client thread fills one buffer per put instead of
/// allocating a value.
fn fill_value_bytes(buf: &mut Vec<u8>, key: u64, len: u32) {
    let len = len as usize;
    buf.clear();
    buf.reserve(len);
    let mut x = key;
    while buf.len() < len {
        let chunk = x.to_le_bytes();
        let take = (len - buf.len()).min(8);
        buf.extend_from_slice(&chunk[..take]);
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    }
}

/// A point operation going through the pipelined surface
/// ([`KvConnection::submit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeOp {
    /// Point lookup.
    Get(u64),
    /// Point insert/update carrying the value body.
    Put(u64, Vec<u8>),
    /// Point deletion.
    Remove(u64),
}

/// Handle of one in-flight pipelined operation, issued by
/// [`KvConnection::submit`] in submission order (0, 1, 2, … per
/// connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(pub u64);

/// One pipelined operation's result, yielded by [`KvConnection::drain`]
/// in ticket order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The submission this answers.
    pub ticket: Ticket,
    /// The op's value slot: the found value of a get, the previous
    /// value of a put or remove.
    pub value: Option<Vec<u8>>,
}

/// What [`KvConnection::submit`] did with the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// The connection has no pipeline: the op executed synchronously and
    /// this is its result (the default-implementation path).
    Done(Option<Vec<u8>>),
    /// The op is in flight; its result arrives from a later
    /// [`KvConnection::drain`].
    Queued(Ticket),
}

/// One client's session against a KV service: the driver issues its
/// sampled operations through this. A session is owned by exactly one
/// driver thread (for the TCP backend it wraps one pooled connection).
///
/// The blocking surface (`get`/`put`/`remove`/`scan_count`/`apply`) is
/// mandatory. The *pipelined* surface ([`submit`](KvConnection::submit) /
/// [`drain`](KvConnection::drain)) has a default implementation that
/// executes synchronously, so the local store and the TCP client share
/// this one trait: the driver calls `submit`/`drain` unconditionally and
/// every backend behaves correctly, with depth > 1 actually overlapping
/// requests only where the backend supports it.
pub trait KvConnection {
    /// Point lookup.
    fn get(&mut self, key: u64) -> Option<Vec<u8>>;
    /// Point insert/update of a byte value; returns the previous value.
    fn put(&mut self, key: u64, value: &[u8]) -> Option<Vec<u8>>;
    /// Point deletion; returns the removed value.
    fn remove(&mut self, key: u64) -> Option<Vec<u8>>;
    /// Full scan; returns the number of entries visited.
    fn scan_count(&mut self) -> u64;
    /// Applies a write batch.
    fn apply(&mut self, batch: &WriteBatch);

    /// Submits a point op to the pipeline. The default executes it
    /// synchronously and returns [`Submitted::Done`]; pipelined backends
    /// queue it and return [`Submitted::Queued`].
    fn submit(&mut self, op: PipeOp) -> Submitted {
        Submitted::Done(match op {
            PipeOp::Get(k) => self.get(k),
            PipeOp::Put(k, v) => self.put(k, &v),
            PipeOp::Remove(k) => self.remove(k),
        })
    }

    /// Collects every in-flight submission's result, in ticket order.
    /// The default (no pipeline) has nothing in flight.
    fn drain(&mut self) -> Vec<Reply> {
        Vec::new()
    }
}

/// A KV service the open-loop driver can run a [`LoadSpec`] against.
///
/// Implemented by [`PolyStore`] (in-process) and by `poly-net`'s
/// `NetClient` (over TCP), so the same driver — same pacing, same latency
/// accounting — measures both transports.
pub trait KvService: Sync {
    /// Per-thread session type.
    type Conn<'s>: KvConnection
    where
        Self: 's;

    /// Opens a session for one driver thread.
    fn connect(&self) -> Self::Conn<'_>;

    /// The lock backend guarding the service's shards (prices the energy
    /// model's wait activity).
    fn lock_kind(&self) -> LockKind;

    /// Service-side threads dedicated to each client session beyond the
    /// client thread itself (the TCP server runs one worker per
    /// connection); folded into the modeled energy.
    fn extra_threads_per_client(&self) -> usize {
        0
    }

    /// The driver's window mark: a snapshot of the service's merged shard
    /// stats, and the serving process's cumulative *measured* (RAPL)
    /// energy when the service is metered (`None` otherwise). The driver
    /// takes it right after prefill and right after the clients join and
    /// diffs the two, so warmup is excluded and, for a remote service, the
    /// joules are the *server's*, not the client's. A remote service
    /// answers both from one exchange, so no second round trip lands
    /// inside the energy window it just opened.
    fn stats_and_energy(&self) -> (StatsSnapshot, Option<MeasuredReading>);
}

/// In-process session: every call goes straight to the store.
pub struct LocalConn<'s>(&'s PolyStore);

impl KvConnection for LocalConn<'_> {
    fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Option<Vec<u8>> {
        self.0.put(key, value)
    }

    fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        self.0.remove(key)
    }

    fn scan_count(&mut self) -> u64 {
        let mut n = 0u64;
        self.0.scan(|_, _| n += 1);
        n
    }

    fn apply(&mut self, batch: &WriteBatch) {
        self.0.apply(batch);
    }
}

impl KvService for PolyStore {
    type Conn<'s> = LocalConn<'s>;

    fn connect(&self) -> LocalConn<'_> {
        LocalConn(self)
    }

    fn lock_kind(&self) -> LockKind {
        PolyStore::lock_kind(self)
    }

    fn stats_and_energy(&self) -> (StatsSnapshot, Option<MeasuredReading>) {
        (self.total_stats(), None)
    }
}

/// Parameters of one load run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// The op mix (shard count inside it is ignored here — the store is
    /// already built).
    pub mix: KvMix,
    /// Client threads.
    pub threads: usize,
    /// Operations issued per thread.
    pub ops_per_thread: u64,
    /// Deterministic seed (per-thread streams are derived from it).
    pub seed: u64,
    /// Per-thread arrival rate in ops/s; `None` = saturation (closed
    /// loop, zero think time).
    pub rate_ops_s: Option<u64>,
    /// Entries inserted before the measured interval (warms the store so
    /// gets can hit). Keys `0..prefill` get [`value_bytes`] at lengths
    /// drawn from the mix's value distribution (an 8-byte value reads
    /// back as `key` through the `u64` view).
    pub prefill: u64,
    /// Frequency cap (kHz) the host is running under for this load, if
    /// one was *actually applied* (see `poly-cap`); prices the modeled
    /// energy at the capped VF point so modeled and measured joules are
    /// drawn at the same frequency. `None` = base frequency.
    pub freq_khz: Option<u64>,
    /// Pipeline depth per client: how many point ops each session keeps
    /// in flight through [`KvConnection::submit`] before draining. `1`
    /// (the default) is strict request/response on every backend; values
    /// above 1 overlap requests where the connection supports it and
    /// fall back to sequential execution where it doesn't. Depth > 1
    /// disables client-side write batching — the pipeline replaces it.
    pub depth: usize,
}

impl LoadSpec {
    /// A saturation load: `threads` clients, `ops` each, half the
    /// keyspace prefilled.
    pub fn saturating(mix: KvMix, threads: usize, ops: u64, seed: u64) -> Self {
        Self {
            mix,
            threads: threads.max(1),
            ops_per_thread: ops,
            seed,
            rate_ops_s: None,
            prefill: mix.keys / 2,
            freq_khz: None,
            depth: 1,
        }
    }
}

/// The measured outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations completed (scans count as one).
    pub ops: u64,
    /// Wall-clock time of the measured interval.
    pub wall: Duration,
    /// Operations per second.
    pub throughput: f64,
    /// Median request latency, nanoseconds (from the scheduled arrival
    /// when paced, from issue otherwise).
    pub p50_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
    /// Maximum request latency, nanoseconds.
    pub max_ns: u64,
    /// Cumulative shard-lock wait over the run, nanoseconds.
    pub lock_wait_ns: u64,
    /// Cumulative shard-lock hold over the run, nanoseconds.
    pub lock_hold_ns: u64,
    /// Cumulative open-loop pacing slack, nanoseconds.
    pub idle_ns: u64,
    /// The frequency cap the run was modeled (and, when applied for
    /// real, measured) under; echoes [`LoadSpec::freq_khz`].
    pub freq_khz: Option<u64>,
    /// Modeled Xeon energy for the run, priced at
    /// [`LoadReport::freq_khz`].
    pub energy: EnergyEstimate,
    /// Measured (RAPL) energy over the measured interval, when the
    /// service is metered — the paper's actual methodology, reported
    /// beside the model.
    pub measured: Option<MeasuredEnergy>,
    /// Where this report's headline joules come from: [`EnergySource::Rapl`]
    /// when [`LoadReport::measured`] is populated, [`EnergySource::Modeled`]
    /// otherwise.
    pub energy_source: EnergySource,
    /// Service-side stats delta over the run (all shards merged).
    pub store_stats: StatsSnapshot,
    /// Client-side request-latency histogram (all threads merged).
    pub request_latency: HistogramSnapshot,
}

impl LoadReport {
    /// Measured joules over the run (package + DRAM), `None` when the
    /// run was model-only.
    pub fn measured_j(&self) -> Option<f64> {
        self.measured.map(|m| m.total_j())
    }

    /// Measured micro-joules per completed operation, `None` when the
    /// run was model-only.
    pub fn measured_uj_per_op(&self) -> Option<f64> {
        self.measured.and_then(|m| m.uj_per_op(self.ops))
    }

    /// Measured package-domain joules over the run, `None` when the run
    /// was model-only — the per-domain half of [`LoadReport::measured_j`].
    pub fn measured_pkg_j(&self) -> Option<f64> {
        self.measured.map(|m| m.package_j)
    }

    /// Measured DRAM-domain joules over the run, `None` when the run was
    /// model-only.
    pub fn measured_dram_j(&self) -> Option<f64> {
        self.measured.map(|m| m.dram_j)
    }
}

/// Hooks into a load run's measure window — how `poly-trace` watches a
/// run without the driver knowing about tracing.
///
/// The driver calls [`window_open`](LoadObserver::window_open) right
/// after it takes its start marks (stats base + energy base, prefill
/// already excluded), [`on_op`](LoadObserver::on_op) exactly once per
/// completed operation from the issuing client thread (so an observer
/// counting ops reproduces the report's `ops` exactly, batched writes
/// included), and [`window_close`](LoadObserver::window_close) right
/// after the end marks. All hooks default to no-ops; `on_op` sits on
/// the client hot path, so implementations must stay lock-free.
pub trait LoadObserver: Sync {
    /// The measure window opened: `base` is the service-stats base mark,
    /// `measured` the energy base reading (for a metered service).
    fn window_open(&self, _base: &StatsSnapshot, _measured: Option<MeasuredReading>) {}

    /// One operation completed with the given request latency
    /// (nanoseconds from its scheduled origin).
    fn on_op(&self, _latency_ns: u64) {}

    /// The measure window closed: `end` is the closing service-stats
    /// mark, `measured` the closing energy reading.
    fn window_close(&self, _end: &StatsSnapshot, _measured: Option<MeasuredReading>) {}
}

/// The default observer: observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl LoadObserver for NoObserver {}

/// The scheduled arrival time (ns since run start) of thread `tid`'s
/// `i`-th operation under open-loop pacing.
///
/// Every thread runs at the same `interval_ns` cadence, but each thread's
/// schedule is phase-shifted by `tid * interval_ns / threads` so the
/// aggregate arrival stream interleaves instead of waking all `threads`
/// clients at the same instants (the thundering-herd bug: identical
/// schedules turn a nominally smooth arrival process into synchronized
/// bursts of `threads`, distorting exactly the queueing tails the
/// open-loop method exists to expose).
pub fn scheduled_arrival_ns(interval_ns: u64, threads: usize, tid: usize, i: u64) -> u64 {
    let phase = (tid as u64) * interval_ns / (threads.max(1) as u64);
    i * interval_ns + phase
}

/// Runs a load against any [`KvService`] and reports the outcome.
///
/// # Panics
///
/// Panics if the mix fails [`KvMix::validate`].
pub fn run_load_on<S: KvService>(svc: &S, spec: &LoadSpec) -> LoadReport {
    run_load_observed(svc, spec, &NoObserver)
}

/// [`run_load_on`] with a [`LoadObserver`] watching the measure window —
/// the entry point `poly-trace` builds windowed timelines on.
///
/// # Panics
///
/// Panics if the mix fails [`KvMix::validate`].
pub fn run_load_observed<S: KvService, O: LoadObserver>(
    svc: &S,
    spec: &LoadSpec,
    obs: &O,
) -> LoadReport {
    spec.mix.validate().unwrap_or_else(|e| panic!("invalid mix: {e}"));
    let mix = spec.mix;

    // Prefill outside the measured interval, through the batch path.
    {
        let mut conn = svc.connect();
        let mut fill = WriteBatch::with_capacity(1024);
        let mut fill_rng = Rng64::new(spec.seed ^ 0x00F1_11F1_11F1_11F1);
        for key in 0..spec.prefill.min(mix.keys) {
            fill.put(key, value_bytes(key, mix.value.sample(&mut fill_rng)));
            if fill.len() == 1024 {
                conn.apply(&fill);
                fill.clear();
            }
        }
        conn.apply(&fill);
    }

    // Measure-window start mark (one exchange: stats base + energy
    // base): prefill (warmup) energy stays outside the window.
    let (base, measured_base) = svc.stats_and_energy();
    obs.window_open(&base, measured_base);
    let sampler = KeySampler::new(mix.dist, mix.keys);
    let threads = spec.threads.max(1);
    // Floor at 1 ns: a rate above 1e9/s would otherwise schedule every
    // arrival at t=0 and turn latencies into time-since-start.
    let interval_ns = spec.rate_ops_s.map(|r| (1_000_000_000 / r.max(1)).max(1));

    let start = Instant::now();
    let per_thread: Vec<(HistogramSnapshot, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sampler = &sampler;
                scope.spawn(move || {
                    let conn = svc.connect();
                    client_thread(conn, spec, sampler, t, start, interval_ns, obs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    // Measure-window stop mark, taken right at client join so the window
    // matches `wall` as closely as the transport allows; the same
    // exchange carries the closing stats snapshot.
    let (end_stats, measured_end) = svc.stats_and_energy();
    obs.window_close(&end_stats, measured_end);
    let measured = match (measured_base, measured_end) {
        (Some(start_r), Some(end_r)) => Some(MeasuredEnergy::between(start_r, end_r)),
        _ => None,
    };

    let mut request_latency = HistogramSnapshot::default();
    let mut ops = 0u64;
    let mut idle_ns = 0u64;
    for (hist, thread_ops, thread_idle) in &per_thread {
        request_latency.merge(hist);
        ops += thread_ops;
        idle_ns += thread_idle;
    }

    let store_stats = end_stats.delta(&base);
    // The serving path's threads (e.g. the TCP server's per-connection
    // workers) burn power too; fold them into the modeled machine.
    let total_threads = threads * (1 + svc.extra_threads_per_client());
    let thread_ns = (wall.as_nanos() as u64).max(1) as f64 * total_threads as f64;
    let wait_frac = store_stats.lock_wait_ns as f64 / thread_ns;
    let idle_frac = idle_ns as f64 / thread_ns;
    let energy = crate::energy::estimate_at(
        svc.lock_kind(),
        total_threads,
        wall,
        wait_frac,
        idle_frac,
        ops,
        spec.freq_khz,
    );

    LoadReport {
        ops,
        wall,
        freq_khz: spec.freq_khz,
        throughput: ops as f64 / wall.as_secs_f64().max(1e-9),
        p50_ns: request_latency.percentile(50.0),
        p99_ns: request_latency.percentile(99.0),
        max_ns: request_latency.max_ns,
        lock_wait_ns: store_stats.lock_wait_ns,
        lock_hold_ns: store_stats.lock_hold_ns,
        idle_ns,
        energy,
        energy_source: if measured.is_some() { EnergySource::Rapl } else { EnergySource::Modeled },
        measured,
        store_stats,
        request_latency,
    }
}

/// One client thread's loop; returns (latency histogram, ops done, idle ns).
#[allow(clippy::too_many_arguments)] // one call site; the run's axes
fn client_thread<C: KvConnection, O: LoadObserver>(
    mut conn: C,
    spec: &LoadSpec,
    sampler: &KeySampler,
    tid: usize,
    start: Instant,
    interval_ns: Option<u64>,
    obs: &O,
) -> (HistogramSnapshot, u64, u64) {
    let mix = spec.mix;
    // Depth > 1 keeps up to `depth` point ops in flight and replaces
    // client-side write batching; at depth 1, writes buffer into
    // batches of `mix.batch` when that is above 1.
    let pipelined = spec.depth > 1;
    let limit = if pipelined { spec.depth } else { mix.batch.max(1) };
    let batching = !pipelined && limit > 1;
    // Decorrelate per-thread streams; SplitMix64 scrambles the seed, so a
    // simple odd-multiplier offset suffices.
    let mut rng =
        Rng64::new(spec.seed ^ ((tid as u64).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let hist = LatencyHistogram::new();
    let mut batch = WriteBatch::with_capacity(mix.batch.max(1));
    // The blocking put's value; batched and pipelined puts hand theirs
    // over, so they still allocate one each.
    let mut value = Vec::new();
    // Scheduled origins of the ops issued but not yet answered: the
    // writes buffered in `batch`, or the pipelined submissions in
    // flight. Their latency is not known until the flush that answers
    // them, so time spent buffered or queued behind the depth is charged
    // to the op.
    let mut pending: Vec<u64> = Vec::with_capacity(limit);
    // Applies the buffered batch or drains the pipeline, then records
    // the pending ops.
    let flush = |conn: &mut C, batch: &mut WriteBatch, pending: &mut Vec<u64>| {
        if pipelined {
            let replies = conn.drain();
            debug_assert_eq!(
                replies.len(),
                pending.len(),
                "a drain must answer exactly the in-flight submissions"
            );
        } else {
            conn.apply(batch);
            batch.clear();
        }
        record(&hist, obs, start, pending.drain(..));
    };
    let mut idle_ns = 0u64;
    let mut ops = 0u64;

    for i in 0..spec.ops_per_thread {
        // Open-loop pacing: wait for the scheduled arrival, measure
        // latency from it so queueing delay is visible.
        let due_ns = interval_ns.map(|iv| scheduled_arrival_ns(iv, spec.threads, tid, i));
        if let Some(due) = due_ns {
            let now = start.elapsed().as_nanos() as u64;
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                idle_ns += due - now;
            }
        }
        let issued = start.elapsed().as_nanos() as u64;
        // Paced: latency from the scheduled arrival (the earlier of due
        // and issue), so falling behind schedule shows up as queueing.
        let origin = due_ns.map_or(issued, |due| due.min(issued));
        let queued = |submitted| matches!(submitted, Submitted::Queued(_));
        let buffered = match (mix.sample_op(sampler, &mut rng), pipelined) {
            (KvOp::Scan, _) => {
                // Scans use the blocking surface, a pipeline barrier:
                // in-flight submissions land first. Batched writes stay
                // buffered.
                if pipelined && !pending.is_empty() {
                    flush(&mut conn, &mut batch, &mut pending);
                }
                conn.scan_count();
                false
            }
            (KvOp::Get(k), true) => queued(conn.submit(PipeOp::Get(k))),
            (KvOp::Put(k, len), true) => queued(conn.submit(PipeOp::Put(k, value_bytes(k, len)))),
            (KvOp::Remove(k), true) => queued(conn.submit(PipeOp::Remove(k))),
            (KvOp::Put(k, len), false) if batching => {
                batch.put(k, value_bytes(k, len));
                true
            }
            (KvOp::Remove(k), false) if batching => {
                batch.remove(k);
                true
            }
            (KvOp::Get(k), false) => {
                conn.get(k);
                false
            }
            (KvOp::Put(k, len), false) => {
                fill_value_bytes(&mut value, k, len);
                conn.put(k, &value);
                false
            }
            (KvOp::Remove(k), false) => {
                conn.remove(k);
                false
            }
        };
        ops += 1;
        if buffered {
            pending.push(origin);
            if pending.len() >= limit {
                flush(&mut conn, &mut batch, &mut pending);
            }
        } else {
            record(&hist, obs, start, [origin]);
        }
    }
    if !pending.is_empty() {
        flush(&mut conn, &mut batch, &mut pending);
    }
    (hist.snapshot(), ops, idle_ns)
}

/// Records one latency sample per op origin, measured from the origin to
/// now — so every issued op contributes exactly one histogram sample
/// (and one [`LoadObserver::on_op`] call), buffered or not.
fn record<O: LoadObserver>(
    hist: &LatencyHistogram,
    obs: &O,
    start: Instant,
    origins: impl IntoIterator<Item = u64>,
) {
    let done = start.elapsed().as_nanos() as u64;
    for origin in origins {
        let latency = done.saturating_sub(origin);
        hist.record(latency);
        obs.on_op(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use poly_locks_sim::LockKind;

    fn host_threads() -> usize {
        // Single-CPU hosts pay a scheduler quantum per contended
        // handover; keep concurrency tiny there.
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
    }

    #[test]
    fn value_bytes_are_the_key_then_its_stream_over_any_buffer() {
        let cases: [(u64, &[u8]); 5] = [
            (0, &[]),
            (0xDEAD_BEEF, &[0xEF, 0xBE, 0xAD]),
            (1, &[1, 0, 0, 0, 0, 0, 0, 0, 0x16, 0x7C, 0x4A, 0x7F]),
            (u64::MAX, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEC]),
            (
                7,
                &[
                    7, 0, 0, 0, 0, 0, 0, 0, 0x94, 0x64, 0x09, 0x7B, 0x12, 0x54, 0x84, 0x53, 0x25,
                    0xF0, 0x44, 0x23,
                ],
            ),
        ];
        let mut buf = Vec::new();
        for (key, want) in cases {
            let len = want.len() as u32;
            assert_eq!(value_bytes(key, len), want, "key {key:#x}, len {len}");
            buf.clear();
            buf.resize(32, 0xA5);
            fill_value_bytes(&mut buf, key, len);
            assert_eq!(buf, want, "key {key:#x}, len {len}, over a dirty buffer");
        }
    }

    #[test]
    fn saturating_load_reports_consistent_numbers() {
        let mix = KvMix::uniform().with_shards(8);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutexee,
            ..Default::default()
        });
        let spec = LoadSpec::saturating(mix, host_threads(), 2_000, 42);
        let r = run_load_on(&store, &spec);
        assert_eq!(r.ops, spec.threads as u64 * 2_000);
        assert!(r.throughput > 0.0);
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.max_ns.max(1));
        assert_eq!(r.request_latency.count(), r.ops);
        // Store-side deltas exclude the prefill.
        assert!(r.store_stats.gets > 0);
        assert!(r.energy.avg_power_w > 27.0 && r.energy.avg_power_w < 207.0);
        assert!(r.energy.epo_uj.is_finite());
    }

    #[test]
    fn prefill_makes_gets_hit() {
        let mix = KvMix::uniform().with_shards(4);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Ttas,
            ..Default::default()
        });
        let r = run_load_on(&store, &LoadSpec::saturating(mix, 1, 3_000, 7));
        // Half the keyspace is prefilled; with uniform keys roughly half
        // the gets must hit. Allow wide slack: puts/removes also run.
        let hit_rate = r.store_stats.get_hits as f64 / r.store_stats.gets.max(1) as f64;
        assert!(hit_rate > 0.25, "hit rate {hit_rate}");
    }

    #[test]
    fn paced_load_records_idle_time() {
        let mix = KvMix::uniform().with_shards(2);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutex,
            ..Default::default()
        });
        let spec = LoadSpec { rate_ops_s: Some(2_000), ..LoadSpec::saturating(mix, 1, 200, 9) };
        let r = run_load_on(&store, &spec);
        assert_eq!(r.ops, 200);
        // 200 ops at 2000/s is 100 ms of schedule; a modern host finishes
        // the work itself far faster, so most of the time is slack.
        assert!(r.idle_ns > 0, "paced run recorded no idle time");
    }

    #[test]
    fn paced_schedules_are_staggered_across_threads() {
        // Two threads at the same rate must not share arrival instants:
        // thread 1's schedule is offset by half an interval, so the merged
        // arrival stream strictly interleaves instead of arriving in
        // synchronized bursts of 2.
        let iv = 1_000u64;
        let t0: Vec<u64> = (0..4).map(|i| scheduled_arrival_ns(iv, 2, 0, i)).collect();
        let t1: Vec<u64> = (0..4).map(|i| scheduled_arrival_ns(iv, 2, 1, i)).collect();
        assert_eq!(t0, vec![0, 1_000, 2_000, 3_000]);
        assert_eq!(t1, vec![500, 1_500, 2_500, 3_500]);
        for (a, b) in t0.iter().zip(&t1) {
            assert!(a < b && *b < a + iv, "schedules not interleaved: {a} vs {b}");
        }
        // More generally: across N threads the N phases are distinct and
        // evenly spread over one interval.
        let n = 5usize;
        let phases: Vec<u64> = (0..n).map(|tid| scheduled_arrival_ns(iv, n, tid, 0)).collect();
        for (tid, &p) in phases.iter().enumerate() {
            assert_eq!(p, tid as u64 * iv / n as u64);
            assert!(p < iv);
        }
        let mut dedup = phases.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), n, "colliding phases: {phases:?}");
    }

    #[test]
    fn batched_writes_take_fewer_lock_acquisitions() {
        let mix = KvMix::write_burst().with_shards(4);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutexee,
            ..Default::default()
        });
        let r = run_load_on(&store, &LoadSpec::saturating(mix, 2, 2_000, 11));
        assert!(r.store_stats.batches > 0, "write-burst mix never applied a batch");
    }

    #[test]
    fn batched_write_histogram_counts_every_op_once() {
        // `ops_per_thread` deliberately not a multiple of the batch size,
        // so the post-loop leftover flush must also record its samples.
        let mix = KvMix { batch: 32, ..KvMix::write_burst() }.with_shards(4);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutex,
            ..Default::default()
        });
        let spec = LoadSpec::saturating(mix, 2, 1_037, 13);
        let r = run_load_on(&store, &spec);
        assert_eq!(r.ops, 2 * 1_037);
        assert_eq!(
            r.request_latency.count(),
            r.ops,
            "every op (batched or not) must contribute exactly one latency sample"
        );
    }

    /// A service whose batch application is slow: batched writes must be
    /// charged the apply time, not the (near-zero) buffering time.
    struct SlowApply {
        store: PolyStore,
        apply_delay: Duration,
    }

    struct SlowApplyConn<'s>(&'s SlowApply);

    impl KvConnection for SlowApplyConn<'_> {
        fn get(&mut self, key: u64) -> Option<Vec<u8>> {
            self.0.store.get(key)
        }

        fn put(&mut self, key: u64, value: &[u8]) -> Option<Vec<u8>> {
            self.0.store.put(key, value)
        }

        fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
            self.0.store.remove(key)
        }

        fn scan_count(&mut self) -> u64 {
            let mut n = 0;
            self.0.store.scan(|_, _| n += 1);
            n
        }

        fn apply(&mut self, batch: &WriteBatch) {
            std::thread::sleep(self.0.apply_delay);
            self.0.store.apply(batch);
        }
    }

    impl KvService for SlowApply {
        type Conn<'s> = SlowApplyConn<'s>;

        fn connect(&self) -> SlowApplyConn<'_> {
            SlowApplyConn(self)
        }

        fn lock_kind(&self) -> LockKind {
            self.store.lock_kind()
        }

        fn stats_and_energy(&self) -> (StatsSnapshot, Option<MeasuredReading>) {
            (self.store.total_stats(), None)
        }
    }

    #[test]
    fn observer_sees_every_op_and_both_window_marks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Counting {
            ops: AtomicU64,
            marks: Mutex<Vec<(&'static str, StatsSnapshot)>>,
        }

        impl LoadObserver for Counting {
            fn window_open(&self, base: &StatsSnapshot, _m: Option<MeasuredReading>) {
                self.marks.lock().unwrap().push(("open", *base));
            }

            fn on_op(&self, _latency_ns: u64) {
                self.ops.fetch_add(1, Ordering::Relaxed);
            }

            fn window_close(&self, end: &StatsSnapshot, _m: Option<MeasuredReading>) {
                self.marks.lock().unwrap().push(("close", *end));
            }
        }

        // A batch size the op count doesn't divide, so the leftover flush
        // must notify the observer too.
        let mix = KvMix { batch: 32, ..KvMix::write_burst() }.with_shards(4);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutexee,
            ..Default::default()
        });
        let obs = Counting::default();
        let r = run_load_observed(&store, &LoadSpec::saturating(mix, 2, 1_037, 21), &obs);
        assert_eq!(
            obs.ops.load(Ordering::Relaxed),
            r.ops,
            "on_op must fire exactly once per completed op"
        );
        let marks = obs.marks.into_inner().unwrap();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].0, "open");
        assert_eq!(marks[1].0, "close");
        // The marks bracket the run: their delta is the report's stats.
        assert_eq!(marks[1].1.delta(&marks[0].1), r.store_stats);
        // The base mark already carries the prefill, excluded from the run.
        assert!(marks[0].1.puts > 0, "prefill must predate the open mark");
    }

    #[test]
    fn batched_write_latency_reflects_apply_time() {
        let mix = KvMix {
            get_pct: 0,
            put_pct: 100,
            remove_pct: 0,
            scan_pct: 0,
            batch: 8,
            ..KvMix::uniform()
        }
        .with_shards(2);
        let delay = Duration::from_millis(2);
        let svc = SlowApply {
            store: PolyStore::new(StoreConfig {
                shards: mix.shards,
                lock: LockKind::Mutex,
                ..Default::default()
            }),
            apply_delay: delay,
        };
        let spec = LoadSpec { prefill: 0, ..LoadSpec::saturating(mix, 1, 16, 3) };
        let r = run_load_on(&svc, &spec);
        assert_eq!(r.request_latency.count(), 16);
        // All 16 ops are batched puts; each waits for its batch's slow
        // apply, so even the *median* must carry the apply delay. Before
        // the fix, buffering time (~ns) was recorded instead.
        assert!(
            r.p50_ns >= delay.as_nanos() as u64 / 2,
            "batched p50 {} ns ignores the {} ns apply",
            r.p50_ns,
            delay.as_nanos()
        );
    }

    #[test]
    fn pipelined_depth_works_on_a_non_pipelined_backend() {
        // depth > 1 against the local store: submit's default executes
        // synchronously (Submitted::Done), so the run must behave exactly
        // like depth 1 — every op counted and sampled once.
        let mix = KvMix::uniform().with_shards(4);
        let store = PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutexee,
            ..Default::default()
        });
        let spec = LoadSpec { depth: 8, ..LoadSpec::saturating(mix, 2, 1_000, 17) };
        let r = run_load_on(&store, &spec);
        assert_eq!(r.ops, 2_000);
        assert_eq!(r.request_latency.count(), r.ops);
    }

    /// A genuinely pipelined backend: submissions queue, a drain pays one
    /// round-trip delay for the whole in-flight group.
    struct PipedSvc {
        store: PolyStore,
        drain_delay: Duration,
        max_inflight: std::sync::atomic::AtomicU64,
        drains: std::sync::atomic::AtomicU64,
    }

    struct PipedConn<'s> {
        svc: &'s PipedSvc,
        queued: Vec<PipeOp>,
        next_ticket: u64,
    }

    impl KvConnection for PipedConn<'_> {
        fn get(&mut self, key: u64) -> Option<Vec<u8>> {
            self.svc.store.get(key)
        }

        fn put(&mut self, key: u64, value: &[u8]) -> Option<Vec<u8>> {
            self.svc.store.put(key, value)
        }

        fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
            self.svc.store.remove(key)
        }

        fn scan_count(&mut self) -> u64 {
            assert!(self.queued.is_empty(), "scan must be a pipeline barrier");
            let mut n = 0;
            self.svc.store.scan(|_, _| n += 1);
            n
        }

        fn apply(&mut self, batch: &WriteBatch) {
            self.svc.store.apply(batch);
        }

        fn submit(&mut self, op: PipeOp) -> Submitted {
            self.queued.push(op);
            use std::sync::atomic::Ordering;
            self.svc.max_inflight.fetch_max(self.queued.len() as u64, Ordering::Relaxed);
            let t = Ticket(self.next_ticket);
            self.next_ticket += 1;
            Submitted::Queued(t)
        }

        fn drain(&mut self) -> Vec<Reply> {
            use std::sync::atomic::Ordering;
            self.svc.drains.fetch_add(1, Ordering::Relaxed);
            // One round trip for the whole group — the point of
            // pipelining.
            std::thread::sleep(self.svc.drain_delay);
            let base = self.next_ticket - self.queued.len() as u64;
            self.queued
                .drain(..)
                .enumerate()
                .map(|(i, op)| {
                    let value = match op {
                        PipeOp::Get(k) => self.svc.store.get(k),
                        PipeOp::Put(k, v) => self.svc.store.put(k, &v),
                        PipeOp::Remove(k) => self.svc.store.remove(k),
                    };
                    Reply { ticket: Ticket(base + i as u64), value }
                })
                .collect()
        }
    }

    impl KvService for PipedSvc {
        type Conn<'s> = PipedConn<'s>;

        fn connect(&self) -> PipedConn<'_> {
            PipedConn { svc: self, queued: Vec::new(), next_ticket: 0 }
        }

        fn lock_kind(&self) -> LockKind {
            self.store.lock_kind()
        }

        fn stats_and_energy(&self) -> (StatsSnapshot, Option<MeasuredReading>) {
            (self.store.total_stats(), None)
        }
    }

    #[test]
    fn pipelined_latency_covers_in_flight_depth() {
        use std::sync::atomic::Ordering;
        // All point ops, depth 4, 16 ops on one thread → exactly 4 drains
        // of 4 in-flight submissions; each op's latency must include its
        // group's drain round trip, and every op still contributes
        // exactly one sample.
        let mix = KvMix {
            get_pct: 0,
            put_pct: 100,
            remove_pct: 0,
            scan_pct: 0,
            batch: 1,
            ..KvMix::uniform()
        }
        .with_shards(2);
        let delay = Duration::from_millis(2);
        let svc = PipedSvc {
            store: PolyStore::new(StoreConfig {
                shards: mix.shards,
                lock: LockKind::Mutex,
                ..Default::default()
            }),
            drain_delay: delay,
            max_inflight: 0.into(),
            drains: 0.into(),
        };
        let spec = LoadSpec { depth: 4, prefill: 0, ..LoadSpec::saturating(mix, 1, 16, 3) };
        let r = run_load_on(&svc, &spec);
        assert_eq!(r.ops, 16);
        assert_eq!(r.request_latency.count(), 16, "one sample per pipelined op");
        assert_eq!(svc.max_inflight.load(Ordering::Relaxed), 4, "depth respected");
        assert_eq!(svc.drains.load(Ordering::Relaxed), 4);
        assert!(
            r.p50_ns >= delay.as_nanos() as u64 / 2,
            "pipelined p50 {} ns ignores the {} ns drain round trip",
            r.p50_ns,
            delay.as_nanos()
        );
    }
}

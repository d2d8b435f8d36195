//! Per-shard operation statistics: counters, lock timing, latency tails.
//!
//! Counts are exact: every op moves its op, hit, eviction and expiry
//! counters and the residency gauge. Timing is sampled: a thread-local
//! gate ([`observe`]) picks about one point op in [`SKETCH_SAMPLE`], and
//! only that op also reads the clock at lock acquisition and release. It
//! books its lock wait and hold and its service time weighted by
//! `SKETCH_SAMPLE`, so `lock_wait_ns`, `lock_hold_ns` and the latency
//! histogram's counts are estimates made from the observed ops, and the
//! histogram's max is the max of the observed ops. The same observed ops
//! feed the hot-key sketch. Batch visits and scans are timed on every
//! visit, at weight 1.
//!
//! The timed figures describe the instrumented ops, with two biases. An
//! observed op pays two clock reads the others skip, one of them inside
//! the lock, so its hold and service time overstate the untimed majority's
//! by about that cost. And each thread's first op is always observed, so a
//! thread that runs only a few ops (a short connection on a
//! thread-per-connection server) books up to `SKETCH_SAMPLE` times as many
//! timed ops as it ran, and the histogram's count can exceed the exact op
//! count.
//!
//! Recording is lock-free: relaxed atomics the operating thread touches
//! after its own critical section, so the stats path stays out of the
//! lock behavior under test. The one exception is the residency gauge,
//! written inside the critical section (only when it moved) so it changes
//! in the order the shard's ops ran. Readers take
//! [`ShardStats::snapshot`]s — plain data that can be merged across shards
//! and queried for percentiles.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the per-shard SpaceSaving hot-key sketch: how many key
/// counters each shard tracks (and how many [`StatsSnapshot::top_keys`]
/// slots a snapshot exposes).
pub const TOP_KEYS: usize = 8;

/// Point ops per observed one, on average: the one sampling constant.
/// An observed op's lock wait, hold and service time are booked this many
/// times, and each of its sketch offers counts for this many touches.
pub const SKETCH_SAMPLE: u64 = 8;

thread_local! {
    /// This thread's point ops left to skip before the next observed
    /// one, and the xorshift state that draws the gaps (0 until the
    /// thread's first op seeds it).
    static GATE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The next thread's gate seed: a Weyl sequence, so seeds are distinct.
static GATE_SEEDS: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

/// Whether the calling thread's next point op is observed. A thread
/// observes its first op, then ops at gaps drawn uniformly from
/// `1..2 * SKETCH_SAMPLE`, whose mean is [`SKETCH_SAMPLE`]. The gaps are
/// pseudo-random, so no periodic pattern in a thread's ops (say, one key
/// every eighth op) lines up with the gate, and weighting each observed op
/// by `SKETCH_SAMPLE` estimates the totals of all ops.
pub(crate) fn observe() -> bool {
    GATE.with(|gate| {
        let (skip, mut state) = gate.get();
        if skip > 0 {
            gate.set((skip - 1, state));
            return false;
        }
        if state == 0 {
            // xorshift needs a nonzero state.
            state = GATE_SEEDS.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed) | 1;
        }
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        gate.set((state % (2 * SKETCH_SAMPLE - 1), state));
        true
    })
}

/// One estimated hot-key counter from the per-shard SpaceSaving sketch.
///
/// `count` is an *estimate* of how many point operations touched `key`
/// (observed touches scaled back up by [`SKETCH_SAMPLE`]); SpaceSaving
/// guarantees it is an upper bound on the true observed count, so a
/// genuinely hot key can never be reported colder than it is. A slot
/// with `count == 0` is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotKey {
    /// The tracked key.
    pub key: u64,
    /// Estimated point-op touches (upper bound, see type docs).
    pub count: u64,
}

/// A bounded SpaceSaving top-k counter summary (Metwally et al.): at most
/// [`TOP_KEYS`] `(key, count)` slots; an unseen key evicts the current
/// minimum and inherits its count, so the heaviest keys always survive.
#[derive(Debug, Default)]
struct SpaceSaving {
    entries: Vec<(u64, u64)>,
}

impl SpaceSaving {
    fn offer(&mut self, key: u64) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 += 1;
            return;
        }
        if self.entries.len() < TOP_KEYS {
            self.entries.push((key, 1));
            return;
        }
        // Replace the minimum-count entry; the newcomer inherits its
        // count (+1), the classic SpaceSaving overestimate.
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|(_, c)| *c)
            .expect("sketch at capacity is non-empty");
        *min = (key, min.1 + 1);
    }

    /// The tracked counters, hottest first, scaled back to estimated
    /// touches of all ops, observed or not.
    fn top(&self) -> [HotKey; TOP_KEYS] {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = [HotKey::default(); TOP_KEYS];
        for (dst, (key, count)) in out.iter_mut().zip(sorted) {
            *dst = HotKey { key, count: count.saturating_mul(SKETCH_SAMPLE) };
        }
        out
    }
}

/// Number of logarithmic latency buckets: bucket 0 holds only the sample
/// `0`, bucket `i >= 1` holds samples in `[2^(i-1), 2^i)` nanoseconds
/// (i.e. `bucket_of(ns) = 64 - leading_zeros(ns)`), and the last bucket
/// absorbs everything from `2^43` ns (~2.4 hours) up.
pub const HIST_BUCKETS: usize = 45;

/// A log-scaled concurrent latency histogram (nanosecond samples).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)), max_ns: AtomicU64::new(0) }
    }

    /// Bucket index of a sample: 0 for `ns == 0`, otherwise one past the
    /// position of `ns`'s highest set bit, so bucket `i` spans
    /// `[2^(i-1), 2^i)` with upper bound `2^i` (what
    /// [`HistogramSnapshot::percentile`] reports), capped at the last
    /// bucket.
    fn bucket_of(ns: u64) -> usize {
        ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records a sample that stands for `n` samples of the same value.
    pub fn record_n(&self, ns: u64, n: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(n, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Takes a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, max_ns: self.max_ns.load(Ordering::Relaxed) }
    }
}

/// A mergeable point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample count per log-scaled bucket.
    pub buckets: [u64; HIST_BUCKETS],
    /// Largest recorded sample.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; HIST_BUCKETS], max_ns: 0 }
    }
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at percentile `p` (0..=100), as the upper bound of the
    /// bucket containing it — an overestimate by at most 2x, which is the
    /// usual log-histogram trade-off. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i, capped by the observed max
                // (the last bucket is unbounded, so the max IS its bound).
                if i == HIST_BUCKETS - 1 {
                    return self.max_ns;
                }
                return (1u64 << i).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The samples recorded since `base` was taken (counters are
    /// monotonic; the max is carried over as-is, an upper bound).
    pub fn since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (dst, src) in out.buckets.iter_mut().zip(&base.buckets) {
            *dst = dst.saturating_sub(*src);
        }
        out
    }
}

/// Concurrent per-shard counters. Op, hit, eviction and expiry counts are
/// exact; lock wait and hold and the latency histogram are weighted
/// estimates (see the module docs).
#[derive(Debug, Default)]
pub struct ShardStats {
    gets: AtomicU64,
    get_hits: AtomicU64,
    puts: AtomicU64,
    removes: AtomicU64,
    scans: AtomicU64,
    batches: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_hold_ns: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
    mem_bytes: AtomicU64,
    /// Service time of point operations against this shard.
    op_latency: LatencyHistogram,
    /// The SpaceSaving hot-key sketch behind [`StatsSnapshot::top_keys`].
    sketch: Mutex<SpaceSaving>,
}

impl ShardStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a get (and whether it hit).
    pub fn record_get(&self, hit: bool) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.get_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a put.
    pub fn record_put(&self) {
        self.puts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a remove.
    pub fn record_remove(&self) {
        self.removes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one scan visit to this shard.
    pub fn record_scan(&self) {
        self.scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a batch application to this shard.
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts entries thrown out by the CLOCK hand under memory pressure.
    pub fn record_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts entries dropped because their TTL lapsed.
    pub fn record_expired(&self, n: u64) {
        self.expired.fetch_add(n, Ordering::Relaxed);
    }

    /// Publishes the shard's current live value bytes (a gauge, not a
    /// counter: the latest write wins). An unchanged value writes
    /// nothing, so an op that moved no bytes leaves the line shared.
    pub fn set_mem_bytes(&self, bytes: u64) {
        if self.mem_bytes.load(Ordering::Relaxed) != bytes {
            self.mem_bytes.store(bytes, Ordering::Relaxed);
        }
    }

    /// Attributes one critical section's wait (acquisition) and hold time.
    /// An observed point op passes its own times multiplied by
    /// [`SKETCH_SAMPLE`]: it stands for that many ops.
    pub fn record_lock(&self, wait_ns: u64, hold_ns: u64) {
        self.lock_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        self.lock_hold_ns.fetch_add(hold_ns, Ordering::Relaxed);
    }

    /// Records a service latency that stands for `weight` ops: an
    /// observed point op's weight is [`SKETCH_SAMPLE`], a batch visit's 1.
    pub fn record_latency(&self, ns: u64, weight: u64) {
        self.op_latency.record_n(ns, weight);
    }

    /// Offers an observed point op's key to the hot-key sketch, whose
    /// counts scale each offer back up by [`SKETCH_SAMPLE`]. The offer
    /// takes a tiny uncontended mutex, and a *contended* one is simply
    /// dropped (`try_lock`) — the sketch trades accuracy, never latency,
    /// and like the counters it runs outside the shard lock's critical
    /// section.
    pub fn note_key(&self, key: u64) {
        if let Ok(mut sketch) = self.sketch.try_lock() {
            sketch.offer(key);
        }
    }

    /// Takes a plain-data snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            get_hits: self.get_hits.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            lock_hold_ns: self.lock_hold_ns.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            mem_bytes: self.mem_bytes.load(Ordering::Relaxed),
            latency: self.op_latency.snapshot(),
            top_keys: self.sketch.lock().unwrap_or_else(std::sync::PoisonError::into_inner).top(),
        }
    }
}

/// Plain-data snapshot of one shard's stats (or a merged aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Point lookups.
    pub gets: u64,
    /// Point lookups that found the key.
    pub get_hits: u64,
    /// Point inserts/updates.
    pub puts: u64,
    /// Point deletions.
    pub removes: u64,
    /// Scan visits.
    pub scans: u64,
    /// Batches applied.
    pub batches: u64,
    /// Cumulative lock-acquisition wait, nanoseconds (an estimate: see
    /// the module docs).
    pub lock_wait_ns: u64,
    /// Cumulative lock hold time, nanoseconds (an estimate).
    pub lock_hold_ns: u64,
    /// Entries evicted by the CLOCK hand under memory pressure.
    pub evictions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
    /// Live value bytes resident in the shard's slab (a gauge:
    /// [`StatsSnapshot::merge`] sums shards into the store total,
    /// [`StatsSnapshot::delta`] carries the *later* snapshot's value —
    /// a window reports the residency at its close, not a difference).
    pub mem_bytes: u64,
    /// Point-op service-time histogram: bucket counts estimate all ops,
    /// the max is the max of the observed ones.
    pub latency: HistogramSnapshot,
    /// Hottest keys by estimated touches, hottest first, empty slots
    /// zero-count. Like `mem_bytes` this is gauge-shaped:
    /// [`StatsSnapshot::delta`] carries the later snapshot's sketch and
    /// [`StatsSnapshot::merge`] folds both sketches keeping the heaviest
    /// [`TOP_KEYS`].
    pub top_keys: [HotKey; TOP_KEYS],
}

impl StatsSnapshot {
    /// Total point operations: gets, puts and removes, counting each
    /// write a batch applies as a put or remove.
    pub fn point_ops(&self) -> u64 {
        self.gets + self.puts + self.removes
    }

    /// Get hit rate as a percentage, `None` before the first get — the
    /// report columns render that as `null` rather than inventing 0%.
    pub fn hit_pct(&self) -> Option<f64> {
        (self.gets > 0).then(|| self.get_hits as f64 * 100.0 / self.gets as f64)
    }

    /// The activity recorded between `earlier` and this snapshot — the
    /// windowed view `poly-trace` samples are built from.
    ///
    /// Every component subtracts saturating (counters *and* histogram
    /// buckets): counters are monotonic in normal operation, but a
    /// wrapped or restarted counter must yield an empty window, never a
    /// panic or a garbage near-`u64::MAX` delta that would dwarf every
    /// real sample downstream.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            gets: self.gets.saturating_sub(earlier.gets),
            get_hits: self.get_hits.saturating_sub(earlier.get_hits),
            puts: self.puts.saturating_sub(earlier.puts),
            removes: self.removes.saturating_sub(earlier.removes),
            scans: self.scans.saturating_sub(earlier.scans),
            batches: self.batches.saturating_sub(earlier.batches),
            lock_wait_ns: self.lock_wait_ns.saturating_sub(earlier.lock_wait_ns),
            lock_hold_ns: self.lock_hold_ns.saturating_sub(earlier.lock_hold_ns),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            expired: self.expired.saturating_sub(earlier.expired),
            // Gauge, not counter: the window reports residency at close.
            mem_bytes: self.mem_bytes,
            latency: self.latency.since(&earlier.latency),
            // The sketch is cumulative; a window reports the keys hot as
            // of its close.
            top_keys: self.top_keys,
        }
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.gets += other.gets;
        self.get_hits += other.get_hits;
        self.puts += other.puts;
        self.removes += other.removes;
        self.scans += other.scans;
        self.batches += other.batches;
        self.lock_wait_ns += other.lock_wait_ns;
        self.lock_hold_ns += other.lock_hold_ns;
        self.evictions += other.evictions;
        self.expired += other.expired;
        // Per-shard residency gauges sum into the store-wide total.
        self.mem_bytes += other.mem_bytes;
        self.latency.merge(&other.latency);
        // Fold both sketches: sum estimates for shared keys, then keep
        // the heaviest TOP_KEYS. Shards partition the keyspace, so in
        // practice this interleaves disjoint lists.
        let mut pool: Vec<HotKey> = Vec::with_capacity(2 * TOP_KEYS);
        for hk in self.top_keys.iter().chain(&other.top_keys).filter(|hk| hk.count > 0) {
            match pool.iter_mut().find(|p| p.key == hk.key) {
                Some(p) => p.count += hk.count,
                None => pool.push(*hk),
            }
        }
        pool.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        let mut merged = [HotKey::default(); TOP_KEYS];
        for (dst, src) in merged.iter_mut().zip(pool) {
            *dst = src;
        }
        self.top_keys = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 40, 1000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.max_ns, 1000);
        let p50 = s.percentile(50.0);
        assert!((16..=64).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(99.0);
        assert!((512..=1024).contains(&p99), "p99 = {p99}");
        assert!(s.percentile(100.0) <= 1024);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.percentile(1.0), 1);
        assert_eq!(s.percentile(100.0), u64::MAX);
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Bucket 0 holds only 0; bucket i >= 1 holds [2^(i-1), 2^i).
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        for i in 1..=42usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(LatencyHistogram::bucket_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(LatencyHistogram::bucket_of(hi), i, "upper bound of bucket {i}");
            assert_eq!(
                LatencyHistogram::bucket_of(1u64 << i),
                i + 1,
                "2^{i} opens bucket {}",
                i + 1
            );
        }
        // Everything from 2^43 ns up lands in the final bucket.
        assert_eq!(LatencyHistogram::bucket_of(1u64 << 43), HIST_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        // A power-of-two sample 2^k sits in bucket k+1, whose upper bound
        // is 2^(k+1) — but percentile() caps the answer at the observed
        // max, so a lone sample is reported exactly.
        for k in [3u32, 10, 20] {
            let h = LatencyHistogram::new();
            h.record(1u64 << k);
            assert_eq!(h.snapshot().percentile(100.0), 1u64 << k);
        }
        // With a larger max in play the bound is the bucket's, not the
        // sample's: 9 sits in bucket 4 = [8, 16), reported as 16.
        let h = LatencyHistogram::new();
        h.record(9);
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 16);
        assert_eq!(s.percentile(100.0), 1 << 20);
        // One-past-a-power sample 2^k + 1 rounds up to 2^(k+1).
        let h = LatencyHistogram::new();
        h.record((1 << 10) + 1);
        h.record(1 << 30);
        assert_eq!(h.snapshot().percentile(50.0), 1 << 11);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(99.0), 0);
    }

    #[test]
    fn snapshots_merge_componentwise() {
        let a = ShardStats::new();
        a.record_get(true);
        a.record_put();
        a.record_lock(10, 20);
        a.record_latency(100, 1);
        let b = ShardStats::new();
        b.record_get(false);
        b.record_remove();
        b.record_lock(1, 2);
        b.record_latency(200, 1);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.gets, 2);
        assert_eq!(m.get_hits, 1);
        assert_eq!(m.puts, 1);
        assert_eq!(m.removes, 1);
        assert_eq!(m.point_ops(), 4);
        assert_eq!(m.lock_wait_ns, 11);
        assert_eq!(m.lock_hold_ns, 22);
        assert_eq!(m.latency.count(), 2);
    }

    #[test]
    fn delta_is_the_windowed_view() {
        let s = ShardStats::new();
        s.record_get(true);
        s.record_lock(10, 20);
        s.record_latency(100, 1);
        let base = s.snapshot();
        s.record_get(false);
        s.record_put();
        s.record_lock(5, 7);
        s.record_latency(300, 1);
        let d = s.snapshot().delta(&base);
        assert_eq!(d.gets, 1);
        assert_eq!(d.get_hits, 0);
        assert_eq!(d.puts, 1);
        assert_eq!(d.point_ops(), 2);
        assert_eq!(d.lock_wait_ns, 5);
        assert_eq!(d.lock_hold_ns, 7);
        assert_eq!(d.latency.count(), 1);
    }

    #[test]
    fn delta_of_an_empty_window_is_all_zero() {
        let s = ShardStats::new();
        s.record_get(true);
        s.record_put();
        s.record_lock(3, 4);
        s.record_latency(50, 1);
        let snap = s.snapshot();
        let d = snap.delta(&snap);
        assert_eq!(d.point_ops(), 0, "identical marks must yield an empty window");
        assert_eq!((d.gets, d.get_hits, d.scans, d.batches), (0, 0, 0, 0));
        assert_eq!((d.lock_wait_ns, d.lock_hold_ns), (0, 0));
        assert_eq!(d.latency.count(), 0);
        // The histogram max is carried as-is (an upper bound), never
        // subtracted below a real sample.
        assert_eq!(d.latency.max_ns, snap.latency.max_ns);
    }

    #[test]
    fn cache_counters_merge_and_window() {
        let a = ShardStats::new();
        a.record_evictions(3);
        a.record_expired(1);
        a.set_mem_bytes(100);
        let base = a.snapshot();
        a.record_evictions(2);
        a.set_mem_bytes(40); // shrank: frees outpaced allocs this window
        let now = a.snapshot();
        let d = now.delta(&base);
        assert_eq!(d.evictions, 2);
        assert_eq!(d.expired, 0);
        assert_eq!(d.mem_bytes, 40, "gauge carries the window-close value");

        let b = ShardStats::new();
        b.record_expired(5);
        b.set_mem_bytes(60);
        let mut m = now;
        m.merge(&b.snapshot());
        assert_eq!(m.evictions, 5);
        assert_eq!(m.expired, 6);
        assert_eq!(m.mem_bytes, 100, "per-shard gauges sum to the store total");
    }

    #[test]
    fn hit_pct_is_null_before_the_first_get() {
        assert_eq!(StatsSnapshot::default().hit_pct(), None);
        let s = ShardStats::new();
        s.record_get(true);
        s.record_get(true);
        s.record_get(false);
        s.record_get(false);
        assert_eq!(s.snapshot().hit_pct(), Some(50.0));
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty histogram: every percentile is 0, including the extremes.
        let empty = HistogramSnapshot::default();
        for p in [0.0, 1.0, 50.0, 100.0] {
            assert_eq!(empty.percentile(p), 0, "empty histogram at p={p}");
        }
        // p = 0.0 clamps to rank 1 — the smallest sample's bucket bound,
        // never a rank-0 read before the first bucket.
        let h = LatencyHistogram::new();
        for ns in [10u64, 2_000, 70_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.0), 16, "p0 is the min sample's bucket bound");
        // p = 1.0 with 3 samples: ceil(0.03) clamps to rank 1 too.
        assert_eq!(s.percentile(1.0), 16);
        // Single-bucket histogram: every percentile lands in that bucket,
        // and the observed max caps the reported bound.
        let h = LatencyHistogram::new();
        for _ in 0..5 {
            h.record(9); // all in bucket 4 = [8, 16)
        }
        let s = h.snapshot();
        for p in [0.0, 1.0, 50.0, 100.0] {
            assert_eq!(s.percentile(p), 9, "single-bucket at p={p}");
        }
    }

    #[test]
    fn delta_keeps_the_later_mem_bytes_even_when_the_earlier_is_larger() {
        // The gauge is copied from the later snapshot, never differenced:
        // a shard that shrank must report its (smaller) closing residency,
        // not a saturated 0 or a wrapped near-u64::MAX value.
        let earlier = StatsSnapshot { mem_bytes: 1_000, ..StatsSnapshot::default() };
        let later = StatsSnapshot { mem_bytes: 64, ..StatsSnapshot::default() };
        assert_eq!(later.delta(&earlier).mem_bytes, 64);
        // Symmetric direction for completeness: growth also reports the
        // closing value, not the difference.
        assert_eq!(earlier.delta(&later).mem_bytes, 1_000);
    }

    #[test]
    fn sketch_surfaces_the_heaviest_key() {
        let s = ShardStats::new();
        // 100 observed touches of key 1; 20 background keys at one touch
        // each can churn the low slots but never the top.
        for _ in 0..100 {
            s.note_key(1);
        }
        for k in 100..120u64 {
            s.note_key(k);
        }
        let top = s.snapshot().top_keys;
        assert_eq!(top[0], HotKey { key: 1, count: 100 * SKETCH_SAMPLE }, "{top:?}");
        // Slots are sorted hottest-first and empty slots are zero-count.
        for pair in top.windows(2) {
            assert!(pair[0].count >= pair[1].count, "unsorted sketch: {top:?}");
        }
    }

    #[test]
    fn the_gate_observes_a_threads_first_op_then_one_in_eight() {
        let gaps = std::thread::spawn(|| {
            assert!(observe(), "a thread's first op is observed");
            let (mut gaps, mut last) = (Vec::new(), 0u64);
            for op in 1..80_000u64 {
                if observe() {
                    gaps.push(op - last);
                    last = op;
                }
            }
            gaps
        })
        .join()
        .expect("gate thread");
        assert!(gaps.iter().all(|g| (1..2 * SKETCH_SAMPLE).contains(g)), "gap out of range");
        let observed = gaps.len() as f64 + 1.0;
        let want = 80_000.0 / SKETCH_SAMPLE as f64;
        assert!((observed - want).abs() < 0.05 * want, "{observed} observed, want ~{want}");
        assert!(gaps.windows(2).any(|w| w[0] != w[1]), "the gaps must vary");
    }

    #[test]
    fn top_keys_merge_keeps_the_heaviest_across_shards() {
        let mut a = StatsSnapshot::default();
        a.top_keys[0] = HotKey { key: 1, count: 900 };
        a.top_keys[1] = HotKey { key: 2, count: 50 };
        let mut b = StatsSnapshot::default();
        b.top_keys[0] = HotKey { key: 3, count: 400 };
        b.top_keys[1] = HotKey { key: 1, count: 100 }; // shared key: sums
        a.merge(&b);
        assert_eq!(a.top_keys[0], HotKey { key: 1, count: 1_000 });
        assert_eq!(a.top_keys[1], HotKey { key: 3, count: 400 });
        assert_eq!(a.top_keys[2], HotKey { key: 2, count: 50 });
        assert_eq!(a.top_keys[3], HotKey::default(), "empty slots stay zero");
        // Delta carries the later sketch as-is (cumulative gauge).
        let d = a.delta(&b);
        assert_eq!(d.top_keys, a.top_keys);
    }

    #[test]
    fn delta_saturates_on_counter_wrap() {
        // A wrapped (or restarted) counter makes the "later" snapshot
        // smaller than the base; the delta must clamp to zero in every
        // component, not wrap to ~u64::MAX.
        let mut later = StatsSnapshot {
            gets: 3,
            get_hits: 1,
            puts: 0,
            removes: 0,
            scans: 0,
            batches: 0,
            lock_wait_ns: 10,
            lock_hold_ns: 0,
            ..StatsSnapshot::default()
        };
        later.latency.buckets[4] = 2;
        let mut base = later;
        base.gets = u64::MAX - 5; // wrapped since the base was taken
        base.puts = 7;
        base.lock_wait_ns = 4;
        base.lock_hold_ns = 1_000;
        base.latency.buckets[4] = 9;
        let d = later.delta(&base);
        assert_eq!(d.gets, 0);
        assert_eq!(d.puts, 0);
        assert_eq!(d.lock_hold_ns, 0);
        assert_eq!(d.latency.buckets[4], 0, "histogram buckets saturate too");
        // Components that did move still report their real delta.
        assert_eq!(d.lock_wait_ns, 6);
    }
}

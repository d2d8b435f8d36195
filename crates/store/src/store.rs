//! The sharded store: byte values, point ops, epoch-guarded scans, batch
//! application, and cache semantics (TTL + CLOCK eviction) under a
//! memory budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockin::{Mutexee, RwLock};
use poly_locks_sim::LockKind;

use crate::anylock::AnyLock;
use crate::batch::WriteBatch;
use crate::slab::{Slab, SlabHandle};
use crate::stats::{observe, LatencyHistogram, ShardStats, StatsSnapshot, SKETCH_SAMPLE};

/// Construction parameters of a [`PolyStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of shards (floored at 1).
    pub shards: usize,
    /// Lock algorithm guarding each shard.
    pub lock: LockKind,
    /// Store-wide cap on live value bytes, split evenly across shards.
    /// `None` disables eviction entirely (the pre-cache behavior).
    pub mem_budget: Option<u64>,
    /// TTL stamped on every put that does not carry its own. `None`
    /// means entries never expire unless put via
    /// [`PolyStore::put_with_ttl`].
    pub default_ttl: Option<Duration>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { shards: 16, lock: LockKind::Mutexee, mem_budget: None, default_ttl: None }
    }
}

/// Expiry stamp meaning "never".
const NEVER: u64 = u64::MAX;

/// Store-clock nanoseconds between two `eviction_sweep` events of one
/// shard: evictions in between are summed into the later event.
const SWEEP_EVENT_PERIOD_NS: u64 = 1_000_000_000;

/// One live entry: where its bytes sit in the shard slab plus the cache
/// metadata the CLOCK hand and the TTL check read.
struct Entry {
    handle: SlabHandle,
    len: u32,
    /// Store-clock nanoseconds after which the entry is dead; [`NEVER`]
    /// when the entry has no TTL.
    expires_at_ns: u64,
    /// This entry's slot in the shard's CLOCK ring, kept for its life.
    ring: u32,
    /// CLOCK reference bit: set by a hit or an overwrite, cleared when
    /// the hand sweeps past, evicted when found clear.
    referenced: bool,
}

/// Everything a shard guards under its lock: the index, the value arena,
/// and the CLOCK ring the hand walks (`ring[i]` is a key). A live entry
/// owns one slot from insert to eviction or removal: an overwrite
/// updates the entry in place. A slot is *stale* when its key is gone or
/// owns a different slot; only removes and expiry leave one behind, and
/// the hand or the compactor reclaims it lazily.
struct ShardData {
    map: HashMap<u64, Entry>,
    slab: Slab,
    ring: Vec<u64>,
    hand: usize,
    /// What the CLOCK hand reclaimed since the shard's last
    /// `eviction_sweep` event.
    unreported: Sweep,
    /// Store clock of the shard's last `eviction_sweep` event; `None`
    /// until the first eviction.
    last_sweep_event_ns: Option<u64>,
}

/// Entries the CLOCK hand reclaimed: evicted live ones and expired ones.
#[derive(Default, Clone, Copy)]
struct Sweep {
    evicted: u64,
    expired: u64,
}

/// What one shard-level mutation did, reported out of the critical
/// section so stats recording never extends the lock hold.
#[derive(Default)]
struct Outcome {
    /// The op met a live entry: a hit, an overwrite or a removal. Its
    /// bytes went to the op's sink, if it had one.
    found: bool,
    evicted: u64,
    expired: u64,
    /// A shard's summed sweeps, due as one `eviction_sweep` event.
    sweep_event: Option<Sweep>,
}

impl ShardData {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slab: Slab::new(),
            ring: Vec::new(),
            hand: 0,
            unreported: Sweep::default(),
            last_sweep_event_ns: None,
        }
    }

    /// Adds one sweep to the unreported sums and hands them out when an
    /// event is due: at the shard's first eviction, then at most once per
    /// [`SWEEP_EVENT_PERIOD_NS`] of store clock.
    fn summarise(&mut self, sweep: Sweep, now_ns: u64) -> Option<Sweep> {
        self.unreported.evicted += sweep.evicted;
        self.unreported.expired += sweep.expired;
        let due = match self.last_sweep_event_ns {
            None => true,
            Some(last) => now_ns >= last.saturating_add(SWEEP_EVENT_PERIOD_NS),
        };
        if self.unreported.evicted == 0 || !due {
            return None;
        }
        self.last_sweep_event_ns = Some(now_ns);
        Some(std::mem::take(&mut self.unreported))
    }

    /// Removes `key` outright at store clock `now_ns`: a live entry's
    /// bytes are appended to `sink`, if there is one; an expired entry
    /// only counts as an expiration. The ring slot goes stale rather than
    /// being compacted eagerly.
    fn remove(&mut self, key: u64, now_ns: u64, sink: Option<&mut Vec<u8>>) -> Outcome {
        let mut out = Outcome::default();
        let Some(e) = self.map.remove(&key) else {
            return out;
        };
        if e.expires_at_ns <= now_ns {
            out.expired = 1;
        } else {
            out.found = true;
            if let Some(sink) = sink {
                sink.extend_from_slice(self.slab.get(e.handle, e.len as usize));
            }
        }
        self.slab.free(e.handle, e.len as usize);
        out
    }

    /// Point lookup with TTL enforcement: a hit's bytes are appended to
    /// `sink` and set the reference bit; an expired entry is dropped and
    /// reported as a miss.
    fn get(&mut self, key: u64, now_ns: u64, sink: &mut Vec<u8>) -> Outcome {
        let hit = match self.map.get_mut(&key) {
            None => return Outcome::default(),
            Some(e) if e.expires_at_ns <= now_ns => None,
            Some(e) => {
                e.referenced = true;
                Some((e.handle, e.len as usize))
            }
        };
        match hit {
            Some((h, len)) => {
                sink.extend_from_slice(self.slab.get(h, len));
                Outcome { found: true, ..Outcome::default() }
            }
            None => self.remove(key, now_ns, None),
        }
    }

    /// Insert or overwrite at store clock `now_ns`.
    ///
    /// An overwrite of a live key updates the entry in place and counts
    /// as a reference, as in textbook CLOCK: the entry keeps its map and
    /// ring slots, its reference bit is set, and the old bytes are
    /// appended to `sink`, if there is one. Its old block is freed, the
    /// hand makes room around the entry (pinned, so never its own victim)
    /// and the entry moves to a new block. For a value of the same size
    /// class that is the block just freed: the class freelist is LIFO,
    /// and the freed bytes already make room, so the hand does not move.
    ///
    /// An absent key is inserted at the ring's tail with its reference
    /// bit clear, so cold inserts are first in line for the hand. An
    /// expired entry is dropped first (one expiration, nothing to `sink`)
    /// and its key inserted afresh.
    ///
    /// A value whose charged block exceeds the whole per-shard budget is
    /// *refused* (the old entry, if any, is still removed and its bytes
    /// still go to `sink`): storing it would either bust the budget or
    /// wipe the shard.
    fn put(
        &mut self,
        key: u64,
        value: &[u8],
        expires_at_ns: u64,
        budget: Option<u64>,
        now_ns: u64,
        sink: Option<&mut Vec<u8>>,
    ) -> Outcome {
        let need = Slab::block_size(value.len()) as u64;
        let refused = budget.is_some_and(|b| need > b);
        let mut out = Outcome::default();
        match self.map.get_mut(&key) {
            Some(e) if e.expires_at_ns > now_ns && !refused => {
                out.found = true;
                if let Some(sink) = sink {
                    sink.extend_from_slice(self.slab.get(e.handle, e.len as usize));
                }
                e.referenced = true;
                e.expires_at_ns = expires_at_ns;
                let old_len = std::mem::replace(&mut e.len, value.len() as u32) as usize;
                self.slab.free(e.handle, old_len);
                self.make_room(need, budget, now_ns, Some(key), &mut out);
                let handle = self.slab.alloc(value);
                self.map.get_mut(&key).expect("the hand steps over a pinned key").handle = handle;
                return out;
            }
            Some(_) => out = self.remove(key, now_ns, sink),
            None => {}
        }
        if refused {
            self.maybe_compact();
            return out;
        }
        self.make_room(need, budget, now_ns, None, &mut out);
        let handle = self.slab.alloc(value);
        let ring = self.ring.len() as u32;
        self.ring.push(key);
        self.map.insert(
            key,
            Entry { handle, len: value.len() as u32, expires_at_ns, ring, referenced: false },
        );
        self.maybe_compact();
        out
    }

    /// Under a `budget`, runs the CLOCK hand until `need` more bytes fit
    /// and books what it reclaimed into `out`. Stale slots are reclaimed
    /// on contact; expired entries are dropped (and counted as
    /// expirations, not evictions); referenced entries get a second
    /// chance; the `pinned` entry (an overwrite whose old block is
    /// already freed) is stepped over. Terminates: every other step frees
    /// bytes, clears a reference bit, or removes a ring slot, and the
    /// pinned entry holds no bytes, so a lap over budget always reaches
    /// one of those.
    fn make_room(
        &mut self,
        need: u64,
        budget: Option<u64>,
        now_ns: u64,
        pinned: Option<u64>,
        out: &mut Outcome,
    ) {
        let Some(budget) = budget else {
            return;
        };
        let mut sweep = Sweep::default();
        let mut second_chances = self.ring.len();
        while self.slab.mem_bytes() + need > budget && !self.ring.is_empty() {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand];
            let live = matches!(self.map.get(&key), Some(e) if e.ring as usize == self.hand);
            if !live {
                self.remove_ring_slot(self.hand);
                continue;
            }
            if pinned == Some(key) {
                self.hand += 1;
                continue;
            }
            let e = self.map.get_mut(&key).expect("checked live above");
            if e.expires_at_ns > now_ns && e.referenced && second_chances > 0 {
                e.referenced = false;
                second_chances -= 1;
                self.hand += 1;
                continue;
            }
            let was_expired = e.expires_at_ns <= now_ns;
            let e = self.map.remove(&key).expect("checked live above");
            self.slab.free(e.handle, e.len as usize);
            self.remove_ring_slot(self.hand);
            if was_expired {
                sweep.expired += 1;
            } else {
                sweep.evicted += 1;
            }
        }
        out.evicted += sweep.evicted;
        out.expired += sweep.expired;
        out.sweep_event = self.summarise(sweep, now_ns);
    }

    /// Drops ring slot `i` by swap-remove, re-pointing the entry that
    /// owned the moved (previously last) slot. The hand stays put: the
    /// moved element now occupies `i` and gets examined next.
    fn remove_ring_slot(&mut self, i: usize) {
        let old_last = self.ring.len() - 1;
        self.ring.swap_remove(i);
        if i < self.ring.len() {
            let moved = self.ring[i];
            if let Some(e) = self.map.get_mut(&moved) {
                if e.ring as usize == old_last {
                    e.ring = i as u32;
                }
            }
        }
    }

    /// Rebuilds the ring without stale slots once they outnumber live
    /// entries (plus slack, so small shards never bother). Order and the
    /// hand's position are preserved.
    fn maybe_compact(&mut self) {
        if self.ring.len() < 2 * self.map.len() + 64 {
            return;
        }
        let mut fresh = Vec::with_capacity(self.map.len());
        let mut new_hand = 0;
        for (i, &key) in self.ring.iter().enumerate() {
            if i == self.hand {
                new_hand = fresh.len();
            }
            if matches!(self.map.get(&key), Some(e) if e.ring as usize == i) {
                fresh.push(key);
            }
        }
        for (i, &key) in fresh.iter().enumerate() {
            self.map.get_mut(&key).expect("compact keeps live keys").ring = i as u32;
        }
        self.ring = fresh;
        self.hand = new_hand;
    }
}

/// A sharded `u64 -> bytes` key-value store over a runtime-selected
/// [`LockKind`] backend, with Memcached-style cache semantics.
///
/// * **Point ops** ([`get`](PolyStore::get), [`put`](PolyStore::put),
///   [`remove`](PolyStore::remove)) touch exactly one shard lock. Values
///   are arbitrary byte strings held in a per-shard [`Slab`]. Each op's
///   `*_into` form ([`get_into`](PolyStore::get_into) and its siblings)
///   appends the bytes it finds to the caller's buffer under the lock,
///   so a server can copy a value from the slab into its reply without
///   an allocation. The [`get_u64`](PolyStore::get_u64) /
///   [`put_u64`](PolyStore::put_u64) conveniences store a `u64` as its 8
///   little-endian bytes.
/// * **TTL**: every entry carries an optional expiry against the store's
///   internal clock ([`StoreConfig::default_ttl`],
///   [`put_with_ttl`](PolyStore::put_with_ttl)); expired entries read as
///   misses and are dropped on contact.
/// * **Eviction**: under a [`StoreConfig::mem_budget`] (split evenly
///   across shards) each shard runs a CLOCK hand over its entries —
///   LRU-approximating, one reference bit, no per-access list surgery.
/// * **Scans** ([`scan`](PolyStore::scan)) hold the store-wide *epoch*
///   rwlock in read mode while visiting shards one at a time, so an epoch
///   bump ([`bump_epoch`](PolyStore::bump_epoch) — the maintenance /
///   compaction slot) cannot run mid-scan, and a scan observes a single
///   epoch end to end.
/// * **Batches** ([`apply`](PolyStore::apply)) group writes by shard and
///   take each shard lock once.
///
/// Every operation feeds the owning shard's [`ShardStats`]: exact op
/// counts, hit/miss/eviction/expiry counts and live-byte gauges, and
/// estimates of lock wait/hold time and of the service-time histogram
/// from about one point op in [`SKETCH_SAMPLE`] — the raw material for
/// the [`crate::energy`] bridge's joules-per-op estimate.
pub struct PolyStore {
    shards: Box<[Shard]>,
    lock: LockKind,
    epoch: RwLock<u64, Mutexee>,
    scan_latency: LatencyHistogram,
    /// Per-shard slice of `StoreConfig::mem_budget`.
    shard_budget: Option<u64>,
    default_ttl: Option<Duration>,
    /// Store clock origin; the store clock (TTL stamps and sweep event
    /// spacing) is the time elapsed since here...
    origin: Instant,
    /// ...plus this artificial skew, advanced by tests (and only tests)
    /// via [`PolyStore::advance_clock`] so expiry is exercisable without
    /// real sleeps.
    skew_ns: AtomicU64,
}

struct Shard {
    data: AnyLock<ShardData>,
    stats: ShardStats,
}

impl PolyStore {
    /// Builds an empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        let n = cfg.shards.max(1);
        let shards = (0..n)
            .map(|_| Shard {
                data: AnyLock::new(cfg.lock, ShardData::new()),
                stats: ShardStats::new(),
            })
            .collect();
        Self {
            shards,
            lock: cfg.lock,
            epoch: RwLock::new(0),
            scan_latency: LatencyHistogram::new(),
            shard_budget: cfg.mem_budget.map(|b| b / n as u64),
            default_ttl: cfg.default_ttl,
            origin: Instant::now(),
            skew_ns: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lock backend guarding each shard.
    pub fn lock_kind(&self) -> LockKind {
        self.lock
    }

    /// The per-shard memory budget, if eviction is enabled.
    pub fn shard_budget(&self) -> Option<u64> {
        self.shard_budget
    }

    /// Live value bytes across all shards (block-size charged; see
    /// [`Slab::mem_bytes`]). A residency read, not an op: its untimed
    /// shard visits book no lock time.
    pub fn mem_bytes(&self) -> u64 {
        (0..self.shards.len()).map(|i| self.with_shard(i, None, |_| ()).1).sum()
    }

    /// Advances the store clock without waiting — a test aid that makes
    /// expiry and the spacing of `eviction_sweep` events deterministic.
    pub fn advance_clock(&self, by: Duration) {
        self.skew_ns.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The store clock at instant `t`, in nanoseconds.
    fn clock_ns(&self, t: Instant) -> u64 {
        nanos(self.origin, t).saturating_add(self.skew_ns.load(Ordering::Relaxed))
    }

    /// The expiry stamp, at store clock `now_ns`, for a put carrying
    /// `ttl` (falling back to the store default, then to "never").
    fn deadline(&self, ttl: Option<Duration>, now_ns: u64) -> u64 {
        match ttl.or(self.default_ttl) {
            None => NEVER,
            Some(d) => now_ns.saturating_add(d.as_nanos() as u64),
        }
    }

    /// Shard index owning `key` (Fibonacci multiplicative hash, so
    /// sequential keys spread across shards).
    pub fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    /// Runs `f` under shard `idx`'s lock and returns its result with the
    /// shard's residency after `f` and, for a timed visit, the release
    /// instant `t2`. A timed visit passes `(t0, weight)`: `t0` is the
    /// caller's entry instant, where the lock wait starts, so the visit
    /// reads the clock only at acquisition (`t1`) and release, and books
    /// wait = `t1 - t0` and hold = `t2 - t1` for `weight` visits. An
    /// untimed visit reads no clock and books no lock time. The residency
    /// is published to the shard's gauge before the release, so the gauge
    /// moves in the order the shard's visits ran and equals the slab's
    /// residency whenever the shard is idle.
    fn with_shard<R>(
        &self,
        idx: usize,
        timed: Option<(Instant, u64)>,
        f: impl FnOnce(&mut ShardData) -> R,
    ) -> (R, u64, Option<Instant>) {
        let shard = &self.shards[idx];
        let mut guard = shard.data.lock();
        let acquired = timed.map(|timed| (timed, clock()));
        let r = f(&mut guard);
        let mem = guard.slab.mem_bytes();
        shard.stats.set_mem_bytes(mem);
        drop(guard);
        let t2 = acquired.map(|((t0, weight), t1)| {
            let t2 = clock();
            shard.stats.record_lock(weight * nanos(t0, t1), weight * nanos(t1, t2));
            t2
        });
        (r, mem, t2)
    }

    /// Books an [`Outcome`]'s cache effects against shard `idx` and
    /// journals its sweep summary, if one is due, with `mem`, the
    /// shard's residency when the op released the lock.
    fn record_outcome(&self, idx: usize, out: &Outcome, mem: u64) {
        let stats = &self.shards[idx].stats;
        if out.evicted > 0 {
            stats.record_evictions(out.evicted);
        }
        if out.expired > 0 {
            stats.record_expired(out.expired);
        }
        if let Some(sweep) = out.sweep_event {
            // Counters say how many entries died; the journal says where
            // the hand ran and what it reclaimed, summed per shard so a
            // churning cache journals about one event per shard per
            // second instead of one per evicting put. Written after this
            // op's evictions are counted: once the ops that evicted have
            // returned, a shard's events never sum past its counter.
            poly_obs::journal().emit(
                poly_obs::Level::Info,
                "eviction_sweep",
                &[
                    ("shard", idx.to_string()),
                    ("evicted", sweep.evicted.to_string()),
                    ("expired", sweep.expired.to_string()),
                    ("mem_bytes", mem.to_string()),
                ],
            );
        }
    }

    /// One point op on `key`'s shard: `op` runs under the lock at the
    /// store clock of entry; `count` books the op kind after release. The
    /// thread's gate ([`observe`]) picks about one op in [`SKETCH_SAMPLE`]
    /// to observe: besides the entry clock it reads the clock at
    /// acquisition and release, and books its lock wait and hold, its
    /// service time (entry to release) and its key sample for
    /// `SKETCH_SAMPLE` ops. Any other op reads only the entry clock.
    /// Returns whether the op met a live entry.
    fn point_op(
        &self,
        key: u64,
        op: impl FnOnce(&mut ShardData, u64) -> Outcome,
        count: impl FnOnce(&ShardStats, &Outcome),
    ) -> bool {
        let observed = observe();
        let t0 = clock();
        let now = self.clock_ns(t0);
        let idx = self.shard_of(key);
        let timed = observed.then_some((t0, SKETCH_SAMPLE));
        let (out, mem, t2) = self.with_shard(idx, timed, |s| op(s, now));
        self.record_outcome(idx, &out, mem);
        let stats = &self.shards[idx].stats;
        count(stats, &out);
        // Only a timed visit returns its release instant.
        if let Some(t2) = t2 {
            stats.note_key(key);
            stats.record_latency(nanos(t0, t2), SKETCH_SAMPLE);
        }
        out.found
    }

    /// Point lookup into the caller's buffer: a hit's bytes are appended
    /// to `sink` under the shard lock, and the call says whether there
    /// was a hit. A miss leaves `sink` as it was, and so does an entry
    /// past its TTL, which reads as a miss (and is dropped). A hit marks
    /// the entry recently used for the CLOCK hand.
    pub fn get_into(&self, key: u64, sink: &mut Vec<u8>) -> bool {
        self.point_op(key, |s, now| s.get(key, now, sink), |stats, out| stats.record_get(out.found))
    }

    /// [`get_into`](PolyStore::get_into) a fresh `Vec`: the hit's bytes,
    /// or `None`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        owned(|sink| self.get_into(key, sink))
    }

    /// Point insert/update with the store's default TTL, into the
    /// caller's buffer: the previous live value is appended to `sink`
    /// under the shard lock, and the call says whether there was one.
    /// Under a memory budget the shard evicts via CLOCK until the value
    /// fits; a value too large for the whole shard budget is refused (the
    /// put still removes any old entry, whose bytes still go to `sink`).
    pub fn put_into(&self, key: u64, value: &[u8], sink: &mut Vec<u8>) -> bool {
        self.put_at(key, value, None, sink)
    }

    /// [`put_into`](PolyStore::put_into) a fresh `Vec`: the previous live
    /// value, or `None`.
    pub fn put(&self, key: u64, value: &[u8]) -> Option<Vec<u8>> {
        self.put_with_ttl(key, value, None)
    }

    /// [`put`](PolyStore::put) with an explicit TTL override.
    pub fn put_with_ttl(&self, key: u64, value: &[u8], ttl: Option<Duration>) -> Option<Vec<u8>> {
        owned(|sink| self.put_at(key, value, ttl, sink))
    }

    fn put_at(&self, key: u64, value: &[u8], ttl: Option<Duration>, sink: &mut Vec<u8>) -> bool {
        let budget = self.shard_budget;
        self.point_op(
            key,
            |s, now| s.put(key, value, self.deadline(ttl, now), budget, now, Some(sink)),
            |stats, _| stats.record_put(),
        )
    }

    /// Point deletion into the caller's buffer: the removed value's
    /// bytes are appended to `sink` under the shard lock, and the call
    /// says whether there was one. An absent or already expired key
    /// leaves `sink` as it was.
    pub fn remove_into(&self, key: u64, sink: &mut Vec<u8>) -> bool {
        self.point_op(
            key,
            |s, now| s.remove(key, now, Some(sink)),
            |stats, _| stats.record_remove(),
        )
    }

    /// [`remove_into`](PolyStore::remove_into) a fresh `Vec`: the removed
    /// value, or `None`.
    pub fn remove(&self, key: u64) -> Option<Vec<u8>> {
        owned(|sink| self.remove_into(key, sink))
    }

    /// [`get`](PolyStore::get) decoded as a little-endian `u64`. `None`
    /// for misses *and* for values that are not exactly 8 bytes.
    pub fn get_u64(&self, key: u64) -> Option<u64> {
        decode_u64(self.get(key))
    }

    /// [`put`](PolyStore::put) of a `u64` in its 8-byte little-endian
    /// encoding; returns the previous value when it was itself 8 bytes.
    pub fn put_u64(&self, key: u64, value: u64) -> Option<u64> {
        decode_u64(self.put(key, &value.to_le_bytes()))
    }

    /// [`remove`](PolyStore::remove) decoded as a little-endian `u64`.
    pub fn remove_u64(&self, key: u64) -> Option<u64> {
        decode_u64(self.remove(key))
    }

    /// Applies a [`WriteBatch`], taking each touched shard's lock exactly
    /// once. Writes within a shard land atomically and in batch order;
    /// puts carry the store's default TTL.
    pub fn apply(&self, batch: &WriteBatch) {
        if batch.is_empty() {
            return;
        }
        let now = self.clock_ns(clock());
        let expires = self.deadline(None, now);
        let budget = self.shard_budget;
        // Bucket ops by shard, preserving order within each shard. A
        // `None` value is a remove.
        type ShardOps<'a> = Vec<(u64, Option<&'a [u8]>)>;
        let mut by_shard: Vec<ShardOps> = vec![Vec::new(); self.shards.len()];
        for (key, val) in batch.ops() {
            by_shard[self.shard_of(*key)].push((*key, val.as_deref()));
        }
        for (idx, ops) in by_shard.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let t0 = clock();
            let (out, mem, t2) = self.with_shard(idx, Some((t0, 1)), |s| {
                let mut out = Outcome::default();
                for &(key, val) in ops {
                    let o = match val {
                        Some(v) => s.put(key, v, expires, budget, now, None),
                        None => s.remove(key, now, None),
                    };
                    out.evicted += o.evicted;
                    out.expired += o.expired;
                    // One store clock per visit: at most one put in it
                    // hands out a sweep summary.
                    out.sweep_event = out.sweep_event.or(o.sweep_event);
                }
                out
            });
            self.record_outcome(idx, &out, mem);
            let stats = &self.shards[idx].stats;
            stats.record_batch();
            for &(_, val) in ops {
                if val.is_some() {
                    stats.record_put();
                } else {
                    stats.record_remove();
                }
            }
            if let Some(t2) = t2 {
                stats.record_latency(nanos(t0, t2), 1);
            }
        }
    }

    /// Epoch-guarded scan: visits every live (unexpired) entry shard by
    /// shard under the epoch read lock and returns the epoch the scan
    /// observed. Expired entries are skipped, not dropped — a scan is
    /// read-shaped and leaves reclamation to point ops and the hand.
    ///
    /// Point writes can proceed concurrently (the scan holds each shard
    /// lock only while copying that shard out), but maintenance
    /// ([`bump_epoch`](PolyStore::bump_epoch)) is excluded for the whole
    /// scan, so all visited shards belong to one epoch.
    pub fn scan<F: FnMut(u64, &[u8])>(&self, mut f: F) -> u64 {
        let t0 = clock();
        let now = self.clock_ns(t0);
        let epoch = self.epoch.read();
        let mut released = t0;
        for idx in 0..self.shards.len() {
            self.shards[idx].stats.record_scan();
            // Timed on every visit, so scan-side contention reaches the
            // wait/hold stats (and thus the energy model) too.
            let visit = self.with_shard(idx, Some((clock(), 1)), |s| {
                for (&k, e) in s.map.iter() {
                    if e.expires_at_ns > now {
                        f(k, s.slab.get(e.handle, e.len as usize));
                    }
                }
            });
            released = visit.2.unwrap_or(released);
        }
        let e = *epoch;
        drop(epoch);
        self.scan_latency.record(nanos(t0, released));
        e
    }

    /// Number of live entries across all shards (a scan that only counts).
    pub fn len(&self) -> u64 {
        let mut n = 0u64;
        self.scan(|_, _| n += 1);
        n
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current maintenance epoch.
    pub fn epoch(&self) -> u64 {
        *self.epoch.read()
    }

    /// Enters the maintenance slot: waits out in-flight scans (epoch write
    /// lock), bumps the epoch, and returns the new value. This is where a
    /// real service would compact/resize; the exclusion is what matters.
    pub fn bump_epoch(&self) -> u64 {
        let mut e = self.epoch.write();
        *e += 1;
        *e
    }

    /// Per-shard stats snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// All shards' stats merged (counters summed, `mem_bytes` gauges
    /// summed into the store-wide residency), plus scan service times
    /// folded into the latency histogram.
    pub fn total_stats(&self) -> StatsSnapshot {
        self.stats_with_shards().0
    }

    /// The merged total *and* the per-shard snapshots it was merged from,
    /// in one snapshot pass. A caller that needs both views coherent —
    /// the heat collector's telescoping invariant requires Σ per-shard
    /// point-op deltas == aggregate point-op delta *exactly*, per window —
    /// must use this instead of calling [`PolyStore::total_stats`] and
    /// [`PolyStore::shard_stats`] back to back, where ops landing between
    /// the two passes would break the equality.
    pub fn stats_with_shards(&self) -> (StatsSnapshot, Vec<StatsSnapshot>) {
        let shards = self.shard_stats();
        let mut total = StatsSnapshot::default();
        for s in &shards {
            total.merge(s);
        }
        // Scan service times live store-wide, not per shard; folding them
        // here touches only the histogram, never point_ops, so the
        // shard/total point-op equality holds by construction.
        total.latency.merge(&self.scan_latency.snapshot());
        (total, shards)
    }

    /// Registers the store's counters, residency gauge, and point-op
    /// service-time histogram into a metric registry. Every collector
    /// closure reads [`PolyStore::total_stats`] — the same atomics the
    /// native snapshot path reads — so a scrape at quiesce equals the
    /// corresponding [`StatsSnapshot`] field exactly.
    pub fn register_metrics(self: &Arc<Self>, reg: &poly_obs::MetricRegistry) {
        let counter = |name, help: &str, read: fn(&StatsSnapshot) -> u64| {
            let store = Arc::clone(self);
            reg.register_counter(name, help, &[], move || read(&store.total_stats()));
        };
        counter("store_gets_total", "Point lookups.", |s| s.gets);
        counter("store_get_hits_total", "Point lookups that found the key.", |s| s.get_hits);
        counter("store_puts_total", "Point inserts/updates.", |s| s.puts);
        counter("store_removes_total", "Point deletions.", |s| s.removes);
        counter("store_scans_total", "Scan visits to shards.", |s| s.scans);
        counter("store_batches_total", "Batches applied to shards.", |s| s.batches);
        counter("store_evictions_total", "Entries evicted by the CLOCK hand.", |s| s.evictions);
        counter("store_expired_total", "Entries dropped because their TTL lapsed.", |s| s.expired);
        let sampled = format!(
            "estimated from about one point op in {SKETCH_SAMPLE} plus each thread's first, \
             each counted {SKETCH_SAMPLE} times; those ops read two more clocks than the rest, \
             so the estimate overstates the rest by about that cost"
        );
        counter(
            "store_lock_wait_ns_total",
            &format!("Cumulative shard-lock acquisition wait, nanoseconds; {sampled}."),
            |s| s.lock_wait_ns,
        );
        counter(
            "store_lock_hold_ns_total",
            &format!("Cumulative shard-lock hold time, nanoseconds; {sampled}."),
            |s| s.lock_hold_ns,
        );
        let store = Arc::clone(self);
        reg.register_gauge_u64(
            "store_mem_bytes",
            "Live value bytes resident across all shards.",
            &[],
            move || store.total_stats().mem_bytes,
        );
        let store = Arc::clone(self);
        reg.register_histogram(
            "store_op_latency_ns",
            &format!(
                "Point-op service time from entry to shard-lock release (lock wait + hold), \
                 nanoseconds (log-scaled buckets); {sampled}."
            ),
            &[],
            move || store.total_stats().latency.buckets.to_vec(),
        );
    }
}

/// Reads the monotonic clock. Every store clock read goes through here,
/// so the unit tests can count them per op.
fn clock() -> Instant {
    #[cfg(test)]
    tests::CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// Runs a `*_into` point op into a fresh `Vec`: the bytes it appended,
/// if it met a live entry.
fn owned(op: impl FnOnce(&mut Vec<u8>) -> bool) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    op(&mut bytes).then_some(bytes)
}

/// Nanoseconds from `from` to `to`, zero if `to` is earlier.
fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The `u64` value view: exactly 8 little-endian bytes decode, anything
/// else is `None`.
fn decode_u64(bytes: Option<Vec<u8>>) -> Option<u64> {
    let b = bytes?;
    let arr: [u8; 8] = b.as_slice().try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// This thread's store clock reads, counted by [`clock`].
        pub(super) static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn point_ops_round_trip() {
        let store =
            PolyStore::new(StoreConfig { shards: 4, lock: LockKind::Ttas, ..Default::default() });
        assert_eq!(store.put_u64(1, 10), None);
        assert_eq!(store.put_u64(1, 11), Some(10));
        assert_eq!(store.get_u64(1), Some(11));
        assert_eq!(store.get_u64(2), None);
        assert_eq!(store.remove_u64(1), Some(11));
        assert_eq!(store.get_u64(1), None);
        let t = store.total_stats();
        assert_eq!(t.puts, 2);
        assert_eq!(t.gets, 3);
        assert_eq!(t.get_hits, 1);
        assert_eq!(t.removes, 1);
        assert!(t.latency.count() >= 6);
        assert!(t.lock_hold_ns > 0);
    }

    #[test]
    fn byte_values_round_trip_at_any_length() {
        let store = PolyStore::new(StoreConfig::default());
        let vals: Vec<Vec<u8>> =
            [0usize, 1, 8, 100, 4096, 9000].iter().map(|&n| vec![0xAB; n]).collect();
        for (k, v) in vals.iter().enumerate() {
            assert_eq!(store.put(k as u64, v), None);
        }
        for (k, v) in vals.iter().enumerate() {
            assert_eq!(store.get(k as u64).as_deref(), Some(v.as_slice()));
        }
        // Non-8-byte values are invisible through the u64 view.
        assert_eq!(store.get_u64(3), None);
        assert_eq!(store.get_u64(2), Some(u64::from_le_bytes([0xAB; 8])));
        let total = store.total_stats();
        assert!(total.mem_bytes >= 4096 + 9000, "gauge tracks residency");
        assert_eq!(store.mem_bytes(), total.mem_bytes);
    }

    #[test]
    fn batch_applies_once_per_shard() {
        let store =
            PolyStore::new(StoreConfig { shards: 2, lock: LockKind::Mutex, ..Default::default() });
        let mut batch = WriteBatch::new();
        for k in 0..100 {
            batch.put_u64(k, k * 2);
        }
        batch.remove(0);
        store.apply(&batch);
        assert_eq!(store.get_u64(0), None);
        assert_eq!(store.get_u64(7), Some(14));
        assert_eq!(store.len(), 99);
        let total = store.total_stats();
        assert_eq!(total.puts, 100);
        assert_eq!(total.removes, 1);
        // 101 writes, but at most one batch (= one lock acquisition
        // beyond the stats' view) per shard.
        assert_eq!(total.batches, 2);
    }

    #[test]
    fn scans_observe_one_epoch() {
        let store = PolyStore::new(StoreConfig {
            shards: 8,
            lock: LockKind::Mutexee,
            ..Default::default()
        });
        for k in 0..50 {
            store.put_u64(k, k);
        }
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.bump_epoch(), 1);
        let mut seen = 0u64;
        let epoch = store.scan(|_, v| seen += u64::from_le_bytes(v.try_into().unwrap()));
        assert_eq!(epoch, 1);
        assert_eq!(seen, (0..50).sum::<u64>());
        assert_eq!(store.len(), 50);
        let total = store.total_stats();
        // scan() + len() each visit all 8 shards.
        assert_eq!(total.scans, 2 * 8);
    }

    #[test]
    fn keys_spread_across_shards() {
        let store =
            PolyStore::new(StoreConfig { shards: 8, lock: LockKind::Ticket, ..Default::default() });
        for k in 0..1024 {
            store.put_u64(k, k);
        }
        let per_shard = store.shard_stats();
        let non_empty = per_shard.iter().filter(|s| s.puts > 0).count();
        assert_eq!(non_empty, 8, "sequential keys must not pile onto one shard");
        let max = per_shard.iter().map(|s| s.puts).max().unwrap();
        assert!(max < 1024 / 2, "one shard absorbed {max} of 1024 puts");
    }

    #[test]
    fn ttl_expires_entries() {
        let store = PolyStore::new(StoreConfig {
            shards: 2,
            default_ttl: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        store.put(1, b"soon gone");
        store.put_with_ttl(2, b"stays", Some(Duration::from_secs(3600)));
        assert_eq!(store.get(1).as_deref(), Some(&b"soon gone"[..]));
        store.advance_clock(Duration::from_secs(61));
        assert_eq!(store.get(1), None, "default-TTL entry expired");
        assert_eq!(store.get(2).as_deref(), Some(&b"stays"[..]), "override outlives default");
        assert_eq!(store.len(), 1);
        let total = store.total_stats();
        assert_eq!(total.expired, 1);
        assert_eq!(total.get_hits, 2);
        assert_eq!(total.gets, 3);
        // The expired entry's bytes were reclaimed on contact.
        assert_eq!(store.mem_bytes(), Slab::block_size(5) as u64);
    }

    #[test]
    fn clock_eviction_respects_budget_and_references() {
        // One shard, room for exactly 4 blocks of the 64-byte class.
        let store = PolyStore::new(StoreConfig {
            shards: 1,
            mem_budget: Some(4 * 64),
            ..Default::default()
        });
        for k in 0..4u64 {
            store.put(k, &[k as u8; 64]);
        }
        assert_eq!(store.mem_bytes(), 4 * 64);
        // Touch keys 0 and 1: the hand must pass them over once.
        store.get(0);
        store.get(1);
        store.put(4, &[4; 64]);
        assert_eq!(store.mem_bytes(), 4 * 64, "budget holds after eviction");
        assert_eq!(store.total_stats().evictions, 1);
        // Key 2 was the first unreferenced entry at the hand.
        assert_eq!(store.get(2), None, "unreferenced entry evicted first");
        assert!(store.get(0).is_some() && store.get(1).is_some(), "referenced entries survive");
        // Keep inserting: the budget is never exceeded.
        for k in 5..40u64 {
            store.put(k, &[k as u8; 64]);
            assert!(store.mem_bytes() <= 4 * 64);
        }
        assert!(store.total_stats().evictions >= 36);
    }

    #[test]
    fn oversized_values_are_refused() {
        let store =
            PolyStore::new(StoreConfig { shards: 1, mem_budget: Some(256), ..Default::default() });
        store.put(1, &[1; 32]);
        assert_eq!(store.put(2, &[2; 1000]), None, "value larger than the shard budget");
        assert_eq!(store.get(2), None);
        assert_eq!(store.get(1).as_deref(), Some(&[1u8; 32][..]), "small neighbor untouched");
        // An oversized overwrite still removes (and returns) the old value.
        assert_eq!(store.put(1, &[9; 1000]).as_deref(), Some(&[1u8; 32][..]));
        assert_eq!(store.get(1), None);
        assert_eq!(store.mem_bytes(), 0);
        assert_eq!(store.total_stats().evictions, 0, "refusal is not eviction");
    }

    #[test]
    fn into_ops_append_to_the_sink_and_leave_it_alone_on_a_miss() {
        let store = PolyStore::new(StoreConfig {
            shards: 2,
            default_ttl: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        let mut sink = b"head".to_vec();
        assert!(!store.put_into(1, b"one", &mut sink), "a fresh key has no previous value");
        assert_eq!(sink, b"head");
        assert!(store.put_into(1, b"uno", &mut sink));
        assert_eq!(sink, b"headone", "the previous value lands after what was there");
        assert!(store.get_into(1, &mut sink));
        assert_eq!(sink, b"headoneuno");
        assert!(!store.get_into(2, &mut sink), "a miss");
        assert!(store.remove_into(1, &mut sink));
        assert_eq!(sink, b"headoneunouno");
        assert!(!store.remove_into(1, &mut sink), "already removed");
        assert_eq!(sink, b"headoneunouno");
        // Entries past their TTL read as absent to every op.
        for k in 10..13u64 {
            store.put(k, b"stale");
        }
        store.advance_clock(Duration::from_secs(61));
        assert!(!store.get_into(10, &mut sink));
        assert!(!store.put_into(11, b"fresh", &mut sink));
        assert!(!store.remove_into(12, &mut sink));
        assert_eq!(sink, b"headoneunouno", "misses and expired entries append nothing");
        assert_eq!(store.total_stats().expired, 3);
        let t = store.total_stats();
        assert_eq!((t.gets, t.get_hits, t.puts, t.removes), (3, 1, 6, 3));
    }

    #[test]
    fn a_refused_put_into_still_returns_the_old_value() {
        let store =
            PolyStore::new(StoreConfig { shards: 1, mem_budget: Some(256), ..Default::default() });
        store.put(1, &[1; 32]);
        let mut sink = vec![0xEE];
        assert!(store.put_into(1, &[9; 1000], &mut sink), "the old entry was live");
        assert_eq!(sink[..], [&[0xEE][..], &[1; 32][..]].concat());
        assert_eq!(store.get(1), None, "the oversized value was refused");
        assert!(!store.put_into(1, &[9; 1000], &mut sink), "nothing left to return");
        assert_eq!(sink.len(), 33);
    }

    #[test]
    fn overwrites_keep_the_entry_and_its_ring_slot() {
        let mut s = ShardData::new();
        let resized = |i: u64| vec![i as u8; if i.is_multiple_of(2) { 40 } else { 100 }];
        let same = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes().to_vec();
        let mut sink = Vec::new();
        for (key, value) in [(1u64, resized(0)), (2, same(0))] {
            assert!(!s.put(key, &value, NEVER, None, 0, Some(&mut sink)).found);
        }
        for i in 1..=1_000u64 {
            for (key, old, new) in [(1u64, resized(i - 1), resized(i)), (2, same(i - 1), same(i))] {
                sink.clear();
                assert!(s.put(key, &new, NEVER, None, 0, Some(&mut sink)).found);
                assert_eq!(sink, old, "overwrite {i} of key {key} returns the old bytes");
                assert_eq!(
                    s.ring.len(),
                    s.map.len(),
                    "overwrite {i} of key {key} left a stale slot"
                );
                sink.clear();
                assert!(s.get(key, 0, &mut sink).found);
                assert_eq!(sink, new, "overwrite {i} of key {key} reads back");
            }
        }
        assert_eq!(s.slab.mem_bytes(), 64 + 16, "one block per key");
    }

    #[test]
    fn resizing_overwrites_make_room_around_the_entry() {
        let store = PolyStore::new(StoreConfig {
            shards: 1,
            mem_budget: Some(4 * 64),
            ..Default::default()
        });
        for k in 0..4u64 {
            store.put(k, &[k as u8; 64]);
        }
        let resident =
            |keys: std::ops::Range<u64>| keys.filter(|&k| store.get(k).is_some()).count();
        // Into the 128 class. Keys 1-3 are referenced, so the hand laps
        // back to key 0 with its bit cleared: it must step over it and
        // evict one other key.
        assert_eq!(resident(1..4), 3);
        assert_eq!(store.put(0, &[0xA0; 128]).as_deref(), Some(&[0u8; 64][..]));
        assert_eq!(store.total_stats().evictions, 1);
        assert_eq!(store.get(0).as_deref(), Some(&[0xA0u8; 128][..]));
        assert_eq!(resident(1..4), 2);
        // The whole budget: everything else goes, key 0 stays.
        assert_eq!(store.put(0, &[0xB0; 256]).as_deref(), Some(&[0xA0u8; 128][..]));
        assert_eq!(store.total_stats().evictions, 3);
        assert_eq!(store.get(0).as_deref(), Some(&[0xB0u8; 256][..]));
        assert_eq!(resident(1..4), 0);
        assert_eq!(store.mem_bytes(), 4 * 64);
        // Mixed-size inserts and overwrites of other keys under pressure:
        // a block handed out twice would corrupt some resident value.
        let mut last = HashMap::from([(0u64, vec![0xB0u8; 256])]);
        for i in 0..100u64 {
            let key = 10 + i % 7;
            let len = [5, 60, 100, 16, 130, 64, 33, 200][(i % 8) as usize];
            let value: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
            store.put(key, &value);
            last.insert(key, value);
            assert!(store.mem_bytes() <= 4 * 64, "budget busted at put {i}");
            store.scan(|k, v| assert_eq!(Some(v), last.get(&k).map(Vec::as_slice), "put {i}"));
            let s = store.shards[0].data.lock();
            assert_eq!(s.ring.len(), s.map.len(), "put {i}: no removes, so no stale slots");
        }
    }

    #[test]
    fn overwriting_an_expired_entry_counts_one_expiration() {
        let store = PolyStore::new(StoreConfig {
            shards: 1,
            default_ttl: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        store.put(1, b"old");
        store.advance_clock(Duration::from_secs(61));
        assert_eq!(store.put(1, b"new"), None, "an expired value is not returned");
        let total = store.total_stats();
        assert_eq!((total.expired, total.evictions), (1, 0));
        assert_eq!(store.get(1).as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn residency_gauges_match_the_slabs_at_quiesce() {
        let store = PolyStore::new(StoreConfig {
            shards: 2,
            mem_budget: Some(2 * 1024),
            ..Default::default()
        });
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = crate::workload::Rng64::new(t + 1);
                    for _ in 0..20_000 {
                        let len = 1 + rng.below(300) as usize;
                        store.put(rng.below(64), &vec![t as u8; len]);
                    }
                });
            }
        });
        // Gauges first: every shard visit publishes its shard's gauge.
        let (total, shards) = store.stats_with_shards();
        let slabs: Vec<u64> = store.shards.iter().map(|s| s.data.lock().slab.mem_bytes()).collect();
        for (i, (gauge, slab)) in shards.iter().zip(&slabs).enumerate() {
            assert_eq!(gauge.mem_bytes, *slab, "shard {i}'s gauge");
        }
        assert!(total.evictions > 0, "test premise: the budget evicted");
        assert_eq!(total.mem_bytes, store.mem_bytes());
    }

    #[test]
    fn registered_metrics_telescope_to_the_stats_snapshot() {
        let store = Arc::new(PolyStore::new(StoreConfig {
            shards: 2,
            lock: LockKind::Mutex,
            ..Default::default()
        }));
        let reg = poly_obs::MetricRegistry::new();
        store.register_metrics(&reg);
        for k in 0..32u64 {
            store.put_u64(k, k);
        }
        store.get_u64(1);
        store.get_u64(999);
        store.remove_u64(2);
        let snap = reg.snapshot();
        let read = |name: &str| match &snap.iter().find(|m| m.name == name).unwrap().series[0].value
        {
            poly_obs::Sample::U64(n) => *n,
            other => panic!("{name} is not a u64: {other:?}"),
        };
        let stats = store.total_stats();
        assert_eq!(read("store_gets_total"), stats.gets);
        assert_eq!(read("store_get_hits_total"), stats.get_hits);
        assert_eq!(read("store_puts_total"), stats.puts);
        assert_eq!(read("store_removes_total"), stats.removes);
        assert_eq!(read("store_mem_bytes"), stats.mem_bytes);
        match &snap.iter().find(|m| m.name == "store_op_latency_ns").unwrap().series[0].value {
            poly_obs::Sample::Hist(buckets) => {
                assert_eq!(buckets.iter().sum::<u64>(), stats.latency.count());
            }
            other => panic!("histogram sample expected: {other:?}"),
        }
    }

    #[test]
    fn observed_ops_read_three_clocks_and_others_one() {
        // TTL and budget both set, so every put stamps an expiry and the
        // later ones evict.
        let store = PolyStore::new(StoreConfig {
            shards: 1,
            mem_budget: Some(4 * 64),
            default_ttl: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        // An op is observed when it moved the latency histogram.
        let reads = |op: &dyn Fn()| {
            let before = (CLOCK_READS.with(Cell::get), store.total_stats().latency.count());
            op();
            let observed = store.total_stats().latency.count() > before.1;
            (CLOCK_READS.with(Cell::get) - before.0, observed)
        };
        let mut seen = [0u32; 2];
        for k in 0..64u64 {
            let ops: [(&str, &dyn Fn()); 3] = [
                ("put", &|| drop(store.put(k, &[1; 64]))),
                ("get", &|| drop(store.get(k))),
                ("remove", &|| drop(store.remove(k.saturating_sub(8)))),
            ];
            for (name, op) in ops {
                let (n, observed) = reads(op);
                assert_eq!(n, if observed { 3 } else { 1 }, "{name} {k} (observed: {observed})");
                seen[usize::from(observed)] += 1;
            }
        }
        assert!(store.total_stats().evictions > 0, "test premise: puts evicted");
        assert!(seen[0] > 0 && seen[1] > 0, "both kinds of op ran: {seen:?}");
    }

    #[test]
    fn mem_bytes_books_no_lock_time() {
        let store = PolyStore::new(StoreConfig::default());
        for k in 0..64u64 {
            store.put(k, &[7; 40]);
        }
        let before = store.total_stats();
        assert!(store.mem_bytes() > 0);
        let after = store.total_stats();
        assert_eq!(after.lock_wait_ns, before.lock_wait_ns);
        assert_eq!(after.lock_hold_ns, before.lock_hold_ns);
        assert_eq!(after.latency.count(), before.latency.count());
    }

    #[test]
    fn ttl_entries_expire_on_unobserved_ops_after_a_real_sleep() {
        // Per-put TTLs on a store without a default TTL, then on one with.
        for default_ttl in [None, Some(Duration::from_secs(3600))] {
            let store =
                PolyStore::new(StoreConfig { shards: 4, default_ttl, ..Default::default() });
            for k in 0..100u64 {
                store.put(k, b"plain");
            }
            for k in 100..1_100u64 {
                store.put_with_ttl(k, b"brief", Some(Duration::from_millis(20)));
            }
            std::thread::sleep(Duration::from_millis(50));
            let before = store.total_stats();
            for k in 100..1_100u64 {
                assert_eq!(store.get(k), None, "TTL'd key {k} (default TTL {default_ttl:?})");
            }
            let d = store.total_stats().delta(&before);
            assert!(
                d.latency.count() / SKETCH_SAMPLE < 500,
                "test premise: most gets were unobserved ({} observed)",
                d.latency.count() / SKETCH_SAMPLE
            );
            assert_eq!(store.total_stats().expired, 1_000);
            for k in 0..100u64 {
                assert_eq!(store.get(k).as_deref(), Some(&b"plain"[..]), "plain key {k}");
            }
        }
    }

    #[test]
    fn sampled_estimates_track_exact_counts_under_a_periodic_pattern() {
        // Key X on the first op of every 8, key Y on the other 7: a gate
        // that observed every 8th op would see only X.
        let store = PolyStore::new(StoreConfig { shards: 1, ..Default::default() });
        let (x, y) = (1u64, 2u64);
        let (mut gets, mut puts) = (0u64, 0u64);
        for i in 0..80_000u64 {
            let (key, put) = if i % 8 == 0 { (x, (i / 8) % 2 == 0) } else { (y, i % 8 == 1) };
            if put {
                store.put(key, b"v");
                puts += 1;
            } else {
                assert!(store.get(key).is_some(), "op {i}: key {key} was put before");
                gets += 1;
            }
        }
        let t = store.total_stats();
        assert_eq!((t.gets, t.get_hits, t.puts, t.removes), (gets, gets, puts, 0));
        let ops = t.point_ops() as f64;
        let timed = t.latency.count() as f64;
        assert!((timed - ops).abs() < 0.05 * ops, "latency count {timed} vs {ops} ops");
        assert!(t.lock_hold_ns > 0);
        for (key, touches) in [(x, 10_000.0), (y, 70_000.0)] {
            let est = t.top_keys.iter().find(|hk| hk.key == key).map_or(0, |hk| hk.count) as f64;
            assert!((est - touches).abs() < 0.5 * touches, "key {key}: {est} vs {touches}");
        }
    }

    #[test]
    fn eviction_churn_stays_consistent() {
        // Zipf-less torture loop: heavy overwrite + remove churn under a
        // small budget, checking residency and the budget invariant.
        let store = PolyStore::new(StoreConfig {
            shards: 4,
            mem_budget: Some(4 * 1024),
            default_ttl: Some(Duration::from_secs(5)),
            ..Default::default()
        });
        let mut state = 0x1234_5678_u64;
        for i in 0..5_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = state >> 48;
            match state % 5 {
                0 => {
                    store.get(key);
                }
                4 => {
                    store.remove(key);
                }
                _ => {
                    let len = 1 + (state >> 16) as usize % 300;
                    store.put(key, &vec![(key & 0xFF) as u8; len]);
                }
            }
            if i % 700 == 0 {
                // Jump past the TTL: everything resident expires in place,
                // so the next room-making sweep reclaims by expiry, not
                // eviction.
                store.advance_clock(Duration::from_secs(6));
            }
            assert!(store.mem_bytes() <= 4 * 1024, "budget busted at step {i}");
        }
        let total = store.total_stats();
        assert!(total.evictions > 0);
        assert!(total.expired > 0);
        // The gauge in the merged snapshot equals true residency.
        assert_eq!(total.mem_bytes, store.mem_bytes());
    }
}

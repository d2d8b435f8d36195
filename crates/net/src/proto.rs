//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message is a `u32` little-endian body length followed by the
//! body; the body's first byte is an opcode (requests) or a status byte
//! (responses), and all integers are little-endian `u64`/`u32`. The
//! format is deliberately dumb — fixed-width fields, no varints, no
//! self-description — so encode/decode stay off the latency path's
//! profile.
//!
//! | request | body |
//! |---|---|
//! | `SCAN` | op `0x04` |
//! | `STATS` | op `0x06` |
//! | `GETV` | op `0x08`, key `u64` |
//! | `PUTV` | op `0x09`, key `u64`, len `u32`, value bytes |
//! | `REMOVEV` | op `0x0A`, key `u64` |
//! | `BATCHV` | op `0x0B`, count `u32`, then per write: tag `u8` (1 put / 0 remove), key `u64`, and for puts len `u32` + value bytes |
//! | `EVENTS` | op `0x0D`, since_seq `u64` |
//!
//! Any other opcode is answered with an error response.
//!
//! Responses open with status `0x00` (ok) or `0x01` (error, rest of the
//! body is a UTF-8 message). Ok payloads: the point ops return the
//! found/previous value as `present u8 + len u32 + bytes`; `SCAN` returns
//! `count u64 + epoch u64`; `BATCHV` returns `applied u32`.
//!
//! `STATS` is the one telemetry frame: everything a client can ask about
//! the server's state arrives in a single reply, so a poll costs one round
//! trip and one store snapshot. Its payload is the lock kind (`u8`, the
//! index in [`LockKind::ALL`]), the shard count (`u32`), the merged
//! [`StatsSnapshot`] (eleven counters, then the latency histogram), and
//! three optional blocks, each opened by a `present u8`:
//!
//! 1. **measured energy** — `package_uj u64 + dram_uj u64 + samples u64`,
//!    the serving process's cumulative RAPL reading, present when the
//!    server meters itself (TCP sweeps attribute joules to the server);
//! 2. **latest window** — the newest complete [`WindowSample`] as
//!    [`WindowSample::WIRE_WORDS`] `u64` words, present when the server
//!    runs a trace collector (`store top`);
//! 3. **latest heat** — the newest per-shard [`HeatSample`]:
//!    `window u64 + start_ns u64 + end_ns u64 + shard_count u32`, then per
//!    shard five `u64`s (`ops + lock_wait_ns + lock_hold_ns + evictions +
//!    mem_bytes`), a top-k count `u8`, and `key u64 + count u64` per hot
//!    key, from the same collector tick as the window (`store heat`).
//!
//! `EVENTS` returns every journal event with `seq >= since_seq` that is
//! still in the server's bounded ring, oldest first: `count u32`, then
//! per event `seq u64 + ts_ms u64 + level u8` (the
//! [`poly_obs::Level`] wire code), a length-prefixed kind string
//! (`len u32 + bytes`), a field count `u32`, and per field two
//! length-prefixed strings (key, value).
//!
//! # Pipelining
//!
//! A session may write any number of request frames before reading a
//! reply, under two rules:
//!
//! 1. **FIFO per connection.** The server answers requests in arrival
//!    order, one response frame per request frame, on the same
//!    connection. Responses are not self-describing
//!    ([`Response::decode`] needs the request it replies to), so a
//!    pipelined client keeps its unanswered requests in a FIFO and pairs
//!    each arriving frame with the queue head. A reply depends only on
//!    its request and the store, never on its pipeline neighbours: a
//!    `PUTV` always returns the previous value.
//! 2. **Errors don't desynchronise.** A malformed or unserviceable
//!    request, or one whose reply would exceed [`MAX_FRAME`], gets an
//!    error response in its FIFO slot; later pipelined requests are still
//!    answered. Only a framing-layer violation kills the connection: a
//!    torn frame closes it once the replies before it are out, and an
//!    oversized length prefix is answered with an error frame before the
//!    close. A peer's EOF ends its requests, not its replies.
//!
//! [`FrameDecoder`] is the incremental framing layer of both servers:
//! bytes go in as each read of the socket hands them over, complete
//! frame bodies are lent out of its buffer (no copy), and an oversized
//! length prefix is rejected the moment the 4-byte header is readable —
//! before any body allocation.
//!
//! # In place
//!
//! Each message has one parser and one encoder, and both work in place.
//! A request is decoded as a `RequestRef` that borrows its frame body
//! (a PUTV value is never copied out of it). A reply is framed at the
//! end of the server's outbound buffer, its length prefix written once
//! the body is in, and a point op's value goes into it straight from the
//! store. The client writes each request frame straight into its
//! buffered writer and reads a point reply's value straight into the
//! `Vec` it returns. The owned [`Request`] and [`Response`] with their
//! `encode`/`decode` are thin conversions over these forms.

use std::io::{self, Read, Write};

use poly_locks_sim::LockKind;
use poly_meter::MeasuredReading;
use poly_obs::{Event, Level};
use poly_store::{BatchOp, HistogramSnapshot, HotKey, StatsSnapshot, HIST_BUCKETS};
use poly_trace::{HeatSample, ShardHeat, WindowSample};

/// Upper bound on a frame body, enforced on both ends: a corrupt or
/// hostile length prefix must not become a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 4 << 20;

const OP_SCAN: u8 = 0x04;
const OP_STATS: u8 = 0x06;
const OP_GET_V: u8 = 0x08;
const OP_PUT_V: u8 = 0x09;
const OP_REMOVE_V: u8 = 0x0A;
const OP_BATCH_V: u8 = 0x0B;
const OP_EVENTS: u8 = 0x0D;

/// Wire size of a `STATS` reply without its heat block: status, lock,
/// shard count, the eleven counters and the histogram, the three
/// `present` bytes, and the measured and window blocks when present.
const STATS_BASE_BYTES: usize =
    1 + 1 + 4 + (11 + HIST_BUCKETS + 1) * 8 + 3 + 3 * 8 + WindowSample::WIRE_WORDS * 8;

/// Smallest wire footprint of one shard's heat block (five `u64`
/// counters plus the top-k count byte) — the bound the decoder checks a
/// claimed shard count against before allocating for it.
const SHARD_HEAT_MIN_BYTES: usize = 5 * 8 + 1;

/// Smallest wire footprint of one journal event (`seq u64 + ts_ms u64 +
/// level u8`, an empty kind's `u32` length, and a zero field count) —
/// the bound the decoder checks a claimed event count against before
/// allocating for it.
const EVENT_MIN_BYTES: usize = 8 + 8 + 1 + 4 + 4;

const STATUS_OK: u8 = 0x00;
const STATUS_ERR: u8 = 0x01;

/// Bytes an ok reply to a point request holds before its value: status,
/// present flag and value length.
const VALUE_HEAD: usize = 1 + 1 + 4;

/// Capacity a drained buffer keeps: room for a burst of small frames,
/// not for the largest frame it ever held.
pub(crate) const IDLE_CAPACITY: usize = 64 << 10;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Full scan (the server aggregates; entries never cross the wire).
    Scan,
    /// Server stats: identity, merged shard stats, measured energy, and
    /// the latest telemetry and heat windows (see [`WireStats`]).
    Stats,
    /// Point lookup of the full byte value.
    GetV(u64),
    /// Point insert/update of a byte value.
    PutV(u64, Vec<u8>),
    /// Point deletion returning the full byte value.
    RemoveV(u64),
    /// A byte-valued write batch, applied with one lock acquisition per
    /// shard.
    BatchV(Vec<BatchOp>),
    /// EVENTS: the server's journal events with `seq >= since_seq` still
    /// held in its bounded ring, oldest first.
    Events {
        /// Lowest sequence number of interest (pass the last seen
        /// `seq + 1` to tail incrementally).
        since_seq: u64,
    },
}

/// A request decoded in place: its values borrow the frame body they
/// came in. The one form requests are decoded from and encoded to.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RequestRef<'a> {
    Scan,
    Stats,
    GetV(u64),
    PutV(u64, &'a [u8]),
    RemoveV(u64),
    BatchV(Vec<(u64, Option<&'a [u8]>)>),
    Events { since_seq: u64 },
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Point-op result: the previous/found value, if any.
    ValueV(Option<Vec<u8>>),
    /// Scan result: entries visited and the epoch the scan observed.
    Scan {
        /// Entries visited.
        count: u64,
        /// The maintenance epoch the scan ran under.
        epoch: u64,
    },
    /// Batch acknowledged.
    Batch {
        /// Writes applied.
        applied: u32,
    },
    /// Server stats snapshot (boxed: the histogram makes it two orders
    /// of magnitude larger than the hot point-op variants).
    Stats(Box<WireStats>),
    /// EVENTS reply: the matching journal events, oldest first (empty
    /// when nothing at or past `since_seq` is still in the ring).
    Events(Vec<Event>),
    /// The request could not be served.
    Error(String),
}

/// The server-side identity, counters and telemetry a `STATS` request
/// returns.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStats {
    /// Lock backend guarding the server's shards.
    pub lock: LockKind,
    /// Server shard count.
    pub shards: u32,
    /// Merged shard stats (op counts, lock wait/hold, cache counters,
    /// latency histogram).
    pub stats: StatsSnapshot,
    /// Cumulative measured (RAPL) energy of the serving process, when the
    /// server runs a sampler; clients diff two readings around their
    /// measure window.
    pub measured: Option<MeasuredReading>,
    /// The newest complete window from the server's window log, when it
    /// runs a collector.
    pub window: Option<WindowSample>,
    /// The same tick's per-shard heat: present whenever `window` is
    /// (the frame keeps its own presence flag).
    pub heat: Option<HeatSample>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(bad_frame("truncated frame"));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `present u8` flag: true when the block it opens follows.
    fn present(&mut self) -> io::Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// A length-prefixed byte string (`len u32` + bytes), borrowed.
    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> io::Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad_frame("non-UTF-8 string in frame"))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad_frame("trailing bytes in frame"))
        }
    }
}

fn bad_frame(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Request {
    /// Encodes the request body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let req = RequestRef::from(self);
        let mut body = Vec::with_capacity(req.body_len());
        req.write_body(&mut body).expect("writing to a Vec cannot fail");
        body
    }

    /// Decodes one request body.
    pub fn decode(body: &[u8]) -> io::Result<Request> {
        RequestRef::decode(body).map(RequestRef::into_owned)
    }
}

impl<'a> From<&'a Request> for RequestRef<'a> {
    fn from(req: &'a Request) -> Self {
        match req {
            Request::Scan => RequestRef::Scan,
            Request::Stats => RequestRef::Stats,
            Request::GetV(k) => RequestRef::GetV(*k),
            Request::PutV(k, v) => RequestRef::PutV(*k, v),
            Request::RemoveV(k) => RequestRef::RemoveV(*k),
            Request::BatchV(ops) => RequestRef::batch(ops),
            Request::Events { since_seq } => RequestRef::Events { since_seq: *since_seq },
        }
    }
}

impl<'a> RequestRef<'a> {
    /// A BATCHV of `ops`, borrowing their values.
    pub(crate) fn batch(ops: &'a [BatchOp]) -> Self {
        RequestRef::BatchV(ops.iter().map(|(k, v)| (*k, v.as_deref())).collect())
    }

    /// Decodes one request body in place.
    pub(crate) fn decode(body: &'a [u8]) -> io::Result<RequestRef<'a>> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_SCAN => RequestRef::Scan,
            OP_STATS => RequestRef::Stats,
            OP_GET_V => RequestRef::GetV(c.u64()?),
            OP_PUT_V => RequestRef::PutV(c.u64()?, c.bytes()?),
            OP_REMOVE_V => RequestRef::RemoveV(c.u64()?),
            OP_BATCH_V => {
                let n = c.u32()? as usize;
                // Every op occupies at least 9 bytes (tag + key): a count
                // the frame cannot possibly hold must fail before the
                // allocation it would size.
                if n > c.remaining() / 9 {
                    return Err(bad_frame("batch count disagrees with frame length"));
                }
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = c.u8()?;
                    let key = c.u64()?;
                    let val = if tag != 0 { Some(c.bytes()?) } else { None };
                    ops.push((key, val));
                }
                RequestRef::BatchV(ops)
            }
            OP_EVENTS => RequestRef::Events { since_seq: c.u64()? },
            op => return Err(bad_frame(&format!("unknown opcode 0x{op:02x}"))),
        };
        c.finish()?;
        Ok(req)
    }

    /// The owned request, its values copied out of the frame.
    fn into_owned(self) -> Request {
        match self {
            RequestRef::Scan => Request::Scan,
            RequestRef::Stats => Request::Stats,
            RequestRef::GetV(k) => Request::GetV(k),
            RequestRef::PutV(k, v) => Request::PutV(k, v.to_vec()),
            RequestRef::RemoveV(k) => Request::RemoveV(k),
            RequestRef::BatchV(ops) => {
                Request::BatchV(ops.into_iter().map(|(k, v)| (k, v.map(<[u8]>::to_vec))).collect())
            }
            RequestRef::Events { since_seq } => Request::Events { since_seq },
        }
    }

    /// Wire size of the body.
    fn body_len(&self) -> usize {
        match self {
            RequestRef::Scan | RequestRef::Stats => 1,
            RequestRef::GetV(_) | RequestRef::RemoveV(_) | RequestRef::Events { .. } => 9,
            RequestRef::PutV(_, v) => 13 + v.len(),
            RequestRef::BatchV(ops) => {
                5 + ops.iter().map(|(_, v)| 9 + v.map_or(0, |v| 4 + v.len())).sum::<usize>()
            }
        }
    }

    /// Writes the request body (no length prefix) to `w`, piece by piece.
    fn write_body<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match *self {
            RequestRef::Scan => w.write_all(&[OP_SCAN]),
            RequestRef::Stats => w.write_all(&[OP_STATS]),
            RequestRef::GetV(k) => write_tagged(w, OP_GET_V, k),
            RequestRef::PutV(k, v) => {
                write_tagged(w, OP_PUT_V, k)?;
                write_bytes(w, v)
            }
            RequestRef::RemoveV(k) => write_tagged(w, OP_REMOVE_V, k),
            RequestRef::BatchV(ref ops) => {
                w.write_all(&[OP_BATCH_V])?;
                w.write_all(&(ops.len() as u32).to_le_bytes())?;
                for &(key, val) in ops {
                    write_tagged(w, u8::from(val.is_some()), key)?;
                    if let Some(v) = val {
                        write_bytes(w, v)?;
                    }
                }
                Ok(())
            }
            RequestRef::Events { since_seq } => write_tagged(w, OP_EVENTS, since_seq),
        }
    }

    /// Writes the request as one frame straight into `w`; like
    /// [`write_frame`], refuses a body over [`MAX_FRAME`] before writing
    /// anything.
    pub(crate) fn write_frame<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_len(w, self.body_len())?;
        self.write_body(w)
    }
}

/// A one-byte tag (an opcode, or a batch op's put flag) and a `u64`.
fn write_tagged<W: Write>(w: &mut W, tag: u8, v: u64) -> io::Result<()> {
    let mut b = [tag; 9];
    b[1..].copy_from_slice(&v.to_le_bytes());
    w.write_all(&b)
}

/// A length-prefixed byte string.
fn write_bytes<W: Write>(w: &mut W, v: &[u8]) -> io::Result<()> {
    w.write_all(&(v.len() as u32).to_le_bytes())?;
    w.write_all(v)
}

/// Wire index of a lock kind: its position in [`LockKind::ALL`] (stable —
/// the paper's table order).
fn lock_to_wire(lock: LockKind) -> u8 {
    LockKind::ALL.iter().position(|&k| k == lock).expect("LockKind::ALL is exhaustive") as u8
}

fn lock_from_wire(idx: u8) -> io::Result<LockKind> {
    LockKind::ALL.get(idx as usize).copied().ok_or_else(|| bad_frame("unknown lock kind"))
}

/// The `STATS` payload body (after the status byte).
fn encode_wire_stats(b: &mut Vec<u8>, ws: &WireStats) {
    b.push(lock_to_wire(ws.lock));
    put_u32(b, ws.shards);
    let s = &ws.stats;
    for v in [
        s.gets,
        s.get_hits,
        s.puts,
        s.removes,
        s.scans,
        s.batches,
        s.lock_wait_ns,
        s.lock_hold_ns,
        s.evictions,
        s.expired,
        s.mem_bytes,
    ] {
        put_u64(b, v);
    }
    for &bucket in &s.latency.buckets {
        put_u64(b, bucket);
    }
    put_u64(b, s.latency.max_ns);
    b.push(u8::from(ws.measured.is_some()));
    if let Some(m) = &ws.measured {
        put_u64(b, m.package_uj);
        put_u64(b, m.dram_uj);
        put_u64(b, m.samples);
    }
    b.push(u8::from(ws.window.is_some()));
    if let Some(w) = &ws.window {
        for word in w.to_words() {
            put_u64(b, word);
        }
    }
    b.push(u8::from(ws.heat.is_some()));
    if let Some(h) = &ws.heat {
        encode_heat(b, h);
    }
}

fn decode_wire_stats(c: &mut Cursor) -> io::Result<WireStats> {
    let lock = lock_from_wire(c.u8()?)?;
    let shards = c.u32()?;
    let mut stats = StatsSnapshot {
        gets: c.u64()?,
        get_hits: c.u64()?,
        puts: c.u64()?,
        removes: c.u64()?,
        scans: c.u64()?,
        batches: c.u64()?,
        lock_wait_ns: c.u64()?,
        lock_hold_ns: c.u64()?,
        evictions: c.u64()?,
        expired: c.u64()?,
        mem_bytes: c.u64()?,
        latency: HistogramSnapshot::default(),
        ..StatsSnapshot::default()
    };
    for bucket in stats.latency.buckets.iter_mut() {
        *bucket = c.u64()?;
    }
    stats.latency.max_ns = c.u64()?;
    let measured = if c.present()? {
        Some(MeasuredReading { package_uj: c.u64()?, dram_uj: c.u64()?, samples: c.u64()? })
    } else {
        None
    };
    let window = if c.present()? {
        let mut words = [0u64; WindowSample::WIRE_WORDS];
        for word in words.iter_mut() {
            *word = c.u64()?;
        }
        Some(WindowSample::from_words(&words))
    } else {
        None
    };
    let heat = if c.present()? { Some(decode_heat(c)?) } else { None };
    Ok(WireStats { lock, shards, stats, measured, window, heat })
}

/// Wire size of a heat block.
fn heat_bytes(h: &HeatSample) -> usize {
    28 + h.shards.iter().map(|s| SHARD_HEAT_MIN_BYTES + s.top_keys.len() * 16).sum::<usize>()
}

fn encode_heat(b: &mut Vec<u8>, h: &HeatSample) {
    put_u64(b, h.window);
    put_u64(b, h.start_ns);
    put_u64(b, h.end_ns);
    put_u32(b, h.shards.len() as u32);
    for s in &h.shards {
        for v in [s.ops, s.lock_wait_ns, s.lock_hold_ns, s.evictions, s.mem_bytes] {
            put_u64(b, v);
        }
        // The sketch is TOP_KEYS-bounded at the source, but the wire
        // field is a u8 — clamp defensively.
        let k = s.top_keys.len().min(u8::MAX as usize);
        b.push(k as u8);
        for hk in &s.top_keys[..k] {
            put_u64(b, hk.key);
            put_u64(b, hk.count);
        }
    }
}

fn decode_heat(c: &mut Cursor) -> io::Result<HeatSample> {
    let window = c.u64()?;
    let start_ns = c.u64()?;
    let end_ns = c.u64()?;
    let n = c.u32()? as usize;
    // The claim must fit the frame before any allocation sized by it.
    if n > c.remaining() / SHARD_HEAT_MIN_BYTES {
        return Err(bad_frame("shard count disagrees with frame length"));
    }
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        let ops = c.u64()?;
        let lock_wait_ns = c.u64()?;
        let lock_hold_ns = c.u64()?;
        let evictions = c.u64()?;
        let mem_bytes = c.u64()?;
        let k = c.u8()? as usize;
        let mut top_keys = Vec::with_capacity(k);
        for _ in 0..k {
            top_keys.push(HotKey { key: c.u64()?, count: c.u64()? });
        }
        shards.push(ShardHeat { ops, lock_wait_ns, lock_hold_ns, evictions, mem_bytes, top_keys });
    }
    Ok(HeatSample { window, start_ns, end_ns, shards })
}

impl Response {
    /// Encodes the response body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.body_len());
        self.encode_into(&mut body);
        body
    }

    /// Wire size of the body (for `STATS`, an upper bound).
    fn body_len(&self) -> usize {
        match self {
            Response::ValueV(v) => VALUE_HEAD + v.as_ref().map_or(0, Vec::len),
            Response::Scan { .. } => 17,
            Response::Batch { .. } => 5,
            Response::Stats(ws) => STATS_BASE_BYTES + ws.heat.as_ref().map_or(0, heat_bytes),
            Response::Events(events) => {
                let bytes: usize = events
                    .iter()
                    .map(|e| {
                        EVENT_MIN_BYTES
                            + e.kind.len()
                            + e.fields.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>()
                    })
                    .sum();
                5 + bytes
            }
            Response::Error(msg) => 1 + msg.len(),
        }
    }

    /// Appends the response body (no length prefix) to `b`.
    pub(crate) fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            Response::ValueV(v) => {
                encode_value(b, |b| v.as_ref().map(|v| b.extend_from_slice(v)).is_some());
            }
            Response::Scan { count, epoch } => {
                b.push(STATUS_OK);
                put_u64(b, *count);
                put_u64(b, *epoch);
            }
            Response::Batch { applied } => {
                b.push(STATUS_OK);
                put_u32(b, *applied);
            }
            Response::Stats(ws) => {
                b.push(STATUS_OK);
                encode_wire_stats(b, ws);
            }
            Response::Events(events) => {
                b.push(STATUS_OK);
                put_u32(b, events.len() as u32);
                for e in events {
                    put_u64(b, e.seq);
                    put_u64(b, e.ts_ms);
                    b.push(e.level.code());
                    put_str(b, &e.kind);
                    put_u32(b, e.fields.len() as u32);
                    for (k, v) in &e.fields {
                        put_str(b, k);
                        put_str(b, v);
                    }
                }
            }
            Response::Error(msg) => {
                b.push(STATUS_ERR);
                b.extend_from_slice(msg.as_bytes());
            }
        }
    }

    /// Decodes one response body, `in reply to` the request that asked
    /// (responses are not self-describing — a point-op reply and a batch
    /// acknowledgement can share bytes).
    pub fn decode(body: &[u8], in_reply_to: &Request) -> io::Result<Response> {
        Response::decode_for(body, &RequestRef::from(in_reply_to))
    }

    /// [`Response::decode`] against the in-place form of the request.
    pub(crate) fn decode_for(body: &[u8], in_reply_to: &RequestRef) -> io::Result<Response> {
        let mut c = Cursor::new(body);
        if let Some(error) = error_reply(&mut c)? {
            return Ok(error);
        }
        let resp = match in_reply_to {
            RequestRef::GetV(_) | RequestRef::PutV(_, _) | RequestRef::RemoveV(_) => {
                return decode_value(body);
            }
            RequestRef::Scan => Response::Scan { count: c.u64()?, epoch: c.u64()? },
            RequestRef::BatchV(_) => Response::Batch { applied: c.u32()? },
            RequestRef::Stats => Response::Stats(Box::new(decode_wire_stats(&mut c)?)),
            RequestRef::Events { .. } => {
                let n = c.u32()? as usize;
                // The claim must fit the frame before any allocation
                // sized by it.
                if n > c.remaining() / EVENT_MIN_BYTES {
                    return Err(bad_frame("event count disagrees with frame length"));
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = c.u64()?;
                    let ts_ms = c.u64()?;
                    let level = Level::from_code(c.u8()?)
                        .ok_or_else(|| bad_frame("unknown event level"))?;
                    let kind = c.string()?;
                    let nf = c.u32()? as usize;
                    // Every field is at least two empty length-prefixed
                    // strings: bound the claim before allocating.
                    if nf > c.remaining() / 8 {
                        return Err(bad_frame("field count disagrees with frame length"));
                    }
                    let mut fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        let k = c.string()?;
                        let v = c.string()?;
                        fields.push((k, v));
                    }
                    events.push(Event { seq, ts_ms, level, kind, fields });
                }
                Response::Events(events)
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Reads a reply's status byte: `Some` error reply (the rest of the body
/// is its message), or `None` for an ok reply, whose payload follows.
fn error_reply(c: &mut Cursor) -> io::Result<Option<Response>> {
    match c.u8()? {
        STATUS_OK => Ok(None),
        STATUS_ERR => Ok(Some(Response::Error(String::from_utf8_lossy(c.rest()).into_owned()))),
        s => Err(bad_frame(&format!("unknown status 0x{s:02x}"))),
    }
}

/// Appends an ok reply to a point request to `b`, in place: `value`
/// appends the found or previous value, if there is one, and says
/// whether there was. The value length is filled in once it is known.
pub(crate) fn encode_value(b: &mut Vec<u8>, value: impl FnOnce(&mut Vec<u8>) -> bool) {
    let at = b.len();
    b.extend_from_slice(&[0; VALUE_HEAD]);
    let present = value(b);
    let [l0, l1, l2, l3] = ((b.len() - at - VALUE_HEAD) as u32).to_le_bytes();
    b[at..at + VALUE_HEAD].copy_from_slice(&[STATUS_OK, u8::from(present), l0, l1, l2, l3]);
}

/// Parses the head of an ok reply to a point request from the first
/// bytes of its body, which is `body_len` bytes long in all: the present
/// flag and the value length, if the value fills the rest of the body
/// exactly. `None` for any other body: an error reply, or a malformed one.
fn value_head(head: &[u8], body_len: usize) -> Option<(bool, usize)> {
    let &[STATUS_OK, present, l0, l1, l2, l3, ..] = head else {
        return None;
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    (body_len.checked_sub(VALUE_HEAD) == Some(len)).then_some((present != 0, len))
}

/// Decodes a whole reply body to a point request.
fn decode_value(body: &[u8]) -> io::Result<Response> {
    if let Some((present, _)) = value_head(body, body.len()) {
        return Ok(Response::ValueV(present.then(|| body[VALUE_HEAD..].to_vec())));
    }
    match error_reply(&mut Cursor::new(body))? {
        Some(error) => Ok(error),
        None => Err(bad_frame("value length disagrees with frame length")),
    }
}

/// Appends one reply frame to `out` in place and returns its body length:
/// `body` appends the body, and the length prefix is written once it is
/// in. A body over [`MAX_FRAME`] cannot ship: it is taken back out, and
/// an error naming the limit takes its place (pipelining rule 2).
pub(crate) fn frame_reply(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let mut len = out.len() - at - 4;
    if len > MAX_FRAME {
        out.truncate(at + 4);
        Response::Error(format!("reply of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"))
            .encode_into(out);
        len = out.len() - at - 4;
    }
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    len
}

/// Empties a drained buffer and gives back its capacity beyond
/// [`IDLE_CAPACITY`], so one large frame does not pin its size for a
/// connection's life.
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > IDLE_CAPACITY {
        buf.shrink_to(IDLE_CAPACITY);
    }
}

/// The error for a length prefix over [`MAX_FRAME`]: the byte stream can
/// no longer be framed.
fn oversized_prefix(n: usize) -> io::Error {
    bad_frame(&format!("frame of {n} bytes exceeds MAX_FRAME"))
}

/// Writes a frame's length prefix, refusing a body over [`MAX_FRAME`] as
/// [`io::ErrorKind::InvalidInput`] before anything is written.
fn write_len<W: Write>(w: &mut W, len: usize) -> io::Result<()> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())
}

/// Writes one length-prefixed frame. Oversized bodies are rejected here,
/// on the sending side, as [`io::ErrorKind::InvalidInput`]: shipping one
/// would make the receiver kill the connection without a response, which
/// the sender could not tell apart from a crash.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    write_len(w, body.len())?;
    w.write_all(body)
}

/// Reads a frame's length prefix; `Ok(None)` is a clean EOF before it
/// (the peer hung up between frames), and a prefix over [`MAX_FRAME`] is
/// [`io::ErrorKind::InvalidData`].
fn read_len<R: Read>(r: &mut R) -> io::Result<Option<usize>> {
    let mut len = [0u8; 4];
    // A clean disconnect yields EOF on the first length byte; EOF
    // anywhere else is a torn frame.
    match r.read(&mut len[..1])? {
        0 => return Ok(None),
        1 => {}
        _ => unreachable!("read of 1 byte"),
    }
    r.read_exact(&mut len[1..])?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(oversized_prefix(n));
    }
    Ok(Some(n))
}

/// Reads one length-prefixed frame; `Ok(None)` is a clean EOF at a frame
/// boundary (the peer hung up between requests).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let Some(n) = read_len(r)? else {
        return Ok(None);
    };
    let mut body = vec![0; n];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Reads the next reply frame to a point request off `r`; `Ok(None)` is
/// a clean EOF. An ok reply's value goes from `r` straight into the
/// `Vec` it is returned in; any other reply is read whole and decoded.
pub(crate) fn read_value_reply<R: Read>(r: &mut R) -> io::Result<Option<Response>> {
    let Some(n) = read_len(r)? else {
        return Ok(None);
    };
    let mut head = [0u8; VALUE_HEAD];
    let head = &mut head[..n.min(VALUE_HEAD)];
    r.read_exact(head)?;
    if let Some((present, len)) = value_head(head, n) {
        let mut value = vec![0; len];
        r.read_exact(&mut value)?;
        return Ok(Some(Response::ValueV(present.then_some(value))));
    }
    let mut body = head.to_vec();
    body.resize(n, 0);
    r.read_exact(&mut body[head.len()..])?;
    decode_value(&body).map(Some)
}

/// Splits the frame at the head of `bytes` into its body and the bytes
/// after it, once all of it is there: `Ok(None)` while more bytes are
/// needed, [`io::ErrorKind::InvalidData`] as soon as a length prefix over
/// [`MAX_FRAME`] is readable.
pub(crate) fn split_frame(bytes: &[u8]) -> io::Result<Option<(&[u8], &[u8])>> {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let n = u32::from_le_bytes(*prefix) as usize;
    if n > MAX_FRAME {
        return Err(oversized_prefix(n));
    }
    Ok(bytes[4..].split_at_checked(n))
}

/// Incremental frame decoder for the server's sockets.
///
/// [`read_frame`] blocks until a whole frame arrives. A server instead
/// takes whatever one `read(2)` hands over, which may end inside a frame.
/// `FrameDecoder` accepts those arbitrary slices via
/// [`push`](FrameDecoder::push) and lends out complete frame bodies via
/// [`next_frame`](FrameDecoder::next_frame), without copying them; a
/// frame torn across reads simply stays buffered until the rest arrives.
/// Once everything buffered has been consumed, the buffer gives back its
/// capacity beyond a small bound (64 KiB), so one large frame does not
/// pin its size.
///
/// The length prefix is validated against [`MAX_FRAME`] as soon as its
/// four bytes are buffered, so a hostile prefix is rejected before any
/// body-sized allocation — same guarantee as the blocking path.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing: a long-lived
        // connection must not accrete every frame it ever parsed.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Lends out the next complete frame body, `Ok(None)` if more bytes
    /// are needed, or [`io::ErrorKind::InvalidData`] if the buffered
    /// length prefix exceeds [`MAX_FRAME`] (the connection must be
    /// dropped — framing is lost).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(n) = split_frame(&self.buf[self.pos..])?.map(|(body, _)| body.len()) else {
            if self.at_boundary() {
                // Drained: give the capacity back.
                self.pos = 0;
                recycle(&mut self.buf);
            }
            return Ok(None);
        };
        let body = self.pos + 4..self.pos + 4 + n;
        self.pos = body.end;
        Ok(Some(&self.buf[body]))
    }

    /// True when [`next_frame`](FrameDecoder::next_frame) has something
    /// to hand out: a complete frame, or a length prefix over
    /// [`MAX_FRAME`].
    pub(crate) fn has_frame(&self) -> bool {
        !matches!(split_frame(&self.buf[self.pos..]), Ok(None))
    }

    /// True when no partial frame is buffered — the point at which a
    /// peer hangup is a clean EOF rather than a torn frame.
    pub fn at_boundary(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes the decoder holds allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) -> Request {
        Request::decode(&req.encode()).expect("request round-trip")
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Scan,
            Request::Stats,
            Request::GetV(7),
            Request::PutV(3, Vec::new()),
            Request::PutV(u64::MAX, vec![0xAB; 4096]),
            Request::RemoveV(42),
            Request::BatchV(vec![
                (1, Some(vec![1, 2, 3])),
                (3, None),
                (u64::MAX, Some(Vec::new())),
            ]),
            Request::BatchV(Vec::new()),
            Request::Events { since_seq: 0 },
            Request::Events { since_seq: u64::MAX },
        ] {
            assert_eq!(round_trip_req(req.clone()), req);
        }
    }

    #[test]
    fn opcodes_outside_the_table_are_unknown() {
        const KNOWN: [u8; 7] =
            [OP_SCAN, OP_STATS, OP_GET_V, OP_PUT_V, OP_REMOVE_V, OP_BATCH_V, OP_EVENTS];
        for op in (0..=u8::MAX).filter(|op| !KNOWN.contains(op)) {
            // Enough trailing bytes to satisfy any fixed field layout: the
            // opcode alone must decide the rejection.
            let mut body = vec![op];
            body.extend_from_slice(&[0u8; 32]);
            let err = Request::decode(&body).expect_err("an opcode outside the table");
            assert!(
                err.to_string().contains(&format!("unknown opcode 0x{op:02x}")),
                "opcode 0x{op:02x}: {err}"
            );
        }
    }

    /// A merged snapshot with nonzero counters in every wire field.
    fn snapshot() -> StatsSnapshot {
        let mut stats = StatsSnapshot {
            gets: 3,
            get_hits: 2,
            puts: 5,
            removes: 1,
            scans: 4,
            batches: 6,
            lock_wait_ns: 99,
            lock_hold_ns: 77,
            evictions: 8,
            expired: 9,
            mem_bytes: 4_096,
            ..Default::default()
        };
        stats.latency.buckets[5] = 17;
        stats.latency.max_ns = 1 << 20;
        stats
    }

    fn window() -> WindowSample {
        WindowSample {
            window: 4,
            start_ns: 200_000_000,
            end_ns: 250_000_000,
            ops: 5_000,
            p50_ns: 1_024,
            p99_ns: 8_192,
            lock_wait_ns: 3_000_000,
            lock_hold_ns: 1_000_000,
            pkg_uj: 2_000_000,
            dram_uj: 100,
            measured: true,
            freq_khz: Some(1_200_000),
            gets: 4_000,
            get_hits: 3_000,
            evictions: 7,
            mem_bytes: 65_536,
        }
    }

    /// A STATS payload with every optional block filled.
    fn full_stats() -> WireStats {
        WireStats {
            lock: LockKind::Clh,
            shards: 3,
            stats: snapshot(),
            measured: Some(MeasuredReading { package_uj: u64::MAX, dram_uj: 12_345, samples: 9 }),
            window: Some(window()),
            heat: Some(heat_sample()),
        }
    }

    #[test]
    fn responses_round_trip() {
        let bare = WireStats {
            lock: LockKind::Mutex,
            shards: 1,
            stats: StatsSnapshot::default(),
            measured: None,
            window: None,
            heat: None,
        };
        let cases: Vec<(Request, Response)> = vec![
            (Request::GetV(1), Response::ValueV(Some(vec![9; 300]))),
            (Request::GetV(1), Response::ValueV(None)),
            (Request::PutV(1, vec![2]), Response::ValueV(Some(Vec::new()))),
            (Request::RemoveV(1), Response::ValueV(None)),
            (Request::BatchV(Vec::new()), Response::Batch { applied: 3 }),
            (Request::Scan, Response::Scan { count: 10, epoch: 3 }),
            (Request::GetV(1), Response::Error("boom".into())),
            (Request::Stats, Response::Stats(Box::new(bare.clone()))),
            (Request::Stats, Response::Stats(Box::new(full_stats()))),
            (
                Request::Stats,
                Response::Stats(Box::new(WireStats {
                    lock: LockKind::Ttas,
                    stats: snapshot(),
                    window: Some(WindowSample::default()),
                    ..bare.clone()
                })),
            ),
            (
                Request::Stats,
                Response::Stats(Box::new(WireStats {
                    heat: Some(HeatSample {
                        window: 0,
                        start_ns: 0,
                        end_ns: 0,
                        shards: Vec::new(),
                    }),
                    ..bare
                })),
            ),
            (Request::Events { since_seq: 0 }, Response::Events(Vec::new())),
            (Request::Events { since_seq: 3 }, Response::Events(event_batch())),
        ];
        for (req, resp) in cases {
            assert_eq!(Response::decode(&resp.encode(), &req).expect("round-trip"), resp);
        }
    }

    /// A representative heat window: a hot shard with a sketch, a warm
    /// shard without one, and an idle shard.
    fn heat_sample() -> HeatSample {
        HeatSample {
            window: 9,
            start_ns: 450_000_000,
            end_ns: 500_000_000,
            shards: vec![
                ShardHeat {
                    ops: 40_000,
                    lock_wait_ns: 7_000_000,
                    lock_hold_ns: 2_000_000,
                    evictions: 3,
                    mem_bytes: 1 << 20,
                    top_keys: vec![
                        HotKey { key: 0, count: 32_000 },
                        HotKey { key: 17, count: 800 },
                    ],
                },
                ShardHeat { ops: 5_000, ..ShardHeat::default() },
                ShardHeat::default(),
            ],
        }
    }

    /// A representative event batch: a fielded warning, a bare info, and
    /// an event whose strings exercise the empty and non-ASCII cases.
    fn event_batch() -> Vec<Event> {
        vec![
            Event {
                seq: 3,
                ts_ms: 1_700_000_000_123,
                level: Level::Warn,
                kind: "cap_refused".into(),
                fields: vec![
                    ("requested_khz".into(), "800000".into()),
                    ("error".into(), "permission denied".into()),
                ],
            },
            Event {
                seq: 4,
                ts_ms: 1_700_000_000_456,
                level: Level::Info,
                kind: "cap_restore".into(),
                fields: Vec::new(),
            },
            Event {
                seq: 9,
                ts_ms: u64::MAX,
                level: Level::Error,
                kind: String::new(),
                fields: vec![(String::new(), "µ-värde".into())],
            },
        ]
    }

    #[test]
    fn events_are_rejected_when_torn_or_lying() {
        let req = Request::Events { since_seq: 0 };
        let full = Response::Events(event_batch()).encode();
        // Torn inside the last event's value string, inside a kind, and
        // right after the count.
        for cut in [full.len() - 1, full.len() - 8, 5] {
            assert!(Response::decode(&full[..cut], &req).is_err(), "cut at {cut} must be torn");
        }
        // Trailing bytes after a complete reply are a framing error.
        let mut extra = full.clone();
        extra.push(0);
        assert!(Response::decode(&extra, &req).is_err());
        // A count claiming more events than the frame carries must fail
        // before allocating for them — same for a lying field count.
        let mut lying = vec![STATUS_OK];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&lying, &req).is_err());
        let mut lying_fields = vec![STATUS_OK];
        lying_fields.extend_from_slice(&1u32.to_le_bytes());
        lying_fields.extend_from_slice(&[0u8; 17]); // seq + ts + level
        lying_fields.extend_from_slice(&0u32.to_le_bytes()); // empty kind
        lying_fields.extend_from_slice(&u32::MAX.to_le_bytes()); // field count
        assert!(Response::decode(&lying_fields, &req).is_err());
        // An unknown level code is invalid data, not a panic.
        let mut bad_level = vec![STATUS_OK];
        bad_level.extend_from_slice(&1u32.to_le_bytes());
        bad_level.extend_from_slice(&[0u8; 16]); // seq + ts
        bad_level.push(9); // no such level
        bad_level.extend_from_slice(&0u32.to_le_bytes());
        bad_level.extend_from_slice(&0u32.to_le_bytes());
        assert!(Response::decode(&bad_level, &req).is_err());
        // A truncated request (opcode without its since_seq) is torn.
        assert!(Request::decode(&[OP_EVENTS, 1, 2]).is_err());
    }

    #[test]
    fn every_lock_kind_crosses_the_wire() {
        for lock in LockKind::ALL {
            assert_eq!(lock_from_wire(lock_to_wire(lock)).unwrap(), lock);
        }
        assert!(lock_from_wire(200).is_err());
    }

    #[test]
    fn malformed_frames_are_rejected_not_panics() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x7F]).is_err());
        assert!(Request::decode(&[OP_GET_V, 1, 2]).is_err()); // truncated key
        let mut extra = Request::GetV(1).encode();
        extra.push(0);
        assert!(Request::decode(&extra).is_err()); // trailing bytes
                                                   // A batch header claiming more ops than the frame carries must
                                                   // fail before allocating for them.
        let mut lying = vec![OP_BATCH_V];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err());
        // A PUTV whose declared value length overruns the frame is torn.
        let mut torn_put = vec![OP_PUT_V];
        torn_put.extend_from_slice(&7u64.to_le_bytes());
        torn_put.extend_from_slice(&100u32.to_le_bytes());
        torn_put.extend_from_slice(&[1, 2, 3]);
        assert!(Request::decode(&torn_put).is_err());
        // A ValueV reply torn inside its bytes.
        let vv = Response::ValueV(Some(vec![5; 32])).encode();
        assert!(Response::decode(&vv[..vv.len() - 1], &Request::GetV(1)).is_err());
        assert!(Response::decode(&[], &Request::Scan).is_err());
        assert!(Response::decode(&[9], &Request::Scan).is_err());
    }

    #[test]
    fn stats_is_rejected_when_torn_or_lying() {
        let full = full_stats();
        let no_heat = Response::Stats(Box::new(WireStats { heat: None, ..full.clone() })).encode();
        let bytes = Response::Stats(Box::new(full)).encode();
        // The heat block starts at the heat present byte, the last byte of
        // the heatless frame; the window block (present byte + words) sits
        // right before it, and the measured block before that.
        let heat_at = no_heat.len() - 1;
        assert_eq!(&bytes[..heat_at], &no_heat[..heat_at]);
        let window_at = heat_at - 1 - WindowSample::WIRE_WORDS * 8;
        // Torn inside the histogram, the measured block, the window words,
        // the heat header, right after the shard count, and inside the
        // key list: a cut STATS is an error, never a silently shorter
        // reply.
        for cut in [
            100,
            window_at - 10,
            heat_at - 3,
            heat_at + 10,
            heat_at + 1 + 24 + 4,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            assert!(
                Response::decode(&bytes[..cut], &Request::Stats).is_err(),
                "cut at {cut} must be torn"
            );
        }
        // Trailing bytes after a complete reply are a framing error.
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Response::decode(&extra, &Request::Stats).is_err());
        // A heat header claiming more shards than the frame carries must
        // fail before allocating for them.
        let mut lying = no_heat[..heat_at].to_vec();
        lying.push(1);
        lying.extend_from_slice(&[0u8; 24]); // window/start/end
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&lying, &Request::Stats).is_err());
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::PutV(1, vec![2]).encode()).unwrap();
        write_frame(&mut wire, &Request::Scan.encode()).unwrap();
        let mut r = &wire[..];
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::PutV(1, vec![2])
        );
        assert_eq!(Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(), Request::Scan);
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at a frame boundary");

        // An oversized length prefix is rejected without allocating.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // The write side refuses to produce such a frame in the first
        // place (InvalidInput, nothing written).
        let mut sink = Vec::new();
        let oversized = vec![0u8; MAX_FRAME + 1];
        let err = write_frame(&mut sink, &oversized).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "no partial frame may leak out");
        // A torn frame (EOF mid-body) is an error, not a silent None.
        let torn = [5u8, 0, 0, 0, 1, 2];
        assert!(read_frame(&mut &torn[..]).is_err());
    }

    /// The frame stream a pipelined burst produces, as raw wire bytes.
    fn wire_of(reqs: &[Request]) -> Vec<u8> {
        let mut wire = Vec::new();
        for req in reqs {
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        wire
    }

    #[test]
    fn decoder_survives_a_split_at_every_byte_boundary() {
        // Three frames of different shapes, then the stream is torn at
        // every possible position; the decoder must produce the same
        // three bodies regardless of where the tear lands (including
        // inside the length prefix).
        let reqs = [
            Request::PutV(7, vec![9; 3]),
            Request::Scan,
            Request::BatchV(vec![(1, Some(vec![2])), (3, None)]),
        ];
        let wire = wire_of(&reqs);
        for split in 0..=wire.len() {
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            dec.push(&wire[..split]);
            while let Some(body) = dec.next_frame().unwrap() {
                out.push(Request::decode(body).unwrap());
            }
            let mid_frame = !dec.at_boundary();
            dec.push(&wire[split..]);
            while let Some(body) = dec.next_frame().unwrap() {
                out.push(Request::decode(body).unwrap());
            }
            assert_eq!(out, reqs, "split at byte {split}");
            assert!(dec.at_boundary(), "split at byte {split} left residue");
            // Sanity: some split points genuinely tore a frame.
            if split % 21 == 2 {
                assert!(mid_frame, "split at {split} should land mid-frame");
            }
        }
    }

    #[test]
    fn decoder_survives_byte_at_a_time_delivery() {
        // The pathological nonblocking read: one byte per readiness event.
        let reqs = [Request::GetV(u64::MAX), Request::RemoveV(0), Request::Stats];
        let wire = wire_of(&reqs);
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            dec.push(&[b]);
            while let Some(body) = dec.next_frame().unwrap() {
                out.push(Request::decode(body).unwrap());
            }
        }
        assert_eq!(out, reqs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_oversize_before_the_body_arrives() {
        // Only the 4-byte prefix is pushed: the decoder must refuse it
        // without waiting for (or allocating) the claimed body.
        let mut dec = FrameDecoder::new();
        dec.push(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(dec.next_frame().is_err());
        // A fresh decoder at exactly MAX_FRAME is fine once bytes arrive.
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(dec.next_frame().unwrap(), None, "prefix alone is not a frame");
        assert_eq!(dec.buffered(), 4);
    }

    #[test]
    fn interleaved_pipelined_responses_pair_with_their_fifo_requests() {
        // A depth-4 pipelined exchange: the client keeps its unanswered
        // requests in FIFO order and decodes each arriving frame against
        // the queue head. Point-op and batch replies can share byte
        // patterns, so pairing against the wrong request must be caught by
        // this round-trip, not silently mis-decoded.
        let reqs = vec![
            Request::PutV(1, vec![10]),
            Request::GetV(1),
            Request::BatchV(vec![(2, Some(vec![20])), (3, Some(vec![30]))]),
            Request::Scan,
        ];
        let resps = vec![
            Response::ValueV(None),
            Response::ValueV(Some(vec![10])),
            Response::Batch { applied: 2 },
            Response::Scan { count: 3, epoch: 0 },
        ];
        let mut wire = Vec::new();
        for resp in &resps {
            write_frame(&mut wire, &resp.encode()).unwrap();
        }
        // Deliver the response stream in uneven chunks (7 bytes at a time)
        // to interleave frame boundaries and read boundaries.
        let mut dec = FrameDecoder::new();
        let mut fifo = reqs.into_iter().collect::<std::collections::VecDeque<_>>();
        let mut got = Vec::new();
        for chunk in wire.chunks(7) {
            dec.push(chunk);
            while let Some(body) = dec.next_frame().unwrap() {
                let req = fifo.pop_front().expect("a frame per pending request");
                got.push(Response::decode(body, &req).unwrap());
            }
        }
        assert_eq!(got, resps);
        assert!(fifo.is_empty(), "every pipelined request was answered");
    }

    #[test]
    fn decoder_reclaims_consumed_bytes() {
        // Parse many frames through one decoder: the internal buffer must
        // not grow with the total bytes ever seen.
        let frame = wire_of(&[Request::PutV(1, vec![2])]);
        let mut dec = FrameDecoder::new();
        for _ in 0..10_000 {
            dec.push(&frame);
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert!(dec.at_boundary());
        assert!(
            dec.buf.capacity() < frame.len() * 10_000,
            "decoder buffer accreted every frame it ever parsed"
        );
    }
}

//! `poly-net` — the TCP serving front-end of the "Unlocking Energy"
//! reproduction: the paper's lock/energy argument, put under a real
//! network service.
//!
//! Pure `std::net` plus raw `epoll(7)` bindings (the workspace builds
//! offline), in layers:
//!
//! * [`proto`] — a compact length-prefixed binary protocol (byte-valued
//!   GETV/PUTV/REMOVEV/BATCHV, SCAN, STATS and EVENTS over little-endian
//!   frames), with an incremental [`proto::FrameDecoder`] and pipelining
//!   rules (FIFO per connection, errors answered in their slot);
//! * [`epoll`] — the no-dependency syscall bindings under the readiness
//!   server;
//! * [`NetServer`] — one [`poly_store::PolyStore`] behind either
//!   architecture ([`Arch`]): `threads`, a blocking accept loop with one
//!   worker per connection (capped by [`ServerConfig::max_conns`]), or
//!   `epoll`, a single readiness loop multiplexing thousands of
//!   connections; both answer every request frame through one path and
//!   share graceful shutdown and the connection, frame and byte counters
//!   ([`NetStatsSnapshot`]), and both are configured through
//!   [`NetServer::builder`];
//! * [`NetClient`] — a connection-pooled client implementing
//!   [`poly_store::KvService`], so `poly_store::run_load_on` paces the
//!   same open-loop kv scenarios over TCP that it runs in-process; with
//!   [`NetClient::with_pipeline`] each session fans out over several
//!   connections and keeps many requests in flight, and the `STATS`
//!   exchange folds the *server's* shard-lock waits into the modeled
//!   joules-per-op.
//!
//! `STATS` is the server's one telemetry frame. A server built with
//! `.metered(sampler)` adds the serving process's cumulative *measured*
//! (RAPL) energy; the driver diffs two readings around its measure window
//! so TCP sweeps report measured joules attributed to the server. A
//! server built with `.telemetry(log)` — the `poly_trace::WindowLog` a
//! `poly_trace::StoreCollector` appends to — adds the log's newest tick:
//! its telemetry window (throughput, per-window p50/p99, lock wait/hold,
//! measured joules) and the same window's *per-shard* heat (per-shard
//! ops, lock wait/hold, evictions, residency, hot-key sketch), which is
//! what `store top` and `store heat` poll. The caller owns the collector.
//!
//! Every server also answers the `EVENTS` opcode from the process-wide
//! [`poly_obs::journal`]: the structured events the subsystems emit
//! (cap applies, eviction sweeps, refused connections) with
//! `seq >= since_seq`, oldest first — the frame `store events` tails.
//! For pull-based scraping, [`NetServer::register_metrics`] registers the
//! serving-path counters (connections, refusals, frames, bytes) with a
//! `poly_obs::MetricRegistry`, labeled by architecture.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use poly_store::{KvMix, LoadSpec, PolyStore, StoreConfig, run_load_on, LockKind};
//! use poly_net::{Arch, NetClient, NetServer};
//!
//! let mix = KvMix::uniform().with_shards(4);
//! let store = Arc::new(PolyStore::new(StoreConfig { shards: mix.shards, lock: LockKind::Mutexee, ..Default::default() }));
//! let server = NetServer::builder("127.0.0.1:0")
//!     .architecture(Arch::Epoll)
//!     .serve(Arc::clone(&store))
//!     .unwrap();
//! let client = NetClient::connect(server.local_addr()).unwrap().with_pipeline(2, 4);
//! let spec = LoadSpec { depth: 4, ..LoadSpec::saturating(mix, 2, 100, 42) };
//! let report = run_load_on(&client, &spec);
//! assert_eq!(report.ops, 200);
//! ```

#![deny(missing_docs)]

mod client;
pub mod epoll;
mod event_loop;
pub mod proto;
mod server;

pub use client::{NetClient, NetConn, PooledConn};
pub use server::{Arch, NetServer, NetStatsSnapshot, ServerBuilder, ServerConfig};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use poly_locks_sim::LockKind;
    use poly_store::{run_load_on, KvConnection, KvMix, LoadSpec, PolyStore, StoreConfig};

    use crate::proto::Request;
    use crate::{Arch, NetClient, NetServer, ServerConfig};

    fn serve(lock: LockKind, shards: usize) -> (NetServer, NetClient) {
        serve_arch(lock, shards, Arch::Threads)
    }

    fn serve_arch(lock: LockKind, shards: usize, arch: Arch) -> (NetServer, NetClient) {
        let store = Arc::new(PolyStore::new(StoreConfig { shards, lock, ..Default::default() }));
        let server =
            NetServer::builder("127.0.0.1:0").architecture(arch).serve(store).expect("bind");
        let client = NetClient::connect(server.local_addr()).expect("connect loopback");
        (server, client)
    }

    #[test]
    fn point_ops_round_trip_over_loopback() {
        let (server, client) = serve(LockKind::Mutexee, 4);
        let mut s = client.session().unwrap();
        let conn = s.conn_mut();
        assert_eq!(conn.put_bytes(1, b"ten").unwrap(), None);
        assert_eq!(conn.put_bytes(1, b"eleven").unwrap().as_deref(), Some(&b"ten"[..]));
        assert_eq!(conn.get_bytes(1).unwrap().as_deref(), Some(&b"eleven"[..]));
        assert_eq!(conn.get_bytes(2).unwrap(), None);
        assert_eq!(conn.remove_bytes(1).unwrap().as_deref(), Some(&b"eleven"[..]));
        assert_eq!(conn.get_bytes(1).unwrap(), None);
        // An empty value is a value, distinct from absence.
        assert_eq!(conn.put_bytes(3, b"").unwrap(), None);
        assert_eq!(conn.get_bytes(3).unwrap(), Some(Vec::new()));
        drop(s);
        let ops = server.store().total_stats();
        assert_eq!((ops.gets, ops.puts, ops.removes), (4, 3, 1));
        let net = server.net_stats();
        assert_eq!(net.frames, 9, "stats probe + 8 point ops");
        assert!(net.bytes_in > 0 && net.bytes_out > 0);
    }

    #[test]
    fn scans_and_batches_cross_the_wire() {
        let (server, client) = serve(LockKind::Ttas, 8);
        let mut s = client.session().unwrap();
        let conn = s.conn_mut();
        let mut batch = poly_store::WriteBatch::new();
        for k in 0..100 {
            batch.put_u64(k, k * 3);
        }
        batch.remove(7);
        assert_eq!(conn.apply(&batch).unwrap(), 101);
        let (count, epoch) = conn.scan().unwrap();
        assert_eq!(count, 99);
        assert_eq!(epoch, 0);
        server.store().bump_epoch();
        assert_eq!(conn.scan().unwrap().1, 1);
        // The server-side store saw the batch as batches, not point ops.
        let ws = conn.stats().unwrap();
        assert_eq!(ws.lock, LockKind::Ttas);
        assert_eq!(ws.shards, 8);
        assert_eq!(ws.stats.puts, 100);
        assert!(ws.stats.batches >= 1);
    }

    #[test]
    fn sessions_return_to_the_pool() {
        let (_server, client) = serve(LockKind::Mutex, 2);
        assert_eq!(client.pooled(), 1);
        {
            let _a = client.session().unwrap();
            let _b = client.session().unwrap();
            assert_eq!(client.pooled(), 0);
        }
        assert_eq!(client.pooled(), 2, "dropped sessions must return their connections");
    }

    #[test]
    fn open_loop_driver_runs_over_tcp() {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(2);
        let mix = KvMix { keys: 1_024, ..KvMix::uniform() }.with_shards(4);
        let (server, client) = serve(LockKind::Mutexee, mix.shards);
        let spec = LoadSpec::saturating(mix, threads, 300, 42);
        let r = run_load_on(&client, &spec);
        assert_eq!(r.ops, threads as u64 * 300);
        assert_eq!(r.request_latency.count(), r.ops);
        assert!(r.throughput > 0.0);
        assert!(r.p50_ns <= r.p99_ns);
        // Stats came over the wire from the server's shards.
        assert!(r.store_stats.gets > 0);
        assert!(r.lock_hold_ns > 0);
        assert!(r.energy.avg_power_w > 27.0 && r.energy.avg_power_w < 207.0);
        let net = server.net_stats();
        assert!(net.frames >= r.ops, "every op crossed the wire");
    }

    #[test]
    fn batched_kv_mix_runs_over_tcp() {
        let mix = KvMix { keys: 1_024, batch: 8, ..KvMix::write_burst() }.with_shards(4);
        let (server, client) = serve(LockKind::Mutex, mix.shards);
        let r = run_load_on(&client, &LoadSpec::saturating(mix, 1, 200, 7));
        assert_eq!(r.ops, 200);
        assert_eq!(r.request_latency.count(), 200);
        assert!(r.store_stats.batches > 0, "batches must ship as BATCHV frames");
        assert!(server.store().total_stats().batches > 0);
    }

    #[test]
    fn metered_server_ships_measured_energy_over_the_wire() {
        use poly_meter::{EnergySource, FakeRapl, RaplSampler};
        use std::sync::atomic::{AtomicBool, Ordering};

        let fake = FakeRapl::new("net-measured");
        fake.domain(0, "package-0", 0);
        let sampler = Arc::new(
            RaplSampler::probe_at(fake.root(), Duration::from_millis(2)).unwrap().unwrap(),
        );
        let mix = KvMix { keys: 1_024, ..KvMix::uniform() }.with_shards(4);
        let store = Arc::new(PolyStore::new(StoreConfig {
            shards: mix.shards,
            lock: LockKind::Mutexee,
            ..Default::default()
        }));
        let server = NetServer::builder("127.0.0.1:0")
            .metered(Some(Arc::clone(&sampler)))
            .serve(store)
            .expect("bind metered loopback");
        let client = NetClient::connect(server.local_addr()).expect("connect");

        // A mutator burns fake package energy while the load runs.
        let stop = AtomicBool::new(false);
        let r = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    fake.advance(0, 10_000);
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
            // Paced: ~200 ops at 20k/s ≈ 10 ms, spanning many mutator ticks.
            let spec =
                LoadSpec { rate_ops_s: Some(20_000), ..LoadSpec::saturating(mix, 1, 200, 11) };
            let r = run_load_on(&client, &spec);
            stop.store(true, Ordering::SeqCst);
            r
        });
        assert_eq!(r.energy_source, EnergySource::Rapl);
        let measured = r.measured.expect("server-side measured energy crossed the wire");
        assert!(measured.package_j > 0.0, "no joules attributed: {measured:?}");
        assert!(r.measured_uj_per_op().unwrap() > 0.0);
        // An unmetered server on the same fake host reports model-only.
        let (_plain_server, plain_client) = serve(LockKind::Mutex, 2);
        let r2 = run_load_on(&plain_client, &LoadSpec::saturating(mix, 1, 50, 3));
        assert_eq!(r2.energy_source, EnergySource::Modeled);
        assert!(r2.measured.is_none());
    }

    #[test]
    fn stats_carries_the_newest_logged_tick_over_loopback() {
        use poly_trace::{HeatSample, ShardHeat, Tick, WindowLog, WindowSample};

        // A server with no collector answers STATS with neither window.
        let (_plain, plain_client) = serve(LockKind::Mutex, 2);
        let ws = plain_client.session().unwrap().conn_mut().stats().unwrap();
        assert_eq!(ws.lock, LockKind::Mutex);
        assert_eq!((ws.window, ws.heat), (None, None));

        // A server with a log answers with its newest tick's window and
        // heat.
        let log = Arc::new(WindowLog::new(8));
        let sample = WindowSample {
            window: 3,
            start_ns: 150_000_000,
            end_ns: 200_000_000,
            ops: 4_200,
            p50_ns: 900,
            p99_ns: 7_000,
            ..WindowSample::default()
        };
        let heat = HeatSample {
            window: 3,
            start_ns: sample.start_ns,
            end_ns: sample.end_ns,
            shards: vec![ShardHeat { ops: 4_200, ..ShardHeat::default() }],
        };
        let tick = |i: u64| Tick {
            window: WindowSample { window: i, ..sample },
            heat: HeatSample { window: i, ..heat.clone() },
        };
        log.push(tick(2));
        log.push(tick(3));
        let store = Arc::new(PolyStore::new(StoreConfig {
            shards: 4,
            lock: LockKind::Mutexee,
            ..Default::default()
        }));
        let server = NetServer::builder("127.0.0.1:0")
            .telemetry(Arc::clone(&log))
            .serve(store)
            .expect("bind with a log");
        let client = NetClient::connect(server.local_addr()).expect("connect");
        let mut session = client.session().unwrap();
        let ws = session.conn_mut().stats().unwrap();
        assert_eq!((ws.lock, ws.shards), (LockKind::Mutexee, 4));
        let newest = tick(3);
        assert_eq!((ws.window, ws.heat), (Some(newest.window), Some(newest.heat)));
        // A newer tick replaces both windows at once.
        log.push(tick(4));
        let ws = session.conn_mut().stats().unwrap();
        assert_eq!((ws.window.map(|w| w.window), ws.heat.map(|h| h.window)), (Some(4), Some(4)));
        // Each exchange crossed the wire as one frame.
        assert_eq!(server.net_stats().frames, 3, "probe + two stats");
    }

    #[test]
    fn graceful_shutdown_joins_workers_and_closes_conns() {
        let (mut server, client) = serve(LockKind::Mutexee, 2);
        let mut s = client.session().unwrap();
        s.conn_mut().put_bytes(5, b"50").unwrap();
        server.shutdown();
        server.shutdown(); // idempotent
                           // The worker is gone: the next request fails instead of hanging.
        assert!(
            s.conn_mut().get_bytes(5).is_err(),
            "request against a shut-down server must error"
        );
    }

    #[test]
    fn connection_cap_refuses_extra_clients() {
        // Both architectures must answer an over-cap connection with a
        // protocol-level error frame: a silent close is indistinguishable
        // from a crash.
        for arch in Arch::ALL {
            let store = Arc::new(PolyStore::new(StoreConfig {
                shards: 2,
                lock: LockKind::Mutex,
                ..Default::default()
            }));
            let cfg = ServerConfig { max_conns: 1, read_timeout: Duration::from_millis(10) };
            let server = NetServer::builder("127.0.0.1:0")
                .config(cfg)
                .architecture(arch)
                .serve(store)
                .expect("bind");
            let client = NetClient::connect(server.local_addr()).expect("first client fits");
            // The pooled probe connection holds the only slot; a second
            // dial is accepted by the OS but refused by the server with
            // an error frame, which the connect-time STATS probe surfaces
            // as a readable error instead of a bare hangup.
            let refused = NetClient::connect(server.local_addr());
            let err = refused.err().unwrap_or_else(|| panic!("[{arch}] second conn must refuse"));
            assert!(
                err.to_string().contains("capacity"),
                "[{arch}] refusal must say why, got: {err}"
            );
            // The refusal was counted (synchronously, before the close).
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while server.net_stats().refused == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(server.net_stats().refused >= 1, "[{arch}]");
            drop(client);
        }
    }

    #[test]
    fn malformed_request_yields_error_response_not_crash() {
        use crate::proto::{read_frame, write_frame};
        use std::io::Write;

        for arch in Arch::ALL {
            let (_server, client) = serve_arch(LockKind::Mutex, 2, arch);
            let mut s = client.session().unwrap();
            assert!(s.conn_mut().request(&Request::GetV(1)).is_ok());
            // Hand-feed raw frames a Request cannot express: opcodes
            // outside the protocol table, one per frame on one socket.
            // Each must come back as an error response in its slot, with
            // the connection still usable for the next.
            let mut raw = std::net::TcpStream::connect(client.addr()).unwrap();
            for op in [0x01, 0x07, 0x0C, 0x7F] {
                write_frame(&mut raw, &[op, 1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
                raw.flush().unwrap();
                let body = read_frame(&mut raw).unwrap().expect("an error frame, not a hangup");
                assert_eq!(body[0], 0x01, "[{arch}] opcode 0x{op:02x}: status must be ERR");
                let msg = String::from_utf8_lossy(&body[1..]);
                assert!(msg.contains("unknown opcode"), "[{arch}] 0x{op:02x}: {msg}");
            }
            // And the original session still works.
            assert!(s.conn_mut().get_bytes(1).is_ok(), "[{arch}]");
        }
    }

    #[test]
    fn epoll_server_round_trips_the_whole_protocol() {
        let (server, client) = serve_arch(LockKind::Mutexee, 4, Arch::Epoll);
        assert_eq!(server.architecture(), Arch::Epoll);
        let mut s = client.session().unwrap();
        let conn = s.conn_mut();
        assert_eq!(conn.put_bytes(1, b"10").unwrap(), None);
        assert_eq!(
            conn.put_bytes(1, b"11").unwrap().as_deref(),
            Some(&b"10"[..]),
            "a lone PUT keeps its previous value"
        );
        assert_eq!(conn.get_bytes(1).unwrap().as_deref(), Some(&b"11"[..]));
        assert_eq!(conn.remove_bytes(1).unwrap().as_deref(), Some(&b"11"[..]));
        let mut batch = poly_store::WriteBatch::new();
        for k in 0..50 {
            batch.put_u64(k, k);
        }
        assert_eq!(conn.apply(&batch).unwrap(), 50);
        assert_eq!(conn.scan().unwrap().0, 50);
        let ws = conn.stats().unwrap();
        assert_eq!(ws.shards, 4);
        drop(s);
        assert_eq!(server.net_stats().frames, 8, "stats probe + 7 requests");
        let ops = server.store().total_stats();
        assert_eq!((ops.puts, ops.removes), (52, 1), "2 PUTVs + one BATCHV of 50");
    }

    #[test]
    fn open_loop_driver_runs_over_the_epoll_server() {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(2);
        let mix = KvMix { keys: 1_024, ..KvMix::uniform() }.with_shards(4);
        let (server, client) = serve_arch(LockKind::Mutexee, mix.shards, Arch::Epoll);
        let r = run_load_on(&client, &LoadSpec::saturating(mix, threads, 300, 42));
        assert_eq!(r.ops, threads as u64 * 300);
        assert_eq!(r.request_latency.count(), r.ops);
        assert!(r.store_stats.gets > 0);
        assert!(server.net_stats().frames >= r.ops);
    }

    #[test]
    fn pipelined_sessions_run_the_driver_at_depth() {
        // Both architectures serve a depth-8, fan-2 pipelined load; every
        // op still contributes exactly one latency sample.
        for arch in Arch::ALL {
            let mix = KvMix { keys: 1_024, ..KvMix::uniform() }.with_shards(4);
            let (server, client) = serve_arch(LockKind::Mutexee, mix.shards, arch);
            let client = client.with_pipeline(2, 4);
            let spec = LoadSpec { depth: 8, ..LoadSpec::saturating(mix, 1, 400, 42) };
            let r = run_load_on(&client, &spec);
            assert_eq!(r.ops, 400, "[{arch}]");
            assert_eq!(r.request_latency.count(), 400, "[{arch}] one sample per pipelined op");
            let net = server.net_stats();
            assert!(net.frames >= 400, "[{arch}] every op crossed the wire");
            assert!(
                net.peak_conns >= 2,
                "[{arch}] a fan-2 session must hold 2 live connections, peak {}",
                net.peak_conns
            );
        }
    }

    #[test]
    fn pipelined_replies_arrive_in_ticket_order() {
        let (_server, client) = serve_arch(LockKind::Mutex, 2, Arch::Epoll);
        let client = client.with_pipeline(2, 4);
        let mut s = client.session().unwrap();
        // Interleave gets and removes over prefilled keys so every reply
        // value is distinguishable.
        for k in 0..8u64 {
            assert_eq!(s.put(k, &(100 + k).to_le_bytes()), None);
        }
        use poly_store::{PipeOp, Submitted};
        let mut tickets = Vec::new();
        for k in 0..8u64 {
            match s.submit(PipeOp::Get(k)) {
                Submitted::Queued(t) => tickets.push(t),
                Submitted::Done(_) => panic!("pipelined session must queue"),
            }
        }
        let replies = s.drain();
        assert_eq!(replies.len(), 8);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.ticket, tickets[i], "FIFO pairing");
            assert_eq!(
                r.value,
                Some((100 + i as u64).to_le_bytes().to_vec()),
                "reply {i} answered the wrong request"
            );
        }
    }

    #[test]
    fn architectures_answer_one_burst_byte_for_byte() {
        use crate::proto::{read_frame, write_frame, Response, MAX_FRAME};
        use std::io::Write;

        let key = 7u64;
        let mut requests: Vec<Request> =
            (0..4u64).map(|i| Request::PutV(key, (700 + i).to_le_bytes().to_vec())).collect();
        requests.extend([
            Request::GetV(key),
            Request::RemoveV(key),
            Request::BatchV(vec![(1, Some(b"one".to_vec())), (2, Some(Vec::new())), (3, None)]),
            Request::Scan,
            Request::GetV(key),
        ]);
        let mut burst = Vec::new();
        for req in &requests {
            write_frame(&mut burst, &req.encode()).unwrap();
        }
        // An unknown opcode, then a length prefix over MAX_FRAME: framing
        // is lost there, so the server answers it and closes.
        write_frame(&mut burst, &[0x7F, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        burst.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let streams: Vec<Vec<Vec<u8>>> = Arch::ALL
            .into_iter()
            .map(|arch| {
                let (server, _client) = serve_arch(LockKind::Mutex, 4, arch);
                server.store().put(key, &70u64.to_le_bytes());
                let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
                raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                raw.write_all(&burst).unwrap();
                std::iter::from_fn(|| read_frame(&mut raw).expect("a reply or a clean close"))
                    .collect()
            })
            .collect();
        assert_eq!(streams[0], streams[1], "threads and epoll must answer the same bytes");

        let replies = &streams[0];
        assert_eq!(replies.len(), requests.len() + 2, "one reply per request frame");
        let value = |i: usize| Response::decode(&replies[i], &requests[i]).unwrap();
        // Contiguous pipelined PUTVs each return the value they replaced,
        // in arrival order: the FIFO pairing holds on both servers.
        let previous: Vec<Response> = (0..4).map(value).collect();
        let expected: Vec<Response> = [70u64, 700, 701, 702]
            .iter()
            .map(|v| Response::ValueV(Some(v.to_le_bytes().to_vec())))
            .collect();
        assert_eq!(previous, expected);
        let last = Response::ValueV(Some(703u64.to_le_bytes().to_vec()));
        assert_eq!(value(4), last, "GETV sees the last PUTV");
        assert_eq!(value(5), last, "REMOVEV returns it");
        assert_eq!(value(6), Response::Batch { applied: 3 });
        assert_eq!(value(7), Response::Scan { count: 2, epoch: 0 });
        assert_eq!(value(8), Response::ValueV(None), "the removed key misses");
        let error = |i: usize| match Response::decode(&replies[i], &Request::Scan).unwrap() {
            Response::Error(msg) => msg,
            other => panic!("reply {i} is not an error: {other:?}"),
        };
        assert!(error(9).contains("unknown opcode 0x7f"), "{}", error(9));
        assert!(error(10).contains("exceeds MAX_FRAME"), "{}", error(10));
    }

    #[test]
    fn oversized_reply_becomes_an_error_in_its_slot() {
        use crate::proto::MAX_FRAME;

        for arch in Arch::ALL {
            let (server, client) = serve_arch(LockKind::Mutex, 2, arch);
            // Put in-process: a request carrying it could not be framed.
            server.store().put(1, &vec![0xAB; MAX_FRAME]);
            let mut s = client.session().unwrap();
            let conn = s.conn_mut();
            let err = conn.get_bytes(1).expect_err("a reply over MAX_FRAME cannot ship");
            assert!(err.to_string().contains("MAX_FRAME"), "[{arch}] {err}");
            // The error took the request's slot: the connection, and the
            // server, still answer.
            assert_eq!(conn.put_bytes(2, b"two").unwrap(), None, "[{arch}]");
            assert_eq!(conn.get_bytes(2).unwrap().as_deref(), Some(&b"two"[..]), "[{arch}]");
            drop(s);
            let fresh = NetClient::connect(server.local_addr()).expect("a new connection");
            let mut s = fresh.session().unwrap();
            assert_eq!(s.conn_mut().get_bytes(2).unwrap().as_deref(), Some(&b"two"[..]));
        }
    }

    #[test]
    fn collector_log_fills_both_stats_windows_from_one_tick() {
        // A collector's log wired through `telemetry`: one STATS reply
        // carries the aggregate window and the per-shard heat window of
        // the same tick, on both architectures.
        for arch in Arch::ALL {
            let store = Arc::new(PolyStore::new(StoreConfig {
                shards: 4,
                lock: LockKind::Mutexee,
                ..Default::default()
            }));
            let collector = poly_trace::StoreCollector::spawn(
                Arc::clone(&store),
                None,
                Duration::from_millis(5),
                64,
                None,
            );
            let server = NetServer::builder("127.0.0.1:0")
                .architecture(arch)
                .telemetry(collector.log())
                .serve(Arc::clone(&store))
                .unwrap();
            let client = NetClient::connect(server.local_addr()).unwrap();
            let mut s = client.session().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let ws = loop {
                // Keep traffic flowing so windows have ops to report.
                for k in 0..50u64 {
                    s.conn_mut().put_bytes(k, &k.to_le_bytes()).unwrap();
                }
                let ws = s.conn_mut().stats().unwrap();
                if ws.window.is_some() && ws.heat.as_ref().is_some_and(|h| h.total_ops() > 0) {
                    break ws;
                }
                assert!(std::time::Instant::now() < deadline, "[{arch}] no busy windows appeared");
            };
            let (window, heat) = (ws.window.unwrap(), ws.heat.unwrap());
            assert_eq!(window.window, heat.window, "[{arch}] window and heat from one tick");
            assert_eq!((window.start_ns, window.end_ns), (heat.start_ns, heat.end_ns), "[{arch}]");
            assert_eq!(window.ops, heat.total_ops(), "[{arch}] one snapshot pass per tick");
            assert!(window.end_ns > 0, "[{arch}]");
            assert_eq!(heat.shards.len(), 4, "[{arch}] one block per shard");
            assert!(heat.end_ns > heat.start_ns, "[{arch}]");
            assert!(heat.shard_skew().unwrap() >= 1.0, "[{arch}] skew is max/mean");
            // The sketch saw the keys the puts touched.
            assert!(
                heat.shards.iter().any(|sh| !sh.top_keys.is_empty()),
                "[{arch}] some shard must report hot keys"
            );
        }
    }

    #[test]
    fn events_round_trip_over_loopback_on_both_architectures() {
        // The journal is process-global, and sibling tests emit into it
        // concurrently: mark the horizon first, then filter by a kind
        // unique to this test.
        for arch in Arch::ALL {
            let (_server, client) = serve_arch(LockKind::Mutex, 2, arch);
            let since = poly_obs::journal().next_seq();
            let kind = format!("net_test_{arch}");
            poly_obs::journal().emit(poly_obs::Level::Warn, &kind, &[("k", "v".to_string())]);
            let mut s = client.session().unwrap();
            let events = s.conn_mut().events(since).unwrap();
            let mine: Vec<_> = events.iter().filter(|e| e.kind == kind).collect();
            assert_eq!(mine.len(), 1, "[{arch}] the emitted event crossed the wire");
            assert_eq!(mine[0].level, poly_obs::Level::Warn, "[{arch}]");
            assert_eq!(mine[0].fields, vec![("k".to_string(), "v".to_string())], "[{arch}]");
            // Tailing past the end returns empty, not an error.
            let next = mine[0].seq + 1;
            let later = s.conn_mut().events(next).unwrap();
            assert!(later.iter().all(|e| e.seq >= next), "[{arch}] since_seq is inclusive");
        }
    }

    #[test]
    fn registered_net_metrics_telescope_to_net_stats() {
        let reg = poly_obs::MetricRegistry::new();
        let (server, client) = serve(LockKind::Mutex, 2);
        server.register_metrics(&reg);
        let mut s = client.session().unwrap();
        for k in 0..20u64 {
            s.conn_mut().put_bytes(k, &k.to_le_bytes()).unwrap();
        }
        drop(s);
        let net = server.net_stats();
        let read = |name: &str| {
            reg.snapshot()
                .into_iter()
                .find(|m| m.name == name)
                .and_then(|m| {
                    m.series.first().map(|se| match se.value {
                        poly_obs::Sample::U64(v) => v,
                        ref other => panic!("{name}: unexpected sample {other:?}"),
                    })
                })
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        assert_eq!(read("net_connections_total"), net.connections);
        assert_eq!(read("net_frames_total"), net.frames);
        assert_eq!(read("net_bytes_in_total"), net.bytes_in);
        assert_eq!(read("net_bytes_out_total"), net.bytes_out);
        assert_eq!(read("net_peak_conns"), net.peak_conns);
        assert_eq!(read("net_refused_total"), net.refused);
        // The architecture rides as a label on every series.
        let snap = reg.snapshot();
        let fam = snap.iter().find(|m| m.name == "net_connections_total").unwrap();
        assert_eq!(fam.series[0].labels, vec![("server".to_string(), "threads".to_string())]);
    }

    #[test]
    fn graceful_shutdown_joins_the_event_loop() {
        let (mut server, client) = serve_arch(LockKind::Mutexee, 2, Arch::Epoll);
        let mut s = client.session().unwrap();
        s.conn_mut().put_bytes(5, b"50").unwrap();
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            s.conn_mut().get_bytes(5).is_err(),
            "request against a shut-down server must error"
        );
    }
}

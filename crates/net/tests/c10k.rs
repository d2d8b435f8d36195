//! The c10k smoke: the epoll server holding four digits of concurrent
//! loopback connections while a pipelined open-loop load runs over them.
//!
//! Connection count scales with `available_parallelism` so the 1-CPU CI
//! host still clears the 1000-connection floor (2 driver threads × a
//! 512-connection fan each) without thrashing; real multi-core hosts
//! push several thousand, and the architecture itself is fd-bound, not
//! thread-bound — 10k+ needs only `ulimit -n` headroom (the test raises
//! `RLIMIT_NOFILE` toward its hard cap first).
//!
//! The clients dial their connections in a burst, so the server's accept
//! queue must hold it: each connect the kernel drops from a full queue
//! (a `TcpExt ListenOverflows` in `/proc/net/netstat`) waits out a
//! one-second SYN retransmit.

use std::sync::Arc;

use poly_locks_sim::LockKind;
use poly_net::epoll::raise_nofile_limit;
use poly_net::{Arch, NetClient, NetServer, ServerConfig};
use poly_store::{run_load_on, KvMix, LoadSpec, PolyStore, StoreConfig};

/// The network namespace's `TcpExt ListenOverflows` count.
fn listen_overflows() -> u64 {
    let netstat = std::fs::read_to_string("/proc/net/netstat").expect("procfs");
    let mut tcp_ext = netstat.lines().filter(|l| l.starts_with("TcpExt:"));
    let (names, values) = (tcp_ext.next().expect("a header"), tcp_ext.next().expect("values"));
    let at = names.split_whitespace().position(|n| n == "ListenOverflows").expect("the counter");
    values.split_whitespace().nth(at).unwrap().parse().unwrap()
}

#[test]
fn epoll_server_sustains_a_c10k_scale_pipelined_load() {
    let par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = par.clamp(2, 4);
    let fan = 512usize;
    let conns = threads * fan;
    // Two fds per loopback connection (client + server end) plus slack.
    let limit = raise_nofile_limit((conns as u64) * 2 + 512).expect("rlimit");
    assert!(
        limit >= (conns as u64) * 2 + 128,
        "host fd limit {limit} cannot hold {conns} loopback connections"
    );

    let mix = KvMix { keys: 16_384, ..KvMix::uniform() }.with_shards(16);
    let store = Arc::new(PolyStore::new(StoreConfig {
        shards: mix.shards,
        lock: LockKind::Mutexee,
        ..Default::default()
    }));
    let server = NetServer::builder("127.0.0.1:0")
        .architecture(Arch::Epoll)
        .config(ServerConfig { max_conns: 20_000 })
        .serve(store)
        .expect("bind epoll server");

    let client = NetClient::connect(server.local_addr()).expect("connect").with_pipeline(fan, 16);
    let spec = LoadSpec { depth: 16, ..LoadSpec::saturating(mix, threads, 2_048, 1) };
    let overflows = listen_overflows();
    let r = run_load_on(&client, &spec);
    let overflowed = listen_overflows() - overflows;
    assert_eq!(overflowed, 0, "connects overflowed the accept queue (net.core.somaxconn too low?)");

    assert_eq!(r.ops, (threads as u64) * 2_048);
    assert_eq!(r.request_latency.count(), r.ops, "one latency sample per pipelined op");
    assert!(r.throughput > 0.0);

    let net = server.net_stats();
    assert!(
        net.peak_conns >= conns as u64,
        "expected ≥{conns} simultaneous connections, server peaked at {}",
        net.peak_conns
    );
    assert_eq!(net.refused, 0, "no connection may be refused under the cap");
    assert!(net.frames >= r.ops, "every op crossed the wire as its own frame");
}

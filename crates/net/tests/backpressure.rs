//! A client that stops reading must not cost the epoll loop its CPU.
//!
//! The loop stops reading a connection whose outbound buffer is over its
//! cap. This test holds a connection in that state, with one more request
//! waiting unread in its socket, and reads the loop thread's CPU time out
//! of `/proc/self/task`. It is a test binary of its own so that no other
//! test runs a `poly-net-accept` thread beside it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use poly_net::proto::{read_frame, write_frame, Request, Response};
use poly_net::{Arch, NetServer};
use poly_store::{LockKind, PolyStore, StoreConfig};

/// Clock ticks per second of `/proc/<pid>/task/<tid>/stat` times
/// (`USER_HZ`, 100 on every Linux architecture).
const TICKS_PER_S: f64 = 100.0;

/// utime + stime, in clock ticks, of the one thread named `name`.
fn thread_ticks(name: &str) -> u64 {
    let (mut found, mut ticks) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { continue };
        // `tid (comm) state …`: comm may hold spaces, so split at its ')'.
        let Some((head, rest)) = stat.rsplit_once(')') else { continue };
        if !head.ends_with(&format!("({name}")) {
            continue;
        }
        // Counting from state as field 3, utime is field 14, stime 15.
        let field = |i: usize| rest.split_whitespace().nth(i - 3).unwrap().parse::<u64>().unwrap();
        found += 1;
        ticks += field(14) + field(15);
    }
    assert_eq!(found, 1, "threads named {name}");
    ticks
}

#[test]
fn a_client_that_stops_reading_leaves_the_epoll_loop_idle() {
    const VALUE_BYTES: usize = 1 << 20;
    // 64 MiB of replies: far over the loop's 8 MiB cap plus what the
    // loopback socket buffers absorb.
    const PIPELINED: usize = 64;

    let store = Arc::new(PolyStore::new(StoreConfig {
        shards: 2,
        lock: LockKind::Mutex,
        ..Default::default()
    }));
    let value = vec![0x5A; VALUE_BYTES];
    store.put(1, &value);
    let server =
        NetServer::builder("127.0.0.1:0").architecture(Arch::Epoll).serve(store).expect("bind");

    let get = Request::GetV(1);
    let mut burst = Vec::new();
    for _ in 0..PIPELINED {
        write_frame(&mut burst, &get.encode()).unwrap();
    }
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(&burst).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.net_stats().frames < PIPELINED as u64 {
        assert!(Instant::now() < deadline, "the burst was never answered");
        std::thread::sleep(Duration::from_millis(5));
    }
    // One more request arrives while the loop is over its cap, so it
    // stays unread in the socket.
    write_frame(&mut raw, &get.encode()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let (t0, before) = (Instant::now(), thread_ticks("poly-net-accept"));
    std::thread::sleep(Duration::from_secs(1));
    let used = thread_ticks("poly-net-accept") - before;
    let window = t0.elapsed().as_secs_f64() * TICKS_PER_S;
    assert!(
        (used as f64) < 0.2 * window,
        "the loop burned {used} of {window:.0} clock ticks on a connection it may not read"
    );

    // Once the client reads, every reply arrives, the late one included.
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..=PIPELINED {
        let body = read_frame(&mut raw).unwrap().expect("a reply, not a hangup");
        let reply = Response::decode(&body, &get).unwrap();
        assert!(reply == Response::ValueV(Some(value.clone())), "reply {i} is not the value");
    }
    assert_eq!(server.net_stats().frames, PIPELINED as u64 + 1);
}

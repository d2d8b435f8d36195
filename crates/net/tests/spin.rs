//! Spin, then sleep: what the wire's waiters cost, and that a spin never
//! loses or invents a byte.
//!
//! The epoll loop and `NetConn` poll for up to 50 µs before they block,
//! and only after a wait that ended within those 50 µs. These tests read
//! the CPU time of the loop thread and of a client thread out of
//! `/proc/self/task` while they wait, and feed a client replies that
//! arrive late, torn or not at all. It is a test binary of its own so
//! that no other test runs a `poly-net-accept` thread beside them.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use poly_net::proto::{read_frame, write_frame, Response};
use poly_net::{Arch, NetConn, NetServer};
use poly_store::{PolyStore, StoreConfig};

use common::{thread_ticks, TICKS_PER_S};

/// Runs `f` on a thread of its own named `name`, failing with a message,
/// not a hang, if it has not returned within ten seconds.
fn within<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(name.into())
        .spawn(move || tx.send(f()).expect("the test waits for the result"))
        .expect("spawn");
    let out = rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| panic!("{name} hung"));
    handle.join().expect("the thread returned its result");
    out
}

/// A raw listener that answers each connection with `serve`, in order.
fn raw_server(
    conns: usize,
    serve: impl Fn(usize, TcpStream) + Send + 'static,
) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        for i in 0..conns {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).unwrap();
            read_frame(&mut stream).unwrap().expect("one request");
            serve(i, stream);
        }
    });
    (addr, handle)
}

/// The reply frame of a GETV that finds `value`.
fn value_reply(value: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &Response::ValueV(Some(value.to_vec())).encode()).unwrap();
    frame
}

#[test]
fn a_paced_client_leaves_the_epoll_loop_asleep() {
    const WINDOW: Duration = Duration::from_secs(2);
    const PAUSE: Duration = Duration::from_micros(100);
    // What the loop may burn per GETV: reading, answering and writing it,
    // with room for a slow unoptimised build. A spin after every request
    // would add the whole 50 µs budget, since no request comes within it.
    const CPU_PER_GET: Duration = Duration::from_micros(40);
    let store = Arc::new(PolyStore::new(StoreConfig { shards: 2, ..Default::default() }));
    store.put(1, b"one");
    let server =
        NetServer::builder("127.0.0.1:0").architecture(Arch::Epoll).serve(store).expect("bind");
    let mut conn = NetConn::dial(server.local_addr()).expect("dial");
    assert_eq!(conn.get_bytes(1).unwrap().as_deref(), Some(&b"one"[..]));

    // One GETV after each pause: every wait of the loop outlasts its spin
    // budget, so the loop must sleep through the pauses, not poll them.
    let (t0, before) = (Instant::now(), thread_ticks("poly-net-accept"));
    let mut gets = 0u32;
    while t0.elapsed() < WINDOW {
        thread::sleep(PAUSE);
        assert_eq!(conn.get_bytes(1).unwrap().as_deref(), Some(&b"one"[..]));
        gets += 1;
    }
    let used = thread_ticks("poly-net-accept") - before;
    let window = t0.elapsed().as_secs_f64() * TICKS_PER_S;
    let allowed = (CPU_PER_GET * gets).as_secs_f64() * TICKS_PER_S;
    assert!(
        (used as f64) < allowed,
        "the loop burned {used} of {window:.0} clock ticks serving {gets} paced GETVs, \
         over the {allowed:.0} ticks their work needs"
    );
}

#[test]
fn a_slow_reply_puts_the_client_to_sleep() {
    const LATE: Duration = Duration::from_millis(300);
    const CLIENT: &str = "slow-reply-cli";
    let (addr, server) = raw_server(1, |_, mut stream| {
        // The client has sent its GETV and waits: time what it burns.
        let (t0, before) = (Instant::now(), thread_ticks(CLIENT));
        thread::sleep(LATE);
        let used = thread_ticks(CLIENT) - before;
        let window = t0.elapsed().as_secs_f64() * TICKS_PER_S;
        assert!(
            (used as f64) < 0.2 * window,
            "the client burned {used} of {window:.0} clock ticks waiting for one late reply"
        );
        stream.write_all(&value_reply(b"late")).unwrap();
    });
    let got = within(CLIENT, move || NetConn::dial(addr).and_then(|mut c| c.get_bytes(7)));
    server.join().expect("the client's CPU check");
    assert_eq!(got.unwrap().as_deref(), Some(&b"late"[..]));
}

#[test]
fn a_reply_torn_across_the_spin_is_read_whole() {
    let value: Vec<u8> = (0..3_000u32).map(|i| i as u8).collect();
    let frame = value_reply(&value);
    // Torn inside the length prefix, inside the value's head, and inside
    // the value; the second half lands 5 ms later, long after the 50 µs
    // spin has given up and the client has blocked.
    let cuts = [2, 7, frame.len() / 2];
    let (addr, server) = raw_server(1, move |_, mut stream| {
        for (i, cut) in cuts.into_iter().enumerate() {
            if i > 0 {
                read_frame(&mut stream).unwrap().expect("the next request");
            }
            stream.write_all(&frame[..cut]).unwrap();
            thread::sleep(Duration::from_millis(5));
            stream.write_all(&frame[cut..]).unwrap();
        }
    });
    let got = within("torn-reply-cli", move || {
        let mut conn = NetConn::dial(addr).expect("dial");
        (0..cuts.len()).map(|_| conn.get_bytes(3)).collect::<Vec<_>>()
    });
    for (cut, reply) in cuts.iter().zip(got) {
        assert_eq!(reply.unwrap(), Some(value.clone()), "the reply torn at byte {cut}");
    }
    server.join().unwrap();
}

#[test]
fn a_peer_that_closes_mid_wait_is_an_error() {
    // Closed at once, while the client spins; closed after 5 ms, once it
    // has blocked; and closed halfway through a reply.
    let reply = value_reply(b"never whole");
    let (addr, server) = raw_server(3, move |i, mut stream| match i {
        0 => drop(stream),
        1 => thread::sleep(Duration::from_millis(5)),
        _ => stream.write_all(&reply[..reply.len() / 2]).unwrap(),
    });
    for case in ["at once", "after 5 ms", "mid-reply"] {
        let got = within("closed-peer-cli", move || NetConn::dial(addr)?.get_bytes(5));
        assert!(got.is_err(), "a peer that closed {case} answered {got:?}");
    }
    server.join().unwrap();
}

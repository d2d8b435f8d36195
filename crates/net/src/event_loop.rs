//! The readiness server: one thread, many connections.
//!
//! Instead of a worker thread per connection ([`crate::server::Arch::Threads`]),
//! a single loop waits for readiness and services whichever sockets the
//! kernel reports ready. The paper's sleep-vs-spin tradeoff reappears
//! here a layer up, twice. Between readiness bursts the loop sleeps in
//! `epoll_wait` rather than burning a blocked thread per idle connection,
//! which is what makes the architecture an energy axis worth sweeping.
//! And before it sleeps, it spins as MUTEXEE does: it polls `epoll_wait`
//! at timeout 0, yielding the CPU between polls, for at most 50 µs, and
//! only when its previous wait ended within that budget
//! ([`crate::spin::SpinThenSleep`]). A request that lands within the
//! budget is read without the loop being put to sleep and woken; an idle
//! loop, or one behind a paced client, goes straight to sleep.
//!
//! Each ready socket is serviced by the per-connection code a threads
//! worker runs too ([`crate::conn::Conn`]), through one read buffer the
//! loop owns, so an idle connection holds no read buffer. What the loop
//! adds is the wait: it registers each connection for reads only while
//! the connection would read (level-triggered `EPOLLIN` would otherwise
//! spin on a connection over its reply cap), and for writes only while
//! replies are queued, so a partial write resumes on `EPOLLOUT`.

use std::io;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::conn::{Conn, READ_BUF};
use crate::epoll::{Epoll, EPOLLIN, EPOLLOUT};
use crate::server::{Inner, STOP_POLL};
use crate::spin::SpinThenSleep;

/// Token reserved for the listening socket.
const LISTENER: u64 = 0;

/// The accept-and-serve loop; runs on the server's single accept thread
/// until the stop flag is raised. Connection counters, capacity
/// refusals, and the per-connection code are shared with the threads
/// server.
pub(crate) fn run(listener: TcpListener, inner: &Arc<Inner>) {
    let Ok(mut ep) = Epoll::new() else { return };
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    if ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER).is_err() {
        return;
    }
    // Each live connection, and the epoll interest it is registered with.
    let mut slab: Vec<Option<(Conn, u32)>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut rbuf = vec![0u8; READ_BUF];
    let mut waiter = SpinThenSleep::new();
    // The blocking wait's timeout is the stop flag's polling cadence, as
    // a threads worker's socket timeouts are.
    let timeout_ms = STOP_POLL.as_millis() as i32;

    loop {
        let woke = waiter.wait(|block| {
            let n = ep.wait(if block { timeout_ms } else { 0 })?;
            Ok((block || n > 0).then_some(()))
        });
        if woke.is_err() || inner.stop.load(Ordering::SeqCst) {
            break;
        }
        for ev in ep.ready() {
            if ev.token == LISTENER {
                accept_burst(&listener, &ep, inner, &mut slab, &mut free);
                continue;
            }
            let slot = (ev.token - 1) as usize;
            let Some((conn, interest)) = slab.get_mut(slot).and_then(Option::as_mut) else {
                continue; // already closed earlier in this burst
            };
            if conn.service(ev.readable, inner, &mut rbuf) {
                // Re-arm: read interest only while the connection would
                // read, write interest only while bytes queue. Over the
                // cap, frames may wait; the EPOLLOUT that drains the
                // buffer answers them.
                let (read, write) = conn.wants();
                let want = if read { EPOLLIN } else { 0 } | if write { EPOLLOUT } else { 0 };
                if want != *interest && ep.modify(conn.as_raw_fd(), want, ev.token).is_ok() {
                    *interest = want;
                }
            } else if let Some((conn, _)) = slab[slot].take() {
                let _ = ep.delete(conn.as_raw_fd());
                free.push(slot);
                inner.connection_closed();
            }
        }
    }
    // Shutdown: close every connection and give back its live slot.
    for conn in slab.into_iter().flatten() {
        drop(conn);
        inner.connection_closed();
    }
}

fn accept_burst(
    listener: &TcpListener,
    ep: &Epoll,
    inner: &Arc<Inner>,
    slab: &mut Vec<Option<(Conn, u32)>>,
    free: &mut Vec<usize>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if inner.at_capacity() {
            // Accepted sockets do not inherit the listener's nonblocking
            // flag, so the bounded blocking error-frame write in refuse()
            // works here too.
            inner.refuse(stream);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        let slot = free.pop().unwrap_or_else(|| {
            slab.push(None);
            slab.len() - 1
        });
        let token = (slot + 1) as u64;
        if ep.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
            free.push(slot);
            continue;
        }
        inner.connection_opened();
        slab[slot] = Some((Conn::new(stream), EPOLLIN));
    }
}

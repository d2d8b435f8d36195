//! Spin, then sleep: how both ends of the wire wait.
//!
//! MUTEXEE spins for a bounded time before it sleeps on its futex, so a
//! short critical section never pays the wake-up turnaround (§5.1). A
//! wait on the wire faces the same choice one layer up. The epoll loop
//! waiting for requests and a client waiting for replies each pay a
//! wake-up, often across CPUs, when they block, and a loopback round trip
//! is often shorter than that. [`SpinThenSleep`] first polls without
//! blocking, yielding the CPU between polls so that a peer sharing the
//! CPU can run, for at most [`SPIN_BUDGET`]; then it blocks as a plain
//! wait would.
//!
//! It spins only when its previous wait ended within the budget. That
//! wait's clock is read anyway, and it plays the part of MUTEXEE's mode
//! switch: an idle loop, and one behind a paced or slow client, go
//! straight to sleep and burn no CPU on polls that would find nothing.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::epoll::recv_nowait;

/// How long a wait polls before it blocks.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// One waiter's choice between spinning and sleeping.
#[derive(Debug)]
pub(crate) struct SpinThenSleep {
    /// How long a wait polls: [`SPIN_BUDGET`] outside tests.
    budget: Duration,
    /// The previous wait ended within the budget.
    spin: bool,
}

impl SpinThenSleep {
    pub(crate) fn new() -> SpinThenSleep {
        SpinThenSleep { budget: SPIN_BUDGET, spin: true }
    }

    /// Waits until `attempt` returns `Some`. `attempt(false)` must poll
    /// without blocking; it is called, with a yield between calls, until
    /// the budget is spent, and not at all when the previous wait
    /// outlasted the budget. Then `attempt(true)`, which may block, is
    /// called until it returns `Some`. An error ends the wait as it
    /// comes.
    pub(crate) fn wait<T>(
        &mut self,
        mut attempt: impl FnMut(bool) -> io::Result<Option<T>>,
    ) -> io::Result<T> {
        let start = Instant::now();
        let mut block = !self.spin;
        loop {
            if let Some(done) = attempt(block)? {
                self.spin = start.elapsed() < self.budget;
                return Ok(done);
            }
            block = block || start.elapsed() >= self.budget;
            if !block {
                std::thread::yield_now();
            }
        }
    }
}

/// A [`Read`] over a blocking socket that spins before it sleeps: a read
/// whose bytes arrive within the budget takes them without the thread
/// blocking in the kernel. EOF and socket errors surface as a plain read
/// would return them.
pub(crate) struct SpinRead {
    stream: TcpStream,
    waiter: SpinThenSleep,
}

impl SpinRead {
    pub(crate) fn new(stream: TcpStream) -> SpinRead {
        SpinRead { stream, waiter: SpinThenSleep::new() }
    }
}

impl Read for SpinRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let stream = &self.stream;
        self.waiter.wait(|block| {
            if block {
                Read::read(&mut &*stream, buf).map(Some)
            } else {
                recv_nowait(stream, buf)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budget no scheduler hiccup outlasts, so "within the budget" is
    /// never down to luck.
    const BUDGET: Duration = Duration::from_millis(100);

    /// Runs one wait whose attempts find nothing until `ready_after` has
    /// passed; returns how many polls and blocking attempts it made.
    fn wait_for(waiter: &mut SpinThenSleep, ready_after: Duration) -> (u32, u32) {
        let (mut polls, mut blocks) = (0, 0);
        let start = Instant::now();
        waiter
            .wait(|block| {
                if block {
                    blocks += 1;
                    std::thread::sleep(ready_after.saturating_sub(start.elapsed()));
                } else {
                    polls += 1;
                }
                Ok((start.elapsed() >= ready_after).then_some(()))
            })
            .unwrap();
        (polls, blocks)
    }

    #[test]
    fn a_short_wait_is_spun_and_a_long_one_slept() {
        let mut waiter = SpinThenSleep { budget: BUDGET, spin: true };
        // Ready at once: the first poll takes it, and the waiter keeps
        // spinning.
        assert_eq!(wait_for(&mut waiter, Duration::ZERO), (1, 0));
        // Ready after the budget: the polls give up and the wait blocks.
        let (polls, blocks) = wait_for(&mut waiter, BUDGET * 3 / 2);
        assert!(polls > 1, "a spinning waiter polls until the budget is spent");
        assert_eq!(blocks, 1, "then it blocks once");
        // That wait outlasted the budget, so the next one blocks at once;
        // ending within the budget, it turns spinning back on.
        assert_eq!(wait_for(&mut waiter, Duration::ZERO), (0, 1));
        assert_eq!(wait_for(&mut waiter, Duration::ZERO), (1, 0));
    }

    #[test]
    fn an_error_ends_the_wait() {
        let mut waiter = SpinThenSleep::new();
        let mut calls = 0;
        let err = waiter.wait::<()>(|_| {
            calls += 1;
            Err(io::Error::from(io::ErrorKind::ConnectionReset))
        });
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(calls, 1);
    }
}

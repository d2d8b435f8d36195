//! Attaching a RAPL sampler to any KV service.
//!
//! [`PolyStore`](crate::PolyStore) itself knows nothing about energy
//! measurement; [`Metered`] pairs any [`KvService`] with a
//! [`RaplSampler`] so [`run_load_on`](crate::run_load_on) sees measured
//! energy through [`KvService::stats_and_energy`] without the service
//! changing. (The `poly-net` client instead learns the *server's*
//! measured energy over the wire, so TCP runs attribute joules to the
//! serving process — wrap the server's store, not the client.)

use poly_locks_sim::LockKind;
use poly_meter::{MeasuredReading, RaplSampler};

use crate::driver::{KvConnection, KvService, PipeOp, Reply, Submitted};
use crate::stats::StatsSnapshot;
use crate::WriteBatch;

/// A [`KvService`] with a RAPL sampler attached: every call delegates to
/// the inner service, and [`KvService::stats_and_energy`] pairs the inner
/// service's stats with the sampler's reading.
pub struct Metered<'m, S> {
    svc: &'m S,
    sampler: &'m RaplSampler,
}

impl<'m, S: KvService> Metered<'m, S> {
    /// Pairs `svc` with `sampler`.
    pub fn new(svc: &'m S, sampler: &'m RaplSampler) -> Self {
        Self { svc, sampler }
    }
}

/// Delegating session: forwards every op to the inner service's session.
pub struct MeteredConn<C>(C);

impl<C: KvConnection> KvConnection for MeteredConn<C> {
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
        self.0.scan_count()
    }

    fn apply(&mut self, batch: &WriteBatch) {
        self.0.apply(batch)
    }

    // The pipelined surface must forward too, or metering a pipelined
    // backend would silently drop it back to depth 1 (the trait's
    // synchronous defaults).
    fn submit(&mut self, op: PipeOp) -> Submitted {
        self.0.submit(op)
    }

    fn drain(&mut self) -> Vec<Reply> {
        self.0.drain()
    }
}

impl<'m, S: KvService> KvService for Metered<'m, S> {
    // Sessions borrow the *inner* service (`'m`), not the wrapper: the
    // wrapper only holds references, so its own borrow adds nothing.
    type Conn<'s>
        = MeteredConn<S::Conn<'m>>
    where
        Self: 's;

    fn connect(&self) -> Self::Conn<'_> {
        MeteredConn(self.svc.connect())
    }

    fn lock_kind(&self) -> LockKind {
        self.svc.lock_kind()
    }

    fn extra_threads_per_client(&self) -> usize {
        self.svc.extra_threads_per_client()
    }

    fn stats_and_energy(&self) -> (StatsSnapshot, Option<MeasuredReading>) {
        (self.svc.stats_and_energy().0, Some(self.sampler.reading()))
    }
}

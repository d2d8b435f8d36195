//! `poly-store` — the serving subsystem of the "Unlocking Energy"
//! reproduction: a sharded key-value store generic over every `lockin`
//! lock backend, instrumented down to the shard.
//!
//! The paper's §6 argument is that lock policy decides both throughput
//! and energy for real services. This crate is the "real service" side of
//! that experiment, natively:
//!
//! * [`PolyStore`] — a sharded `u64 -> bytes` store whose shard locks are
//!   a runtime [`LockKind`] choice ([`AnyLock`] dispatches across MUTEX,
//!   MUTEXEE, TAS/TTAS/TICKET, MCS, CLH); per-shard point ops,
//!   epoch-guarded [`scan`](PolyStore::scan)s, and [`WriteBatch`]
//!   application with one lock acquisition per shard; values live in a
//!   per-shard [`Slab`] (size-class freelists) with per-item TTL and
//!   CLOCK eviction under [`StoreConfig::mem_budget`] — the Memcached
//!   cache semantics the paper's §6 evaluation centers on;
//! * [`ShardStats`] — exact per-shard op counts, plus lock wait/hold time
//!   and log-scaled latency histograms estimated from about one point op
//!   in [`SKETCH_SAMPLE`], recorded off the critical path;
//! * [`KvMix`] — the declarative `kv` workload family (uniform, zipf-hot,
//!   scan-heavy, write-burst) shared with `poly-scenarios`, so the same
//!   mix drives this native store and the simulated Xeon;
//! * [`run_load_on`] — a multithreaded open-loop client
//!   (scheduled arrivals with per-thread phase stagger, latency measured
//!   from the schedule) producing a [`LoadReport`]; generic over
//!   [`KvService`], so the same driver measures the in-process store and
//!   the `poly-net` TCP transport;
//! * [`energy`] — feeds the measured time split into the calibrated
//!   `poly-energy` Xeon model for modeled watts and joules-per-op;
//! * [`Metered`] — pairs any service with a `poly-meter` RAPL sampler,
//!   so the same driver reports *measured* joules
//!   ([`LoadReport::measured`]) beside the modeled estimate on hosts
//!   that expose `/sys/class/powercap`.
//!
//! # Example
//!
//! ```
//! use poly_locks_sim::LockKind;
//! use poly_store::{KvMix, LoadSpec, PolyStore, StoreConfig, run_load_on};
//!
//! let mix = KvMix::zipf_hot().with_shards(4);
//! let store = PolyStore::new(StoreConfig {
//!     shards: mix.shards,
//!     lock: LockKind::Mutexee,
//!     ..Default::default()
//! });
//! let report = run_load_on(&store, &LoadSpec::saturating(mix, 2, 500, 42));
//! assert_eq!(report.ops, 1_000);
//! assert!(report.energy.avg_power_w > 0.0);
//! ```

#![deny(missing_docs)]

mod anylock;
mod batch;
mod driver;
pub mod energy;
mod metered;
mod slab;
mod stats;
mod store;
mod workload;

pub use anylock::{AnyGuard, AnyLock};
pub use batch::{BatchOp, WriteBatch};
pub use driver::{
    run_load_observed, run_load_on, scheduled_arrival_ns, value_bytes, KvConnection, KvService,
    LoadObserver, LoadReport, LoadSpec, LocalConn, NoObserver, PipeOp, Reply, Submitted, Ticket,
};
pub use energy::EnergyEstimate;
pub use metered::{Metered, MeteredConn};
pub use slab::{Slab, SlabHandle, SLAB_CLASSES};
pub use stats::{
    HistogramSnapshot, HotKey, LatencyHistogram, ShardStats, StatsSnapshot, HIST_BUCKETS,
    SKETCH_SAMPLE, TOP_KEYS,
};
pub use store::{PolyStore, StoreConfig};
pub use workload::{KeyDist, KeySampler, KvMix, KvOp, Rng64, ValueDist, ZipfSampler};

// Re-exported so store users name lock backends without importing the
// simulator crate themselves.
pub use poly_locks_sim::LockKind;
// Re-exported so report consumers name energy provenance without
// importing the meter crate themselves.
pub use poly_meter::{EnergySource, MeasuredEnergy, MeasuredReading};

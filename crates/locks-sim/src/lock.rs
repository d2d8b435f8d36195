//! Lock construction: kinds, parameters and shared state.

use std::cell::RefCell;
use std::rc::Rc;

use poly_sim::{Cycles, LineId, PauseKind, SimBuilder, Tid};

use crate::sm::{AcqSm, RelSm};

/// The lock algorithms evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Test-and-set: global spinning with atomic exchanges.
    Tas,
    /// Test-and-test-and-set: local spinning, then CAS.
    Ttas,
    /// Ticket lock: FIFO, local spinning on the owner field.
    Ticket,
    /// MCS queue lock: FIFO, local spinning on a per-thread node.
    Mcs,
    /// CLH queue lock: FIFO, local spinning on the predecessor's node.
    Clh,
    /// glibc-style futex mutex (sleeping).
    Mutex,
    /// The paper's optimized futex mutex (§5.1).
    Mutexee,
}

impl LockKind {
    /// All algorithms, in the paper's table order.
    pub const ALL: [LockKind; 7] = [
        LockKind::Mutex,
        LockKind::Tas,
        LockKind::Ttas,
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Mutexee,
        LockKind::Clh,
    ];

    /// Uppercase label as used in the paper.
    pub const fn label(&self) -> &'static str {
        match self {
            LockKind::Tas => "TAS",
            LockKind::Ttas => "TTAS",
            LockKind::Ticket => "TICKET",
            LockKind::Mcs => "MCS",
            LockKind::Clh => "CLH",
            LockKind::Mutex => "MUTEX",
            LockKind::Mutexee => "MUTEXEE",
        }
    }

    /// Whether the algorithm ever sleeps (uses futex).
    pub const fn sleeps(&self) -> bool {
        matches!(self, LockKind::Mutex | LockKind::Mutexee)
    }
}

/// Parameters of the glibc-style MUTEX.
#[derive(Debug, Clone, Copy)]
pub struct MutexParams {
    /// Optional bounded user-space spin before the futex path, in cycles
    /// (`PTHREAD_MUTEX_ADAPTIVE_NP`-style). The paper uses the default
    /// MUTEX, i.e. `None`: one acquisition attempt, then sleep.
    pub adaptive_spin: Option<Cycles>,
    /// Pausing used while spinning (glibc uses `pause`).
    pub pause: PauseKind,
}

impl Default for MutexParams {
    fn default() -> Self {
        Self { adaptive_spin: None, pause: PauseKind::Pause }
    }
}

/// Operating mode of MUTEXEE (§5.1): the lock periodically flips between
/// them based on the observed futex-handover ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexeeMode {
    /// Long spinning (~8000 cycles in `lock`, ~384-cycle user-space wait in
    /// `unlock`).
    Spin,
    /// Short spinning (~256 cycles in `lock`, ~128 in `unlock`), used when
    /// most handovers go through futex anyway, to avoid useless spinning.
    Mutex,
}

/// Parameters of MUTEXEE, defaulted to the paper's values (Table 1, §5.1).
#[derive(Debug, Clone, Copy)]
pub struct MutexeeParams {
    /// Spin budget in `lock()` while in [`MutexeeMode::Spin`].
    pub spin_budget: Cycles,
    /// Spin budget in `lock()` while in [`MutexeeMode::Mutex`].
    pub spin_budget_mutex_mode: Cycles,
    /// User-space wait in `unlock()` while in [`MutexeeMode::Spin`]
    /// ("proportional to the maximum coherence latency", 384 on the Xeon).
    pub unlock_wait: Cycles,
    /// User-space wait in `unlock()` while in [`MutexeeMode::Mutex`].
    pub unlock_wait_mutex_mode: Cycles,
    /// Acquisitions between mode re-evaluations.
    pub adapt_period: u32,
    /// Futex-to-total handover ratio above which the lock switches to
    /// [`MutexeeMode::Mutex`] (the paper uses 30%).
    pub futex_ratio_threshold: f64,
    /// Optional futex-sleep timeout bounding tail latency (Figure 10); a
    /// thread woken by timeout spins until it acquires, without sleeping
    /// again.
    pub sleep_timeout: Option<Cycles>,
    /// Pausing in spin loops (the paper uses `mfence`).
    pub pause: PauseKind,
}

impl Default for MutexeeParams {
    fn default() -> Self {
        Self {
            spin_budget: 8_000,
            spin_budget_mutex_mode: 256,
            unlock_wait: 384,
            unlock_wait_mutex_mode: 128,
            adapt_period: 255,
            futex_ratio_threshold: 0.30,
            sleep_timeout: None,
            pause: PauseKind::Mbar,
        }
    }
}

/// Fixed instruction-path cost of a lock's fast path, beyond its atomic
/// operations.
///
/// The memory model prices an atomic at a handful of cycles; real lock
/// implementations additionally retire bookkeeping instructions (glibc
/// MUTEX's sanity checks and waiter handling, MUTEXEE's adaptation
/// counters, MCS's node addressing). Table 2 of the paper attributes the
/// single-threaded ranking — simple spinlocks > MUTEXEE > MCS > MUTEX —
/// exactly to this "complexity", so it is modeled explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathOverhead {
    /// Extra cycles on the acquire path.
    pub lock: Cycles,
    /// Extra cycles on the release path.
    pub unlock: Cycles,
}

impl PathOverhead {
    /// The calibrated default for an algorithm.
    pub fn default_for(kind: LockKind) -> Self {
        match kind {
            LockKind::Tas | LockKind::Ttas | LockKind::Ticket | LockKind::Clh => {
                Self { lock: 0, unlock: 0 }
            }
            LockKind::Mcs => Self { lock: 10, unlock: 10 },
            LockKind::Mutex => Self { lock: 40, unlock: 40 },
            LockKind::Mutexee => Self { lock: 30, unlock: 25 },
        }
    }
}

/// Per-lock tunables.
#[derive(Debug, Clone, Copy)]
pub struct LockParams {
    /// Pausing used by the local-spinning spinlocks (the paper settles on a
    /// memory barrier, §4.2).
    pub spin_pause: PauseKind,
    /// MUTEX configuration.
    pub mutex: MutexParams,
    /// MUTEXEE configuration.
    pub mutexee: MutexeeParams,
    /// Fast-path instruction overhead; `None` uses the algorithm's
    /// calibrated default.
    pub overhead: Option<PathOverhead>,
}

impl Default for LockParams {
    fn default() -> Self {
        Self {
            spin_pause: PauseKind::Mbar,
            mutex: MutexParams::default(),
            mutexee: MutexeeParams::default(),
            overhead: None,
        }
    }
}

/// MUTEXEE adaptive-mode statistics (shared by all users of one lock).
#[derive(Debug)]
pub(crate) struct MutexeeShared {
    pub mode: MutexeeMode,
    pub acquisitions: u32,
    pub futex_handovers: u32,
}

/// Per-thread queue-lock bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct McsNode {
    /// Line the node owner spins on (1 = wait, 0 = go).
    pub locked: LineId,
    /// Line holding the successor thread id + 1 (0 = none).
    pub next: LineId,
}

pub(crate) struct LockInner {
    pub kind: LockKind,
    pub params: LockParams,
    /// Mutual-exclusion tracking key (the lock word's address).
    pub key: u64,
    /// Main lock word. TAS/TTAS: 0 free / 1 held. TICKET: packed
    /// next(high32)/owner(low32). MCS/CLH: tail pointer (line id + 1 /
    /// thread id + 1; 0 = empty). MUTEX: 0/1/2. MUTEXEE: 0/1.
    pub word: LineId,
    /// MUTEXEE sleeper count.
    pub waiters: Option<LineId>,
    /// MCS per-thread nodes, indexed by thread id.
    pub mcs_nodes: Vec<McsNode>,
    /// CLH per-thread current node line, indexed by thread id (nodes are
    /// recycled through predecessors, as in the original algorithm).
    pub clh_node: RefCell<Vec<LineId>>,
    /// CLH predecessor node recorded at acquire time, consumed at release.
    pub clh_pred: RefCell<Vec<Option<LineId>>>,
    pub mutexee: RefCell<MutexeeShared>,
}

/// A simulated lock instance, shareable across thread programs.
///
/// # Examples
///
/// ```
/// use poly_locks_sim::{Dist, LockKind, LockParams, LockStress, LockStressConfig, SimLock};
/// use poly_sim::{MachineConfig, PinPolicy, RunSpec, SimBuilder};
///
/// let mut b = SimBuilder::new(MachineConfig::tiny());
/// let lock = SimLock::alloc(&mut b, LockKind::Ticket, 4, LockParams::default());
/// for _ in 0..4 {
///     b.spawn(
///         Box::new(LockStress::new(
///             vec![lock.clone()],
///             LockStressConfig { cs: Dist::Fixed(1000), non_cs: Dist::Fixed(100) },
///         )),
///         PinPolicy::PaperOrder,
///     );
/// }
/// let report = b.run(RunSpec { duration: 5_000_000, warmup: 500_000 });
/// assert!(report.total_ops > 0);
/// ```
#[derive(Clone)]
pub struct SimLock {
    pub(crate) inner: Rc<LockInner>,
}

impl SimLock {
    /// Allocates a lock of the given kind for up to `threads` threads.
    ///
    /// `threads` must cover every thread id that will ever use the lock
    /// (queue locks pre-allocate per-thread nodes).
    pub fn alloc(b: &mut SimBuilder, kind: LockKind, threads: usize, params: LockParams) -> Self {
        // CLH's tail must never be empty: it starts pointing at a released
        // dummy node so node recycling stays sound.
        let clh_dummy = if kind == LockKind::Clh { Some(b.alloc_line(0)) } else { None };
        let word = b.alloc_line(clh_dummy.map_or(0, |d| d.addr() + 1));
        let waiters = if kind == LockKind::Mutexee { Some(b.alloc_line(0)) } else { None };
        let mut mcs_nodes = Vec::new();
        if kind == LockKind::Mcs {
            for _ in 0..threads {
                mcs_nodes.push(McsNode { locked: b.alloc_line(0), next: b.alloc_line(0) });
            }
        }
        let mut clh_nodes = Vec::new();
        if kind == LockKind::Clh {
            for _ in 0..threads {
                // Nodes start "released" (0); a locking thread stores 1
                // before enqueueing itself.
                clh_nodes.push(b.alloc_line(0));
            }
        }
        Self {
            inner: Rc::new(LockInner {
                kind,
                params,
                key: word.addr(),
                word,
                waiters,
                mcs_nodes,
                clh_node: RefCell::new(clh_nodes),
                clh_pred: RefCell::new(vec![None; threads]),
                mutexee: RefCell::new(MutexeeShared {
                    mode: MutexeeMode::Spin,
                    acquisitions: 0,
                    futex_handovers: 0,
                }),
            }),
        }
    }

    /// The algorithm implemented by this lock.
    pub fn kind(&self) -> LockKind {
        self.inner.kind
    }

    /// The mutual-exclusion tracker key of this lock.
    pub fn key(&self) -> u64 {
        self.inner.key
    }

    /// MUTEXEE's current adaptive mode (for tests and ablations).
    pub fn mutexee_mode(&self) -> MutexeeMode {
        self.inner.mutexee.borrow().mode
    }

    /// Starts an acquisition by thread `tid`.
    pub fn begin_acquire(&self, tid: Tid) -> AcqSm {
        AcqSm::new(self.inner.clone(), tid)
    }

    /// Starts a release by thread `tid` (which must hold the lock).
    pub fn begin_release(&self, tid: Tid) -> RelSm {
        RelSm::new(self.inner.clone(), tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_sim::MachineConfig;

    #[test]
    fn labels_cover_all_kinds() {
        for k in LockKind::ALL {
            assert!(!k.label().is_empty());
        }
        assert!(LockKind::Mutex.sleeps());
        assert!(LockKind::Mutexee.sleeps());
        assert!(!LockKind::Ticket.sleeps());
    }

    #[test]
    fn alloc_reserves_queue_nodes() {
        let mut b = SimBuilder::new(MachineConfig::tiny());
        let mcs = SimLock::alloc(&mut b, LockKind::Mcs, 4, LockParams::default());
        assert_eq!(mcs.inner.mcs_nodes.len(), 4);
        let clh = SimLock::alloc(&mut b, LockKind::Clh, 4, LockParams::default());
        assert_eq!(clh.inner.clh_node.borrow().len(), 4);
        let mtx = SimLock::alloc(&mut b, LockKind::Mutexee, 4, LockParams::default());
        assert!(mtx.inner.waiters.is_some());
    }

    #[test]
    fn paper_defaults_match_table_1() {
        let p = MutexeeParams::default();
        assert_eq!(p.spin_budget, 8_000);
        assert_eq!(p.unlock_wait, 384);
        assert_eq!(p.spin_budget_mutex_mode, 256);
        assert_eq!(p.unlock_wait_mutex_mode, 128);
        assert_eq!(p.pause, PauseKind::Mbar);
        assert_eq!(MutexParams::default().pause, PauseKind::Pause);
    }
}

//! The native `poly-store` serving CLI: run and sweep KV loads against the
//! real sharded store on this host — in-process or through the `poly-net`
//! TCP front-end — with modeled Xeon energy attached and, on hosts with
//! RAPL (`--energy rapl|auto`), measured joules beside it.
//!
//! ```text
//! cargo run --release -p poly-bench --bin store -- list
//! cargo run --release -p poly-bench --bin store -- run kv-zipf --lock MUTEXEE --threads 4
//! cargo run --release -p poly-bench --bin store -- serve --addr 127.0.0.1:7878 --lock MUTEXEE
//! cargo run --release -p poly-bench --bin store -- sweep \
//!     --scenarios kv-net-zipf --transport tcp,local --locks MUTEX,MUTEXEE \
//!     --threads 2,4 --ops 20000 --format jsonl --out store-sweep.jsonl
//! ```
//!
//! Unlike the `scenarios` bin (which runs the *simulated* Xeon), every
//! cell here executes real lock acquisitions on the host; with
//! `--transport tcp` every operation additionally crosses a loopback TCP
//! connection through a `poly-net` server spun up for the cell.
//! `POLY_QUICK=1` shrinks the default per-thread op count for CI.

use std::io::{Read, Write};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use poly_bench::parse_duration;
use poly_cap::{CalibrationTable, CapGuard, CpuCap, FreqPolicy};
use poly_locks_sim::LockKind;
use poly_meter::{EnergySource, RaplSampler};
use poly_net::proto::WireStats;
use poly_net::{Arch, NetClient, NetConn, NetServer};
use poly_report::columns::STORE_CELL;
use poly_report::Value;
use poly_scenarios::{parse_lock, Registry, SinkFormat, WorkloadSpec};
use poly_store::{
    run_load_observed, KvMix, KvService, LoadReport, LoadSpec, Metered, PolyStore, StoreConfig,
};
use poly_trace::{
    run_load_traced, shard_skew, top_shard_pct, write_heat, write_timeline, ChromeTrace,
    HeatSample, ShardSpan, StoreCollector, Tick, TimelineCell, TraceSpec,
};

fn usage() -> ! {
    eprintln!(
        "usage: store <command>\n\
         \n\
         commands:\n\
         \x20 list                         list the kv scenarios (native-runnable)\n\
         \x20 run <name> [options]         run one load, print its report\n\
         \x20 sweep [options]              run a cross product of cells\n\
         \x20 serve [options]              serve a store over TCP until stdin closes\n\
         \x20 top <addr> [options]         live view of a serving store (STATS)\n\
         \x20 heat <addr> [options]        live per-shard heat map of a serving store (STATS)\n\
         \x20 events <addr> [options]      tail the structured event journal of a serving\n\
         \x20                              store (EVENTS)\n\
         \x20 calibrate <sweep.jsonl>      per-frequency measured/modeled residual table\n\
         \n\
         options (run and sweep):\n\
         \x20 --locks L1,L2 | --lock L     lock backends (default: MUTEXEE)\n\
         \x20 --threads N1,N2              client thread counts (default: host parallelism)\n\
         \x20 --shards S1,S2               store shard counts (default: mix default)\n\
         \x20 --transport T1,T2            local | tcp (default: local); tcp runs each cell\n\
         \x20                              through a loopback poly-net server\n\
         \x20 --server A1,A2               serving architecture, a sweep axis for tcp cells:\n\
         \x20                              threads (one worker thread per connection) |\n\
         \x20                              epoll (one readiness event loop). Local cells\n\
         \x20                              report server=none (default: threads)\n\
         \x20 --depth N                    pipeline depth per connection (default: 1 =\n\
         \x20                              strict request/response; >1 keeps N requests\n\
         \x20                              in flight and disables client-side batching)\n\
         \x20 --conns N                    connections per client session (tcp fan,\n\
         \x20                              default: 1); ops round-robin across them\n\
         \x20 --energy rapl|modeled|auto   energy source (default: auto). rapl: require the\n\
         \x20                              host's RAPL counters (fails without them); auto:\n\
         \x20                              measure when available, degrade to modeled\n\
         \x20                              otherwise. Reports always keep the modeled\n\
         \x20                              fields; measured_j/measured_uj_per_op fill in\n\
         \x20                              when RAPL is live (POLY_RAPL_ROOT overrides the\n\
         \x20                              powercap root, for tests)\n\
         \x20 --freq base|K1,K2            frequency caps in kHz, a sweep axis: each capped\n\
         \x20                              cell writes the host's cpufreq scaling_max_freq\n\
         \x20                              (restored afterwards; needs root) and prices the\n\
         \x20                              modeled joules at the capped VF point. 'base' =\n\
         \x20                              uncapped. Unwritable hosts run the cell uncapped\n\
         \x20                              with freq_applied=false (POLY_CPUFREQ_ROOT\n\
         \x20                              overrides the sysfs root, for tests)\n\
         \x20 --value-bytes N              override the mix's value-size distribution with\n\
         \x20                              fixed N-byte values (8 = the legacy u64 shape)\n\
         \x20 --ttl D                      default TTL stamped on every put (50ms, 30s; a\n\
         \x20                              bare number is ms; default: entries never expire)\n\
         \x20 --mem-budget BYTES           cap live value bytes store-wide (suffixes k/m/g;\n\
         \x20                              CLOCK eviction makes room; default: unbounded)\n\
         \x20 --ops N                      ops per thread (default: 50000; 5000 under POLY_QUICK)\n\
         \x20 --rate OPS_PER_S             open-loop arrival rate per thread (default: saturation)\n\
         \x20 --seed S                     workload seed (default: 42)\n\
         \x20 --format jsonl|csv           output format (default: jsonl)\n\
         \x20 --out FILE                   write reports to FILE instead of stdout\n\
         \x20 --trace-interval D           collect windowed telemetry every D (50ms, 1s, 500us;\n\
         \x20                              a bare number is ms). run/sweep: per-window samples\n\
         \x20                              beside the aggregate; serve: a live collector that\n\
         \x20                              STATS (`store top`, `store heat`) reads; top, heat,\n\
         \x20                              events: poll cadence\n\
         \x20 --timeline FILE              write per-window rows as timeline JSONL (needs\n\
         \x20                              --trace-interval)\n\
         \x20 --chrome-trace FILE          write the windows as a chrome://tracing JSON\n\
         \x20                              document (needs --trace-interval); with --heat,\n\
         \x20                              one extra track per shard\n\
         \x20 --heat FILE                  write per-shard heat windows (ops, lock ns,\n\
         \x20                              evictions, hot keys, skew) as JSONL, one row per\n\
         \x20                              shard per window (needs --trace-interval); the\n\
         \x20                              same ticks as the timeline, so both cover exactly\n\
         \x20                              the measured interval\n\
         \n\
         options (sweep only):\n\
         \x20 --scenarios n1,n2 | all      kv scenarios to sweep (default: all kv)\n\
         \n\
         options (serve only):\n\
         \x20 --addr HOST:PORT             listen address (default: 127.0.0.1:7878; port 0 = OS pick)\n\
         \x20 --lock L, --shards N         store configuration (defaults: MUTEXEE, 32)\n\
         \x20 --ttl D, --mem-budget BYTES  cache policy for the served store (as above)\n\
         \x20 --server threads|epoll       serving architecture (default: threads)\n\
         \x20 --freq K                     cap the host at K kHz while serving (restored at\n\
         \x20                              shutdown)\n\
         \x20 --metrics-addr HOST:PORT     serve GET /metrics (Prometheus text), /healthz,\n\
         \x20                              and /vars (JSON) on a sidecar HTTP listener\n\
         \x20                              (port 0 = OS pick; the bound address prints as\n\
         \x20                              a second 'metrics <addr>' stdout line)\n\
         \x20 --events FILE                append every journal event to FILE as JSONL\n\
         \n\
         options (top, heat, and events):\n\
         \x20 --frames N                   refresh N times then exit (default: 0 = forever)\n\
         \n\
         options (calibrate only):\n\
         \x20 --format table|csv           output shape (default: table)"
    );
    exit(2);
}

/// How a cell's operations reach the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// In-process calls, no serialization.
    Local,
    /// Through a loopback `poly-net` server: framed requests over TCP.
    Tcp,
}

impl Transport {
    fn label(self) -> &'static str {
        match self {
            Transport::Local => "local",
            Transport::Tcp => "tcp",
        }
    }

    fn parse(s: &str) -> Option<Transport> {
        match s.to_ascii_lowercase().as_str() {
            "local" => Some(Transport::Local),
            "tcp" => Some(Transport::Tcp),
            _ => None,
        }
    }
}

fn fail(msg: String) -> ! {
    eprintln!("store: {msg}");
    exit(2);
}

struct Options {
    locks: Vec<LockKind>,
    threads: Vec<usize>,
    shards: Vec<usize>,
    transports: Vec<Transport>,
    /// `--server`: serving architectures, a sweep axis for tcp cells
    /// (local cells always report `none`).
    servers: Vec<Arch>,
    /// `--depth`: pipeline depth per connection (1 = strict
    /// request/response).
    depth: usize,
    /// `--conns`: connections per client session (the tcp fan).
    conns: usize,
    freqs: Vec<Option<u64>>,
    energy: EnergySource,
    ops: u64,
    rate: Option<u64>,
    seed: u64,
    format: SinkFormat,
    out: Option<String>,
    scenarios: Option<Vec<String>>,
    addr: String,
    /// `--trace-interval`: when set, run/sweep collect windowed telemetry
    /// and serve runs a live collector; `top` uses it as poll cadence.
    trace_interval: Option<Duration>,
    /// `--timeline FILE`: per-window JSONL sink beside the aggregate.
    timeline: Option<String>,
    /// `--chrome-trace FILE`: chrome://tracing export of the windows.
    chrome_out: Option<String>,
    /// `--heat FILE`: per-shard heat JSONL sink (one row per shard per
    /// window, hot-key sketches nested).
    heat: Option<String>,
    /// `--frames N` (top, heat, and events): refresh N times then exit;
    /// 0 = forever.
    frames: u64,
    /// `--metrics-addr HOST:PORT` (serve): expose /metrics, /healthz,
    /// and /vars on a sidecar HTTP listener.
    metrics_addr: Option<String>,
    /// `--events FILE` (serve): append every journal event as JSONL.
    events: Option<String>,
    /// `--value-bytes N`: override the mix's value-size distribution
    /// with fixed N-byte values.
    value_bytes: Option<u32>,
    /// `--ttl D`: default TTL stamped on every put.
    ttl: Option<Duration>,
    /// `--mem-budget BYTES`: store-wide cap on live value bytes (CLOCK
    /// eviction makes room).
    mem_budget: Option<u64>,
}

/// Parses a byte size: a plain number, or one with a `k`/`m`/`g` suffix
/// (binary units — `4m` is 4 MiB).
fn parse_bytes(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(body) => (
            body,
            match lower.as_bytes()[lower.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            },
        ),
        None => (lower.as_str(), 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_shl(shift).filter(|&b| b > 0)
}

fn default_ops() -> u64 {
    if std::env::var_os("POLY_QUICK").is_some() {
        5_000
    } else {
        50_000
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        locks: Vec::new(),
        threads: Vec::new(),
        shards: Vec::new(),
        transports: Vec::new(),
        servers: Vec::new(),
        depth: 1,
        conns: 1,
        freqs: Vec::new(),
        energy: EnergySource::Both,
        ops: default_ops(),
        rate: None,
        seed: 42,
        format: SinkFormat::JsonLines,
        out: None,
        scenarios: None,
        addr: "127.0.0.1:7878".into(),
        trace_interval: None,
        timeline: None,
        chrome_out: None,
        heat: None,
        frames: 0,
        metrics_addr: None,
        events: None,
        value_bytes: None,
        ttl: None,
        mem_budget: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().unwrap_or_else(|| fail(format!("{flag} needs a value"))).as_str();
        match flag.as_str() {
            "--lock" | "--locks" => {
                opts.locks = value()
                    .split(',')
                    .map(|s| parse_lock(s).unwrap_or_else(|| fail(format!("unknown lock: {s}"))))
                    .collect();
            }
            "--threads" => {
                opts.threads = value()
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| fail(format!("bad thread count: {s}"))))
                    .collect();
            }
            "--shards" => {
                opts.shards = value()
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| fail(format!("bad shard count: {s}"))))
                    .collect();
            }
            "--transport" | "--transports" => {
                opts.transports = value()
                    .split(',')
                    .map(|s| {
                        Transport::parse(s).unwrap_or_else(|| {
                            fail(format!("unknown transport: {s} (local or tcp)"))
                        })
                    })
                    .collect();
            }
            "--server" | "--servers" => {
                opts.servers = value()
                    .split(',')
                    .map(|s| {
                        Arch::parse(s).unwrap_or_else(|| {
                            fail(format!("unknown server architecture: {s} (threads or epoll)"))
                        })
                    })
                    .collect();
            }
            "--depth" => {
                opts.depth = value().parse().unwrap_or_else(|_| fail("bad --depth".into()));
                if opts.depth == 0 {
                    fail("--depth must be positive".into());
                }
            }
            "--conns" => {
                opts.conns = value().parse().unwrap_or_else(|_| fail("bad --conns".into()));
                if opts.conns == 0 {
                    fail("--conns must be positive".into());
                }
            }
            "--energy" => {
                let v = value();
                opts.energy = EnergySource::parse(v).unwrap_or_else(|| {
                    fail(format!("unknown energy source: {v} (rapl, modeled or auto)"))
                });
            }
            "--freq" => {
                let v = value();
                opts.freqs = FreqPolicy::parse(v)
                    .unwrap_or_else(|| {
                        fail(format!("bad --freq: {v} (base or a kHz list, e.g. base,1200000)"))
                    })
                    .points();
            }
            "--addr" => opts.addr = value().to_string(),
            "--ops" => opts.ops = value().parse().unwrap_or_else(|_| fail("bad --ops".into())),
            "--rate" => {
                let r: u64 = value().parse().unwrap_or_else(|_| fail("bad --rate".into()));
                if r == 0 || r > 1_000_000_000 {
                    fail("--rate must be in 1..=1000000000 ops/s".into());
                }
                opts.rate = Some(r);
            }
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| fail("bad --seed".into())),
            "--format" => {
                let v = value();
                opts.format =
                    SinkFormat::parse(v).unwrap_or_else(|| fail(format!("unknown format: {v}")));
            }
            "--out" => opts.out = Some(value().to_string()),
            "--trace-interval" => {
                let v = value();
                opts.trace_interval = Some(parse_duration(v).unwrap_or_else(|| {
                    fail(format!("bad --trace-interval: {v} (try 50ms, 1s, 500us)"))
                }));
            }
            "--timeline" => opts.timeline = Some(value().to_string()),
            "--chrome-trace" => opts.chrome_out = Some(value().to_string()),
            "--heat" => opts.heat = Some(value().to_string()),
            "--frames" => {
                opts.frames = value().parse().unwrap_or_else(|_| fail("bad --frames".into()));
            }
            "--metrics-addr" => opts.metrics_addr = Some(value().to_string()),
            "--events" => opts.events = Some(value().to_string()),
            "--value-bytes" => {
                let v = value();
                let n: u32 = v.parse().unwrap_or_else(|_| fail(format!("bad --value-bytes: {v}")));
                if n == 0 {
                    fail("--value-bytes must be positive".into());
                }
                opts.value_bytes = Some(n);
            }
            "--ttl" => {
                let v = value();
                opts.ttl = Some(
                    parse_duration(v)
                        .unwrap_or_else(|| fail(format!("bad --ttl: {v} (try 50ms, 30s)"))),
                );
            }
            "--mem-budget" => {
                let v = value();
                opts.mem_budget = Some(
                    parse_bytes(v)
                        .unwrap_or_else(|| fail(format!("bad --mem-budget: {v} (try 4m, 65536)"))),
                );
            }
            "--scenarios" => {
                let v = value();
                if v != "all" {
                    opts.scenarios = Some(v.split(',').map(str::to_string).collect());
                }
            }
            other => fail(format!("unknown option: {other}")),
        }
    }
    if opts.ops == 0 {
        fail("--ops must be positive".into());
    }
    if (opts.timeline.is_some() || opts.chrome_out.is_some() || opts.heat.is_some())
        && opts.trace_interval.is_none()
    {
        fail(
            "--timeline/--chrome-trace/--heat need --trace-interval (the windows to write)".into(),
        );
    }
    opts
}

/// Resolves `--energy` to an optional RAPL sampler, shared by every cell
/// of the invocation. `rapl` fails hard when the host has no counters;
/// `auto` degrades to modeled silently (the report's `energy_source`
/// column says which happened). `POLY_RAPL_ROOT` redirects discovery to a
/// fake powercap tree (tests).
fn make_sampler(energy: EnergySource) -> Option<Arc<RaplSampler>> {
    if energy == EnergySource::Modeled {
        return None;
    }
    let interval = Duration::from_millis(50);
    let (sampler, root) = match std::env::var_os("POLY_RAPL_ROOT") {
        Some(root) => {
            let path = std::path::PathBuf::from(&root);
            (RaplSampler::probe_at(&path, interval), path.display().to_string())
        }
        None => (RaplSampler::probe(interval), "/sys/class/powercap".to_string()),
    };
    let sampler = sampler.unwrap_or_else(|e| fail(format!("sampler config: {e}")));
    match (sampler, energy) {
        (Some(s), _) => Some(Arc::new(s)),
        (None, EnergySource::Rapl) => {
            fail(format!("--energy rapl: no RAPL domains under {root} (try --energy auto)"))
        }
        (None, _) => None,
    }
}

/// Set by the SIGINT/SIGTERM handler: finish the current cell (or stop
/// serving), restore the frequency caps, then exit.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    /// `signal(2)`. Declared directly (the workspace builds offline, no
    /// libc crate); the handler rides as a plain address — `SIG_DFL` is
    /// 0 — which matches glibc and musl on every Linux target this repo
    /// runs on.
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_fatal_signal(signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
    // A second Ctrl-C falls back to the default fatal disposition
    // (SIG_DFL = 0), so a stuck cell can still be killed — restoration
    // is then on the operator. `signal` is async-signal-safe.
    unsafe {
        signal(signum, 0);
    }
}

/// Converts the first SIGINT/SIGTERM from "kill mid-cell, strand the
/// host capped" into "set a flag": capped runs check it between cells
/// (and serve polls it), finish cleanly, and the [`CapGuard`]s restore
/// every `scaling_max_freq` on the way out. Installed only when a cap is
/// actually in play — uncapped runs keep the default fatal behavior.
fn install_interrupt_restore() {
    #[cfg(unix)]
    unsafe {
        signal(2, on_fatal_signal as *const () as usize); // SIGINT
        signal(15, on_fatal_signal as *const () as usize); // SIGTERM
    }
}

/// Resolves the cpufreq writer for `--freq` cells, shared by every cell
/// of the invocation. `None` (with a warning) when the host exposes no
/// cpufreq: capped cells then run uncapped and report
/// `freq_applied=false` — the sweep still completes, nothing pretends.
/// `POLY_CPUFREQ_ROOT` redirects discovery to a fake tree (tests).
fn make_capper(freqs: &[Option<u64>]) -> Option<CpuCap> {
    if !freqs.iter().any(Option::is_some) {
        return None;
    }
    let (capper, root) = match std::env::var_os("POLY_CPUFREQ_ROOT") {
        Some(root) => {
            let path = std::path::PathBuf::from(&root);
            (CpuCap::probe_at(&path), path.display().to_string())
        }
        None => (CpuCap::probe(), CpuCap::SYSFS_ROOT.to_string()),
    };
    if capper.is_none() {
        eprintln!(
            "store: no cpufreq policies under {root}; capped cells will run uncapped \
             (freq_applied=false)"
        );
    }
    capper
}

/// Applies one cell's frequency point. Returns the report columns
/// (requested-or-applied kHz, whether it is in force) plus the guard that
/// restores the host's cap — hold it for the duration of the cell.
fn apply_freq(
    point: Option<u64>,
    capper: Option<&CpuCap>,
) -> (Option<u64>, bool, Option<CapGuard>) {
    let Some(khz) = point else { return (None, false, None) };
    let applied = capper.and_then(|c| match c.apply(khz) {
        Ok(guard) => Some(guard),
        Err(e) => {
            eprintln!("store: cannot cap at {khz} kHz: {e}; running uncapped");
            None
        }
    });
    match applied {
        // Report the *effective* cap (clamped into the hardware range).
        Some(guard) => (Some(guard.applied_khz), true, Some(guard)),
        None => (Some(khz), false, None),
    }
}

/// The kv scenarios of the registry: the ones this bin can run natively.
fn kv_scenarios(reg: &Registry) -> Vec<(String, KvMix)> {
    reg.iter()
        .filter_map(|e| match e.spec.workload {
            WorkloadSpec::Kv(mix) => Some((e.spec.name.clone(), mix)),
            _ => None,
        })
        .collect()
}

fn lookup_mix(reg: &Registry, name: &str) -> KvMix {
    match reg.get(name).map(|e| &e.spec.workload) {
        Some(WorkloadSpec::Kv(mix)) => *mix,
        Some(_) => fail(format!("scenario {name} is not a kv workload (try `list`)")),
        None => fail(format!("unknown scenario: {name} (try `list`)")),
    }
}

/// One sweep cell's output record.
struct Cell {
    scenario: String,
    mix: KvMix,
    transport: Transport,
    /// Serving architecture label: `threads`/`epoll` for tcp cells,
    /// `none` for in-process ones.
    server: &'static str,
    lock: LockKind,
    threads: usize,
    /// The cell's frequency point: the effective cap when applied, the
    /// requested one when the host refused it, `None` for base cells.
    freq_khz: Option<u64>,
    /// Whether the cap was actually in force while the cell ran.
    freq_applied: bool,
    report: LoadReport,
    /// The collector's ticks (each window with its per-shard heat), when
    /// the cell ran under `--trace-interval`.
    ticks: Vec<Tick>,
    /// Shard skew over the measured interval (max/mean per-shard point
    /// ops, batched writes included, prefill excluded) — the per-cell
    /// summary of the per-shard breakdown. `None` only when the run
    /// issued no point ops.
    shard_skew: Option<f64>,
    /// Share of all point ops the hottest shard absorbed, in percent.
    top_shard_pct: Option<f64>,
}

impl Cell {
    /// The cell as one row of the canonical `STORE_CELL` schema — the
    /// single list both sinks render from, so JSONL and CSV can never
    /// disagree on columns.
    fn render(&self, csv: bool) -> String {
        let r = &self.report;
        let workload = self.mix.label();
        let row = [
            Value::Str(&self.scenario),
            Value::Str(&workload),
            Value::Str(self.transport.label()),
            Value::Str(self.server),
            Value::Str(self.lock.label()),
            Value::U64(self.mix.shards as u64),
            Value::U64(self.threads as u64),
            Value::U64(r.ops),
            Value::F64(r.wall.as_secs_f64() * 1e3),
            Value::F64(r.throughput),
            Value::U64(r.p50_ns),
            Value::U64(r.p99_ns),
            Value::U64(r.max_ns),
            Value::U64(r.lock_wait_ns),
            Value::U64(r.lock_hold_ns),
            Value::F64(r.energy.avg_power_w),
            Value::F64(r.energy.energy_j),
            Value::F64(r.energy.epo_uj),
            Value::OptF64(r.measured_j()),
            Value::OptF64(r.measured_uj_per_op()),
            Value::OptF64(r.measured_pkg_j()),
            Value::OptF64(r.measured_dram_j()),
            Value::Str(r.energy_source.label()),
            Value::OptU64(self.freq_khz),
            Value::Bool(self.freq_applied),
            // Cache columns: the store-side delta over the run. Every
            // native cell has a byte-value store behind it, so these are
            // always present here (hit_pct is null before the first GET);
            // simulated cells render them null instead.
            Value::OptU64(Some(r.store_stats.mem_bytes)),
            Value::OptF64(r.store_stats.hit_pct()),
            Value::OptU64(Some(r.store_stats.evictions)),
            // Skew summaries: every native cell has per-shard counters
            // behind it (simulated cells render these null).
            Value::OptF64(self.shard_skew),
            Value::OptF64(self.top_shard_pct),
            Value::Str("xeon"),
        ];
        if csv {
            STORE_CELL.row_csv(&row)
        } else {
            STORE_CELL.row_json(&row)
        }
    }

    fn to_json(&self) -> String {
        self.render(false)
    }

    fn to_csv(&self) -> String {
        self.render(true)
    }

    /// The cell identity its timeline rows carry.
    fn timeline_cell(&self, seed: u64) -> TimelineCell {
        TimelineCell {
            scenario: self.scenario.clone(),
            workload: self.mix.label(),
            transport: self.transport.label().to_string(),
            server: self.server.to_string(),
            lock: self.lock.label().to_string(),
            shards: self.mix.shards as u64,
            threads: self.threads as u64,
            seed,
        }
    }

    /// The heat windows of the cell's ticks, oldest first.
    fn heat(&self) -> impl Iterator<Item = &HeatSample> {
        self.ticks.iter().map(|t| &t.heat)
    }

    /// The cell's track name in the chrome://tracing export.
    fn track_name(&self) -> String {
        format!(
            "{}/{}/{}/{}/t{}",
            self.scenario,
            self.transport.label(),
            self.server,
            self.lock.label(),
            self.threads
        )
    }
}

/// Spins up a loopback server + client for one TCP cell, retrying
/// transient failures (ephemeral-port exhaustion under per-cell server
/// churn) before giving up on the whole sweep. With a sampler, the server
/// is metered: measured joules come back over STATS, attributed to the
/// serving process.
fn connect_loopback(
    store: &Arc<PolyStore>,
    arch: Arch,
    fan: usize,
    depth: usize,
    sampler: Option<&Arc<RaplSampler>>,
) -> (NetServer, NetClient) {
    let mut last_err = None;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(100 << attempt));
        }
        let bound = NetServer::builder("127.0.0.1:0")
            .architecture(arch)
            .metered(sampler.cloned())
            .serve(Arc::clone(store));
        match bound {
            Ok(server) => match NetClient::connect(server.local_addr()) {
                Ok(client) => return (server, client.with_pipeline(fan, depth)),
                Err(e) => last_err = Some(format!("connecting to {}: {e}", server.local_addr())),
            },
            Err(e) => last_err = Some(format!("binding loopback server: {e}")),
        }
    }
    fail(last_err.unwrap_or_else(|| "loopback setup failed".into()));
}

#[allow(clippy::too_many_arguments)] // one call site; the axes are the arguments
fn run_cell(
    scenario: &str,
    mix: KvMix,
    transport: Transport,
    arch: Arch,
    lock: LockKind,
    threads: usize,
    freq: Option<u64>,
    opts: &Options,
    sampler: Option<&Arc<RaplSampler>>,
    capper: Option<&CpuCap>,
) -> Cell {
    // Cap the host for the duration of the cell; the guard restores the
    // prior frequency when the cell ends (panics included). Modeled
    // energy is priced at the cap only when it is actually in force —
    // never at a frequency the host refused to run at.
    let (freq_khz, freq_applied, _cap_guard) = apply_freq(freq, capper);
    // `--value-bytes` overrides the mix's value-size distribution (the
    // override is part of the cell's workload label, so rows stay
    // self-describing).
    let mix = match opts.value_bytes {
        Some(n) => mix.with_value(poly_store::ValueDist::Fixed(n)),
        None => mix,
    };
    let spec = LoadSpec {
        rate_ops_s: opts.rate,
        freq_khz: freq_applied.then_some(freq_khz).flatten(),
        depth: opts.depth,
        ..LoadSpec::saturating(mix, threads, opts.ops, opts.seed)
    };
    let config = StoreConfig {
        shards: mix.shards,
        lock,
        mem_budget: opts.mem_budget,
        default_ttl: opts.ttl,
    };
    let trace = opts.trace_interval.map(TraceSpec::new);
    // The store outlives the load either way, so the cell reads its
    // per-shard counters in-process over either transport.
    let store = Arc::new(PolyStore::new(config));
    let (report, ticks, shard_ops) = match transport {
        Transport::Local => match sampler {
            Some(s) => measure(&Metered::new(&*store, s), &spec, trace.as_ref(), &store),
            None => measure(&*store, &spec, trace.as_ref(), &store),
        },
        Transport::Tcp => {
            // Each cell gets its own loopback server on an OS-assigned
            // port; the server shuts down (joining every worker) when it
            // drops at the end of the cell. Setup failures are retried:
            // the per-cell server churn of a long sweep can transiently
            // exhaust ephemeral ports, and one flaky cell must not
            // abort the process with every finished cell unemitted.
            let (server, client) = connect_loopback(&store, arch, opts.conns, opts.depth, sampler);
            let out = measure(&client, &spec, trace.as_ref(), &store);
            drop(client);
            drop(server); // graceful shutdown: joins every worker
            out
        }
    };
    Cell {
        scenario: scenario.to_string(),
        mix,
        transport,
        server: match transport {
            Transport::Local => "none",
            Transport::Tcp => arch.label(),
        },
        lock,
        threads,
        freq_khz,
        freq_applied,
        report,
        ticks,
        shard_skew: shard_skew(&shard_ops),
        top_shard_pct: top_shard_pct(&shard_ops),
    }
}

/// Runs one cell's load and returns its report, its ticks and its
/// per-shard point ops over the measured interval. A traced cell's
/// collector ticks from the driver's measure-window open and reads the
/// store's shards on every tick, so the timeline and heat windows cover
/// the measured interval. Traced or not, the per-shard ops come from one
/// [`ShardSpan`] over the driver's open and close marks, so the log's
/// capacity never bounds them.
fn measure<S: KvService>(
    svc: &S,
    spec: &LoadSpec,
    trace: Option<&TraceSpec>,
    store: &PolyStore,
) -> (LoadReport, Vec<Tick>, Vec<u64>) {
    match trace {
        Some(t) => run_load_traced(svc, spec, t, store),
        None => {
            let span = ShardSpan::new(store);
            let report = run_load_observed(svc, spec, &span);
            (report, Vec::new(), span.into_ops())
        }
    }
}

fn emit(cells: &[Cell], opts: &Options) {
    let mut buf = String::new();
    match opts.format {
        SinkFormat::JsonLines => {
            for c in cells {
                buf.push_str(&c.to_json());
                buf.push('\n');
            }
        }
        SinkFormat::Csv => {
            buf.push_str(&STORE_CELL.csv_header());
            buf.push('\n');
            for c in cells {
                buf.push_str(&c.to_csv());
                buf.push('\n');
            }
        } // SinkFormat is non-exhaustive only if poly-scenarios grows one;
          // both variants are covered above.
    }
    match &opts.out {
        Some(path) => {
            let mut f = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
            f.write_all(buf.as_bytes())
                .and_then(|()| f.flush())
                .unwrap_or_else(|e| fail(format!("writing reports: {e}")));
            eprintln!("wrote {} cells to {path}", cells.len());
        }
        None => print!("{buf}"),
    }
}

/// Writes the telemetry sinks of a traced run/sweep: the per-window
/// timeline JSONL, the per-shard heat JSONL, and/or the chrome://tracing
/// document. All three read the same ticks, so a timeline row and the
/// heat rows of its window share the window's bounds and skew.
fn emit_traces(cells: &[Cell], opts: &Options) {
    if let Some(path) = &opts.timeline {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
        let mut w = std::io::BufWriter::new(f);
        let mut windows = 0usize;
        for c in cells {
            windows += c.ticks.len();
            write_timeline(&mut w, &c.timeline_cell(opts.seed), &c.ticks)
                .unwrap_or_else(|e| fail(format!("writing timeline {path}: {e}")));
        }
        w.flush().unwrap_or_else(|e| fail(format!("writing timeline {path}: {e}")));
        eprintln!("wrote {windows} windows to {path}");
    }
    if let Some(path) = &opts.heat {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
        let mut w = std::io::BufWriter::new(f);
        let mut rows = 0usize;
        for c in cells {
            rows += c.heat().map(|h| h.shards.len()).sum::<usize>();
            write_heat(&mut w, &c.timeline_cell(opts.seed), &c.ticks)
                .unwrap_or_else(|e| fail(format!("writing heat {path}: {e}")));
        }
        w.flush().unwrap_or_else(|e| fail(format!("writing heat {path}: {e}")));
        eprintln!("wrote {rows} heat rows to {path}");
    }
    if let Some(path) = &opts.chrome_out {
        let mut trace = ChromeTrace::new();
        for c in cells {
            trace.add_track(&c.track_name(), c.ticks.iter().map(|t| &t.window));
            // Under --heat, the aggregate track fans out into one track
            // per shard so the skew reads off the flame view directly.
            if opts.heat.is_some() {
                trace.add_shard_tracks(&c.track_name(), c.heat());
            }
        }
        std::fs::write(path, trace.to_json())
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote chrome trace ({} tracks) to {path}", trace.tracks());
    }
}

fn cmd_list(reg: &Registry) {
    let kv = kv_scenarios(reg);
    println!("{} native kv scenarios:\n", kv.len());
    for (name, mix) in &kv {
        let about = reg.get(name).map(|e| e.about).unwrap_or_default();
        println!("  {:<16} {:<28} {}", name, mix.label(), about);
    }
    println!("\nrun one with:  store run <name> --lock MUTEXEE --threads {}", host_threads());
}

fn cmd_run(reg: &Registry, name: &str, opts: &Options) {
    let mix = lookup_mix(reg, name);
    let lock = *opts.locks.first().unwrap_or(&LockKind::Mutexee);
    let threads = *opts.threads.first().unwrap_or(&host_threads());
    let transport = *opts.transports.first().unwrap_or(&Transport::Local);
    let arch = *opts.servers.first().unwrap_or(&Arch::Threads);
    let freq = opts.freqs.first().copied().unwrap_or(None);
    let mix = if let Some(&s) = opts.shards.first() { mix.with_shards(s) } else { mix };
    let sampler = make_sampler(opts.energy);
    let capper = make_capper(std::slice::from_ref(&freq));
    if capper.is_some() {
        install_interrupt_restore();
    }
    let cell = run_cell(
        name,
        mix,
        transport,
        arch,
        lock,
        threads,
        freq,
        opts,
        sampler.as_ref(),
        capper.as_ref(),
    );
    emit(std::slice::from_ref(&cell), opts);
    emit_traces(std::slice::from_ref(&cell), opts);
}

/// Serves a store on `--addr` until stdin reaches EOF (pipe-friendly:
/// `store serve < /dev/null` exits immediately after binding; an
/// interactive run stops on Ctrl-D), then shuts down gracefully.
fn cmd_serve(opts: &Options) {
    let lock = *opts.locks.first().unwrap_or(&LockKind::Mutexee);
    let shards = *opts.shards.first().unwrap_or(&32);
    let arch = *opts.servers.first().unwrap_or(&Arch::Threads);
    // The JSONL event sink goes in first, so even the cap-apply events of
    // this very startup land in the file.
    if let Some(path) = &opts.events {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
        poly_obs::journal().set_sink(Box::new(std::io::BufWriter::new(f)));
        eprintln!("journaling events to {path}");
    }
    let store = Arc::new(PolyStore::new(StoreConfig {
        shards,
        lock,
        mem_budget: opts.mem_budget,
        default_ttl: opts.ttl,
    }));
    if let Some(budget) = opts.mem_budget {
        eprintln!("mem budget {budget} B (CLOCK eviction makes room)");
    }
    if let Some(ttl) = opts.ttl {
        eprintln!("default TTL {ttl:?} on every put");
    }
    let sampler = make_sampler(opts.energy);
    // An optional serve-wide frequency cap, restored at shutdown.
    let freq = opts.freqs.first().copied().unwrap_or(None);
    let capper = make_capper(std::slice::from_ref(&freq));
    let (freq_khz, freq_applied, _cap_guard) = apply_freq(freq, capper.as_ref());
    if let Some(khz) = freq_khz {
        if freq_applied {
            install_interrupt_restore();
            eprintln!("capped at {khz} kHz for the lifetime of the server");
        } else {
            eprintln!("requested cap of {khz} kHz NOT applied; serving at base frequency");
        }
    }
    // With --trace-interval, a collector windows the serving store for
    // the server's lifetime; STATS replies carry its latest windows.
    let mut collector = opts.trace_interval.map(|interval| {
        StoreCollector::spawn(
            Arc::clone(&store),
            sampler.clone(),
            interval,
            TraceSpec::new(interval).capacity,
            freq_applied.then_some(freq_khz).flatten(),
        )
    });
    let mut builder =
        NetServer::builder(opts.addr.as_str()).architecture(arch).metered(sampler.clone());
    if let Some(c) = &collector {
        // One log feeds the STATS window (`store top`) and its heat
        // window (`store heat`).
        builder = builder.telemetry(c.log());
    }
    let mut server = builder
        .serve(Arc::clone(&store))
        .unwrap_or_else(|e| fail(format!("binding {}: {e}", opts.addr)));
    // The bound address goes to stdout (scripts parse it; with port 0 the
    // OS picks); everything else to stderr.
    println!("{}", server.local_addr());
    std::io::stdout().flush().ok();
    // With --metrics-addr, a sidecar HTTP listener scrapes the same
    // atomics STATS reads: store counters, serving-path counters, and —
    // when present — the sampler's joules and the collector's windows.
    // /healthz reports ready as long as the TCP front-end is serving.
    let serving = Arc::new(AtomicBool::new(true));
    let _metrics = opts.metrics_addr.as_deref().map(|addr| {
        let registry = Arc::new(poly_obs::MetricRegistry::new());
        store.register_metrics(&registry);
        server.register_metrics(&registry);
        if let Some(s) = &sampler {
            s.register_metrics(&registry);
        }
        if let Some(c) = &collector {
            c.register_metrics(&registry);
        }
        let ready = {
            let serving = Arc::clone(&serving);
            move || serving.load(Ordering::SeqCst)
        };
        let ms = poly_obs::MetricsServer::serve(addr, registry, ready)
            .unwrap_or_else(|e| fail(format!("binding metrics sidecar {addr}: {e}")));
        // The second stdout line, for scripts: `metrics <addr>`.
        println!("metrics {}", ms.local_addr());
        std::io::stdout().flush().ok();
        eprintln!("metrics on http://{0}/metrics (also /healthz, /vars)", ms.local_addr());
        ms
    });
    eprintln!(
        "serving {} shards under {} on {} ({} architecture; EOF on stdin stops the server)",
        shards,
        lock.label(),
        server.local_addr(),
        server.architecture(),
    );
    if let Some(s) = &sampler {
        eprintln!("measuring energy over {} RAPL domains", s.domains().len());
        s.start_window();
    }
    // Serve until stdin closes — or, when capped, until SIGINT/SIGTERM
    // flips the flag: stdin is read off-thread so the main thread can
    // poll the flag and still reach the graceful shutdown (and the cap
    // restore) below.
    let (eof_tx, eof_rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        let _ = eof_tx.send(());
    });
    loop {
        if INTERRUPTED.load(Ordering::SeqCst) {
            eprintln!("interrupted: shutting down (caps restored)");
            break;
        }
        match eof_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
    serving.store(false, Ordering::SeqCst);
    server.shutdown();
    if let Some(c) = collector.as_mut() {
        c.stop();
        eprintln!("collected {} telemetry windows", c.log().pushed());
    }
    let net = server.net_stats();
    eprintln!(
        "served {} connections (peak {} concurrent, {} refused), {} frames ({} B in, {} B out)",
        net.connections, net.peak_conns, net.refused, net.frames, net.bytes_in, net.bytes_out
    );
    // Per-shard breakdown: where the ops landed and what their locks
    // cost, so a skewed keyspace shows up at shutdown.
    let shard_stats = store.shard_stats();
    let (mut wait, mut hold) = (0u64, 0u64);
    for (i, s) in shard_stats.iter().enumerate() {
        wait += s.lock_wait_ns;
        hold += s.lock_hold_ns;
        let ops = s.point_ops() + s.scans + s.batches;
        if ops > 0 {
            eprintln!(
                "shard {i:>3}: {ops} ops ({} gets, {} puts, {} removes), lock wait {} ns, \
                 hold {} ns",
                s.gets, s.puts, s.removes, s.lock_wait_ns, s.lock_hold_ns
            );
        }
    }
    eprintln!("total lock wait {wait} ns, hold {hold} ns across {} shards", shard_stats.len());
    if let Some(m) = sampler.as_ref().and_then(|s| s.stop_window()) {
        eprintln!(
            "measured {:.3} J package + {:.3} J dram over {} samples (source: {})",
            m.package_j,
            m.dram_j,
            m.samples,
            m.source.label()
        );
    }
    if opts.events.is_some() {
        // Flush and close the JSONL sink so the file is complete the
        // moment the process exits.
        poly_obs::journal().take_sink();
    }
}

/// Renders nanoseconds as a human latency.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Dials `addr` and renders one frame every `--trace-interval` (default
/// 1s), passing the frame's 1-based ordinal. `--frames N` exits after N
/// frames (scripts and tests); 0 runs until the connection drops or
/// Ctrl-C.
fn poll(addr: &str, opts: &Options, mut frame: impl FnMut(&mut NetConn, u64)) {
    let interval = opts.trace_interval.unwrap_or(Duration::from_secs(1));
    let mut conn = dial(addr);
    for n in 1.. {
        frame(&mut conn, n);
        std::io::stdout().flush().ok();
        if n == opts.frames {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// Resolves and dials a server address, failing loudly on either step.
fn dial(addr: &str) -> NetConn {
    use std::net::ToSocketAddrs;
    let sockaddr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| fail(format!("bad address: {addr}")));
    NetConn::dial(sockaddr).unwrap_or_else(|e| fail(format!("dialing {addr}: {e}")))
}

/// One STATS exchange, failing loudly when the server cannot answer.
fn fetch_stats(conn: &mut NetConn, addr: &str) -> WireStats {
    conn.stats().unwrap_or_else(|e| fail(format!("stats from {addr}: {e}")))
}

/// Clears the terminal between frames only, so a single-frame run
/// (`--frames 1`) stays pipe-friendly.
fn clear_after_first(frame: u64) {
    if frame > 1 {
        print!("\x1b[2J\x1b[H");
    }
}

/// Live view of a serving store: polls STATS and renders the server's
/// latest telemetry window — throughput, per-window p50/p99, measured
/// watts, lock-wait share — above its cumulative counters.
fn cmd_top(addr: &str, opts: &Options) {
    let mut last_window = u64::MAX;
    poll(addr, opts, |conn, frame| {
        clear_after_first(frame);
        let ws = fetch_stats(conn, addr);
        if let Some(w) = &ws.window {
            let stale = if w.window == last_window { " (stale)" } else { "" };
            last_window = w.window;
            let watts = w.watts().map_or_else(|| "unmetered".into(), |p| format!("{p:.1} W"));
            println!(
                "window {:>4}{stale}: {:>10.0} ops/s | p50 {} | p99 {} | {} | lock-wait {:.1}%",
                w.window,
                w.throughput(),
                fmt_ns(w.p50_ns),
                fmt_ns(w.p99_ns),
                watts,
                w.lock_wait_share() * 100.0,
            );
        } else {
            println!("no telemetry window yet (serve with --trace-interval)");
        }
        let s = &ws.stats;
        println!(
            "{} / {} shards | cumulative: {} point ops, {} scans, {} batches | lock wait {} \
             hold {}",
            ws.lock.label(),
            ws.shards,
            s.point_ops(),
            s.scans,
            s.batches,
            fmt_ns(s.lock_wait_ns),
            fmt_ns(s.lock_hold_ns),
        );
    });
}

/// Renders one heat window as a terminal heat map: one bar per shard
/// (its share of the window's point ops against the hottest shard),
/// lock wait, evictions, and the shard's hottest keys from the
/// SpaceSaving sketch.
fn render_heat(h: &HeatSample) {
    let skew = h.shard_skew().map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}"));
    let top = h.top_shard_pct().map_or_else(|| "n/a".to_string(), |p| format!("{p:.1}%"));
    println!(
        "window {:>4}: {} ops across {} shards | skew {skew} | hottest shard {top} of ops",
        h.window,
        h.total_ops(),
        h.shards.len(),
    );
    const WIDTH: u64 = 24;
    let max = h.shards.iter().map(|s| s.ops).max().unwrap_or(0).max(1);
    for (i, s) in h.shards.iter().enumerate() {
        // Ceiling-scaled: any active shard shows at least one tick.
        let fill = (s.ops * WIDTH).div_ceil(max) as usize;
        let bar = format!("{}{}", "#".repeat(fill), ".".repeat(WIDTH as usize - fill));
        let keys = s
            .top_keys
            .iter()
            .take(3)
            .map(|hk| format!("{}:{}", hk.key, hk.count))
            .collect::<Vec<_>>()
            .join(" ");
        let hot = if keys.is_empty() { String::new() } else { format!(" | hot {keys}") };
        println!(
            "shard {i:>3} [{bar}] {:>8} ops | wait {} | {} ev{hot}",
            s.ops,
            fmt_ns(s.lock_wait_ns),
            s.evictions,
        );
    }
}

/// Live per-shard heat view of a serving store: polls STATS and renders
/// the server's latest heat window as a shard-by-shard heat map with hot
/// keys.
fn cmd_heat(addr: &str, opts: &Options) {
    poll(addr, opts, |conn, frame| {
        clear_after_first(frame);
        match fetch_stats(conn, addr).heat {
            Some(h) => render_heat(&h),
            None => println!("no heat window yet (serve with --trace-interval)"),
        }
    });
}

/// Renders one journal event as a line: seq, wall-clock timestamp,
/// level, kind, then the key/value fields in emission order.
fn render_event(e: &poly_obs::Event) {
    let fields = e.fields.iter().map(|(k, v)| format!(" {k}={v}")).collect::<Vec<_>>().concat();
    println!("seq {:>6} | ts {} | {:<5} | {}{}", e.seq, e.ts_ms, e.level.label(), e.kind, fields);
}

/// Tails the structured event journal of a serving store: polls the
/// EVENTS opcode, printing each event once (the client tracks the last
/// seq it saw and asks for `last + 1`).
fn cmd_events(addr: &str, opts: &Options) {
    let mut since_seq = 0u64;
    poll(addr, opts, |conn, frame| {
        let events =
            conn.events(since_seq).unwrap_or_else(|e| fail(format!("events from {addr}: {e}")));
        if events.is_empty() && frame == 1 {
            println!("no events yet (they appear as caps, evictions, and refusals happen)");
        }
        for e in &events {
            render_event(e);
            since_seq = e.seq + 1;
        }
    });
}

fn cmd_sweep(reg: &Registry, opts: &Options) {
    let bases: Vec<(String, KvMix)> = match &opts.scenarios {
        Some(names) => names.iter().map(|n| (n.clone(), lookup_mix(reg, n))).collect(),
        None => kv_scenarios(reg),
    };
    if bases.is_empty() {
        fail("no kv scenarios to sweep".into());
    }
    let locks = if opts.locks.is_empty() { vec![LockKind::Mutexee] } else { opts.locks.clone() };
    let threads = if opts.threads.is_empty() { vec![host_threads()] } else { opts.threads.clone() };
    let shard_list_of = |mix: &KvMix| {
        if opts.shards.is_empty() {
            vec![mix.shards]
        } else {
            opts.shards.clone()
        }
    };
    let transports =
        if opts.transports.is_empty() { vec![Transport::Local] } else { opts.transports.clone() };
    let servers = if opts.servers.is_empty() { vec![Arch::Threads] } else { opts.servers.clone() };
    // The server axis only multiplies tcp cells: a local cell has no
    // serving architecture (it reports server=none), so sweeping
    // `--server threads,epoll --transport local,tcp` runs each local
    // cell once, not once per architecture.
    let arch_list_of = |t: Transport| match t {
        Transport::Tcp => servers.clone(),
        Transport::Local => vec![Arch::Threads],
    };
    let freqs: Vec<Option<u64>> =
        if opts.freqs.is_empty() { vec![None] } else { opts.freqs.clone() };
    let sampler = make_sampler(opts.energy);
    let capper = make_capper(&freqs);
    if capper.is_some() {
        install_interrupt_restore();
    }
    let arch_cells: usize = transports.iter().map(|&t| arch_list_of(t).len()).sum();
    let planned: usize = bases
        .iter()
        .map(|(_, mix)| {
            shard_list_of(mix).len() * locks.len() * threads.len() * arch_cells * freqs.len()
        })
        .sum();
    let mut cells = Vec::new();
    'cells: for (name, mix) in &bases {
        let shard_list = shard_list_of(mix);
        for &s in &shard_list {
            let mix = mix.with_shards(s);
            for &transport in &transports {
                for &arch in &arch_list_of(transport) {
                    for &lock in &locks {
                        for &t in &threads {
                            for &freq in &freqs {
                                if INTERRUPTED.load(Ordering::SeqCst) {
                                    eprintln!(
                                        "interrupted: stopping after {} of {planned} cells \
                                         (caps restored)",
                                        cells.len()
                                    );
                                    break 'cells;
                                }
                                let server = match transport {
                                    Transport::Local => "none".to_string(),
                                    Transport::Tcp => arch.to_string(),
                                };
                                eprintln!(
                                    "cell {}/{}: {} transport={} server={} lock={} shards={} \
                                     threads={} freq={}",
                                    cells.len() + 1,
                                    planned,
                                    name,
                                    transport.label(),
                                    server,
                                    lock.label(),
                                    s,
                                    t,
                                    FreqPolicy::point_label(freq),
                                );
                                cells.push(run_cell(
                                    name,
                                    mix,
                                    transport,
                                    arch,
                                    lock,
                                    t,
                                    freq,
                                    opts,
                                    sampler.as_ref(),
                                    capper.as_ref(),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    emit(&cells, opts);
    emit_traces(&cells, opts);
}

/// Distills a sweep's JSONL into the per-frequency measured/modeled
/// residual table — the calibration feedback loop (`--format csv` for the
/// machine-readable shape).
fn cmd_calibrate(path: &str, args: &[String]) {
    let mut csv = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--format" => {
                match it.next().map(String::as_str) {
                    Some("table") => csv = false,
                    Some("csv") => csv = true,
                    other => fail(format!("calibrate --format takes table or csv, got {other:?}")),
                };
            }
            other => fail(format!("unknown calibrate option: {other}")),
        }
    }
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let table = CalibrationTable::from_jsonl(&text)
        .unwrap_or_else(|e| fail(format!("{path} is not a sweep JSONL: {e}")));
    if table.rows().is_empty() {
        fail(format!("{path} holds no sweep cells"));
    }
    if csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    if table.overall_ratio().is_none() {
        eprintln!(
            "note: no measured cells in {path}; re-run the sweep with --energy rapl|auto on a \
             RAPL host to calibrate"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = Registry::builtin();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&reg),
        Some("run") => {
            let Some(name) = args.get(1) else { fail("run needs a scenario name".into()) };
            cmd_run(&reg, name, &parse_options(&args[2..]));
        }
        Some("sweep") => cmd_sweep(&reg, &parse_options(&args[1..])),
        Some("serve") => cmd_serve(&parse_options(&args[1..])),
        Some("top") => {
            let Some(addr) = args.get(1) else { fail("top needs a server address".into()) };
            cmd_top(addr, &parse_options(&args[2..]));
        }
        Some("heat") => {
            let Some(addr) = args.get(1) else { fail("heat needs a server address".into()) };
            cmd_heat(addr, &parse_options(&args[2..]));
        }
        Some("events") => {
            let Some(addr) = args.get(1) else { fail("events needs a server address".into()) };
            cmd_events(addr, &parse_options(&args[2..]));
        }
        Some("calibrate") => {
            let Some(path) = args.get(1) else { fail("calibrate needs a sweep JSONL path".into()) };
            cmd_calibrate(path, &args[2..]);
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poly_store::{EnergyEstimate, MeasuredEnergy, StatsSnapshot};

    /// The two cells' rows as the emitter renders them, byte for byte:
    /// (JSON line, CSV line). A change to any column's name, order or
    /// rendering must update these on purpose.
    const GOLDEN_ROWS: [(&str, &str); 2] = [
        (
            "{\"scenario\":\"kv-zipf\",\"workload\":\"kv/8sh/uni/g80p18d2s0\",\
            \"transport\":\"local\",\"server\":\"none\",\"lock\":\"MUTEXEE\",\"shards\":8,\
            \"threads\":4,\"ops\":1000,\"wall_ms\":250,\"throughput\":4000,\"p50_ns\":1000,\
            \"p99_ns\":9000,\"max_ns\":20000,\"lock_wait_ns\":5000000,\"lock_hold_ns\":2000000,\
            \"avg_power_w\":35.5,\"energy_j\":8.875,\"epo_uj\":8875,\"measured_j\":3,\
            \"measured_uj_per_op\":3000,\"measured_pkg_j\":2.5,\"measured_dram_j\":0.5,\
            \"energy_source\":\"rapl\",\"freq_khz\":1200000,\"freq_applied\":true,\
            \"mem_bytes\":65536,\"hit_pct\":75,\"evictions\":12,\"shard_skew\":3.25,\
            \"top_shard_pct\":40.625,\"energy_model\":\"xeon\"}",
            "kv-zipf,kv/8sh/uni/g80p18d2s0,local,none,MUTEXEE,8,4,1000,250,4000,1000,9000,20000,\
            5000000,2000000,35.5,8.875,8875,3,3000,2.5,0.5,rapl,1200000,true,65536,75,12,3.25,\
            40.625",
        ),
        (
            "{\"scenario\":\"kv-uniform\",\"workload\":\"kv/32sh/uni/g80p18d2s0\",\
            \"transport\":\"tcp\",\"server\":\"epoll\",\"lock\":\"TICKET\",\"shards\":32,\
            \"threads\":1,\"ops\":1000,\"wall_ms\":250,\"throughput\":4000,\"p50_ns\":1000,\
            \"p99_ns\":9000,\"max_ns\":20000,\"lock_wait_ns\":5000000,\"lock_hold_ns\":2000000,\
            \"avg_power_w\":35.5,\"energy_j\":8.875,\"epo_uj\":8875,\"measured_j\":null,\
            \"measured_uj_per_op\":null,\"measured_pkg_j\":null,\"measured_dram_j\":null,\
            \"energy_source\":\"modeled\",\"freq_khz\":null,\"freq_applied\":false,\
            \"mem_bytes\":0,\"hit_pct\":null,\"evictions\":0,\"shard_skew\":null,\
            \"top_shard_pct\":null,\"energy_model\":\"xeon\"}",
            "kv-uniform,kv/32sh/uni/g80p18d2s0,tcp,epoll,TICKET,32,1,1000,250,4000,1000,9000,\
            20000,5000000,2000000,35.5,8.875,8875,null,null,null,null,modeled,null,false,0,null,0,\
            null,null",
        ),
    ];

    const GOLDEN_CSV_HEADER: &str =
        "scenario,workload,transport,server,lock,shards,threads,ops,wall_ms,throughput,p50_ns,\
        p99_ns,max_ns,lock_wait_ns,lock_hold_ns,avg_power_w,energy_j,epo_uj,measured_j,\
        measured_uj_per_op,measured_pkg_j,measured_dram_j,energy_source,freq_khz,freq_applied,\
        mem_bytes,hit_pct,evictions,shard_skew,top_shard_pct";

    fn report(measured: Option<MeasuredEnergy>) -> LoadReport {
        LoadReport {
            ops: 1_000,
            wall: Duration::from_millis(250),
            throughput: 4_000.0,
            p50_ns: 1_000,
            p99_ns: 9_000,
            max_ns: 20_000,
            lock_wait_ns: 5_000_000,
            lock_hold_ns: 2_000_000,
            idle_ns: 0,
            freq_khz: None,
            energy: EnergyEstimate { avg_power_w: 35.5, energy_j: 8.875, epo_uj: 8_875.0 },
            energy_source: if measured.is_some() {
                EnergySource::Rapl
            } else {
                EnergySource::Modeled
            },
            measured,
            store_stats: StatsSnapshot::default(),
            request_latency: Default::default(),
        }
    }

    fn cells() -> Vec<Cell> {
        let metered =
            MeasuredEnergy { package_j: 2.5, dram_j: 0.5, samples: 10, source: EnergySource::Rapl };
        // The first cell carries cache stats (a non-null hit_pct and
        // eviction count) so the byte-pin covers the cache columns; the
        // second keeps the all-default shape (hit_pct null).
        let mut cached = report(Some(metered));
        cached.store_stats = StatsSnapshot {
            gets: 800,
            get_hits: 600,
            evictions: 12,
            mem_bytes: 65_536,
            ..StatsSnapshot::default()
        };
        vec![
            Cell {
                scenario: "kv-zipf".into(),
                mix: KvMix::uniform().with_shards(8),
                transport: Transport::Local,
                server: "none",
                lock: LockKind::Mutexee,
                threads: 4,
                freq_khz: Some(1_200_000),
                freq_applied: true,
                report: cached,
                ticks: Vec::new(),
                // A skewed cell: the byte-pin covers rendered skew
                // summaries (the sibling cell keeps them null).
                shard_skew: Some(3.25),
                top_shard_pct: Some(40.625),
            },
            Cell {
                scenario: "kv-uniform".into(),
                mix: KvMix::uniform(),
                transport: Transport::Tcp,
                server: "epoll",
                lock: LockKind::Ticket,
                threads: 1,
                freq_khz: None,
                freq_applied: false,
                report: report(None),
                ticks: Vec::new(),
                shard_skew: None,
                top_shard_pct: None,
            },
        ]
    }

    #[test]
    fn registry_render_matches_the_golden_rows_byte_for_byte() {
        for (cell, (json, csv)) in cells().iter().zip(GOLDEN_ROWS) {
            assert_eq!(cell.to_json(), json);
            assert_eq!(cell.to_csv(), csv);
        }
    }

    #[test]
    fn registry_csv_header_matches_the_golden_header() {
        assert_eq!(STORE_CELL.csv_header(), GOLDEN_CSV_HEADER);
    }

    #[test]
    fn a_traced_cells_shard_ops_cover_the_run_past_the_log_capacity() {
        // A paced one-thread run spans about 50 windows of 2 ms; the log
        // keeps 2. The cell's per-shard ops must still cover the whole
        // measured interval and equal an untraced run's (one seeded
        // thread, so the ops each shard serves are deterministic).
        let mix = KvMix::zipf_hot().with_shards(4);
        let spec = LoadSpec { rate_ops_s: Some(4_000), ..LoadSpec::saturating(mix, 1, 400, 7) };
        let config =
            StoreConfig { shards: mix.shards, lock: LockKind::Mutexee, ..Default::default() };
        let trace = TraceSpec { interval: Duration::from_millis(2), capacity: 2 };
        let store = PolyStore::new(config);
        let (report, ticks, traced) = measure(&store, &spec, Some(&trace), &store);
        let point_ops = report.store_stats.point_ops();
        assert_eq!(ticks.len(), 2);
        assert!(ticks[0].window.window > 0, "the run must outlast the log: {:?}", ticks[0].window);
        let kept: u64 = ticks.iter().map(|t| t.heat.total_ops()).sum();
        assert!(kept < point_ops, "the log kept only its newest windows");
        assert_eq!(traced.iter().sum::<u64>(), point_ops);
        let plain = PolyStore::new(config);
        let (_, _, untraced) = measure(&plain, &spec, None, &plain);
        assert_eq!(traced, untraced, "one rule, traced or not");
        assert_eq!(shard_skew(&traced), shard_skew(&untraced));
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_bytes("65536"), Some(65_536));
        assert_eq!(parse_bytes("4k"), Some(4 << 10));
        assert_eq!(parse_bytes("4M"), Some(4 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes("lots"), None);
        assert_eq!(parse_bytes("4t"), None);
    }
}

//! The scenario orchestration CLI: list, run, and sweep named scenarios.
//!
//! ```text
//! cargo run --release -p poly-bench --bin scenarios -- list
//! cargo run --release -p poly-bench --bin scenarios -- run kv-hot-zipf --lock MUTEXEE
//! cargo run --release -p poly-bench --bin scenarios -- sweep \
//!     --scenarios lock-stress,kv-hot-zipf --locks MUTEX,TICKET,MUTEXEE \
//!     --threads 8,16,32 --format jsonl --out sweep.jsonl
//! ```
//!
//! Durations honor `POLY_QUICK=1` / `POLY_FULL=1` like the figure binaries.

use std::io::Write;
use std::process::exit;
use std::time::Duration;

use poly_bench::{horizon, parse_duration};
use poly_cap::FreqPolicy;
use poly_locks_sim::LockKind;
use poly_scenarios::{
    cross_capped, parse_lock, write_reports, MachineKind, Registry, ScenarioSpec, SinkFormat,
    SweepRunner,
};
use poly_trace::{TimelineCell, TimelineRow};

fn usage() -> ! {
    eprintln!(
        "usage: scenarios <command>\n\
         \n\
         commands:\n\
         \x20 list                         list the built-in scenarios\n\
         \x20 run <name> [options]         run one scenario, print its report\n\
         \x20 sweep [options]              run a cross product of cells in parallel\n\
         \n\
         options (run and sweep):\n\
         \x20 --locks L1,L2 | --lock L     lock algorithms (default: scenario default)\n\
         \x20 --machine xeon|core-i7|tiny  simulated machine (default: scenario default)\n\
         \x20 --threads N1,N2              thread counts (default: scenario default)\n\
         \x20 --shards S1,S2               shard counts (kv workloads only)\n\
         \x20 --freq base|K1,K2            frequency caps in kHz (simulated DVFS axis;\n\
         \x20                              'base' = uncapped; default: base)\n\
         \x20 --duration CYCLES            simulated cycles (default: figure horizon)\n\
         \x20 --warmup CYCLES              warmup prefix (default: duration/10)\n\
         \x20 --seed S                     sweep seed (default: 42)\n\
         \x20 --format jsonl|csv           output format (default: jsonl)\n\
         \x20 --out FILE                   write reports to FILE instead of stdout\n\
         \x20 --trace-interval D           accept a telemetry interval (50ms, 1s, 500us) for\n\
         \x20                              CLI symmetry with `store`; the simulator always\n\
         \x20                              emits one whole-run window per cell\n\
         \x20 --timeline FILE              write one whole-run timeline window per cell as\n\
         \x20                              timeline JSONL (needs --trace-interval)\n\
         \n\
         options (sweep only):\n\
         \x20 --scenarios n1,n2 | all      scenarios to sweep (default: all)\n\
         \x20 --workers N                  parallel workers (default: all cores)"
    );
    exit(2);
}

struct Options {
    machine: Option<MachineKind>,
    locks: Vec<LockKind>,
    threads: Vec<usize>,
    shards: Vec<usize>,
    freqs: Vec<Option<u64>>,
    duration: Option<u64>,
    warmup: Option<u64>,
    seed: u64,
    format: SinkFormat,
    out: Option<String>,
    /// `--trace-interval`: parsed and validated like the `store` CLI's
    /// flag, but the simulator has no wall clock to window — it gates
    /// `--timeline` and is otherwise advisory.
    trace_interval: Option<Duration>,
    /// `--timeline FILE`: one whole-run window per cell, in the shared
    /// timeline JSONL schema.
    timeline: Option<String>,
    scenarios: Option<Vec<String>>,
    workers: Option<usize>,
}

fn fail(msg: String) -> ! {
    eprintln!("scenarios: {msg}");
    exit(2);
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        machine: None,
        locks: Vec::new(),
        threads: Vec::new(),
        shards: Vec::new(),
        freqs: Vec::new(),
        duration: None,
        warmup: None,
        seed: 42,
        format: SinkFormat::JsonLines,
        out: None,
        trace_interval: None,
        timeline: None,
        scenarios: None,
        workers: None,
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
            "--machine" => {
                let v = value();
                opts.machine = Some(
                    MachineKind::parse(v).unwrap_or_else(|| fail(format!("unknown machine: {v}"))),
                );
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
            "--freq" => {
                let v = value();
                opts.freqs = FreqPolicy::parse(v)
                    .unwrap_or_else(|| {
                        fail(format!("bad --freq: {v} (base or a kHz list, e.g. base,1200000)"))
                    })
                    .points();
            }
            "--duration" => {
                opts.duration =
                    Some(value().parse().unwrap_or_else(|_| fail("bad --duration".into())));
            }
            "--warmup" => {
                opts.warmup = Some(value().parse().unwrap_or_else(|_| fail("bad --warmup".into())));
            }
            "--seed" => {
                opts.seed = value().parse().unwrap_or_else(|_| fail("bad --seed".into()));
            }
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
            "--scenarios" => {
                let v = value();
                if v != "all" {
                    opts.scenarios = Some(v.split(',').map(str::to_string).collect());
                }
            }
            "--workers" => {
                opts.workers =
                    Some(value().parse().unwrap_or_else(|_| fail("bad --workers".into())));
            }
            other => fail(format!("unknown option: {other}")),
        }
    }
    if opts.timeline.is_some() && opts.trace_interval.is_none() {
        fail("--timeline needs --trace-interval (same contract as the store CLI)".into());
    }
    opts
}

/// Applies the horizon (CLI override, else the `POLY_QUICK`/`POLY_FULL`
/// figure horizon) to a base spec.
fn with_horizon(spec: ScenarioSpec, opts: &Options) -> ScenarioSpec {
    let h = horizon();
    let duration = opts.duration.unwrap_or(h.cycles);
    let warmup = opts.warmup.unwrap_or(duration / 10);
    if duration == 0 || warmup >= duration {
        fail(format!("--warmup ({warmup}) must be smaller than --duration ({duration})"));
    }
    let spec = match opts.machine {
        Some(machine) => spec.with_machine(machine),
        None => spec,
    };
    spec.with_duration(duration, warmup)
}

fn emit(reports: &[poly_scenarios::CellReport], opts: &Options) {
    let result = match &opts.out {
        Some(path) => {
            let mut f = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
            write_reports(&mut f, opts.format, reports)
                .and_then(|()| f.flush())
                .map(|()| eprintln!("wrote {} cells to {path}", reports.len()))
        }
        None => write_reports(&mut std::io::stdout().lock(), opts.format, reports),
    };
    result.unwrap_or_else(|e| fail(format!("writing reports: {e}")));
}

/// Writes one whole-run timeline window per cell. The simulator measures
/// a run only in aggregate, so every per-window column it cannot produce
/// (latency percentiles, lock wait/hold, measured joules) is `null` —
/// the row still parses as the same timeline schema the native `store`
/// sweeps emit.
fn emit_timeline(cells: &[ScenarioSpec], reports: &[poly_scenarios::CellReport], opts: &Options) {
    let Some(path) = &opts.timeline else { return };
    let file =
        std::fs::File::create(path).unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
    let mut w = std::io::BufWriter::new(file);
    // `SweepRunner::run` fills results by index, so reports line up with
    // the specs that produced them — the spec supplies the shard count
    // the aggregate report folds into its workload label.
    let result = cells.iter().zip(reports).try_for_each(|(spec, r)| {
        let cell = TimelineCell {
            scenario: r.scenario.clone(),
            workload: r.workload.clone(),
            transport: r.transport.to_string(),
            server: "sim".to_string(),
            lock: r.lock.label().to_string(),
            shards: spec.workload.shard_count().unwrap_or(0) as u64,
            threads: r.threads as u64,
            seed: r.seed,
        };
        let wall_ns =
            if r.throughput > 0.0 { (r.total_ops as f64 / r.throughput * 1e9) as u64 } else { 0 };
        let row = TimelineRow {
            window: 0,
            start_ns: 0,
            end_ns: wall_ns,
            ops: r.total_ops,
            throughput: r.throughput,
            p50_ns: None,
            p99_ns: None,
            lock_wait_ns: None,
            lock_hold_ns: None,
            measured_pkg_j: None,
            measured_dram_j: None,
            measured_w: None,
            freq_khz: r.freq_khz,
            // Simulated cells have no byte-value store behind them.
            mem_bytes: None,
            hit_pct: None,
            evictions: None,
            // ... and no per-shard heat sensor either.
            shard_skew: None,
            top_shard_pct: None,
        };
        writeln!(w, "{}", row.to_json(&cell))
    });
    result.and_then(|()| w.flush()).unwrap_or_else(|e| fail(format!("writing timeline: {e}")));
    eprintln!("wrote {} timeline windows to {path}", reports.len());
}

fn cmd_list(reg: &Registry) {
    println!("{} built-in scenarios:\n", reg.len());
    for e in reg.iter() {
        let s = &e.spec;
        println!(
            "  {:<18} {:<9} {:>3} thr  {:<8} {}",
            s.name,
            s.workload.label(),
            s.effective_threads(),
            s.lock.label(),
            e.about
        );
    }
    println!("\nrun one with:  scenarios run <name>   sweep all with:  scenarios sweep");
}

fn cmd_run(reg: &Registry, name: &str, opts: &Options) {
    let entry =
        reg.get(name).unwrap_or_else(|| fail(format!("unknown scenario: {name} (try `list`)")));
    let base = with_horizon(entry.spec.clone(), opts);
    let cells =
        cross_capped(&[base], &opts.locks, &opts.threads, &opts.shards, &opts.freqs, opts.seed);
    let runner = opts.workers.map(SweepRunner::with_workers).unwrap_or_default();
    let reports = runner.run(&cells);
    emit(&reports, opts);
    emit_timeline(&cells, &reports, opts);
}

fn cmd_sweep(reg: &Registry, opts: &Options) {
    let names: Vec<String> = match &opts.scenarios {
        Some(names) => names.clone(),
        None => reg.names().iter().map(|s| s.to_string()).collect(),
    };
    let bases: Vec<ScenarioSpec> = names
        .iter()
        .map(|n| {
            let entry =
                reg.get(n).unwrap_or_else(|| fail(format!("unknown scenario: {n} (try `list`)")));
            with_horizon(entry.spec.clone(), opts)
        })
        .collect();
    let cells =
        cross_capped(&bases, &opts.locks, &opts.threads, &opts.shards, &opts.freqs, opts.seed);
    eprintln!(
        "sweeping {} cells ({} scenarios x locks x shards x threads x freqs)...",
        cells.len(),
        bases.len()
    );
    let runner = opts.workers.map(SweepRunner::with_workers).unwrap_or_default();
    let reports = runner.run(&cells);
    emit(&reports, opts);
    emit_timeline(&cells, &reports, opts);
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
        _ => usage(),
    }
}

//! Experiment harness for regenerating every table and figure of
//! "Unlocking Energy" (USENIX ATC 2016).
//!
//! Each `fig*`/`tab*` binary reproduces one table or figure of the paper on
//! the simulated Xeon and prints the same rows/series the paper reports
//! (markdown tables on stdout). Run them with, e.g.:
//!
//! ```text
//! cargo run --release -p poly-bench --bin fig11
//! cargo run --release -p poly-bench --bin repro     # everything
//! ```
//!
//! Durations scale with the `POLY_QUICK=1` (CI smoke) and `POLY_FULL=1`
//! (longer, smoother curves) environment variables.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Duration;

use poly_locks_sim::{Dist, LockKind, LockParams, LockStress, LockStressConfig, SimLock};
use poly_sim::{
    Cycles, MachineConfig, Op, OpResult, PinPolicy, Program, RunSpec, SimBuilder, SimReport,
    ThreadRt, VfPoint,
};

/// Measurement horizon of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct Horizon {
    /// Total simulated cycles.
    pub cycles: Cycles,
    /// Warmup prefix excluded from measurement.
    pub warmup: Cycles,
}

impl Horizon {
    /// The run spec for this horizon.
    pub fn spec(&self) -> RunSpec {
        RunSpec { duration: self.cycles, warmup: self.warmup }
    }

    /// Scales the horizon (for heavyweight scenarios).
    pub fn scaled(&self, f: f64) -> Horizon {
        Horizon {
            cycles: (self.cycles as f64 * f) as Cycles,
            warmup: (self.warmup as f64 * f) as Cycles,
        }
    }
}

/// The default horizon, honoring `POLY_QUICK`/`POLY_FULL`.
pub fn horizon() -> Horizon {
    let cycles: Cycles = if std::env::var_os("POLY_QUICK").is_some() {
        12_000_000
    } else if std::env::var_os("POLY_FULL").is_some() {
        300_000_000
    } else {
        60_000_000
    };
    Horizon { cycles, warmup: cycles / 10 }
}

/// The paper's Xeon configuration.
pub fn xeon() -> MachineConfig {
    MachineConfig::xeon()
}

/// Runs the §5.2 microbenchmark: `threads` threads over `n_locks` locks
/// (picked uniformly per iteration), fixed-ish critical sections.
pub fn lock_stress(
    kind: LockKind,
    threads: usize,
    cs: Dist,
    non_cs: Dist,
    n_locks: usize,
    params: LockParams,
    h: Horizon,
) -> SimReport {
    let mut b = SimBuilder::new(xeon());
    let locks: Vec<SimLock> =
        (0..n_locks).map(|_| SimLock::alloc(&mut b, kind, threads, params)).collect();
    for _ in 0..threads {
        b.spawn(
            Box::new(LockStress::new(locks.clone(), LockStressConfig { cs, non_cs })),
            PinPolicy::PaperOrder,
        );
    }
    b.run(h.spec())
}

/// A thread running memory-intensive streaming work forever (Figure 2).
pub struct MemHog {
    /// Chunk size in cycles between bookkeeping points.
    pub chunk: Cycles,
}

impl Program for MemHog {
    fn resume(&mut self, rt: &mut ThreadRt<'_>, last: OpResult) -> Op {
        if !matches!(last, OpResult::Started) {
            rt.counters.ops += 1;
        }
        Op::MemWork(self.chunk)
    }
}

/// A thread that pins its core's VF request and then sleeps forever — used
/// to emulate "all contexts' governor files set to min" (Figure 2/5).
pub struct VfSleeper {
    /// The VF point to request.
    pub vf: VfPoint,
    /// Internal: whether the request was issued.
    pub done: bool,
    /// Line to sleep on (value 1, never woken).
    pub line: poly_sim::LineId,
}

impl Program for VfSleeper {
    fn resume(&mut self, _rt: &mut ThreadRt<'_>, _last: OpResult) -> Op {
        if !self.done {
            self.done = true;
            Op::SetVf(self.vf)
        } else {
            Op::FutexWait { line: self.line, expect: 1, timeout: None }
        }
    }
}

/// A plain-text/markdown table printer with right-aligned numeric cells.
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(ToString::to_string).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a count in millions.
pub fn mops(v: f64) -> String {
    format!("{:.2}", v / 1e6)
}

/// Formats a count in thousands.
pub fn kops(v: f64) -> String {
    format!("{:.0}", v / 1e3)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str) {
    println!("\n## {id} — {what}");
    println!("(simulated 2-socket Xeon, {} cycles measured)\n", horizon().cycles);
}

/// Parses a human duration, as both sweep CLIs take them: `50ms`, `1s`,
/// `500us`, or a bare number of milliseconds. Zero is refused.
pub fn parse_duration(s: &str) -> Option<Duration> {
    let (digits, unit) = match s.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => s.split_at(i),
        None => (s, "ms"),
    };
    let n: u64 = digits.parse().ok()?;
    let d = match unit {
        "us" | "µs" => Duration::from_micros(n),
        "ms" => Duration::from_millis(n),
        "s" => Duration::from_secs(n),
        _ => return None,
    };
    (!d.is_zero()).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse_like_humans_write_them() {
        assert_eq!(parse_duration("50ms"), Some(Duration::from_millis(50)));
        assert_eq!(parse_duration("1s"), Some(Duration::from_secs(1)));
        assert_eq!(parse_duration("500us"), Some(Duration::from_micros(500)));
        assert_eq!(parse_duration("250"), Some(Duration::from_millis(250)));
        assert_eq!(parse_duration("0ms"), None);
        assert_eq!(parse_duration("fast"), None);
        assert_eq!(parse_duration("10m"), None);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | bb |") || s.contains("| a |"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn horizon_is_positive() {
        let h = horizon();
        assert!(h.warmup < h.cycles);
    }

    #[test]
    fn lock_stress_smoke() {
        let r = lock_stress(
            LockKind::Ttas,
            4,
            Dist::Fixed(1000),
            Dist::Fixed(100),
            1,
            LockParams::default(),
            Horizon { cycles: 3_000_000, warmup: 300_000 },
        );
        assert!(r.total_ops > 0);
    }
}

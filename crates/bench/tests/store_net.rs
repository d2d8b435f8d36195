//! Loopback end-to-end tests of the `store` CLI's network path: the
//! acceptance gate for the TCP front-end. Each test execs the real
//! `store` binary (via `CARGO_BIN_EXE_store`), so the whole stack —
//! argument parsing, scenario lookup, poly-net server + client, open-loop
//! driver, JSONL emission — runs exactly as a user would run it.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

mod common;
use common::{json_keys, json_value};

fn store_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_store"))
}

/// Runs `store sweep` with the given transport over a kv-net scenario and
/// returns the JSONL lines.
fn sweep_jsonl(transport: &str) -> Vec<String> {
    let out = store_bin()
        .args([
            "sweep",
            "--scenarios",
            "kv-net-zipf",
            "--transport",
            transport,
            "--locks",
            "MUTEX,MUTEXEE",
            "--threads",
            "2",
            "--ops",
            "300",
            "--seed",
            "7",
            "--format",
            "jsonl",
        ])
        .output()
        .expect("store sweep runs");
    assert!(
        out.status.success(),
        "sweep --transport {transport} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 jsonl");
    stdout.lines().map(str::to_string).collect()
}

/// `store sweep --transport tcp` over a kv-net scenario: JSONL cells with
/// throughput, tails, and modeled energy; schema byte-identical to the
/// local transport apart from the `transport` field; labels deterministic
/// across runs.
#[test]
fn tcp_sweep_matches_local_schema_and_is_label_deterministic() {
    let tcp = sweep_jsonl("tcp");
    let local = sweep_jsonl("local");
    assert_eq!(tcp.len(), 2, "two locks => two cells: {tcp:?}");
    assert_eq!(local.len(), 2);

    for (t, l) in tcp.iter().zip(&local) {
        // Identical schema: same keys, same order.
        assert_eq!(json_keys(t), json_keys(l), "tcp/local schemas diverge");
        assert_eq!(json_value(t, "transport"), "\"tcp\"");
        assert_eq!(json_value(l, "transport"), "\"local\"");
        // Identity fields agree cell by cell; only measurements differ.
        for key in ["scenario", "workload", "lock", "shards", "threads", "ops"] {
            assert_eq!(json_value(t, key), json_value(l, key), "{key} diverged");
        }
        assert_eq!(json_value(t, "scenario"), "\"kv-net-zipf\"");
        // The measured fields are present and sane.
        assert_eq!(json_value(t, "ops"), "600");
        assert!(json_value(t, "throughput").parse::<f64>().unwrap() > 0.0);
        assert!(json_value(t, "p50_ns").parse::<u64>().unwrap() > 0);
        assert!(json_value(t, "p99_ns").parse::<u64>().unwrap() > 0);
        assert!(json_value(t, "avg_power_w").parse::<f64>().unwrap() > 27.0);
        assert!(json_value(t, "energy_j").parse::<f64>().unwrap() > 0.0);
    }

    // Scenario labels are deterministic: a second tcp sweep names the
    // same cells in the same order.
    let again = sweep_jsonl("tcp");
    for (a, b) in tcp.iter().zip(&again) {
        for key in ["scenario", "workload", "transport", "lock", "shards", "threads"] {
            assert_eq!(json_value(a, key), json_value(b, key), "{key} not deterministic");
        }
    }
}

/// One sweep can carry both transports as an axis.
#[test]
fn transport_is_a_sweep_axis() {
    let out = store_bin()
        .args([
            "sweep",
            "--scenarios",
            "kv-net-uniform",
            "--transport",
            "local,tcp",
            "--locks",
            "MUTEXEE",
            "--threads",
            "1",
            "--ops",
            "200",
            "--format",
            "csv",
        ])
        .output()
        .expect("store sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    assert!(header.contains(",transport,"), "header: {header}");
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 2);
    let col = header.split(',').position(|c| c == "transport").unwrap();
    let transports: Vec<&str> = rows.iter().map(|r| r.split(',').nth(col).unwrap()).collect();
    assert_eq!(transports, ["local", "tcp"]);
}

/// One sweep can carry both serving architectures as an axis: the
/// `--server` list multiplies the tcp cells, every cell renders the same
/// schema, and only the `server` column tells them apart.
#[test]
fn server_architecture_is_a_sweep_axis() {
    let out = store_bin()
        .args([
            "sweep",
            "--scenarios",
            "kv-net-uniform",
            "--transport",
            "tcp",
            "--server",
            "threads,epoll",
            "--locks",
            "MUTEXEE",
            "--threads",
            "1",
            "--conns",
            "2",
            "--depth",
            "4",
            "--ops",
            "200",
            "--format",
            "jsonl",
        ])
        .output()
        .expect("store sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let cells: Vec<&str> = stdout.lines().collect();
    assert_eq!(cells.len(), 2, "two architectures => two cells: {cells:?}");
    assert_eq!(json_keys(cells[0]), json_keys(cells[1]), "schemas diverge across --server");
    assert_eq!(json_value(cells[0], "server"), "\"threads\"");
    assert_eq!(json_value(cells[1], "server"), "\"epoll\"");
    for cell in &cells {
        assert_eq!(json_value(cell, "transport"), "\"tcp\"");
        assert_eq!(json_value(cell, "ops"), "200");
        assert!(json_value(cell, "throughput").parse::<f64>().unwrap() > 0.0);
    }

    // Local cells ignore the axis: one cell, labeled server=none.
    let out = store_bin()
        .args([
            "sweep",
            "--scenarios",
            "kv-net-uniform",
            "--transport",
            "local",
            "--server",
            "threads,epoll",
            "--locks",
            "MUTEXEE",
            "--threads",
            "1",
            "--ops",
            "200",
            "--format",
            "jsonl",
        ])
        .output()
        .expect("store sweep runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let cells: Vec<&str> = stdout.lines().collect();
    assert_eq!(cells.len(), 1, "local cells must not multiply across --server: {cells:?}");
    assert_eq!(json_value(cells[0], "server"), "\"none\"");
}

/// A tcp cell's loopback server admits every connection the cell's client
/// opens, also past the default cap of 16 per CPU. Epoll only: a threads
/// cell of this size starts one worker per connection.
#[test]
fn a_cell_past_the_default_connection_cap_runs() {
    let par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let conns = 16 * par + 1;
    // Two fds per loopback connection, plus slack; the child inherits the
    // raised limit.
    let want = 2 * conns as u64 + 256;
    let limit = poly_net::epoll::raise_nofile_limit(want).expect("rlimit");
    assert!(limit >= want, "host fd limit {limit} cannot hold {conns} loopback connections");
    let out = store_bin()
        .args([
            "sweep",
            "--scenarios",
            "kv-net-uniform",
            "--transport",
            "tcp",
            "--server",
            "epoll",
            "--locks",
            "MUTEXEE",
            "--threads",
            "1",
            "--conns",
            &conns.to_string(),
            "--depth",
            "4",
            "--ops",
            "200",
            "--format",
            "jsonl",
        ])
        .output()
        .expect("store sweep runs");
    assert!(
        out.status.success(),
        "a cell of {conns} connections exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let cells: Vec<&str> = stdout.lines().collect();
    assert_eq!(cells.len(), 1, "{cells:?}");
    assert_eq!(json_value(cells[0], "ops"), "200");
}

/// A traced tcp cell's collector polls STATS through a session of its own
/// while every driver thread holds one, so the cell's server admits that
/// session's connections too.
#[test]
fn a_traced_cell_admits_the_collectors_connections() {
    let timeline =
        std::env::temp_dir().join(format!("poly-net-e2e-traced-{}.jsonl", std::process::id()));
    let out = store_bin()
        .args([
            "sweep",
            "--scenarios",
            "kv-net-uniform",
            "--transport",
            "tcp",
            "--server",
            "threads,epoll",
            "--locks",
            "MUTEXEE",
            "--threads",
            "1",
            "--conns",
            "2",
            "--ops",
            "20000",
            "--trace-interval",
            "1ms",
            "--timeline",
            timeline.to_str().unwrap(),
            "--format",
            "jsonl",
        ])
        .output()
        .expect("store sweep runs");
    let rows = std::fs::read_to_string(&timeline).unwrap_or_default();
    let _ = std::fs::remove_file(&timeline);
    assert!(
        out.status.success(),
        "a traced cell exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    for server in ["threads", "epoll"] {
        let windows = rows.lines().filter(|r| json_value(r, "server") == format!("\"{server}\""));
        assert!(windows.count() >= 3, "the {server} cell's collector ticked under 3 times");
    }
}

/// `store serve` binds, prints its address, serves real clients, and
/// shuts down cleanly when stdin closes.
#[test]
fn serve_command_serves_until_stdin_eof() {
    let mut child = store_bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--lock",
            "TTAS",
            "--shards",
            "4",
            "--server",
            "epoll",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("store serve spawns");
    let mut addr = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut addr)
        .expect("serve prints its address");

    let client = poly_net::NetClient::connect(addr.trim()).expect("connect to served store");
    let mut session = client.session().unwrap();
    let conn = session.conn_mut();
    assert_eq!(conn.put_bytes(9, b"90").unwrap(), None);
    assert_eq!(conn.get_bytes(9).unwrap().as_deref(), Some(&b"90"[..]));
    let ws = conn.stats().unwrap();
    assert_eq!(ws.lock, poly_store::LockKind::Ttas);
    assert_eq!(ws.shards, 4);
    drop(session);

    // Closing stdin stops the server; the process must exit on its own.
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.flush().ok();
    drop(stdin);
    let status = child.wait().expect("serve exits after stdin EOF");
    assert!(status.success(), "serve exited with {status}");
}

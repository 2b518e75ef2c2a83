//! Simulation study 8: connection scale — how far one shard goes under
//! each driver.
//!
//! The epoll reactor spends two threads *total* for a whole single-shard
//! fleet, however many connections it holds. This experiment measures it
//! two ways:
//!
//! * **gap table** — at a fixed mid-size fleet (64 clients × 1 shard,
//!   short think times so driver overhead, not think time, dominates)
//!   all three drivers run the same seeds: the simulator as the zero-cost
//!   reference, in-process channels, and the reactor over loopback TCP.
//!   Fingerprints are asserted identical; wall-clock columns are recorded,
//!   not gated;
//! * **scale sweep** — reactor-only rows climb to 1024 concurrent clients
//!   against a single shard (≥1k live connections on one listener, every
//!   op judged by the live monitor with zero violations tolerated). Think
//!   windows widen with fleet size so the offered load stays within one
//!   core's service rate; the two largest rows also widen the monitor by
//!   one extra second of slack for dial-stagger and wake-batch queuing —
//!   documented per row, and the verdict still judges every read at the
//!   configured Δ.
//!
//! Process RSS (VmRSS) is sampled after each run as a coarse
//! memory-per-connection indicator (allocator retention makes it an upper
//! bound, not a per-row delta).
//!
//! Outputs a table (written to `results/connection_scale.txt`) and
//! machine-readable `BENCH_connections.json`.
//!
//! Flags: `--smoke` (tiny fleets, no 1k row — the CI bench-rot check),
//! `--out PATH` (JSON path, default `BENCH_connections.json`), `--txt PATH`
//! (table path, default `results/connection_scale.txt`), `--json` (print
//! the table as JSON).

use std::time::Instant;

use tc_bench::{arg_value, f3, flag, fleet_fingerprint, json_flag, Table};
use tc_clocks::Delta;
use tc_core::Value;
use tc_lifetime::{run_with_private_sources, ProtocolConfig, ProtocolKind, RunConfig};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::WorldConfig;
use tc_store::{run_reactor, run_threaded, RuntimeConfig};

/// The private-source base seed shared by all three drivers.
const SEED: u64 = 23;

/// Extra monitor slack (in ticks; 20 000 = 1 s at the 50 µs tick) for the
/// largest fleets, where initial dial waves and per-wake batching queue
/// work behind the standard real-time slack.
const BIG_FLEET_EXTRA_SLACK: u64 = 20_000;

fn workload(think: (u64, u64)) -> Workload {
    Workload::new(
        8,
        0.8,
        0.7,
        (Delta::from_ticks(think.0), Delta::from_ticks(think.1)),
    )
}

fn protocol() -> ProtocolConfig {
    ProtocolConfig::of(ProtocolKind::Tsc {
        delta: Delta::from_ticks(400),
    })
    .with_shards(1)
}

/// Process VmRSS in MiB (0.0 if /proc is unreadable).
fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One row of the study.
struct Cell {
    clients: usize,
    driver: &'static str,
    ops: usize,
    wall_ms: f64,
    ops_per_sec: f64,
    p99_us: Option<f64>,
    staleness: Delta,
    violations: usize,
    connects: u64,
    conns_opened: u64,
    conns_closed: u64,
    rss_mib: f64,
    extra_slack: u64,
    fingerprints: Vec<Vec<(bool, u64, Option<Value>)>>,
}

fn runtime_config(
    clients: usize,
    ops: usize,
    think: (u64, u64),
    extra_slack: u64,
) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::for_protocol(protocol(), clients, workload(think), ops, SEED);
    cfg.monitor_delta = Delta::from_ticks(cfg.monitor_delta.ticks() + extra_slack);
    cfg
}

fn sim_cell(clients: usize, ops: usize, think: (u64, u64)) -> Cell {
    let config = RunConfig {
        protocol: protocol(),
        n_clients: clients,
        workload: workload(think),
        ops_per_client: ops,
        world: WorldConfig::deterministic(Delta::from_ticks(3), SEED),
    };
    let started = Instant::now();
    let r = run_with_private_sources(&config, SEED);
    let wall = started.elapsed();
    Cell {
        clients,
        driver: "sim",
        ops: r.history.len(),
        wall_ms: wall.as_secs_f64() * 1e3,
        ops_per_sec: r.history.len() as f64 / wall.as_secs_f64().max(1e-9),
        p99_us: None,
        staleness: r.observed_staleness,
        violations: r.on_time.violations().len(),
        connects: 0,
        conns_opened: 0,
        conns_closed: 0,
        rss_mib: rss_mib(),
        extra_slack: 0,
        fingerprints: fleet_fingerprint(&r.history, clients),
    }
}

fn real_cell(
    driver: &'static str,
    run: fn(&RuntimeConfig) -> tc_store::RuntimeResult,
    clients: usize,
    ops: usize,
    think: (u64, u64),
    extra_slack: u64,
) -> Cell {
    let r = run(&runtime_config(clients, ops, think, extra_slack));
    Cell {
        clients,
        driver,
        ops: r.ops_done,
        wall_ms: r.wall.as_secs_f64() * 1e3,
        ops_per_sec: r.throughput(),
        p99_us: Some(r.latency.p99_us),
        staleness: r.observed_staleness,
        violations: r.on_time.violations().len(),
        connects: r.counter(names::TCP_CONNECT),
        conns_opened: r.counter(names::REACTOR_CONN_OPENED),
        conns_closed: r.counter(names::REACTOR_CONN_CLOSED),
        rss_mib: rss_mib(),
        extra_slack,
        fingerprints: fleet_fingerprint(&r.history, clients),
    }
}

/// The conformance floor every row must clear before it is tabulated.
fn assert_sound(cell: &Cell, ops_per_client: usize) {
    assert_eq!(
        cell.ops,
        cell.clients * ops_per_client,
        "{} driver lost operations at {} clients",
        cell.driver,
        cell.clients
    );
    assert_eq!(
        cell.violations, 0,
        "{} driver must be monitor-clean at {} clients",
        cell.driver, cell.clients
    );
    if cell.driver == "reactor" {
        assert_eq!(
            cell.connects, cell.clients as u64,
            "every client handshakes exactly once with the single shard"
        );
        assert_eq!(
            cell.conns_opened, cell.conns_closed,
            "reactor registrations must drain to zero at {} clients",
            cell.clients
        );
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let json = json_flag();
    let smoke = flag("smoke");
    let out = arg_value("out").unwrap_or_else(|| "BENCH_connections.json".to_string());
    let txt = arg_value("txt").unwrap_or_else(|| "results/connection_scale.txt".to_string());

    // Gap table: all three drivers at one fleet, think times short enough
    // that driver overhead dominates wall time.
    let (gap_clients, gap_ops) = if smoke { (8, 15) } else { (64, 40) };
    let gap_think = (2, 10);
    // Scale sweep: reactor-only, think widening with fleet size to keep
    // offered load within one core's service rate.
    let sweep: &[(usize, usize, (u64, u64), u64)] = if smoke {
        &[(4, 15, (2, 10), 0), (16, 10, (20, 160), 0)]
    } else {
        &[
            (8, 40, (2, 10), 0),
            (256, 15, (100, 400), BIG_FLEET_EXTRA_SLACK),
            (1024, 8, (400, 1600), BIG_FLEET_EXTRA_SLACK),
        ]
    };

    let mut t = Table::new(
        format!(
            "Connection scale: three drivers at {gap_clients} clients, then the \
             reactor alone climbing to 1k+ connections on one shard (TSC \
             Δ=400, Zipf(0.8) over 8 objects, 70% reads, shared private seeds)"
        ),
        &[
            "clients",
            "driver",
            "ops",
            "wall ms",
            "ops/sec",
            "p99 lat µs",
            "staleness",
            "violations",
            "connects",
            "rss MiB",
        ],
    );
    let mut results = Vec::new();
    let mut push = |t: &mut Table, cell: &Cell| {
        let opt = |v: Option<f64>| v.map_or("-".to_string(), f3);
        t.row(&[
            &cell.clients,
            &cell.driver,
            &cell.ops,
            &f3(cell.wall_ms),
            &format!("{:.0}", cell.ops_per_sec),
            &opt(cell.p99_us),
            &cell.staleness,
            &cell.violations,
            &cell.connects,
            &format!("{:.1}", cell.rss_mib),
        ]);
        results.push(serde_json::json!({
            "clients": (cell.clients),
            "driver": (cell.driver),
            "ops": (cell.ops),
            "wall_ms": (cell.wall_ms),
            "ops_per_sec": (cell.ops_per_sec),
            "p99_latency_us": (cell.p99_us.map_or(serde_json::Value::Null, Into::into)),
            "observed_staleness_ticks": (cell.staleness.ticks()),
            "violations": (cell.violations),
            "connects": (cell.connects),
            "reactor_conns_opened": (cell.conns_opened),
            "reactor_conns_closed": (cell.conns_closed),
            "rss_mib": (cell.rss_mib),
            "extra_monitor_slack_ticks": (cell.extra_slack),
        }));
    };

    // --- Gap table -----------------------------------------------------
    let gap = [
        sim_cell(gap_clients, gap_ops, gap_think),
        real_cell("threaded", run_threaded, gap_clients, gap_ops, gap_think, 0),
        real_cell("reactor", run_reactor, gap_clients, gap_ops, gap_think, 0),
    ];
    for cell in &gap {
        assert_sound(cell, gap_ops);
        assert_eq!(
            cell.fingerprints, gap[0].fingerprints,
            "{} driver diverged from the simulator at {gap_clients} clients",
            cell.driver
        );
        push(&mut t, cell);
    }

    // --- Scale sweep ---------------------------------------------------
    for &(clients, ops, think, extra_slack) in sweep {
        let cell = real_cell("reactor", run_reactor, clients, ops, think, extra_slack);
        assert_sound(&cell, ops);
        push(&mut t, &cell);
    }

    t.emit(json);
    println!(
        "expected shape: all three drivers run identical per-site programs \
         (fingerprints asserted equal) and stay monitor-clean; the reactor \
         completes the 1k-client row with zero violations and connects == \
         clients exactly"
    );

    if let Some(dir) = std::path::Path::new(&txt).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&txt, t.render()).expect("write connection_scale.txt");
    println!("wrote {txt}");

    let doc = serde_json::json!({
        "experiment": "connection_scale",
        "seed": SEED,
        "smoke": smoke,
        "results": results,
    });
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("results serialize"),
    )
    .expect("write BENCH_connections.json");
    println!("wrote {out}");
}

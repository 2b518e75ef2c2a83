//! Transport fault injection: kill a shard's listener mid-run, hold the
//! address down, rebind it — and demand that the protocol rides it out
//! over the evented epoll reactor.
//!
//! The reconnect path is where a transport earns its keep: the engines
//! were designed for lossy delivery (per-request retry timers, causal
//! retransmission, server-side delivery cursors), so a TCP link dying and
//! coming back must look to them like nothing worse than a burst of
//! message loss. Concretely this test asserts, under a listener outage:
//!
//! * every client still completes its full workload — the backoff dialer
//!   reaches the reborn listener, replays the handshake, and the engines'
//!   retry timers re-cover everything lost in flight;
//! * the on-time monitor — with its Δ widened by the outage, since no
//!   Δ-bounded protocol can propagate writes through a dead shard —
//!   reports **zero** violations;
//! * the fault actually happened and was actually healed (listener
//!   restart, failed dials, and reconnect counters are all non-zero);
//! * per-site operation programs are untouched by the fault: the chaos
//!   run's fingerprints equal a fault-free threaded run's on the same
//!   seed.

use std::time::Duration;

use tc_bench::site_fingerprint;
use timed_consistency::clocks::Delta;
use timed_consistency::lifetime::{ProtocolConfig, ProtocolKind};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::store::{
    run_reactor_with, run_threaded, Backoff, ListenerChaos, ReactorConfig, RuntimeConfig,
    RuntimeResult,
};

const SEED: u64 = 77;
const N_CLIENTS: usize = 2;
const OPS: usize = 100;

/// The shared chaos plan: shard 0's listener dies at 20 ms and stays down
/// for ~100 ms — several protocol lifetimes (Δ = 400 ticks · 50 µs =
/// 20 ms) — with fast failure detection so the outage, not the timeout,
/// dominates.
fn chaos_config() -> ReactorConfig {
    let protocol = ProtocolConfig::of(ProtocolKind::Tsc {
        delta: Delta::from_ticks(400),
    })
    .with_shards(2);
    let runtime = RuntimeConfig::for_protocol(
        protocol,
        N_CLIENTS,
        Workload::new(6, 0.8, 0.65, (Delta::from_ticks(3), Delta::from_ticks(12))),
        OPS,
        SEED,
    );

    let mut cfg = ReactorConfig::new(runtime);
    // Heartbeats every 5 ms, a link with 25 ms of inbound silence is dead,
    // redials back off 2..=20 ms.
    cfg.heartbeat = Duration::from_millis(5);
    cfg.read_timeout = Duration::from_millis(25);
    cfg.backoff = Backoff {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(20),
        max_attempts: 60,
    };
    // Kill shard 0 early enough that plenty of workload remains on both
    // sides of the outage, and hold it down for ~100 ms — several protocol
    // lifetimes (Δ = 400 ticks · 50 µs = 20 ms).
    cfg.chaos = Some(ListenerChaos {
        shard: 0,
        kill_after: Duration::from_millis(20),
        down_for: Duration::from_millis(100),
    });
    // A Δ-bounded protocol cannot push writes through a dead shard, so the
    // oracle's bound must absorb the worst-case blackout: detection
    // (read_timeout) + downtime + the last backoff slot + handshake. At a
    // 50 µs tick that is ~3 000 ticks; 10 000 gives slow CI room without
    // blunting the verdict — the monitor still judges every read.
    cfg.runtime.monitor_delta = Delta::from_ticks(cfg.runtime.monitor_delta.ticks() + 10_000);
    cfg
}

/// Everything a chaos run must exhibit.
fn assert_chaos_absorbed(faulted: &RuntimeResult) {
    // The workload survived the outage completely.
    assert_eq!(
        faulted.ops_done,
        N_CLIENTS * OPS,
        "every op must complete despite the listener outage"
    );
    // ... and on time, under the outage-widened Δ.
    assert!(
        faulted.on_time.holds(),
        "monitor violations under chaos: {}",
        faulted.on_time.violations().len()
    );

    // The fault fired and was healed: one listener restart, at least one
    // dial into the dead window, and at least one successful reconnect
    // (both clients' shard-0 links die; each must come back).
    assert_eq!(
        faulted.counter(names::TCP_LISTENER_RESTART),
        1,
        "chaos must kill and rebind exactly one listener"
    );
    assert!(
        faulted.counter(names::TCP_CONNECT_FAILED) > 0,
        "redials during the downtime must fail before the rebind"
    );
    assert!(
        faulted.counter(names::TCP_RECONNECT) >= 1,
        "a killed link must redial successfully after the rebind"
    );
    // Initial handshakes are unaffected by the mid-run fault.
    assert_eq!(faulted.counter(names::TCP_CONNECT), (N_CLIENTS * 2) as u64);
    // Both shards served traffic — shard 0 again after its rebirth.
    assert_eq!(faulted.shard_requests.len(), 2);
    assert!(
        faulted.shard_requests.iter().all(|&n| n > 0),
        "both shards must serve requests: {:?}",
        faulted.shard_requests
    );

    // The fault changes timing, never programs: per-site fingerprints
    // match a fault-free in-process run of the same seed. (The monitor Δ
    // plays no role in what ops a site issues, so reusing the widened
    // runtime config is immaterial here.)
    let clean = run_threaded(&chaos_config().runtime);
    for site in 0..N_CLIENTS {
        assert_eq!(
            site_fingerprint(&faulted.history, site),
            site_fingerprint(&clean.history, site),
            "site {site}: chaos must not alter the operation program"
        );
    }
}

/// The reactor's redial path is a timer-wheel state machine: the outage
/// must show up as restart/reconnect counters, never as a lost op or a
/// changed per-site program. Registrations must also drain to zero even
/// though the outage hard-closed every connection to the dead shard.
#[test]
fn reactor_absorbs_the_same_listener_outage() {
    let faulted = run_reactor_with(&chaos_config());
    assert_chaos_absorbed(&faulted);
    assert_eq!(
        faulted.counter(names::REACTOR_CONN_OPENED),
        faulted.counter(names::REACTOR_CONN_CLOSED),
        "chaos-killed registrations must still drain to zero"
    );
}

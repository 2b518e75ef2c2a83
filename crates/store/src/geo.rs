//! The threaded geo driver: multi-region shard fleets over OS threads,
//! with WAN latency injected by a courier thread.
//!
//! This is the real-concurrency counterpart of
//! [`tc_lifetime::run_geo`]: the *same* sans-io engines — shard
//! ([`tc_lifetime::ServerEngine`] with geo egress), per-region relay
//! ([`GeoRelayEngine`]), client ([`tc_lifetime::engine::ClientEngine`]
//! with optional migration) — run here over crossbeam channels and the
//! [`Instant`]-based tick clock, judged by the same live monitor as every
//! other real-time driver.
//!
//! # Topology
//!
//! Node ids follow [`RegionMap`]: `R·S` shards region-major, then `R`
//! relays, then the clients. One thread per node, plus one **WAN
//! courier**: every message whose endpoints sit in *different* regions is
//! detoured through the courier, which holds it for a deterministic
//! jittered latency drawn from the [`WanProfile`] (scaled by hop
//! distance) before forwarding — same-region traffic stays on direct
//! channels at memory speed. The courier delivers by deadline order, not
//! arrival order, so the WAN is non-FIFO exactly as in the simulator;
//! the geo protocol's cumulative acks and gap buffers tolerate it by
//! design.
//!
//! [`GeoRuntimeConfig::wan_outages`] cuts one region off the WAN for a
//! tick window (messages to or from it drop at the courier) — the
//! threaded rendering of the simulator's region partition; batch
//! retransmission drains the backlog after the heal.
//!
//! # What the threaded driver does *not* model
//!
//! Per-region clock skew ([`WanProfile::skew_step`]) is ignored: every
//! thread reads one shared epoch, so ε stays the tick-rounding bound.
//! Skewed-clock geo runs are a simulator scenario, where the oracle can
//! widen for skew exactly. Monitor widening here is the generous
//! real-time slack ([`crate::MONITOR_SLACK`]) plus the geo terms (egress batch
//! deadline, two WAN traversals); observed staleness is reported exactly
//! as always.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tc_clocks::{Delta, Time};
use tc_lifetime::engine::{ClientEngine, Effect, Event, PrivateSources};
use tc_lifetime::{
    GeoMigrationPlan, GeoRelayEngine, GeoShardConfig, Migration, Msg, ProtocolConfig, PushBatch,
    RegionMap, WanProfile,
};
use tc_sim::workload::Workload;
use tc_sim::{Metrics, NodeId, TraceRecorder};

use crate::jitter::{splitmix64, JitterRng};
use crate::runtime::{
    build_shard_engine, finish_run, step_server, ClientCore, ClientRt, RuntimeConfig,
    RuntimeResult, Shared, TickClock, TimerWheel,
};

/// Configuration of one threaded geo run.
#[derive(Clone, Debug)]
pub struct GeoRuntimeConfig {
    /// The common runtime knobs. `base.protocol.shards` is the *per
    /// region* fleet size and must equal `regions.shards_per_region`;
    /// `base.n_clients` is the total across regions.
    pub base: RuntimeConfig,
    /// Region/shard layout.
    pub regions: RegionMap,
    /// WAN latency profile (skew is ignored here — see the module docs).
    pub wan: WanProfile,
    /// Clients per region; site `i` homes in region
    /// `i / clients_per_region`.
    pub clients_per_region: usize,
    /// Cross-region egress batching (the Δ-aware urgency knob). The
    /// flush deadline must be finite: the monitor bound depends on it.
    pub geo_batch: PushBatch,
    /// Retransmit interval for unacked batches and forwarded applies.
    pub geo_retx_after: Delta,
    /// Scripted client region moves.
    pub migrations: Vec<Migration>,
    /// WAN partitions: region `r` exchanges no cross-region messages
    /// during `[from, until)` ticks. Same-region traffic is unaffected.
    pub wan_outages: Vec<(usize, Time, Time)>,
}

impl GeoRuntimeConfig {
    /// A ready-to-run geo configuration: the threaded defaults of
    /// [`RuntimeConfig::for_protocol`], with the monitor widened by the
    /// geo terms — the egress flush deadline plus two worst-case WAN
    /// traversals (write out, invalidation knowledge back) — on top of
    /// the usual [`crate::MONITOR_SLACK`].
    ///
    /// # Panics
    ///
    /// Panics if the protocol is not in the causal family (geo composes
    /// timed serializations causally — see DESIGN.md §17), if the
    /// per-region shard count disagrees with `regions`, or if the batch
    /// deadline is infinite.
    #[must_use]
    pub fn for_protocol(
        protocol: ProtocolConfig,
        regions: RegionMap,
        wan: WanProfile,
        clients_per_region: usize,
        workload: Workload,
        ops_per_client: usize,
        seed: u64,
    ) -> Self {
        assert!(
            protocol.kind.is_causal_family(),
            "geo replication needs the causal family (Cc/Tcc), got {:?}",
            protocol.kind
        );
        assert_eq!(
            protocol.shards, regions.shards_per_region,
            "protocol.shards is the per-region fleet size"
        );
        assert!(clients_per_region >= 1, "each region needs a client");
        let geo_batch = PushBatch {
            max_entries: 8,
            max_delay: Delta::from_ticks(40),
        };
        let n_clients = regions.regions * clients_per_region;
        let mut base =
            RuntimeConfig::for_protocol(protocol, n_clients, workload, ops_per_client, seed);
        if !base.monitor_delta.is_infinite() {
            let widen = geo_batch.max_delay.ticks() + 2 * wan.max_latency(regions.regions);
            base.monitor_delta = base.monitor_delta + Delta::from_ticks(widen);
        }
        GeoRuntimeConfig {
            base,
            regions,
            wan,
            clients_per_region,
            geo_batch,
            geo_retx_after: Delta::from_ticks(400),
            migrations: Vec::new(),
            wan_outages: Vec::new(),
        }
    }

    /// Widens the monitor's Δ by `extra` ticks — callers injecting WAN
    /// outages account for the blackout plus a retransmit round, exactly
    /// as the simulator oracle does.
    #[must_use]
    pub fn widen_monitor(mut self, extra: u64) -> Self {
        if !self.base.monitor_delta.is_infinite() {
            self.base.monitor_delta = self.base.monitor_delta + Delta::from_ticks(extra);
        }
        self
    }

    fn home_region(&self, site: usize) -> usize {
        site / self.clients_per_region
    }
}

/// Whether a message crossing `(from, to)` rides the WAN: both endpoints
/// are region infrastructure (shard or relay) of *different* regions.
/// Client traffic never does — clients speak LAN to whichever fleet they
/// are attached to, the same mobility abstraction the simulator uses.
fn is_wan(regions: &RegionMap, from: NodeId, to: NodeId) -> bool {
    matches!(
        (regions.region_of(from.index()), regions.region_of(to.index())),
        (Some(a), Some(b)) if a != b
    )
}

/// The courier's inbox: (from, to, message) triples crossing regions.
type WanPacket = (NodeId, NodeId, Msg);

/// Holds each cross-region message for a jittered latency, then forwards
/// it. Messages touching a region inside one of its outage windows (at
/// send time) are dropped — retransmission recovers them after the heal.
#[allow(clippy::too_many_arguments)]
fn wan_courier(
    rx: &Receiver<WanPacket>,
    node_txs: &[Sender<(NodeId, Msg)>],
    regions: &RegionMap,
    wan: &WanProfile,
    outages: &[(usize, Time, Time)],
    clock: TickClock,
    seed: u64,
    done: &AtomicBool,
) {
    let mut rng = JitterRng::new(splitmix64(seed ^ 0x47454F)); // "GEO"
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut payloads: HashMap<u64, (NodeId, NodeId, Msg)> = HashMap::new();
    let mut seq: u64 = 0;
    let cut = |region: Option<usize>, now: Time| {
        region.is_some_and(|r| {
            outages
                .iter()
                .any(|(o, from, until)| *o == r && *from <= now && now < *until)
        })
    };
    loop {
        for token in wheel.pop_due(Instant::now()) {
            if let Some((from, to, msg)) = payloads.remove(&token) {
                let _ = node_txs[to.index()].send((from, msg));
            }
        }
        if done.load(Ordering::Acquire) && payloads.is_empty() {
            break;
        }
        let wait = wheel
            .next_deadline()
            .map_or(Duration::from_millis(5), |d| {
                d.saturating_duration_since(Instant::now())
            })
            .min(Duration::from_millis(5));
        if wait.is_zero() {
            continue; // a delivery came due while draining
        }
        match rx.recv_timeout(wait) {
            Ok((from, to, msg)) => {
                let now = clock.now();
                if cut(regions.region_of(from.index()), now)
                    || cut(regions.region_of(to.index()), now)
                {
                    continue; // partitioned: the WAN eats it
                }
                let hops = WanProfile::distance(
                    regions
                        .region_of(from.index())
                        .expect("wan sender has a region"),
                    regions
                        .region_of(to.index())
                        .expect("wan receiver has a region"),
                )
                .max(1);
                let ticks = rng.range(wan.lat_lo * hops, wan.lat_hi * hops);
                let delay = clock
                    .delta_to_duration(Delta::from_ticks(ticks.max(1)))
                    .expect("finite WAN latency");
                seq += 1;
                wheel.arm(Instant::now() + delay, seq);
                payloads.insert(seq, (from, to, msg));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                if payloads.is_empty() {
                    break;
                }
            }
        }
    }
}

/// One geo shard or relay thread: drains its inbox and timer wheel until
/// the run is over, routing effects through `send`. Unlike the plain
/// threaded driver, geo infrastructure cannot exit on channel disconnect
/// — shards and relays hold senders to each other — so the loop watches
/// the shared `done` flag instead.
fn geo_node_loop(
    mut handle: impl FnMut(Event, &mut Vec<Effect>),
    clock: TickClock,
    inbox: &Receiver<(NodeId, Msg)>,
    send: &mut dyn FnMut(NodeId, Msg),
    shared: &Shared,
    done: &AtomicBool,
) {
    const DRAIN_BATCH: usize = 128;
    let mut timers: TimerWheel<u64> = TimerWheel::new();
    let mut events: Vec<Event> = Vec::new();
    let mut out: Vec<Effect> = Vec::new();
    loop {
        events.clear();
        events.extend(
            timers
                .pop_due(Instant::now())
                .into_iter()
                .map(|token| Event::Timer { token }),
        );
        if events.is_empty() {
            if done.load(Ordering::Acquire) {
                break;
            }
            // Block towards the next deadline, capped so the done flag is
            // revisited promptly (the channels never disconnect mid-run).
            let wait = timers
                .next_deadline()
                .map_or(Duration::from_millis(5), |d| {
                    d.saturating_duration_since(Instant::now())
                })
                .min(Duration::from_millis(5));
            if wait.is_zero() {
                continue;
            }
            match inbox.recv_timeout(wait) {
                Ok((from, msg)) => events.push(Event::Message { from, msg }),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while events.len() < DRAIN_BATCH {
            match inbox.try_recv() {
                Ok((from, msg)) => events.push(Event::Message { from, msg }),
                Err(_) => break,
            }
        }
        for event in events.drain(..) {
            out.clear();
            handle(event, &mut out);
            for effect in out.drain(..) {
                match effect {
                    Effect::Send { to, msg } => send(to, msg),
                    Effect::SetTimer { after, token } => {
                        if let Some(d) = clock.delta_to_duration(after) {
                            timers.arm(Instant::now() + d, token);
                        }
                    }
                    Effect::Metric { name, add } => shared.add_metric(name, add),
                    Effect::Record(_) => unreachable!("geo infrastructure records nothing"),
                }
            }
        }
    }
}

/// Runs one threaded geo execution to completion and judges it with the
/// live monitor.
///
/// # Panics
///
/// Panics if a worker thread panics, the configuration is inconsistent
/// (see [`GeoRuntimeConfig::for_protocol`]), or the recorded trace
/// violates a history invariant.
#[must_use]
pub fn run_threaded_geo(config: &GeoRuntimeConfig) -> RuntimeResult {
    let regions = config.regions;
    let n_regions = regions.regions;
    let shards_per_region = regions.shards_per_region;
    let n_clients = n_regions * config.clients_per_region;
    assert_eq!(
        config.base.n_clients, n_clients,
        "base.n_clients must equal regions × clients_per_region"
    );
    assert!(
        !config.geo_batch.max_delay.is_infinite() || config.base.monitor_delta.is_infinite(),
        "a finite monitor bound needs a finite egress flush deadline"
    );
    for m in &config.migrations {
        assert!(m.client < n_clients && m.to_region < n_regions);
        assert!(m.at_op < config.base.ops_per_client);
    }

    let clock = TickClock::new(config.base.tick);
    let mut recorder = TraceRecorder::new();
    recorder.attach_monitor(config.base.monitor_delta, config.base.monitor_eps);
    let shared = Shared {
        recorder: Mutex::new(recorder),
        metrics: Mutex::new(Metrics::new()),
    };

    // One inbox per node, id-indexed: R·S shards, R relays, clients.
    let total_nodes = regions.client_base() + n_clients;
    let mut node_txs = Vec::with_capacity(total_nodes);
    let mut node_rxs = Vec::with_capacity(total_nodes);
    for _ in 0..total_nodes {
        let (tx, rx) = unbounded::<(NodeId, Msg)>();
        node_txs.push(tx);
        node_rxs.push(Some(rx));
    }
    let (wan_tx, wan_rx) = unbounded::<WanPacket>();

    let started = Instant::now();
    let shared_ref = &shared;
    let node_txs_ref = &node_txs[..];
    let done = AtomicBool::new(false);
    let done_ref = &done;
    let cfg = config;
    let (latencies, shard_requests): (Vec<Duration>, Vec<u64>) =
        crossbeam::thread::scope(|scope| {
            // WAN courier.
            {
                let rx = wan_rx;
                scope.spawn(move |_| {
                    wan_courier(
                        &rx,
                        node_txs_ref,
                        &cfg.regions,
                        &cfg.wan,
                        &cfg.wan_outages,
                        clock,
                        cfg.base.seed,
                        done_ref,
                    );
                });
            }
            // Shard fleets, region-major.
            let mut shard_workers = Vec::with_capacity(n_regions * shards_per_region);
            for region in 0..n_regions {
                for shard in 0..shards_per_region {
                    let node = regions.shard_node(region, shard);
                    let geo = GeoShardConfig {
                        region: region as u32,
                        local_relay: NodeId::new(regions.relay_node(region)),
                        peer_relays: (0..n_regions)
                            .filter(|r| *r != region)
                            .map(|r| NodeId::new(regions.relay_node(r)))
                            .collect(),
                        client_base: regions.client_base(),
                        batch: cfg.geo_batch,
                        retx_after: cfg.geo_retx_after,
                    };
                    let mut engine =
                        build_shard_engine(cfg.base.protocol, cfg.base.wal_dir.as_deref(), node)
                            .with_geo(geo);
                    let inbox = node_rxs[node].take().expect("receiver taken once");
                    let wan_tx = wan_tx.clone();
                    shard_workers.push(scope.spawn(move |_| {
                        let me = NodeId::new(node);
                        let mut send = |to: NodeId, msg: Msg| {
                            if is_wan(&cfg.regions, me, to) {
                                let _ = wan_tx.send((me, to, msg));
                            } else {
                                let _ = node_txs_ref[to.index()].send((me, msg));
                            }
                        };
                        geo_node_loop(
                            |event, out| step_server(&mut engine, &clock, me, event, out),
                            clock,
                            &inbox,
                            &mut send,
                            shared_ref,
                            done_ref,
                        );
                        engine.requests_served()
                    }));
                }
            }
            // Relays.
            for region in 0..n_regions {
                let node = regions.relay_node(region);
                let mut engine = GeoRelayEngine::new(
                    regions
                        .region_shards(region)
                        .into_iter()
                        .map(NodeId::new)
                        .collect(),
                    n_clients,
                    cfg.geo_retx_after,
                );
                let inbox = node_rxs[node].take().expect("receiver taken once");
                let wan_tx = wan_tx.clone();
                scope.spawn(move |_| {
                    let me = NodeId::new(node);
                    let mut send = |to: NodeId, msg: Msg| {
                        if is_wan(&cfg.regions, me, to) {
                            let _ = wan_tx.send((me, to, msg));
                        } else {
                            let _ = node_txs_ref[to.index()].send((me, msg));
                        }
                    };
                    geo_node_loop(
                        |event, out| engine.handle(event, out),
                        clock,
                        &inbox,
                        &mut send,
                        shared_ref,
                        done_ref,
                    );
                });
            }
            // The courier's original sender: drop it so the courier can
            // notice disconnect once every shard and relay exits.
            drop(wan_tx);
            // Clients, attached to their home fleet.
            let mut workers = Vec::with_capacity(n_clients);
            for site in 0..n_clients {
                let home = cfg.home_region(site);
                let mut engine = ClientEngine::new(
                    cfg.base.protocol,
                    regions
                        .region_shards(home)
                        .into_iter()
                        .map(NodeId::new)
                        .collect(),
                    site,
                    n_clients,
                    cfg.base.workload.clone(),
                    cfg.base.ops_per_client,
                );
                for m in cfg.migrations.iter().filter(|m| m.client == site) {
                    engine = engine.with_migration(GeoMigrationPlan {
                        at_op: m.at_op,
                        relay: NodeId::new(regions.relay_node(m.to_region)),
                        servers: regions
                            .region_shards(m.to_region)
                            .into_iter()
                            .map(NodeId::new)
                            .collect(),
                    });
                }
                let node = regions.client_base() + site;
                let rt = ClientRt {
                    core: ClientCore::new(
                        engine,
                        PrivateSources::new(cfg.base.seed, site, n_clients),
                        clock,
                        NodeId::new(node),
                    ),
                    senders: node_txs_ref.to_vec(),
                    shared: shared_ref,
                    timers: TimerWheel::new(),
                };
                let inbox = node_rxs[node].take().expect("receiver taken once");
                workers.push(scope.spawn(move |_| rt.run(&inbox)));
            }
            let latencies = workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect();
            // Clients are done; release the infrastructure threads. Geo
            // propagation still in flight stops with them — every
            // recorded operation has already completed.
            done.store(true, Ordering::Release);
            let shard_requests = shard_workers
                .into_iter()
                .map(|w| w.join().expect("shard thread panicked"))
                .collect();
            (latencies, shard_requests)
        })
        .expect("a geo runtime thread panicked");
    let wall = started.elapsed();
    finish_run(shared, latencies, shard_requests, wall, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_lifetime::{ProtocolKind, StalePolicy};
    use tc_sim::metrics::names;

    fn geo_config(seed: u64) -> GeoRuntimeConfig {
        let mut protocol = ProtocolConfig::of(ProtocolKind::Tcc {
            delta: Delta::from_ticks(400),
        })
        .with_shards(2);
        protocol.stale = StalePolicy::Invalidate;
        GeoRuntimeConfig::for_protocol(
            protocol,
            RegionMap::new(3, 2),
            WanProfile::symmetric(20, 60),
            2,
            Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
            30,
            seed,
        )
    }

    #[test]
    fn threaded_geo_three_regions_completes_and_holds() {
        let cfg = geo_config(51);
        let r = run_threaded_geo(&cfg);
        assert_eq!(r.ops_done, 6 * 30, "every op must be recorded");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert!(r.counter(names::GEO_BATCH) > 0, "egress must batch");
        assert!(
            r.counter(names::GEO_APPLIED) > 0,
            "remote writes must reach peer regions"
        );
        assert_eq!(r.shard_requests.len(), 6, "one row per (region, shard)");
        assert!(r.shard_requests.iter().sum::<u64>() > 0);
    }

    #[test]
    fn threaded_geo_migration_carries_context() {
        let mut cfg = geo_config(53);
        cfg.migrations = vec![Migration {
            client: 0,
            at_op: 10,
            to_region: 2,
        }];
        let r = run_threaded_geo(&cfg);
        assert_eq!(r.ops_done, 6 * 30);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert_eq!(
            r.counter(names::GEO_MIGRATED),
            1,
            "the scripted move must complete"
        );
    }

    #[test]
    fn threaded_geo_wan_partition_heals_via_retransmission() {
        let mut cfg = geo_config(57);
        cfg.base.ops_per_client = 150;
        // Region 2 off the WAN during [500, 2500) ticks (25–125 ms at the
        // 50 µs tick): long enough that batches are lost mid-run, short
        // against the run length so the backlog fully drains after the
        // heal. The monitor is widened by the blackout plus a retransmit
        // round, exactly as the simulator oracle widens for disruption.
        cfg.wan_outages = vec![(2, Time::from_ticks(500), Time::from_ticks(2_500))];
        let retx = cfg.geo_retx_after.ticks();
        cfg = cfg.widen_monitor(2_000 + 2 * retx);
        let r = run_threaded_geo(&cfg);
        assert_eq!(r.ops_done, 6 * 150, "partition must not lose operations");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert!(
            r.counter(names::GEO_BATCH_RETRANSMIT) > 0,
            "the blackout must force batch retransmissions"
        );
        assert!(r.counter(names::GEO_APPLIED) > 0);
    }
}

//! The traced pass: per-layer metrics.
//!
//! Counts come from the untraced driver iterations that ran first (their
//! protocol counters, `/proc/self/io` deltas and allocation counts). Times
//! come from calls into each layer's public functions, timed here:
//!
//! * a lockstep loop that steps the workload's fleet — `ClientEngine`,
//!   `ServerEngine` over a timed `ShardStore` wrapper, and for the geo
//!   workload `GeoRelayEngine` — in virtual time on one thread, recording
//!   through a `TraceRecorder` with an attached monitor, and capturing
//!   every message it sends;
//! * the captured messages replayed through `encode_frame_into`,
//!   `decode_frame` and `crc32`;
//! * the batch checkers and a fresh `OnTimeMonitor` over the last driver
//!   iteration's history.
//!
//! Every timed call is a span (see [`crate::spans`]); the spans are
//! written out as a Chrome/Perfetto trace.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::{json, Value as Json};
use tc_clocks::{Delta, Epsilon, Time};
use tc_core::checker::{check_on_time, min_delta_eps, satisfies_ccv, OnTimeMonitor};
use tc_core::{History, ObjectId, Value};
use tc_durable::{WalStore, DEFAULT_SNAPSHOT_EVERY};
use tc_lifetime::engine::{ClientEngine, Effect, Event, Now, PrivateSources, RecordOp};
use tc_lifetime::store::{Recovery, ShardStore, StoredVersion, WalRecord};
use tc_lifetime::{GeoRelayEngine, GeoShardConfig, Msg, ServerEngine};
use tc_sim::metrics::names;
use tc_sim::{NodeId, TraceRecorder};
use tc_wire::{crc32, decode_frame, encode_frame_into, WireMsg, HEADER_LEN};

use crate::host::Host;
use crate::procfs::{self, Usage};
use crate::spans::{self, SpanLog};
use crate::workloads::{iteration_seed, Driver, Sample, Shape, Spec, DELTA_TICKS};
use crate::{Metric, Metrics, Run};

/// Messages kept for the wire replay.
const CAPTURE_CAP: usize = 20_000;

/// Spans kept for the exported timeline.
const SPAN_CAP: usize = 50_000;

thread_local! {
    /// Thread CPU spent inside `durable.sync` spans: an fsync's wall time
    /// is mostly waiting for the disk, which is not stage CPU.
    static SYNC_CPU_NS: Cell<u64> = const { Cell::new(0) };
}

/// A [`ShardStore`] that times `apply` and `sync` of the store it wraps.
struct TimedStore(Box<dyn ShardStore>);

impl ShardStore for TimedStore {
    fn durable_version(&self, object: ObjectId) -> StoredVersion {
        self.0.durable_version(object)
    }

    fn last_alpha(&self) -> Time {
        self.0.last_alpha()
    }

    fn physical_alpha(&self, value: Value) -> Option<Time> {
        self.0.physical_alpha(value)
    }

    fn causal_cursor(&self, writer: usize) -> u64 {
        self.0.causal_cursor(writer)
    }

    fn apply(&mut self, record: &WalRecord) -> bool {
        spans::span("durable.apply", || self.0.apply(record))
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }

    fn sync(&mut self) {
        let cpu = procfs::thread_cpu_ns();
        spans::span("durable.sync", || self.0.sync());
        let used = procfs::thread_cpu_ns().saturating_sub(cpu);
        SYNC_CPU_NS.with(|c| c.set(c.get() + used));
    }

    fn restart(&mut self) -> Recovery {
        self.0.restart()
    }

    fn writes_applied(&self) -> u64 {
        self.0.writes_applied()
    }

    fn records(&self) -> u64 {
        self.0.records()
    }
}

enum Node {
    Client(Box<ClientEngine>, PrivateSources),
    Server(Box<ServerEngine>),
    Relay(Box<GeoRelayEngine>),
}

/// An event due at a virtual tick; ties go in scheduling order.
struct Pending {
    at: u64,
    seq: u64,
    node: usize,
    event: Event,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    // Reversed: `BinaryHeap` is a max-heap and the earliest event goes first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One lockstep execution of the workload's fleet.
struct Lockstep {
    nodes: Vec<Node>,
    queue: BinaryHeap<Pending>,
    seq: u64,
    recorder: TraceRecorder,
    /// Message latency in ticks, by (from, to).
    latency: Box<dyn Fn(usize, usize, u64) -> u64>,
    captured: Vec<Msg>,
    sends: u64,
}

impl Lockstep {
    fn schedule(&mut self, at: u64, node: usize, event: Event) {
        self.seq += 1;
        self.queue.push(Pending {
            at,
            seq: self.seq,
            node,
            event,
        });
    }

    /// Steps every event in time order until every client is done and
    /// idle, or `budget` events have run. Returns the ops completed.
    fn run(&mut self, budget: u64) -> u64 {
        let mut out: Vec<Effect> = Vec::new();
        let mut steps = 0u64;
        while let Some(Pending {
            at, node, event, ..
        }) = self.queue.pop()
        {
            steps += 1;
            if steps > budget || self.clients_done() {
                break;
            }
            let now = Now {
                me: NodeId::new(node),
                local: Time::from_ticks(at),
                truth: Time::from_ticks(at),
            };
            spans::enter("lockstep.step");
            out.clear();
            match &mut self.nodes[node] {
                Node::Client(engine, io) => spans::span("engine.client_handle", || {
                    engine.handle(Event::Now(now), io, &mut out);
                    engine.handle(event, io, &mut out);
                }),
                Node::Server(engine) => spans::span("engine.server_handle", || {
                    engine.handle(Event::Now(now), &mut out);
                    engine.handle(event, &mut out);
                }),
                Node::Relay(engine) => spans::span("engine.relay_handle", || {
                    engine.handle(Event::Now(now), &mut out);
                    engine.handle(event, &mut out);
                }),
            }
            for effect in out.drain(..) {
                match effect {
                    Effect::Send { to, msg } => {
                        self.sends += 1;
                        if self.captured.len() < CAPTURE_CAP {
                            self.captured.push(msg.clone());
                        }
                        let lat = (self.latency)(node, to.index(), self.seq);
                        self.schedule(
                            at + lat,
                            to.index(),
                            Event::Message {
                                from: NodeId::new(node),
                                msg,
                            },
                        );
                    }
                    Effect::SetTimer { after, token } => {
                        // Infinite means never; zero rounds up to one tick,
                        // as in the real-time drivers.
                        if !after.is_infinite() {
                            self.schedule(at + after.ticks().max(1), node, Event::Timer { token });
                        }
                    }
                    Effect::Record(op) => {
                        spans::span("recorder.record", || record(&mut self.recorder, op))
                    }
                    Effect::Metric { .. } => {}
                }
            }
            spans::exit();
        }
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Client(engine, _) => engine.ops_done() as u64,
                _ => 0,
            })
            .sum()
    }

    fn clients_done(&self) -> bool {
        self.nodes.iter().all(|n| match n {
            Node::Client(engine, _) => engine.finished() && engine.is_idle(),
            _ => true,
        })
    }
}

fn record(recorder: &mut TraceRecorder, op: RecordOp) {
    match op {
        RecordOp::Write {
            site,
            object,
            value,
            at,
            logical: Some(l),
        } => recorder.record_write_stamped(site, object, value, at, l),
        RecordOp::Write {
            site,
            object,
            value,
            at,
            logical: None,
        } => recorder.record_write(site, object, value, at),
        RecordOp::Read {
            site,
            object,
            value,
            at,
            logical: Some(l),
        } => recorder.record_read_stamped(site, object, value, at, l),
        RecordOp::Read {
            site,
            object,
            value,
            at,
            logical: None,
        } => recorder.record_read(site, object, value, at),
    }
}

/// Builds the workload's fleet for one lockstep execution. WAL shards
/// live under `wal_dir`.
fn build(spec: &Spec, seed: u64, monitor: (Delta, Epsilon), wal_dir: &Path) -> Lockstep {
    let protocol = spec.protocol();
    let store = |shard: usize| -> Box<dyn ShardStore> {
        let inner: Box<dyn ShardStore> = if protocol.durability.is_durable() {
            Box::new(WalStore::open(
                wal_dir.join(format!("shard-{shard}")),
                shard as u16,
                DEFAULT_SNAPSHOT_EVERY,
            ))
        } else {
            Box::new(tc_lifetime::MemStore::new())
        };
        Box::new(TimedStore(inner))
    };
    let mut recorder = TraceRecorder::new();
    recorder.attach_monitor(monitor.0, monitor.1);
    let clients = spec.clients();
    let client = |site: usize, servers: Vec<NodeId>| {
        Node::Client(
            Box::new(ClientEngine::new(
                protocol,
                servers,
                site,
                clients,
                spec.workload().clone(),
                spec.ops_per_client(),
            )),
            PrivateSources::new(seed, site, clients),
        )
    };
    let mut nodes = Vec::new();
    let latency: Box<dyn Fn(usize, usize, u64) -> u64> = match &spec.shape {
        // In-process and loopback hops take microseconds: under a tick.
        Shape::Real(_) => {
            let shards = protocol.shards;
            nodes.extend(
                (0..shards)
                    .map(|s| Node::Server(Box::new(ServerEngine::with_store(protocol, store(s))))),
            );
            nodes.extend(
                (0..clients).map(|site| client(site, (0..shards).map(NodeId::new).collect())),
            );
            Box::new(|_, _, _| 0)
        }
        Shape::Geo(config) => {
            let map = config.regions;
            for region in 0..map.regions {
                for shard in 0..map.shards_per_region {
                    let geo = GeoShardConfig {
                        region: region as u32,
                        local_relay: NodeId::new(map.relay_node(region)),
                        peer_relays: (0..map.regions)
                            .filter(|&r| r != region)
                            .map(|r| NodeId::new(map.relay_node(r)))
                            .collect(),
                        client_base: map.client_base(),
                        batch: config.geo_batch,
                        retx_after: config.geo_retx_after,
                    };
                    let id = map.shard_node(region, shard);
                    nodes.push(Node::Server(Box::new(
                        ServerEngine::with_store(protocol, store(id)).with_geo(geo),
                    )));
                }
            }
            for region in 0..map.regions {
                let fleet = map
                    .region_shards(region)
                    .into_iter()
                    .map(NodeId::new)
                    .collect();
                nodes.push(Node::Relay(Box::new(GeoRelayEngine::new(
                    fleet,
                    clients,
                    config.geo_retx_after,
                ))));
            }
            for site in 0..clients {
                let home = config.home_region(site);
                nodes.push(client(
                    site,
                    map.region_shards(home)
                        .into_iter()
                        .map(NodeId::new)
                        .collect(),
                ));
            }
            // Shard ↔ peer-relay links cross the WAN; everything else is
            // the simulator's local hop.
            let (lo, hi) = (config.wan.lat_lo, config.wan.lat_hi);
            let local = config
                .world
                .net
                .latency
                .upper_bound()
                .map_or(2, Delta::ticks);
            Box::new(
                move |from, to, seq| match (map.region_of(from), map.region_of(to)) {
                    (Some(a), Some(b)) if a != b => lo + iteration_seed(seed, seq) % (hi - lo + 1),
                    _ => local,
                },
            )
        }
    };
    let mut lock = Lockstep {
        nodes,
        queue: BinaryHeap::new(),
        seq: 0,
        recorder,
        latency,
        captured: Vec::new(),
        sends: 0,
    };
    let first_client = lock.nodes.len() - clients;
    for node in first_client..lock.nodes.len() {
        lock.schedule(0, node, Event::Start);
    }
    lock
}

/// Totals over the untraced driver iterations.
#[derive(Default)]
struct Counts {
    ops: u64,
    reads: u64,
    writes: u64,
    usage: Usage,
    allocs: u64,
    alloc_bytes: u64,
    counters: BTreeMap<String, u64>,
}

impl Counts {
    fn of<'a>(samples: impl Iterator<Item = &'a Sample>) -> Counts {
        let mut c = Counts::default();
        for s in samples {
            c.ops += s.ops;
            c.reads += s.reads;
            c.writes += s.writes;
            let (u, t) = (&mut c.usage, &s.usage);
            u.cpu += t.cpu;
            u.user += t.user;
            u.sys += t.sys;
            u.io.wchar += t.io.wchar;
            u.io.syscr += t.io.syscr;
            u.io.syscw += t.io.syscw;
            u.tcp_out_segs += t.tcp_out_segs;
            c.allocs += s.allocs.allocs;
            c.alloc_bytes += s.allocs.bytes;
            for (k, v) in &s.counters {
                *c.counters.entry(k.clone()).or_default() += v;
            }
        }
        c
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean ns per `name` span (inclusive of children when `inclusive`).
fn per_call(log: &SpanLog, name: &str, inclusive: bool) -> f64 {
    let t = log.totals(name);
    let ns = if inclusive { t.total_ns } else { t.self_ns };
    ratio(ns as f64, t.count as f64)
}

/// Times `f` over `items` in rounds until `min_time` has passed, one span
/// per round; returns mean ns per item.
fn timed_rounds<T>(
    name: &'static str,
    items: &[T],
    min_time: Duration,
    mut f: impl FnMut(&T),
) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let (mut ns, mut n) = (0u64, 0u64);
    while n == 0 || started.elapsed() < min_time {
        spans::enter(name);
        let t = Instant::now();
        for item in items {
            f(item);
        }
        ns += t.elapsed().as_nanos() as u64;
        spans::exit();
        n += items.len() as u64;
    }
    ns as f64 / n as f64
}

/// Runs the traced pass for the share of the run budget the untraced
/// iterations left, and derives the per-layer metrics. Writes the spans
/// to `<out>/<workload>-seed<seed>.trace.json`. The last value names a
/// failed check of the traced pass itself: a lockstep execution that left
/// ops unfinished, or a frame that did not decode to the message encoded.
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    run: &Run,
    host: &Host,
    out: &Path,
    budget: Duration,
) -> (Metrics, Json, Option<String>) {
    let counts = Counts::of(run.timed_samples());
    let mut broken = None;
    let started = Instant::now();
    spans::install(SpanLog::new(SPAN_CAP));
    SYNC_CPU_NS.with(|c| c.set(0));
    let monitor = run
        .timed_samples()
        .last()
        .map(|s| s.monitor)
        .unwrap_or_default();

    // Lockstep executions of the fleet, at least one.
    let wal_root: PathBuf = out.join(format!("wal-{}-traced", std::process::id()));
    let (mut lock_ops, mut sends, mut captured, mut executions) = (0u64, 0u64, Vec::new(), 0u32);
    while executions == 0 || started.elapsed() < budget * 3 / 4 {
        let dir = wal_root.join(format!("exec-{executions}"));
        let mut lock = build(spec, seed, monitor, &dir);
        let budget_events = 2_000 * (spec.clients() * spec.ops_per_client()) as u64;
        let done = lock.run(budget_events);
        let want = (spec.clients() * spec.ops_per_client()) as u64;
        if done < want {
            broken.get_or_insert(format!(
                "a lockstep execution completed {done} of {want} ops"
            ));
        }
        lock_ops += done;
        sends += lock.sends;
        if captured.is_empty() {
            captured = std::mem::take(&mut lock.captured);
        }
        drop(lock);
        let _ = std::fs::remove_dir_all(&dir);
        executions += 1;
    }
    let _ = std::fs::remove_dir_all(&wal_root);

    // Wire: the captured message mix through the codec.
    let frames: Vec<WireMsg> = captured.into_iter().map(WireMsg::Proto).collect();
    let mut buf = Vec::new();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|m| {
            buf.clear();
            encode_frame_into(&mut buf, 0, m);
            buf.clone()
        })
        .collect();
    if encoded
        .iter()
        .zip(&frames)
        .any(|(bytes, msg)| !matches!(decode_frame(bytes), Ok((0, m, n)) if m == *msg && n == bytes.len()))
    {
        broken.get_or_insert("a captured message did not survive encode and decode".into());
    }
    let slice = Duration::from_millis(100);
    let encode_ns = timed_rounds("wire.encode", &frames, slice, |m| {
        buf.clear();
        encode_frame_into(&mut buf, 0, black_box(m));
        black_box(&buf);
    });
    let decode_ns = timed_rounds("wire.decode", &encoded, slice, |f| {
        black_box(decode_frame(black_box(f)).is_ok());
    });
    let crc_ns = timed_rounds("wire.crc", &encoded, slice, |f| {
        black_box(crc32(black_box(&f[HEADER_LEN..])));
    });
    let frame_bytes = ratio(
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
        encoded.len() as f64,
    );

    // Checkers and the monitor on the last driver iteration's history.
    let (delta, eps) = monitor;
    let causal = spec.protocol().kind.is_causal_family();
    let judge = |h: &History| {
        let n = h.len().max(1) as f64;
        let time = |name: &'static str, f: &dyn Fn()| {
            spans::enter(name);
            let t = Instant::now();
            f();
            let ns = t.elapsed().as_nanos() as f64;
            spans::exit();
            ns / n
        };
        let min_delta = time("checker.min_delta", &|| {
            black_box(min_delta_eps(h, eps));
        });
        let on_time = time("checker.on_time", &|| {
            black_box(check_on_time(h, delta, eps));
        });
        let ccv = if causal {
            time("checker.ccv", &|| {
                black_box(satisfies_ccv(h));
            })
        } else {
            0.0
        };
        let ingest = time("monitor.ingest", &|| {
            let mut m = OnTimeMonitor::new(delta, eps);
            m.ingest_history(h);
            black_box(m.min_delta());
        });
        let late = check_on_time(h, Delta::from_ticks(DELTA_TICKS), eps)
            .violations()
            .len();
        (min_delta, on_time, ccv, ingest, late as f64)
    };
    let (min_delta_ns, on_time_ns, ccv_ns, ingest_ns, late_reads) = run
        .last_history
        .as_ref()
        .map_or((0.0, 0.0, 0.0, 0.0, 0.0), judge);

    let log = spans::uninstall().expect("installed above");
    let lops = lock_ops.max(1) as f64;
    let self_per_op = |name: &str| log.totals(name).self_ns as f64 / lops;
    let frames_per_op = sends as f64 / lops;
    let is_reactor = matches!(&spec.shape, Shape::Real(s) if s.driver == Driver::Reactor);
    // Stage CPU of one op: engine steps, store calls, recording, and on
    // the socket driver the frame encode and decode each message costs.
    let stage_ns_per_op = self_per_op("engine.client_handle")
        + self_per_op("engine.server_handle")
        + self_per_op("engine.relay_handle")
        + self_per_op("durable.apply")
        + SYNC_CPU_NS.with(Cell::get) as f64 / lops
        + self_per_op("recorder.record")
        + if is_reactor {
            (encode_ns + decode_ns) * frames_per_op
        } else {
            0.0
        };
    let stage_us = stage_ns_per_op / 1e3;
    let cpu_us_per_op = ratio(counts.usage.cpu.as_secs_f64() * 1e6, counts.ops as f64);
    let ops = counts.ops as f64;
    let c = |name: &str| counts.counter(name) as f64;
    let steps = [
        "engine.client_handle",
        "engine.server_handle",
        "engine.relay_handle",
    ]
    .iter()
    .map(|n| log.totals(n).count)
    .sum::<u64>() as f64;

    let m = |value: f64, unit: &'static str| Metric { value, unit };
    let metrics: Metrics = vec![
        (
            "engine.client_handle_ns",
            m(per_call(&log, "engine.client_handle", true), "ns"),
        ),
        (
            "engine.server_handle_ns",
            m(per_call(&log, "engine.server_handle", false), "ns"),
        ),
        (
            "engine.relay_handle_ns",
            m(per_call(&log, "engine.relay_handle", true), "ns"),
        ),
        ("engine.handle_calls_per_op", m(steps / lops, "calls/op")),
        (
            "engine.cache_hit_ratio",
            m(ratio(c(names::CACHE_HIT), counts.reads as f64), "ratio"),
        ),
        (
            "engine.round_trips_per_op",
            m(
                ratio(
                    c(names::SERVER_FETCH) + c(names::SERVER_VALIDATE) + c(names::SERVER_WRITE),
                    ops,
                ),
                "requests/op",
            ),
        ),
        (
            "engine.causal_retransmit_per_write",
            m(
                ratio(c(names::CAUSAL_RETRANSMIT), counts.writes as f64),
                "ratio",
            ),
        ),
        (
            "engine.write_dup_ratio",
            m(
                ratio(c(names::SERVER_WRITE_DUP), c(names::SERVER_WRITE)),
                "ratio",
            ),
        ),
        ("wire.encode_ns", m(encode_ns, "ns")),
        ("wire.decode_ns", m(decode_ns, "ns")),
        ("wire.crc_ns", m(crc_ns, "ns")),
        ("wire.frame_bytes", m(frame_bytes, "B")),
        ("wire.frames_per_op", m(frames_per_op, "frames/op")),
        (
            "driver.read_syscalls_per_op",
            m(ratio(counts.usage.io.syscr as f64, ops), "syscalls/op"),
        ),
        (
            "driver.write_syscalls_per_op",
            m(ratio(counts.usage.io.syscw as f64, ops), "syscalls/op"),
        ),
        (
            "driver.bytes_written_per_op",
            m(ratio(counts.usage.io.wchar as f64, ops), "B/op"),
        ),
        (
            "driver.tcp_segments_per_op",
            m(ratio(counts.usage.tcp_out_segs as f64, ops), "segments/op"),
        ),
        (
            "driver.sys_cpu_share",
            m(
                ratio(
                    counts.usage.sys.as_secs_f64(),
                    (counts.usage.user + counts.usage.sys).as_secs_f64(),
                ),
                "ratio",
            ),
        ),
        (
            "driver.residual_us_per_op",
            m(cpu_us_per_op - stage_us, "us"),
        ),
        ("stages.us_per_op", m(stage_us, "us")),
        (
            "stages.coverage",
            m(ratio(stage_us, cpu_us_per_op), "ratio"),
        ),
        (
            "durable.apply_ns",
            m(per_call(&log, "durable.apply", true), "ns"),
        ),
        (
            "durable.sync_ns",
            m(per_call(&log, "durable.sync", true), "ns"),
        ),
        (
            "durable.fsync_per_write",
            m(ratio(c(names::WAL_FSYNC), counts.writes as f64), "ratio"),
        ),
        (
            "durable.append_per_op",
            m(ratio(c(names::WAL_APPEND), ops), "appends/op"),
        ),
        (
            "recorder.record_ns",
            m(per_call(&log, "recorder.record", true), "ns"),
        ),
        ("monitor.ingest_ns", m(ingest_ns, "ns")),
        ("monitor.late_reads_at_delta", m(late_reads, "count")),
        (
            "monitor.staleness_ticks",
            m(crate::staleness_ticks(run), "ticks"),
        ),
        ("checker.min_delta_ns_per_op", m(min_delta_ns, "ns")),
        ("checker.on_time_ns_per_op", m(on_time_ns, "ns")),
        ("checker.ccv_ns_per_op", m(ccv_ns, "ns")),
        (
            "sim.messages_per_op",
            m(ratio(c(names::MESSAGE), ops), "messages/op"),
        ),
        (
            "geo.batch_retransmit_ratio",
            m(
                ratio(c(names::GEO_BATCH_RETRANSMIT), c(names::GEO_BATCH)),
                "ratio",
            ),
        ),
        (
            "geo.apply_dup_ratio",
            m(ratio(c(names::GEO_APPLY_DUP), c(names::GEO_APPLY)), "ratio"),
        ),
        (
            "geo.entries_per_batch",
            m(
                ratio(c(names::GEO_APPLIED), c(names::GEO_BATCH)),
                "entries/batch",
            ),
        ),
        (
            "alloc.allocs_per_op",
            m(ratio(counts.allocs as f64, ops), "allocs/op"),
        ),
        (
            "alloc.bytes_per_op",
            m(ratio(counts.alloc_bytes as f64, ops), "B/op"),
        ),
    ];

    let detail = json!({
        "cpu_us_per_op": cpu_us_per_op,
        "lockstep_executions": (u64::from(executions)),
        "lockstep_ops": lock_ops,
        "captured_frames": (encoded.len()),
        "spans_kept": (log.kept().len()),
    });
    let trace = log.to_chrome_json(json!({
        "workload": (spec.name),
        "host": (host.to_json()),
        "detail": (detail.clone()),
    }));
    let path = out.join(format!("{}-seed{seed}.trace.json", spec.name));
    if let Err(e) = std::fs::write(&path, serde_json::to_string(&trace).expect("serializable")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    (metrics, detail, broken)
}

//! A real threaded driver for the sans-io §5 lifetime engines.
//!
//! This is the counterpart of the deterministic simulator adapter in
//! `tc-lifetime`: the *same* [`ClientEngine`]/[`ServerEngine`] types run
//! here over OS threads, crossbeam channels, and an [`Instant`]-based
//! clock, with every recorded operation fed into a live
//! [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor) — so real-concurrency
//! executions get streaming timed-consistency verdicts, not just simulated
//! ones.
//!
//! # Layout
//!
//! Node ids follow the simulator harness: nodes `0..shards` are the server
//! fleet (node 0 is *the* server in a single-shard run), client site `i`
//! is node `shards + i`. One thread per node; clients send to each shard
//! over per-node unbounded channels, shards reply (and push invalidations)
//! the same way. A client exits once its workload is finished and nothing
//! is in flight, dropping its senders; a shard exits when every client has
//! hung up.
//!
//! # Time
//!
//! Real time is ticked down to the protocol's [`Time`] unit by dividing the
//! elapsed time since a shared epoch by [`RuntimeConfig::tick`]. All
//! threads read the same epoch, so ε is bounded by tick rounding (±1 tick
//! per reader) — the monitor gets a small ε to absorb it. Scheduling
//! jitter cannot be bounded the way simulated latency can, so
//! [`RuntimeConfig::for_protocol`] widens the monitor's Δ by a generous
//! real-time slack; the run's *observed* staleness is still reported
//! exactly, and the monitor verdict asserts the widened bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tc_clocks::{Delta, Epsilon, Time};
use tc_core::checker::TimedReport;
use tc_core::History;
use tc_durable::WalStore;
use tc_lifetime::control::{widen, ControllerConfig, DeltaController, DeltaSchedule};
use tc_lifetime::engine::{
    ClientEngine, Effect, Event, Now, PrivateSources, RecordOp, ServerEngine, TIMER_NEXT_OP,
};
use tc_lifetime::{Msg, ProtocolConfig};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::{Metrics, MetricsSnapshot, NodeId, TraceRecorder};

/// Configuration of one threaded run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The protocol under test.
    pub protocol: ProtocolConfig,
    /// Number of client sites (threads).
    pub n_clients: usize,
    /// The workload every client runs.
    pub workload: Workload,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Base seed; client `i` draws from
    /// [`tc_lifetime::engine::client_rng_seed`]`(seed, i)` — the same
    /// derivation the simulator's private-source mode uses, so sim and
    /// threaded runs of one configuration perform identical per-site
    /// operation sequences.
    pub seed: u64,
    /// Real-time duration of one protocol tick.
    pub tick: Duration,
    /// Δ handed to the on-time monitor.
    pub monitor_delta: Delta,
    /// ε handed to the on-time monitor (absorbs tick rounding).
    pub monitor_eps: Epsilon,
    /// When set, every shard engine runs over a `tc-durable` WAL store
    /// rooted at `<wal_dir>/shard-<i>` instead of the in-memory store —
    /// crash/restart then *recovers* durable state by replay instead of
    /// forgetting it. `None` keeps the default in-memory backend.
    pub wal_dir: Option<PathBuf>,
    /// Shard kill/restart windows in protocol ticks (shard down during
    /// `[from, until)`, restarted at `until`) — the real-time drivers'
    /// rendering of [`tc_sim::FaultPlan::shard_outages`]. Empty by
    /// default.
    pub shard_outages: Vec<(usize, Time, Time)>,
    /// When set, a [`DeltaController`] retunes Δ online: a control thread
    /// samples the live monitor every `interval`, broadcasts
    /// [`Msg::DeltaUpdate`] commands to every client, and shifts the
    /// monitor's judged schedule (widened by the same slack as the static
    /// bound) from each command's `judge_from`. `None` (the default) keeps
    /// the static Δ — and byte-identical behaviour with earlier drivers.
    pub adaptive: Option<ControllerConfig>,
    /// Capture wire-level events (sends, deliveries, timer fires) into the
    /// run's [`NetEvent`](tc_sim::NetEvent) log for timeline export.
    /// Honoured by the evented reactor driver ([`crate::run_reactor`]);
    /// off by default — capture costs a recorder lock per event.
    pub capture_net: bool,
}

/// Extra Δ given to the monitor on top of the protocol's own threshold:
/// OS scheduling can delay any thread unboundedly in principle, so the
/// *verdict* bound is generous while
/// [`RuntimeResult::observed_staleness`] stays exact. 20 000 ticks = 1 s
/// at the default 50 µs tick.
pub const MONITOR_SLACK: Delta = Delta::from_ticks(20_000);

impl RuntimeConfig {
    /// A ready-to-run configuration: 50 µs ticks, monitor at the
    /// protocol's Δ plus [`MONITOR_SLACK`] (or unbounded for untimed
    /// levels), ε of 2 ticks for rounding.
    #[must_use]
    pub fn for_protocol(
        protocol: ProtocolConfig,
        n_clients: usize,
        workload: Workload,
        ops_per_client: usize,
        seed: u64,
    ) -> Self {
        let monitor_delta = match protocol.kind.delta() {
            Some(delta) => Delta::from_ticks(delta.ticks().saturating_add(MONITOR_SLACK.ticks())),
            None => Delta::INFINITE,
        };
        RuntimeConfig {
            protocol,
            n_clients,
            workload,
            ops_per_client,
            seed,
            tick: Duration::from_micros(50),
            monitor_delta,
            monitor_eps: Epsilon::from_ticks(2),
            wal_dir: None,
            shard_outages: Vec::new(),
            adaptive: None,
            capture_net: false,
        }
    }
}

/// Builds one shard's engine over the configured storage backend: the
/// in-memory store by default, or a [`WalStore`] under
/// `<wal_dir>/shard-<i>` when a WAL directory is set. Opening a dirty
/// directory recovers the previous incarnation's durable state — this is
/// the single point where every real-time driver (threaded, reactor, geo)
/// decides what a shard remembers.
pub(crate) fn build_shard_engine(
    protocol: ProtocolConfig,
    wal_dir: Option<&Path>,
    shard: usize,
) -> ServerEngine {
    match wal_dir {
        None => ServerEngine::new(protocol),
        Some(dir) => {
            // An ephemeral config never syncs, so a WAL store under it
            // would defer write acks forever — reject the combination
            // loudly instead of hanging the run.
            assert!(
                protocol.durability.is_durable(),
                "wal_dir is set but the protocol durability mode is Ephemeral; \
                 configure DurabilityMode::Durable with an fsync policy"
            );
            ServerEngine::with_store(
                protocol,
                Box::new(WalStore::open(
                    dir.join(format!("shard-{shard}")),
                    shard as u16,
                    tc_durable::DEFAULT_SNAPSHOT_EVERY,
                )),
            )
        }
    }
}

/// An edge reported by [`OutageGate::poll`]: the shard just crossed into
/// or out of a kill window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OutageEdge {
    /// The shard just entered a kill window: volatile state dies here.
    WentDown,
    /// The shard just left a kill window: feed [`Event::Restart`].
    CameUp,
}

/// Tracks one shard's kill/restart windows against the tick clock — the
/// real-time counterpart of the simulator's scheduled crash/restart
/// events. The driver polls the gate each pass; while down it drops
/// inbound messages and discards due engine timers (mirroring the
/// simulator's down-node dead-letter path), and on the up edge it feeds
/// `Event::Restart` before anything else.
pub(crate) struct OutageGate {
    windows: Vec<(Time, Time)>,
    down: bool,
}

impl OutageGate {
    /// The gate for `shard`, filtering `outages` (a
    /// [`tc_sim::FaultPlan::shard_outages`] rendering) down to its rows.
    pub(crate) fn new(shard: usize, outages: &[(usize, Time, Time)]) -> Self {
        OutageGate {
            windows: outages
                .iter()
                .filter(|(s, _, _)| *s == shard)
                .map(|(_, from, until)| (*from, *until))
                .collect(),
            down: false,
        }
    }

    /// Whether any window is configured — an armed gate makes the driver
    /// cap its blocking waits so edges are noticed promptly.
    pub(crate) fn is_armed(&self) -> bool {
        !self.windows.is_empty()
    }

    /// Whether the shard is currently inside a kill window.
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// Advances the gate to `now`, reporting a crossed edge if any. The
    /// shard is down during `[from, until)` of each window, matching the
    /// simulator's crash-at-`from`, restart-at-`until` schedule.
    pub(crate) fn poll(&mut self, now: Time) -> Option<OutageEdge> {
        let in_window = self
            .windows
            .iter()
            .any(|(from, until)| *from <= now && now < *until);
        match (self.down, in_window) {
            (false, true) => {
                self.down = true;
                Some(OutageEdge::WentDown)
            }
            (true, false) => {
                self.down = false;
                Some(OutageEdge::CameUp)
            }
            _ => None,
        }
    }
}

/// Latency distribution of completed operations (issue → completion).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Completed operations measured.
    pub count: usize,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// 99th-percentile latency in microseconds (nearest-rank).
    pub p99_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    pub(crate) fn from_durations(mut v: Vec<Duration>) -> Self {
        if v.is_empty() {
            return LatencySummary::default();
        }
        v.sort_unstable();
        let count = v.len();
        let sum: Duration = v.iter().sum();
        let rank = ((0.99 * count as f64).ceil() as usize).clamp(1, count);
        LatencySummary {
            count,
            mean_us: sum.as_secs_f64() * 1e6 / count as f64,
            p99_us: v[rank - 1].as_secs_f64() * 1e6,
            max_us: v[count - 1].as_secs_f64() * 1e6,
        }
    }
}

/// Everything a threaded run produces.
#[derive(Clone, Debug)]
pub struct RuntimeResult {
    /// The recorded execution (sites are client indices), checker-ready.
    pub history: History,
    /// The live monitor's verdict at the configured Δ and ε.
    pub on_time: TimedReport,
    /// The monitor's running `min_delta`: the smallest Δ for which this
    /// run was timed.
    pub observed_staleness: Delta,
    /// Protocol cost counters (same names as the simulator's).
    pub metrics: MetricsSnapshot,
    /// Operations completed across all clients.
    pub ops_done: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Per-operation latency distribution.
    pub latency: LatencySummary,
    /// Requests served by each shard (fetch + validate + write), indexed by
    /// shard — the fleet's load-balance statistic.
    pub shard_requests: Vec<u64>,
    /// The Δ-schedule the controller commanded, when the run was adaptive
    /// ([`RuntimeConfig::adaptive`]); `None` for static-Δ runs.
    pub delta_schedule: Option<DeltaSchedule>,
    /// Wire-level event log for timeline export, when the driver captured
    /// one ([`RuntimeConfig::capture_net`]); `None` otherwise.
    pub net_events: Option<Vec<tc_sim::NetEvent>>,
}

impl RuntimeResult {
    /// Completed operations per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ops_done as f64 / self.wall.as_secs_f64()
        }
    }

    /// A named cost counter, zero when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }
}

/// A deadline-ordered timer wheel over real [`Instant`]s, shared by the
/// in-process threaded driver and the evented reactor.
///
/// Timers pop in deadline order; equal deadlines pop in arming order (a
/// monotone sequence number breaks ties), so a driver that arms `A` then
/// `B` for the same instant fires `A` first — the property the engines'
/// effect-order contract leans on. The old implementation was a linear
/// `Vec` scanned per pass; the heap makes `arm` O(log n) and a pop-due
/// sweep O(k log n) for k due timers.
///
/// Generic over the token type: the per-thread drivers use bare engine
/// tokens (`u64`), while the reactor — one thread multiplexing many
/// engines and connections — arms composite tokens naming the owner. The
/// `Ord` bound exists only to satisfy the heap; the unique sequence number
/// means token order never decides a pop.
pub(crate) struct TimerWheel<T = u64> {
    heap: BinaryHeap<Reverse<(Instant, u64, T)>>,
    seq: u64,
}

impl<T: Ord> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Arms a timer: `token` will pop once `deadline` has passed.
    pub(crate) fn arm(&mut self, deadline: Instant, token: T) {
        self.seq += 1;
        self.heap.push(Reverse((deadline, self.seq, token)));
    }

    /// The earliest armed deadline, if any timer is pending.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((deadline, _, _))| *deadline)
    }

    /// Pops every timer due at `now`, in (deadline, arming) order. Due
    /// timers are collected in one sweep *before* any fires: a firing
    /// timer may arm new ones, and those belong to the next pass even if
    /// already due.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Vec<T> {
        let mut due = Vec::new();
        while let Some(Reverse((deadline, _, _))) = self.heap.peek() {
            if *deadline > now {
                break;
            }
            let Reverse((_, _, token)) = self.heap.pop().expect("peeked non-empty");
            due.push(token);
        }
        due
    }
}

/// The shared tick clock: every thread derives protocol [`Time`] from one
/// epoch, so "local" and "true" time coincide up to rounding.
#[derive(Clone, Copy)]
pub(crate) struct TickClock {
    epoch: Instant,
    tick_nanos: u64,
}

impl TickClock {
    pub(crate) fn new(tick: Duration) -> Self {
        TickClock {
            epoch: Instant::now(),
            tick_nanos: (tick.as_nanos() as u64).max(1),
        }
    }

    pub(crate) fn now(&self) -> Time {
        Time::from_ticks(self.epoch.elapsed().as_nanos() as u64 / self.tick_nanos)
    }

    /// The real-time duration of `delta`, or `None` for an infinite delta —
    /// an infinite timeout means "never", and arming a timer for it (the
    /// old behaviour multiplied `u64::MAX` ticks into a ~584-year
    /// `Duration`) is both wrong in spirit and a way to keep a timer wheel
    /// non-empty forever.
    pub(crate) fn delta_to_duration(&self, delta: Delta) -> Option<Duration> {
        if delta.is_infinite() {
            return None;
        }
        Some(Duration::from_nanos(
            self.tick_nanos.saturating_mul(delta.ticks().max(1)),
        ))
    }
}

/// Shared mutable run state: the trace recorder (with attached monitor)
/// and the metric bag. Coarse mutexes are fine here — recording is a few
/// hundred nanoseconds against multi-tick think times.
pub(crate) struct Shared {
    pub(crate) recorder: Mutex<TraceRecorder>,
    pub(crate) metrics: Mutex<Metrics>,
}

impl Shared {
    pub(crate) fn record(&self, op: RecordOp) {
        let mut recorder = self.recorder.lock().expect("recorder lock");
        match op {
            RecordOp::Write {
                site,
                object,
                value,
                at,
                logical: Some(logical),
            } => recorder.record_write_stamped(site, object, value, at, logical),
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
                logical: Some(logical),
            } => recorder.record_read_stamped(site, object, value, at, logical),
            RecordOp::Read {
                site,
                object,
                value,
                at,
                logical: None,
            } => recorder.record_read(site, object, value, at),
        }
    }

    pub(crate) fn add_metric(&self, name: &'static str, add: u64) {
        // Unconditional like the sim adapter: zero-increments materialize
        // the counter so snapshots carry it.
        self.metrics.lock().expect("metrics lock").add(name, add);
    }

    /// Appends a wire-level event to the recorder's net log (a no-op
    /// unless the driver enabled capture). Callers gate on their own
    /// capture flag first so disabled runs never take this lock.
    pub(crate) fn log_net(&self, ev: tc_sim::NetEvent) {
        let mut rec = self.recorder.lock().expect("recorder lock");
        if rec.net_enabled() {
            rec.log_net(ev);
        }
    }
}

/// The driver-independent heart of one client: the engine, its private
/// input sources, the shared tick clock, and per-operation latency
/// bookkeeping. Every real-time driver — the in-process threaded runtime,
/// its geo variant, and the evented reactor — steps clients through this
/// one type, so "what a client does per event" (clock injection order,
/// op-issue latency stamps, completion counting) is defined exactly once.
pub(crate) struct ClientCore {
    pub(crate) engine: ClientEngine,
    pub(crate) sources: PrivateSources,
    pub(crate) clock: TickClock,
    pub(crate) me: NodeId,
    latencies: Vec<Duration>,
    op_started: Option<Instant>,
    completed: usize,
}

impl ClientCore {
    pub(crate) fn new(
        engine: ClientEngine,
        sources: PrivateSources,
        clock: TickClock,
        me: NodeId,
    ) -> Self {
        ClientCore {
            engine,
            sources,
            clock,
            me,
            latencies: Vec::new(),
            op_started: None,
            completed: 0,
        }
    }

    /// Feeds one event to the engine — preceded by a fresh clock sample,
    /// as the engine contract requires — collecting the emitted effects
    /// into `out` for the driver to execute. Latency bookkeeping rides
    /// along: the op clock starts on the op-issue timer and stops when the
    /// engine's completion count advances.
    pub(crate) fn step(&mut self, event: Event, out: &mut Vec<Effect>) {
        if matches!(
            event,
            Event::Timer {
                token: TIMER_NEXT_OP
            }
        ) {
            self.op_started = Some(Instant::now());
        }
        let t = self.clock.now();
        let now = Now {
            me: self.me,
            local: t,
            truth: t,
        };
        self.engine.handle(Event::Now(now), &mut self.sources, out);
        self.engine.handle(event, &mut self.sources, out);
        if self.engine.ops_done() > self.completed {
            self.completed = self.engine.ops_done();
            if let Some(started) = self.op_started.take() {
                self.latencies.push(started.elapsed());
            }
        }
    }

    /// Whether the client has completed its workload with nothing in
    /// flight — the exit condition every driver polls.
    pub(crate) fn finished_idle(&self) -> bool {
        self.engine.finished() && self.engine.is_idle()
    }

    /// Surrenders the recorded per-operation latencies.
    pub(crate) fn into_latencies(self) -> Vec<Duration> {
        self.latencies
    }
}

/// One client thread of the channel drivers ([`run_threaded`] and its geo
/// variant): a [`ClientCore`] + a local timer wheel over real deadlines,
/// sending through one unbounded channel per node. The reactor hosts
/// [`ClientCore`]s directly — many per thread — and executes effects its
/// own way.
pub(crate) struct ClientRt<'a> {
    pub(crate) core: ClientCore,
    /// Inboxes indexed by node id; the engine only ever addresses nodes
    /// that have one.
    pub(crate) senders: Vec<Sender<(NodeId, Msg)>>,
    pub(crate) shared: &'a Shared,
    pub(crate) timers: TimerWheel,
}

impl ClientRt<'_> {
    fn feed(&mut self, event: Event) {
        let mut out = Vec::new();
        self.core.step(event, &mut out);
        for effect in out {
            match effect {
                // A hung-up inbox drops the message: the engines' retry
                // timers own recovery, so a lost send is never an error.
                Effect::Send { to, msg } => {
                    let _ = self.senders[to.index()].send((self.core.me, msg));
                }
                Effect::SetTimer { after, token } => {
                    // An infinite delta means "never" — arm nothing.
                    if let Some(d) = self.core.clock.delta_to_duration(after) {
                        self.timers.arm(Instant::now() + d, token);
                    }
                }
                Effect::Metric { name, add } => self.shared.add_metric(name, add),
                Effect::Record(op) => self.shared.record(op),
            }
        }
    }

    pub(crate) fn run(mut self, inbox: &Receiver<(NodeId, Msg)>) -> Vec<Duration> {
        self.feed(Event::Start);
        loop {
            if self.core.finished_idle() {
                break;
            }
            // Fire every already-due timer (pop_due collects before any
            // fires: a firing timer may arm new ones, which belong to the
            // next pass).
            let due = self.timers.pop_due(Instant::now());
            let fired = !due.is_empty();
            for token in due {
                self.feed(Event::Timer { token });
            }
            // Drain the inbox (stops on Empty or — impossible while the
            // shards still hold this client's sender — Disconnected).
            let mut received = false;
            while let Ok((from, msg)) = inbox.try_recv() {
                received = true;
                self.feed(Event::Message { from, msg });
            }
            if fired || received {
                continue;
            }
            // Nothing ready: block on the inbox until the next timer
            // deadline. A shard reply wakes the thread immediately (the
            // channel wait parks on a condvar — no spin, no yield loop);
            // with no timer armed a 5 ms heartbeat bounds the wait so an
            // exit condition is always revisited.
            let wait = self
                .timers
                .next_deadline()
                .map_or(Duration::from_millis(5), |deadline| {
                    deadline.saturating_duration_since(Instant::now())
                });
            if wait.is_zero() {
                continue; // the deadline passed while draining; fire it now
            }
            match inbox.recv_timeout(wait) {
                Ok((from, msg)) => self.feed(Event::Message { from, msg }),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.core.into_latencies()
    }
}

/// Feeds one event to a server engine, preceded by a fresh clock sample —
/// the server-side stepping contract shared by the channel drivers
/// ([`server_thread`], the geo shard loop) and the shard reactor, which
/// owns its engine inside the event loop instead of behind an inbox.
pub(crate) fn step_server(
    engine: &mut ServerEngine,
    clock: &TickClock,
    me: NodeId,
    event: Event,
    out: &mut Vec<Effect>,
) {
    let t = clock.now();
    engine.handle(
        Event::Now(Now {
            me,
            local: t,
            truth: t,
        }),
        out,
    );
    engine.handle(event, out);
}

/// One shard thread: blocking on its inbox, with a timer wheel for the
/// deadline-batched push-invalidation flushes. Returns the number of
/// client requests the shard served (the fleet's load statistic).
///
/// `send` routes the engine's outbound messages to the client inboxes.
/// Exits when the inbox disconnects, which happens once every client has
/// finished and dropped its senders.
fn server_thread(
    mut engine: ServerEngine,
    clock: TickClock,
    me: NodeId,
    inbox: &Receiver<(NodeId, Msg)>,
    send: &mut dyn FnMut(NodeId, Msg),
    shared: &Shared,
    mut outages: OutageGate,
) -> u64 {
    // Cap on how many already-queued messages one pass drains beyond the
    // blocking receive. Bounded so a request flood cannot postpone a due
    // flush timer indefinitely; 128 messages is far past any burst the
    // client fleet produces between timer deadlines.
    const DRAIN_BATCH: usize = 128;
    let mut timers = TimerWheel::new();
    // Scratch reused across passes: the drained event batch and the
    // engine's effect buffer. Steady-state passes allocate nothing.
    let mut events: Vec<Event> = Vec::new();
    let mut out: Vec<Effect> = Vec::new();
    loop {
        // Cross any due outage edge first: a kill discards what the shard
        // would otherwise do this pass, a restart is fed to the engine
        // before any queued traffic (replaying the WAL under a durable
        // store, forgetting everything under the in-memory one).
        events.clear();
        match outages.poll(clock.now()) {
            Some(OutageEdge::WentDown) => shared.add_metric(names::CRASH, 1),
            Some(OutageEdge::CameUp) => {
                shared.add_metric(names::RESTART, 1);
                events.push(Event::Restart);
            }
            None => {}
        }
        // Fire every already-due flush timer (pop_due collects before any
        // fires: handling one may arm new ones, which belong to the next
        // pass). While down the due timers are popped and discarded below
        // — the volatile state they would flush is dying anyway — but the
        // wheel itself is never cleared.
        events.extend(
            timers
                .pop_due(Instant::now())
                .into_iter()
                .map(|token| Event::Timer { token }),
        );
        if events.is_empty() {
            // Block towards the next flush deadline (or indefinitely with
            // none armed). An armed outage gate caps the wait so kill and
            // restart edges are noticed promptly. Exits when every client
            // dropped its sender.
            let deadline_wait = timers
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            let cap = outages.is_armed().then(|| Duration::from_millis(5));
            let wait = match (deadline_wait, cap) {
                (Some(d), Some(c)) => Some(d.min(c)),
                (Some(d), None) => Some(d),
                (None, cap) => cap,
            };
            let received = match wait {
                Some(wait) if !wait.is_zero() => match inbox.recv_timeout(wait) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                Some(_) => None, // a deadline passed while draining
                None => match inbox.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                },
            };
            match received {
                Some((from, msg)) => events.push(Event::Message { from, msg }),
                None => continue, // a deadline or outage edge is due
            }
        }
        // Opportunistically drain whatever else is already queued so a
        // burst is served in one pass instead of one wakeup per message.
        // The channel is FIFO and the batch is processed in drain order,
        // so per-sender ordering is exactly what sequential receives gave.
        while events.len() < DRAIN_BATCH {
            match inbox.try_recv() {
                Ok((from, msg)) => events.push(Event::Message { from, msg }),
                Err(_) => break, // empty (or disconnected: next pass exits)
            }
        }
        for event in events.drain(..) {
            // A down shard serves nothing: inbound messages dead-letter
            // (the simulator's down-node path) and due timers fire into
            // the void.
            if outages.is_down() {
                if matches!(event, Event::Message { .. }) {
                    shared.add_metric(names::FAULT_DROPPED_DOWN, 1);
                }
                continue;
            }
            out.clear();
            step_server(&mut engine, &clock, me, event, &mut out);
            for effect in out.drain(..) {
                match effect {
                    Effect::Send { to, msg } => send(to, msg),
                    Effect::SetTimer { after, token } => {
                        // Batch flush deadline. Infinite means "never".
                        if let Some(d) = clock.delta_to_duration(after) {
                            timers.arm(Instant::now() + d, token);
                        }
                    }
                    Effect::Metric { name, add } => shared.add_metric(name, add),
                    Effect::Record(_) => {
                        unreachable!("the server engine records nothing")
                    }
                }
            }
        }
    }
    engine.requests_served()
}

/// The adaptive control loop of the threaded driver (the reactor runs the
/// same steps in-loop, see `ClientReactor::controller_tick`): every
/// controller interval it samples the live monitor (running `min_delta`,
/// violation count, ops ingested) and the retry counter, ticks the
/// [`DeltaController`], applies each command's widened threshold to the
/// monitor's judged schedule from `judge_from`, and (re-)broadcasts the
/// current command through `broadcast` — idempotent per sequence number,
/// so a client that missed one hears the next. Exits once every expected
/// operation has been ingested or `done` is raised (whichever first), and
/// returns the commanded schedule.
fn control_loop(
    mut controller: DeltaController,
    clock: TickClock,
    shared: &Shared,
    widening: Delta,
    expected_ops: usize,
    done: &std::sync::atomic::AtomicBool,
    broadcast: &mut dyn FnMut(Msg),
) -> DeltaSchedule {
    use std::sync::atomic::Ordering;
    let interval = clock
        .delta_to_duration(controller.config().interval)
        .unwrap_or(Duration::from_millis(5));
    let mut last_violations = 0usize;
    let mut last_retries = 0u64;
    loop {
        std::thread::sleep(interval);
        if done.load(Ordering::Acquire) {
            break;
        }
        let (observed, violations, ingested) = {
            let rec = shared.recorder.lock().expect("recorder lock");
            let m = rec.monitor().expect("monitor attached by the driver");
            (m.min_delta(), m.violations().len(), m.ingested())
        };
        let retries = {
            let metrics = shared.metrics.lock().expect("metrics lock");
            metrics.get(names::RETRY)
        };
        let pressure = violations > last_violations || retries > last_retries;
        last_violations = violations;
        last_retries = retries;
        let prev = controller.current();
        if let Some(cmd) = controller.tick(clock.now(), observed, pressure) {
            shared.add_metric(names::DELTA_UPDATE, 1);
            shared.add_metric(
                if cmd.delta < prev {
                    names::DELTA_TIGHTEN
                } else {
                    names::DELTA_RELAX
                },
                1,
            );
            shared
                .recorder
                .lock()
                .expect("recorder lock")
                .monitor_schedule_change(cmd.judge_from, widen(cmd.delta, widening));
        }
        if controller.seq() > 0 {
            broadcast(Msg::DeltaUpdate {
                seq: controller.seq(),
                delta: controller.current(),
            });
        }
        if ingested >= expected_ops {
            break;
        }
    }
    controller.into_schedule()
}

/// The widening margin the adaptive monitor schedule carries over each
/// commanded Δ: exactly what the static monitor bound carries over the
/// protocol's configured Δ.
pub(crate) fn adaptive_widening(monitor_delta: Delta, protocol: &ProtocolConfig) -> Delta {
    let base = protocol
        .kind
        .delta()
        .expect("adaptive Δ control needs a timed protocol kind (Tsc/Tcc)");
    if monitor_delta.is_infinite() {
        Delta::INFINITE
    } else {
        Delta::from_ticks(monitor_delta.ticks() - base.ticks())
    }
}

/// Runs one threaded execution to completion and judges it.
///
/// # Panics
///
/// Panics if a worker thread panics or the recorded trace violates a
/// history invariant (a protocol bug — exactly what the monitor-in-the-
/// loop runtime exists to surface).
#[must_use]
pub fn run_threaded(config: &RuntimeConfig) -> RuntimeResult {
    let clock = TickClock::new(config.tick);
    let mut recorder = TraceRecorder::new();
    recorder.attach_monitor(config.monitor_delta, config.monitor_eps);
    let shared = Shared {
        recorder: Mutex::new(recorder),
        metrics: Mutex::new(Metrics::new()),
    };

    let shards = config.protocol.shards;
    let mut server_txs = Vec::with_capacity(shards);
    let mut server_rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = unbounded::<(NodeId, Msg)>();
        server_txs.push(tx);
        server_rxs.push(Some(rx));
    }
    let mut client_txs = Vec::with_capacity(config.n_clients);
    let mut client_rxs = Vec::with_capacity(config.n_clients);
    for _ in 0..config.n_clients {
        let (tx, rx) = unbounded::<(NodeId, Msg)>();
        client_txs.push(tx);
        client_rxs.push(Some(rx));
    }

    let started = Instant::now();
    let shared_ref = &shared;
    let client_txs_ref = &client_txs[..];
    let done = std::sync::atomic::AtomicBool::new(false);
    let done_ref = &done;
    let (latencies, shard_requests, delta_schedule): (
        Vec<Duration>,
        Vec<u64>,
        Option<DeltaSchedule>,
    ) = crossbeam::thread::scope(|scope| {
        let mut shard_workers = Vec::with_capacity(shards);
        for (shard, rx_slot) in server_rxs.iter_mut().enumerate() {
            let server_engine =
                build_shard_engine(config.protocol, config.wal_dir.as_deref(), shard);
            let gate = OutageGate::new(shard, &config.shard_outages);
            let inbox = rx_slot.take().expect("receiver taken once");
            shard_workers.push(scope.spawn(move |_| {
                let me = NodeId::new(shard);
                // A client that finished and hung up may still be
                // pushed invalidations; dropping them mirrors the
                // simulator's dead-letter path.
                let mut send = |to: NodeId, msg: Msg| {
                    let _ = client_txs_ref[to.index() - shards].send((me, msg));
                };
                server_thread(
                    server_engine,
                    clock,
                    me,
                    &inbox,
                    &mut send,
                    shared_ref,
                    gate,
                )
            }));
        }
        let mut workers = Vec::with_capacity(config.n_clients);
        for (site, rx_slot) in client_rxs.iter_mut().enumerate() {
            let engine = ClientEngine::new(
                config.protocol,
                (0..shards).map(NodeId::new).collect(),
                site,
                config.n_clients,
                config.workload.clone(),
                config.ops_per_client,
            );
            let rt = ClientRt {
                core: ClientCore::new(
                    engine,
                    PrivateSources::new(config.seed, site, config.n_clients),
                    clock,
                    NodeId::new(shards + site),
                ),
                senders: server_txs.clone(),
                shared: shared_ref,
                timers: TimerWheel::new(),
            };
            let inbox = rx_slot.take().expect("receiver taken once");
            workers.push(scope.spawn(move |_| rt.run(&inbox)));
        }
        let controller_worker = config.adaptive.map(|ctrl| {
            let base = config
                .protocol
                .kind
                .delta()
                .expect("adaptive Δ control needs a timed protocol kind (Tsc/Tcc)");
            let widening = adaptive_widening(config.monitor_delta, &config.protocol);
            let expected_ops = config.n_clients * config.ops_per_client;
            let n_clients = config.n_clients;
            scope.spawn(move |_| {
                // A synthetic node id past every real node: clients
                // ignore the sender of a DeltaUpdate.
                let from = NodeId::new(shards + n_clients);
                let mut broadcast = |msg: Msg| {
                    for tx in client_txs_ref {
                        let _ = tx.send((from, msg.clone()));
                    }
                };
                control_loop(
                    DeltaController::new(ctrl, base),
                    clock,
                    shared_ref,
                    widening,
                    expected_ops,
                    done_ref,
                    &mut broadcast,
                )
            })
        });
        // Drop the original senders so each shard's recv disconnects
        // once the last client hangs up.
        drop(server_txs);
        let latencies = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        // Clients are done: release the controller (its ingested-ops
        // stop rule normally beats this flag; the flag covers stalls).
        done.store(true, std::sync::atomic::Ordering::Release);
        let delta_schedule =
            controller_worker.map(|w| w.join().expect("controller thread panicked"));
        let shard_requests = shard_workers
            .into_iter()
            .map(|w| w.join().expect("shard thread panicked"))
            .collect();
        (latencies, shard_requests, delta_schedule)
    })
    .expect("a runtime thread panicked");
    let wall = started.elapsed();
    finish_run(shared, latencies, shard_requests, wall, delta_schedule)
}

/// Assembles a [`RuntimeResult`] out of a finished run's shared state —
/// the common tail of every real-time driver ([`run_threaded`], the
/// reactor, the geo driver), so all report through identical
/// monitor/metrics plumbing.
pub(crate) fn finish_run(
    shared: Shared,
    latencies: Vec<Duration>,
    shard_requests: Vec<u64>,
    wall: Duration,
    delta_schedule: Option<DeltaSchedule>,
) -> RuntimeResult {
    let Shared { recorder, metrics } = shared;
    let mut recorder = recorder.into_inner().expect("recorder lock");
    let metrics = metrics.into_inner().expect("metrics lock").snapshot();
    let observed_staleness = recorder
        .monitor()
        .expect("monitor attached by the driver")
        .min_delta();
    let net_events = recorder.take_net_log();
    let (history, report) = recorder
        .finish_with_report()
        .expect("protocol produced an invalid trace");
    let on_time = report.expect("monitor attached by the driver");
    let ops_done = history.len();
    RuntimeResult {
        history,
        on_time,
        observed_staleness,
        metrics,
        ops_done,
        wall,
        latency: LatencySummary::from_durations(latencies),
        shard_requests,
        delta_schedule,
        net_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_lifetime::ProtocolKind;
    use tc_sim::metrics::names;

    fn small(kind: ProtocolKind, seed: u64) -> RuntimeConfig {
        RuntimeConfig::for_protocol(
            ProtocolConfig::of(kind),
            2,
            Workload::new(4, 0.8, 0.7, (Delta::from_ticks(2), Delta::from_ticks(10))),
            15,
            seed,
        )
    }

    fn temp_wal_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "tc-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn outage_gate_reports_edges_once_per_window() {
        let outages = vec![
            (0, Time::from_ticks(10), Time::from_ticks(20)),
            (1, Time::from_ticks(0), Time::from_ticks(5)), // another shard
        ];
        let mut gate = OutageGate::new(0, &outages);
        assert!(gate.is_armed());
        assert_eq!(gate.poll(Time::from_ticks(0)), None);
        assert_eq!(
            gate.poll(Time::from_ticks(10)),
            Some(OutageEdge::WentDown),
            "the window is inclusive at its start"
        );
        assert!(gate.is_down());
        assert_eq!(gate.poll(Time::from_ticks(15)), None, "edges fire once");
        assert_eq!(
            gate.poll(Time::from_ticks(20)),
            Some(OutageEdge::CameUp),
            "the shard restarts at the window's end"
        );
        assert!(!gate.is_down());
        assert_eq!(gate.poll(Time::from_ticks(25)), None);

        let mut unarmed = OutageGate::new(2, &outages);
        assert!(!unarmed.is_armed());
        assert_eq!(unarmed.poll(Time::from_ticks(10)), None);
    }

    #[test]
    fn threaded_kill_shard_over_wal_recovers_by_replay() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("killshard");
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            23,
        );
        cfg.ops_per_client = 200;
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        // Down during [300, 1300) ticks: 200 ops × ≥2 ticks think time
        // cannot finish before tick 300, so the kill always lands mid-run;
        // MONITOR_SLACK (20 000 ticks) dwarfs the 1 000-tick outage.
        cfg.shard_outages = vec![(0, Time::from_ticks(300), Time::from_ticks(1_300))];
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 200, "every op must complete post-restart");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert!(r.counter(names::CRASH) >= 1, "the kill window must land");
        assert!(r.counter(names::RESTART) >= 1);
        assert!(r.counter(names::SERVER_RESTART) >= 1);
        assert!(
            r.counter(names::WAL_REPLAYED) > 0,
            "restart must recover state by replaying the log"
        );
        assert_eq!(
            r.counter(names::WAL_LOST),
            0,
            "per-write fsync leaves no unsynced tail to lose"
        );
        assert!(r.counter(names::WAL_FSYNC) > 0);
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn threaded_wal_backend_matches_memory_semantics_fault_free() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("faultfree");
        let mut cfg = small(ProtocolKind::Sc, 29);
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(r.on_time.holds());
        assert!(
            r.counter(names::WAL_APPEND) > 0 && r.counter(names::WAL_FSYNC) > 0,
            "writes must go through the log"
        );
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn threaded_sc_completes_and_holds() {
        let r = run_threaded(&small(ProtocolKind::Sc, 11));
        assert_eq!(r.ops_done, 2 * 15, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        assert!(r.throughput() > 0.0);
        assert!(
            r.counter(names::FETCH) > 0,
            "SC clients fetch from the server"
        );
    }

    #[test]
    fn threaded_tsc_is_judged_by_the_monitor() {
        let cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            12,
        );
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        // The monitor judged this run against the *configured* bound — a
        // zero-violation verdict is meaningful only at that Δ, so pin it
        // (not merely "some finite Δ").
        assert!(!cfg.monitor_delta.is_infinite());
        assert_eq!(
            r.on_time.delta(),
            cfg.monitor_delta,
            "the verdict must be relative to the configured monitor Δ"
        );
        assert!(
            r.observed_staleness <= cfg.monitor_delta,
            "observed staleness {} must stay within the configured bound {}",
            r.observed_staleness,
            cfg.monitor_delta
        );
    }

    #[test]
    fn threaded_adaptive_controller_retunes_delta_online() {
        // A deliberately loose base Δ (4 000 ticks = 200 ms at the 50 µs
        // tick) gives the controller real distance to close even under CI
        // scheduling jitter.
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(4_000),
            },
            41,
        );
        cfg.ops_per_client = 150;
        let band = (Delta::from_ticks(50), Delta::from_ticks(8_000));
        cfg.adaptive = Some(ControllerConfig::new(band.0, band.1, Delta::from_ticks(20)));
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 150, "adaptive control must not drop ops");
        let schedule = r
            .delta_schedule
            .as_ref()
            .expect("adaptive runs report their commanded schedule");
        assert!(
            !schedule.is_empty(),
            "the loose base must leave tightening room"
        );
        for &(_, d) in &schedule.changes {
            assert!(
                d >= band.0 && d <= band.1,
                "commanded Δ {d} outside the configured band"
            );
        }
        let (_, last) = *schedule.changes.last().unwrap();
        assert!(
            last.ticks() < 4_000,
            "controller must tighten below the loose base, got {last}"
        );
        assert!(r.counter(names::DELTA_UPDATE) > 0);
        assert!(
            r.counter(names::DELTA_APPLIED) > 0,
            "clients must hear and apply at least one command"
        );
        // The verdict is judged against the schedule actually in force
        // (each command widened by the same slack as the static bound).
        assert!(
            r.on_time.holds(),
            "violations against the in-force schedule: {}",
            r.on_time.violations().len()
        );
        assert!(r.net_events.is_none(), "capture was off");
    }

    #[test]
    fn server_batch_drain_preserves_request_order() {
        // Pre-fill the inbox far beyond one drain batch before the shard
        // runs at all, so every message is served through the batched
        // try_recv path — then assert the replies echo the request epochs
        // in exactly the order the requests were enqueued.
        let engine = ServerEngine::new(ProtocolConfig::of(ProtocolKind::Sc));
        let clock = TickClock::new(Duration::from_micros(50));
        let (tx, rx) = unbounded::<(NodeId, Msg)>();
        let me = NodeId::new(0);
        let client = NodeId::new(1);
        let n = 500u64;
        for epoch in 0..n {
            tx.send((
                client,
                Msg::FetchReq {
                    object: tc_core::ObjectId::new(0),
                    epoch,
                },
            ))
            .unwrap();
        }
        drop(tx); // after the backlog drains, the shard exits cleanly
        let shared = Shared {
            recorder: Mutex::new(TraceRecorder::new()),
            metrics: Mutex::new(Metrics::new()),
        };
        let mut replies: Vec<(NodeId, Msg)> = Vec::new();
        let mut send = |to: NodeId, msg: Msg| replies.push((to, msg));
        let served = server_thread(
            engine,
            clock,
            me,
            &rx,
            &mut send,
            &shared,
            OutageGate::new(0, &[]),
        );
        assert_eq!(served, n, "every queued request must be served");
        let epochs: Vec<u64> = replies
            .iter()
            .map(|(to, msg)| {
                assert_eq!(*to, client);
                match msg {
                    Msg::FetchRep { epoch, .. } => *epoch,
                    other => panic!("unexpected reply {other:?}"),
                }
            })
            .collect();
        assert_eq!(
            epochs,
            (0..n).collect::<Vec<_>>(),
            "batched draining must preserve channel FIFO order"
        );
    }

    #[test]
    fn timer_wheel_pops_out_of_order_armings_by_deadline() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        // Armed out of deadline order on purpose: the wheel must sort.
        wheel.arm(base + Duration::from_millis(30), 3);
        wheel.arm(base + Duration::from_millis(10), 1);
        wheel.arm(base + Duration::from_millis(20), 2);
        // Two timers for one deadline pop in arming order (stable ties).
        wheel.arm(base + Duration::from_millis(20), 4);
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(10))
        );

        // Nothing is due before the earliest deadline.
        assert!(wheel.pop_due(base).is_empty());
        // A cutoff mid-way pops exactly the due prefix, deadline-ordered.
        assert_eq!(
            wheel.pop_due(base + Duration::from_millis(25)),
            vec![1, 2, 4]
        );
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(30))
        );
        assert_eq!(wheel.pop_due(base + Duration::from_millis(35)), vec![3]);
        assert_eq!(wheel.next_deadline(), None);

        // Re-arming after a drain works (seq keeps growing, order holds).
        wheel.arm(base + Duration::from_millis(50), 9);
        wheel.arm(base + Duration::from_millis(40), 8);
        assert_eq!(wheel.pop_due(base + Duration::from_millis(60)), vec![8, 9]);
    }

    #[test]
    fn delta_to_duration_never_arms_an_infinite_timer() {
        let clock = TickClock::new(Duration::from_micros(50));
        assert_eq!(
            clock.delta_to_duration(Delta::from_ticks(3)),
            Some(Duration::from_micros(150))
        );
        // Zero rounds up to one tick so a due timer still makes progress.
        assert_eq!(
            clock.delta_to_duration(Delta::ZERO),
            Some(Duration::from_micros(50))
        );
        // The regression: an infinite delta used to produce a ~584-year
        // Duration and a timer that could never meaningfully fire.
        assert_eq!(clock.delta_to_duration(Delta::INFINITE), None);
    }

    #[test]
    fn threaded_fleet_shards_the_load_and_stays_consistent() {
        let mut cfg = small(ProtocolKind::Sc, 17);
        cfg.protocol = cfg.protocol.with_shards(4);
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        assert_eq!(r.shard_requests.len(), 4);
        assert!(
            r.shard_requests.iter().sum::<u64>() > 0,
            "the fleet must have served requests"
        );
        assert!(
            r.shard_requests.iter().filter(|&&n| n > 0).count() >= 2,
            "a 4-object keyspace over 4 shards must hit >1 shard: {:?}",
            r.shard_requests
        );
    }

    #[test]
    fn threaded_fleet_handles_batched_causal_pushes() {
        use tc_lifetime::{Propagation, PushBatch, StalePolicy};
        let mut cfg = small(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(400),
            },
            19,
        );
        cfg.protocol = cfg.protocol.with_shards(2).with_push_batch(PushBatch {
            max_entries: 4,
            max_delay: Delta::from_ticks(40),
        });
        cfg.protocol.propagation = Propagation::PushInvalidate;
        cfg.protocol.stale = StalePolicy::Invalidate;
        // Widen the monitor for the batch-flush deadline like the oracle.
        cfg.monitor_delta = cfg.monitor_delta + Delta::from_ticks(40);
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert_eq!(r.shard_requests.len(), 2);
    }

    #[test]
    fn threaded_causal_flushes_unacked_writes() {
        let r = run_threaded(&small(ProtocolKind::Cc, 13));
        assert_eq!(r.ops_done, 2 * 15);
        assert!(r.on_time.holds());
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let s = LatencySummary::from_durations((1..=100).map(Duration::from_micros).collect());
        assert_eq!(s.count, 100);
        assert!(s.mean_us <= s.p99_us && s.p99_us <= s.max_us);
        assert!((s.max_us - 100.0).abs() < 1e-6);
    }
}

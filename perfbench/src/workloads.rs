//! The four workloads and one guarded, checked iteration of each.
//!
//! Every workload is a closed loop: a client site issues an operation and
//! waits for it before the next, as a §5 site does. The real-driver
//! workloads run 2 client sites from this one process; the simulator
//! workload runs on one thread. An iteration is one call of the public
//! driver entry point with the workload's whole op budget, timed by the
//! benchmark, followed by the iteration's output checks.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tc_bench::alloc;
use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{check_on_time, min_delta_eps};
use tc_core::{History, Value};
use tc_lifetime::{
    conformance_geo, run_geo, run_with_private_sources, DurabilityMode, FsyncPolicy, GeoRunConfig,
    OracleVerdict, ProtocolConfig, ProtocolKind, PushBatch, RegionMap, RunConfig, WanProfile,
};
use tc_sim::workload::Workload;
use tc_sim::{FaultPlan, WorldConfig};
use tc_store::{run_reactor, run_threaded, RuntimeConfig};

use crate::procfs::{self, Probe, Usage};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "tsc_read_reactor",
    "tsc_write_wal",
    "tcc_write_group",
    "geo_sim_judge",
];

/// The protocol threshold Δ of every workload, in ticks.
pub const DELTA_TICKS: u64 = 400;

/// Times the real-driver batch judge runs per iteration.
const JUDGE_REPEATS: usize = 3;

/// Which public real-time driver runs the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `tc_store::run_reactor`: framed TCP through one epoll reactor.
    Reactor,
    /// `tc_store::run_threaded`: one thread per node over channels.
    Threaded,
}

/// A fleet run by a real-time driver.
#[derive(Clone, Debug)]
pub struct RealShape {
    /// The driver.
    pub driver: Driver,
    /// Protocol, shard count and durability.
    pub protocol: ProtocolConfig,
    /// Client sites.
    pub clients: usize,
    /// What each client does.
    pub workload: Workload,
    /// Operations per client in one iteration.
    pub ops_per_client: usize,
}

/// What one workload runs.
#[derive(Clone, Debug)]
pub enum Shape {
    /// A real-driver fleet.
    Real(RealShape),
    /// A simulated geo deployment, judged by `conformance_geo`.
    Geo(GeoRunConfig),
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The workload name.
    pub name: &'static str,
    /// What it runs; each iteration sets the input seed.
    pub shape: Shape,
    /// Operations per client of the warm-up iteration in set-up.
    pub warmup_ops: usize,
}

fn tsc() -> ProtocolKind {
    ProtocolKind::Tsc {
        delta: Delta::from_ticks(DELTA_TICKS),
    }
}

fn tcc() -> ProtocolKind {
    ProtocolKind::Tcc {
        delta: Delta::from_ticks(DELTA_TICKS),
    }
}

fn think(lo: u64, hi: u64) -> (Delta, Delta) {
    (Delta::from_ticks(lo), Delta::from_ticks(hi))
}

/// The workload called `name`.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    let durable = |fsync| DurabilityMode::Durable { fsync };
    let (name, shape, warmup_ops) = match name {
        "tsc_read_reactor" => (
            NAMES[0],
            Shape::Real(RealShape {
                driver: Driver::Reactor,
                protocol: ProtocolConfig::of(tsc()).with_shards(1),
                clients: 2,
                workload: Workload::new(8, 0.8, 0.7, think(0, 0)),
                ops_per_client: 4000,
            }),
            500,
        ),
        "tsc_write_wal" => (
            NAMES[1],
            Shape::Real(RealShape {
                driver: Driver::Threaded,
                protocol: ProtocolConfig::of(tsc())
                    .with_shards(2)
                    .with_durability(durable(FsyncPolicy::PER_WRITE)),
                clients: 2,
                workload: Workload::new(64, 0.9, 0.3, think(0, 4)),
                ops_per_client: 2000,
            }),
            300,
        ),
        "tcc_write_group" => (
            NAMES[2],
            Shape::Real(RealShape {
                driver: Driver::Threaded,
                protocol: ProtocolConfig::of(tcc())
                    .with_shards(2)
                    .with_durability(durable(FsyncPolicy {
                        max_pending: 8,
                        max_delay: Delta::from_ticks(50),
                    })),
                clients: 2,
                workload: Workload::new(64, 0.9, 0.3, think(0, 4)),
                ops_per_client: 1000,
            }),
            150,
        ),
        "geo_sim_judge" => (
            NAMES[3],
            Shape::Geo(GeoRunConfig {
                protocol: ProtocolConfig::of(tcc()).with_shards(2),
                regions: RegionMap::new(3, 2),
                wan: WanProfile {
                    lat_lo: 40,
                    lat_hi: 60,
                    skew_step: 3,
                },
                clients_per_region: 4,
                workload: Workload::new(64, 0.9, 0.7, think(2, 10)),
                ops_per_client: 500,
                world: WorldConfig::deterministic(Delta::from_ticks(2), 0),
                geo_batch: PushBatch {
                    max_entries: 8,
                    max_delay: Delta::from_ticks(20),
                },
                geo_retx_after: Delta::from_ticks(300),
                migrations: Vec::new(),
            }),
            200,
        ),
        _ => return None,
    };
    Some(Spec {
        name,
        shape,
        warmup_ops,
    })
}

impl Spec {
    /// Whether the fleet writes a WAL.
    #[must_use]
    pub fn uses_wal(&self) -> bool {
        match &self.shape {
            Shape::Real(s) => s.protocol.durability.is_durable(),
            Shape::Geo(g) => g.protocol.durability.is_durable(),
        }
    }

    /// The protocol every node runs.
    #[must_use]
    pub fn protocol(&self) -> ProtocolConfig {
        match &self.shape {
            Shape::Real(s) => s.protocol,
            Shape::Geo(g) => g.protocol,
        }
    }

    /// Client sites in the fleet.
    #[must_use]
    pub fn clients(&self) -> usize {
        match &self.shape {
            Shape::Real(s) => s.clients,
            Shape::Geo(g) => g.n_clients(),
        }
    }

    /// The client workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        match &self.shape {
            Shape::Real(s) => &s.workload,
            Shape::Geo(g) => &g.workload,
        }
    }

    /// Operations per client of a timed iteration.
    #[must_use]
    pub fn ops_per_client(&self) -> usize {
        match &self.shape {
            Shape::Real(s) => s.ops_per_client,
            Shape::Geo(g) => g.ops_per_client,
        }
    }
}

/// The real-time driver configuration of one iteration.
#[must_use]
pub fn runtime_config(
    shape: &RealShape,
    seed: u64,
    ops_per_client: usize,
    wal_dir: Option<PathBuf>,
) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::for_protocol(
        shape.protocol,
        shape.clients,
        shape.workload.clone(),
        ops_per_client,
        seed,
    );
    cfg.wal_dir = wal_dir;
    cfg
}

/// The per-site op sequences the simulator produces for `shape`: the
/// real drivers must reproduce them exactly (same engines, same inputs).
#[must_use]
pub fn sim_fingerprint(shape: &RealShape, seed: u64, ops_per_client: usize) -> Fingerprint {
    let config = RunConfig {
        protocol: shape.protocol,
        n_clients: shape.clients,
        workload: shape.workload.clone(),
        ops_per_client,
        world: WorldConfig::deterministic(Delta::from_ticks(3), seed),
    };
    let r = run_with_private_sources(&config, seed);
    tc_bench::fleet_fingerprint(&r.history, shape.clients)
}

/// Per-site (is-write, object, written value) sequences.
pub type Fingerprint = Vec<Vec<(bool, u64, Option<Value>)>>;

/// Limits every timed call runs under.
#[derive(Clone, Copy, Debug)]
pub struct Guard {
    /// Wall time one call may take.
    pub deadline: Duration,
    /// Resident memory the process may reach, in KiB.
    pub rss_ceiling_kib: u64,
}

/// Why a guarded call produced no result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Breach {
    /// The call panicked; the process is still sound.
    Panicked(String),
    /// The call overran a limit and is still running; the process must
    /// stop measuring and exit.
    Limit(String),
}

/// Runs `f` on a worker thread while watching the wall clock and the
/// process RSS. A panic in `f` comes back as [`Breach::Panicked`]; a
/// limit breach returns [`Breach::Limit`] at once, leaving the worker
/// running (a thread cannot be cancelled) for the caller to end with the
/// process.
pub fn guarded<T: Send + 'static>(
    guard: Guard,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Breach> {
    const POLL: Duration = Duration::from_millis(20);
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        // The receiver is gone only after a limit breach; nothing to tell.
        let _ = tx.send(r);
    });
    loop {
        match rx.recv_timeout(POLL) {
            Ok(r) => {
                // The worker has sent its last message; it only returns now.
                let _ = worker.join();
                return r.map_err(|p| {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".into());
                    Breach::Panicked(msg)
                });
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(Breach::Panicked("worker exited without a result".into()));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if started.elapsed() > guard.deadline {
                    return Err(Breach::Limit(format!(
                        "wall-time deadline of {:?} passed",
                        guard.deadline
                    )));
                }
                let rss = procfs::memory().rss_kib;
                if rss > guard.rss_ceiling_kib {
                    return Err(Breach::Limit(format!(
                        "RSS {rss} KiB over the {} KiB ceiling",
                        guard.rss_ceiling_kib
                    )));
                }
            }
        }
    }
}

/// Everything one iteration measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Operations the iteration was asked for.
    pub attempted: u64,
    /// Operations counted as failed by the checks.
    pub failed: u64,
    /// The first failed check, if any.
    pub failure: Option<String>,
    /// Operations completed.
    pub ops: u64,
    /// Reads and writes in the history.
    pub reads: u64,
    /// Writes in the history.
    pub writes: u64,
    /// Wall time of the timed driver call.
    pub wall: Duration,
    /// Process resources (all threads) over the timed call.
    pub usage: Usage,
    /// Mean op latency, µs. For the simulator, whose one result is a
    /// verdict, the time from run start to verdict.
    pub latency_mean_us: f64,
    /// Nearest-rank p99 op latency, µs; the simulator's verdict time.
    pub latency_p99_us: f64,
    /// The run's observed min-Δ, ticks.
    pub staleness_ticks: u64,
    /// Wall time of judging the history.
    pub judge: Duration,
    /// Peak RSS over the iteration, KiB.
    pub peak_rss_kib: u64,
    /// Allocations over the timed call.
    pub allocs: alloc::Counts,
    /// Protocol counters.
    pub counters: BTreeMap<String, u64>,
    /// Δ and ε the live monitor judged the run at.
    pub monitor: (Delta, Epsilon),
    /// Content hash of the history and counters (simulator).
    pub digest: u64,
    /// Reads the live monitor flagged late.
    pub flagged_reads: u64,
    /// A check of the timed call that voids every op of the iteration.
    pub broken: Option<String>,
    /// The recorded history.
    pub history: Option<History>,
}

impl Sample {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.failure.get_or_insert(why);
    }

    /// A counter, zero when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn breached(attempted: u64, why: String) -> Sample {
        Sample {
            attempted,
            failed: attempted,
            failure: Some(why),
            ..Sample::default()
        }
    }
}

fn count_kinds(history: &History) -> (u64, u64) {
    let writes = history.iter().filter(|o| o.is_write()).count() as u64;
    (history.len() as u64 - writes, writes)
}

/// The input seed of iteration `i` of a run (a SplitMix64 mix of both).
/// Iterations draw fresh op sequences, so a run's figures average over
/// many inputs rather than resting on one draw.
#[must_use]
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One iteration with input seed `seed`. `digest` is what a
/// deterministic simulator iteration must reproduce. Returns the checked
/// sample and whether a limit breach left a worker running (the caller
/// must stop measuring).
pub fn iterate(
    spec: &Spec,
    seed: u64,
    ops_per_client: usize,
    wal_dir: Option<PathBuf>,
    digest: Option<u64>,
    guard: Guard,
) -> (Sample, bool) {
    let attempted = (spec.clients() * ops_per_client) as u64;
    procfs::reset_peak_rss();
    let outcome = match &spec.shape {
        Shape::Real(shape) => {
            let cfg = runtime_config(shape, seed, ops_per_client, wal_dir.clone());
            let driver = shape.driver;
            guarded(guard, move || real_call(driver, &cfg))
        }
        Shape::Geo(config) => {
            let mut config = config.clone();
            config.ops_per_client = ops_per_client;
            config.world.seed = seed;
            guarded(guard, move || geo_call(&config))
        }
    };
    if let Some(dir) = &wal_dir {
        // Removed after every iteration, failed or not; a missing
        // directory (nothing was written) is fine.
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut sample = match outcome {
        Ok(sample) => sample,
        Err(Breach::Panicked(msg)) => {
            return (
                Sample::breached(attempted, format!("panicked: {msg}")),
                false,
            )
        }
        Err(Breach::Limit(msg)) => return (Sample::breached(attempted, msg), true),
    };
    sample.attempted = attempted;
    sample.peak_rss_kib = procfs::memory().hwm_kib;
    check(spec, &mut sample, seed, digest);
    (sample, false)
}

/// The timed real-driver call plus the batch re-judgement of its history.
fn real_call(driver: Driver, cfg: &RuntimeConfig) -> Sample {
    let (probe, a0) = (Probe::now(), alloc::snapshot());
    let t = Instant::now();
    let r = match driver {
        Driver::Reactor => run_reactor(cfg),
        Driver::Threaded => run_threaded(cfg),
    };
    let wall = t.elapsed();
    let (allocs, usage) = (alloc::since(a0), Probe::now().since(probe));
    // The batch judge the conformance oracle runs: it must agree with the
    // live monitor, and its time is the cost of judging this history. It
    // takes well under a millisecond, so the fastest of a few repeats is
    // its time.
    let mut judge = Duration::MAX;
    let (mut batch_min, mut batch) = (None, None);
    for _ in 0..JUDGE_REPEATS {
        let t = Instant::now();
        batch_min = Some(min_delta_eps(&r.history, cfg.monitor_eps));
        batch = Some(check_on_time(
            &r.history,
            cfg.monitor_delta,
            cfg.monitor_eps,
        ));
        judge = judge.min(t.elapsed());
    }
    let (batch_min, batch) = (
        batch_min.expect("judged at least once"),
        batch.expect("judged at least once"),
    );
    let mut broken = None;
    if batch_min != r.observed_staleness || batch != r.on_time {
        broken = Some(format!(
            "live monitor (min-Δ {}, {} violations) disagrees with the batch checker \
             (min-Δ {}, {} violations)",
            r.observed_staleness.ticks(),
            r.on_time.violations().len(),
            batch_min.ticks(),
            batch.violations().len()
        ));
    }
    let (reads, writes) = count_kinds(&r.history);
    Sample {
        ops: r.ops_done as u64,
        reads,
        writes,
        wall,
        usage,
        latency_mean_us: r.latency.mean_us,
        latency_p99_us: r.latency.p99_us,
        staleness_ticks: r.observed_staleness.ticks(),
        judge,
        allocs,
        monitor: (r.on_time.delta(), r.on_time.eps()),
        counters: r.metrics.counters.clone(),
        flagged_reads: r.on_time.violations().len() as u64,
        broken,
        history: Some(r.history),
        ..Sample::default()
    }
}

/// The timed simulator call plus `conformance_geo` on its result.
fn geo_call(config: &GeoRunConfig) -> Sample {
    let plan = FaultPlan::none();
    let (probe, a0) = (Probe::now(), alloc::snapshot());
    let t = Instant::now();
    let r = run_geo(config, plan.clone());
    let wall = t.elapsed();
    let (allocs, usage) = (alloc::since(a0), Probe::now().since(probe));
    let t = Instant::now();
    let verdict = conformance_geo(config, &plan, &r);
    let judge = t.elapsed();
    let broken = match &verdict.verdict {
        OracleVerdict::Conforms => None,
        other => Some(format!("conformance_geo returned {other:?}")),
    };
    let mut h = DefaultHasher::new();
    r.history.to_string().hash(&mut h);
    r.metrics.counters.hash(&mut h);
    let (reads, writes) = count_kinds(&r.history);
    Sample {
        ops: r.history.len() as u64,
        reads,
        writes,
        wall,
        usage,
        latency_mean_us: (wall + judge).as_secs_f64() * 1e6,
        latency_p99_us: (wall + judge).as_secs_f64() * 1e6,
        staleness_ticks: r.observed_staleness.ticks(),
        judge,
        allocs,
        monitor: (r.on_time.delta(), r.on_time.eps()),
        counters: r.metrics.counters.clone(),
        digest: h.finish(),
        broken,
        history: Some(r.history),
        ..Sample::default()
    }
}

/// Applies the iteration's output checks, counting failed ops. The
/// reactor's per-site op sequences must equal the simulator's for the same
/// configuration and seed.
fn check(spec: &Spec, sample: &mut Sample, seed: u64, digest: Option<u64>) {
    if let Some(why) = sample.broken.take() {
        sample.fail(sample.attempted, why);
    }
    if sample.flagged_reads > 0 {
        let n = sample.flagged_reads;
        sample.fail(n, format!("the live monitor flagged {n} late read(s)"));
    }
    if sample.ops < sample.attempted {
        let missing = sample.attempted - sample.ops;
        sample.fail(missing, format!("{missing} op(s) never completed"));
    }
    if let (Shape::Real(shape), Some(history)) = (&spec.shape, &sample.history) {
        let ops = sample.attempted as usize / shape.clients;
        if shape.driver == Driver::Reactor
            && tc_bench::fleet_fingerprint(history, shape.clients)
                != sim_fingerprint(shape, seed, ops)
        {
            sample.fail(
                sample.attempted,
                "per-site op sequences differ from the simulator's".into(),
            );
        }
    }
    if let Some(want) = digest {
        if sample.digest != want {
            sample.fail(
                sample.attempted,
                "the deterministic simulator produced a different history or counters".into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_has_a_spec() {
        for name in NAMES {
            let s = spec(name).expect("listed workload");
            assert_eq!(s.name, name);
            assert!(s.warmup_ops < s.ops_per_client());
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn guard_reports_panics_and_deadlines() {
        let g = Guard {
            deadline: Duration::from_millis(100),
            rss_ceiling_kib: u64::MAX,
        };
        assert_eq!(guarded(g, || 7), Ok(7));
        assert_eq!(
            guarded(g, || -> u32 { panic!("boom") }),
            Err(Breach::Panicked("boom".into()))
        );
        let (tx, rx) = mpsc::channel::<()>();
        let r = guarded(g, move || rx.recv().ok());
        assert!(matches!(r, Err(Breach::Limit(_))));
        drop(tx); // lets the abandoned worker finish
    }

    #[test]
    fn checks_count_failed_ops() {
        let s = spec("tsc_write_wal").expect("spec");
        let mut sample = Sample {
            attempted: 100,
            ops: 98,
            flagged_reads: 3,
            ..Sample::default()
        };
        check(&s, &mut sample, 1, None);
        assert_eq!(sample.failed, 5, "3 flagged reads + 2 missing ops");
        let mut whole = Sample {
            attempted: 100,
            ops: 100,
            broken: Some("bad verdict".into()),
            ..Sample::default()
        };
        check(&s, &mut whole, 1, None);
        assert_eq!(whole.failed, 100);
        assert_eq!(whole.failure.as_deref(), Some("bad verdict"));
        let mut clean = Sample {
            attempted: 10,
            ops: 10,
            digest: 4,
            ..Sample::default()
        };
        check(&s, &mut clean, 1, Some(5));
        assert_eq!(clean.failed, 10);
    }
}

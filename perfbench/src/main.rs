//! `perfbench`: the lifetime store's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up (several times, reporting the median set-up
//! time), then runs checked iterations of it for `--seconds`. With
//! `--trace 0` it prints the end-to-end metrics, measured with no tracing.
//! With `--trace 1` it spends half the time on the same untraced
//! iterations, for counters, and half on a traced lockstep pass over the
//! layers' public calls, and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Details and spans go to `.bench_out/`. See `README.md`.

mod host;
mod procfs;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value as Json};

use crate::host::Host;
use crate::workloads::{Guard, Sample, Shape, Spec};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Where results, spans and WAL directories go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// The share of a run's fastest iterations whose mean is the cost of a
/// deterministic computation (see [`end_to_end`]).
const FASTEST_SHARE: f64 = 0.05;

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Limits of every timed call: far above a healthy iteration (well under
/// 5 s and 200 MiB), low enough to stop a runaway before it hurts the host.
const GUARD: Guard = Guard {
    deadline: Duration::from_secs(30),
    rss_ceiling_kib: 2 * 1024 * 1024,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let out = Path::new(OUT_DIR);
    let wal_root = out.join(format!("wal-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&wal_root) {
        eprintln!("perfbench: cannot create {}: {e}", wal_root.display());
        return ExitCode::from(1);
    }
    let host = Host::probe(&wal_root, args.seed);
    let run = measure(&spec, &args, &wal_root, process_start);
    let _ = std::fs::remove_dir_all(&wal_root);

    let (metrics, detail, traced_broken) = if args.trace {
        // After a guard breach a driver call is still running: trace only
        // the minimum and get out.
        let budget = if run.abandoned {
            Duration::ZERO
        } else {
            Duration::from_secs(args.seconds) / 2
        };
        traced::per_layer(&spec, args.seed, &run, &host, out, budget)
    } else {
        (
            end_to_end(&run, matches!(spec.shape, Shape::Geo(_))),
            Json::Null,
            None,
        )
    };
    let attempted: u64 = run.samples.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = run.samples.iter().map(|s| s.failed).sum();
    let mut failures: Vec<String> = run
        .samples
        .iter()
        .filter_map(|s| s.failure.clone())
        .collect();
    // The traced pass cannot vouch for the ops it measured the layers on.
    if let Some(why) = traced_broken {
        failed = attempted;
        failures.push(format!("traced pass: {why}"));
    }

    println!(
        "{}",
        serde_json::to_string(&json!({"host": (host.to_json())})).expect("serializable")
    );
    for f in &failures {
        println!("check failed: {f}");
    }
    let reported = reported(&run);
    for (name, m) in &metrics {
        println!("{:<34} {:>16} {}", name, m.value.to_string(), m.unit);
    }
    for (name, m) in &reported {
        println!(
            "{:<34} {:>16} {} (reported, not bounded)",
            name,
            m.value.to_string(),
            m.unit
        );
    }
    println!(
        "error_rate {} ({failed} of {attempted} ops failed), {} timed iterations",
        failed as f64 / attempted.max(1) as f64,
        run.timed
    );
    let metrics_json: Map<String, Json> = metrics
        .iter()
        .map(|(name, m)| {
            (
                (*name).to_string(),
                json!({"value": (m.value), "unit": (m.unit)}),
            )
        })
        .collect();
    let result = json!({
        "correct": (failed == 0 && attempted > 0),
        "attempted": (attempted.max(1)),
        "failed": (if attempted == 0 { 1 } else { failed }),
        "metrics": (Json::Object(metrics_json.clone())),
    });
    let record = json!({
        "workload": (spec.name),
        "trace": (args.trace),
        "host": (host.to_json()),
        "setup_s": (run.setup_s.to_vec()),
        "iterations": (run.samples.iter().map(sample_json).collect::<Vec<Json>>()),
        "failures": failures,
        "metrics": (Json::Object(metrics_json)),
        "reported": (Json::Object(
            reported
                .iter()
                .map(|(name, m)| ((*name).to_string(), Json::from(m.value)))
                .collect()
        )),
        "detail": detail,
    });
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serializable"),
    ) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", serde_json::to_string(&result).expect("serializable"));
    ExitCode::SUCCESS
}

/// A metric as printed: value and unit.
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metrics by name, in print order.
pub type Metrics = Vec<(&'static str, Metric)>;

/// What the untraced iterations produced.
pub struct Run {
    /// Set-up durations, seconds.
    pub setup_s: Vec<f64>,
    /// Every checked sample: warm-ups first, then timed iterations.
    pub samples: Vec<Sample>,
    /// How many of `samples` are timed iterations (the tail).
    pub timed: usize,
    /// A limit breach ended the run early; workers may still be running.
    pub abandoned: bool,
    /// The last timed iteration's history, for the traced pass.
    pub last_history: Option<tc_core::History>,
}

impl Run {
    /// The timed iterations that completed work.
    pub fn timed_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples[self.samples.len() - self.timed..]
            .iter()
            .filter(|s| s.ops > 0)
    }
}

/// Sets up `SETUP_REPEATS` times, then runs timed iterations for the
/// untraced share of `--seconds`.
fn measure(spec: &Spec, args: &Args, wal_root: &Path, process_start: Instant) -> Run {
    let mut run = Run {
        setup_s: Vec::new(),
        samples: Vec::new(),
        timed: 0,
        abandoned: false,
        last_history: None,
    };
    // Every iteration gets its own input seed and WAL directory. Warm-ups
    // draw fixed inputs, so set-up time does not vary with `--seed`; the
    // deterministic simulator runs each timed seed twice, back to back, and
    // the repeat must reproduce the first run exactly.
    let geo = matches!(spec.shape, Shape::Geo(_));
    let seed = |input: usize| workloads::iteration_seed(args.seed, input as u64);
    let mut dirs = 0usize;
    let mut wal_dir = || {
        dirs += 1;
        spec.uses_wal()
            .then(|| wal_root.join(format!("iter-{dirs}")))
    };
    for k in 0..SETUP_REPEATS {
        // The first set-up counts from process start: argument parsing,
        // directory creation and the host probe are set-up too.
        let started = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let warm_seed = workloads::iteration_seed(0, k as u64);
        let (mut warm, abandoned) =
            workloads::iterate(spec, warm_seed, spec.warmup_ops, wal_dir(), None, GUARD);
        warm.history = None;
        run.samples.push(warm);
        run.setup_s.push(started.elapsed().as_secs_f64());
        if abandoned {
            run.abandoned = true;
            return run;
        }
    }

    let budget = if args.trace {
        Duration::from_secs(args.seconds) / 2
    } else {
        Duration::from_secs(args.seconds)
    };
    let started = Instant::now();
    let mut digests = BTreeMap::new();
    loop {
        let input = SETUP_REPEATS + if geo { run.timed / 2 } else { run.timed };
        let digest = digests.get(&input).copied();
        let (mut sample, abandoned) = workloads::iterate(
            spec,
            seed(input),
            spec.ops_per_client(),
            wal_dir(),
            digest,
            GUARD,
        );
        if geo && sample.failed == 0 {
            digests.entry(input).or_insert(sample.digest);
        }
        run.last_history = sample.history.take().or(run.last_history.take());
        run.samples.push(sample);
        run.timed += 1;
        if abandoned {
            run.abandoned = true;
            break;
        }
        // Stop when one more iteration of the average length would overrun.
        let spent = started.elapsed();
        if spent + spent / run.timed as u32 > budget {
            break;
        }
    }
    run
}

/// End-to-end figures every run prints but the benchmark does not bound,
/// because their run-to-run spread on a shared host is wider than a
/// regression bound can be: the p99 latency, which on `tsc_write_wal`
/// follows the shared disk's fsync tail, and staleness, which on the TSC
/// workloads is a few ticks of scheduling and disk noise. The p99 is the
/// nearest-rank median of the iterations' p99.
fn reported(run: &Run) -> Metrics {
    let p99: Vec<f64> = run.timed_samples().map(|s| s.latency_p99_us).collect();
    vec![
        (
            "latency_p99_us",
            Metric {
                value: stats::nearest_rank(&p99, 0.5).unwrap_or(0.0),
                unit: "us",
            },
        ),
        (
            "staleness_ticks",
            Metric {
                value: staleness_ticks(run),
                unit: "ticks",
            },
        ),
    ]
}

/// The run's observed staleness in ticks: the mean of the middle half of
/// its timed iterations' observed min-Δ.
pub fn staleness_ticks(run: &Run) -> f64 {
    let v: Vec<f64> = run
        .timed_samples()
        .map(|s| s.staleness_ticks as f64)
        .collect();
    stats::middle_mean(&v).unwrap_or(0.0)
}

/// The end-to-end metrics of the untraced iterations. `deterministic`
/// says the driver call is the simulator, whose work depends only on its
/// inputs.
///
/// Each timed iteration yields one value per metric. A shared host's CPU
/// speed flips between a fast and a slow state, for seconds to minutes at
/// a time, and its disk stalls in bursts.
///
/// A computation that does the same work whatever the timing (the batch
/// judge on every workload, and the whole simulator workload) can only be
/// slowed by the host, never sped up. Its cost is the mean of the fastest
/// 5% of the run's iterations, which needs the host in its fast state for
/// only a small part of the run; a central figure would follow the share
/// of the run spent in each state.
///
/// The real drivers' figures also carry how their threads happened to
/// interleave, which is the program's own behaviour. For them a run
/// reports the mean of the middle half of its iterations: it weighs the
/// host's states as they came, while the slowest and fastest quarter (a
/// stalled fsync, an op queued behind another tenant) cannot pull it.
///
/// Memory is the run's peak, the highest `VmHWM` of its timed iterations:
/// the heap the allocator keeps from one iteration to the next sets the
/// floor each iteration's peak starts from, so one iteration's figure
/// depends on the ones before it.
fn end_to_end(run: &Run, deterministic: bool) -> Metrics {
    let timed: Vec<&Sample> = run.timed_samples().collect();
    let per = |f: fn(&Sample) -> f64| timed.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let fastest = |f| stats::low_mean(&per(f), FASTEST_SHARE).unwrap_or(0.0);
    let cost = |f| {
        if deterministic {
            fastest(f)
        } else {
            stats::middle_mean(&per(f)).unwrap_or(0.0)
        }
    };
    let per_second = |t: f64| if t > 0.0 { 1.0 / t } else { 0.0 };
    let attempted: u64 = run.samples.iter().map(|s| s.attempted).sum();
    let failed: u64 = run.samples.iter().map(|s| s.failed).sum();
    let m = |value: f64, unit: &'static str| Metric { value, unit };
    vec![
        (
            "ops_per_s",
            m(
                per_second(cost(|s| s.wall.as_secs_f64() / s.ops as f64)),
                "ops/s",
            ),
        ),
        (
            "cpu_us_per_op",
            m(
                cost(|s| s.usage.cpu.as_secs_f64() * 1e6 / s.ops as f64),
                "us",
            ),
        ),
        ("latency_mean_us", m(cost(|s| s.latency_mean_us), "us")),
        (
            "judge_ops_per_s",
            m(
                per_second(fastest(|s| s.judge.as_secs_f64() / s.ops as f64)),
                "ops/s",
            ),
        ),
        (
            "success_rate",
            m(1.0 - failed as f64 / attempted.max(1) as f64, "fraction"),
        ),
        (
            "peak_rss_mib",
            m(
                timed.iter().map(|s| s.peak_rss_kib).max().unwrap_or(0) as f64 / 1024.0,
                "MiB",
            ),
        ),
        (
            "setup_s",
            m(stats::median(&run.setup_s).unwrap_or(0.0), "s"),
        ),
    ]
}

fn sample_json(s: &Sample) -> Json {
    json!({
        "attempted": (s.attempted),
        "failed": (s.failed),
        "ops": (s.ops),
        "wall_s": (s.wall.as_secs_f64()),
        "cpu_s": (s.usage.cpu.as_secs_f64()),
        "user_s": (s.usage.user.as_secs_f64()),
        "sys_s": (s.usage.sys.as_secs_f64()),
        "latency_mean_us": (s.latency_mean_us),
        "latency_p99_us": (s.latency_p99_us),
        "staleness_ticks": (s.staleness_ticks),
        "judge_s": (s.judge.as_secs_f64()),
        "peak_rss_kib": (s.peak_rss_kib),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "geo_sim_judge",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("geo_sim_judge", 7, 10, true)
        );
        assert!(args(&["--workload", "x", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}

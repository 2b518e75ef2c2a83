//! Checker scaling study: the naive O(R·W) batch checker vs the
//! sweep-line batch checker vs the streaming [`OnTimeMonitor`], over
//! replica-generated histories from 10² to 10⁷ operations, plus the
//! causal-convergence checker [`satisfies_ccv`] on the same histories.
//!
//! Each path computes the full timed verdict (`check_on_time` **and**
//! `min_delta`; the monitor produces both in one ingestion pass), and the
//! three reports are asserted equal before anything is timed — the
//! experiment doubles as a cross-validation at scale. The naive path is
//! capped at 10⁴ ops (beyond that it is minutes of pure rescanning; the
//! cap is reported in the table as `-`). A fourth `rebuild` path times
//! history *construction* (builder + index derivation) from pre-extracted
//! operation tuples, isolating the layout cost from the generator. A
//! fifth `ccv` path times [`satisfies_ccv`] (vector-clock causal order
//! plus conflict frontier), asserting the replica histories are causally
//! convergent; it is capped at 10⁶ ops, where its clocks alone take
//! 4·n·S = 16 MB.
//!
//! Besides wall time, every row records **allocations per operation** and
//! **bytes per operation** via the counting global allocator
//! (`tc_bench::alloc`, `count-allocs` feature), so allocation regressions
//! in the history layout or checker internals fail as loudly as time
//! regressions: `--max-allocs-per-op N` makes the binary exit non-zero
//! when the `sweep_line`, `rebuild` or `ccv` path exceeds the ceiling.
//!
//! Outputs a table (for `results/checker_scale.txt`) and machine-readable
//! `BENCH_checker.json` recording ops/sec and allocs/op per path and size.
//!
//! Flags: `--smoke` (sizes {100, 1000} and one rep — the CI bench-rot
//! check), `--out PATH` (JSON path, default `BENCH_checker.json`),
//! `--json` (print the table as JSON), `--max-allocs-per-op N` (ceiling).

use std::time::Instant;

use tc_bench::{alloc, arg_value, f3, flag, json_flag, Table};
use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{
    check_on_time, check_on_time_naive, min_delta_eps, min_delta_eps_naive, satisfies_ccv,
    OnTimeMonitor, Outcome,
};
use tc_core::generator::{replica_history, ReplicaHistoryConfig};
use tc_core::{History, HistoryBuilder, Operation};

/// Largest size the naive path is run at.
const NAIVE_CAP: usize = 10_000;
/// Largest size the `ccv` path is run at.
const CCV_CAP: usize = 1_000_000;
/// Δ used for the timed check: half the worst-case propagation delay, so
/// violations actually occur and the violation paths are exercised.
const DELTA: Delta = Delta::from_ticks(30);
const EPS: Epsilon = Epsilon::from_ticks(3);

fn history_of(total_ops: usize) -> History {
    let cfg = ReplicaHistoryConfig {
        n_sites: 4,
        n_objects: 8,
        ops_per_site: total_ops / 4,
        read_fraction: 0.6,
        max_time_step: 12,
        delay: (5, 60),
    };
    replica_history(&cfg, 1)
}

/// One operation flattened to plain fields, for the `rebuild` path (the
/// closure must not touch the original `History`'s memory).
#[derive(Clone, Copy)]
struct OpTuple {
    write: bool,
    site: usize,
    object: u32,
    value: u64,
    time: u64,
}

fn tuples_of(h: &History) -> Vec<OpTuple> {
    h.iter()
        .map(|op| OpTuple {
            write: op.is_write(),
            site: op.site().index(),
            object: op.object().index(),
            value: op.value().raw(),
            time: op.time().ticks(),
        })
        .collect()
}

fn rebuild(tuples: &[OpTuple]) -> History {
    let mut b = HistoryBuilder::new();
    for t in tuples {
        if t.write {
            b.write(t.site, t.object, t.value, t.time);
        } else {
            b.read(t.site, t.object, t.value, t.time);
        }
    }
    b.build().expect("tuples came from a valid history")
}

/// Times `f` over enough repetitions for a stable mean; returns seconds
/// per evaluation.
fn time_per_eval<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    started.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let json = json_flag();
    let smoke = flag("smoke");
    let out = arg_value("out").unwrap_or_else(|| "BENCH_checker.json".to_string());
    let alloc_ceiling: Option<f64> = arg_value("max-allocs-per-op")
        .map(|v| v.parse().expect("--max-allocs-per-op takes a number"));
    let sizes: Vec<usize> = match arg_value("sizes") {
        Some(csv) => csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("--sizes takes comma-separated op counts")
            })
            .collect(),
        None if smoke => vec![100, 1_000],
        None => vec![100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
    };

    let mut t = Table::new(
        format!(
            "Checker scaling: batch-naive vs sweep-line vs streaming monitor \
             vs history rebuild vs CCv (replica histories, 4 sites, 8 objects, \
             Δ={}, ε={}; naive capped at {NAIVE_CAP} ops, ccv at {CCV_CAP}; \
             allocs counted {})",
            DELTA.ticks(),
            EPS.ticks(),
            if alloc::enabled() { "on" } else { "OFF" },
        ),
        &[
            "ops",
            "path",
            "ms/check",
            "ops/sec",
            "violations",
            "allocs/op",
            "bytes/op",
        ],
    );
    let mut results = Vec::new();
    let mut ceiling_breaches: Vec<String> = Vec::new();

    for &size in &sizes {
        let h = history_of(size);
        let ops = h.len();
        let tuples = tuples_of(&h);
        // Pre-sorted ingestion order for the monitor (the recorder's
        // natural feed); sorting is not part of the measured path.
        let mut sorted: Vec<Operation> = h.iter().collect();
        sorted.sort_by_key(|o| (o.time(), o.id()));

        // Cross-validate the paths before timing anything.
        let sweep = check_on_time(&h, DELTA, EPS);
        let sweep_min = min_delta_eps(&h, EPS);
        let mut m = OnTimeMonitor::new(DELTA, EPS);
        for op in &sorted {
            m.ingest_op(op);
        }
        assert_eq!(m.min_delta(), sweep_min, "monitor min_delta diverged");
        assert_eq!(m.into_report(), sweep, "monitor report diverged");
        let run_naive = ops <= NAIVE_CAP;
        if run_naive {
            assert_eq!(check_on_time_naive(&h, DELTA, EPS), sweep, "sweep diverged");
            assert_eq!(
                min_delta_eps_naive(&h, EPS),
                sweep_min,
                "sweep min diverged"
            );
        }
        let run_ccv = ops <= CCV_CAP;
        if run_ccv {
            assert_eq!(
                satisfies_ccv(&h),
                Outcome::Satisfied,
                "replica histories are causally convergent"
            );
        }
        let violations = sweep.violations().len();

        // Repetitions scale down with size; --smoke runs everything once.
        let reps = if smoke {
            1
        } else {
            (200_000 / ops).clamp(1, 100)
        };

        // Per path: (name, seconds-per-eval if run, alloc traffic of one
        // evaluation). The alloc probe is a separate un-timed evaluation so
        // counter loads never sit inside the timed loop.
        let mut paths: Vec<(&str, Option<f64>, Option<alloc::Counts>)> = Vec::new();
        paths.push((
            "batch_naive",
            run_naive.then(|| {
                time_per_eval(reps, || {
                    (
                        check_on_time_naive(&h, DELTA, EPS),
                        min_delta_eps_naive(&h, EPS),
                    )
                })
            }),
            run_naive.then(|| {
                alloc::measure(|| {
                    (
                        check_on_time_naive(&h, DELTA, EPS),
                        min_delta_eps_naive(&h, EPS),
                    )
                })
                .1
            }),
        ));
        paths.push((
            "sweep_line",
            Some(time_per_eval(reps, || {
                (check_on_time(&h, DELTA, EPS), min_delta_eps(&h, EPS))
            })),
            Some(alloc::measure(|| (check_on_time(&h, DELTA, EPS), min_delta_eps(&h, EPS))).1),
        ));
        paths.push((
            "monitor",
            Some(time_per_eval(reps, || {
                let mut m = OnTimeMonitor::new(DELTA, EPS);
                for op in &sorted {
                    m.ingest_op(op);
                }
                (m.min_delta(), m.into_report())
            })),
            Some(
                alloc::measure(|| {
                    let mut m = OnTimeMonitor::new(DELTA, EPS);
                    for op in &sorted {
                        m.ingest_op(op);
                    }
                    (m.min_delta(), m.into_report())
                })
                .1,
            ),
        ));
        paths.push((
            "rebuild",
            Some(time_per_eval(reps, || rebuild(&tuples))),
            Some(alloc::measure(|| rebuild(&tuples)).1),
        ));
        paths.push((
            "ccv",
            run_ccv.then(|| time_per_eval(reps, || satisfies_ccv(&h))),
            run_ccv.then(|| alloc::measure(|| satisfies_ccv(&h)).1),
        ));

        for (path, secs, counts) in paths {
            let (allocs_per_op, bytes_per_op) = match counts {
                Some(c) => (c.allocs as f64 / ops as f64, c.bytes as f64 / ops as f64),
                None => (0.0, 0.0),
            };
            if let (Some(ceiling), Some(_)) = (alloc_ceiling, counts) {
                if alloc::enabled()
                    && matches!(path, "sweep_line" | "rebuild" | "ccv")
                    && allocs_per_op > ceiling
                {
                    ceiling_breaches.push(format!(
                        "{path} at {ops} ops: {allocs_per_op:.4} allocs/op > ceiling {ceiling}"
                    ));
                }
            }
            match secs {
                Some(secs) => {
                    let ops_per_sec = ops as f64 / secs;
                    t.row(&[
                        &ops,
                        &path,
                        &f3(secs * 1e3),
                        &format!("{ops_per_sec:.0}"),
                        &violations,
                        &format!("{allocs_per_op:.4}"),
                        &format!("{bytes_per_op:.1}"),
                    ]);
                    results.push(serde_json::json!({
                        "ops": ops,
                        "path": path,
                        "ms_per_check": (secs * 1e3),
                        "ops_per_sec": ops_per_sec,
                        "violations": violations,
                        "allocs_per_op": allocs_per_op,
                        "bytes_per_op": bytes_per_op,
                    }));
                }
                None => {
                    let cap = if path == "ccv" { CCV_CAP } else { NAIVE_CAP };
                    t.row(&[&ops, &path, &"-", &"-", &violations, &"-", &"-"]);
                    results.push(serde_json::json!({
                        "ops": ops,
                        "path": path,
                        "skipped": (format!("{path} path capped at {cap} ops")),
                    }));
                }
            }
        }
    }

    t.emit(json);
    println!(
        "expected shape: sweep_line, monitor and ccv ops/sec stay near-flat \
         as size grows; batch_naive ops/sec collapses linearly (O(R*W) total)"
    );

    let counting = alloc::enabled();
    let doc = serde_json::json!({
        "experiment": "checker_scale",
        "delta": (DELTA.ticks()),
        "eps": (EPS.ticks()),
        "naive_cap": NAIVE_CAP,
        "ccv_cap": CCV_CAP,
        "smoke": smoke,
        "alloc_counting": counting,
        "results": results,
    });
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("results serialize"),
    )
    .expect("write BENCH_checker.json");
    println!("wrote {out}");

    if !ceiling_breaches.is_empty() {
        eprintln!("allocation ceiling exceeded:");
        for b in &ceiling_breaches {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
}

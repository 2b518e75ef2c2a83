//! Figure 4a, empirically: classify random histories against every
//! criterion and verify the containment lattice
//! `LIN ⊆ TSC ⊆ SC ⊆ CC`, `TSC ⊆ TCC ⊆ CC`, `TCC ∩ SC = TSC`,
//! `SC ⊆ CCv` on each. CCv (causal convergence) is reported next to CC
//! (causal memory); the two are incomparable in general.
//!
//! Two populations are sampled: unconstrained random histories (which land
//! anywhere in the lattice) and replica-generated histories (CC by
//! construction, timed by their propagation bound).
//!
//! Flags: `--histories N` (default 400 per population), `--delta D`
//! (default 60), `--json`.

use tc_bench::{arg_value, json_flag, pct, Table};
use tc_clocks::Delta;
use tc_core::checker::{classify_with, Outcome, SearchOptions};
use tc_core::generator::{
    random_history, replica_history, RandomHistoryConfig, ReplicaHistoryConfig,
};
use tc_core::History;

#[derive(Default)]
struct Counts {
    total: usize,
    lin: usize,
    tsc: usize,
    sc: usize,
    tcc: usize,
    cc: usize,
    ccv: usize,
    timed: usize,
    inconclusive: usize,
    violations: usize,
}

fn tally(counts: &mut Counts, histories: impl Iterator<Item = History>, delta: Delta) {
    for h in histories {
        let c = classify_with(
            &h,
            delta,
            tc_clocks::Epsilon::ZERO,
            SearchOptions {
                max_states: 200_000,
            },
        );
        counts.total += 1;
        let outcomes = [c.lin, c.sc, c.cc, c.timed, c.tsc, c.tcc];
        if outcomes.contains(&Outcome::Inconclusive) {
            counts.inconclusive += 1;
            continue;
        }
        if c.hierarchy_violation().is_some() {
            counts.violations += 1;
        }
        counts.lin += usize::from(c.lin.holds());
        counts.tsc += usize::from(c.tsc.holds());
        counts.sc += usize::from(c.sc.holds());
        counts.tcc += usize::from(c.tcc.holds());
        counts.cc += usize::from(c.cc.holds());
        counts.ccv += usize::from(c.ccv.holds());
        counts.timed += usize::from(c.timed.holds());
    }
}

fn emit(name: &str, c: &Counts, t: &mut Table) {
    let share = |n: usize| pct(n as f64 / c.total.max(1) as f64);
    t.row(&[
        &name,
        &c.total,
        &share(c.lin),
        &share(c.tsc),
        &share(c.sc),
        &share(c.tcc),
        &share(c.cc),
        &share(c.ccv),
        &share(c.timed),
        &c.inconclusive,
        &c.violations,
    ]);
}

fn main() {
    let json = json_flag();
    let n: usize = arg_value("histories")
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let delta = Delta::from_ticks(
        arg_value("delta")
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
    );

    let mut t = Table::new(
        format!("Figure 4a (empirical): criterion satisfaction at Δ={delta}"),
        &[
            "population",
            "n",
            "LIN",
            "TSC",
            "SC",
            "TCC",
            "CC",
            "CCv",
            "timed",
            "inconclusive",
            "hierarchy violations",
        ],
    );

    let mut random = Counts::default();
    tally(
        &mut random,
        (0..n as u64).map(|seed| random_history(&RandomHistoryConfig::default(), seed)),
        delta,
    );
    emit("random", &random, &mut t);

    let mut replica = Counts::default();
    tally(
        &mut replica,
        (0..n as u64).map(|seed| {
            replica_history(
                &ReplicaHistoryConfig {
                    delay: (5, 80),
                    ..ReplicaHistoryConfig::default()
                },
                seed,
            )
        }),
        delta,
    );
    emit("replica(delay<=80)", &replica, &mut t);

    t.emit(json);

    assert_eq!(
        random.violations + replica.violations,
        0,
        "hierarchy of Figure 4a must hold on every classified history"
    );
    // Containment sanity on the aggregate counts.
    assert!(random.lin <= random.tsc && random.tsc <= random.sc && random.sc <= random.cc);
    assert!(random.tsc <= random.tcc && random.tcc <= random.cc);
    println!(
        "hierarchy verified on {} histories",
        random.total + replica.total
    );
}

//! Differential tests of the vector-clock [`CausalOrder`] and the
//! per-site-frontier [`satisfies_ccv`] against the algorithms they
//! replaced, kept here unchanged as a test-only reference: a dense `n × n`
//! bitset closure of the causal order, and a CCv check that adds a
//! conflict edge for *every* visible same-object write and searches
//! `co ∪ cf` for a cycle by DFS over transitive successor lists.
//!
//! Both are quadratic, so they only run on the small histories drawn here.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_core::checker::{satisfies_ccv, Outcome};
use tc_core::generator::{
    random_history, replica_history, RandomHistoryConfig, ReplicaHistoryConfig,
};
use tc_core::{CausalOrder, History, HistoryBuilder, OpId};

/// The reference causal order: a reachability matrix (bitset rows).
struct ReferenceOrder {
    n: usize,
    words: usize,
    /// Row `a`: bitset of operations strictly causally after `a`.
    reach: Vec<u64>,
    cyclic: bool,
}

impl ReferenceOrder {
    fn of(history: &History) -> ReferenceOrder {
        let n = history.len();
        let words = n.div_ceil(64).max(1);
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];

        // (1) program order: consecutive ops of each site.
        for site in 0..history.n_sites() {
            let ops = history.site_ops(tc_core::SiteId::new(site));
            for pair in ops.windows(2) {
                succ[pair[0].index()].push(pair[1].index());
            }
        }
        // (2) reads-from: the write feeding each read.
        for read in history.reads() {
            if let Some(Some(w)) = history.source_of(read.id()) {
                succ[w.index()].push(read.id().index());
            }
        }

        // (3) transitive closure by fixpoint over bitset rows. Processing
        // nodes in decreasing effective-time order converges in one pass
        // for acyclic histories (all edges then point "forward").
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(history.time_of(OpId::new(i))));
        let mut reach = vec![0u64; n * words];
        let mut changed = true;
        while changed {
            changed = false;
            for &i in &order {
                for &j in &succ[i] {
                    // reach[i] |= reach[j] | {j}
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    let (left, right) = reach.split_at_mut(hi * words);
                    let (row_i, row_j) = if i < j {
                        (&mut left[i * words..(i + 1) * words], &right[..words])
                    } else {
                        // i > j: row_i is in `right`, row_j in `left`
                        let _ = lo;
                        (&mut right[..words], &left[j * words..(j + 1) * words])
                    };
                    let mut local_change = false;
                    for (wi, wj) in row_i.iter_mut().zip(row_j) {
                        let next = *wi | *wj;
                        if next != *wi {
                            *wi = next;
                            local_change = true;
                        }
                    }
                    let word = &mut row_i[j / 64];
                    let bit = 1u64 << (j % 64);
                    if *word & bit == 0 {
                        *word |= bit;
                        local_change = true;
                    }
                    changed |= local_change;
                }
            }
        }

        let cyclic = (0..n).any(|i| reach[i * words + i / 64] & (1 << (i % 64)) != 0);
        ReferenceOrder {
            n,
            words,
            reach,
            cyclic,
        }
    }

    fn precedes(&self, a: OpId, b: OpId) -> bool {
        let (a, b) = (a.index(), b.index());
        self.reach[a * self.words + b / 64] & (1 << (b % 64)) != 0
    }

    fn reachable_from(&self, a: OpId) -> impl Iterator<Item = OpId> + '_ {
        let row = &self.reach[a.index() * self.words..(a.index() + 1) * self.words];
        (0..self.n)
            .filter(move |&b| row[b / 64] & (1 << (b % 64)) != 0)
            .map(OpId::new)
    }
}

/// The reference CCv check: every visible same-object write gets a
/// conflict edge, then a coloured DFS looks for a cycle in `co ∪ cf`.
fn reference_ccv(history: &History) -> Outcome {
    let co = ReferenceOrder::of(history);
    if co.cyclic {
        return Outcome::Violated;
    }
    let n = history.len();
    // Graph over operations: co edges (transitively closed already) plus
    // conflict edges between writes.
    let mut extra: Vec<(usize, usize)> = Vec::new();
    for read in history.reads() {
        let source = history
            .source_of(read.id())
            .expect("reads have resolved sources");
        for &w_other in history.writes_to(read.object()) {
            if Some(w_other) == source {
                continue;
            }
            if co.precedes(w_other, read.id()) {
                match source {
                    // A write to the object is in the causal past of a read
                    // returning the initial value: impossible under CCv.
                    None => return Outcome::Violated,
                    Some(w) => extra.push((w_other.index(), w.index())),
                }
            }
        }
    }

    // Cycle check over co ∪ cf: DFS with colors, following co successors
    // and the extra conflict edges.
    let mut cf: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in extra {
        cf[a].push(b);
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS.
        let mut stack: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        let succ_of = |v: usize| -> Vec<usize> {
            let mut s: Vec<usize> = co.reachable_from(OpId::new(v)).map(OpId::index).collect();
            s.extend(cf[v].iter().copied());
            s
        };
        color[start] = 1;
        stack.push((start, 0, succ_of(start)));
        while let Some((v, i, succs)) = stack.pop() {
            if i < succs.len() {
                let u = succs[i];
                stack.push((v, i + 1, succs));
                match color[u] {
                    0 => {
                        color[u] = 1;
                        stack.push((u, 0, succ_of(u)));
                    }
                    1 => return Outcome::Violated, // back edge: cycle
                    _ => {}
                }
            } else {
                color[v] = 2;
            }
        }
    }
    Outcome::Satisfied
}

/// `random_history` output with roughly a quarter of its reads re-pointed
/// at any value of their object, written earlier or later. Reads of
/// `random_history` only return values already written when they run, so
/// it never closes a causal cycle; backward reads do.
fn with_backward_reads(h: &History, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();
    for op in h.iter() {
        let site = op.site().index();
        let time = op.time().ticks();
        if op.is_write() {
            b.write(site, op.object(), op.value(), time);
        } else {
            let writes = h.writes_to(op.object());
            let value = if !writes.is_empty() && rng.gen_bool(0.25) {
                h.value_of(writes[rng.gen_range(0..writes.len())])
            } else {
                op.value()
            };
            b.read(site, op.object(), value, time);
        }
    }
    b.build().expect("re-pointed reads return written values")
}

/// One sampled history: `random_history` (with or without backward reads)
/// at 2–5 sites, 1–3 objects and 2–8 ops per site, or `replica_history`.
fn sample(family: u8, sites: usize, objects: u32, per_site: usize, seed: u64) -> History {
    let random = || {
        random_history(
            &RandomHistoryConfig {
                n_sites: sites,
                n_objects: objects,
                ops_per_site: per_site,
                read_fraction: 0.55,
                max_time_step: 40,
            },
            seed,
        )
    };
    match family {
        0 => random(),
        1 => with_backward_reads(&random(), seed),
        _ => replica_history(
            &ReplicaHistoryConfig {
                n_sites: sites,
                n_objects: objects,
                ops_per_site: per_site,
                ..ReplicaHistoryConfig::default()
            },
            seed,
        ),
    }
}

/// Compares the new and reference order and verdict on `h`; returns the
/// verdict class (`None` for a cyclic history).
fn assert_agrees(h: &History) -> Option<Outcome> {
    let co = CausalOrder::of(h);
    let reference = ReferenceOrder::of(h);
    assert_eq!(co.is_cyclic(), reference.cyclic, "cyclicity of\n{h}");
    let verdict = satisfies_ccv(h);
    assert_eq!(verdict, reference_ccv(h), "CCv verdict of\n{h}");
    if co.is_cyclic() {
        assert_eq!(verdict, Outcome::Violated, "cyclic histories are not CCv");
        return None;
    }
    for a in h.ids() {
        for b in h.ids() {
            assert_eq!(
                co.precedes(a, b),
                reference.precedes(a, b),
                "{a:?} → {b:?} in\n{h}"
            );
        }
    }
    Some(verdict)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same verdict, same cyclicity and the same `precedes` on every pair.
    #[test]
    fn ccv_and_causal_order_match_reference(
        family in 0u8..3,
        sites in 2usize..=5,
        objects in 1u32..=3,
        per_site in 2usize..=8,
        seed in 0u64..1_000_000,
    ) {
        assert_agrees(&sample(family, sites, objects, per_site, seed));
    }
}

/// The sampled space really exercises all three outcomes: Violated,
/// Satisfied and cyclic histories each occur, and agree with the
/// reference.
#[test]
fn differential_sample_covers_every_verdict() {
    let (mut violated, mut satisfied, mut cyclic) = (0, 0, 0);
    for seed in 0..600u64 {
        let family = (seed % 3) as u8;
        let sites = 2 + (seed % 4) as usize;
        let objects = 1 + (seed / 4 % 3) as u32;
        let per_site = 2 + (seed / 12 % 7) as usize;
        match assert_agrees(&sample(family, sites, objects, per_site, seed)) {
            Some(Outcome::Violated) => violated += 1,
            Some(Outcome::Satisfied) => satisfied += 1,
            Some(Outcome::Inconclusive) => unreachable!("CCv is always conclusive"),
            None => cyclic += 1,
        }
    }
    assert!(violated > 0 && satisfied > 0 && cyclic > 0);
}

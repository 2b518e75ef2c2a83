//! The causality relation over operations (paper §2, adapting Lamport's
//! happened-before): `a → b` iff
//!
//! 1. `a` and `b` execute at the same site and `a` comes first in program
//!    order, or
//! 2. `b` reads an object value written by `a`, or
//! 3. transitivity.
//!
//! The relation is computed once per history as one vector clock per
//! operation: `seen[op][t]` counts the site-`t` operations in `op`'s
//! inclusive causal past. A causal past is closed under program order, so
//! it holds exactly the first `seen[op][t]` operations of each site `t`,
//! and `a → b` iff `a ≠ b` and `a`'s position in its site's program order
//! is below `seen[b][site(a)]` — an O(1) query. The clocks are filled in
//! one topological (Kahn) pass over the generating edges, program order
//! plus reads-from, in O(n·S) time and 4·n·S bytes for `n` operations at
//! `S` sites.

use crate::{History, OpId, SiteId};

/// The strict causal order `→` of a history, as one vector clock per
/// operation.
///
/// Real executions always induce an acyclic relation, but a hand-built
/// [`History`] can encode reads-from edges that travel backwards in time
/// and close a cycle; [`CausalOrder::is_cyclic`] exposes this so checkers
/// can reject such histories outright. On a cyclic history the operations
/// on or after a cycle get no clock, so [`CausalOrder::precedes`] and
/// [`CausalOrder::concurrent`] are meaningful only when `is_cyclic()` is
/// false.
#[derive(Clone, Debug)]
pub struct CausalOrder {
    n_sites: usize,
    /// Executing site of each op.
    site: Vec<u32>,
    /// Position of each op in its site's program order.
    pos: Vec<u32>,
    /// Row `op` (`n_sites` wide): per site, how many of its ops lie in
    /// `op`'s inclusive causal past.
    seen: Vec<u32>,
    cyclic: bool,
}

impl CausalOrder {
    /// Computes the causal order of `history`.
    #[must_use]
    pub fn of(history: &History) -> CausalOrder {
        let n = history.len();
        let n_sites = history.n_sites();
        let site: Vec<u32> = (0..n)
            .map(|i| history.site_of(OpId::new(i)).index() as u32)
            .collect();
        let pos: Vec<u32> = (0..n)
            .map(|i| history.site_position(OpId::new(i)) as u32)
            .collect();
        let reads_from: Vec<(u32, u32)> = history
            .read_ids()
            .filter_map(|r| match history.source_of(r) {
                Some(Some(w)) => Some((w.raw(), r.raw())),
                _ => None,
            })
            .collect();

        // A clock is the elementwise max of its two generating
        // predecessors' clocks (program order, reads-from), plus itself.
        let mut seen = vec![0u32; n * n_sites];
        let visited = topological_walk(history, &reads_from, |v| {
            let (s, p) = (site[v] as usize, pos[v] as usize);
            let row = v * n_sites;
            if p > 0 {
                let pred = history.site_ops(SiteId::new(s))[p - 1].index() * n_sites;
                seen.copy_within(pred..pred + n_sites, row);
            }
            if let Some(Some(w)) = history.source_of(OpId::new(v)) {
                let w = w.index() * n_sites;
                for t in 0..n_sites {
                    seen[row + t] = seen[row + t].max(seen[w + t]);
                }
            }
            seen[row + s] = p as u32 + 1;
        });

        CausalOrder {
            n_sites,
            site,
            pos,
            seen,
            cyclic: visited < n,
        }
    }

    /// Whether `a → b` (strictly). Meaningful only on acyclic histories.
    #[must_use]
    pub fn precedes(&self, a: OpId, b: OpId) -> bool {
        let (a, b) = (a.index(), b.index());
        debug_assert!(a < self.pos.len() && b < self.pos.len());
        a != b && self.pos[a] < self.seen[b * self.n_sites + self.site[a] as usize]
    }

    /// Whether `a` and `b` are distinct and causally unrelated.
    #[must_use]
    pub fn concurrent(&self, a: OpId, b: OpId) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// Whether the relation contains a cycle (impossible in a real
    /// execution; possible in hand-crafted histories).
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// How many of `site`'s operations lie in `op`'s inclusive causal
    /// past: they are exactly its first `seen(op, site)` operations.
    pub(crate) fn seen(&self, op: OpId, site: usize) -> u32 {
        self.seen[op.index() * self.n_sites + site]
    }
}

/// Kahn's algorithm over program order plus `edges` (`(from, to)` op
/// indices): calls `visit` on every operation all of whose predecessors
/// were visited before it, and returns how many operations it visited —
/// fewer than `history.len()` iff the edges close a cycle.
pub(crate) fn topological_walk(
    history: &History,
    edges: &[(u32, u32)],
    mut visit: impl FnMut(usize),
) -> usize {
    let n = history.len();
    // In-degrees, and the edges as CSR successor lists.
    let mut indeg = vec![0u32; n];
    let mut offsets = vec![0u32; n + 1];
    for &(from, to) in edges {
        indeg[to as usize] += 1;
        offsets[from as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut succ = vec![0u32; edges.len()];
    {
        let mut cursors = offsets[..n].to_vec();
        for &(from, to) in edges {
            succ[cursors[from as usize] as usize] = to;
            cursors[from as usize] += 1;
        }
    }

    // Every op but its site's first has a program-order predecessor.
    for (i, d) in indeg.iter_mut().enumerate() {
        *d += u32::from(history.site_position(OpId::new(i)) > 0);
    }
    let mut ready: Vec<u32> = Vec::with_capacity(n);
    ready.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));

    let mut visited = 0;
    while let Some(v) = ready.pop() {
        let v = v as usize;
        visit(v);
        visited += 1;
        let id = OpId::new(v);
        let next = history
            .site_ops(history.site_of(id))
            .get(history.site_position(id) + 1);
        let targets = &succ[offsets[v] as usize..offsets[v + 1] as usize];
        for &t in next.map(|o| o.raw()).iter().chain(targets) {
            indeg[t as usize] -= 1;
            if indeg[t as usize] == 0 {
                ready.push(t);
            }
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    #[test]
    fn program_order_is_causal() {
        let mut b = HistoryBuilder::new();
        let a = b.write(0, 'X', 1, 10);
        let c = b.write(0, 'Y', 2, 20);
        let d = b.write(0, 'Z', 3, 30);
        let h = b.build().unwrap();
        let co = CausalOrder::of(&h);
        assert!(co.precedes(a, c));
        assert!(co.precedes(a, d), "transitive along program order");
        assert!(!co.precedes(d, a));
        assert!(!co.is_cyclic());
    }

    #[test]
    fn reads_from_is_causal() {
        let mut b = HistoryBuilder::new();
        let w = b.write(0, 'X', 1, 10);
        let r = b.read(1, 'X', 1, 50);
        let h = b.build().unwrap();
        let co = CausalOrder::of(&h);
        assert!(co.precedes(w, r));
        assert!(!co.precedes(r, w));
    }

    #[test]
    fn transitive_cross_site_chain() {
        // w0(X)1 -> r1(X)1 -> w1(Y)2 -> r2(Y)2: w0(X)1 precedes r2(Y)2.
        let mut b = HistoryBuilder::new();
        let w1 = b.write(0, 'X', 1, 10);
        let r1 = b.read(1, 'X', 1, 20);
        let _w2 = b.write(1, 'Y', 2, 30);
        let r2 = b.read(2, 'Y', 2, 40);
        let h = b.build().unwrap();
        let co = CausalOrder::of(&h);
        assert!(co.precedes(w1, r2));
        assert!(co.precedes(r1, r2));
        assert!(!co.concurrent(w1, r2));
    }

    #[test]
    fn independent_sites_are_concurrent() {
        let mut b = HistoryBuilder::new();
        let a = b.write(0, 'X', 1, 10);
        let c = b.write(1, 'Y', 2, 15);
        let h = b.build().unwrap();
        let co = CausalOrder::of(&h);
        assert!(co.concurrent(a, c));
        assert!(!co.concurrent(a, a), "an op is not concurrent with itself");
    }

    #[test]
    fn detects_cycles_from_backward_reads() {
        // Site 0: r0(Y)2@40  w0(X)1@100
        // Site 1: r1(X)1@50  w1(Y)2@60
        // rf edges close a cycle through program order.
        let mut b = HistoryBuilder::new();
        b.read(0, 'Y', 2, 40);
        b.write(0, 'X', 1, 100);
        b.read(1, 'X', 1, 50);
        b.write(1, 'Y', 2, 60);
        let h = b.build().unwrap();
        let co = CausalOrder::of(&h);
        assert!(co.is_cyclic());
    }

    #[test]
    fn concurrent_writes_seen_by_read() {
        // Two concurrent writes to the same object; a read of one of them is
        // causally after that one only.
        let mut b = HistoryBuilder::new();
        let wa = b.write(0, 'X', 1, 10);
        let wb = b.write(1, 'X', 2, 12);
        let r = b.read(2, 'X', 2, 30);
        let h = b.build().unwrap();
        let co = CausalOrder::of(&h);
        assert!(co.concurrent(wa, wb));
        assert!(co.precedes(wb, r));
        assert!(co.concurrent(wa, r));
    }
}

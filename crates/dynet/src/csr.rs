//! The CSR adjacency snapshot: the round loop's reusable, flat view of
//! the adversary's per-round topology.
//!
//! The adversary hands the simulator a fresh [`Graph`] every round, but
//! consecutive dynamic-network topologies often share their whole edge
//! set (every round inside a T-stable window, every repeated round of a
//! replayed trace). Each round the incoming adjacency is flattened into
//! a second pair of buffers and compared with the current snapshot:
//! equal arrays keep the snapshot (counted as reused), different ones
//! are swapped in. The flatten is one O(n + m) pass with no heap growth
//! after warmup (the buffers are reused).

use crate::graph::Graph;

/// A compressed-sparse-row adjacency snapshot.
#[derive(Debug)]
pub struct CsrTopology {
    n: usize,
    /// `offsets[u]..offsets[u + 1]` indexes `targets` with `u`'s
    /// neighbors, ascending.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// The incoming round's arrays, swapped in when they differ.
    next_offsets: Vec<u32>,
    next_targets: Vec<u32>,
    rounds_reused: u64,
    rounds_rebuilt: u64,
}

impl CsrTopology {
    /// An empty snapshot for graphs on `n` nodes.
    pub fn new(n: usize) -> Self {
        CsrTopology {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            next_offsets: vec![0; n + 1],
            next_targets: Vec::new(),
            rounds_reused: 0,
            rounds_rebuilt: 0,
        }
    }

    /// Loads the round's topology, keeping the current snapshot when
    /// `g`'s adjacency equals it.
    ///
    /// # Panics
    /// Panics if `g` is not on `n` nodes.
    pub fn load(&mut self, g: &Graph) {
        assert_eq!(g.num_nodes(), self.n, "graph size mismatch");
        self.next_targets.clear();
        for u in 0..self.n {
            self.next_targets
                .extend(g.neighbors(u).iter().map(|&v| v as u32));
            self.next_offsets[u + 1] = self.next_targets.len() as u32;
        }
        if self.rounds_rebuilt > 0
            && self.next_targets == self.targets
            && self.next_offsets == self.offsets
        {
            self.rounds_reused += 1;
            return;
        }
        std::mem::swap(&mut self.offsets, &mut self.next_offsets);
        std::mem::swap(&mut self.targets, &mut self.next_targets);
        self.rounds_rebuilt += 1;
    }

    /// Overwrites the snapshot with an externally-planned **directed**
    /// adjacency (CSR offsets + targets) — the delivery layer's per-round
    /// delivered-sender plan, where `neighbors(u)` becomes "the senders
    /// receiver `u` hears". Keep plan snapshots in their own instance
    /// when the adversary snapshot's reuse counter matters.
    ///
    /// # Panics
    /// Panics if `offsets` is not an (n + 1)-row CSR bound list.
    pub fn load_plan(&mut self, offsets: &[u32], targets: &[u32]) {
        assert_eq!(
            offsets.len(),
            self.n + 1,
            "plan offsets must have n + 1 rows"
        );
        self.offsets.copy_from_slice(offsets);
        self.targets.clear();
        self.targets.extend_from_slice(targets);
        self.rounds_rebuilt += 1;
    }

    /// The neighbors of `u` in the current snapshot, ascending.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges in the current snapshot.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// How many `load` calls kept the previous snapshot (the T-stable /
    /// replay case), for instrumentation.
    pub fn rounds_reused(&self) -> u64 {
        self.rounds_reused
    }
}

impl dyncode_delivery::NeighborView for CsrTopology {
    fn for_each_neighbor(&self, u: usize, visit: &mut dyn FnMut(usize)) {
        for &v in self.neighbors(u) {
            visit(v as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::ShuffledPathAdversary;
    use crate::adversary::{Adversary, KnowledgeView, TStable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_matches(csr: &CsrTopology, g: &Graph) {
        assert_eq!(csr.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() {
            let want: Vec<u32> = g.neighbors(u).iter().map(|&v| v as u32).collect();
            assert_eq!(csr.neighbors(u), &want[..], "node {u}");
        }
    }

    #[test]
    fn snapshot_tracks_changing_topologies() {
        let mut adv = ShuffledPathAdversary;
        let view = KnowledgeView::blank(11, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut csr = CsrTopology::new(11);
        for round in 0..12 {
            let g = adv.topology(round, &view, &mut rng);
            csr.load(&g);
            assert_matches(&csr, &g);
        }
    }

    #[test]
    fn unchanged_rounds_are_reused() {
        let mut adv = TStable::new(ShuffledPathAdversary, 4);
        let view = KnowledgeView::blank(9, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut csr = CsrTopology::new(9);
        for round in 0..12 {
            let g = adv.topology(round, &view, &mut rng);
            csr.load(&g);
            assert_matches(&csr, &g);
        }
        // 12 rounds at T = 4: at most 3 rebuilds (paths may even repeat).
        assert!(
            csr.rounds_reused() >= 8,
            "expected ≥ 8 delta-free rounds, got {}",
            csr.rounds_reused()
        );
    }
}

//! Layer timing from outside the crates: wrappers around the public
//! `Adversary` and `FastCell` surfaces that time each call and delegate
//! everything else unchanged, so a wrapped run returns the same
//! `RunResult` as an unwrapped one (locked by this module's tests).

use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_kernel::{CsrTopology, FastCell};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// An adversary wrapper timing `topology` and re-checking connectivity
/// on every committed graph, the check `run_fast` makes on the same
/// graph right after.
pub struct TimedAdversary {
    inner: Box<dyn Adversary>,
    /// Busy time inside the inner adversary's `topology`.
    pub topology: Duration,
    /// Time of the wrapper's own `Graph::is_connected` call.
    pub validate: Duration,
    /// Topologies committed.
    pub calls: u64,
    /// Edges summed over committed topologies.
    pub edges: u64,
}

impl TimedAdversary {
    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: Box<dyn Adversary>) -> TimedAdversary {
        TimedAdversary {
            inner,
            topology: Duration::ZERO,
            validate: Duration::ZERO,
            calls: 0,
            edges: 0,
        }
    }
}

impl Adversary for TimedAdversary {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let t0 = Instant::now();
        let graph = self.inner.topology(round, view, rng);
        let t1 = Instant::now();
        std::hint::black_box(graph.is_connected());
        self.validate += t1.elapsed();
        self.topology += t1 - t0;
        self.calls += 1;
        self.edges += graph.num_edges() as u64;
        graph
    }
}

/// A `FastCell` wrapper timing the batched per-round calls. `spoke`,
/// `all_done` and `history_stats` are delegated untimed: they fall in
/// the loop residual.
pub struct TimedCell {
    inner: Box<dyn FastCell>,
    /// Time in `view` (the knowledge view the adversary reads); a
    /// `Cell` because `view` takes `&self`.
    pub view: Cell<Duration>,
    /// Time in `compose_all`.
    pub compose: Duration,
    /// Time in `deliver_all`, elimination included.
    pub deliver: Duration,
    /// Time in `round_end`.
    pub round_end: Duration,
    /// Messages delivered: receiver-sender pairs over all rounds.
    pub delivered: u64,
    /// Summed knowledge scalar at the first `view` call.
    pub knowledge_start: Cell<Option<u64>>,
}

impl TimedCell {
    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: Box<dyn FastCell>) -> TimedCell {
        TimedCell {
            inner,
            view: Cell::new(Duration::ZERO),
            compose: Duration::ZERO,
            deliver: Duration::ZERO,
            round_end: Duration::ZERO,
            delivered: 0,
            knowledge_start: Cell::new(None),
        }
    }

    /// The inner cell's view, untimed (the postcondition check).
    pub fn final_view(&self) -> KnowledgeView {
        self.inner.view()
    }
}

/// Σ of the per-node knowledge scalars (dimension or token count).
pub fn knowledge(view: &KnowledgeView) -> u64 {
    view.dims.iter().map(|&d| d as u64).sum()
}

impl FastCell for TimedCell {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn compose_all(
        &mut self,
        round: usize,
        rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let t0 = Instant::now();
        let out = self.inner.compose_all(round, rng, bit_limit);
        self.compose += t0.elapsed();
        out
    }

    fn deliver_all(&mut self, topo: &CsrTopology, round: usize, rng: &mut StdRng) {
        let t0 = Instant::now();
        self.inner.deliver_all(topo, round, rng);
        self.deliver += t0.elapsed();
        self.delivered += (0..topo.num_nodes())
            .map(|u| topo.neighbors(u).len() as u64)
            .sum::<u64>();
    }

    fn spoke(&self, node: usize) -> bool {
        self.inner.spoke(node)
    }

    fn round_end(&mut self, round: usize, rng: &mut StdRng) {
        let t0 = Instant::now();
        self.inner.round_end(round, rng);
        self.round_end += t0.elapsed();
    }

    fn all_done(&self) -> bool {
        self.inner.all_done()
    }

    fn view(&self) -> KnowledgeView {
        let t0 = Instant::now();
        let view = self.inner.view();
        self.view.set(self.view.get() + t0.elapsed());
        if self.knowledge_start.get().is_none() {
            self.knowledge_start.set(Some(knowledge(&view)));
        }
        view
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        self.inner.history_stats()
    }

    fn fully_disseminated(&self) -> bool {
        self.inner.fully_disseminated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_core::params::{Instance, Params, Placement};
    use dyncode_core::runner::{build_fast_cell, run_spec_kernel, Kernel};
    use dyncode_core::spec::ProtocolSpec;
    use dyncode_dynet::simulator::{DeliverySpec, SimConfig};
    use dyncode_engine::AdversaryKind;
    use dyncode_kernel::run_fast;

    /// A wrapped run returns the untraced run's result, history included,
    /// on a tiny cell of every fast-cell family: Gf2Cell, Gf256Cell,
    /// DenseCell, ForwardCell, ErasedCell and QuorumCell.
    #[test]
    fn wrappers_do_not_perturb_runs() {
        let specs = [
            "field-broadcast(gf2)",
            "field-broadcast(gf256)",
            "field-broadcast(gf257)",
            "token-forwarding",
            "naive-coded",
            "quorum-decide(f=1,q=4)",
        ];
        let adversaries = ["shuffled-path", "edge-markov(0.1,0.3)"];
        let deliveries = ["reliable", "radio(p=0.3)"];
        let inst = Instance::generate(Params::new(12, 12, 5, 10), Placement::OneTokenPerNode, 3);
        for spec in specs {
            let spec = ProtocolSpec::parse(spec).expect("spec parses");
            for adv in adversaries {
                let kind = AdversaryKind::parse(adv).expect("adversary parses");
                for delivery in deliveries {
                    let mut config = SimConfig::with_max_rounds(20_000).recording();
                    config.delivery = DeliverySpec::parse(delivery).expect("delivery parses");
                    let plain = run_spec_kernel(
                        &spec,
                        &inst,
                        1,
                        &|| kind.build(1),
                        &config,
                        7,
                        Kernel::Fast,
                    );
                    let mut cell = TimedCell::new(build_fast_cell(&spec, &inst, 1).unwrap());
                    let mut timed_adv = TimedAdversary::new(kind.build(1));
                    let timed = run_fast(&mut cell, &mut timed_adv, &config, 7);
                    assert_eq!(plain, timed, "{spec} {adv} {delivery}");
                    assert_eq!(timed_adv.calls, timed.rounds as u64);
                }
            }
        }
    }
}

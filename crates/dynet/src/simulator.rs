//! The round-synchronous simulation engine for the KLO dynamic network
//! model (Section 4.1).
//!
//! Round structure, exactly as in the model:
//!
//! 1. The adversary observes node state (a [`KnowledgeView`]) and commits a
//!    **connected** topology for the round. An [oblivious](Adversary::oblivious)
//!    adversary reads nothing of node state, so it gets a blank view.
//! 2. Every node chooses an O(b)-bit message *without knowing its
//!    neighbors* (the compose step receives no topology information).
//! 3. Every node receives the messages of all its neighbors in the
//!    committed graph (anonymous broadcast).
//!
//! The simulator meters every message in bits and can enforce a hard
//! per-message budget, which is how the paper's "messages of size O(b)"
//! accounting is kept honest (Section 3 stresses that the coding-header
//! overhead must be paid inside the message).
//!
//! There is exactly one round loop, [`run_fast`], over the batched
//! [`FastCell`] surface. Per-node [`Protocol`]s enter it through the
//! [`ProtocolCell`] adapter ([`run`] is that wrapper), erased registry
//! protocols through the same adapter via the blanket `Protocol` impl
//! for `Box<dyn ErasedProtocol>`, and the arena-backed cells of
//! `dyncode-kernel` implement [`FastCell`] directly.

use crate::adversary::{Adversary, KnowledgeView};
pub use crate::csr::CsrTopology;
use crate::graph::NodeId;
use crate::phase;
pub use dyncode_delivery::{
    delivery_rng, registry as delivery_registry, DeliveryModel, DeliverySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A protocol running on the dynamic network: per-node message generation
/// and delivery plus introspection for termination and adversaries.
///
/// # Contract
///
/// * [`compose`](Protocol::compose) and [`deliver`](Protocol::deliver) are
///   invoked once per node per round; implementations must only read/write
///   state belonging to the given node (plus immutable shared config), so
///   that delivery order is immaterial — the model is simultaneous.
/// * `compose` must not depend on the current round's topology (nodes do
///   not know their neighbors when they speak).
/// * [`round_end`](Protocol::round_end) runs after all deliveries of a
///   round and may advance *globally known* phase counters (legitimate
///   because phase schedules depend only on the round number and public
///   parameters n, k, b, d, T).
pub trait Protocol {
    /// The message type broadcast by nodes.
    type Message: Clone;

    /// Number of nodes n.
    fn num_nodes(&self) -> usize;

    /// Number of tokens k being disseminated (for views/stats).
    fn num_tokens(&self) -> usize;

    /// Node `node` chooses its broadcast for `round`; `None` means silence.
    fn compose(&mut self, node: NodeId, round: usize, rng: &mut StdRng) -> Option<Self::Message>;

    /// The size of `msg` on the wire, in bits.
    fn message_bits(&self, msg: &Self::Message) -> u64;

    /// Node `node` receives the round's neighbor messages.
    fn deliver(&mut self, node: NodeId, inbox: &[Self::Message], round: usize, rng: &mut StdRng);

    /// Has `node` locally terminated (it knows all k tokens and may stop)?
    fn node_done(&self, node: NodeId) -> bool;

    /// A snapshot of per-node knowledge for the adversary and statistics.
    fn view(&self) -> KnowledgeView;

    /// Global end-of-round hook (phase counters); defaults to a no-op.
    fn round_end(&mut self, _round: usize, _rng: &mut StdRng) {}
}

/// A type-erased protocol message: an opaque payload plus its wire size
/// in bits, captured at compose time.
///
/// The payload is reference-counted, so the per-neighbor clones the
/// delivery step performs are refcount bumps; [`Erased`] hands the typed
/// message back to the inner protocol on delivery. The bit count is the
/// inner protocol's own `message_bits` answer — erasure never re-prices a
/// message, which is one half of the erased == monomorphized contract.
#[derive(Clone)]
pub struct ErasedMessage {
    bits: u64,
    payload: Rc<dyn Any>,
}

impl ErasedMessage {
    /// The wire size of the erased message, in bits.
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

impl std::fmt::Debug for ErasedMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedMessage")
            .field("bits", &self.bits)
            .finish_non_exhaustive()
    }
}

/// The object-safe twin of [`Protocol`]: messages are erased to
/// byte-counted opaque payloads so heterogeneous protocols can share one
/// `Box<dyn ErasedProtocol>` call surface (the campaign engine's
/// `protocol = …` grid axis).
///
/// Obtain one by wrapping any concrete protocol in [`Erased`]; a
/// `Box<dyn ErasedProtocol>` is itself a [`Protocol`], so [`run`] runs it
/// and reproduces the monomorphized run's `RunResult` bit for bit (see
/// the `Erased` docs for why).
pub trait ErasedProtocol {
    /// Number of nodes n.
    fn num_nodes(&self) -> usize;

    /// Number of tokens k being disseminated.
    fn num_tokens(&self) -> usize;

    /// Node `node` chooses its broadcast for `round`; `None` is silence.
    fn compose_erased(
        &mut self,
        node: NodeId,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<ErasedMessage>;

    /// Node `node` receives the round's neighbor messages.
    fn deliver_erased(
        &mut self,
        node: NodeId,
        inbox: &[ErasedMessage],
        round: usize,
        rng: &mut StdRng,
    );

    /// Has `node` locally terminated?
    fn node_done(&self, node: NodeId) -> bool;

    /// A snapshot of per-node knowledge.
    fn view(&self) -> KnowledgeView;

    /// Global end-of-round hook; defaults to a no-op.
    fn round_end_erased(&mut self, _round: usize, _rng: &mut StdRng) {}

    /// Escape hatch for protocol-specific introspection after a run
    /// (Las-Vegas retry counters, gather statistics): downcast the
    /// erased protocol back to its concrete [`Erased<P>`] wrapper.
    fn as_any(&self) -> &dyn Any;
}

/// Wraps a concrete [`Protocol`] as an [`ErasedProtocol`].
///
/// Every trait method forwards to the inner protocol with the same
/// arguments in the same order, and no wrapper method touches the RNG, so
/// a run through the erased surface draws the identical random stream and
/// produces the identical `RunResult` as the monomorphized run — the
/// contract `tests/protocol_registry.rs` locks across the whole protocol
/// registry.
pub struct Erased<P: Protocol> {
    inner: P,
    /// Typed-inbox scratch, refilled per delivery with its capacity kept
    /// across rounds, so the erased path does not allocate a fresh
    /// `Vec<P::Message>` per node per round.
    scratch: Vec<P::Message>,
}

impl<P: Protocol> Erased<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Erased {
            inner,
            scratch: Vec::new(),
        }
    }

    /// The wrapped protocol (the read half of the `as_any` introspection
    /// hatch: downcast to `Erased<P>`, then read concrete state here).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: Protocol + 'static> ErasedProtocol for Erased<P>
where
    P::Message: 'static,
{
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_tokens(&self) -> usize {
        self.inner.num_tokens()
    }

    fn compose_erased(
        &mut self,
        node: NodeId,
        round: usize,
        rng: &mut StdRng,
    ) -> Option<ErasedMessage> {
        self.inner.compose(node, round, rng).map(|m| ErasedMessage {
            bits: self.inner.message_bits(&m),
            payload: Rc::new(m),
        })
    }

    fn deliver_erased(
        &mut self,
        node: NodeId,
        inbox: &[ErasedMessage],
        round: usize,
        rng: &mut StdRng,
    ) {
        // Split-borrow: refill the scratch while the inner protocol stays
        // untouched, then hand it over as the typed inbox.
        let Erased { inner, scratch } = self;
        scratch.clear();
        scratch.extend(inbox.iter().map(|m| {
            m.payload
                .downcast_ref::<P::Message>()
                .expect("erased inbox holds a foreign message type")
                .clone()
        }));
        inner.deliver(node, scratch, round, rng);
    }

    fn node_done(&self, node: NodeId) -> bool {
        self.inner.node_done(node)
    }

    fn view(&self) -> KnowledgeView {
        self.inner.view()
    }

    fn round_end_erased(&mut self, round: usize, rng: &mut StdRng) {
        self.inner.round_end(round, rng);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A boxed erased protocol is itself a [`Protocol`] (over
/// [`ErasedMessage`]), so erased runs go through [`run`] and the same
/// [`ProtocolCell`] adapter as typed ones: one round loop, so the two
/// paths cannot drift apart.
impl Protocol for Box<dyn ErasedProtocol + '_> {
    type Message = ErasedMessage;

    fn num_nodes(&self) -> usize {
        self.as_ref().num_nodes()
    }

    fn num_tokens(&self) -> usize {
        self.as_ref().num_tokens()
    }

    fn compose(&mut self, node: NodeId, round: usize, rng: &mut StdRng) -> Option<ErasedMessage> {
        self.as_mut().compose_erased(node, round, rng)
    }

    fn message_bits(&self, msg: &ErasedMessage) -> u64 {
        msg.bits
    }

    fn deliver(&mut self, node: NodeId, inbox: &[ErasedMessage], round: usize, rng: &mut StdRng) {
        self.as_mut().deliver_erased(node, inbox, round, rng);
    }

    fn node_done(&self, node: NodeId) -> bool {
        self.as_ref().node_done(node)
    }

    fn view(&self) -> KnowledgeView {
        self.as_ref().view()
    }

    fn round_end(&mut self, round: usize, rng: &mut StdRng) {
        self.as_mut().round_end_erased(round, rng);
    }
}

/// A mutable borrow of a protocol is a protocol, so [`run`] can lend the
/// caller's protocol to a [`ProtocolCell`] and hand it back afterwards.
impl<P: Protocol> Protocol for &mut P {
    type Message = P::Message;

    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn num_tokens(&self) -> usize {
        (**self).num_tokens()
    }

    fn compose(&mut self, node: NodeId, round: usize, rng: &mut StdRng) -> Option<P::Message> {
        (**self).compose(node, round, rng)
    }

    fn message_bits(&self, msg: &P::Message) -> u64 {
        (**self).message_bits(msg)
    }

    fn deliver(&mut self, node: NodeId, inbox: &[P::Message], round: usize, rng: &mut StdRng) {
        (**self).deliver(node, inbox, round, rng);
    }

    fn node_done(&self, node: NodeId) -> bool {
        (**self).node_done(node)
    }

    fn view(&self) -> KnowledgeView {
        (**self).view()
    }

    fn round_end(&mut self, round: usize, rng: &mut StdRng) {
        (**self).round_end(round, rng);
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Abort (incomplete) after this many rounds.
    pub max_rounds: usize,
    /// If set, panic when any message exceeds this many bits — the strict
    /// O(b) accounting mode.
    pub bit_limit: Option<u64>,
    /// Record a per-round history (costs memory on long runs).
    pub record_history: bool,
    /// Delivery semantics for the broadcast step. The default
    /// ([`DeliverySpec::Reliable`]) takes the legacy code path — no
    /// delivery coins are drawn, byte-identical to the pre-layer
    /// simulator. Non-default models draw from the private
    /// [`delivery_rng`] stream, so protocol and adversary randomness are
    /// untouched either way.
    pub delivery: DeliverySpec,
}

impl SimConfig {
    /// A config with the given round cap, permissive bits, no history.
    pub fn with_max_rounds(max_rounds: usize) -> Self {
        SimConfig {
            max_rounds,
            bit_limit: None,
            record_history: false,
            delivery: DeliverySpec::Reliable,
        }
    }

    /// Enables the strict per-message bit limit.
    pub fn strict_bits(mut self, limit: u64) -> Self {
        self.bit_limit = Some(limit);
        self
    }

    /// Enables per-round history recording.
    pub fn recording(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Selects the delivery model for the broadcast step.
    pub fn with_delivery(mut self, delivery: DeliverySpec) -> Self {
        self.delivery = delivery;
        self
    }
}

/// One row of the per-round history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Edges in the round's topology.
    pub edges: usize,
    /// Bits broadcast this round (sum over nodes; a broadcast is charged
    /// once regardless of the number of receivers, as in the model).
    pub bits: u64,
    /// Minimum per-node knowledge scalar.
    pub min_dim: usize,
    /// Maximum per-node knowledge scalar.
    pub max_dim: usize,
    /// Total decodable tokens summed over nodes.
    pub total_tokens: usize,
    /// Nodes that have locally terminated.
    pub done: usize,
}

/// The outcome of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Rounds executed (= rounds until global termination if `completed`).
    pub rounds: usize,
    /// Did every node terminate within the round cap?
    pub completed: bool,
    /// Total broadcast bits across the run.
    pub total_bits: u64,
    /// The largest single message observed, in bits.
    pub max_message_bits: u64,
    /// Adversary name, for reports.
    pub adversary: String,
    /// Optional per-round history.
    pub history: Vec<RoundRecord>,
}

/// Domain-separation constant for the adversary's private RNG stream
/// (an arbitrary odd 64-bit constant, splitmix64's increment).
const ADVERSARY_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// The adversary's private RNG for `seed` — the exact stream [`run`]
/// hands to [`Adversary::topology`], exposed so offline trace recorders
/// (`dyncode-scenarios`) can reproduce the schedule a live run from the
/// same seed would see.
pub fn adversary_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ ADVERSARY_STREAM)
}

/// One protocol running in the round loop, batched per round instead of
/// per node.
///
/// [`ProtocolCell`] adapts any per-node [`Protocol`]; the arena-backed
/// cells of `dyncode-kernel` implement the surface directly, with one
/// `compose_all` and one `deliver_all` per round over internal arenas so
/// the loop does no per-node allocation. Implementations must preserve
/// the per-node semantics: compose per node in ascending node order
/// (drawing exactly the coins the per-node protocol draws), deliver per
/// node from ascending neighbors, and report the same views and
/// statistics.
pub trait FastCell {
    /// Number of nodes n.
    fn num_nodes(&self) -> usize;

    /// Composes every node's broadcast for `round`, enforcing
    /// `bit_limit` per message when set. Returns `(bits broadcast this
    /// round, largest message this round)`.
    ///
    /// This call must draw every coin the per-node composes draw, set
    /// [`spoke`](FastCell::spoke), and do the bit accounting. It may
    /// defer building a message until `deliver_all`, as long as the built
    /// message equals the one composed here: nothing changes node state
    /// between the two calls.
    fn compose_all(&mut self, round: usize, rng: &mut StdRng, bit_limit: Option<u64>)
        -> (u64, u64);

    /// Delivers the composed messages along `topo` (per node, ascending
    /// neighbor order — the reference inbox order).
    fn deliver_all(&mut self, topo: &CsrTopology, round: usize, rng: &mut StdRng);

    /// Did `node` compose a message this round? Valid between
    /// `compose_all` and `deliver_all`; must equal
    /// `compose(node) == Some(_)` in the per-node protocol, because the
    /// delivery layer draws its radio/erasure coins per *speaking* node —
    /// a mismatch would desynchronize the private delivery RNG stream.
    fn spoke(&self, node: usize) -> bool;

    /// Global end-of-round hook (phase counters); defaults to a no-op.
    fn round_end(&mut self, _round: usize, _rng: &mut StdRng) {}

    /// Have all nodes locally terminated?
    fn all_done(&self) -> bool;

    /// The adversary/statistics view — must equal the per-node
    /// protocol's `view()` element for element (adaptive adversaries
    /// branch on it).
    fn view(&self) -> KnowledgeView;

    /// `(min_dim, max_dim, total_tokens, done)` of the current state, for
    /// a history row.
    fn history_stats(&self) -> (usize, usize, usize, usize);

    /// Does every node know every token (the dissemination
    /// postcondition asserted after a completed run)?
    fn fully_disseminated(&self) -> bool;
}

/// Any per-node [`Protocol`] as a [`FastCell`]: one message slot per
/// node and one reused inbox buffer.
///
/// Every protocol call is made with the same arguments in the same
/// order as the model's round (compose per node ascending; deliver for
/// **every** node from ascending neighbors — some protocols advance
/// state on an empty inbox; then the round-end hook), and the adapter
/// itself draws no coins.
pub struct ProtocolCell<P: Protocol> {
    protocol: P,
    /// This round's broadcasts, indexed by node.
    msgs: Vec<Option<P::Message>>,
    /// Reused inbox buffer.
    inbox: Vec<P::Message>,
}

impl<P: Protocol> ProtocolCell<P> {
    /// Wraps a fully built and seeded protocol.
    pub fn new(protocol: P) -> Self {
        let n = protocol.num_nodes();
        ProtocolCell {
            protocol,
            msgs: vec![None; n],
            inbox: Vec::new(),
        }
    }
}

impl<P: Protocol> FastCell for ProtocolCell<P> {
    fn num_nodes(&self) -> usize {
        self.msgs.len()
    }

    fn compose_all(
        &mut self,
        round: usize,
        rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        for u in 0..self.msgs.len() {
            let msg = self.protocol.compose(u, round, rng);
            if let Some(m) = &msg {
                let bits = self.protocol.message_bits(m);
                if let Some(limit) = bit_limit {
                    assert!(
                        bits <= limit,
                        "node {u} exceeded the message budget at round {round}: \
                         {bits} > {limit} bits"
                    );
                }
                round_bits += bits;
                round_max = round_max.max(bits);
            }
            self.msgs[u] = msg;
        }
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, round: usize, rng: &mut StdRng) {
        for u in 0..self.msgs.len() {
            self.inbox.clear();
            self.inbox.extend(
                topo.neighbors(u)
                    .iter()
                    .filter_map(|&v| self.msgs[v as usize].clone()),
            );
            self.protocol.deliver(u, &self.inbox, round, rng);
        }
    }

    fn spoke(&self, node: usize) -> bool {
        self.msgs[node].is_some()
    }

    fn round_end(&mut self, round: usize, rng: &mut StdRng) {
        self.protocol.round_end(round, rng);
    }

    fn all_done(&self) -> bool {
        (0..self.msgs.len()).all(|u| self.protocol.node_done(u))
    }

    fn view(&self) -> KnowledgeView {
        self.protocol.view()
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let v = self.protocol.view();
        (
            v.dims.iter().copied().min().unwrap_or(0),
            v.dims.iter().copied().max().unwrap_or(0),
            v.tokens.iter().map(|t| t.len()).sum(),
            v.done.iter().filter(|&&d| d).count(),
        )
    }

    fn fully_disseminated(&self) -> bool {
        let k = self.protocol.num_tokens();
        self.protocol.view().tokens.iter().all(|t| t.len() == k)
    }
}

/// Runs `cell` against `adversary` from `seed` until every node is done
/// or `config.max_rounds` elapse. This is the round loop.
///
/// The adversary draws from its **own** RNG stream (derived from `seed`
/// but domain-separated from the protocol's): topologies and protocol
/// coins are independent functions of the seed. This is what makes
/// recorded schedules exactly replayable — substituting a replay
/// adversary (which draws nothing) for the original stochastic one leaves
/// the protocol's random stream untouched, so the whole `RunResult` is
/// reproduced bit-for-bit. Non-reliable delivery draws from a third,
/// private stream ([`delivery_rng`]).
///
/// When telemetry is enabled the run's phase totals are emitted as
/// `kernel.csr`, `kernel.compose`, `kernel.gather` and `kernel.eliminate`
/// span events (see [`crate::phase`]).
///
/// # Panics
/// Panics if the adversary produces a disconnected or wrongly-sized
/// graph, or (in strict mode) if a message exceeds the bit limit.
pub fn run_fast(
    cell: &mut dyn FastCell,
    adversary: &mut dyn Adversary,
    config: &SimConfig,
    seed: u64,
) -> RunResult {
    let n = cell.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adv_rng = adversary_rng(seed);
    let mut csr = CsrTopology::new(n);
    // Non-reliable delivery: the planner draws its coins over the
    // committed topology, and the resulting directed plan is
    // materialized into its own CSR snapshot so the adversary snapshot's
    // delta reuse is untouched. Reliable delivery draws no coins.
    let mut delivery = config.delivery.model(seed);
    let mut masked = delivery.as_ref().map(|_| CsrTopology::new(n));
    let mut speaks: Vec<bool> = Vec::new();
    let mut total_bits = 0u64;
    let mut max_message_bits = 0u64;
    let mut history = Vec::new();
    // An oblivious adversary reads only the node count, so one blank
    // view serves the whole run and the cell builds none.
    let blank = adversary.oblivious().then(|| KnowledgeView::blank(n, 0));

    phase::elim_reset();
    let (mut t_view, mut t_compose, mut t_deliver) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut round = 0usize;
    let mut completed = cell.all_done();
    while !completed && round < config.max_rounds {
        let t0 = Instant::now();
        // 1. Adversary commits a topology from the current state.
        let built;
        let view = match &blank {
            Some(v) => v,
            None => {
                built = cell.view();
                &built
            }
        };
        let graph = adversary.topology(round, view, &mut adv_rng);
        assert_eq!(
            graph.num_nodes(),
            n,
            "adversary {} produced a graph of the wrong size",
            adversary.name()
        );
        assert!(
            graph.is_connected(),
            "adversary {} produced a disconnected graph at round {round}",
            adversary.name()
        );
        csr.load(&graph);

        let t1 = Instant::now();
        // 2. Nodes speak, neighbor-blind.
        let (round_bits, round_max) = cell.compose_all(round, &mut rng, config.bit_limit);
        total_bits += round_bits;
        max_message_bits = max_message_bits.max(round_max);

        let t2 = Instant::now();
        // 3. Anonymous broadcast delivery: along the committed topology,
        // or along the delivery model's per-round masked plan.
        match (&mut delivery, &mut masked) {
            (Some(model), Some(plan)) => {
                speaks.clear();
                speaks.extend((0..n).map(|u| cell.spoke(u)));
                model.plan_round(&speaks, &csr);
                plan.load_plan(model.offsets(), model.senders());
                cell.deliver_all(plan, round, &mut rng);
            }
            _ => cell.deliver_all(&csr, round, &mut rng),
        }
        cell.round_end(round, &mut rng);
        let t3 = Instant::now();
        t_view += t1 - t0;
        t_compose += t2 - t1;
        t_deliver += t3 - t2;

        if config.record_history {
            let (min_dim, max_dim, total_tokens, done) = cell.history_stats();
            history.push(RoundRecord {
                round,
                edges: graph.num_edges(),
                bits: round_bits,
                min_dim,
                max_dim,
                total_tokens,
                done,
            });
        }

        round += 1;
        completed = cell.all_done();
    }
    // Per-run phase totals as aggregate span events. `kernel.eliminate`
    // is what the cells accumulated around each receiver's inbox
    // (packet copies + inserts); `kernel.gather` is the rest of delivery
    // (message builds, unpacking, the inbox walk of saturated nodes).
    let elim_ns = phase::elim_take();
    if dyncode_obs::enabled() {
        let fields = || {
            vec![
                ("n".to_string(), dyncode_obs::Value::from(n)),
                ("rounds".to_string(), dyncode_obs::Value::from(round)),
            ]
        };
        let deliver_ns = t_deliver.as_nanos() as u64;
        for (name, ns) in [
            ("kernel.csr", t_view.as_nanos() as u64),
            ("kernel.compose", t_compose.as_nanos() as u64),
            ("kernel.gather", deliver_ns.saturating_sub(elim_ns)),
            ("kernel.eliminate", elim_ns),
        ] {
            dyncode_obs::emit(&dyncode_obs::Event::span_total(name, ns, fields()));
        }
    }

    RunResult {
        rounds: round,
        completed,
        total_bits,
        max_message_bits,
        adversary: adversary.name(),
        history,
    }
}

/// Runs `protocol` against `adversary` from `seed` until every node is
/// done or `config.max_rounds` elapse: [`run_fast`] over a
/// [`ProtocolCell`] that borrows `protocol`, so the caller can inspect
/// its final state afterwards.
///
/// # Panics
/// As [`run_fast`].
pub fn run<P: Protocol>(
    protocol: &mut P,
    adversary: &mut dyn Adversary,
    config: &SimConfig,
    seed: u64,
) -> RunResult {
    run_fast(&mut ProtocolCell::new(protocol), adversary, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::{RandomConnectedAdversary, ShuffledPathAdversary};
    use crate::bitset::BitSet;

    /// A toy protocol: node 0 holds a flag; every node repeats the flag
    /// once it has heard it. Terminates when everyone has it. This is
    /// 1-token flooding, so it must finish within the dynamic-flooding
    /// bound of n-1 rounds.
    struct Flood {
        n: usize,
        has: Vec<bool>,
    }

    impl Flood {
        fn new(n: usize) -> Self {
            let mut has = vec![false; n];
            has[0] = true;
            Flood { n, has }
        }
    }

    impl Protocol for Flood {
        type Message = ();

        fn num_nodes(&self) -> usize {
            self.n
        }

        fn num_tokens(&self) -> usize {
            1
        }

        fn compose(&mut self, node: NodeId, _round: usize, _rng: &mut StdRng) -> Option<()> {
            self.has[node].then_some(())
        }

        fn message_bits(&self, _msg: &()) -> u64 {
            1
        }

        fn deliver(&mut self, node: NodeId, inbox: &[()], _round: usize, _rng: &mut StdRng) {
            if !inbox.is_empty() {
                self.has[node] = true;
            }
        }

        fn node_done(&self, node: NodeId) -> bool {
            self.has[node]
        }

        fn view(&self) -> KnowledgeView {
            KnowledgeView {
                tokens: self
                    .has
                    .iter()
                    .map(|&h| {
                        let mut s = BitSet::new(1);
                        if h {
                            s.insert(0);
                        }
                        s
                    })
                    .collect(),
                dims: self.has.iter().map(|&h| h as usize).collect(),
                done: self.has.clone(),
            }
        }
    }

    #[test]
    fn flooding_completes_within_n_rounds_under_any_adversary() {
        for n in [2usize, 5, 20, 50] {
            for seed in 0..3u64 {
                let mut p = Flood::new(n);
                let mut adv = ShuffledPathAdversary;
                let cfg = SimConfig::with_max_rounds(2 * n);
                let r = run(&mut p, &mut adv, &cfg, seed);
                assert!(r.completed, "n={n} seed={seed}");
                // Connectivity guarantees ≥1 new node informed per round.
                assert!(r.rounds < n, "n={n}: took {} rounds", r.rounds);
            }
        }
    }

    #[test]
    fn bit_accounting_sums_broadcasts() {
        let mut p = Flood::new(4);
        let mut adv = RandomConnectedAdversary::new(0);
        let cfg = SimConfig::with_max_rounds(10).recording();
        let r = run(&mut p, &mut adv, &cfg, 1);
        assert!(r.completed);
        assert_eq!(r.max_message_bits, 1);
        // Each round, each informed node speaks 1 bit.
        let hist_bits: u64 = r.history.iter().map(|h| h.bits).sum();
        assert_eq!(hist_bits, r.total_bits);
        assert!(r.total_bits >= (r.rounds as u64), "at least node 0 speaks");
        // History dims are monotone in the number of informed nodes.
        for w in r.history.windows(2) {
            assert!(w[1].total_tokens >= w[0].total_tokens);
        }
    }

    #[test]
    #[should_panic(expected = "exceeded the message budget")]
    fn strict_bits_enforced() {
        struct Fat;
        impl Protocol for Fat {
            type Message = ();
            fn num_nodes(&self) -> usize {
                2
            }
            fn num_tokens(&self) -> usize {
                1
            }
            fn compose(&mut self, _n: NodeId, _r: usize, _g: &mut StdRng) -> Option<()> {
                Some(())
            }
            fn message_bits(&self, _m: &()) -> u64 {
                100
            }
            fn deliver(&mut self, _n: NodeId, _i: &[()], _r: usize, _g: &mut StdRng) {}
            fn node_done(&self, _n: NodeId) -> bool {
                false
            }
            fn view(&self) -> KnowledgeView {
                KnowledgeView::blank(2, 1)
            }
        }
        let mut p = Fat;
        let mut adv = RandomConnectedAdversary::new(0);
        let cfg = SimConfig::with_max_rounds(5).strict_bits(64);
        run(&mut p, &mut adv, &cfg, 0);
    }

    #[test]
    fn incomplete_run_reports_round_cap() {
        struct Silent;
        impl Protocol for Silent {
            type Message = ();
            fn num_nodes(&self) -> usize {
                3
            }
            fn num_tokens(&self) -> usize {
                1
            }
            fn compose(&mut self, _n: NodeId, _r: usize, _g: &mut StdRng) -> Option<()> {
                None
            }
            fn message_bits(&self, _m: &()) -> u64 {
                0
            }
            fn deliver(&mut self, _n: NodeId, _i: &[()], _r: usize, _g: &mut StdRng) {}
            fn node_done(&self, _n: NodeId) -> bool {
                false
            }
            fn view(&self) -> KnowledgeView {
                KnowledgeView::blank(3, 1)
            }
        }
        let mut p = Silent;
        let mut adv = RandomConnectedAdversary::new(0);
        let r = run(&mut p, &mut adv, &SimConfig::with_max_rounds(7), 0);
        assert!(!r.completed);
        assert_eq!(r.rounds, 7);
        assert_eq!(r.total_bits, 0);
    }

    #[test]
    fn erased_run_reproduces_monomorphized_run_exactly() {
        for n in [4usize, 12, 25] {
            for seed in 0..3u64 {
                let cfg = SimConfig::with_max_rounds(2 * n).recording();
                let mut p = Flood::new(n);
                let mut adv = RandomConnectedAdversary::new(1);
                let mono = run(&mut p, &mut adv, &cfg, seed);

                let mut e: Box<dyn ErasedProtocol> = Box::new(Erased::new(Flood::new(n)));
                let mut adv = RandomConnectedAdversary::new(1);
                let erased = run(&mut e, &mut adv, &cfg, seed);
                assert_eq!(mono, erased, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn erased_message_carries_inner_bit_pricing() {
        let mut e: Box<dyn ErasedProtocol> = Box::new(Erased::new(Flood::new(2)));
        let mut rng = StdRng::seed_from_u64(0);
        let msg = e.compose_erased(0, 0, &mut rng).expect("node 0 speaks");
        assert_eq!(msg.bits(), 1, "Flood prices every message at 1 bit");
        assert_eq!(e.message_bits(&msg), msg.bits());
    }

    #[test]
    fn already_done_protocol_takes_zero_rounds() {
        let mut p = Flood::new(1);
        let mut adv = RandomConnectedAdversary::new(0);
        let r = run(&mut p, &mut adv, &SimConfig::with_max_rounds(5), 0);
        assert!(r.completed);
        assert_eq!(r.rounds, 0);
    }
}

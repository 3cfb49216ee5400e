//! Integration checks of the model's contracts: bit budgets under strict
//! accounting, adversary validation, and the Lemma 5.3 / Corollary 2.6
//! shape guarantees at integration scale.

use dyncode::prelude::*;
use dyncode_dynet::adversaries::{RandomConnectedAdversary, ShuffledPathAdversary};
use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::Graph;
use rand::rngs::StdRng;

#[test]
fn every_protocol_respects_a_2b_message_budget() {
    // The paper allows O(b)-bit messages; all our protocols stay within
    // 2b (coded messages carry header + payload). Strict mode panics on
    // violation, so completing is the assertion.
    let params = Params::new(12, 12, 5, 15);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 3);
    let budget = 2 * params.b as u64;
    macro_rules! strict_run {
        ($proto:expr, $cap:expr) => {{
            let mut p = $proto;
            let mut adv = ShuffledPathAdversary;
            let r = run(
                &mut p,
                &mut adv,
                &SimConfig::with_max_rounds($cap).strict_bits(budget),
                5,
            );
            assert!(r.completed);
            assert!(r.max_message_bits <= budget);
        }};
    }
    strict_run!(TokenForwarding::baseline(&inst), 50_000);
    strict_run!(GreedyForward::new(&inst), 100_000);
    strict_run!(PriorityForward::new(&inst), 100_000);
    strict_run!(NaiveCoded::new(&inst), 100_000);
    strict_run!(Centralized::new(&inst), 20_000);
    // Indexed broadcast's wire is k + d bits by Lemma 5.3 (its own budget).
    let mut p = IndexedBroadcast::new(&inst);
    let wire = p.wire_bits();
    let mut adv = ShuffledPathAdversary;
    let r = run(
        &mut p,
        &mut adv,
        &SimConfig::with_max_rounds(20_000).strict_bits(wire),
        5,
    );
    assert!(r.completed);
}

#[test]
fn indexed_broadcast_scales_as_n_plus_k() {
    // Lemma 5.3 shape: rounds/(n + k) bounded across sizes.
    let mut ratios = Vec::new();
    for (n, k) in [(8usize, 8usize), (16, 16), (32, 32), (32, 8)] {
        let params = Params::new(n, k, 6, 64);
        let inst = Instance::generate(params, Placement::RoundRobin, 2);
        let mut p = IndexedBroadcast::new(&inst);
        let mut adv = ShuffledPathAdversary;
        let r = run(
            &mut p,
            &mut adv,
            &SimConfig::with_max_rounds(50 * (n + k)),
            7,
        );
        assert!(r.completed);
        ratios.push(r.rounds as f64 / (n + k) as f64);
    }
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    assert!(max < 6.0, "rounds/(n+k) ratios {ratios:?} should stay O(1)");
}

#[test]
fn centralized_is_linear_while_forwarding_is_quadratic() {
    // Corollary 2.6 vs Theorem 2.1 at b = d: Θ(n) vs Θ(nk).
    let mut ratio_growth = Vec::new();
    for n in [12usize, 24, 48] {
        let params = Params::new(n, n, 8, 8);
        let inst = Instance::generate(params, Placement::OneTokenPerNode, 4);
        let mut c = Centralized::new(&inst);
        let mut adv = RandomConnectedAdversary::new(1);
        let rc = run(&mut c, &mut adv, &SimConfig::with_max_rounds(100 * n), 3);
        assert!(rc.completed);
        let mut f = TokenForwarding::baseline(&inst);
        let mut adv2 = RandomConnectedAdversary::new(1);
        let rf = run(&mut f, &mut adv2, &SimConfig::with_max_rounds(2 * n * n), 3);
        assert!(rf.completed);
        ratio_growth.push(rf.rounds as f64 / rc.rounds as f64);
    }
    // The forwarding/centralized gap must widen with n (≈ linearly).
    assert!(
        ratio_growth[2] > 1.5 * ratio_growth[0],
        "separation should grow with n: {ratio_growth:?}"
    );
}

struct DisconnectedAdversary;

impl Adversary for DisconnectedAdversary {
    fn name(&self) -> String {
        "disconnected".into()
    }
    fn topology(&mut self, _r: usize, view: &KnowledgeView, _g: &mut StdRng) -> Graph {
        Graph::empty(view.num_nodes())
    }
}

#[test]
#[should_panic(expected = "disconnected")]
fn simulator_rejects_disconnected_topologies() {
    let params = Params::new(6, 6, 4, 8);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 1);
    let mut p = TokenForwarding::baseline(&inst);
    run(
        &mut p,
        &mut DisconnectedAdversary,
        &SimConfig::with_max_rounds(10),
        1,
    );
}

#[test]
#[should_panic(expected = "exceeded the message budget")]
fn strict_accounting_rejects_over_budget_forwarding_messages() {
    // Error path of the O(b) accounting: token forwarding speaks d-bit
    // messages, so a (d-1)-bit budget must abort the run immediately.
    let params = Params::new(8, 8, 6, 12);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 2);
    let mut p = TokenForwarding::baseline(&inst);
    let mut adv = ShuffledPathAdversary;
    run(
        &mut p,
        &mut adv,
        &SimConfig::with_max_rounds(1_000).strict_bits(params.d as u64 - 1),
        9,
    );
}

#[test]
#[should_panic(expected = "exceeded the message budget")]
fn strict_accounting_rejects_indexed_broadcast_one_bit_short() {
    // The tightest possible violation: indexed broadcast's wire format is
    // exactly `wire_bits()` on every round, so a budget one bit below it
    // must be rejected (and, per the test above this one in the ok-path
    // suite, exactly `wire_bits()` is accepted).
    let params = Params::new(10, 10, 5, 15);
    let inst = Instance::generate(params, Placement::RoundRobin, 4);
    let mut p = IndexedBroadcast::new(&inst);
    let wire = p.wire_bits();
    let mut adv = RandomConnectedAdversary::new(1);
    run(
        &mut p,
        &mut adv,
        &SimConfig::with_max_rounds(10_000).strict_bits(wire - 1),
        4,
    );
}

#[test]
fn strict_accounting_charges_the_compose_step_not_delivery() {
    // The budget applies to what a node *broadcasts*; silence is free. A
    // run under a generous budget must report max_message_bits equal to
    // the largest composed message, and that maximum must be reached
    // (the accounting is tight, not an over-approximation).
    let params = Params::new(8, 8, 5, 10);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 6);
    let mut p = TokenForwarding::baseline(&inst);
    let mut adv = ShuffledPathAdversary;
    let r = run(
        &mut p,
        &mut adv,
        &SimConfig::with_max_rounds(50_000).strict_bits(10_000),
        6,
    );
    assert!(r.completed);
    assert!(r.max_message_bits > 0, "someone must have spoken");
    assert!(r.total_bits >= r.max_message_bits);
    // Re-running with the observed maximum as the budget must succeed:
    // the reported max is exactly the strictest passing budget.
    let mut p2 = TokenForwarding::baseline(&inst);
    let mut adv2 = ShuffledPathAdversary;
    let r2 = run(
        &mut p2,
        &mut adv2,
        &SimConfig::with_max_rounds(50_000).strict_bits(r.max_message_bits),
        6,
    );
    assert!(r2.completed);
    assert_eq!(r2.max_message_bits, r.max_message_bits);
}

#[test]
fn recorded_schedules_replay_across_protocols() {
    // Record the topologies one protocol saw; replay them for another:
    // paired comparison on the identical schedule.
    use dyncode_dynet::trace::{RecordingAdversary, ReplayAdversary};
    let params = Params::new(10, 10, 5, 10);
    let inst = Instance::generate(params, Placement::OneTokenPerNode, 8);

    let (mut rec, trace) = RecordingAdversary::new(ShuffledPathAdversary);
    let mut fwd = TokenForwarding::baseline(&inst);
    let r1 = run(&mut fwd, &mut rec, &SimConfig::with_max_rounds(50_000), 4);
    assert!(r1.completed);

    drop(rec); // last recorder handle: from_shared takes the trace without copying
    let mut replay = ReplayAdversary::from_shared(trace);
    let mut coded = GreedyForward::new(&inst);
    let r2 = run(
        &mut coded,
        &mut replay,
        &SimConfig::with_max_rounds(200_000),
        4,
    );
    assert!(r2.completed && fully_disseminated(&coded));
}

/// Hands its inner adversary whatever view the round loop builds, and
/// keeps that view and the chosen topology. It is not oblivious itself,
/// so the loop always builds the nodes' real knowledge view for it.
struct ViewProbe {
    inner: Box<dyn Adversary>,
    views: Vec<KnowledgeView>,
    graphs: Vec<Graph>,
}

impl Adversary for ViewProbe {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn topology(&mut self, round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let g = self.inner.topology(round, view, rng);
        self.views.push(view.clone());
        self.graphs.push(g.clone());
        g
    }
}

#[test]
fn oblivious_adversaries_choose_the_same_schedule_from_a_blank_view() {
    // An adversary that claims `oblivious()` gets one blank node-count
    // view per run instead of the real one, so its schedule must not
    // depend on the view. Run an indexed-broadcast cell against each
    // adversary with the real per-round views, then replay the adversary
    // from the same adversary seed on the blank view. The equivalence
    // suites cannot catch a wrong `true`: both kernels would see the
    // same blank view.
    use dyncode::engine::AdversaryKind;
    use dyncode::scenarios::{record_scenario, DctReplay, ScenarioKind};
    use dyncode_dynet::adversaries::{StaticAdversary, TIntervalAdversary};
    use dyncode_dynet::simulator::adversary_rng;
    use dyncode_dynet::trace::ReplayAdversary;
    use rand::SeedableRng;
    use std::io::Cursor;

    let n = 24;
    let seed = 5;
    let inst = Instance::generate(Params::new(n, n, 6, 12), Placement::OneTokenPerNode, 3);
    let mut dct = Cursor::new(Vec::new());
    let scenario = ScenarioKind::parse("edge-markov(0.1,0.3)").unwrap();
    record_scenario(&scenario, n, 40, seed, &mut dct).unwrap();
    let dct = dct.into_inner();
    let mut graph_rng = StdRng::seed_from_u64(9);
    let replayed: Vec<Graph> = (0..30)
        .map(|_| dyncode_dynet::generators::random_connected(n, 2, &mut graph_rng))
        .collect();

    type Make = Box<dyn Fn() -> Box<dyn Adversary>>;
    let mut adversaries: Vec<(String, Make)> = [
        "shuffled-path",
        "shuffled-star",
        "bottleneck",
        "knowledge-adaptive",
        "random-connected",
        "edge-markov(0.1,0.3)",
        "waypoint(0.3,0.05)",
        "churn(0.2,random-connected)",
        "churn(0.2,knowledge-adaptive)",
    ]
    .into_iter()
    .map(|s| {
        let kind = AdversaryKind::parse(s).unwrap();
        (s.to_string(), Box::new(move || kind.build(1)) as Make)
    })
    .collect();
    adversaries.push((
        "trace(.dct)".into(),
        Box::new(move || Box::new(DctReplay::new(Cursor::new(dct.clone())).unwrap())),
    ));
    adversaries.push((
        "replay".into(),
        Box::new(move || Box::new(ReplayAdversary::from_graphs(&replayed))),
    ));
    adversaries.push((
        "static-path".into(),
        Box::new(move || Box::new(StaticAdversary::path(n))),
    ));
    adversaries.push((
        "t-interval".into(),
        Box::new(|| Box::new(TIntervalAdversary::new(4, 3))),
    ));

    for (name, make) in &adversaries {
        for t in [1, 3] {
            let build = || -> Box<dyn Adversary> {
                if t == 1 {
                    make()
                } else {
                    Box::new(TStable::new(make(), t))
                }
            };
            let ctx = format!("{name} t={t}");
            let mut probe = ViewProbe {
                inner: build(),
                views: Vec::new(),
                graphs: Vec::new(),
            };
            let mut p = IndexedBroadcast::new(&inst);
            let r = run(
                &mut p,
                &mut probe,
                &SimConfig::with_max_rounds(50 * n),
                seed,
            );
            assert!(r.completed, "{ctx}");
            assert!(
                probe
                    .views
                    .iter()
                    .any(|v| v.tokens.iter().any(|s| !s.is_empty())),
                "{ctx}: the real views must carry node state"
            );

            let mut adv = build();
            let mut rng = adversary_rng(seed);
            let blank = KnowledgeView::blank(n, 0);
            let schedule: Vec<Graph> = (0..probe.graphs.len())
                .map(|round| adv.topology(round, &blank, &mut rng))
                .collect();
            let adaptive = name.contains("knowledge-adaptive");
            assert_eq!(adv.oblivious(), !adaptive, "{ctx}");
            if adaptive {
                assert_ne!(
                    schedule, probe.graphs,
                    "{ctx}: the blank view must change an adaptive schedule"
                );
            } else {
                assert_eq!(schedule, probe.graphs, "{ctx}");
            }
        }
    }
}

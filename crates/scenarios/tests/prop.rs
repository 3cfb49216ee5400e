//! Property tests for the workload subsystem: every generated topology
//! honors the KLO connectivity invariant (over the full node set, and —
//! for churn — over the active subset), and the `.dct` format round-trips
//! arbitrary schedules, including empty-delta and full-rewire rounds.
//! The waypoint model's grid path is checked graph for graph against a
//! direct all-pairs oracle.

use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::trace::DeltaTrace;
use dyncode_scenarios::dct::{decode_trace, encode_trace, DctReader, DctWriter};
use dyncode_scenarios::{ChurnAdversary, EdgeMarkovAdversary, ScenarioKind, WaypointAdversary};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn check_all_rounds_connected(adv: &mut dyn Adversary, n: usize, rounds: usize, seed: u64) {
    let view = KnowledgeView::blank(n, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let g = adv.topology(round, &view, &mut rng);
        assert_eq!(g.num_nodes(), n, "{} at round {round}", adv.name());
        assert!(
            g.is_connected(),
            "{} disconnected at round {round} (n={n}, seed={seed})",
            adv.name()
        );
    }
}

/// Connectivity of the subgraph induced on `active`.
fn induced_connected(g: &Graph, active: &[bool]) -> bool {
    let ids: Vec<usize> = (0..g.num_nodes()).filter(|&u| active[u]).collect();
    if ids.len() <= 1 {
        return true;
    }
    let mut sub = Graph::empty(ids.len());
    for (a, &u) in ids.iter().enumerate() {
        for (b, &v) in ids.iter().enumerate().skip(a + 1) {
            if g.has_edge(u, v) {
                sub.add_edge(a, b);
            }
        }
    }
    sub.is_connected()
}

/// The waypoint model computed the direct way, kept here only as the
/// reference for its grid-bucketed implementation: the same coins in the
/// same order, an all-pairs unit-disk scan, and a repair that recomputes
/// components and scans every pair for each bridge.
struct WaypointOracle {
    radius: f64,
    speed: f64,
    pos: Vec<[f64; 2]>,
    dst: Vec<[f64; 2]>,
}

impl WaypointOracle {
    fn rand_point(rng: &mut StdRng) -> [f64; 2] {
        [rng.random::<f64>(), rng.random::<f64>()]
    }

    fn d2(&self, u: usize, v: usize) -> f64 {
        let (ax, ay) = (self.pos[u][0], self.pos[u][1]);
        let (bx, by) = (self.pos[v][0], self.pos[v][1]);
        (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
    }

    fn topology(&mut self, n: usize, rng: &mut StdRng) -> Graph {
        if self.pos.len() != n {
            self.pos = (0..n).map(|_| Self::rand_point(rng)).collect();
            self.dst = (0..n).map(|_| Self::rand_point(rng)).collect();
        } else {
            for i in 0..n {
                let [px, py] = self.pos[i];
                let [dx, dy] = self.dst[i];
                let (vx, vy) = (dx - px, dy - py);
                let dist = (vx * vx + vy * vy).sqrt();
                if dist <= self.speed {
                    self.pos[i] = self.dst[i];
                    self.dst[i] = Self::rand_point(rng);
                } else {
                    let scale = self.speed / dist;
                    self.pos[i] = [px + vx * scale, py + vy * scale];
                }
            }
        }
        let mut g = Graph::empty(n);
        let r2 = self.radius * self.radius;
        for u in 0..n {
            for v in (u + 1)..n {
                if self.d2(u, v) <= r2 {
                    g.add_edge(u, v);
                }
            }
        }
        loop {
            let comps = dyncode_scenarios::repair::components(&g);
            if comps.len() <= 1 {
                return g;
            }
            let mut comp_of = vec![0usize; n];
            for (ci, comp) in comps.iter().enumerate() {
                for &u in comp {
                    comp_of[u] = ci;
                }
            }
            let mut best: Option<(f64, usize, usize)> = None;
            for u in 0..n {
                for v in (u + 1)..n {
                    let d2 = self.d2(u, v);
                    if comp_of[u] != comp_of[v] && best.is_none_or(|(bd, _, _)| d2 < bd) {
                        best = Some((d2, u, v));
                    }
                }
            }
            let (_, u, v) = best.expect("≥2 components have a cross pair");
            g.add_edge(u, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grid-bucketed waypoint model emits exactly the oracle's graph
    /// every round, across tiny radii (all-repair rounds), radii past the
    /// unit square's diagonal (one cell, complete graphs) and between.
    #[test]
    fn waypoint_grid_matches_all_pairs_oracle(
        n in 1usize..200,
        radius in prop_oneof![
            Just(1e-6),
            Just(0.02),
            Just(0.25),
            Just(std::f64::consts::SQRT_2),
            Just(1.5),
            (1_000u32..500_000).prop_map(|um| um as f64 / 1e6),
            (1_000u32..500_000).prop_map(|um| um as f64 / 1e6),
        ],
        speed_um in 1_000u32..300_000,
        seed in any::<u64>(),
    ) {
        let speed = speed_um as f64 / 1e6;
        let mut adv = WaypointAdversary::new(radius, speed);
        let mut oracle = WaypointOracle { radius, speed, pos: Vec::new(), dst: Vec::new() };
        let view = KnowledgeView::blank(n, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        for round in 0..4 {
            let got = adv.topology(round, &view, &mut rng);
            let want = oracle.topology(n, &mut oracle_rng);
            prop_assert_eq!(got.edges(), want.edges(), "round {}", round);
        }
    }
}

proptest! {
    #[test]
    fn edge_markov_stays_connected(
        n in 1usize..28,
        seed in any::<u64>(),
        up_pm in 1u32..400,
        down_pm in 0u32..1000,
    ) {
        let mut adv = EdgeMarkovAdversary::new(up_pm as f64 / 1000.0, down_pm as f64 / 1000.0);
        check_all_rounds_connected(&mut adv, n, 20, seed);
    }

    #[test]
    fn waypoint_stays_connected(
        n in 1usize..24,
        seed in any::<u64>(),
        radius_pm in 10u32..800,
        speed_pm in 1u32..300,
    ) {
        let mut adv = WaypointAdversary::new(radius_pm as f64 / 1000.0, speed_pm as f64 / 1000.0);
        check_all_rounds_connected(&mut adv, n, 20, seed);
    }

    #[test]
    fn churn_stays_connected_on_full_and_active_sets(
        n in 2usize..24,
        seed in any::<u64>(),
        rate_pm in 0u32..600,
    ) {
        let mut adv = ChurnAdversary::new(
            EdgeMarkovAdversary::new(0.08, 0.2),
            rate_pm as f64 / 1000.0,
        );
        let view = KnowledgeView::blank(n, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..25 {
            let g = adv.topology(round, &view, &mut rng);
            prop_assert!(g.is_connected(), "full graph disconnected at round {round}");
            prop_assert!(
                induced_connected(&g, adv.active()),
                "active core disconnected at round {round}"
            );
        }
    }

    #[test]
    fn parsed_scenarios_stay_connected(which in 0usize..4, n in 1usize..20, seed in any::<u64>()) {
        let spec = [
            "edge-markov(0.05,0.25)",
            "waypoint(0.3,0.06)",
            "churn(0.2,random-connected)",
            "churn(0.1,waypoint(0.4,0.05))",
        ][which];
        let mut adv = ScenarioKind::parse(spec).unwrap().build();
        check_all_rounds_connected(adv.as_mut(), n, 15, seed);
    }

    /// encode(trace) |> stream-decode == trace, on random schedules that
    /// deliberately include an empty-delta round (a repeated graph) and a
    /// full-rewire round (path → disjoint star edge set).
    #[test]
    fn dct_encode_stream_decode_round_trips(
        n in 2usize..24,
        rounds in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adv = EdgeMarkovAdversary::new(0.1, 0.3);
        let view = KnowledgeView::blank(n, 1);
        let mut graphs: Vec<Graph> =
            (0..rounds).map(|r| adv.topology(r, &view, &mut rng)).collect();
        // Force an empty delta: repeat the last graph verbatim.
        graphs.push(graphs[rounds - 1].clone());
        // Force a full rewire: a path in a random order shares no edge
        // representation guarantees with the Markov state.
        let order = dyncode_dynet::generators::random_permutation(n, &mut rng);
        graphs.push(dyncode_dynet::generators::path_with_order(&order));

        let mut trace = DeltaTrace::new(0);
        for g in &graphs {
            trace.push(g);
        }
        let trace_seed = rng.random::<u64>();
        let bytes = encode_trace(&trace, trace_seed);

        // In-memory decode: exact DeltaTrace equality.
        let (header, back) = decode_trace(&bytes).unwrap();
        prop_assert_eq!(header.n, n);
        prop_assert_eq!(header.rounds, graphs.len() as u64);
        prop_assert_eq!(header.seed, trace_seed);
        prop_assert_eq!(&back, &trace);

        // Streaming decode: graph-by-graph equality, then clean EOF.
        let mut reader = DctReader::new(std::io::Cursor::new(bytes)).unwrap();
        for (r, g) in graphs.iter().enumerate() {
            let decoded = reader.next_graph().unwrap();
            prop_assert_eq!(decoded.as_ref(), Some(g), "round {}", r);
        }
        prop_assert!(reader.next_graph().unwrap().is_none());
    }

    /// Writing graphs and writing their flip lists produce identical bytes.
    #[test]
    fn push_and_push_flips_agree(n in 2usize..16, rounds in 1usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adv = WaypointAdversary::new(0.4, 0.1);
        let view = KnowledgeView::blank(n, 1);
        let graphs: Vec<Graph> =
            (0..rounds).map(|r| adv.topology(r, &view, &mut rng)).collect();
        let mut trace = DeltaTrace::new(0);
        for g in &graphs {
            trace.push(g);
        }

        let mut by_graph = DctWriter::new(std::io::Cursor::new(Vec::new()), n, 1).unwrap();
        for g in &graphs {
            by_graph.push(g).unwrap();
        }
        let a = by_graph.finish().unwrap().into_inner();

        let mut by_flips = DctWriter::new(std::io::Cursor::new(Vec::new()), n, 1).unwrap();
        for r in 0..trace.len() {
            by_flips.push_flips(trace.flips(r)).unwrap();
        }
        let b = by_flips.finish().unwrap().into_inner();
        prop_assert_eq!(a, b);
    }
}

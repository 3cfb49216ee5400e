//! The edge-Markov evolving-graph model: every potential edge is an
//! independent two-state Markov chain (absent → present with probability
//! `p_up`, present → absent with probability `p_down`), the standard
//! stochastic model of dynamic networks (Clementi et al.'s
//! edge-Markovian dynamic graphs). A connectivity-repair overlay
//! ([`crate::repair`]) keeps every emitted round connected, as the KLO
//! model requires.
//!
//! A round costs O(m + births), not one coin per vertex pair: births are
//! drawn by geometric gap sampling ([`bernoulli_ids`], after Batagelj &
//! Brandes, "Efficient generation of large random networks", Phys. Rev.
//! E 71, 2005), and each present edge draws one death coin.

use crate::repair;
use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::trace::{graph_from_ids, id_to_edge};
use rand::rngs::StdRng;
use rand::RngExt;

/// Appends to `out`, in increasing order, each index of `0..len`
/// independently with probability `p`, in time proportional to the
/// number selected: the gap before the next selected index is
/// geometric, drawn by inversion as `⌊ln U / ln(1 − p)⌋`.
pub fn bernoulli_ids(len: u64, p: f64, rng: &mut StdRng, out: &mut Vec<u64>) {
    if p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..len);
        return;
    }
    let log_q = ln_1p(-p);
    let mut next = 0u64;
    while next < len {
        // 1 − U lies in [2⁻⁵³, 1], so the log is finite and ≤ 0.
        let u: f64 = rng.random();
        let gap = (ln(1.0 - u) / log_q).floor();
        // Compare in f64 first: a gap past `len` ends the walk without
        // ever reaching the saturating cast.
        if gap >= (len - next) as f64 {
            return;
        }
        let id = next + gap as u64;
        if id >= len {
            return;
        }
        out.push(id);
        next = id + 1;
    }
}

/// `ln x` for a normal `x > 0`, built from IEEE basic operations only,
/// within a few ulps. Platform `log`s may differ in the last ulp, which
/// could move a sampled gap; this one gives every platform the same
/// schedule from the same seed, and keeps libm out of the binary.
fn ln(x: f64) -> f64 {
    debug_assert!(x.is_normal() && x > 0.0, "ln of {x}");
    // x = m · 2^e with m in [√½, √2).
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let mut m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    if m > std::f64::consts::SQRT_2 {
        m /= 2.0;
        e += 1;
    }
    // ln m = 2·atanh(s) = 2·(s + s³/3 + s⁵/5 + …) with |s| < 0.172; the
    // terms past s²³/23 fall below 2⁻⁵⁶ relative to s.
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let mut poly = 1.0 / 23.0;
    for d in (1..=21).rev().step_by(2) {
        poly = poly * s2 + 1.0 / d as f64;
    }
    f64::from(e) * std::f64::consts::LN_2 + 2.0 * s * poly
}

/// `ln(1 + x)` for `x > −1`, accurate for tiny `x` (Goldberg's
/// correction: the rounding in `1 + x` cancels between `ln u` and
/// `u − 1`).
fn ln_1p(x: f64) -> f64 {
    let u = 1.0 + x;
    if u == 1.0 {
        x
    } else {
        ln(u) * x / (u - 1.0)
    }
}

/// The edge-Markov adversary. Oblivious: ignores node knowledge.
pub struct EdgeMarkovAdversary {
    p_up: f64,
    p_down: f64,
    /// Sorted edge ids of the chain state (repair edges excluded).
    state: Vec<u64>,
    /// Node count the state was built for (0 = uninitialized).
    n: usize,
}

impl EdgeMarkovAdversary {
    /// Creates the model with birth probability `p_up` and death
    /// probability `p_down` per edge per round.
    ///
    /// # Panics
    /// Panics unless `0 < p_up ≤ 1` and `0 ≤ p_down ≤ 1`.
    pub fn new(p_up: f64, p_down: f64) -> Self {
        assert!(p_up > 0.0 && p_up <= 1.0, "p_up must be in (0, 1]");
        assert!((0.0..=1.0).contains(&p_down), "p_down must be in [0, 1]");
        EdgeMarkovAdversary {
            p_up,
            p_down,
            state: Vec::new(),
            n: 0,
        }
    }

    /// The stationary per-edge presence probability
    /// `p_up / (p_up + p_down)`, used to seed round 0 so the chain starts
    /// in (approximate) equilibrium instead of from the empty graph.
    pub fn stationary_p(&self) -> f64 {
        self.p_up / (self.p_up + self.p_down)
    }

    fn max_id(n: usize) -> u64 {
        (n as u64) * (n as u64).saturating_sub(1) / 2
    }

    fn init(&mut self, n: usize, rng: &mut StdRng) {
        self.state.clear();
        bernoulli_ids(Self::max_id(n), self.stationary_p(), rng, &mut self.state);
        self.n = n;
    }

    /// One chain step. Birth candidates are drawn over all pairs at
    /// `p_up` and those already present are ignored, so each absent pair
    /// is born with probability exactly `p_up`; then every present edge
    /// draws one death coin, in id order.
    fn evolve(&mut self, rng: &mut StdRng) {
        let mut births = Vec::new();
        bernoulli_ids(Self::max_id(self.n), self.p_up, rng, &mut births);
        let mut next = Vec::with_capacity(self.state.len() + births.len());
        let mut births = births.into_iter().peekable();
        for &id in &self.state {
            while let Some(b) = births.next_if(|&b| b < id) {
                next.push(b);
            }
            births.next_if(|&b| b == id);
            if !rng.random_bool(self.p_down) {
                next.push(id);
            }
        }
        next.extend(births);
        self.state = next;
    }
}

impl Adversary for EdgeMarkovAdversary {
    fn name(&self) -> String {
        format!("edge-markov({},{})", self.p_up, self.p_down)
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if self.n != n {
            self.init(n, rng);
        } else {
            self.evolve(rng);
        }
        let mut g = graph_from_ids(n, &self.state);
        repair::connect_components(&mut g, rng);
        debug_assert!(self.state.iter().all(|&id| {
            let (u, v) = id_to_edge(id);
            g.has_edge(u, v)
        }));
        g
    }

    fn oblivious(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn always_connected_and_right_sized() {
        let mut adv = EdgeMarkovAdversary::new(0.05, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 5, 20] {
            let view = KnowledgeView::blank(n, 3);
            for round in 0..25 {
                let g = adv.topology(round, &view, &mut rng);
                assert_eq!(g.num_nodes(), n);
                assert!(g.is_connected(), "n={n} round={round}");
            }
        }
    }

    #[test]
    fn edges_persist_more_than_they_churn() {
        // With p_down small, consecutive rounds share most edges — the
        // whole point of the delta-encoded trace format.
        let mut adv = EdgeMarkovAdversary::new(0.02, 0.05);
        let view = KnowledgeView::blank(24, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let a = adv.topology(0, &view, &mut rng);
        let b = adv.topology(1, &view, &mut rng);
        let shared = a.edges().iter().filter(|&&(u, v)| b.has_edge(u, v)).count();
        assert!(
            shared * 2 > a.num_edges(),
            "most edges should survive one step: {shared}/{}",
            a.num_edges()
        );
        assert_ne!(a.edges(), b.edges(), "but some churn must happen");
    }

    #[test]
    fn stationary_density_is_tracked() {
        let mut adv = EdgeMarkovAdversary::new(0.1, 0.1); // stationary 1/2
        let view = KnowledgeView::blank(30, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let g = adv.topology(0, &view, &mut rng);
        let pairs = 30 * 29 / 2;
        let density = g.num_edges() as f64 / pairs as f64;
        assert!((0.35..0.65).contains(&density), "density {density}");
    }

    #[test]
    fn portable_ln_tracks_the_platform_log() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut inputs = vec![
            1.0,
            0.5,
            2f64.powi(-53),
            1.0 - 2f64.powi(-53),
            0.75,
            3.0,
            1e300,
        ];
        inputs.extend((0..20_000).map(|_| 1.0 - rng.random::<f64>()));
        for x in inputs {
            let (got, want) = (ln(x), x.ln());
            assert!(
                (got - want).abs() <= 4.0 * f64::EPSILON * want.abs(),
                "ln({x}) = {got}, want {want}"
            );
        }
        for x in [-0.999_999, -0.5, -0.25, -1e-3, -1e-9, -1e-12, -1e-300, 0.0] {
            let (got, want) = (ln_1p(x), x.ln_1p());
            assert!(
                (got - want).abs() <= 8.0 * f64::EPSILON * want.abs(),
                "ln_1p({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn bernoulli_ids_edge_cases() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        bernoulli_ids(1000, 0.0, &mut rng, &mut out);
        assert!(out.is_empty(), "p = 0 selects nothing");
        bernoulli_ids(7, 1.0, &mut rng, &mut out);
        assert_eq!(out, (0..7).collect::<Vec<_>>(), "p = 1 selects everything");
        out.clear();
        for p in [0.0, 1e-12, 0.5, 1.0] {
            bernoulli_ids(0, p, &mut rng, &mut out);
        }
        assert!(out.is_empty(), "len = 0 selects nothing");
        // Gaps near 1e13 on a 2^50 range: about 1126 hits, no overflow.
        bernoulli_ids(1 << 50, 1e-12, &mut rng, &mut out);
        assert!((900..1400).contains(&out.len()), "{} hits", out.len());
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert!(out.iter().all(|&id| id < 1 << 50));
        // Gaps beyond u64: the walk ends instead of wrapping.
        out.clear();
        bernoulli_ids(u64::MAX, 1e-300, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bernoulli_ids_are_binomial_and_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let (len, p, reps) = (2000u64, 0.03, 400);
        let mut per_slot = [0u64; 40];
        let mut counts = Vec::new();
        let mut out = Vec::new();
        for _ in 0..reps {
            out.clear();
            bernoulli_ids(len, p, &mut rng, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]) && out.iter().all(|&id| id < len));
            counts.push((len, out.len() as u64));
            for &id in &out {
                per_slot[(id * 40 / len) as usize] += 1;
            }
        }
        check_binomial("bernoulli_ids count", &counts, p);
        // Each fortieth of the range is itself Binomial(reps·len/40, p).
        let slots: Vec<_> = per_slot.iter().map(|&c| (reps * len / 40, c)).collect();
        check_binomial("bernoulli_ids slots", &slots, p);
    }

    /// Asserts that `(trials, successes)` observations fit independent
    /// Binomial(trials, p) draws: the standardized counts must have mean 0
    /// and variance 1 within four standard errors.
    fn check_binomial(what: &str, obs: &[(u64, u64)], p: f64) {
        let pq = p * (1.0 - p);
        let (mut sum, mut sum_sq, mut kurt, mut m) = (0.0, 0.0, 0.0, 0.0);
        for &(trials, hits) in obs.iter().filter(|&&(t, _)| t > 0) {
            let var = trials as f64 * pq;
            let z = (hits as f64 - trials as f64 * p) / var.sqrt();
            sum += z;
            sum_sq += z * z;
            kurt += (1.0 - 6.0 * pq) / var;
            m += 1.0;
        }
        assert!(m >= 30.0, "{what}: only {m} informative observations");
        let mean = sum / m;
        let var = sum_sq / m - mean * mean;
        let mean_z = mean * m.sqrt();
        // Var of a standardized sample variance ≈ (2 + excess kurtosis)/m.
        let var_se = ((2.0 + kurt / m) / m).sqrt();
        assert!(mean_z.abs() < 4.0, "{what}: mean z-score {mean_z:.2}");
        assert!(
            (var - 1.0).abs() < 4.0 * var_se,
            "{what}: variance ratio {var:.3} (se {var_se:.3})"
        );
    }

    /// The chain's distribution over many seeds at small n: the round-0
    /// density, per-round births over absent pairs and per-round deaths
    /// over present edges, each against its binomial.
    #[test]
    fn chain_counts_match_their_binomials() {
        let n = 16;
        let pairs = EdgeMarkovAdversary::max_id(n);
        for (p_up, p_down) in [(0.1, 0.3), (0.02, 0.5), (0.4, 0.05)] {
            let (mut initial, mut births, mut deaths) = (Vec::new(), Vec::new(), Vec::new());
            for seed in 0..300 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut adv = EdgeMarkovAdversary::new(p_up, p_down);
                adv.init(n, &mut rng);
                initial.push((pairs, adv.state.len() as u64));
                for _ in 0..8 {
                    let before = adv.state.clone();
                    adv.evolve(&mut rng);
                    let kept = before
                        .iter()
                        .filter(|id| adv.state.binary_search(id).is_ok());
                    let kept = kept.count() as u64;
                    let present = before.len() as u64;
                    births.push((pairs - present, adv.state.len() as u64 - kept));
                    deaths.push((present, present - kept));
                }
            }
            let what = format!("edge-markov({p_up},{p_down})");
            let stationary = p_up / (p_up + p_down);
            check_binomial(&format!("{what} round-0 density"), &initial, stationary);
            check_binomial(&format!("{what} births"), &births, p_up);
            check_binomial(&format!("{what} deaths"), &deaths, p_down);
        }
    }

    #[test]
    fn degenerate_probabilities_are_exact() {
        let view = KnowledgeView::blank(9, 2);
        let pairs = EdgeMarkovAdversary::max_id(9);
        let mut rng = StdRng::seed_from_u64(6);
        // p_up = 1, p_down = 1: every pair flips every round.
        let mut adv = EdgeMarkovAdversary::new(1.0, 1.0);
        adv.topology(0, &view, &mut rng);
        for round in 1..6 {
            let before = adv.state.clone();
            adv.topology(round, &view, &mut rng);
            let flipped: Vec<u64> = (0..pairs)
                .filter(|id| before.binary_search(id).is_err())
                .collect();
            assert_eq!(adv.state, flipped, "round {round}");
        }
        // p_up = 1, p_down = 0: complete from round 0 on.
        let mut adv = EdgeMarkovAdversary::new(1.0, 0.0);
        for round in 0..4 {
            let g = adv.topology(round, &view, &mut rng);
            assert_eq!(g.num_edges() as u64, pairs, "round {round}");
        }
        // p_down = 0: edges never die.
        let mut adv = EdgeMarkovAdversary::new(0.2, 0.0);
        adv.topology(0, &view, &mut rng);
        for round in 1..6 {
            let before = adv.state.clone();
            adv.topology(round, &view, &mut rng);
            assert!(before.iter().all(|id| adv.state.binary_search(id).is_ok()));
        }
    }

    #[test]
    fn tiny_node_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [0usize, 1, 2] {
            for (p_up, p_down) in [(1.0, 1.0), (0.5, 0.0), (0.3, 0.6)] {
                let mut adv = EdgeMarkovAdversary::new(p_up, p_down);
                let view = KnowledgeView::blank(n, 1);
                for round in 0..5 {
                    let g = adv.topology(round, &view, &mut rng);
                    assert_eq!(g.num_nodes(), n);
                    assert!(g.is_connected(), "n={n} round={round}");
                    assert!(adv.state.len() as u64 <= EdgeMarkovAdversary::max_id(n));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "p_up must be in (0, 1]")]
    fn zero_p_up_rejected() {
        let _ = EdgeMarkovAdversary::new(0.0, 0.5);
    }
}

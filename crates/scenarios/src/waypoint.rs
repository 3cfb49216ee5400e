//! Random-waypoint mobility on the unit square: each node walks toward a
//! uniformly chosen waypoint at constant speed, redrawing a fresh
//! waypoint on arrival; the round's communication graph is the unit-disk
//! graph of the positions (an edge whenever two nodes are within the
//! communication radius). The classic MANET mobility model.
//!
//! Unit-disk graphs disconnect routinely at small radii, so the emitted
//! topology gets a *geometric* connectivity repair: while more than one
//! component remains, the globally closest pair of nodes in different
//! components is bridged — the minimal-length cable that an operator
//! would string. Ties go to the smallest `(d², lo, hi)`.
//!
//! A round costs O(n + m) plus the repair's ring searches: nodes are
//! bucketed into a uniform grid whose cells are at least `radius` wide,
//! so every unit-disk neighbour of a node lies in its 3×3 cell
//! neighbourhood, and the closest cross-component pair is found by
//! searching outward from the nodes outside the largest component, ring
//! by ring, until a ring's lower bound exceeds the best pair so far.

use dyncode_dynet::adversary::{Adversary, KnowledgeView};
use dyncode_dynet::graph::Graph;
use dyncode_dynet::trace::graph_from_ids;
use rand::rngs::StdRng;
use rand::RngExt;

/// Slack on grid-derived bounds (relative on the cell width, absolute
/// on ring distances): far above the rounding in a cell index, far
/// below any distance that matters.
const BOUND_SLACK: f64 = 1e-9;

/// The random-waypoint adversary. Oblivious: ignores node knowledge.
pub struct WaypointAdversary {
    radius: f64,
    speed: f64,
    pos: Vec<[f64; 2]>,
    dst: Vec<[f64; 2]>,
    grid: Grid,
}

/// A uniform bucket grid over the unit square: `side × side` cells of
/// width `1/side`, rebuilt each round by a counting sort on cell index.
#[derive(Default)]
struct Grid {
    side: usize,
    /// `(column, row)` of each node.
    cell: Vec<(usize, usize)>,
    /// `start[c]..start[c + 1]` is cell `c`'s range of `nodes`.
    start: Vec<usize>,
    /// Node ids grouped by cell, ascending within a cell.
    nodes: Vec<usize>,
}

impl Grid {
    /// The side count for `n` nodes at `radius`: cells at least `radius`
    /// wide (with a relative margin that absorbs rounding in the cell
    /// index), and never more cells than nodes.
    fn side_for(radius: f64, n: usize) -> usize {
        let fit = (1.0 / (radius * (1.0 + BOUND_SLACK))) as usize;
        let cap = (n as f64).sqrt() as usize;
        fit.min(cap).max(1)
    }

    fn rebuild(&mut self, pos: &[[f64; 2]], radius: f64) {
        let side = Self::side_for(radius, pos.len());
        self.side = side;
        // Saturating casts send anything below 0 to cell 0.
        let coord = |x: f64| ((x * side as f64) as usize).min(side - 1);
        self.cell.clear();
        self.cell
            .extend(pos.iter().map(|&[x, y]| (coord(x), coord(y))));
        self.start.clear();
        self.start.resize(side * side + 1, 0);
        for &(cx, cy) in &self.cell {
            self.start[cy * side + cx + 1] += 1;
        }
        for c in 0..side * side {
            self.start[c + 1] += self.start[c];
        }
        self.nodes.clear();
        self.nodes.resize(pos.len(), 0);
        let mut fill = self.start[..side * side].to_vec();
        for (u, &(cx, cy)) in self.cell.iter().enumerate() {
            let c = cy * side + cx;
            self.nodes[fill[c]] = u;
            fill[c] += 1;
        }
    }

    /// The nodes in cell `(cx, cy)`, ascending.
    fn cell_nodes(&self, cx: usize, cy: usize) -> &[usize] {
        let c = cy * self.side + cx;
        &self.nodes[self.start[c]..self.start[c + 1]]
    }

    /// The cells at Chebyshev distance exactly `k` from `(cx, cy)`,
    /// clipped to the grid.
    fn ring(&self, (cx, cy): (usize, usize), k: usize) -> impl Iterator<Item = (usize, usize)> {
        let side = self.side as isize;
        let (cx, cy, k) = (cx as isize, cy as isize, k as isize);
        let inside =
            move |&(x, y): &(isize, isize)| (0..side).contains(&x) && (0..side).contains(&y);
        let rows = (cx - k..=cx + k).flat_map(move |x| {
            let bottom = std::iter::once((x, cy - k));
            bottom.chain((k > 0).then_some((x, cy + k)))
        });
        let cols = (cy - k + 1..cy + k).flat_map(move |y| [(cx - k, y), (cx + k, y)]);
        rows.chain(cols)
            .filter(inside)
            .map(|(x, y)| (x as usize, y as usize))
    }

    /// A lower bound on the distance from `p` (in cell `(cx, cy)`) to any
    /// point whose cell lies at Chebyshev distance ≥ `k ≥ 1`, or `None`
    /// when no such cell exists. Such a point lies past one of the four
    /// edges of the `(2k−1)`-cell square around `(cx, cy)`; edges with no
    /// grid cells beyond them do not count.
    fn ring_bound(&self, p: [f64; 2], (cx, cy): (usize, usize), k: usize) -> Option<f64> {
        let w = 1.0 / self.side as f64;
        let mut bound: Option<f64> = None;
        for (x, c) in [(p[0], cx), (p[1], cy)] {
            if c >= k {
                let gap = x - (c + 1 - k) as f64 * w;
                bound = Some(bound.map_or(gap, |b| b.min(gap)));
            }
            if c + k < self.side {
                let gap = (c + k) as f64 * w - x;
                bound = Some(bound.map_or(gap, |b| b.min(gap)));
            }
        }
        bound.map(|b| b - BOUND_SLACK)
    }
}

impl WaypointAdversary {
    /// Creates the model with communication `radius` and per-round
    /// movement `speed`, both in unit-square lengths.
    ///
    /// # Panics
    /// Panics unless `radius > 0` and `speed > 0`.
    pub fn new(radius: f64, speed: f64) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(speed > 0.0, "speed must be positive");
        WaypointAdversary {
            radius,
            speed,
            pos: Vec::new(),
            dst: Vec::new(),
            grid: Grid::default(),
        }
    }

    /// Current node positions (empty before the first round).
    pub fn positions(&self) -> &[[f64; 2]] {
        &self.pos
    }

    fn rand_point(rng: &mut StdRng) -> [f64; 2] {
        [rng.random::<f64>(), rng.random::<f64>()]
    }

    fn step(&mut self, rng: &mut StdRng) {
        for i in 0..self.pos.len() {
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

    /// Squared distance of the pair `lo < hi`, evaluated in this exact
    /// operand order so ties resolve the same on every path.
    fn dist2(&self, lo: usize, hi: usize) -> f64 {
        let (ax, ay) = (self.pos[lo][0], self.pos[lo][1]);
        let (bx, by) = (self.pos[hi][0], self.pos[hi][1]);
        (ax - bx) * (ax - bx) + (ay - by) * (ay - by)
    }

    /// The unit-disk graph of the current positions, from each node's
    /// 3×3 cell neighbourhood. Ids are emitted row by row (`hi`
    /// ascending, then `lo`), so they arrive sorted.
    fn unit_disk(&self) -> Graph {
        let n = self.pos.len();
        let side = self.grid.side;
        let r2 = self.radius * self.radius;
        let mut ids = Vec::new();
        let mut row = Vec::new();
        for hi in 0..n {
            let (cx, cy) = self.grid.cell[hi];
            row.clear();
            for y in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
                for x in cx.saturating_sub(1)..=(cx + 1).min(side - 1) {
                    let lower = self.grid.cell_nodes(x, y).iter().take_while(|&&lo| lo < hi);
                    row.extend(lower.copied().filter(|&lo| self.dist2(lo, hi) <= r2));
                }
            }
            row.sort_unstable();
            let base = (hi * hi.saturating_sub(1) / 2) as u64;
            ids.extend(row.iter().map(|&lo| base + lo as u64));
        }
        graph_from_ids(n, &ids)
    }

    /// Bridges components by their globally closest cross-component node
    /// pair until the graph is connected.
    ///
    /// Component labels are computed once and merged per bridge. Each
    /// component's closest foreign pair is cached: a merge leaves every
    /// other component's set of foreign nodes unchanged, so only the
    /// merged component is searched again. Every cross-component pair has
    /// an endpoint outside the largest component, whose entry is never
    /// needed.
    fn geometric_repair(&self, g: &mut Graph) {
        let mut members = crate::repair::components(g);
        if members.len() <= 1 {
            return;
        }
        let mut label = vec![0usize; g.num_nodes()];
        for (l, comp) in members.iter().enumerate() {
            for &u in comp {
                label[u] = l;
            }
        }
        let mut closest: Vec<Option<Pair>> = vec![None; members.len()];
        for _ in 1..members.len() {
            let largest = (0..members.len())
                .max_by_key(|&l| (members[l].len(), std::cmp::Reverse(l)))
                .expect("≥2 components");
            let mut best: Option<Pair> = None;
            for (l, comp) in members.iter().enumerate() {
                if l == largest || comp.is_empty() {
                    continue;
                }
                let pair = *closest[l].get_or_insert_with(|| self.closest_foreign(comp, &label));
                if best.is_none_or(|b| pair.beats(b)) {
                    best = Some(pair);
                }
            }
            let Pair { lo: u, hi: v, .. } = best.expect("≥2 components have a cross pair");
            g.add_edge(u, v);
            // Merge the smaller component into the larger.
            let (mut keep, mut gone) = (label[u], label[v]);
            if members[keep].len() < members[gone].len() {
                std::mem::swap(&mut keep, &mut gone);
            }
            let moved = std::mem::take(&mut members[gone]);
            for &w in &moved {
                label[w] = keep;
            }
            members[keep].extend(moved);
            closest[keep] = None;
        }
    }

    /// The smallest `(d², lo, hi)` pair joining a node of `comp` to a node
    /// of another component. Each member searches its cell, then ring
    /// after ring, until the ring's lower bound exceeds the best so far.
    fn closest_foreign(&self, comp: &[usize], label: &[usize]) -> Pair {
        let mut best: Option<Pair> = None;
        for &s in comp {
            let home = self.grid.cell[s];
            for k in 0.. {
                if k > 0 {
                    let Some(bound) = self.grid.ring_bound(self.pos[s], home, k) else {
                        break;
                    };
                    if best.is_some_and(|b| bound > 0.0 && bound * bound > b.d2) {
                        break;
                    }
                }
                for (x, y) in self.grid.ring(home, k) {
                    for &t in self.grid.cell_nodes(x, y) {
                        if label[t] != label[s] {
                            let (lo, hi) = (s.min(t), s.max(t));
                            let pair = Pair {
                                d2: self.dist2(lo, hi),
                                lo,
                                hi,
                            };
                            if best.is_none_or(|b| pair.beats(b)) {
                                best = Some(pair);
                            }
                        }
                    }
                }
            }
        }
        best.expect("another component exists")
    }
}

/// A candidate bridge, ordered by `(d², lo, hi)`.
#[derive(Clone, Copy)]
struct Pair {
    d2: f64,
    lo: usize,
    hi: usize,
}

impl Pair {
    fn beats(self, other: Pair) -> bool {
        self.d2 < other.d2 || (self.d2 == other.d2 && (self.lo, self.hi) < (other.lo, other.hi))
    }
}

impl Adversary for WaypointAdversary {
    fn name(&self) -> String {
        format!("waypoint({},{})", self.radius, self.speed)
    }

    fn topology(&mut self, _round: usize, view: &KnowledgeView, rng: &mut StdRng) -> Graph {
        let n = view.num_nodes();
        if self.pos.len() != n {
            self.pos = (0..n).map(|_| Self::rand_point(rng)).collect();
            self.dst = (0..n).map(|_| Self::rand_point(rng)).collect();
        } else {
            self.step(rng);
        }
        self.grid.rebuild(&self.pos, self.radius);
        let mut g = self.unit_disk();
        self.geometric_repair(&mut g);
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
    fn always_connected_even_at_tiny_radius() {
        let mut adv = WaypointAdversary::new(0.05, 0.02);
        let view = KnowledgeView::blank(16, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for round in 0..30 {
            let g = adv.topology(round, &view, &mut rng);
            assert!(g.is_connected(), "round {round}");
            assert_eq!(g.num_nodes(), 16);
        }
    }

    #[test]
    fn positions_move_at_most_speed_per_round() {
        let mut adv = WaypointAdversary::new(0.3, 0.04);
        let view = KnowledgeView::blank(10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        adv.topology(0, &view, &mut rng);
        let before = adv.positions().to_vec();
        adv.topology(1, &view, &mut rng);
        for (a, b) in before.iter().zip(adv.positions()) {
            let d = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
            assert!(d <= 0.04 + 1e-12, "moved {d} > speed");
        }
    }

    #[test]
    fn large_radius_gives_dense_graphs() {
        let mut adv = WaypointAdversary::new(1.5, 0.05); // covers the square
        let view = KnowledgeView::blank(8, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let g = adv.topology(0, &view, &mut rng);
        assert_eq!(g.num_edges(), 8 * 7 / 2, "diameter √2 < 1.5 ⇒ complete");
    }

    #[test]
    fn topology_changes_over_time() {
        let mut adv = WaypointAdversary::new(0.4, 0.1);
        let view = KnowledgeView::blank(14, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let a = adv.topology(0, &view, &mut rng);
        let mut changed = false;
        for round in 1..20 {
            if adv.topology(round, &view, &mut rng) != a {
                changed = true;
                break;
            }
        }
        assert!(changed, "mobility must eventually rewire the graph");
    }
}

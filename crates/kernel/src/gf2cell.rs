//! The word-packed GF(2) RLNC cell: per-node coding state as one flat
//! `u64` row arena with incremental Gaussian elimination on limb slices.
//!
//! One cell covers both GF(2) coding families of the registry —
//! `indexed-broadcast` (Lemma 5.3 over packed GF(2)) and the randomized
//! `field-broadcast(gf2)` — because their dynamics are *identical*: both
//! seed source vectors `e_i ++ payload_i`, both emit a uniformly random
//! span combination (one coin per basis row, in pivot order), both insert
//! received packets into an RREF basis, and both price a message at
//! `k + d` bits. They differ only in the adversary view ([`Gf2ViewMode`]):
//! `field-broadcast` reports all-or-nothing decodability, while
//! `indexed-broadcast` reports per-token availability.
//!
//! The RREF invariant matches `dyncode_gf::{Subspace, Gf2Basis}` exactly
//! (over GF(2) pivot normalization is a no-op), so the span evolution,
//! the per-row coin count of every compose, and hence the whole run are
//! bit-identical to the reference protocols. What changes is the cost
//! model. Every row of an RREF basis is zero at every *other* row's
//! pivot, and the kernel leans on that fact three times:
//!
//! * **Reduce** XORs in exactly the rows whose pivot bit is set in the
//!   incoming packet (`v & pivot_mask`, walked word by word): no XOR can
//!   flip another pivot bit, so the set is fixed up front and its XOR sum
//!   equals the reference's ascending-pivot scan.
//! * **Back-elimination** is one branch-free masked pass over the node's
//!   contiguous slot block, `row ^= v & -(bit p of row)`.
//! * **Compose** draws one coin per row in pivot order, records it
//!   against the row's slot, and the message is one masked pass over the
//!   slot block, built only when an unsaturated receiver hears it (see
//!   [`FastCell::compose_all`]).
//!
//! The masked loops are instantiated for row widths of 1–8 limbs (one
//! `match` on the width per delivery) and fall back to slice loops above.

use dyncode_dynet::adversary::KnowledgeView;
use dyncode_dynet::bitset::BitSet;
use dyncode_dynet::simulator::{CsrTopology, FastCell};
use dyncode_gf::bits::{limb_leading_one, limb_ones, limb_prefix_ones, limbs_for};
use dyncode_gf::Gf2Vec;
use dyncode_obs::metrics::Counter;
use rand::rngs::StdRng;
use rand::RngExt;

/// Which adversary/statistics view the cell reports (the one observable
/// difference between the two GF(2) coding protocols).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gf2ViewMode {
    /// `field-broadcast(gf2)`: a node's token set is all k tokens once
    /// its coefficient projection has full rank, empty before.
    Broadcast,
    /// `indexed-broadcast`: a node's token set is the individually
    /// decodable tokens (basis rows with a unit coefficient prefix).
    Indexed,
}

/// Calls `$self.$method::<W>(args)` with the row width `W` as a constant
/// for widths 1–8 limbs, and with `W = 0` (read `self.wpr` at run time)
/// above.
macro_rules! by_width {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match $self.wpr {
            1 => $self.$method::<1>($($arg),*),
            2 => $self.$method::<2>($($arg),*),
            3 => $self.$method::<3>($($arg),*),
            4 => $self.$method::<4>($($arg),*),
            5 => $self.$method::<5>($($arg),*),
            6 => $self.$method::<6>($($arg),*),
            7 => $self.$method::<7>($($arg),*),
            8 => $self.$method::<8>($($arg),*),
            _ => $self.$method::<0>($($arg),*),
        }
    };
}

/// `-(bit s of words)`: all ones if bit `s` is set, else zero.
#[inline(always)]
fn bit_mask(words: &[u64], s: usize) -> u64 {
    0u64.wrapping_sub((words[s / 64] >> (s % 64)) & 1)
}

/// The arena-backed packed GF(2) coding state for all n nodes.
pub struct Gf2Cell {
    n: usize,
    k: usize,
    /// Row width in bits: k coefficient bits + payload bits.
    ambient: usize,
    /// Row width in u64 limbs.
    wpr: usize,
    /// Coin words per node: ⌈k/64⌉.
    cw: usize,
    mode: Gf2ViewMode,
    /// Row arena: node `u`'s slot `s` lives at
    /// `rows[(u·k + s)·wpr .. (u·k + s + 1)·wpr]`. Slots are assigned in
    /// insertion order and never move, so a node's rows are the
    /// contiguous block of its first `rank` slots. A node's rank never
    /// exceeds k (every packet lies in the span of the k source
    /// vectors), so k slots per node suffice.
    rows: Vec<u64>,
    /// Per node, the pivot columns as a `wpr`-limb bit mask at
    /// `pivot_mask[u·wpr ..]`; ascending set bits are the pivot order.
    pivot_mask: Vec<u64>,
    /// Per node, column → row slot of the basis row pivoting there
    /// (meaningful only where `pivot_mask` has the column's bit).
    pivot_slot: Vec<u32>,
    /// Per node: basis dimension.
    rank: Vec<u32>,
    /// Per node: pivots below k (the coefficient-projection rank).
    coeff_rank: Vec<u32>,
    /// This round's coins: bit `s` of `coins[u·cw ..]` is the coin node
    /// `u` drew for its slot `s`, valid iff `has_msg[u]`.
    coins: Vec<u64>,
    /// Message arena: node `u`'s broadcast at `msgs[u·wpr .. (u+1)·wpr]`,
    /// valid after `deliver_all` built it (`heard[u]`).
    msgs: Vec<u64>,
    has_msg: Vec<bool>,
    /// Per node: does an unsaturated receiver hear it this round?
    heard: Vec<bool>,
    /// Reduce buffer for incoming packets.
    scratch: Vec<u64>,
    /// `kernel.msgs_drawn`: speakers that drew coins.
    msgs_drawn: &'static Counter,
    /// `kernel.msgs_built`: messages built for a receiver.
    msgs_built: &'static Counter,
}

impl Gf2Cell {
    /// A fresh cell: n nodes, k coded indices, `payload_bits`-bit
    /// payloads, reporting views per `mode`. Seed the sources with
    /// [`Gf2Cell::seed_source`] before running.
    pub fn new(n: usize, k: usize, payload_bits: usize, mode: Gf2ViewMode) -> Self {
        let ambient = k + payload_bits;
        let wpr = limbs_for(ambient).max(1);
        let cw = limbs_for(k);
        Gf2Cell {
            n,
            k,
            ambient,
            wpr,
            cw,
            mode,
            rows: vec![0; n * k * wpr],
            pivot_mask: vec![0; n * wpr],
            pivot_slot: vec![0; n * ambient],
            rank: vec![0; n],
            coeff_rank: vec![0; n],
            coins: vec![0; n * cw],
            msgs: vec![0; n * wpr],
            has_msg: vec![false; n],
            heard: vec![false; n],
            scratch: vec![0; wpr],
            msgs_drawn: dyncode_obs::metrics::counter("kernel.msgs_drawn"),
            msgs_built: dyncode_obs::metrics::counter("kernel.msgs_built"),
        }
    }

    /// Seeds `node` with source index `index` and its payload — the
    /// packed analogue of `Gf2Node::seed_source` / `DenseNode::seed_source`.
    ///
    /// # Panics
    /// Panics if the payload width disagrees or `index >= k`.
    pub fn seed_source(&mut self, node: usize, index: usize, payload: &Gf2Vec) {
        assert!(index < self.k, "source index out of range");
        assert_eq!(
            payload.len(),
            self.ambient - self.k,
            "payload width mismatch"
        );
        let packet = Gf2Vec::unit(self.k, index).concat(payload);
        let mut v = packet.words().to_vec();
        v.resize(self.wpr, 0);
        self.insert(node, &mut v);
    }

    /// The basis dimension of `node`.
    pub fn rank(&self, node: usize) -> usize {
        self.rank[node] as usize
    }

    /// The coefficient-projection rank of `node`.
    pub fn coefficient_rank(&self, node: usize) -> usize {
        self.coeff_rank[node] as usize
    }

    /// Basis row `r` (pivot order) of `node`, as a [`Gf2Vec`] — test and
    /// introspection surface, not the hot path.
    pub fn basis_row(&self, node: usize, r: usize) -> Gf2Vec {
        let p = self.pivot_cols(node).nth(r).expect("row index below rank");
        Gf2Vec::from_words(self.row(node, self.slot_of(node, p)).to_vec(), self.ambient)
    }

    /// `node`'s pivot columns, ascending.
    fn pivot_cols(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        limb_ones(&self.pivot_mask[node * self.wpr..(node + 1) * self.wpr])
    }

    /// The slot of `node`'s row pivoting at column `p`.
    fn slot_of(&self, node: usize, p: usize) -> usize {
        self.pivot_slot[node * self.ambient + p] as usize
    }

    /// Row slot `s` of `node`.
    fn row(&self, node: usize, s: usize) -> &[u64] {
        let base = (node * self.k + s) * self.wpr;
        &self.rows[base..base + self.wpr]
    }

    /// The row width in limbs: `W`, or `wpr` for the run-time fallback.
    #[inline(always)]
    fn width<const W: usize>(&self) -> usize {
        if W == 0 {
            self.wpr
        } else {
            W
        }
    }

    /// Inserts `v` (a `wpr`-limb packet) into `node`'s basis; returns
    /// `true` iff innovative. `v` is clobbered.
    fn insert(&mut self, node: usize, v: &mut [u64]) -> bool {
        by_width!(self.insert_w(node, v))
    }

    /// [`Gf2Cell::insert`] at row width `W` (see [`Gf2Cell::width`]).
    /// Identical math to `Subspace::insert` / `Gf2Basis::insert`; see the
    /// module docs for why the masked passes are exact.
    #[inline(always)]
    fn insert_w<const W: usize>(&mut self, node: usize, v: &mut [u64]) -> bool {
        let w = self.width::<W>();
        let v = &mut v[..w];
        let k = self.k;
        let nrank = self.rank[node] as usize;
        let block = node * k * w;
        let mask = &mut self.pivot_mask[node * w..(node + 1) * w];
        let slot_of = &mut self.pivot_slot[node * self.ambient..(node + 1) * self.ambient];
        // Reduce: the pivot bits of `v` are fixed by the RREF invariant,
        // so each word's `v & mask` names exactly the rows to XOR in.
        for i in 0..w {
            let mut hit = v[i] & mask[i];
            while hit != 0 {
                let p = i * 64 + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                let base = block + slot_of[p] as usize * w;
                for (x, y) in v.iter_mut().zip(&self.rows[base..base + w]) {
                    *x ^= y;
                }
            }
        }
        let Some(p) = limb_leading_one(v) else {
            return false;
        };
        // Back-eliminate column p from every existing row, branch-free.
        for row in self.rows[block..block + nrank * w].chunks_exact_mut(w) {
            let m = bit_mask(row, p);
            for (x, y) in row.iter_mut().zip(v.iter()) {
                *x ^= y & m;
            }
        }
        assert!(
            nrank < k,
            "rank overflow: packets must lie in the k-dimensional source span"
        );
        self.rows[block + nrank * w..block + (nrank + 1) * w].copy_from_slice(v);
        mask[p / 64] |= 1 << (p % 64);
        slot_of[p] = nrank as u32;
        self.rank[node] += 1;
        if p < k {
            self.coeff_rank[node] += 1;
        }
        true
    }

    /// Builds `node`'s message from its recorded coins: the XOR of the
    /// rows whose coin came up, one masked pass over the slot block.
    #[inline(always)]
    fn build_w<const W: usize>(&mut self, node: usize) {
        let w = self.width::<W>();
        let nrank = self.rank[node] as usize;
        let block = node * self.k * w;
        let coins = &self.coins[node * self.cw..(node + 1) * self.cw];
        let msg = &mut self.msgs[node * w..(node + 1) * w];
        msg.fill(0);
        for (s, row) in self.rows[block..block + nrank * w]
            .chunks_exact(w)
            .enumerate()
        {
            let m = bit_mask(coins, s);
            for (x, y) in msg.iter_mut().zip(row) {
                *x ^= y & m;
            }
        }
    }

    /// [`FastCell::deliver_all`] at row width `W`.
    fn deliver_w<const W: usize>(&mut self, topo: &CsrTopology) {
        let w = self.width::<W>();
        let k = self.k as u32;
        // Mark every speaker some unsaturated receiver hears, then build
        // those messages before any insert changes a basis.
        self.heard.fill(false);
        for u in 0..self.n {
            if self.rank[u] < k {
                for &v in topo.neighbors(u) {
                    self.heard[v as usize] = true;
                }
            }
        }
        let mut built = 0;
        for v in 0..self.n {
            if self.heard[v] && self.has_msg[v] {
                self.build_w::<W>(v);
                built += 1;
            }
        }
        self.msgs_built.add(built);
        let timing = dyncode_obs::enabled();
        let mut scratch = std::mem::take(&mut self.scratch);
        for u in 0..self.n {
            // Saturation shortcut: every packet lies in the span of the k
            // source vectors, so a node at rank k already holds the full
            // span — no insert can be innovative or change any state, and
            // the whole inbox can be skipped.
            if self.rank[u] == k {
                continue;
            }
            let t = timing.then(std::time::Instant::now);
            for &v in topo.neighbors(u) {
                let v = v as usize;
                if self.has_msg[v] {
                    scratch[..w].copy_from_slice(&self.msgs[v * w..(v + 1) * w]);
                    self.insert_w::<W>(u, &mut scratch);
                }
            }
            if let Some(t) = t {
                dyncode_dynet::phase::elim_add(t.elapsed().as_nanos() as u64);
            }
        }
        self.scratch = scratch;
    }

    /// Individually decodable tokens of `node` (unit coefficient
    /// prefixes), as set bits inserted into `out`.
    fn available_into(&self, node: usize, out: &mut BitSet) -> usize {
        let mut count = 0;
        for p in self.pivot_cols(node).take_while(|&p| p < self.k) {
            if limb_prefix_ones(self.row(node, self.slot_of(node, p)), self.k) == 1 {
                out.insert(p);
                count += 1;
            }
        }
        count
    }

    fn node_done(&self, node: usize) -> bool {
        self.coeff_rank[node] as usize == self.k
    }
}

impl FastCell for Gf2Cell {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn spoke(&self, node: usize) -> bool {
        self.has_msg[node]
    }

    fn compose_all(
        &mut self,
        round: usize,
        rng: &mut StdRng,
        bit_limit: Option<u64>,
    ) -> (u64, u64) {
        let (wpr, cw) = (self.wpr, self.cw);
        let bits = self.ambient as u64;
        let mut round_bits = 0u64;
        let mut round_max = 0u64;
        let mut drawn = 0;
        for u in 0..self.n {
            if self.rank[u] == 0 {
                // A node that has received nothing stays silent — and
                // draws no coins, exactly like the reference emit.
                self.has_msg[u] = false;
                continue;
            }
            let coins = &mut self.coins[u * cw..(u + 1) * cw];
            coins.fill(0);
            let slot_of = &self.pivot_slot[u * self.ambient..(u + 1) * self.ambient];
            // One coin per basis row in pivot order: the exact draw
            // sequence of `random_combination` over GF(2).
            for p in limb_ones(&self.pivot_mask[u * wpr..(u + 1) * wpr]) {
                let coin: bool = rng.random();
                let s = slot_of[p] as usize;
                coins[s / 64] |= (coin as u64) << (s % 64);
            }
            if let Some(limit) = bit_limit {
                assert!(
                    bits <= limit,
                    "node {u} exceeded the message budget at round {round}: \
                     {bits} > {limit} bits"
                );
            }
            round_bits += bits;
            round_max = round_max.max(bits);
            self.has_msg[u] = true;
            drawn += 1;
        }
        self.msgs_drawn.add(drawn);
        (round_bits, round_max)
    }

    fn deliver_all(&mut self, topo: &CsrTopology, _round: usize, _rng: &mut StdRng) {
        by_width!(self.deliver_w(topo))
    }

    fn all_done(&self) -> bool {
        (0..self.n).all(|u| self.node_done(u))
    }

    fn view(&self) -> KnowledgeView {
        let mut tokens = Vec::with_capacity(self.n);
        for u in 0..self.n {
            let mut s = BitSet::new(self.k);
            match self.mode {
                Gf2ViewMode::Broadcast => {
                    if self.node_done(u) {
                        for i in 0..self.k {
                            s.insert(i);
                        }
                    }
                }
                Gf2ViewMode::Indexed => {
                    self.available_into(u, &mut s);
                }
            }
            tokens.push(s);
        }
        KnowledgeView {
            dims: self.rank.iter().map(|&r| r as usize).collect(),
            done: (0..self.n).map(|u| self.node_done(u)).collect(),
            tokens,
        }
    }

    fn history_stats(&self) -> (usize, usize, usize, usize) {
        let min_dim = self.rank.iter().copied().min().unwrap_or(0) as usize;
        let max_dim = self.rank.iter().copied().max().unwrap_or(0) as usize;
        let done = (0..self.n).filter(|&u| self.node_done(u)).count();
        let total_tokens = match self.mode {
            Gf2ViewMode::Broadcast => self.k * done,
            Gf2ViewMode::Indexed => {
                let mut scratch = BitSet::new(self.k);
                (0..self.n)
                    .map(|u| self.available_into(u, &mut scratch))
                    .sum()
            }
        };
        (min_dim, max_dim, total_tokens, done)
    }

    fn fully_disseminated(&self) -> bool {
        match self.mode {
            Gf2ViewMode::Broadcast => self.all_done(),
            Gf2ViewMode::Indexed => {
                let mut scratch = BitSet::new(self.k);
                (0..self.n).all(|u| self.available_into(u, &mut scratch) == self.k)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_gf::bits::{limb_get, limb_xor};
    use dyncode_gf::Gf2Basis;
    use rand::SeedableRng;

    /// Mirror of the packed reference basis at every row width the
    /// kernel instantiates (1, 2, 3 and 8 limbs) and at the slice-loop
    /// fallback above 8 limbs, in both view modes. After every insert
    /// the cell must agree on innovation, rank, pivots, every row, the
    /// coefficient rank and the decodable tokens; the message it then
    /// builds must be the reference's random combination under the same
    /// coins, and the XOR of the rows its recorded coins select. Inputs
    /// are random combinations of k source packets — the only vectors a
    /// run can ever deliver (and what bounds the row arena at k slots per
    /// node).
    #[test]
    fn insert_agrees_with_gf2basis() {
        for ambient in [1, 63, 64, 65, 127, 128, 129, 511, 512, 513] {
            for mode in [Gf2ViewMode::Indexed, Gf2ViewMode::Broadcast] {
                let k = (ambient / 3).max(1);
                let d = ambient - k;
                let ctx = format!("k+d={ambient} k={k} {mode:?}");
                let mut rng = StdRng::seed_from_u64(11 + ambient as u64);
                let sources: Vec<Gf2Vec> = (0..k)
                    .map(|i| Gf2Vec::unit(k, i).concat(&Gf2Vec::random(d, &mut rng)))
                    .collect();
                // Node 0 mirrors the reference; node 1 hears only node 0,
                // so node 0's message is built while node 1 is below rank k.
                let mut cell = Gf2Cell::new(2, k, d, mode);
                let mut plan = CsrTopology::new(2);
                plan.load_plan(&[0, 0, 1], &[0]);
                let mut reference = Gf2Basis::new(ambient);
                let mut built = 0;
                for _ in 0..k + 8 {
                    let mut v = Gf2Vec::zeros(ambient);
                    for s in &sources {
                        if rng.random() {
                            v.xor_assign(s);
                        }
                    }
                    let mut limbs = v.words().to_vec();
                    limbs.resize(cell.wpr, 0);
                    assert_eq!(cell.insert(0, &mut limbs), reference.insert(v), "{ctx}");
                    assert_eq!(cell.rank(0), reference.dim(), "{ctx}");
                    let pivots: Vec<usize> = cell.pivot_cols(0).collect();
                    assert_eq!(pivots, reference.pivots(), "{ctx}");
                    for (r, row) in reference.basis().iter().enumerate() {
                        assert_eq!(&cell.basis_row(0, r), row, "{ctx} row {r}");
                    }
                    assert_eq!(
                        cell.coefficient_rank(0),
                        reference.prefix_rank(k),
                        "{ctx} coefficient rank"
                    );
                    let decodable: Vec<usize> = reference
                        .decode_available(k)
                        .iter()
                        .enumerate()
                        .filter_map(|(i, payload)| payload.as_ref().map(|_| i))
                        .collect();
                    let mut avail = BitSet::new(k);
                    assert_eq!(cell.available_into(0, &mut avail), decodable.len());
                    assert_eq!(avail.iter().collect::<Vec<_>>(), decodable, "{ctx}");
                    let viewed: Vec<usize> = cell.view().tokens[0].iter().collect();
                    match mode {
                        Gf2ViewMode::Indexed => assert_eq!(viewed, decodable, "{ctx}"),
                        Gf2ViewMode::Broadcast => {
                            let done = reference.prefix_rank(k) == k;
                            assert_eq!(viewed.len(), if done { k } else { 0 }, "{ctx}");
                        }
                    }
                    let mut coins_rng = StdRng::seed_from_u64(rng.random());
                    let expect = reference
                        .random_combination(&mut coins_rng.clone())
                        .expect("rank ≥ 1 after the first insert");
                    cell.compose_all(0, &mut coins_rng, None);
                    if cell.rank(1) == k {
                        continue;
                    }
                    cell.deliver_all(&plan, 0, &mut rng);
                    let msg = cell.msgs[..cell.wpr].to_vec();
                    assert_eq!(Gf2Vec::from_words(msg.clone(), ambient), expect, "{ctx}");
                    let mut selected = vec![0u64; cell.wpr];
                    for s in 0..cell.rank(0) {
                        if limb_get(&cell.coins[..cell.cw], s) {
                            limb_xor(&mut selected, cell.row(0, s));
                        }
                    }
                    assert_eq!(selected, msg, "{ctx} recorded coins");
                    built += 1;
                }
                assert!(built > k / 2, "{ctx}: only {built} messages checked");
            }
        }
    }

    #[test]
    fn seeded_sources_make_node_decodable() {
        let (k, d) = (4, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let payloads: Vec<Gf2Vec> = (0..k).map(|_| Gf2Vec::random(d, &mut rng)).collect();
        let mut cell = Gf2Cell::new(2, k, d, Gf2ViewMode::Indexed);
        for (i, p) in payloads.iter().enumerate() {
            cell.seed_source(0, i, p);
        }
        assert_eq!(cell.rank(0), k);
        assert_eq!(cell.coefficient_rank(0), k);
        assert!(!cell.all_done(), "node 1 has nothing yet");
        let v = cell.view();
        assert_eq!(v.dims, vec![k, 0]);
        assert_eq!(v.tokens[0].len(), k);
        assert!(v.tokens[1].is_empty());
        // Broadcast-mode view is all-or-nothing.
        let mut bc = Gf2Cell::new(1, k, d, Gf2ViewMode::Broadcast);
        bc.seed_source(0, 0, &payloads[0]);
        assert!(bc.view().tokens[0].is_empty(), "not done yet: empty");
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        let mut cell = Gf2Cell::new(1, 3, 3, Gf2ViewMode::Indexed);
        let mut zero = vec![0u64; cell.wpr];
        assert!(!cell.insert(0, &mut zero));
        assert_eq!(cell.rank(0), 0);
    }
}

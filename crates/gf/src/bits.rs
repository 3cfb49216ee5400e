//! Bit-packed GF(2) vectors and bases — the protocol hot path.
//!
//! The paper's algorithms default to q = 2, where a coded message is an XOR
//! of token vectors. Packing 64 coordinates per machine word makes the
//! simulator able to sweep n into the hundreds while running the full
//! RLNC pipeline (insert, innovation test, decode) on every node every
//! round.
//!
//! Invariant maintained throughout: the unused high bits of the last word
//! are always zero, so word-wise equality, hashing and parity are exact.

use rand::{Rng, RngExt};

/// Number of u64 limbs needed to hold `len` bits.
pub fn limbs_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// Bit `i` of a limb slice.
pub fn limb_get(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i` of a limb slice.
pub fn limb_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// `dst ^= src` over equal-length limb slices — GF(2) vector addition on
/// raw limbs, the in-place row operation of the fast elimination kernels.
///
/// # Panics
/// Panics (in debug builds) on length mismatch; release builds truncate to
/// the shorter slice, so callers must pass equal lengths.
pub fn limb_xor(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "limb length mismatch");
    for (a, b) in dst.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// The lowest set bit of a limb slice, if any (the pivot scan of the
/// elimination kernels).
pub fn limb_leading_one(words: &[u64]) -> Option<usize> {
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

/// The set bits of a limb slice, ascending (pivot-mask walks of the
/// elimination kernels, and [`Gf2Vec::iter_ones`]).
#[inline]
pub fn limb_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        core::iter::from_fn(move || {
            if word == 0 {
                None
            } else {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + b)
            }
        })
    })
}

/// Number of set bits among the first `upto` bits of a limb slice (the
/// prefix popcount used by coefficient-rank and decodability tests).
pub fn limb_prefix_ones(words: &[u64], upto: usize) -> usize {
    let full = upto / 64;
    let mut acc: usize = words[..full].iter().map(|w| w.count_ones() as usize).sum();
    let rem = upto % 64;
    if rem != 0 {
        acc += (words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
    }
    acc
}

/// A vector over GF(2) with `len` coordinates, bit-packed into u64 words.
/// Coordinate 0 is the least-significant bit of word 0.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Gf2Vec {
    words: Vec<u64>,
    len: usize,
}

impl core::fmt::Debug for Gf2Vec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gf2Vec[")?;
        for i in 0..self.len.min(128) {
            write!(f, "{}", self.get(i) as u8)?;
        }
        if self.len > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl Gf2Vec {
    /// The zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        Gf2Vec {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// The standard basis vector e_i.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn unit(len: usize, i: usize) -> Self {
        let mut v = Gf2Vec::zeros(len);
        v.set(i, true);
        v
    }

    /// A uniformly random vector.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = Gf2Vec {
            words: (0..words_for(len)).map(|_| rng.random()).collect(),
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector from booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Gf2Vec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a `len_bits`-coordinate vector from packed little-endian
    /// bytes (bit `i` is bit `i % 8` of byte `i / 8`).
    ///
    /// # Panics
    /// Panics if `bytes` is too short to cover `len_bits`.
    pub fn from_bytes(bytes: &[u8], len_bits: usize) -> Self {
        assert!(bytes.len() * 8 >= len_bits, "byte slice too short");
        let mut v = Gf2Vec::zeros(len_bits);
        for i in 0..len_bits {
            if bytes[i / 8] >> (i % 8) & 1 == 1 {
                v.set(i, true);
            }
        }
        v
    }

    /// Packs the vector into little-endian bytes (⌈len/8⌉ of them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Zeroes the unused high bits of the final word.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The number of coordinates.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the length zero?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinate `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets coordinate `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// `self ^= other` (GF(2) vector addition).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xor_assign(&mut self, other: &Gf2Vec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Is the vector identically zero?
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest set coordinate, if any.
    pub fn leading_one(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Number of set coordinates.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set coordinates, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        limb_ones(&self.words)
    }

    /// GF(2) inner product with `other` (parity of the AND).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, other: &Gf2Vec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// GF(2) inner product of `self[..other.len()]` with `other` — the
    /// coefficient-prefix product used by sensing tests.
    ///
    /// # Panics
    /// Panics if `other` is longer than `self`.
    pub fn prefix_dot(&self, other: &Gf2Vec) -> bool {
        assert!(other.len <= self.len, "prefix longer than vector");
        let full = other.len / 64;
        let mut acc = 0u64;
        for i in 0..full {
            acc ^= self.words[i] & other.words[i];
        }
        let rem = other.len % 64;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            acc ^= self.words[full] & other.words[full] & mask;
        }
        acc.count_ones() % 2 == 1
    }

    /// The sub-vector of coordinates `from..to`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn extract(&self, from: usize, to: usize) -> Gf2Vec {
        assert!(from <= to && to <= self.len, "bad range {from}..{to}");
        let mut out = Gf2Vec::zeros(to - from);
        for i in from..to {
            if self.get(i) {
                out.set(i - from, true);
            }
        }
        out
    }

    /// Copies `src` into coordinates `at..at + src.len()`.
    ///
    /// # Panics
    /// Panics if the destination range is out of bounds.
    pub fn splice(&mut self, at: usize, src: &Gf2Vec) {
        assert!(at + src.len <= self.len, "splice out of bounds");
        for i in 0..src.len {
            self.set(at + i, src.get(i));
        }
    }

    /// Concatenation `self ++ other`.
    pub fn concat(&self, other: &Gf2Vec) -> Gf2Vec {
        let mut out = Gf2Vec::zeros(self.len + other.len);
        out.splice(0, self);
        out.splice(self.len, other);
        out
    }

    /// The backing limbs (tail bits beyond `len` are guaranteed zero), for
    /// kernels that operate on raw `u64` slices via [`limb_xor`] and
    /// friends instead of per-coordinate accessors.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a vector from raw limbs, masking any tail bits beyond `len`.
    ///
    /// # Panics
    /// Panics if `words` is shorter than [`limbs_for`]`(len)`; extra limbs
    /// are truncated.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Gf2Vec {
        assert!(words.len() >= limbs_for(len), "limb slice too short");
        words.truncate(limbs_for(len));
        let mut v = Gf2Vec { words, len };
        v.mask_tail();
        v
    }
}

/// A GF(2) subspace basis in reduced row-echelon form, with innovative
/// insertion — the packed counterpart of [`crate::Subspace`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Gf2Basis {
    rows: Vec<Gf2Vec>,
    pivots: Vec<usize>,
    len: usize,
}

impl Gf2Basis {
    /// The zero subspace of GF(2)^len.
    pub fn new(len: usize) -> Self {
        Gf2Basis {
            rows: Vec::new(),
            pivots: Vec::new(),
            len,
        }
    }

    /// Ambient vector length.
    pub fn ambient_len(&self) -> usize {
        self.len
    }

    /// Subspace dimension.
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// The RREF basis rows.
    pub fn basis(&self) -> &[Gf2Vec] {
        &self.rows
    }

    /// Pivot columns, strictly increasing.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    fn reduce(&self, v: &mut Gf2Vec) {
        for (row, &p) in self.rows.iter().zip(&self.pivots) {
            if v.get(p) {
                v.xor_assign(row);
            }
        }
    }

    /// Inserts a vector; returns `true` iff innovative.
    ///
    /// # Panics
    /// Panics on ambient length mismatch.
    pub fn insert(&mut self, mut v: Gf2Vec) -> bool {
        assert_eq!(v.len(), self.len, "length mismatch");
        self.reduce(&mut v);
        let Some(p) = v.leading_one() else {
            return false;
        };
        for row in &mut self.rows {
            if row.get(p) {
                row.xor_assign(&v);
            }
        }
        let idx = self.pivots.partition_point(|&q| q < p);
        self.rows.insert(idx, v);
        self.pivots.insert(idx, p);
        true
    }

    /// Would inserting `v` be innovative? (Non-destructive.)
    pub fn is_innovative(&self, v: &Gf2Vec) -> bool {
        let mut w = v.clone();
        self.reduce(&mut w);
        !w.is_zero()
    }

    /// Span membership test.
    pub fn contains(&self, v: &Gf2Vec) -> bool {
        !self.is_innovative(v) && v.len() == self.len
    }

    /// A uniformly random element of the subspace (uniform random subset
    /// XOR of the basis). `None` if the subspace is zero-dimensional.
    pub fn random_combination<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Gf2Vec> {
        if self.rows.is_empty() {
            return None;
        }
        let mut out = Gf2Vec::zeros(self.len);
        for row in &self.rows {
            if rng.random() {
                out.xor_assign(row);
            }
        }
        Some(out)
    }

    /// Sensing test (Definition 5.1): does some basis row's prefix have odd
    /// overlap with `mu`?
    pub fn senses(&self, mu: &Gf2Vec) -> bool {
        self.rows.iter().any(|row| row.prefix_dot(mu))
    }

    /// Rank of the projection onto the first `k` coordinates.
    pub fn prefix_rank(&self, k: usize) -> usize {
        self.pivots.iter().take_while(|&&p| p < k).count()
    }

    /// Full decode of `k` indexed payloads; see [`crate::Subspace::decode`].
    pub fn decode(&self, k: usize) -> Option<Vec<Gf2Vec>> {
        if self.prefix_rank(k) < k {
            return None;
        }
        Some(
            self.rows[..k]
                .iter()
                .map(|r| r.extract(k, self.len))
                .collect(),
        )
    }

    /// Partial decode: entry `i` is the payload of index `i` if the unit
    /// coefficient vector e_i is realized by a basis row.
    pub fn decode_available(&self, k: usize) -> Vec<Option<Gf2Vec>> {
        let mut out = vec![None; k];
        for (row, &p) in self.rows.iter().zip(&self.pivots) {
            if p < k {
                let prefix = row.extract(0, k);
                if prefix.count_ones() == 1 {
                    out[p] = Some(row.extract(k, self.len));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn limb_ops_agree_with_vector_ops() {
        let mut rng = StdRng::seed_from_u64(21);
        for len in [1usize, 63, 64, 65, 130, 200] {
            let a = Gf2Vec::random(len, &mut rng);
            let b = Gf2Vec::random(len, &mut rng);
            assert_eq!(limbs_for(len), a.words().len());
            // xor on raw limbs == xor_assign on vectors.
            let mut words = a.words().to_vec();
            limb_xor(&mut words, b.words());
            let mut expect = a.clone();
            expect.xor_assign(&b);
            assert_eq!(Gf2Vec::from_words(words.clone(), len), expect);
            // get / leading-one / prefix popcount agree.
            for i in 0..len {
                assert_eq!(limb_get(a.words(), i), a.get(i));
            }
            assert_eq!(limb_leading_one(a.words()), a.leading_one());
            for upto in [1, len / 2 + 1, len] {
                assert_eq!(
                    limb_prefix_ones(a.words(), upto),
                    a.extract(0, upto).count_ones(),
                    "len={len} upto={upto}"
                );
            }
            // set on raw limbs == set on vectors.
            let mut words = vec![0u64; limbs_for(len)];
            limb_set(&mut words, len - 1);
            assert_eq!(Gf2Vec::from_words(words, len), Gf2Vec::unit(len, len - 1));
        }
    }

    #[test]
    fn from_words_masks_the_tail() {
        let v = Gf2Vec::from_words(vec![u64::MAX], 3);
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.words(), &[0b111]);
    }

    #[test]
    fn set_get_round_trip_across_word_boundaries() {
        let mut v = Gf2Vec::zeros(130);
        for &i in &[0, 1, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
            assert!(v.get(i));
            v.set(i, false);
            assert!(!v.get(i));
        }
    }

    #[test]
    fn tail_bits_stay_masked() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [1, 7, 63, 64, 65, 100] {
            let v = Gf2Vec::random(len, &mut rng);
            let mut w = v.clone();
            w.mask_tail();
            assert_eq!(v, w, "random() must leave tail masked (len={len})");
        }
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        for len in [1, 8, 9, 64, 65, 130] {
            let v = Gf2Vec::random(len, &mut rng);
            assert_eq!(Gf2Vec::from_bytes(&v.to_bytes(), len), v);
        }
    }

    #[test]
    fn xor_is_addition() {
        let a = Gf2Vec::from_bools(&[true, true, false, false]);
        let b = Gf2Vec::from_bools(&[true, false, true, false]);
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c, Gf2Vec::from_bools(&[false, true, true, false]));
        c.xor_assign(&b);
        assert_eq!(c, a, "xor is an involution");
    }

    #[test]
    fn leading_one_and_iter_ones() {
        let mut v = Gf2Vec::zeros(200);
        assert_eq!(v.leading_one(), None);
        v.set(70, true);
        v.set(5, true);
        v.set(199, true);
        assert_eq!(v.leading_one(), Some(5));
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![5, 70, 199]);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn dot_and_prefix_dot() {
        let a = Gf2Vec::from_bools(&[true, true, false, true]);
        let b = Gf2Vec::from_bools(&[true, true, true, false]);
        assert!(!a.dot(&b)); // overlap {0,1}: even
        let c = Gf2Vec::from_bools(&[true, false, true, false]);
        assert!(a.dot(&c)); // overlap {0}: odd
        let mu = Gf2Vec::from_bools(&[true, true]);
        assert!(!a.prefix_dot(&mu));
        let mu1 = Gf2Vec::from_bools(&[true]);
        assert!(a.prefix_dot(&mu1));
    }

    #[test]
    fn prefix_dot_across_word_boundary() {
        let mut rng = StdRng::seed_from_u64(3);
        // prefix_dot must equal dot of the extracted prefix.
        for _ in 0..50 {
            let v = Gf2Vec::random(150, &mut rng);
            let mu = Gf2Vec::random(70, &mut rng);
            assert_eq!(v.prefix_dot(&mu), v.extract(0, 70).dot(&mu));
        }
    }

    #[test]
    fn extract_splice_concat() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Gf2Vec::random(77, &mut rng);
        let b = Gf2Vec::random(33, &mut rng);
        let c = a.concat(&b);
        assert_eq!(c.len(), 110);
        assert_eq!(c.extract(0, 77), a);
        assert_eq!(c.extract(77, 110), b);
    }

    #[test]
    fn basis_insert_innovation() {
        let mut b = Gf2Basis::new(4);
        assert!(b.insert(Gf2Vec::from_bools(&[true, true, false, false])));
        assert!(!b.insert(Gf2Vec::from_bools(&[true, true, false, false])));
        assert!(b.insert(Gf2Vec::from_bools(&[false, true, false, false])));
        // (1,0,0,0) = row1 + row2: dependent.
        assert!(!b.insert(Gf2Vec::from_bools(&[true, false, false, false])));
        assert_eq!(b.dim(), 2);
        assert!(b.insert(Gf2Vec::from_bools(&[false, false, false, true])));
        assert_eq!(b.pivots(), &[0, 1, 3]);
    }

    #[test]
    fn basis_rref_invariant() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = Gf2Basis::new(96);
        for _ in 0..120 {
            b.insert(Gf2Vec::random(96, &mut rng));
        }
        assert_eq!(b.dim(), 96, "random vectors should fill the space");
        assert!(b.pivots().windows(2).all(|w| w[0] < w[1]));
        for (i, (&p, row)) in b.pivots().iter().zip(b.basis()).enumerate() {
            assert!(row.get(p));
            for (j, other) in b.basis().iter().enumerate() {
                if i != j {
                    assert!(!other.get(p), "pivot column not cleared");
                }
            }
        }
    }

    #[test]
    fn basis_decode_matches_dense_semantics() {
        let mut rng = StdRng::seed_from_u64(6);
        let (k, d) = (10, 16);
        let payloads: Vec<Gf2Vec> = (0..k).map(|_| Gf2Vec::random(d, &mut rng)).collect();
        let sources: Vec<Gf2Vec> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| Gf2Vec::unit(k, i).concat(p))
            .collect();
        let mut b = Gf2Basis::new(k + d);
        // Relay random combinations until full rank.
        let mut guard = 0;
        while b.prefix_rank(k) < k {
            let mut m = Gf2Vec::zeros(k + d);
            for s in &sources {
                if rng.random() {
                    m.xor_assign(s);
                }
            }
            b.insert(m);
            guard += 1;
            assert!(guard < 500, "should decode quickly");
        }
        assert_eq!(b.decode(k), Some(payloads));
    }

    #[test]
    fn basis_partial_decode() {
        let (k, d) = (3, 4);
        let mut b = Gf2Basis::new(k + d);
        let p1 = Gf2Vec::from_bools(&[true, false, true, true]);
        b.insert(Gf2Vec::unit(k, 1).concat(&p1));
        // A mixed vector e_0 + e_2 | payload.
        let mut mixed = Gf2Vec::zeros(k + d);
        mixed.set(0, true);
        mixed.set(2, true);
        b.insert(mixed);
        let avail = b.decode_available(k);
        assert_eq!(avail[1].as_ref(), Some(&p1));
        assert!(avail[0].is_none() && avail[2].is_none());
        assert!(b.decode(k).is_none());
    }

    #[test]
    fn sensing_monotone_under_insert() {
        let mut rng = StdRng::seed_from_u64(7);
        let k = 12;
        let mut b = Gf2Basis::new(k + 4);
        let mus: Vec<Gf2Vec> = (0..30).map(|_| Gf2Vec::random(k, &mut rng)).collect();
        let mut sensed = vec![false; mus.len()];
        for _ in 0..40 {
            b.insert(Gf2Vec::random(k + 4, &mut rng));
            for (s, mu) in sensed.iter_mut().zip(&mus) {
                let now = b.senses(mu);
                assert!(now || !*s, "sensing must be monotone");
                *s = now;
            }
        }
    }

    #[test]
    fn random_combination_in_span() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut b = Gf2Basis::new(32);
        for _ in 0..5 {
            b.insert(Gf2Vec::random(32, &mut rng));
        }
        for _ in 0..30 {
            let c = b.random_combination(&mut rng).unwrap();
            assert!(b.contains(&c));
        }
    }
}

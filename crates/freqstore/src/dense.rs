//! The flat direct-indexed frequency store for quantized key domains.

use crate::{FreqStore, RemoveError};

/// Slots per maintained block sum. 64 keeps one block of counts inside
/// a cache line pair while making the block array small enough (a few
/// hundred entries for 3-digit quantization) that rank scans skip empty
/// regions almost for free.
const BLOCK: usize = 64;

/// `10^e` for every exponent a `u64` can carry.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// A frequency multiset over keys quantized to `d` significant decimal
/// digits, stored as a flat `Vec<u64>` of per-key frequencies indexed
/// by a reversible `(significand, exponent)` encoding.
///
/// # Index encoding
///
/// Quantization (§3.1 of the paper) maps every `u64` onto
/// `s × 10^e` with significand `s ∈ [10^(d-1), 10^d)` (or the value
/// itself when it has ≤ d digits). That domain is *small and bounded* —
/// for the paper's `d = 3`: 1000 direct values plus 900 significands ×
/// 17 possible exponents = 16 300 slots, ever — so it can be laid out
/// flat:
///
/// ```text
/// index(v) = v                                   v < 10^d
///          = 10^d + (e-1)·span + (s − 10^(d-1))  v = s·10^e, e ≥ 1
/// span     = 9·10^(d-1)
/// ```
///
/// The encoding is monotone (larger keys ⇒ larger indices), so an
/// index scan *is* sorted iteration, and it is reversible
/// (`value_of(index_of(v)) == quantize(v)`), so no keys are stored at
/// all. Encoding a raw value quantizes it as a side effect of the
/// `s = v / 10^e` division — [`DenseFreqStore::insert`] therefore
/// accepts unquantized input and quantizes it on entry (idempotent for
/// already-quantized keys, which is what the QLOVE operator feeds it).
///
/// # Costs versus the sorted-run store
///
/// * `insert`: one `ilog10`, one table-indexed division, three array
///   `+=` — O(1), no log to sort at the boundary, no per-key
///   allocation.
/// * rank queries: prefix scans over the counts, accelerated by
///   per-[`BLOCK`] sums maintained incrementally on every mutation
///   (empty blocks are skipped without touching their counts).
/// * `merge_from`: a vectorized slice-add of the whole count array —
///   the distributed merge primitive, in place of a run merge.
/// * `memory_bytes`: **independent of occupancy** — the array grows to
///   the highest encoded index seen (never beyond the fixed domain
///   bound) and stays there. For `d = 3` that is ≤ 130 KB; a sorted-run
///   store holding the same sub-window is smaller at low unique counts.
///   See the README's backend-selection notes.
#[derive(Debug, Clone)]
pub struct DenseFreqStore {
    sig_digits: u32,
    /// `10^sig_digits` — first value that needs an exponent.
    base: u64,
    /// Significands per decade: `9·10^(d-1)`.
    span: usize,
    /// Hard cap on the index domain (`base + (20−d)·span`): `u64::MAX`
    /// has 20 digits, so no key encodes past this.
    max_slots: usize,
    /// Frequency per encoded key, grown lazily toward `max_slots` in
    /// [`BLOCK`] multiples.
    counts: Vec<u64>,
    /// Sum of each `BLOCK`-slot run of `counts`, maintained on every
    /// mutation; doubles as an occupancy map for scans and `clear`.
    blocks: Vec<u64>,
    total: u64,
    unique: usize,
}

impl DenseFreqStore {
    /// Widest supported quantization: beyond 6 significant digits the
    /// index domain (≈ `13·10^d` slots) stops being "small" and the
    /// sorted-run backend is the right tool. `QloveConfig::validate` rejects
    /// dense configurations above this, so misconfiguration fails at
    /// validation with a clear message rather than in the constructor.
    pub const MAX_SIG_DIGITS: u32 = 6;

    /// Empty store for keys quantized to `sig_digits` significant
    /// decimal digits.
    ///
    /// # Panics
    /// Panics unless `1 ≤ sig_digits ≤` [`DenseFreqStore::MAX_SIG_DIGITS`].
    pub fn new(sig_digits: u32) -> Self {
        assert!(
            (1..=Self::MAX_SIG_DIGITS).contains(&sig_digits),
            "dense store supports 1–{} significant digits, got {sig_digits}",
            Self::MAX_SIG_DIGITS
        );
        let base = POW10[sig_digits as usize];
        let span = (9 * POW10[sig_digits as usize - 1]) as usize;
        let max_slots = base as usize + (20 - sig_digits as usize) * span;
        Self {
            sig_digits,
            base,
            span,
            max_slots,
            counts: Vec::new(),
            blocks: Vec::new(),
            total: 0,
            unique: 0,
        }
    }

    /// The configured significant-digit count.
    pub fn sig_digits(&self) -> u32 {
        self.sig_digits
    }

    /// The quantized form of `v` under this store's precision — what
    /// [`DenseFreqStore::insert`] actually stores for `v`.
    pub fn quantize(&self, v: u64) -> u64 {
        self.value_of(self.index_of(v))
    }

    #[inline]
    fn index_of(&self, v: u64) -> usize {
        if v < self.base {
            return v as usize;
        }
        let e = (v.ilog10() + 1 - self.sig_digits) as usize;
        let s = v / POW10[e];
        self.base as usize + (e - 1) * self.span + (s - self.base / 10) as usize
    }

    /// Decode an index back to its key. Only called for indices that
    /// some key encoded to (occupied slots or `index_of` output), so
    /// the multiplication cannot overflow.
    #[inline]
    fn value_of(&self, idx: usize) -> u64 {
        let b = self.base as usize;
        if idx < b {
            return idx as u64;
        }
        let r = idx - b;
        let e = r / self.span + 1;
        let s = r % self.span + b / 10;
        s as u64 * POW10[e]
    }

    /// Grow `counts`/`blocks` to cover `idx` (in `BLOCK` multiples).
    #[inline]
    fn ensure(&mut self, idx: usize) {
        debug_assert!(idx < self.max_slots);
        if idx < self.counts.len() {
            return;
        }
        let len = ((idx + 1).div_ceil(BLOCK) * BLOCK).min(self.max_slots.next_multiple_of(BLOCK));
        self.counts.resize(len, 0);
        self.blocks.resize(len.div_ceil(BLOCK), 0);
    }

    /// Add one occurrence of every element of `values` — the batched
    /// ingestion primitive. Unlike the sorted-run `insert_batch`, no
    /// sort and no scratch copy are needed: direct indexing makes each
    /// element O(1), and encoding quantizes raw input on the fly.
    pub fn insert_slice(&mut self, values: &[u64]) {
        for &v in values {
            self.insert(v, 1);
        }
    }

    /// Bulk-add strictly-ascending `(key, frequency)` pairs — the
    /// summary-fold fast path behind distributed merging. Equivalent in
    /// final state to [`FreqStore::extend_counts`] over the same pairs.
    ///
    /// Sortedness buys three things over per-pair `insert`:
    ///
    /// * the array growth check runs **once**, against the last key;
    /// * block sums and the total are accumulated in registers and
    ///   flushed per block run / at the end, not per pair;
    /// * the significand division is replaced by a per-decade
    ///   floating-point reciprocal multiply with an exact ±1
    ///   correction (the estimate's absolute error is ≤ `10^d·3·2⁻⁵³`,
    ///   far below one, so a single compare-and-adjust restores the
    ///   exact floor — property-tested against `extend_counts` across
    ///   the whole domain).
    ///
    /// Zero frequencies are skipped, matching `insert`.
    ///
    /// # Panics
    /// Debug-asserts ascending key order; release builds with unsorted
    /// input would produce a valid store for the wrong multiset, so
    /// callers must pass summary-ordered pairs (e.g.
    /// `QloveSummary::counts`, sorted by construction).
    pub fn extend_sorted_counts(&mut self, pairs: &[(u64, u64)]) {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "pairs must be strictly ascending"
        );
        let Some(&(last_key, _)) = pairs.last() else {
            return;
        };
        self.ensure(self.index_of(last_key));
        let (base, span) = (self.base, self.span);
        let (counts, blocks) = (&mut self.counts, &mut self.blocks);
        let mut total_added = 0u64;
        let mut unique_added = 0usize;
        // Current decade: e = 0 covers keys below `base` (direct
        // indices); decade e ≥ 1 covers [base/10·unit, base·unit).
        let mut e = 0usize;
        let mut unit = 1u64;
        let mut recip = 1.0f64;
        // Exclusive key bound of the decade, in u128: the top decade's
        // bound (`base·10^(20−d)` ≈ 10^20) exceeds u64, and a saturated
        // u64 bound would never exceed a `u64::MAX` key, running `e`
        // past POW10.
        let mut hi = base as u128;
        let mut decade_idx = 0usize; // index of the decade's first slot, minus lowest significand
        let mut block = usize::MAX;
        let mut block_acc = 0u64;
        for &(key, freq) in pairs {
            if freq == 0 {
                continue;
            }
            while key as u128 >= hi {
                e += 1;
                unit = POW10[e];
                hi = unit as u128 * base as u128;
                recip = 1.0 / unit as f64;
                decade_idx = base as usize + (e - 1) * span - (base / 10) as usize;
            }
            let idx = if e == 0 {
                key as usize
            } else {
                // s = ⌊key / unit⌋ via reciprocal multiply; the f64
                // estimate is within one of the true significand, and
                // the u128 compare repairs it exactly.
                let mut s = (key as f64 * recip) as u64;
                let p = s as u128 * unit as u128;
                if p > key as u128 {
                    s -= 1;
                } else if p + unit as u128 <= key as u128 {
                    s += 1;
                }
                decade_idx + s as usize
            };
            let slot = &mut counts[idx];
            unique_added += usize::from(*slot == 0);
            *slot += freq;
            total_added += freq;
            let bi = idx / BLOCK;
            if bi != block {
                if block != usize::MAX {
                    blocks[block] += block_acc;
                }
                block = bi;
                block_acc = 0;
            }
            block_acc += freq;
        }
        if block != usize::MAX {
            blocks[block] += block_acc;
        }
        self.total += total_added;
        self.unique += unique_added;
    }

    /// Multiset union via slice-add: grow to cover `other`, count the
    /// slots it newly populates, then add its count and block arrays
    /// element-wise (both loops branch-free and auto-vectorizable).
    ///
    /// # Panics
    /// Panics when the stores disagree on quantization precision —
    /// their indices would mean different keys.
    pub fn merge_from(&mut self, other: &DenseFreqStore) {
        assert_eq!(
            self.sig_digits, other.sig_digits,
            "cannot merge dense stores of different precision"
        );
        let n = other.counts.len();
        if n == 0 {
            return;
        }
        // A full-grown `other` is BLOCK-rounded above the domain bound;
        // clamping still grows to the same rounded length.
        self.ensure((n - 1).min(self.max_slots - 1));
        let mut unique_added = 0usize;
        for (a, &b) in self.counts[..n].iter_mut().zip(&other.counts) {
            unique_added += usize::from(*a == 0 && b != 0);
            *a += b;
        }
        for (a, &b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a += b;
        }
        self.unique += unique_added;
        self.total += other.total;
    }

    /// Walk every invariant (block sums, total, unique count) — test
    /// support, O(slots).
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0u64;
        let mut unique = 0usize;
        for (b, chunk) in self.counts.chunks(BLOCK).enumerate() {
            let sum: u64 = chunk.iter().sum();
            if sum != self.blocks[b] {
                return Err(format!(
                    "block {b}: stored {} vs walked {sum}",
                    self.blocks[b]
                ));
            }
            total += sum;
            unique += chunk.iter().filter(|&&c| c != 0).count();
        }
        if total != self.total {
            return Err(format!("total: cached {} vs walked {total}", self.total));
        }
        if unique != self.unique {
            return Err(format!("unique: cached {} vs walked {unique}", self.unique));
        }
        Ok(())
    }
}

impl FreqStore for DenseFreqStore {
    fn insert(&mut self, key: u64, freq: u64) {
        if freq == 0 {
            return;
        }
        let idx = self.index_of(key);
        self.ensure(idx);
        let newly_occupied = self.counts[idx] == 0;
        self.counts[idx] += freq;
        self.blocks[idx / BLOCK] += freq;
        self.unique += usize::from(newly_occupied);
        self.total += freq;
    }

    fn insert_batch(&mut self, batch: &mut [u64]) {
        self.insert_slice(batch);
    }

    fn remove(&mut self, key: u64, freq: u64) -> Result<(), RemoveError> {
        if freq == 0 {
            return Ok(());
        }
        let idx = self.index_of(key);
        // Exact-match semantics: a key this store would quantize away
        // (`quantize(key) != key`) is by construction never stored.
        if idx >= self.counts.len() || self.counts[idx] == 0 || self.value_of(idx) != key {
            return Err(RemoveError::KeyNotFound);
        }
        let available = self.counts[idx];
        if freq > available {
            return Err(RemoveError::InsufficientCount { available });
        }
        self.counts[idx] -= freq;
        self.blocks[idx / BLOCK] -= freq;
        let emptied = self.counts[idx] == 0;
        self.total -= freq;
        self.unique -= usize::from(emptied);
        Ok(())
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn unique_len(&self) -> usize {
        self.unique
    }

    fn clear(&mut self) {
        // Zero only occupied blocks (the block sums are an occupancy
        // map), so the boundary reset costs O(live data), not O(domain).
        for (b, sum) in self.blocks.iter_mut().enumerate() {
            if *sum != 0 {
                self.counts[b * BLOCK..(b + 1) * BLOCK].fill(0);
                *sum = 0;
            }
        }
        self.total = 0;
        self.unique = 0;
    }

    fn count_of(&self, key: u64) -> u64 {
        let idx = self.index_of(key);
        if idx < self.counts.len() && self.value_of(idx) == key {
            self.counts[idx]
        } else {
            0
        }
    }

    fn select(&self, r: u64) -> Option<u64> {
        if r == 0 || r > self.total {
            return None;
        }
        let mut acc = 0u64;
        for (b, &bsum) in self.blocks.iter().enumerate() {
            if acc + bsum < r {
                acc += bsum;
                continue;
            }
            for (off, &c) in self.counts[b * BLOCK..(b + 1) * BLOCK].iter().enumerate() {
                acc += c;
                if acc >= r {
                    return Some(self.value_of(b * BLOCK + off));
                }
            }
        }
        unreachable!("1 ≤ r ≤ total implies some slot reaches r")
    }

    fn rank_of(&self, key: u64) -> u64 {
        // Everything in slots ≤ index_of(key) is ≤ quantize(key) ≤ key;
        // the next occupied slot decodes strictly above key (the next
        // quantized value is quantize(key) + its unit > key).
        let end = (self.index_of(key) + 1).min(self.counts.len());
        let full = end / BLOCK;
        self.blocks[..full].iter().sum::<u64>() + self.counts[full * BLOCK..end].iter().sum::<u64>()
    }

    fn quantile(&self, phi: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let r = (phi * self.total as f64).ceil() as u64;
        self.select(r.clamp(1, self.total))
    }

    fn quantiles_into(&self, phis: &[f64], out: &mut Vec<u64>) -> bool {
        out.clear();
        if self.total == 0 || phis.is_empty() {
            return phis.is_empty();
        }
        // Identical rank plan to `FreqTree::quantiles_into` — sorted
        // clamped ranks, answers in caller order — so the two backends
        // return bit-identical vectors.
        let mut order: Vec<usize> = (0..phis.len()).collect();
        order.sort_by(|&a, &b| phis[a].partial_cmp(&phis[b]).expect("NaN quantile"));
        let ranks: Vec<u64> = order
            .iter()
            .map(|&i| ((phis[i] * self.total as f64).ceil() as u64).clamp(1, self.total))
            .collect();
        out.resize(phis.len(), 0);
        let mut next = 0usize;
        let mut running = 0u64;
        'outer: for (b, &bsum) in self.blocks.iter().enumerate() {
            if bsum == 0 || running + bsum < ranks[next] {
                running += bsum;
                continue;
            }
            for (off, &c) in self.counts[b * BLOCK..(b + 1) * BLOCK].iter().enumerate() {
                if c == 0 {
                    continue;
                }
                running += c;
                while running >= ranks[next] {
                    out[order[next]] = self.value_of(b * BLOCK + off);
                    next += 1;
                    if next == ranks.len() {
                        break 'outer;
                    }
                }
            }
        }
        debug_assert_eq!(next, ranks.len(), "every clamped rank is reachable");
        true
    }

    fn top_k_into(&self, k: usize, out: &mut Vec<u64>) {
        out.clear();
        if k == 0 {
            return;
        }
        for b in (0..self.blocks.len()).rev() {
            if self.blocks[b] == 0 {
                continue;
            }
            for idx in (b * BLOCK..(b + 1) * BLOCK).rev() {
                let mut c = self.counts[idx];
                if c == 0 {
                    continue;
                }
                let v = self.value_of(idx);
                while c > 0 && out.len() < k {
                    out.push(v);
                    c -= 1;
                }
                if out.len() == k {
                    return;
                }
            }
        }
    }

    fn min_key(&self) -> Option<u64> {
        let b = self.blocks.iter().position(|&s| s != 0)?;
        (b * BLOCK..(b + 1) * BLOCK)
            .find(|&i| self.counts[i] != 0)
            .map(|i| self.value_of(i))
    }

    fn max_key(&self) -> Option<u64> {
        let b = self.blocks.iter().rposition(|&s| s != 0)?;
        (b * BLOCK..(b + 1) * BLOCK)
            .rev()
            .find(|&i| self.counts[i] != 0)
            .map(|i| self.value_of(i))
    }

    fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for (b, &bsum) in self.blocks.iter().enumerate() {
            if bsum == 0 {
                continue;
            }
            for (off, &c) in self.counts[b * BLOCK..(b + 1) * BLOCK].iter().enumerate() {
                if c != 0 {
                    f(self.value_of(b * BLOCK + off), c);
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.counts.capacity() + self.blocks.capacity()) * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_basics() {
        let s = DenseFreqStore::new(3);
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.unique_len(), 0);
        assert_eq!(s.select(1), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min_key(), None);
        assert_eq!(s.max_key(), None);
        s.validate().unwrap();
    }

    #[test]
    fn encoding_is_reversible_and_monotone_on_quantized_keys() {
        let s = DenseFreqStore::new(3);
        // Walk the entire quantized domain in value order: indices must
        // be strictly increasing and decode back exactly.
        let mut prev_idx = None;
        let mut keys: Vec<u64> = (0..1000u64).collect();
        for e in 1..=17u32 {
            for sig in 100u64..1000 {
                let (v, overflow) = sig.overflowing_mul(POW10[e as usize]);
                if overflow || v < sig {
                    continue;
                }
                keys.push(v);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        for &v in &keys {
            let idx = s.index_of(v);
            assert_eq!(s.value_of(idx), v, "decode(encode({v}))");
            assert!(idx < s.max_slots, "{v} exceeds the domain bound");
            if let Some(p) = prev_idx {
                assert!(idx > p, "encoding not monotone at {v}");
            }
            prev_idx = Some(idx);
        }
    }

    #[test]
    fn encode_quantizes_raw_values() {
        let s = DenseFreqStore::new(3);
        assert_eq!(s.quantize(74_265), 74_200);
        assert_eq!(s.quantize(1_247), 1_240);
        assert_eq!(s.quantize(999), 999);
        assert_eq!(s.quantize(0), 0);
        assert_eq!(s.quantize(u64::MAX), 18_400_000_000_000_000_000);
        let mut st = DenseFreqStore::new(3);
        st.insert(74_265, 1);
        assert_eq!(st.count_of(74_200), 1);
        assert_eq!(st.count_of(74_265), 0, "unquantized key is not stored");
        st.validate().unwrap();
    }

    #[test]
    fn extreme_values_stay_in_domain() {
        let mut s = DenseFreqStore::new(3);
        s.insert(u64::MAX, 2);
        s.insert(0, 1);
        s.insert(1, 1);
        assert_eq!(s.max_key(), Some(18_400_000_000_000_000_000));
        assert_eq!(s.min_key(), Some(0));
        assert_eq!(s.total(), 4);
        assert_eq!(s.select(4), Some(18_400_000_000_000_000_000));
        assert_eq!(s.rank_of(u64::MAX), 4);
        s.validate().unwrap();
    }

    #[test]
    fn select_and_rank_respect_multiplicity() {
        let mut s = DenseFreqStore::new(3);
        s.insert(10, 3);
        s.insert(20, 1);
        s.insert(5, 2);
        // Multiset: 5,5,10,10,10,20
        assert_eq!(s.select(1), Some(5));
        assert_eq!(s.select(3), Some(10));
        assert_eq!(s.select(6), Some(20));
        assert_eq!(s.select(7), None);
        assert_eq!(s.rank_of(4), 0);
        assert_eq!(s.rank_of(10), 5);
        assert_eq!(s.rank_of(15), 5);
        assert_eq!(s.rank_of(99), 6);
        s.validate().unwrap();
    }

    #[test]
    fn insert_slice_equals_per_element() {
        let data: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 97_000).collect();
        let mut per = DenseFreqStore::new(3);
        for &v in &data {
            per.insert(v, 1);
        }
        let mut batched = DenseFreqStore::new(3);
        batched.insert_slice(&data);
        batched.validate().unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        per.counts_into(&mut a);
        batched.counts_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(per.total(), batched.total());
    }

    #[test]
    fn extend_sorted_counts_matches_extend_counts_across_the_domain() {
        // Sweep every decade boundary, the direct region, the top
        // decade (where u64 arithmetic is near overflow), unquantized
        // keys, and random dense runs — the fast fold must agree with
        // per-pair inserts bit for bit.
        for d in [1u32, 3, 6] {
            let probe = DenseFreqStore::new(d);
            let mut keys: Vec<u64> = vec![0, 1, u64::MAX];
            for e in 0..20u32 {
                for delta in [0u64, 1, 7] {
                    keys.push(10u64.pow(e).saturating_add(delta));
                    keys.push(10u64.pow(e).saturating_sub(delta.min(10u64.pow(e))));
                }
            }
            keys.extend((0..4_000u64).map(|i| (i * 2654435761) % 10_000_000));
            // extend_sorted_counts wants strictly-ascending *stored*
            // keys, so sort/dedup the quantized forms.
            let mut quantized: Vec<u64> = keys.iter().map(|&k| probe.quantize(k)).collect();
            quantized.sort_unstable();
            quantized.dedup();
            let pairs: Vec<(u64, u64)> = quantized
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, 1 + (i as u64 % 5)))
                .collect();
            let mut fast = DenseFreqStore::new(d);
            fast.extend_sorted_counts(&pairs);
            fast.validate().unwrap();
            let mut slow = DenseFreqStore::new(d);
            slow.extend_counts(pairs.iter().copied());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            fast.counts_into(&mut a);
            slow.counts_into(&mut b);
            assert_eq!(a, b, "d = {d}");
            assert_eq!(fast.total(), slow.total());
            assert_eq!(fast.unique_len(), slow.unique_len());
            // Folding a second round on top of existing state also
            // agrees (unique accounting with occupied slots).
            fast.extend_sorted_counts(&pairs);
            slow.extend_counts(pairs.iter().copied());
            fast.validate().unwrap();
            assert_eq!(fast.total(), slow.total());
            assert_eq!(fast.unique_len(), slow.unique_len());
        }
    }

    #[test]
    fn extend_sorted_counts_survives_the_top_decade() {
        // Regression: a u64::MAX key once ran the decade-advance loop
        // past POW10 (the saturated u64 bound could never exceed the
        // key). The top decade must behave exactly like per-key insert.
        for d in 1..=6u32 {
            let probe = DenseFreqStore::new(d);
            let mut keys = vec![
                probe.quantize(u64::MAX / 97),
                probe.quantize(u64::MAX - 1),
                probe.quantize(u64::MAX),
            ];
            keys.sort_unstable();
            keys.dedup();
            let pairs: Vec<(u64, u64)> = keys.into_iter().map(|k| (k, 2)).collect();
            let mut fast = DenseFreqStore::new(d);
            fast.extend_sorted_counts(&pairs);
            fast.validate().unwrap();
            let mut slow = DenseFreqStore::new(d);
            slow.extend_counts(pairs.iter().copied());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            fast.counts_into(&mut a);
            slow.counts_into(&mut b);
            assert_eq!(a, b, "d = {d}");
        }
        // And through the enum fold, as a coordinator would hit it.
        let mut store = crate::FreqStoreImpl::dense(3);
        store.merge_sorted_counts(&[(7, 1), (18_400_000_000_000_000_000, 3)]);
        assert_eq!(FreqStore::total(&store), 4);
    }

    #[test]
    fn extend_sorted_counts_empty_and_zero_freq() {
        let mut s = DenseFreqStore::new(3);
        s.extend_sorted_counts(&[]);
        assert!(s.is_empty());
        s.extend_sorted_counts(&[(5, 0), (10, 2)]);
        assert_eq!(s.count_of(5), 0);
        assert_eq!(s.count_of(10), 2);
        s.validate().unwrap();
    }

    #[test]
    fn merge_from_is_multiset_union() {
        let mut a = DenseFreqStore::new(3);
        a.extend_counts([(1u64, 2), (555_000, 1), (9, 3)]);
        let mut b = DenseFreqStore::new(3);
        b.extend_counts([(0u64, 1), (555_000, 4), (12_300_000, 2)]);
        a.merge_from(&b);
        a.validate().unwrap();
        let mut pairs = Vec::new();
        a.counts_into(&mut pairs);
        assert_eq!(
            pairs,
            vec![(0, 1), (1, 2), (9, 3), (555_000, 5), (12_300_000, 2)]
        );
        assert_eq!(a.total(), 13);
        assert_eq!(a.unique_len(), 5);
        // Source untouched; empty merges are no-ops.
        assert_eq!(b.total(), 7);
        a.merge_from(&DenseFreqStore::new(3));
        assert_eq!(a.total(), 13);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mismatched_precision() {
        let mut a = DenseFreqStore::new(3);
        let mut b = DenseFreqStore::new(4);
        b.insert(1, 1);
        a.merge_from(&b);
    }

    #[test]
    fn clear_is_proportional_to_occupancy_and_keeps_memory() {
        let mut s = DenseFreqStore::new(3);
        for v in 0..10_000u64 {
            s.insert(v * 13, 1);
        }
        let bytes = s.memory_bytes();
        s.clear();
        s.validate().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.memory_bytes(), bytes);
        s.insert(5, 1);
        assert_eq!(s.quantile(0.5), Some(5));
    }

    #[test]
    fn zero_freq_operations_are_noops() {
        let mut s = DenseFreqStore::new(2);
        s.insert(10, 0);
        assert!(s.is_empty());
        s.remove(10, 0).unwrap();
        s.validate().unwrap();
    }

    #[test]
    fn works_at_every_supported_precision() {
        for d in 1..=6u32 {
            let mut s = DenseFreqStore::new(d);
            let data: Vec<u64> = (0..2_000u64).map(|i| (i * 104729) % 1_000_000).collect();
            for &v in &data {
                s.insert(v, 1);
            }
            s.validate().unwrap();
            assert_eq!(s.total(), 2_000);
            let q = s.quantile(0.5).unwrap();
            assert_eq!(s.quantize(q), q, "quantile output is a stored key");
        }
    }

    #[test]
    #[should_panic(expected = "1–6 significant digits")]
    fn rejects_unsupported_precision() {
        DenseFreqStore::new(7);
    }

    #[test]
    fn quantiles_into_matches_single_quantile() {
        let mut s = DenseFreqStore::new(3);
        for v in [5u64, 9, 9, 1, 14, 2, 2, 2, 30, 7] {
            s.insert(v, 1);
        }
        let phis = [0.999, 0.5, 0.9, 0.1];
        let mut buf = vec![77u64; 2];
        assert!(s.quantiles_into(&phis, &mut buf));
        for (i, &phi) in phis.iter().enumerate() {
            assert_eq!(Some(buf[i]), s.quantile(phi), "phi {phi}");
        }
        let empty = DenseFreqStore::new(3);
        assert!(!empty.quantiles_into(&[0.5], &mut buf));
        assert!(buf.is_empty());
        assert!(empty.quantiles_into(&[], &mut buf));
    }

    #[test]
    fn top_k_descending_with_multiplicity() {
        let mut s = DenseFreqStore::new(3);
        s.insert(1, 1);
        s.insert(50, 2);
        s.insert(9, 1);
        let mut buf = vec![99u64; 8];
        s.top_k_into(3, &mut buf);
        assert_eq!(buf, vec![50, 50, 9]);
        s.top_k_into(10, &mut buf);
        assert_eq!(buf, vec![50, 50, 9, 1]);
        s.top_k_into(0, &mut buf);
        assert!(buf.is_empty());
    }
}

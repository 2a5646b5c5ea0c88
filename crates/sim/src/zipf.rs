//! O(1) Zipfian sampling via Walker/Vose alias tables.
//!
//! The server-scale workloads (YCSB-style KV, durable-log WAL) draw keys
//! from a Zipf(s) distribution over millions of ranks. Inverse-CDF
//! sampling is O(log n) per draw and the classic rejection samplers burn
//! several PRNG words per draw; the alias method gives exactly one
//! uniform index plus one fixed-point threshold compare — O(1) with a
//! single [`SplitMix64`] state advance of two words per sample, which
//! keeps the sharded==serial determinism contract easy to reason about.
//!
//! Floating point is confined to table construction (`powf` over the
//! rank weights); the sampling path is pure integer arithmetic, so a
//! built table is bit-deterministic under any draw interleaving.
//!
//! A table is a pure function of `(n, s)`, so it is built once per
//! `(n, s)` per process: a small process-wide memo keeps the few most
//! recently used tables, and every sampler for one key shares its
//! storage. Experiments whose points repeat one key (every KV point draws
//! from 250 000 ranks at s = 0.99) pay for one build, not one per point.

use std::sync::{Arc, Mutex};

use crate::rng::SplitMix64;

/// An O(1) sampler for the Zipf(s) distribution over ranks `0..n`.
///
/// Rank `k` is drawn with probability proportional to `(k+1)^-s`; rank 0
/// is the hottest key. `s = 0` degenerates to the uniform distribution.
///
/// # Examples
///
/// ```
/// use bbb_sim::{SplitMix64, ZipfSampler};
/// let zipf = ZipfSampler::new(1_000_000, 0.99);
/// let mut rng = SplitMix64::new(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Fixed-point (63-bit) acceptance threshold per slot: a uniform
    /// 63-bit draw below `prob[i]` keeps slot `i`, otherwise the draw is
    /// redirected to `alias[i]`.
    prob: Arc<[u64]>,
    alias: Arc<[u32]>,
    s: f64,
}

/// Fixed-point scale for the acceptance thresholds (63 fraction bits so
/// the threshold of a full slot, 1.0, still fits in a `u64`).
const FP_ONE: u64 = 1u64 << 63;

/// How many tables the memo keeps: the most recently used keys. A kv or
/// WAL experiment uses one key at a time, so a handful is plenty, and the
/// bound caps what the memo holds after its samplers are dropped.
const MEMO_ENTRIES: usize = 4;

/// A built alias table: the `prob` and `alias` columns of a sampler.
type Table = (Arc<[u64]>, Arc<[u32]>);

/// The process-wide memo behind [`ZipfSampler::new`].
static TABLES: TableMemo = TableMemo::new();

/// The most recently used tables, keyed by `(n, s.to_bits())`, oldest
/// first.
struct TableMemo(Mutex<Vec<((u64, u64), Table)>>);

impl TableMemo {
    const fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    /// The table for `Zipf(s)` over `n` ranks, built on a miss. The lock
    /// is held while building, so threads asking for one key at once
    /// build it once.
    fn table(&self, n: u64, s: f64) -> Table {
        let key = (n, s.to_bits());
        // `new` checks its inputs before locking, so a build does not
        // unwind and a poisoned lock means a bug here.
        let mut entries = self.0.lock().expect("zipf table memo poisoned");
        let table = match entries.iter().position(|(k, _)| *k == key) {
            Some(i) => entries.remove(i).1,
            None => {
                let (prob, alias) = build_table(n, s);
                (prob.into(), alias.into())
            }
        };
        if entries.len() == MEMO_ENTRIES {
            entries.remove(0);
        }
        entries.push((key, table.clone()));
        table
    }
}

impl ZipfSampler {
    /// Builds the alias table for `Zipf(s)` over `n` ranks.
    ///
    /// The table is built once per `(n, s)` per process and shared: a
    /// sampler for a key the process used recently reuses its storage.
    /// A build is O(n) time and O(n) space (12 bytes per rank); sampling
    /// afterwards is O(1) and allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, exceeds `u32::MAX`, or `s` is negative or
    /// non-finite.
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(n <= u64::from(u32::MAX), "zipf support exceeds u32 ranks");
        assert!(
            s >= 0.0 && s.is_finite(),
            "zipf exponent must be finite and >= 0"
        );
        Self::from_memo(&TABLES, n, s)
    }

    fn from_memo(memo: &TableMemo, n: u64, s: f64) -> Self {
        let (prob, alias) = memo.table(n, s);
        Self { prob, alias, s }
    }

    /// Number of ranks in the support.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.prob.len() as u64
    }

    /// The skew exponent the table was built for.
    #[must_use]
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `0..n` (two PRNG words, pure integer path).
    #[must_use]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let i = rng.next_below(self.n()) as usize;
        let coin = rng.next_u64() >> 1; // uniform 63-bit
        if coin < self.prob[i] {
            i as u64
        } else {
            u64::from(self.alias[i])
        }
    }

    /// Theoretical probability mass of rank `k` (for tests/reports).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the support.
    #[must_use]
    pub fn theoretical_mass(&self, k: u64) -> f64 {
        assert!(k < self.n(), "rank outside support");
        let total: f64 = (0..self.n()).map(|j| ((j + 1) as f64).powf(-self.s)).sum();
        ((k + 1) as f64).powf(-self.s) / total
    }
}

/// Vose's alias construction for `Zipf(s)` over `n` checked ranks.
fn build_table(n: u64, s: f64) -> (Vec<u64>, Vec<u32>) {
    let n_usize = usize::try_from(n).expect("n fits usize");
    // Scaled weights p_k * n: Vose's algorithm splits them into slots
    // of unit capacity, each holding at most two ranks.
    let weights: Vec<f64> = (0..n_usize).map(|k| ((k + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let scale = n as f64 / total;
    let mut scaled: Vec<f64> = weights.into_iter().map(|w| w * scale).collect();

    let mut prob = vec![0u64; n_usize];
    let mut alias = vec![0u32; n_usize];
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (k, &w) in scaled.iter().enumerate() {
        let k = k as u32;
        if w < 1.0 {
            small.push(k);
        } else {
            large.push(k);
        }
    }
    while let (Some(&s_idx), Some(&l_idx)) = (small.last(), large.last()) {
        small.pop();
        let w = scaled[s_idx as usize];
        prob[s_idx as usize] = to_fp(w);
        alias[s_idx as usize] = l_idx;
        let rem = scaled[l_idx as usize] + w - 1.0;
        scaled[l_idx as usize] = rem;
        if rem < 1.0 {
            large.pop();
            small.push(l_idx);
        }
    }
    // Leftovers (numerically ~1.0) become full slots.
    for &k in small.iter().chain(large.iter()) {
        prob[k as usize] = FP_ONE;
        alias[k as usize] = k;
    }
    (prob, alias)
}

fn to_fp(w: f64) -> u64 {
    // w is in [0, 1]; round to the 63-bit fixed-point grid.
    let fp = (w * FP_ONE as f64).round();
    if fp >= FP_ONE as f64 {
        FP_ONE
    } else if fp <= 0.0 {
        0
    } else {
        fp as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(zipf: &ZipfSampler, seed: u64, draws: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut counts = vec![0u64; zipf.n() as usize];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let zipf = ZipfSampler::new(4096, 0.99);
        let a = frequencies(&zipf, 0xBBB, 10_000);
        let b = frequencies(&zipf, 0xBBB, 10_000);
        assert_eq!(a, b);
        // A table rebuilt outside the process memo samples identically:
        // construction is a pure function of (n, s).
        let rebuilt = ZipfSampler::from_memo(&TableMemo::new(), 4096, 0.99);
        assert!(!Arc::ptr_eq(&zipf.prob, &rebuilt.prob));
        let c = frequencies(&rebuilt, 0xBBB, 10_000);
        assert_eq!(a, c);
    }

    /// FNV-1a over the little-endian bytes of `prob`, then of `alias`.
    fn table_checksum(zipf: &ZipfSampler) -> u64 {
        let words = zipf.prob.iter().copied();
        let words = words.chain(zipf.alias.iter().map(|&a| u64::from(a)));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.flat_map(u64::to_le_bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn kv_table_and_draws_match_the_golden() {
        // Taken from the build before tables were shared; a change to
        // Vose's construction or to `sample` shows here.
        let zipf = ZipfSampler::new(250_000, 0.99);
        assert_eq!(table_checksum(&zipf), 0x56f0_13d7_940f_5377);
        let mut rng = SplitMix64::new(0xBBB);
        let ranks: Vec<u64> = (0..16).map(|_| zipf.sample(&mut rng)).collect();
        assert_eq!(
            ranks,
            [
                64447, 5, 107_622, 24915, 2777, 335, 830, 39904, 1869, 311, 34, 38992, 5, 99,
                37442, 3
            ]
        );
    }

    #[test]
    fn memo_tables_equal_a_direct_build() {
        for (n, s) in [(250_000, 0.99), (4, 0.99), (1000, 1.2), (64, 0.0)] {
            let zipf = ZipfSampler::new(n, s);
            let (prob, alias) = build_table(n, s);
            assert_eq!(*zipf.prob, prob[..], "prob of ({n}, {s})");
            assert_eq!(*zipf.alias, alias[..], "alias of ({n}, {s})");
        }
    }

    #[test]
    fn one_key_shares_one_table() {
        let memo = TableMemo::new();
        let a = ZipfSampler::from_memo(&memo, 1000, 0.99);
        let b = ZipfSampler::from_memo(&memo, 1000, 0.99);
        assert!(Arc::ptr_eq(&a.prob, &b.prob) && Arc::ptr_eq(&a.alias, &b.alias));
        for other in [
            ZipfSampler::from_memo(&memo, 1001, 0.99),
            ZipfSampler::from_memo(&memo, 1000, 1.0),
        ] {
            assert!(!Arc::ptr_eq(&a.prob, &other.prob));
            assert!(!Arc::ptr_eq(&a.alias, &other.alias));
        }
    }

    #[test]
    fn memo_keeps_the_most_recent_keys() {
        let memo = TableMemo::new();
        let first = ZipfSampler::from_memo(&memo, 1, 0.5);
        let second = ZipfSampler::from_memo(&memo, 2, 0.5);
        for n in 3..=MEMO_ENTRIES as u64 {
            let _ = ZipfSampler::from_memo(&memo, n, 0.5);
        }
        // A hit makes `first` the newest, so the next miss evicts `second`.
        let _ = ZipfSampler::from_memo(&memo, 1, 0.5);
        let _ = ZipfSampler::from_memo(&memo, 99, 0.5);
        let again = |zipf: &ZipfSampler| {
            Arc::ptr_eq(
                &zipf.prob,
                &ZipfSampler::from_memo(&memo, zipf.n(), 0.5).prob,
            )
        };
        assert!(again(&first));
        assert!(!again(&second));
    }

    #[test]
    fn concurrent_builds_of_one_key_make_one_table() {
        let memo = TableMemo::new();
        let start = std::sync::Barrier::new(2);
        let build = || {
            start.wait();
            ZipfSampler::from_memo(&memo, 250_000, 0.99)
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(build);
            let b = scope.spawn(build);
            (
                a.join().expect("builder thread"),
                b.join().expect("builder thread"),
            )
        });
        assert!(Arc::ptr_eq(&a.prob, &b.prob) && Arc::ptr_eq(&a.alias, &b.alias));
    }

    #[test]
    fn rank_frequency_matches_theory() {
        // Observed mass of the head ranks must track the analytic Zipf
        // mass for both the YCSB default and a steeper skew.
        for s in [0.99f64, 1.2] {
            let n = 1000;
            let draws = 400_000u64;
            let zipf = ZipfSampler::new(n, s);
            let counts = frequencies(&zipf, 0x5EED ^ s.to_bits(), draws);
            for k in 0..8u64 {
                let expected = zipf.theoretical_mass(k);
                let observed = counts[k as usize] as f64 / draws as f64;
                let rel = (observed - expected).abs() / expected;
                assert!(
                    rel < 0.05,
                    "s={s} rank {k}: observed {observed:.5} vs expected {expected:.5} (rel {rel:.3})"
                );
            }
            // Bulk check: top-10 cumulative mass within 2%.
            let top10_obs: u64 = counts[..10].iter().sum();
            let top10_exp: f64 = (0..10).map(|k| zipf.theoretical_mass(k)).sum();
            let rel = (top10_obs as f64 / draws as f64 - top10_exp).abs() / top10_exp;
            assert!(rel < 0.02, "s={s} top-10 mass off by {rel:.3}");
        }
    }

    #[test]
    fn steeper_skew_concentrates_more_mass() {
        let n = 1000;
        let mild = ZipfSampler::new(n, 0.99);
        let steep = ZipfSampler::new(n, 1.2);
        assert!(steep.theoretical_mass(0) > mild.theoretical_mass(0));
        let mild_counts = frequencies(&mild, 1, 100_000);
        let steep_counts = frequencies(&steep, 1, 100_000);
        assert!(steep_counts[0] > mild_counts[0]);
    }

    #[test]
    fn degenerate_s_zero_is_uniform() {
        let n = 64u64;
        let draws = 256_000u64;
        let zipf = ZipfSampler::new(n, 0.0);
        // Every slot must be full (probability exactly 1/n each).
        let counts = frequencies(&zipf, 42, draws);
        let expected = draws as f64 / n as f64;
        for (k, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.08, "rank {k} count {c} vs uniform {expected}");
        }
        let mass = zipf.theoretical_mass(0);
        assert!((mass - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn single_rank_support() {
        let zipf = ZipfSampler::new(1, 0.99);
        let mut rng = SplitMix64::new(9);
        for _ in 0..16 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}

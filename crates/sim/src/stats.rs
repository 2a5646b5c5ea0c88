//! Lightweight simulation statistics.
//!
//! Components own [`Counter`]s directly (cheap `u64` increments on the hot
//! path) and expose them through a flat [`Stats`] map when a run finishes.
//! The benchmark harness merges per-component maps to print the paper's
//! metrics (execution cycles, NVMM writes, bbPB rejections/drains, …).

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use bbb_sim::Counter;
/// let mut c = Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A flat, ordered name → value map of counters collected from a finished
/// simulation.
///
/// Keys use `component.metric` dotted names (`"nvmm.writes"`,
/// `"bbpb.rejections"`), kept sorted so reports are stable.
///
/// # Examples
///
/// ```
/// use bbb_sim::Stats;
/// let mut s = Stats::new();
/// s.set("nvmm.writes", 10);
/// s.add("nvmm.writes", 5);
/// assert_eq!(s.get("nvmm.writes"), 15);
/// assert_eq!(s.get("missing"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    values: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty stats map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any previous value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Adds `value` to `name` (starting from 0 if absent).
    pub fn add(&mut self, name: &str, value: u64) {
        *self.values.entry(name.to_owned()).or_insert(0) += value;
    }

    /// Reads `name`, returning 0 if it was never recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Merges another stats map into this one, summing shared keys.
    ///
    /// Merging is associative and commutative with [`Stats::new`] as the
    /// identity, so per-component (or per-thread) snapshots can be
    /// combined in any grouping — the property the parallel experiment
    /// runner relies on.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.values {
            *self.values.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Merges a sequence of snapshots into one map (fold over
    /// [`Stats::merge`]).
    ///
    /// ```
    /// use bbb_sim::Stats;
    /// let mut a = Stats::new();
    /// a.set("x", 1);
    /// let mut b = Stats::new();
    /// b.set("x", 2);
    /// assert_eq!(Stats::merged([a, b]).get("x"), 3);
    /// ```
    #[must_use]
    pub fn merged<I: IntoIterator<Item = Stats>>(parts: I) -> Stats {
        let mut total = Stats::new();
        for part in parts {
            total.merge(&part);
        }
        total
    }

    /// Iterates `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of recorded metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metric has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

impl Extend<(String, u64)> for Stats {
    fn extend<T: IntoIterator<Item = (String, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            *self.values.entry(k).or_insert(0) += v;
        }
    }
}

impl FromIterator<(String, u64)> for Stats {
    fn from_iter<T: IntoIterator<Item = (String, u64)>>(iter: T) -> Self {
        let mut s = Stats::new();
        s.extend(iter);
        s
    }
}

/// Sub-buckets per power-of-two major bucket in [`LatencyHistogram`]
/// (5 significant bits → ≤ 1/32 ≈ 3.1% relative quantization error).
const LAT_SUBS: u64 = 32;
/// Values below `2 * LAT_SUBS` are counted exactly (one bucket per value).
const LAT_EXACT: u64 = 2 * LAT_SUBS;
/// First major exponent that uses sub-bucketing.
const LAT_FIRST_MAJOR: u32 = 6; // 2^6 == LAT_EXACT

/// An HDR-style log-bucketed latency histogram with mergeable state.
///
/// Values `< 64` land in exact unit buckets; larger values land in one of
/// 32 linear sub-buckets within their power-of-two major bucket, bounding
/// relative quantization error at ~3%, tight enough to report tail
/// percentiles. Buckets are allocated on demand up to the highest one
/// recorded (64 exact + 32 subs for each major 6..=63 at most): a machine
/// that never records, or records only small latencies, does not pay for
/// the whole 15 KiB array.
///
/// [`LatencyHistogram::merge`] is associative and commutative with an
/// empty histogram as identity — the same `Stats`-style monoid contract
/// the sharded experiment runner relies on, so per-shard histograms can
/// be combined in any grouping before percentiles are read.
///
/// # Examples
///
/// ```
/// use bbb_sim::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile_permille(500);
/// assert!((485..=515).contains(&p50), "p50 = {p50}");
/// assert!(h.percentile_permille(999) >= 960);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Counts up to the highest bucket recorded; the last one is
    /// non-zero, so equal contents mean equal histograms.
    buckets: Vec<u64>,
    samples: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            samples: 0,
            sum: 0,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < LAT_EXACT {
            value as usize
        } else {
            let major = 63 - value.leading_zeros(); // >= LAT_FIRST_MAJOR
            let sub = (value >> (major - 5)) & (LAT_SUBS - 1);
            LAT_EXACT as usize
                + (major - LAT_FIRST_MAJOR) as usize * LAT_SUBS as usize
                + sub as usize
        }
    }

    /// Lower bound of bucket `idx` (the value reported for percentiles
    /// that resolve to it).
    fn lower_bound(idx: usize) -> u64 {
        if idx < LAT_EXACT as usize {
            idx as u64
        } else {
            let rel = idx - LAT_EXACT as usize;
            let major = LAT_FIRST_MAJOR + (rel / LAT_SUBS as usize) as u32;
            let sub = (rel % LAT_SUBS as usize) as u64;
            (1u64 << major) + (sub << (major - 5))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_many(value, 1);
    }

    /// Records `count` identical samples.
    pub fn record_many(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = Self::index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += count;
        self.samples += count;
        self.sum += u128::from(value) * u128::from(count);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub const fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest sample seen (0 when empty).
    #[must_use]
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of all samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Merges another histogram into this one (bucket-wise sum).
    ///
    /// Associative and commutative with [`LatencyHistogram::new`] as the
    /// identity, so shard snapshots combine in any grouping.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.samples += other.samples;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at the given permille rank (500 → p50, 990 → p99,
    /// 999 → p999), reported at bucket-lower-bound granularity (exact for
    /// values < 64, within ~3% above). Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `permille` is not in `(0, 1000]`.
    #[must_use]
    pub fn percentile_permille(&self, permille: u32) -> u64 {
        assert!(
            permille > 0 && permille <= 1000,
            "permille must be in (0, 1000]"
        );
        if self.samples == 0 {
            return 0;
        }
        if permille == 1000 {
            return self.max;
        }
        let target = (u128::from(self.samples) * u128::from(permille)).div_ceil(1000) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The max is a tighter bound than the top bucket's span.
                return Self::lower_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// True when no sample has been recorded.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.samples == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(format!("{c}"), "10");
    }

    #[test]
    fn stats_set_add_get() {
        let mut s = Stats::new();
        assert!(s.is_empty());
        s.set("a", 3);
        s.add("a", 2);
        s.add("b", 1);
        assert_eq!(s.get("a"), 5);
        assert_eq!(s.get("b"), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_sums_shared_keys() {
        let mut a = Stats::new();
        a.set("x", 1);
        a.set("y", 2);
        let mut b = Stats::new();
        b.set("y", 3);
        b.set("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    fn sample(pairs: &[(&str, u64)]) -> Stats {
        let mut s = Stats::new();
        for &(k, v) in pairs {
            s.set(k, v);
        }
        s
    }

    #[test]
    fn merge_identity_is_empty() {
        let a = sample(&[("x", 1), ("y", 2)]);
        let mut left = Stats::new();
        left.merge(&a);
        assert_eq!(left, a, "empty ∘ a = a");
        let mut right = a.clone();
        right.merge(&Stats::new());
        assert_eq!(right, a, "a ∘ empty = a");
    }

    #[test]
    fn merge_is_associative() {
        let a = sample(&[("x", 1)]);
        let b = sample(&[("x", 2), ("y", 3)]);
        let c = sample(&[("y", 4), ("z", 5)]);
        // (a ∘ b) ∘ c
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        // a ∘ (b ∘ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn merge_is_commutative() {
        let a = sample(&[("x", 1), ("y", 2)]);
        let b = sample(&[("y", 3), ("z", 4)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merged_folds_snapshots() {
        let parts = [
            sample(&[("x", 1)]),
            sample(&[("x", 2), ("y", 1)]),
            Stats::new(),
        ];
        let total = Stats::merged(parts);
        assert_eq!(total.get("x"), 3);
        assert_eq!(total.get("y"), 1);
        assert_eq!(Stats::merged([]), Stats::new());
    }

    #[test]
    fn iteration_is_sorted() {
        let s: Stats = [("b".to_owned(), 2), ("a".to_owned(), 1)]
            .into_iter()
            .collect();
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b"]);
    }

    #[test]
    fn display_lists_all() {
        let mut s = Stats::new();
        s.set("m", 7);
        assert_eq!(format!("{s}"), "m = 7\n");
    }

    #[test]
    fn latency_histogram_exact_below_64() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.samples(), 64);
        assert_eq!(h.max(), 63);
        // Exact unit buckets: p50 of 0..=63 is the 32nd value.
        assert_eq!(h.percentile_permille(500), 31);
        assert_eq!(h.percentile_permille(1000), 63);
    }

    #[test]
    fn latency_histogram_relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            let mut single = LatencyHistogram::new();
            single.record(v);
            let got = single.percentile_permille(500);
            let rel = (v as f64 - got as f64).abs() / v as f64;
            assert!(rel <= 1.0 / 32.0 + 1e-12, "v={v} got={got} rel={rel}");
            h.record(v);
        }
        assert_eq!(h.samples(), 5);
    }

    #[test]
    fn latency_histogram_percentiles_track_uniform() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (permille, expect) in [(500u32, 50_000u64), (990, 99_000), (999, 99_900)] {
            let got = h.percentile_permille(permille);
            let rel = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(rel < 0.04, "p{permille}: got {got}, expect ~{expect}");
        }
        assert_eq!(h.percentile_permille(1000), 100_000);
    }

    #[test]
    fn latency_histogram_merge_is_monoid() {
        let mk = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 900]);
        let b = mk(&[2, 2, 70_000]);
        let c = mk(&[0, 1_000_000]);
        // Identity.
        let mut id = LatencyHistogram::new();
        id.merge(&a);
        assert_eq!(id, a);
        // Commutativity.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Associativity.
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // Merge equals recording the concatenation.
        let all = mk(&[1, 5, 900, 2, 2, 70_000, 0, 1_000_000]);
        assert_eq!(ab_c, all);
    }

    #[test]
    fn latency_histogram_record_many_matches_loop() {
        let mut a = LatencyHistogram::new();
        a.record_many(137, 1000);
        a.record_many(0, 3);
        a.record_many(9, 0);
        let mut b = LatencyHistogram::new();
        for _ in 0..1000 {
            b.record(137);
        }
        for _ in 0..3 {
            b.record(0);
        }
        assert_eq!(a, b);
    }

    /// Fisher-Yates shuffle driven by `rng`.
    fn shuffle<T>(items: &mut [T], rng: &mut crate::SplitMix64) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.next_index(i + 1));
        }
    }

    #[test]
    fn latency_histogram_groups_orders_and_percentiles_match_oracles() {
        let mut rng = crate::SplitMix64::new(0x1A7E_1C75);
        for case in 0..300 {
            let n = rng.next_index(200);
            // Exact-bucket values, mid-range values and the full u64 range.
            let samples: Vec<u64> = (0..n)
                .map(|_| match rng.next_below(3) {
                    0 => rng.next_below(64),
                    1 => rng.next_below(100_000),
                    _ => rng.next_u64() >> rng.next_below(64),
                })
                .collect();
            let mut whole = LatencyHistogram::new();
            for &v in &samples {
                whole.record(v);
            }

            // Random groups, merged in a random order.
            let mut groups = vec![LatencyHistogram::new(); 1 + rng.next_index(6)];
            for &v in &samples {
                let g = rng.next_index(groups.len());
                groups[g].record(v);
            }
            shuffle(&mut groups, &mut rng);
            let mut merged = LatencyHistogram::new();
            for g in &groups {
                merged.merge(g);
            }
            assert_eq!(merged, whole, "case {case}: merged groups");

            // Recording order.
            let mut reordered_samples = samples.clone();
            shuffle(&mut reordered_samples, &mut rng);
            let mut reordered = LatencyHistogram::new();
            for &v in &reordered_samples {
                reordered.record(v);
            }
            assert_eq!(reordered, whole, "case {case}: recording order");

            // Percentiles against the sorted samples.
            let mut sorted = samples;
            sorted.sort_unstable();
            let random_rank = 1 + rng.next_below(999) as u32;
            for permille in [1, 250, 500, 900, 990, 999, random_rank] {
                let want = sorted.last().map_or(0, |&max| {
                    let target = (sorted.len() * permille as usize).div_ceil(1000);
                    LatencyHistogram::lower_bound(LatencyHistogram::index_of(sorted[target - 1]))
                        .min(max)
                });
                assert_eq!(
                    whole.percentile_permille(permille),
                    want,
                    "case {case}: p{permille} of {n} samples"
                );
            }
            assert_eq!(
                whole.percentile_permille(1000),
                sorted.last().copied().unwrap_or(0)
            );
        }
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn latency_histogram_bad_permille_panics() {
        let _ = LatencyHistogram::new().percentile_permille(0);
    }
}

//! NVMM write-endurance accounting.
//!
//! NVM cells wear out (the paper cites 10⁸–10¹² write endurance depending on
//! technology), so the *number of writes to NVMM* is a first-class metric of
//! the evaluation (Fig. 7(b)). [`EnduranceTracker`] counts media writes per
//! block so benchmarks can report totals, unique blocks, and the hottest
//! block.

use bbb_sim::{BlockAddr, FxHashMap, Stats};

/// Per-block media write counts.
///
/// # Examples
///
/// ```
/// use bbb_mem::EnduranceTracker;
/// use bbb_sim::BlockAddr;
///
/// let mut t = EnduranceTracker::new();
/// let b = BlockAddr::from_index(1);
/// t.record(b);
/// t.record(b);
/// assert_eq!(t.total_writes(), 2);
/// assert_eq!(t.writes_to(b), 2);
/// assert_eq!(t.max_per_block(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnduranceTracker {
    /// Keyed by the unkeyed [`bbb_sim::FxHasher`]: this map sits on every
    /// media write, and no statistic depends on its iteration order.
    per_block: FxHashMap<BlockAddr, u64>,
    total: u64,
}

impl EnduranceTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one media write to `block`.
    pub fn record(&mut self, block: BlockAddr) {
        *self.per_block.entry(block).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total media writes observed.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.total
    }

    /// Writes observed to a specific block.
    #[must_use]
    pub fn writes_to(&self, block: BlockAddr) -> u64 {
        self.per_block.get(&block).copied().unwrap_or(0)
    }

    /// Number of distinct blocks ever written.
    #[must_use]
    pub fn unique_blocks(&self) -> u64 {
        self.per_block.len() as u64
    }

    /// The highest per-block write count (0 if nothing was written). A proxy
    /// for worst-case wear.
    #[must_use]
    pub fn max_per_block(&self) -> u64 {
        self.per_block.values().copied().max().unwrap_or(0)
    }

    /// Exports counters under the `nvmm.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("nvmm.writes", self.total);
        s.set("nvmm.unique_blocks", self.unique_blocks());
        s.set("nvmm.max_writes_per_block", self.max_per_block());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_zero() {
        let t = EnduranceTracker::new();
        assert_eq!(t.total_writes(), 0);
        assert_eq!(t.unique_blocks(), 0);
        assert_eq!(t.max_per_block(), 0);
        assert_eq!(t.writes_to(BlockAddr::from_index(5)), 0);
    }

    #[test]
    fn counts_accumulate_per_block() {
        let mut t = EnduranceTracker::new();
        let a = BlockAddr::from_index(1);
        let b = BlockAddr::from_index(2);
        t.record(a);
        t.record(a);
        t.record(b);
        assert_eq!(t.total_writes(), 3);
        assert_eq!(t.unique_blocks(), 2);
        assert_eq!(t.writes_to(a), 2);
        assert_eq!(t.writes_to(b), 1);
        assert_eq!(t.max_per_block(), 2);
    }

    #[test]
    fn stats_export() {
        let mut t = EnduranceTracker::new();
        t.record(BlockAddr::from_index(9));
        let s = t.stats();
        assert_eq!(s.get("nvmm.writes"), 1);
        assert_eq!(s.get("nvmm.unique_blocks"), 1);
        assert_eq!(s.get("nvmm.max_writes_per_block"), 1);
    }
}

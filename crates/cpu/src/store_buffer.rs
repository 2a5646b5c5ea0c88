//! The post-commit store buffer.
//!
//! Committed stores sit here until written to the L1D. Under TSO the buffer
//! drains strictly in program order; the relaxed-consistency configuration
//! may drain any entry (paper §III-C), which is why BBB battery-backs the
//! store buffer: with the SB inside the persistence domain, PoP moves up to
//! store *commit* and program-order persistency holds even when entries
//! reach the L1D out of order.

use std::collections::VecDeque;

use bbb_sim::{BlockAddr, Cycle};

use crate::op::MAX_STORE_BYTES;

/// One committed store waiting to be written to the L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbEntry {
    /// Cache block the store targets.
    pub block: BlockAddr,
    /// Byte offset within the block.
    pub offset: usize,
    /// Store size in bytes (1–8).
    pub len: usize,
    /// Payload (`bytes[..len]` is significant).
    pub bytes: [u8; MAX_STORE_BYTES],
    /// True when the target lies in the persistent heap.
    pub persistent: bool,
    /// Commit cycle (for stats and battery-backed drain ordering).
    pub committed: Cycle,
    /// Per-core store sequence number assigned at commit; correlates the
    /// commit, visibility, and persist-allocation trace events of one
    /// store across component logs.
    pub seq: u64,
}

impl SbEntry {
    /// The store's place in coherence order τ among its core's stores:
    /// commit cycle, then sequence.
    #[must_use]
    pub fn tau(&self) -> (Cycle, u64) {
        (self.committed, self.seq)
    }
}

/// The blocks of the stores `behind` whose place in a merge of per-core
/// queues by τ moves when `removed` leaves the queue just in front of
/// them.
///
/// A merge that compares only queue fronts emits each store once every
/// store before it in its queue has gone, so its place follows the
/// largest τ at or before it in its queue. Removing a store changes that
/// only for the run right behind it with smaller τ — a queue fed out of
/// τ order, as a relaxed store-buffer drain feeds a processor-side
/// persist buffer. A τ-sorted queue has no such run.
///
/// # Examples
///
/// ```
/// use bbb_cpu::{reordered_behind, SbEntry};
/// use bbb_sim::BlockAddr;
/// let st = |block, committed| SbEntry {
///     block: BlockAddr::from_index(block),
///     offset: 0,
///     len: 8,
///     bytes: [0; 8],
///     persistent: true,
///     committed,
///     seq: 0,
/// };
/// let queue = [st(2, 5), st(3, 1), st(4, 9)];
/// let moved: Vec<_> = reordered_behind(&st(1, 7), &queue).collect();
/// assert_eq!(moved, [BlockAddr::from_index(2), BlockAddr::from_index(3)]);
/// assert_eq!(reordered_behind(&st(1, 0), &queue).count(), 0);
/// ```
pub fn reordered_behind<'a, I>(
    removed: &SbEntry,
    behind: I,
) -> impl Iterator<Item = BlockAddr> + use<'a, I>
where
    I: IntoIterator<Item = &'a SbEntry>,
{
    let tau = removed.tau();
    behind
        .into_iter()
        .take_while(move |e| e.tau() < tau)
        .map(|e| e.block)
}

/// A fixed-capacity FIFO store buffer.
///
/// # Examples
///
/// ```
/// use bbb_cpu::{SbEntry, StoreBuffer};
/// use bbb_sim::BlockAddr;
///
/// let mut sb = StoreBuffer::new(2);
/// let e = SbEntry {
///     block: BlockAddr::from_index(1),
///     offset: 0,
///     len: 8,
///     bytes: [0; 8],
///     persistent: true,
///     committed: 0,
///     seq: 0,
/// };
/// sb.push(e).unwrap();
/// assert_eq!(sb.len(), 1);
/// assert_eq!(sb.pop_front().unwrap().block, e.block);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StoreBuffer {
    entries: VecDeque<SbEntry>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer needs capacity");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no store is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no more stores can commit until the buffer drains.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Enqueues a committed store.
    ///
    /// # Errors
    ///
    /// Returns the entry back if the buffer is full (the core must stall).
    pub fn push(&mut self, entry: SbEntry) -> Result<(), SbEntry> {
        if self.is_full() {
            return Err(entry);
        }
        // Stores commit in τ order, and taking any out keeps the rest in
        // it: crash drains merge the buffer as a τ-sorted queue.
        debug_assert!(
            self.entries
                .back()
                .is_none_or(|last| last.tau() < entry.tau()),
            "stores enter the buffer in τ order"
        );
        self.entries.push_back(entry);
        Ok(())
    }

    /// The oldest entry, if any (TSO drain candidate).
    #[must_use]
    pub fn front(&self) -> Option<&SbEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<SbEntry> {
        self.entries.pop_front()
    }

    /// Removes and returns the entry at `index` (relaxed-consistency drain:
    /// any ready entry may go to the L1D out of order).
    pub fn pop_at(&mut self, index: usize) -> Option<SbEntry> {
        self.entries.remove(index)
    }

    /// Iterates entries oldest-first (crash draining of a battery-backed
    /// SB, and fence checks).
    pub fn iter(&self) -> impl Iterator<Item = &SbEntry> {
        self.entries.iter()
    }

    /// Drains all entries oldest-first (crash flush-on-fail).
    pub fn drain_all(&mut self) -> Vec<SbEntry> {
        self.entries.drain(..).collect()
    }

    /// True if any buffered store targets `block` (fences and flushes must
    /// wait for such entries; loads would forward from them in hardware).
    #[must_use]
    pub fn holds_block(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> SbEntry {
        SbEntry {
            block: BlockAddr::from_index(i),
            offset: 0,
            len: 8,
            bytes: [i as u8; 8],
            persistent: false,
            committed: i,
            seq: i,
        }
    }

    #[test]
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        for i in 0..3 {
            sb.push(entry(i)).unwrap();
        }
        assert_eq!(sb.len(), 3);
        assert_eq!(sb.front().unwrap().block, BlockAddr::from_index(0));
        assert_eq!(sb.pop_front().unwrap().block, BlockAddr::from_index(0));
        assert_eq!(sb.pop_front().unwrap().block, BlockAddr::from_index(1));
    }

    #[test]
    fn push_fails_when_full() {
        let mut sb = StoreBuffer::new(2);
        sb.push(entry(0)).unwrap();
        sb.push(entry(1)).unwrap();
        assert!(sb.is_full());
        let rejected = sb.push(entry(2)).unwrap_err();
        assert_eq!(rejected.block, BlockAddr::from_index(2));
        sb.pop_front();
        assert!(sb.push(entry(2)).is_ok());
    }

    #[test]
    fn pop_at_supports_relaxed_drain() {
        let mut sb = StoreBuffer::new(4);
        for i in 0..3 {
            sb.push(entry(i)).unwrap();
        }
        let e = sb.pop_at(1).unwrap();
        assert_eq!(e.block, BlockAddr::from_index(1));
        assert_eq!(sb.len(), 2);
        assert!(sb.pop_at(5).is_none());
    }

    #[test]
    fn holds_block_scans_all_entries() {
        let mut sb = StoreBuffer::new(4);
        sb.push(entry(3)).unwrap();
        assert!(sb.holds_block(BlockAddr::from_index(3)));
        assert!(!sb.holds_block(BlockAddr::from_index(9)));
    }

    #[test]
    fn drain_all_empties_in_order() {
        let mut sb = StoreBuffer::new(4);
        for i in 0..4 {
            sb.push(entry(i)).unwrap();
        }
        let drained = sb.drain_all();
        assert_eq!(drained.len(), 4);
        assert!(sb.is_empty());
        // Commit cycles are non-decreasing, never necessarily strictly
        // increasing: back-to-back stores can commit in the same cycle.
        assert!(drained.windows(2).all(|w| w[0].committed <= w[1].committed));
        let order: Vec<u64> = drained.iter().map(|e| e.block.index()).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "program order, not cycle order");
    }

    #[test]
    fn drain_all_preserves_program_order_for_same_cycle_commits() {
        // Two stores committing in the same cycle (a dual-issue commit or
        // zero-latency repeat) must still drain in push order — the
        // battery-backed crash drain applies them program-ordered, and a
        // tie broken any other way could replay an older value on top of a
        // newer one.
        let mut sb = StoreBuffer::new(4);
        for (i, committed) in [(0u64, 5u64), (1, 5), (2, 5), (3, 7)] {
            let mut e = entry(i);
            e.committed = committed;
            sb.push(e).unwrap();
        }
        let drained = sb.drain_all();
        assert!(drained.windows(2).all(|w| w[0].committed <= w[1].committed));
        let order: Vec<u64> = drained.iter().map(|e| e.block.index()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = StoreBuffer::new(0);
    }
}

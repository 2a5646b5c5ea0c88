//! The processor-side persist buffer organization (paper §III-B).
//!
//! The design the paper evaluates and rejects: entries are individual
//! stores in program order (not blocks), because the buffer sits *outside*
//! the persistence domain boundary semantics that would allow reordering.
//! Consequences modeled here, matching the paper:
//!
//! * **Ordering**: entries drain strictly FCFS.
//! * **Coalescing**: permitted only between *back-to-back* stores to the
//!   same block ("when two stores are subsequent and involve the same
//!   block").
//! * **Write amplification**: nearly every persisting store eventually
//!   causes its own NVMM write — the source of the ~2.8× NVMM-write
//!   overhead reported in §V-C.
//!
//! Drained stores are applied to the NVMM media read-modify-write at block
//! granularity, each counting as one media write. Capacity, watermark
//! draining and stalls are the shared `PersistBuffer` core's.

use std::collections::VecDeque;

use bbb_cpu::SbEntry;
use bbb_sim::{BlockAddr, Cycle, MemoryPort};

use crate::buffer::{AllocOutcome, EntryTable, PersistBuffer};

/// One core's processor-side persist buffer.
///
/// # Examples
///
/// ```
/// use bbb_core::ProcSidePb;
/// use bbb_cpu::SbEntry;
/// use bbb_mem::NvmmController;
/// use bbb_sim::{BbpbConfig, BlockAddr, MemTiming};
///
/// let mut nvmm = NvmmController::new(MemTiming::default());
/// let mut pb = ProcSidePb::new(&BbpbConfig::default());
/// let store = SbEntry {
///     block: BlockAddr::from_index(1),
///     offset: 0,
///     len: 8,
///     bytes: 7u64.to_le_bytes(),
///     persistent: true,
///     committed: 0,
///     seq: 0,
/// };
/// let out = pb.push(0, store, &mut nvmm);
/// assert_eq!(out.done, 0);
/// ```
pub type ProcSidePb = PersistBuffer<StoreFifo>;

/// The processor-side organization: one committed store per entry, in
/// program order. Each entry keeps its store's commit cycle and per-core
/// sequence — the τ key cross-core crash drains merge by.
#[derive(Debug, Clone, Default)]
pub struct StoreFifo {
    entries: VecDeque<SbEntry>,
}

impl EntryTable for StoreFifo {
    type Entry = SbEntry;

    fn with_capacity(_capacity: usize) -> Self {
        Self::default()
    }

    fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Only the youngest entry coalesces, and only with a store to the
    /// same bytes (program-order-adjacent, same block).
    fn coalesce(&mut self, store: &SbEntry) -> bool {
        match self.entries.back_mut() {
            Some(last)
                if last.block == store.block
                    && last.offset == store.offset
                    && last.len == store.len =>
            {
                // The entry now carries the newer store's value, so it
                // carries the newer store's commit tag too.
                *last = *store;
                true
            }
            _ => false,
        }
    }

    fn insert(&mut self, store: SbEntry) {
        self.entries.push_back(store);
    }

    fn pop_oldest(&mut self) -> Option<SbEntry> {
        self.entries.pop_front()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn block(store: &SbEntry) -> BlockAddr {
        store.block
    }

    /// Read-modify-write of the target block at the controller.
    fn write(store: &SbEntry, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        mem.rmw_block(now, store.block, store.offset, &store.bytes[..store.len])
    }
}

impl PersistBuffer<StoreFifo> {
    /// Offers a committed persisting store, tagged with its commit cycle
    /// and per-core sequence (the τ key crash drains merge by). Coalesces
    /// only into the youngest entry; otherwise allocates, stalling if full.
    ///
    /// # Panics
    ///
    /// If the store's `len` exceeds its 8-byte payload.
    pub fn push(&mut self, now: Cycle, store: SbEntry, mem: &mut dyn MemoryPort) -> AllocOutcome {
        assert!(
            store.len <= store.bytes.len(),
            "store payload exceeds 8 bytes"
        );
        self.offer(now, store, mem)
    }

    /// Remote invalidation of `block`: program order requires draining
    /// every entry up to and including the last store to that block before
    /// another core may own it. Returns the number of entries drained.
    pub fn drain_through_block(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        mem: &mut dyn MemoryPort,
    ) -> u64 {
        let last_idx = self.table.entries.iter().rposition(|e| e.block == block);
        let Some(last_idx) = last_idx else { return 0 };
        let mut n = 0;
        for _ in 0..=last_idx {
            if self.drain_oldest(now, mem) {
                n += 1;
            }
        }
        n
    }

    /// Buffered stores oldest-first (the crash paths' τ merge and tests).
    pub fn iter(&self) -> impl Iterator<Item = &SbEntry> {
        self.table.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_mem::NvmmController;
    use bbb_sim::{BbpbConfig, DrainPolicy, MemTiming};

    fn nvmm() -> NvmmController {
        NvmmController::new(MemTiming::default())
    }

    fn pb(entries: usize, pct: u8) -> ProcSidePb {
        ProcSidePb::new(&BbpbConfig {
            entries,
            drain_policy: DrainPolicy::Threshold { threshold_pct: pct },
            drain_latency: 0,
        })
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    /// A persisting store of `bytes` at `offset` in `block`.
    fn st(block: BlockAddr, offset: usize, bytes: &[u8]) -> SbEntry {
        let mut payload = [0u8; 8];
        payload[..bytes.len()].copy_from_slice(bytes);
        SbEntry {
            block,
            offset,
            len: bytes.len(),
            bytes: payload,
            persistent: true,
            committed: 0,
            seq: 0,
        }
    }

    #[test]
    fn per_store_entries_do_not_coalesce_across_blocks() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, st(b(1), 0, &[1u8; 8]), &mut n);
        p.push(0, st(b(2), 0, &[2u8; 8]), &mut n);
        p.push(0, st(b(1), 8, &[3u8; 8]), &mut n);
        // Three separate entries: the third store is not adjacent to the
        // first even though it shares the block.
        assert_eq!(p.occupancy(0), 3);
        assert_eq!(p.stats().get("bbpb.coalesces"), 0);
    }

    #[test]
    fn adjacent_same_slot_stores_coalesce() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, st(b(1), 0, &[1u8; 8]), &mut n);
        let out = p.push(1, st(b(1), 0, &[9u8; 8]), &mut n);
        assert!(out.coalesced);
        assert_eq!(p.occupancy(1), 1);
    }

    #[test]
    fn drains_write_every_store() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        // Five stores into the SAME block at different offsets: the
        // memory-side buffer would write this block once; processor-side
        // writes it five times.
        for i in 0..5u64 {
            p.push(0, st(b(1), (i * 8) as usize, &i.to_le_bytes()), &mut n);
        }
        p.drain_all_timed(10, &mut n);
        assert_eq!(n.endurance().writes_to(b(1)), 5);
        // Final media contents reflect all stores in order.
        let img = n.crash_image();
        for i in 0..5u64 {
            assert_eq!(img.read_u64(b(1).base() + i * 8), i);
        }
    }

    #[test]
    fn fifo_drain_order() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, st(b(1), 0, &1u64.to_le_bytes()), &mut n);
        p.push(0, st(b(2), 0, &2u64.to_le_bytes()), &mut n);
        p.push(0, st(b(1), 0, &3u64.to_le_bytes()), &mut n);
        p.drain_all_timed(0, &mut n);
        // Last write to block 1 was value 3 (program order preserved).
        assert_eq!(n.crash_image().read_u64(b(1).base()), 3);
    }

    #[test]
    fn drain_through_block_respects_order() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.push(0, st(b(1), 0, &1u64.to_le_bytes()), &mut n);
        p.push(0, st(b(2), 0, &2u64.to_le_bytes()), &mut n);
        p.push(0, st(b(3), 0, &3u64.to_le_bytes()), &mut n);
        let drained = p.drain_through_block(5, b(2), &mut n);
        assert_eq!(drained, 2, "entries for blocks 1 and 2 drained in order");
        assert_eq!(p.occupancy(5), 1);
        assert_eq!(p.drain_through_block(5, b(9), &mut n), 0);
    }

    #[test]
    fn watermark_draining_kicks_in_at_capacity() {
        let mut n = nvmm();
        let mut p = pb(4, 75); // trigger at 4 occupied, stop at 3
        p.push(0, st(b(1), 0, &[1u8; 8]), &mut n);
        p.push(0, st(b(2), 0, &[2u8; 8]), &mut n);
        p.push(0, st(b(3), 0, &[3u8; 8]), &mut n);
        assert_eq!(p.stats().get("bbpb.drains"), 0, "below trigger");
        p.push(0, st(b(4), 0, &[4u8; 8]), &mut n);
        assert!(p.stats().get("bbpb.drains") >= 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 8 bytes")]
    fn oversized_store_panics() {
        let mut n = nvmm();
        let mut p = pb(4, 75);
        let store = SbEntry {
            len: 9,
            ..st(b(1), 0, &[0u8; 8])
        };
        p.push(0, store, &mut n);
    }
}

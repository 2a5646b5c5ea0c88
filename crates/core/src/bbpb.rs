//! The memory-side battery-backed persist buffer (bbPB).
//!
//! One bbPB sits next to each core's L1D (paper Fig. 4). Entries are
//! 64-byte blocks that are *already inside the persistence domain*: a
//! persisting store becomes durable the cycle its block is allocated (or
//! coalesced) here, and the battery guarantees every entry reaches NVMM on
//! power failure. Because entries are persistent the moment they exist,
//! stores to the same block coalesce freely and entries may drain out of
//! order — the properties that let a 32-entry buffer match eADR (paper
//! §III-B, §V).
//!
//! Draining follows the paper's policy (§III-F), shared with the
//! processor-side buffer in `PersistBuffer`: lazy and watermark-driven,
//! so the whole capacity, not just the headroom below the threshold,
//! serves as the coalescing window. The drain victim is the
//! least-recently-written entry (a coalesce refreshes its position):
//! draining a still-hot block would split its dirty episode and cost an
//! extra NVMM write the moment the next store re-allocates it, defeating
//! the coalescing the lazy policy exists to protect.

use std::collections::VecDeque;

use bbb_sim::{BlockAddr, Counter, Cycle, FxHashMap, MemoryPort, Stats, BLOCK_BYTES};

use crate::buffer::{AllocOutcome, EntryTable, PersistBuffer};

/// One core's memory-side bbPB.
///
/// # Examples
///
/// ```
/// use bbb_core::Bbpb;
/// use bbb_mem::NvmmController;
/// use bbb_sim::{BbpbConfig, BlockAddr, MemTiming};
///
/// let mut nvmm = NvmmController::new(MemTiming::default());
/// let mut pb = Bbpb::new(&BbpbConfig::default());
/// let b = BlockAddr::from_index(1);
/// let out = pb.allocate(0, b, [7; 64], &mut nvmm);
/// assert_eq!(out.done, 0); // persistent instantly: PoV == PoP
/// assert!(pb.contains(b));
/// ```
pub type Bbpb = PersistBuffer<BlockTable>;

#[derive(Debug, Clone)]
struct Resident {
    data: [u8; BLOCK_BYTES],
    /// Write sequence of this entry's live FIFO ticket: the `fifo` element
    /// carrying this number is the entry's real drain position; any earlier
    /// elements naming the same block are stale and skipped on pop.
    seq: u64,
}

/// The memory-side organization: one 64-byte block per entry, any
/// resident block coalesces, least recently written drains first; plus
/// the counters only this organization keeps.
#[derive(Debug, Clone)]
pub struct BlockTable {
    capacity: usize,
    resident: FxHashMap<BlockAddr, Resident>,
    /// Drain-order tickets, oldest first. Each resident entry owns exactly
    /// one *live* ticket — the one whose sequence matches its `Resident::seq`
    /// — placed at its last-write position; a coalesce re-tickets the entry
    /// at the back in O(1) and strands the old ticket, which `pop_oldest`
    /// discards lazily. The live tickets read in queue order are therefore
    /// exactly the eager FIFO: front = least recently written = next drain
    /// victim.
    fifo: VecDeque<(BlockAddr, u64)>,
    /// Next write-sequence ticket number.
    next_seq: u64,
    forced_drains: Counter,
    moves_in: Counter,
    moves_out: Counter,
    /// Sum of occupancy sampled at each allocation (avg = sum/samples).
    occupancy_sum: Counter,
    occupancy_samples: Counter,
}

impl BlockTable {
    /// Moves `block` to the most-recently-written end of the drain order by
    /// issuing it a fresh back-of-queue ticket; its previous ticket goes
    /// stale in place instead of being searched out and removed.
    fn retick(&mut self, block: BlockAddr) {
        if self.fifo.back().is_some_and(|&(b, _)| b == block) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.resident
            .get_mut(&block)
            .expect("retick of non-resident block")
            .seq = seq;
        self.fifo.push_back((block, seq));
        self.compact_if_bloated();
    }

    /// Sweeps stale tickets once they outnumber the live ones: live tickets
    /// never exceed `capacity`, so compacting at twice that keeps each sweep
    /// at least half-effective and the amortized cost per push constant.
    fn compact_if_bloated(&mut self) {
        if self.fifo.len() > 2 * self.capacity.max(8) {
            let resident = &self.resident;
            self.fifo
                .retain(|&(b, s)| resident.get(&b).is_some_and(|r| r.seq == s));
        }
    }

    fn remove(&mut self, block: BlockAddr) -> Option<[u8; BLOCK_BYTES]> {
        self.resident.remove(&block).map(|r| r.data)
    }
}

impl EntryTable for BlockTable {
    /// A block and its full, post-store value.
    type Entry = (BlockAddr, [u8; BLOCK_BYTES]);

    fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            resident: FxHashMap::default(),
            fifo: VecDeque::new(),
            next_seq: 0,
            forced_drains: Counter::new(),
            moves_in: Counter::new(),
            moves_out: Counter::new(),
            occupancy_sum: Counter::new(),
            occupancy_samples: Counter::new(),
        }
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn coalesce(&mut self, &(block, data): &Self::Entry) -> bool {
        let Some(entry) = self.resident.get_mut(&block) else {
            return false;
        };
        entry.data = data;
        self.retick(block);
        true
    }

    fn insert(&mut self, (block, data): Self::Entry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.resident.insert(block, Resident { data, seq });
        self.fifo.push_back((block, seq));
        self.compact_if_bloated();
    }

    /// Pops the least-recently-written resident block, discarding any stale
    /// tickets ahead of it.
    fn pop_oldest(&mut self) -> Option<Self::Entry> {
        while let Some((b, s)) = self.fifo.pop_front() {
            if self.resident.get(&b).is_some_and(|r| r.seq == s) {
                return self.remove(b).map(|data| (b, data));
            }
        }
        None
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.fifo.clear();
    }

    fn block(&(block, _): &Self::Entry) -> BlockAddr {
        block
    }

    fn write(&(block, data): &Self::Entry, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        mem.write_block(now, block, data)
    }

    fn export(&self, s: &mut Stats) {
        s.set("bbpb.forced_drains", self.forced_drains.get());
        s.set("bbpb.moves_in", self.moves_in.get());
        s.set("bbpb.moves_out", self.moves_out.get());
        s.set("bbpb.occupancy_sum", self.occupancy_sum.get());
        s.set("bbpb.occupancy_samples", self.occupancy_samples.get());
    }
}

impl PersistBuffer<BlockTable> {
    /// True if `block` has a resident (coalescable) entry.
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.table.resident.contains_key(&block)
    }

    /// `block`'s resident entry, as [`Bbpb::drain_set`] lists it.
    #[must_use]
    pub fn entry(&self, block: BlockAddr) -> Option<[u8; BLOCK_BYTES]> {
        self.table.resident.get(&block).map(|r| r.data)
    }

    /// Offers a persisting store's block (with the full, post-store block
    /// value) at `now`. Coalesces, allocates, or — when full — stalls until
    /// a drain frees an entry, then allocates. Afterwards threshold
    /// draining runs.
    pub fn allocate(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        data: [u8; BLOCK_BYTES],
        mem: &mut dyn MemoryPort,
    ) -> AllocOutcome {
        let occupancy = self.occupancy(now);
        self.table.occupancy_sum.add(occupancy as u64);
        self.table.occupancy_samples.inc();
        self.offer(now, (block, data), mem)
    }

    /// Removes `block`'s resident entry for migration to another core's
    /// bbPB (paper Fig. 6(a)/(b): the block moves — without draining —
    /// and the new core becomes responsible for it). The receiving
    /// buffer's [`Bbpb::insert_moved`] reports the block's change.
    pub fn take_for_move(&mut self, block: BlockAddr) -> Option<[u8; BLOCK_BYTES]> {
        let data = self.table.remove(block)?;
        self.table.moves_out.inc();
        Some(data)
    }

    /// Installs a block migrated from another bbPB. If full, the oldest
    /// resident entry is drained to make room (the battery covers the
    /// in-flight packet either way).
    pub fn insert_moved(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        data: [u8; BLOCK_BYTES],
        mem: &mut dyn MemoryPort,
    ) {
        self.advance(now);
        self.note(block, mem);
        if self.try_coalesce(&(block, data)) {
            return;
        }
        while self.is_full() {
            if !self.drain_oldest(now, mem) {
                // Nothing resident to drain: wait out an in-flight drain.
                self.wait_for_free(now, mem);
            }
            // The move-in path cannot wait: treat drains lingering past
            // `now` as freed (documented optimism; the battery covers
            // in-flight data regardless).
            if self.is_full() {
                self.advance(now + 1);
            }
        }
        self.install((block, data));
        self.table.moves_in.inc();
    }

    /// Forced drain of `block` (LLC dirty-inclusion, paper §III-B): if
    /// resident, the entry is written to NVMM immediately. Returns true if
    /// the block was here.
    pub fn force_drain(&mut self, now: Cycle, block: BlockAddr, mem: &mut dyn MemoryPort) -> bool {
        let Some(data) = self.table.remove(block) else {
            return false;
        };
        self.issue_drain(now, &(block, data), true, mem);
        self.table.forced_drains.inc();
        self.advance(now);
        true
    }

    /// The resident entries (block, data) in FCFS order — the crash drain
    /// set the battery must cover.
    #[must_use]
    pub fn drain_set(&self) -> Vec<(BlockAddr, [u8; BLOCK_BYTES])> {
        let resident = &self.table.resident;
        self.table
            .fifo
            .iter()
            .filter_map(|&(b, s)| {
                let r = resident.get(&b)?;
                (r.seq == s).then_some((b, r.data))
            })
            .collect()
    }

    /// Coherence/inclusion-forced drains so far (cheap event probe).
    #[must_use]
    pub fn forced_drain_count(&self) -> u64 {
        self.table.forced_drains.get()
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

    fn pb(entries: usize, pct: u8) -> Bbpb {
        Bbpb::new(&BbpbConfig {
            entries,
            drain_policy: DrainPolicy::Threshold { threshold_pct: pct },
            drain_latency: 0,
        })
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn allocation_is_instantaneous_with_space() {
        let mut n = nvmm();
        let mut p = pb(4, 75);
        let out = p.allocate(10, b(1), [1; 64], &mut n);
        assert_eq!(out.done, 10);
        assert!(!out.coalesced && !out.rejected);
        assert_eq!(p.occupancy(10), 1);
    }

    #[test]
    fn coalescing_updates_data_without_new_entry() {
        let mut n = nvmm();
        let mut p = pb(4, 100);
        p.allocate(0, b(1), [1; 64], &mut n);
        let out = p.allocate(5, b(1), [2; 64], &mut n);
        assert!(out.coalesced);
        assert_eq!(p.occupancy(5), 1);
        assert_eq!(p.drain_set()[0].1, [2; 64]);
        assert_eq!(p.stats().get("bbpb.coalesces"), 1);
    }

    #[test]
    fn watermark_burst_triggers_at_capacity_and_stops_at_level() {
        let mut n = nvmm();
        // 4 entries, 75% stop level: the burst triggers when occupancy
        // reaches capacity and drains residents down to 3, keeping the
        // whole buffer available as the coalescing window until then.
        let mut p = pb(4, 75);
        p.allocate(0, b(1), [1; 64], &mut n);
        p.allocate(0, b(2), [2; 64], &mut n);
        p.allocate(0, b(3), [3; 64], &mut n);
        assert_eq!(p.stats().get("bbpb.drains"), 0, "below trigger");
        p.allocate(0, b(4), [4; 64], &mut n);
        // Reached capacity -> burst drained down to the stop level.
        assert!(p.stats().get("bbpb.drains") >= 1);
        // Least recently written drained first.
        assert!(!p.contains(b(1)));
        assert!(p.contains(b(4)));
        assert_eq!(n.endurance().writes_to(b(1)), 1);
    }

    #[test]
    fn coalescing_refreshes_drain_order() {
        let mut n = nvmm();
        let mut p = pb(4, 75);
        p.allocate(0, b(1), [1; 64], &mut n);
        p.allocate(0, b(2), [2; 64], &mut n);
        p.allocate(0, b(3), [3; 64], &mut n);
        // Re-writing the oldest entry makes b2 the drain victim.
        let out = p.allocate(0, b(1), [9; 64], &mut n);
        assert!(out.coalesced);
        p.allocate(0, b(4), [4; 64], &mut n);
        assert!(p.contains(b(1)), "recently re-written entry survived");
        assert!(!p.contains(b(2)), "least recently written drained");
    }

    #[test]
    fn full_buffer_rejects_and_waits() {
        let mut n = nvmm();
        // 100% threshold: no proactive drains, so the buffer can fill.
        let mut p = pb(2, 100);
        p.allocate(0, b(1), [1; 64], &mut n);
        p.allocate(0, b(2), [2; 64], &mut n);
        // Threshold 100% of 2 = 2 -> allocation of b2 triggered a drain;
        // use distinct blocks until truly full.
        let s_before = p.stats().get("bbpb.rejections");
        let out = p.allocate(1, b(3), [3; 64], &mut n);
        // Either a drain already freed room (no rejection) or we waited.
        assert!(out.done >= 1);
        assert!(p.contains(b(3)));
        let _ = s_before;
    }

    #[test]
    fn rejection_happens_when_wpq_is_slow() {
        // A tiny WPQ plus single channel makes frees slow enough to observe
        // rejection waits.
        let timing = MemTiming {
            wpq_entries: 1,
            nvmm_channels: 1,
            ..MemTiming::default()
        };
        let mut n = NvmmController::new(timing);
        // Occupy the single WPQ slot so the stall-path drain backpressures
        // behind its 1000-cycle media write.
        n.write_block(0, b(9), [9; 64]);
        // Threshold 100%: stop level == capacity, so nothing drains
        // proactively — entries leave only when an allocation needs a slot.
        let mut p = pb(2, 100);
        p.allocate(0, b(1), [1; 64], &mut n);
        p.allocate(0, b(2), [2; 64], &mut n);
        assert_eq!(p.occupancy(0), 2);
        assert_eq!(p.stats().get("bbpb.drains"), 0, "fully lazy");
        // The buffer is full: this allocation stalls while the oldest
        // entry drains through the slow WPQ.
        let out = p.allocate(0, b(5), [5; 64], &mut n);
        assert!(out.rejected);
        assert!(out.done >= 1000, "waited for the drain to free a slot");
        assert!(p.contains(b(5)));
        assert!(!p.contains(b(1)));
        assert_eq!(p.stats().get("bbpb.rejections"), 1);
    }

    #[test]
    fn move_out_and_in_preserves_data() {
        let mut n = nvmm();
        let mut src = pb(4, 100);
        let mut dst = pb(4, 100);
        src.allocate(0, b(7), [0xAB; 64], &mut n);
        let data = src.take_for_move(b(7)).expect("resident");
        assert!(!src.contains(b(7)));
        dst.insert_moved(0, b(7), data, &mut n);
        assert!(dst.contains(b(7)));
        assert_eq!(dst.drain_set()[0].1, [0xAB; 64]);
        assert_eq!(src.stats().get("bbpb.moves_out"), 1);
        assert_eq!(dst.stats().get("bbpb.moves_in"), 1);
        // The move itself caused no NVMM write.
        assert_eq!(n.endurance().total_writes(), 0);
    }

    #[test]
    fn force_drain_writes_block_once() {
        let mut n = nvmm();
        let mut p = pb(4, 100);
        p.allocate(0, b(9), [0x77; 64], &mut n);
        assert!(p.force_drain(5, b(9), &mut n));
        assert!(!p.contains(b(9)));
        assert_eq!(n.endurance().writes_to(b(9)), 1);
        assert_eq!(n.crash_image().read_block(b(9)), [0x77; 64]);
        assert!(!p.force_drain(6, b(9), &mut n), "already gone");
        assert_eq!(p.stats().get("bbpb.forced_drains"), 1);
    }

    #[test]
    fn crash_discard_loses_everything_and_writes_nothing() {
        let mut n = nvmm();
        let mut p = pb(4, 100);
        p.allocate(0, b(1), [0xAA; 64], &mut n);
        p.allocate(0, b(2), [0xBB; 64], &mut n);
        let lost = p.crash_discard();
        assert_eq!(lost, 2);
        assert_eq!(p.occupancy(0), 0);
        assert_eq!(n.endurance().total_writes(), 0);
        assert_eq!(n.crash_image().read_block(b(1)), [0; 64]);
    }

    #[test]
    fn fcfs_order_in_drain_set() {
        let mut n = nvmm();
        let mut p = pb(8, 100);
        p.allocate(0, b(3), [3; 64], &mut n);
        p.allocate(1, b(1), [1; 64], &mut n);
        p.allocate(2, b(2), [2; 64], &mut n);
        let order: Vec<u64> = p.drain_set().iter().map(|(blk, _)| blk.index()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn eager_policy_drains_immediately() {
        let mut n = nvmm();
        let mut p = Bbpb::new(&BbpbConfig {
            entries: 8,
            drain_policy: DrainPolicy::Eager,
            drain_latency: 0,
        });
        p.allocate(0, b(1), [1; 64], &mut n);
        assert_eq!(p.stats().get("bbpb.drains"), 1);
        assert_eq!(n.endurance().total_writes(), 1);
    }
}

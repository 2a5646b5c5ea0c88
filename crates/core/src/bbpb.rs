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
//! Draining follows the paper's policy (§III-F): lazy, watermark-driven.
//! A drain burst begins only when the buffer fills and empties entries
//! until occupancy falls back to the configured threshold (75% of
//! capacity by default) — so the whole capacity, not just the headroom
//! below the threshold, serves as the coalescing window. The drain victim
//! is the least-recently-written entry (a coalesce refreshes its
//! position): draining a still-hot block would split its dirty episode and
//! cost an extra NVMM write the moment the next store re-allocates it,
//! defeating the coalescing the lazy policy exists to protect.

use std::collections::VecDeque;

use bbb_sim::{
    BbpbConfig, BlockAddr, Counter, Cycle, FxHashMap, MemoryPort, Stats, TraceEvent, TraceLog,
    BLOCK_BYTES,
};

/// Result of offering a persisting store to the bbPB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOutcome {
    /// Cycle at which the store owns an entry — its persist point. Equals
    /// the offer cycle unless the buffer was full (a *rejection*), in which
    /// case the store stalled until a drain freed an entry.
    pub done: Cycle,
    /// True if the store merged into an existing entry for its block.
    pub coalesced: bool,
    /// True if the buffer was full and the store had to wait.
    pub rejected: bool,
}

#[derive(Debug, Clone)]
struct Resident {
    data: [u8; BLOCK_BYTES],
    /// Write sequence of this entry's live FIFO ticket: the `fifo` element
    /// carrying this number is the entry's real drain position; any earlier
    /// elements naming the same block are stale and skipped on pop.
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    frees_at: Cycle,
}

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
#[derive(Debug, Clone)]
pub struct Bbpb {
    capacity: usize,
    drain_trigger_level: usize,
    drain_stop_level: usize,
    drain_latency: Cycle,
    resident: FxHashMap<BlockAddr, Resident>,
    /// Drain-order tickets, oldest first. Each resident entry owns exactly
    /// one *live* ticket — the one whose sequence matches its `Resident::seq`
    /// — placed at its last-write position; a coalesce re-tickets the entry
    /// at the back in O(1) and strands the old ticket, which
    /// [`Bbpb::pop_oldest`] discards lazily. The live tickets read in queue
    /// order are therefore exactly the old eager FIFO: front = least
    /// recently written = next drain victim.
    fifo: VecDeque<(BlockAddr, u64)>,
    /// Next write-sequence ticket number.
    next_seq: u64,
    in_flight: Vec<InFlight>,
    allocations: Counter,
    coalesces: Counter,
    rejections: Counter,
    drains: Counter,
    forced_drains: Counter,
    moves_in: Counter,
    moves_out: Counter,
    /// Sum of occupancy sampled at each allocation (avg = sum/samples).
    occupancy_sum: Counter,
    occupancy_samples: Counter,
    /// Which core this buffer sits next to (trace attribution only; set by
    /// `PersistState::new`).
    pub(crate) core_id: usize,
    /// Drain-event recorder for the persist-order checker.
    pub(crate) trace: TraceLog,
    /// Monotone mutation counter: bumped whenever the crash drain set
    /// (`resident`/`fifo`) changes, so an unchanged version proves an
    /// unchanged drain set. In-flight bookkeeping does not bump it.
    version: u64,
}

impl Bbpb {
    /// Creates a bbPB from its configuration.
    #[must_use]
    pub fn new(cfg: &BbpbConfig) -> Self {
        Self {
            capacity: cfg.entries,
            drain_trigger_level: cfg.drain_policy.trigger_level(cfg.entries),
            drain_stop_level: cfg.drain_policy.stop_level(cfg.entries),
            drain_latency: cfg.drain_latency,
            resident: FxHashMap::default(),
            fifo: VecDeque::new(),
            next_seq: 0,
            in_flight: Vec::new(),
            allocations: Counter::new(),
            coalesces: Counter::new(),
            rejections: Counter::new(),
            drains: Counter::new(),
            forced_drains: Counter::new(),
            moves_in: Counter::new(),
            moves_out: Counter::new(),
            occupancy_sum: Counter::new(),
            occupancy_samples: Counter::new(),
            core_id: 0,
            trace: TraceLog::default(),
            version: 0,
        }
    }

    /// Monotone mutation counter over the crash drain set: equal versions
    /// within one buffer's lifetime prove identical resident contents.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Capacity in block entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries occupied at `now` (resident plus drains still in flight).
    #[must_use]
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.advance(now);
        self.resident.len() + self.in_flight.len()
    }

    /// True if `block` has a resident (coalescable) entry.
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.resident.contains_key(&block)
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
        self.advance(now);
        self.occupancy_sum
            .add((self.resident.len() + self.in_flight.len()) as u64);
        self.occupancy_samples.inc();

        let at_back = self.fifo.back().is_some_and(|&(b, _)| b == block);
        let next_seq = self.next_seq;
        if let Some(entry) = self.resident.get_mut(&block) {
            entry.data = data;
            if !at_back {
                entry.seq = next_seq;
            }
            self.version += 1;
            self.coalesces.inc();
            if !at_back {
                self.next_seq += 1;
                self.fifo.push_back((block, next_seq));
                self.compact_if_bloated();
            }
            self.maybe_drain(now, mem);
            return AllocOutcome {
                done: now,
                coalesced: true,
                rejected: false,
            };
        }

        // A full buffer starts its drain burst before the store stalls, so
        // the wait below is for WPQ completions already in flight.
        self.maybe_drain(now, mem);
        let mut t = now;
        let mut rejected = false;
        while self.resident.len() + self.in_flight.len() >= self.capacity {
            rejected = true;
            t = self.wait_for_free(t, mem);
        }
        if rejected {
            self.rejections.inc();
        }
        self.insert_fresh(block, data);
        self.version += 1;
        self.allocations.inc();
        self.maybe_drain(t, mem);
        AllocOutcome {
            done: t,
            coalesced: false,
            rejected,
        }
    }

    /// Installs a fresh resident entry at the most-recently-written end.
    fn insert_fresh(&mut self, block: BlockAddr, data: [u8; BLOCK_BYTES]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.resident.insert(block, Resident { data, seq });
        self.fifo.push_back((block, seq));
        self.compact_if_bloated();
    }

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

    /// Pops the least-recently-written resident block, discarding any stale
    /// tickets ahead of it. `None` when nothing is resident.
    fn pop_oldest(&mut self) -> Option<BlockAddr> {
        while let Some((b, s)) = self.fifo.pop_front() {
            if self.resident.get(&b).is_some_and(|r| r.seq == s) {
                return Some(b);
            }
        }
        None
    }

    /// Removes `block`'s resident entry for migration to another core's
    /// bbPB (paper Fig. 6(a)/(b): the block moves — without draining —
    /// and the new core becomes responsible for it).
    pub fn take_for_move(&mut self, block: BlockAddr) -> Option<[u8; BLOCK_BYTES]> {
        let entry = self.resident.remove(&block)?;
        self.version += 1;
        self.moves_out.inc();
        Some(entry.data)
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
        if self.resident.contains_key(&block) {
            self.resident.get_mut(&block).expect("just probed").data = data;
            self.version += 1;
            self.coalesces.inc();
            self.retick(block);
            return;
        }
        while self.resident.len() + self.in_flight.len() >= self.capacity {
            if !self.drain_oldest(now, mem) {
                // Nothing resident to drain: wait out an in-flight drain.
                let t = self.wait_for_free(now, mem);
                self.advance(t);
            }
            self.advance_in_flight_forced(now);
        }
        self.insert_fresh(block, data);
        self.version += 1;
        self.moves_in.inc();
    }

    /// Forced drain of `block` (LLC dirty-inclusion, paper §III-B): if
    /// resident, the entry is written to NVMM immediately. Returns true if
    /// the block was here.
    pub fn force_drain(&mut self, now: Cycle, block: BlockAddr, mem: &mut dyn MemoryPort) -> bool {
        let Some(entry) = self.resident.remove(&block) else {
            return false;
        };
        self.version += 1;
        self.trace.push(TraceEvent::PbDrain {
            core: self.core_id,
            block,
            cycle: now,
            forced: true,
        });
        let persist = mem.write_block(now, block, entry.data);
        self.in_flight.push(InFlight {
            frees_at: persist.max(now + self.drain_latency),
        });
        self.drains.inc();
        self.forced_drains.inc();
        self.advance(now);
        true
    }

    /// Watermark draining (paper §III-F): when total occupancy (resident
    /// plus in-flight) reaches the trigger level — the full capacity for
    /// the threshold policy — a burst drains least-recently-written
    /// resident entries until the resident count falls to the stop level.
    /// Drained entries move to the in-flight set, so the burst frees
    /// allocation slots as the WPQ absorbs the writes; a new allocation
    /// arriving mid-burst waits for the first completion rather than
    /// stripping further resident entries.
    pub fn maybe_drain(&mut self, now: Cycle, mem: &mut dyn MemoryPort) {
        self.advance(now);
        if self.resident.len() + self.in_flight.len() < self.drain_trigger_level {
            return;
        }
        while self.resident.len() > self.drain_stop_level {
            if !self.drain_oldest(now, mem) {
                break;
            }
            self.advance(now);
        }
    }

    /// The resident entries (block, data) in FCFS order — the crash drain
    /// set the battery must cover.
    #[must_use]
    pub fn drain_set(&self) -> Vec<(BlockAddr, [u8; BLOCK_BYTES])> {
        self.fifo
            .iter()
            .filter_map(|&(b, s)| {
                let r = self.resident.get(&b)?;
                (r.seq == s).then_some((b, r.data))
            })
            .collect()
    }

    /// Drops every entry without writing anything — a crash with the
    /// battery disconnected, where the "persist" buffer turns out to be
    /// plain volatile SRAM, or the end of a battery-backed crash once the
    /// system has written the entries to NVMM. Returns the entries
    /// dropped.
    pub fn crash_discard(&mut self) -> u64 {
        let lost = self.resident.len() as u64;
        if lost > 0 {
            self.version += 1;
        }
        self.resident.clear();
        self.fifo.clear();
        self.in_flight.clear();
        lost
    }

    /// Coherence/inclusion-forced drains so far (cheap event probe).
    #[must_use]
    pub fn forced_drain_count(&self) -> u64 {
        self.forced_drains.get()
    }

    /// Exports counters under the `bbpb.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("bbpb.allocations", self.allocations.get());
        s.set("bbpb.coalesces", self.coalesces.get());
        s.set("bbpb.rejections", self.rejections.get());
        s.set("bbpb.drains", self.drains.get());
        s.set("bbpb.forced_drains", self.forced_drains.get());
        s.set("bbpb.moves_in", self.moves_in.get());
        s.set("bbpb.moves_out", self.moves_out.get());
        s.set("bbpb.occupancy_sum", self.occupancy_sum.get());
        s.set("bbpb.occupancy_samples", self.occupancy_samples.get());
        s
    }

    fn advance(&mut self, now: Cycle) {
        self.in_flight.retain(|f| f.frees_at > now);
    }

    /// Used only on the move-in path where waiting is not possible: treat
    /// lingering in-flight drains as freed (documented optimism; the
    /// battery covers in-flight data regardless).
    fn advance_in_flight_forced(&mut self, now: Cycle) {
        if self.resident.len() + self.in_flight.len() >= self.capacity {
            self.in_flight.retain(|f| f.frees_at > now + 1);
        }
    }

    /// Issues a drain of the oldest resident entry. Returns false when
    /// nothing is resident.
    fn drain_oldest(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> bool {
        let Some(block) = self.pop_oldest() else {
            return false;
        };
        self.version += 1;
        let entry = self
            .resident
            .remove(&block)
            .expect("live ticket is resident");
        self.trace.push(TraceEvent::PbDrain {
            core: self.core_id,
            block,
            cycle: now,
            forced: false,
        });
        let persist = mem.write_block(now, block, entry.data);
        self.in_flight.push(InFlight {
            frees_at: persist.max(now + self.drain_latency),
        });
        self.drains.inc();
        true
    }

    /// Stalls until at least one entry frees, draining if necessary.
    /// Returns the cycle at which an entry is free.
    fn wait_for_free(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        if self.in_flight.is_empty() && !self.drain_oldest(now, mem) {
            // Nothing resident and nothing in flight: capacity must be
            // free; nothing to wait for.
            return now;
        }
        let t = self
            .in_flight
            .iter()
            .map(|f| f.frees_at)
            .min()
            .map_or(now, |f| f.max(now));
        self.advance(t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_mem::NvmmController;
    use bbb_sim::{DrainPolicy, MemTiming};

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

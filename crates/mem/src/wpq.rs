//! The NVMM controller's write-pending queue (WPQ).
//!
//! Under ADR the WPQ is the point of persistency: a write is durable the
//! cycle it is accepted, because a capacitor guarantees the queue drains to
//! media on power failure (paper §I footnote 1, §VI "eADR"). The WPQ also
//! coalesces writes to a block that is still queued, which matters for the
//! NVMM write-endurance comparison.
//!
//! Timing is analytic: each accepted entry is immediately assigned a media
//! start/completion window on the controller's channels; the entry occupies
//! a WPQ slot until its media write completes.
//!
//! Entries retire in completion order from a min-heap of
//! `(completion, block)`, so an offer costs O(log capacity) instead of a
//! scan of the queue. A write that replaces a block's in-flight entry
//! leaves the old heap item stale; it is dropped when it reaches the top.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bbb_sim::{BlockAddr, Counter, Cycle, FxHashMap, Stats, BLOCK_BYTES};

use crate::sched::ChannelScheduler;

#[derive(Debug, Clone)]
struct Entry {
    start: Cycle,
    completion: Cycle,
}

/// Outcome of offering a write to the WPQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WpqAccept {
    /// Cycle the write was accepted — the point of persistency under ADR.
    pub persist: Cycle,
    /// Cycle the media write completes (equals `persist` for coalesced
    /// writes, which piggyback on the queued entry).
    pub media_completion: Cycle,
    /// True if the write merged into an already-queued entry for the same
    /// block instead of consuming a new media write.
    pub coalesced: bool,
}

/// A fixed-capacity write-pending queue with ADR semantics.
///
/// # Examples
///
/// ```
/// use bbb_mem::{ChannelScheduler, WritePendingQueue};
/// use bbb_sim::BlockAddr;
///
/// let mut wpq = WritePendingQueue::new(8);
/// let mut media = ChannelScheduler::new(2);
/// let accept = wpq.offer(0, BlockAddr::from_index(1), &mut media, 1000);
/// assert_eq!(accept.persist, 0); // durable on acceptance (ADR)
/// ```
#[derive(Debug, Clone)]
pub struct WritePendingQueue {
    capacity: usize,
    entries: FxHashMap<BlockAddr, Entry>,
    /// Every live entry's `(completion, block)`, plus stale items of
    /// entries since replaced by a newer write to the same block.
    retire: BinaryHeap<Reverse<(Cycle, BlockAddr)>>,
    media_writes: Counter,
    coalesced: Counter,
    backpressure_events: Counter,
}

impl WritePendingQueue {
    /// Creates a WPQ holding up to `capacity` block entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be positive");
        Self {
            capacity,
            entries: FxHashMap::default(),
            retire: BinaryHeap::new(),
            media_writes: Counter::new(),
            coalesced: Counter::new(),
            backpressure_events: Counter::new(),
        }
    }

    /// Capacity in block entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries still occupying the queue at `now` (media write not yet
    /// complete). A scan of the queue: `now` may be any cycle, and only
    /// crash-time accounting asks.
    #[must_use]
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.entries.values().filter(|e| e.completion > now).count()
    }

    /// Offers a block write arriving at `now`. `media` schedules the drain
    /// to the NVM media with `write_latency` per block.
    ///
    /// If the block is already queued and its media write has not started,
    /// the write coalesces (no new media write). If the queue is full, the
    /// write is accepted only when the earliest entry completes
    /// (backpressure) — the returned `persist` reflects that stall.
    pub fn offer(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        media: &mut ChannelScheduler,
        write_latency: Cycle,
    ) -> WpqAccept {
        self.purge(now);
        // After the purge every entry completes after `now`, so the queue
        // length is its occupancy.
        let mut accept = now;
        if self.coalescable(block, now).is_none() && self.entries.len() >= self.capacity {
            self.backpressure_events.inc();
            accept = self.earliest_completion();
            self.purge(accept);
        }
        // The coalesce decision is made at the cycle the write is actually
        // accepted. The check used to run at `now` only, so a write that
        // stalled on a full queue was never re-checked against a same-block
        // entry still queued at `accept` — double-counting it as a fresh
        // media write.
        if let Some(completion) = self.coalescable(block, accept) {
            self.coalesced.inc();
            return WpqAccept {
                persist: accept,
                media_completion: completion,
                coalesced: true,
            };
        }
        let (start, completion) = media.schedule(accept, write_latency);
        self.entries.insert(block, Entry { start, completion });
        self.retire.push(Reverse((completion, block)));
        self.media_writes.inc();
        WpqAccept {
            persist: accept,
            media_completion: completion,
            coalesced: false,
        }
    }

    /// The completion cycle of a queued same-block entry a write arriving
    /// at `t` can merge into — the entry's media write must not have
    /// started, because an in-flight write cannot absorb new data.
    fn coalescable(&self, block: BlockAddr, t: Cycle) -> Option<Cycle> {
        self.entries
            .get(&block)
            .filter(|e| e.start > t)
            .map(|e| e.completion)
    }

    /// True if `block` still has a queued entry at `now` (read forwarding).
    #[must_use]
    pub fn holds(&self, block: BlockAddr, now: Cycle) -> bool {
        self.entries.get(&block).is_some_and(|e| e.completion > now)
    }

    /// True if the heap item `(completion, block)` is the block's current
    /// entry rather than one a newer write replaced.
    fn is_live(&self, completion: Cycle, block: BlockAddr) -> bool {
        self.entries
            .get(&block)
            .is_some_and(|e| e.completion == completion)
    }

    /// Drops entries whose media writes have completed, in completion
    /// order, with the stale heap items met on the way.
    fn purge(&mut self, now: Cycle) {
        while let Some(&Reverse((completion, block))) = self.retire.peek() {
            if completion > now {
                break;
            }
            self.retire.pop();
            if self.is_live(completion, block) {
                self.entries.remove(&block);
            }
        }
    }

    /// The earliest completion among the queued entries, dropping stale
    /// heap items above it. The queue must not be empty.
    fn earliest_completion(&mut self) -> Cycle {
        while let Some(&Reverse((completion, block))) = self.retire.peek() {
            if self.is_live(completion, block) {
                return completion;
            }
            self.retire.pop();
        }
        unreachable!("a full WPQ has a live entry")
    }

    /// Bytes that the flush-on-fail battery must drain if power is lost at
    /// `now` — every still-queued entry.
    #[must_use]
    pub fn crash_drain_bytes(&self, now: Cycle) -> u64 {
        self.occupancy(now) as u64 * BLOCK_BYTES as u64
    }

    /// Backpressure stalls so far (allocation-free event probe).
    #[must_use]
    pub fn backpressure_count(&self) -> u64 {
        self.backpressure_events.get()
    }

    /// Exports counters under the `wpq.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("wpq.media_writes", self.media_writes.get());
        s.set("wpq.coalesced", self.coalesced.get());
        s.set("wpq.backpressure_events", self.backpressure_events.get());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wpq_and_media() -> (WritePendingQueue, ChannelScheduler) {
        (WritePendingQueue::new(4), ChannelScheduler::new(1))
    }

    const WLAT: Cycle = 1000;

    #[test]
    fn accept_is_immediate_with_space() {
        let (mut q, mut m) = wpq_and_media();
        let a = q.offer(5, BlockAddr::from_index(1), &mut m, WLAT);
        assert_eq!(a.persist, 5);
        assert_eq!(a.media_completion, 5 + WLAT);
        assert!(!a.coalesced);
        assert_eq!(q.occupancy(5), 1);
    }

    #[test]
    fn coalesces_queued_block() {
        let (mut q, mut m) = wpq_and_media();
        // First write starts immediately; a write to a *different* block
        // queues behind it on the single channel, so its start is in the
        // future and a third write to that block can coalesce.
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT);
        let b = q.offer(0, BlockAddr::from_index(2), &mut m, WLAT);
        assert_eq!(b.persist, 0);
        let c = q.offer(10, BlockAddr::from_index(2), &mut m, WLAT);
        assert!(c.coalesced);
        assert_eq!(c.media_completion, b.media_completion);
        assert_eq!(q.stats().get("wpq.media_writes"), 2);
        assert_eq!(q.stats().get("wpq.coalesced"), 1);
    }

    #[test]
    fn started_entry_does_not_coalesce() {
        let (mut q, mut m) = wpq_and_media();
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        let again = q.offer(10, BlockAddr::from_index(1), &mut m, WLAT);
        assert!(
            !again.coalesced,
            "in-flight media write cannot absorb new data"
        );
        assert_eq!(q.stats().get("wpq.media_writes"), 2);
    }

    #[test]
    fn backpressure_when_full() {
        let (mut q, mut m) = wpq_and_media();
        for i in 0..4 {
            q.offer(0, BlockAddr::from_index(i), &mut m, WLAT);
        }
        assert_eq!(q.occupancy(0), 4);
        let a = q.offer(0, BlockAddr::from_index(99), &mut m, WLAT);
        // Earliest completion on the single channel is WLAT.
        assert_eq!(a.persist, WLAT);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
    }

    #[test]
    fn full_queue_merges_same_block_write_without_backpressure() {
        // Regression for the backpressure coalesce gap: a mergeable write
        // must never stall on a full queue, pay a backpressure event, or
        // count as a fresh media write.
        let mut q = WritePendingQueue::new(2);
        let mut m = ChannelScheduler::new(1);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        q.offer(0, BlockAddr::from_index(2), &mut m, WLAT); // starts at WLAT
        assert_eq!(q.occupancy(5), 2, "queue full");
        let a = q.offer(5, BlockAddr::from_index(2), &mut m, WLAT);
        assert!(a.coalesced);
        assert_eq!(a.persist, 5);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 0);
        assert_eq!(q.stats().get("wpq.media_writes"), 2);
    }

    #[test]
    fn coalesce_check_runs_at_accept_after_backpressure() {
        // A same-block entry whose media write is in flight cannot absorb
        // the new write, so the write backpressures; the stall ends exactly
        // when that entry completes, the accept-time re-check finds it
        // purged, and the write correctly counts as fresh.
        let mut q = WritePendingQueue::new(2);
        let mut m = ChannelScheduler::new(1);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        q.offer(0, BlockAddr::from_index(2), &mut m, WLAT); // starts at WLAT
        let a = q.offer(5, BlockAddr::from_index(1), &mut m, WLAT);
        assert!(!a.coalesced, "in-flight media write cannot absorb new data");
        assert_eq!(a.persist, WLAT, "stalled until block 1's write completed");
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
        assert_eq!(q.stats().get("wpq.media_writes"), 3);
    }

    /// Block 1's in-flight write (completing at WLAT) replaced by a second
    /// write completing at 500 + WLAT, on two channels: the first write's
    /// heap item goes stale.
    fn with_replaced_entry() -> (WritePendingQueue, ChannelScheduler) {
        let mut q = WritePendingQueue::new(2);
        let mut m = ChannelScheduler::new(2);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT);
        let replaced = q.offer(500, BlockAddr::from_index(1), &mut m, WLAT);
        assert!(!replaced.coalesced);
        assert_eq!(replaced.media_completion, 500 + WLAT);
        (q, m)
    }

    #[test]
    fn replaced_entry_does_not_retire_at_its_old_completion() {
        let (mut q, mut m) = with_replaced_entry();
        // Purging past WLAT drops the stale item, not block 1's entry.
        q.offer(WLAT + 100, BlockAddr::from_index(2), &mut m, WLAT);
        assert!(q.holds(BlockAddr::from_index(1), WLAT + 200));
        assert_eq!(q.occupancy(WLAT + 200), 2);
    }

    #[test]
    fn backpressure_waits_for_the_earliest_live_completion() {
        let (mut q, mut m) = with_replaced_entry();
        q.offer(600, BlockAddr::from_index(2), &mut m, WLAT); // completes at 2 * WLAT
        let a = q.offer(700, BlockAddr::from_index(3), &mut m, WLAT);
        assert_eq!(a.persist, 500 + WLAT, "not the stale item's WLAT");
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
    }

    #[test]
    fn coalesce_window_is_start_time_not_completion() {
        let mut q = WritePendingQueue::new(4);
        let mut m = ChannelScheduler::new(1);
        q.offer(0, BlockAddr::from_index(1), &mut m, WLAT); // starts at 0
        q.offer(0, BlockAddr::from_index(2), &mut m, WLAT); // starts at WLAT
        assert_eq!(q.coalescable(BlockAddr::from_index(1), 5), None);
        assert_eq!(q.coalescable(BlockAddr::from_index(2), 5), Some(2 * WLAT));
        // At the entry's own start cycle the window has closed.
        assert_eq!(q.coalescable(BlockAddr::from_index(2), WLAT), None);
    }

    #[test]
    fn crash_with_queue_at_capacity_covers_every_entry() {
        // Satellite coverage: crash while occupancy == capacity, right
        // after a backpressure stall. Every still-queued entry is inside
        // the ADR domain and must be charged to the flush-on-fail battery.
        let (mut q, mut m) = wpq_and_media();
        for i in 0..4 {
            q.offer(0, BlockAddr::from_index(i), &mut m, WLAT);
        }
        let a = q.offer(0, BlockAddr::from_index(99), &mut m, WLAT);
        assert_eq!(q.stats().get("wpq.backpressure_events"), 1);
        assert_eq!(q.occupancy(0), 4);
        assert_eq!(q.crash_drain_bytes(0), 4 * 64);
        // At the stalled accept cycle the new entry occupies the freed
        // slot: still at capacity, still fully covered.
        assert_eq!(q.occupancy(a.persist), 4);
        assert_eq!(q.crash_drain_bytes(a.persist), 4 * 64);
    }

    #[test]
    fn occupancy_drains_over_time() {
        let (mut q, mut m) = wpq_and_media();
        for i in 0..3 {
            q.offer(0, BlockAddr::from_index(i), &mut m, WLAT);
        }
        assert_eq!(q.occupancy(0), 3);
        assert_eq!(q.occupancy(WLAT), 2);
        assert_eq!(q.occupancy(3 * WLAT), 0);
        assert_eq!(q.crash_drain_bytes(WLAT), 2 * 64);
    }

    #[test]
    fn holds_reflects_queue_contents() {
        let (mut q, mut m) = wpq_and_media();
        let b = BlockAddr::from_index(3);
        q.offer(0, b, &mut m, WLAT);
        assert!(q.holds(b, 10));
        assert!(!q.holds(b, WLAT + 1));
        assert!(!q.holds(BlockAddr::from_index(4), 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = WritePendingQueue::new(0);
    }
}

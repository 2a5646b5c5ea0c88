//! The persist-buffer core both bbPB organizations share (paper §III-B,
//! §III-F).
//!
//! The memory-side and processor-side buffers differ only in what an entry
//! is and which entries may coalesce; an [`EntryTable`] supplies exactly
//! that. Everything else lives here once: the capacity and watermark
//! levels derived from [`BbpbConfig`], the in-flight drains that hold their
//! slot until the WPQ accepts the write, the admission rule (coalesce, or
//! allocate and stall while full), watermark draining, the drain trace,
//! crash discard, the change notes and the shared counters.

use bbb_sim::{BbpbConfig, BlockAddr, Counter, Cycle, MemoryPort, Stats, TraceEvent, TraceLog};

/// Result of offering a persisting store to a persist buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocOutcome {
    /// Cycle at which the store owns an entry — its persist point. Equals
    /// the offer cycle unless the buffer was full (a *rejection*), in which
    /// case the store stalled until a drain freed an entry.
    pub done: Cycle,
    /// True if the store merged into an existing entry.
    pub coalesced: bool,
    /// True if the buffer was full and the store had to wait.
    pub rejected: bool,
}

/// One persist-buffer organization: what an entry is, which resident
/// entry a new one may coalesce into, and which entry drains next.
pub trait EntryTable {
    /// One buffered entry.
    type Entry;

    /// An empty table for a buffer of `capacity` entries.
    fn with_capacity(capacity: usize) -> Self;

    /// Resident entries (drains in flight excluded).
    fn resident(&self) -> usize;

    /// Merges `entry` into the resident entry the organization lets it
    /// coalesce with. Returns false, changing nothing, when there is none.
    fn coalesce(&mut self, entry: &Self::Entry) -> bool;

    /// Installs `entry` as the most recently written resident entry.
    fn insert(&mut self, entry: Self::Entry);

    /// Removes the next drain victim; `None` when nothing is resident.
    fn pop_oldest(&mut self) -> Option<Self::Entry>;

    /// Reports to `mem` ([`MemoryPort::note_change`]) the blocks of the
    /// resident entries whose place in the crash order moved when
    /// `popped`, the oldest, left. None moves by default.
    fn note_reordered(&self, _popped: &Self::Entry, _mem: &mut dyn MemoryPort) {}

    /// Drops every resident entry.
    fn clear(&mut self);

    /// The block `entry` writes.
    fn block(entry: &Self::Entry) -> BlockAddr;

    /// Issues `entry`'s NVMM write at `now`; returns the cycle it persists.
    fn write(entry: &Self::Entry, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle;

    /// Adds the counters only this organization keeps.
    fn export(&self, _stats: &mut Stats) {}
}

/// One core's persist buffer over the entry organization `T`.
#[derive(Debug, Clone)]
pub struct PersistBuffer<T> {
    capacity: usize,
    drain_trigger_level: usize,
    drain_stop_level: usize,
    drain_latency: Cycle,
    pub(crate) table: T,
    /// Completion cycles of issued drains; each holds its entry's slot
    /// until then.
    in_flight: Vec<Cycle>,
    allocations: Counter,
    coalesces: Counter,
    rejections: Counter,
    drains: Counter,
    /// Which core this buffer sits next to (trace attribution only; set by
    /// `PersistState::new`).
    pub(crate) core_id: usize,
    /// Drain-event recorder for the persist-order checker.
    pub(crate) trace: TraceLog,
    /// Whether changes to the resident entries — the crash drain set —
    /// are reported to the memory port ([`MemoryPort::note_change`]);
    /// off for a volatile buffer, whose entries no crash keeps. A drain
    /// reports itself: its NVMM write is a media change.
    pub(crate) change_notes: bool,
}

impl<T: EntryTable> PersistBuffer<T> {
    /// Creates a buffer from the bbPB configuration: the entry count and
    /// drain policy apply to either organization's entries.
    #[must_use]
    pub fn new(cfg: &BbpbConfig) -> Self {
        Self {
            capacity: cfg.entries,
            drain_trigger_level: cfg.drain_policy.trigger_level(cfg.entries),
            drain_stop_level: cfg.drain_policy.stop_level(cfg.entries),
            drain_latency: cfg.drain_latency,
            table: T::with_capacity(cfg.entries),
            in_flight: Vec::new(),
            allocations: Counter::new(),
            coalesces: Counter::new(),
            rejections: Counter::new(),
            drains: Counter::new(),
            core_id: 0,
            trace: TraceLog::default(),
            change_notes: true,
        }
    }

    /// Resident entries — the size of the crash drain set.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.table.resident()
    }

    /// Entries occupied at `now` (resident plus drains still in flight).
    #[must_use]
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.advance(now);
        self.occupied()
    }

    /// Watermark draining (paper §III-F): when total occupancy (resident
    /// plus in-flight) reaches the trigger level — the full capacity for
    /// the threshold policy — a burst drains the organization's oldest
    /// resident entries until the resident count falls to the stop level.
    /// Drained entries move to the in-flight set, so the burst frees
    /// allocation slots as the WPQ absorbs the writes; a new allocation
    /// arriving mid-burst waits for the first completion rather than
    /// stripping further resident entries.
    pub fn maybe_drain(&mut self, now: Cycle, mem: &mut dyn MemoryPort) {
        self.advance(now);
        if self.occupied() < self.drain_trigger_level {
            return;
        }
        while self.table.resident() > self.drain_stop_level {
            if !self.drain_oldest(now, mem) {
                break;
            }
            self.advance(now);
        }
    }

    /// Drains every entry in order and returns the cycle the last one is
    /// durable — the completion time of an epoch barrier.
    pub fn drain_all_timed(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        while self.drain_oldest(now, mem) {}
        let t = self
            .in_flight
            .iter()
            .copied()
            .max()
            .map_or(now, |f| f.max(now));
        self.advance(t);
        t
    }

    /// Drops every entry without writing anything — a crash with the
    /// battery disconnected (or a volatile buffer, the BEP baseline),
    /// where the buffer turns out to be plain SRAM, or the end of a
    /// battery-backed crash once the system has written the entries to
    /// NVMM. Returns the entries dropped.
    pub fn crash_discard(&mut self) -> u64 {
        let lost = self.table.resident() as u64;
        self.table.clear();
        self.in_flight.clear();
        lost
    }

    /// Drains issued so far (cheap event probe).
    #[must_use]
    pub fn drain_count(&self) -> u64 {
        self.drains.get()
    }

    /// Exports counters under the `bbpb.` prefix: the shared four, then
    /// the organization's own.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("bbpb.allocations", self.allocations.get());
        s.set("bbpb.coalesces", self.coalesces.get());
        s.set("bbpb.rejections", self.rejections.get());
        s.set("bbpb.drains", self.drains.get());
        self.table.export(&mut s);
        s
    }

    /// The admission rule: coalesce into a resident entry if the
    /// organization allows it; otherwise allocate, stalling while the
    /// buffer is full until a drain frees an entry. Threshold draining
    /// runs afterwards either way.
    pub(crate) fn offer(
        &mut self,
        now: Cycle,
        entry: T::Entry,
        mem: &mut dyn MemoryPort,
    ) -> AllocOutcome {
        self.advance(now);
        self.note(T::block(&entry), mem);
        if self.try_coalesce(&entry) {
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
        while self.is_full() {
            rejected = true;
            t = self.wait_for_free(t, mem);
        }
        if rejected {
            self.rejections.inc();
        }
        self.install(entry);
        self.allocations.inc();
        self.maybe_drain(t, mem);
        AllocOutcome {
            done: t,
            coalesced: false,
            rejected,
        }
    }

    /// Coalesces `entry` into a resident entry if the organization allows
    /// it, counting the coalesce.
    pub(crate) fn try_coalesce(&mut self, entry: &T::Entry) -> bool {
        if !self.table.coalesce(entry) {
            return false;
        }
        self.coalesces.inc();
        true
    }

    /// Installs a fresh resident entry (the caller made room).
    pub(crate) fn install(&mut self, entry: T::Entry) {
        self.table.insert(entry);
    }

    /// Reports `block`'s entry to `mem` as changed, when notes are on.
    pub(crate) fn note(&self, block: BlockAddr, mem: &mut dyn MemoryPort) {
        if self.change_notes {
            mem.note_change(block);
        }
    }

    /// True when resident plus in-flight entries fill every slot.
    pub(crate) fn is_full(&self) -> bool {
        self.occupied() >= self.capacity
    }

    /// Retires in-flight drains complete by `now`.
    pub(crate) fn advance(&mut self, now: Cycle) {
        self.in_flight.retain(|&f| f > now);
    }

    /// Issues a drain of the oldest resident entry. Returns false when
    /// nothing is resident.
    pub(crate) fn drain_oldest(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> bool {
        let Some(entry) = self.table.pop_oldest() else {
            return false;
        };
        if self.change_notes {
            self.table.note_reordered(&entry, mem);
        }
        self.issue_drain(now, &entry, false, mem);
        true
    }

    /// Writes an entry already removed from the table to NVMM; its slot
    /// stays occupied until the write completes (or `drain_latency`
    /// passes, whichever is later).
    pub(crate) fn issue_drain(
        &mut self,
        now: Cycle,
        entry: &T::Entry,
        forced: bool,
        mem: &mut dyn MemoryPort,
    ) {
        self.record_drain(now, T::block(entry), forced);
        let persist = T::write(entry, now, mem);
        self.in_flight.push(persist.max(now + self.drain_latency));
    }

    /// Logs and counts one drain of `block`. A crash that writes a
    /// buffered entry on the buffer's behalf records it here too.
    pub(crate) fn record_drain(&mut self, now: Cycle, block: BlockAddr, forced: bool) {
        self.trace.push(TraceEvent::PbDrain {
            core: self.core_id,
            block,
            cycle: now,
            forced,
        });
        self.drains.inc();
    }

    /// Stalls until at least one entry frees, draining if necessary.
    /// Returns the cycle at which an entry is free.
    pub(crate) fn wait_for_free(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> Cycle {
        if self.in_flight.is_empty() && !self.drain_oldest(now, mem) {
            // Nothing resident and nothing in flight: capacity must be
            // free; nothing to wait for.
            return now;
        }
        let t = self
            .in_flight
            .iter()
            .copied()
            .min()
            .map_or(now, |f| f.max(now));
        self.advance(t);
        t
    }

    fn occupied(&self) -> usize {
        self.table.resident() + self.in_flight.len()
    }
}

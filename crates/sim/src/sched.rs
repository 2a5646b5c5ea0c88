//! Discrete-event scheduling primitives for the system interpreter.
//!
//! The multi-core interpreter in `bbb-core` used to pick the next core to
//! step by scanning every core's local clock — O(cores) per committed op.
//! [`EventQueue`] replaces that scan with a binary min-heap of
//! `(cycle, actor)` completion events: the interpreter pops the earliest
//! event, steps that actor, and pushes its next completion.
//!
//! The heap holds no state between run calls. Each call clears it and
//! seeds one event per active core at that core's clock as the call
//! finds it, so a caller may move the clocks between increments (a
//! crash sweep stepping an op directly, or draining the store
//! buffers) and every popped event is still current. No event goes
//! stale, so none is ever re-pushed or skipped, and no `decrease-key`
//! is needed.
//!
//! A heap rather than a timing wheel: completion times in this model are
//! analytic (an op can jump hundreds of cycles on an NVMM miss), so the
//! event horizon is unbounded and wheel buckets would mostly be empty;
//! `BinaryHeap` gives O(log cores) pops with no tuning.
//!
//! [`SchedProfile`] rides along: every scheduled completion is classified
//! into an [`EventKind`] so a finished run can report where simulated time
//! went (pipeline vs. store buffer vs. WPQ vs. bbPB vs. NVMM), which is
//! how the benchmark reports attribute cycle share per component.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Cycle;
use crate::stats::Stats;

/// What a scheduled completion event was waiting on.
///
/// The interpreter resolves each op as one blocking transaction, so the
/// classification is by the component that dominated the op's wait:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Core-local completion: compute, L1/store-buffer hits, and any op
    /// that finished without leaving the core.
    Pipeline = 0,
    /// Store-buffer pressure: the core stalled for a full SB, or a
    /// fence/flush waited on the SB drain engine.
    StoreBuffer = 1,
    /// WPQ acceptance: a flush (or the fence completing it) waited for
    /// the NVMM controller's write-pending queue.
    Wpq = 2,
    /// Persist-buffer activity: a bbPB/processor-side buffer drain held
    /// the op (epoch barriers under BEP, allocation stalls under BBB).
    Bbpb = 3,
    /// Memory-system service beyond the requester's L1: L2, a peer-cache
    /// intervention, or a DRAM/NVMM access.
    Nvmm = 4,
}

impl EventKind {
    /// Every kind, in stats-export order.
    pub const ALL: [EventKind; 5] = [
        EventKind::Pipeline,
        EventKind::StoreBuffer,
        EventKind::Wpq,
        EventKind::Bbpb,
        EventKind::Nvmm,
    ];

    /// Stable snake_case tag (stats keys, report meta).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Pipeline => "pipeline",
            EventKind::StoreBuffer => "store_buffer",
            EventKind::Wpq => "wpq",
            EventKind::Bbpb => "bbpb",
            EventKind::Nvmm => "nvmm",
        }
    }
}

/// Per-kind event counts and simulated-cycle totals for one run.
///
/// `cycles` accumulates each stepped op's simulated elapsed time under the
/// kind that dominated its wait, so the shares sum to the per-core busy
/// time (not wall time, and not `sim.cycles`, which is a max over cores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedProfile {
    counts: [u64; 5],
    cycles: [u64; 5],
}

impl SchedProfile {
    /// A zeroed profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completion event of `kind` that consumed `cycles` of
    /// simulated time.
    pub fn record(&mut self, kind: EventKind, cycles: Cycle) {
        self.counts[kind as usize] += 1;
        self.cycles[kind as usize] += cycles;
    }

    /// Records `n` completion events of `kind` that together consumed
    /// `cycles` of simulated time — the batch-retire fast path folds runs
    /// of pure-compute ops into one scheduler event but must attribute
    /// the same per-op counts as `n` separate [`SchedProfile::record`]
    /// calls.
    pub fn record_many(&mut self, kind: EventKind, n: u64, cycles: Cycle) {
        self.counts[kind as usize] += n;
        self.cycles[kind as usize] += cycles;
    }

    /// Adds another profile's counts and cycles into this one (merging
    /// shard- or run-level attributions additively).
    pub fn absorb(&mut self, other: &SchedProfile) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Events recorded under `kind`.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Simulated cycles attributed to `kind`.
    #[must_use]
    pub fn cycles(&self, kind: EventKind) -> u64 {
        self.cycles[kind as usize]
    }

    /// Total simulated cycles attributed across all kinds.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total events recorded.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exports under `sched.events.<kind>` / `sched.cycles.<kind>`.
    pub fn export(&self, stats: &mut Stats) {
        for kind in EventKind::ALL {
            stats.set(&format!("sched.events.{}", kind.name()), self.count(kind));
            stats.set(&format!("sched.cycles.{}", kind.name()), self.cycles(kind));
        }
    }
}

/// A binary min-heap of `(cycle, actor)` completion events.
///
/// Ordering is lexicographic — earliest cycle first, lowest actor index on
/// ties — which reproduces exactly the "first active core with the
/// smallest local clock" choice of the scan it replaces.
///
/// # Examples
///
/// ```
/// use bbb_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(30, 1);
/// q.push(10, 2);
/// q.push(10, 0);
/// assert_eq!(q.pop(), Some((10, 0)));
/// assert_eq!(q.pop(), Some((10, 2)));
/// assert_eq!(q.pop(), Some((30, 1)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `actor`'s next completion at `at`.
    pub fn push(&mut self, at: Cycle, actor: usize) {
        self.heap.push(Reverse((at, actor)));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// The earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<(Cycle, usize)> {
        self.heap.peek().map(|&Reverse(e)| e)
    }

    /// Drops every queued event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_actor_order() {
        let mut q = EventQueue::new();
        q.push(5, 3);
        q.push(5, 1);
        q.push(2, 7);
        q.push(9, 0);
        assert_eq!(q.peek(), Some((2, 7)));
        assert_eq!(q.pop(), Some((2, 7)));
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 3)));
        assert_eq!(q.pop(), Some((9, 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn matches_linear_scan_tie_break() {
        // The scan it replaces picked the *first* core with the minimal
        // clock; the heap must agree for every permutation of pushes.
        let clocks = [4u64, 2, 2, 9];
        let scan_pick = clocks
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, &c)| (c, i))
            .unwrap();
        let mut q = EventQueue::new();
        for (i, &c) in clocks.iter().enumerate().rev() {
            q.push(c, i);
        }
        assert_eq!(q.pop(), Some(scan_pick));
    }

    #[test]
    fn clear_and_len_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 0);
        q.push(2, 1);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn profile_accumulates_per_kind() {
        let mut p = SchedProfile::new();
        p.record(EventKind::Pipeline, 10);
        p.record(EventKind::Pipeline, 5);
        p.record(EventKind::Nvmm, 300);
        assert_eq!(p.count(EventKind::Pipeline), 2);
        assert_eq!(p.cycles(EventKind::Pipeline), 15);
        assert_eq!(p.count(EventKind::Nvmm), 1);
        assert_eq!(p.total_cycles(), 315);
        assert_eq!(p.total_events(), 3);
        let mut s = Stats::new();
        p.export(&mut s);
        assert_eq!(s.get("sched.events.pipeline"), 2);
        assert_eq!(s.get("sched.cycles.nvmm"), 300);
        assert_eq!(s.get("sched.events.wpq"), 0);
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["pipeline", "store_buffer", "wpq", "bbpb", "nvmm"]
        );
    }
}

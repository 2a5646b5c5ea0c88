//! Persist-latency observability: store commit → point of persistence.
//!
//! The paper's headline claim is that battery-backed buffers collapse the
//! point of persistence (PoP) onto the point of visibility. This module
//! makes that measurable as a distribution rather than an argument: every
//! persisting store's commit cycle is paired with the cycle its data
//! reaches the active persistence domain, and the difference lands in a
//! mergeable [`LatencyHistogram`] whose p50/p99/p999 the server-scale
//! benchmarks report per mode.
//!
//! Where the PoP is observed depends on the machine:
//!
//! * battery-backed SB (BBB both organizations, eADR): the store is
//!   durable the cycle it commits — latency is exactly 0, the PoV==PoP
//!   identity the paper proves;
//! * the no-battery-SB ablation of those modes: PoP is the SB drain into
//!   the (battery-covered) hierarchy/persist buffer;
//! * ADR + flushes (`pmem`): PoP is the `clwb` that pushes the line into
//!   the WPQ — commits wait in the cache until software flushes them;
//! * BEP: PoP is the epoch barrier that drains the volatile procPB.
//!
//! For the flush/fence modes the tracker keeps a small per-core pending
//! queue of (block, commit cycle) pairs; stores that are never resolved
//! (uninstrumented code, or overflow past the bounded queue) are counted
//! as `unresolved` rather than silently dropped, so a report can tell
//! "fast" from "never persisted".

use std::collections::VecDeque;

use bbb_sim::{BlockAddr, Cycle, LatencyHistogram, Stats};

use crate::mode::PersistencyMode;

/// Bound on tracked-but-unresolved persisting stores per core. Beyond it
/// the oldest entry is dropped into the `unresolved` count — the queue
/// only grows without bound when code never flushes, and then the honest
/// answer is "unresolved", not an ever-larger buffer.
const PENDING_CAP: usize = 8192;

/// Where the active machine's point of persistence is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PersistPoint {
    /// Battery-backed store buffer: PoP == PoV == store commit.
    Commit,
    /// Battery domain starts past the SB: PoP is the SB drain.
    SbDrain,
    /// ADR + software flushes: PoP is the `clwb`'s persist cycle.
    Clwb,
    /// BEP: PoP is the epoch barrier draining the volatile procPB.
    Fence,
}

impl PersistPoint {
    fn for_machine(mode: PersistencyMode, battery_backed_sb: bool) -> Self {
        match mode {
            PersistencyMode::Pmem => Self::Clwb,
            PersistencyMode::Bep => Self::Fence,
            PersistencyMode::Eadr
            | PersistencyMode::BbbMemorySide
            | PersistencyMode::BbbProcessorSide => {
                if battery_backed_sb {
                    Self::Commit
                } else {
                    Self::SbDrain
                }
            }
        }
    }
}

/// Tracks commit→persistence latency for every persisting store.
#[derive(Debug, Clone)]
pub(crate) struct PersistLatencyTracker {
    point: PersistPoint,
    hist: LatencyHistogram,
    /// Per-core (block, commit cycle) awaiting a resolving clwb/fence.
    pending: Vec<VecDeque<(BlockAddr, Cycle)>>,
    dropped: u64,
}

impl PersistLatencyTracker {
    pub(crate) fn new(mode: PersistencyMode, battery_backed_sb: bool, cores: usize) -> Self {
        Self {
            point: PersistPoint::for_machine(mode, battery_backed_sb),
            hist: LatencyHistogram::new(),
            pending: vec![VecDeque::new(); cores],
            dropped: 0,
        }
    }

    /// A persisting store committed on `core` at `now`.
    pub(crate) fn on_store_commit(&mut self, core: usize, block: BlockAddr, now: Cycle) {
        match self.point {
            PersistPoint::Commit => self.hist.record(0),
            PersistPoint::SbDrain => {}
            PersistPoint::Clwb | PersistPoint::Fence => {
                let q = &mut self.pending[core];
                if q.len() >= PENDING_CAP {
                    q.pop_front();
                    self.dropped += 1;
                }
                q.push_back((block, now));
            }
        }
    }

    /// A persistent SB entry committed at `committed` reached the battery
    /// domain at `done`.
    pub(crate) fn on_sb_drain(&mut self, committed: Cycle, done: Cycle) {
        if self.point == PersistPoint::SbDrain {
            self.hist.record(done.saturating_sub(committed));
        }
    }

    /// `core` flushed `block`; its data is durable at `persist`. Resolves
    /// this core's pending stores to the same line (instrumented code
    /// flushes its own stores; a cross-core flush of a shared line is
    /// credited to the eventual own-core flush instead).
    pub(crate) fn on_clwb(&mut self, core: usize, block: BlockAddr, persist: Cycle) {
        if self.point != PersistPoint::Clwb {
            return;
        }
        let hist = &mut self.hist;
        self.pending[core].retain(|&(b, committed)| {
            if b == block {
                hist.record(persist.saturating_sub(committed));
                false
            } else {
                true
            }
        });
    }

    /// `core` executed an epoch barrier; everything it committed before is
    /// durable at `done`.
    pub(crate) fn on_fence(&mut self, core: usize, done: Cycle) {
        if self.point != PersistPoint::Fence {
            return;
        }
        for (_, committed) in self.pending[core].drain(..) {
            self.hist.record(done.saturating_sub(committed));
        }
    }

    /// Stores tracked but never observed persisting (pending at the end of
    /// the run, or evicted past the bounded queue).
    pub(crate) fn unresolved(&self) -> u64 {
        self.dropped + self.pending.iter().map(|q| q.len() as u64).sum::<u64>()
    }

    /// Exports `persist.latency.*`. The percentile keys are per-run values
    /// at bucket granularity, not additive counters — merging two runs'
    /// `Stats` sums them into nonsense; merge the histograms instead.
    pub(crate) fn export(&self, stats: &mut Stats) {
        stats.set("persist.latency.samples", self.hist.samples());
        stats.set("persist.latency.p50", self.hist.percentile_permille(500));
        stats.set("persist.latency.p99", self.hist.percentile_permille(990));
        stats.set("persist.latency.p999", self.hist.percentile_permille(999));
        stats.set("persist.latency.max", self.hist.max());
        stats.set("persist.latency.unresolved", self.unresolved());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_modes_observe_zero_latency() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut t = PersistLatencyTracker::new(mode, true, 2);
            t.on_store_commit(0, BlockAddr::containing(0x1000), 100);
            t.on_store_commit(1, BlockAddr::containing(0x2000), 200);
            assert_eq!(t.hist.samples(), 2);
            assert_eq!(t.hist.max(), 0);
            assert_eq!(t.unresolved(), 0);
        }
    }

    #[test]
    fn clwb_resolves_matching_line_only() {
        let mut t = PersistLatencyTracker::new(PersistencyMode::Pmem, true, 1);
        let a = BlockAddr::containing(0x1000);
        let b = BlockAddr::containing(0x2000);
        t.on_store_commit(0, a, 100);
        t.on_store_commit(0, b, 110);
        t.on_clwb(0, a, 600);
        assert_eq!(t.hist.samples(), 1);
        assert_eq!(t.hist.max(), 500);
        assert_eq!(t.unresolved(), 1);
        t.on_clwb(0, b, 700);
        assert_eq!(t.hist.samples(), 2);
        assert_eq!(t.unresolved(), 0);
    }

    #[test]
    fn fence_resolves_everything_on_the_core() {
        let mut t = PersistLatencyTracker::new(PersistencyMode::Bep, true, 2);
        t.on_store_commit(0, BlockAddr::containing(0x1000), 100);
        t.on_store_commit(0, BlockAddr::containing(0x2000), 150);
        t.on_store_commit(1, BlockAddr::containing(0x3000), 120);
        t.on_fence(0, 1000);
        assert_eq!(t.hist.samples(), 2);
        assert_eq!(t.hist.max(), 900);
        assert_eq!(t.unresolved(), 1, "core 1 never fenced");
    }

    #[test]
    fn pending_queue_is_bounded() {
        let mut t = PersistLatencyTracker::new(PersistencyMode::Pmem, true, 1);
        for i in 0..(PENDING_CAP as u64 + 10) {
            t.on_store_commit(0, BlockAddr::containing(i * 64), i);
        }
        assert_eq!(t.unresolved(), PENDING_CAP as u64 + 10);
        assert_eq!(t.pending[0].len(), PENDING_CAP);
    }

    #[test]
    fn no_battery_sb_measures_drain_latency() {
        let mut t = PersistLatencyTracker::new(PersistencyMode::BbbMemorySide, false, 1);
        t.on_store_commit(0, BlockAddr::containing(0x1000), 100);
        assert_eq!(t.hist.samples(), 0, "commit alone records nothing");
        t.on_sb_drain(100, 140);
        assert_eq!(t.hist.samples(), 1);
        assert_eq!(t.hist.max(), 40);
    }

    #[test]
    fn export_names_are_stable() {
        let mut t = PersistLatencyTracker::new(PersistencyMode::Eadr, true, 1);
        t.on_store_commit(0, BlockAddr::containing(0), 0);
        let mut s = Stats::new();
        t.export(&mut s);
        assert_eq!(s.get("persist.latency.samples"), 1);
        assert_eq!(s.get("persist.latency.p999"), 0);
        assert_eq!(s.get("persist.latency.unresolved"), 0);
    }
}

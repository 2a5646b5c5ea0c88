//! Simulated-cycle attribution for the system interpreter.
//!
//! The run loop in `bbb-core` classifies every stepped op into an
//! [`EventKind`] and records its elapsed cycles in a [`SchedProfile`], so
//! a finished run can report where simulated time went (pipeline vs.
//! store buffer vs. WPQ vs. bbPB vs. NVMM). The benchmark reports
//! attribute cycle share per component from it, under `sched.*`.
//!
//! The scheduler itself is the `(cycle, core)` min-heap inside
//! `bbb_core::RunCursor`.

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

#[cfg(test)]
mod tests {
    use super::*;

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

//! The crash-sweep engine: the one loop that crashes an execution point
//! by point. A [`CrashSweep`] owns a machine, its op feed and its run
//! cursor; a caller advances it to each crash [`Point`] and asks for the
//! non-destructive [`System::crash_image`] there, per battery state. An
//! unchanged [`System::crash_image_epoch`] proves the image identical to
//! the last one, so the engine returns `None` and the caller reuses its
//! last conclusion.

use bbb_core::{
    NvmImage, Op, PersistencyMode, ProbeKind, RunCursor, StopAt, System, Workload, PAGE_BYTES,
};
use bbb_sim::{Cycle, SchedProfile, SimConfig};

use crate::grid::{plan_points, GridSpec};

/// Where [`CrashSweep::advance`] moves the machine.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    /// The first op boundary at or past this cycle, fed by the workload
    /// ([`System::run_until`]).
    Cycle(Cycle),
    /// One op stepped directly on a core ([`System::step_op`]).
    Op(usize, Op),
    /// The end of the run, which is always imaged: callers compare the
    /// final image against other runs.
    End,
}

/// What the reference pass learned about the execution.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Total run length in cycles.
    pub total_cycles: Cycle,
    /// Ops committed over the whole run.
    pub total_ops: u64,
    /// Cycles at which the probed signal (ordering events or persisting
    /// stores) was first observed.
    pub event_cycles: Vec<Cycle>,
}

impl Reference {
    /// The crash grid `grid` plans over this run ([`plan_points`]); empty
    /// for a run that took no time.
    #[must_use]
    pub fn plan(&self, grid: &GridSpec) -> Vec<Cycle> {
        if self.total_cycles == 0 {
            return Vec::new();
        }
        plan_points(self.total_cycles, &self.event_cycles, grid)
    }
}

/// Snapshot-cost and throughput accounting for one sweep (or shard).
///
/// The pre-COW sweep deep-cloned the whole `System` once or twice per
/// crash point; these counters quantify what the copy-on-write
/// [`System::crash_image`] path avoids. All counters are exact and
/// deterministic, so they merge additively across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepPerf {
    /// Crash images taken (healthy + battery-dropped + lossy finals).
    pub snapshots: u64,
    /// Media pages shared between a crash image and the live run —
    /// pages a deep clone would have copied and COW did not.
    pub pages_shared: u64,
    /// Media pages the overlay actually deep-copied (persist-domain
    /// contents landing on pages still shared with the live run).
    pub pages_copied: u64,
    /// Bytes of media never copied thanks to COW snapshots
    /// (`pages_shared * PAGE_BYTES`).
    pub clone_bytes_avoided: u64,
    /// Crash points whose image provably matched the previous point's
    /// ([`System::crash_image_epoch`] unchanged), so the snapshot and
    /// recovery check were skipped and the prior verdict reused.
    pub snapshots_reused: u64,
    /// Simulated cycles executed by the forward crash pass(es).
    pub sim_cycles: u64,
    /// Per-component completion-event attribution of the forward crash
    /// pass(es): which component (pipeline, store buffer, WPQ, persist
    /// buffer, memory system) dominated each committed op's wait. Covers
    /// the same runs as `sim_cycles`.
    pub sched: SchedProfile,
}

impl SweepPerf {
    /// Adds another shard's counters into this one.
    pub fn absorb(&mut self, other: &SweepPerf) {
        self.snapshots += other.snapshots;
        self.pages_shared += other.pages_shared;
        self.pages_copied += other.pages_copied;
        self.clone_bytes_avoided += other.clone_bytes_avoided;
        self.snapshots_reused += other.snapshots_reused;
        self.sim_cycles += other.sim_cycles;
        self.sched.absorb(&other.sched);
    }
}

/// One machine crashed point by point (see the module docs).
pub struct CrashSweep {
    sys: System,
    feed: Box<dyn Workload>,
    cursor: RunCursor,
    /// The last imaged epoch per battery state, indexed by `battery_ok`.
    last_epoch: [Option<u64>; 2],
    perf: SweepPerf,
}

impl CrashSweep {
    /// A machine at cycle zero, warm-started from `feed`'s set-up.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is rejected by [`System::new`].
    #[must_use]
    pub fn new(cfg: &SimConfig, mode: PersistencyMode, mut feed: Box<dyn Workload>) -> Self {
        let mut sys = System::new(cfg.clone(), mode).expect("valid sweep config");
        sys.prepare(feed.as_mut());
        Self {
            sys,
            feed,
            cursor: RunCursor::new(cfg.cores),
            last_epoch: [None; 2],
            perf: SweepPerf::default(),
        }
    }

    /// The reference pass: runs the feed to completion op by op, recording
    /// the run length and every cycle at which the `kind` signal moved. A
    /// forward pass on a fresh engine replays exactly this execution.
    #[must_use]
    pub fn reference(mut self, kind: ProbeKind) -> Reference {
        let mut event_cycles = Vec::new();
        let feed = self.feed.as_mut();
        self.sys
            .run_probed(feed, &mut self.cursor, &mut event_cycles, kind);
        Reference {
            total_cycles: self.sys.cycle(),
            total_ops: self.cursor.ops(),
            event_cycles,
        }
    }

    /// Moves the machine forward to `to`. Cycle points must ascend.
    pub fn advance(&mut self, to: Point) {
        let stop = match to {
            Point::Cycle(at) => StopAt::Cycle(at),
            Point::Op(core, op) => return self.sys.step_op(core, &op),
            Point::End => {
                self.last_epoch = [None; 2];
                StopAt::End
            }
        };
        self.sys
            .run_until(self.feed.as_mut(), &mut self.cursor, stop);
    }

    /// The crash image if power failed now, battery healthy or dropped; or
    /// `None` when its epoch equals the last image's of that state.
    pub fn crash(&mut self, battery_ok: bool) -> Option<NvmImage> {
        let epoch = self.sys.crash_image_epoch(battery_ok);
        let last = &mut self.last_epoch[usize::from(battery_ok)];
        if *last == Some(epoch) {
            self.perf.snapshots_reused += 1;
            return None;
        }
        *last = Some(epoch);
        // Every resident page starts shared with the live run; the COW
        // counter delta says how many the overlay copied.
        let (resident, copies_before) = self.sys.media_cow_stats();
        let image = self.sys.crash_image(battery_ok);
        let copied = image.as_store().cow_page_copies() - copies_before;
        let shared = (resident as u64).saturating_sub(copied);
        self.perf.snapshots += 1;
        self.perf.pages_shared += shared;
        self.perf.pages_copied += copied;
        self.perf.clone_bytes_avoided += shared * PAGE_BYTES as u64;
        Some(image)
    }

    /// The sweep's counters, with the simulated cycles and profile so far.
    #[must_use]
    pub fn finish(self) -> SweepPerf {
        let mut perf = self.perf;
        perf.sim_cycles += self.sys.cycle();
        perf.sched.absorb(self.sys.sched_profile());
        perf
    }
}

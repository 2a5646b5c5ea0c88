//! The full simulated machine.
//!
//! [`System`] wires the cores (`bbb-cpu`), the cache hierarchy
//! (`bbb-cache`), the hybrid main memory (`bbb-mem`), and the persistence
//! machinery of this crate into the machine of the paper's Table III, and
//! interprets committed op streams against it.
//!
//! # Execution model
//!
//! Each core is a sequential interpreter over its op stream with a
//! background store-buffer drain engine; the scheduler always advances the
//! core with the smallest local clock, so cores interleave in simulated-
//! time order. A store commits into the store buffer in one cycle; the
//! drain engine retires one entry at a time into the L1D through the
//! coherence protocol, and — under BBB — allocates the block into the
//! core's bbPB **in the same cycle the L1D is written**, which is the
//! design's central property (PoV == PoP).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::iter::Peekable;

use bbb_cache::CacheHierarchy;
use bbb_cpu::{CoreState, Op, SbEntry};
use bbb_mem::{ByteStore, ImageBasis, NvmImage, PAGE_BYTES};
use bbb_sim::{
    merge_logs, AddressMap, BlockAddr, Cycle, EventKind, MemoryPort, SchedProfile, SimConfig,
    Stats, TraceEvent, TraceLog, BLOCK_BYTES,
};

use crate::crash::CrashCost;
use crate::latency::PersistLatencyTracker;
use crate::memories::Memories;
use crate::mode::PersistencyMode;
use crate::persist::PersistState;
use crate::stream::{Batched, OpStream};
use crate::workload::Workload;

/// Errors from building or driving a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// A core index exceeded the configured core count.
    CoreOutOfRange {
        /// Requested core.
        core: usize,
        /// Configured core count.
        cores: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SystemError::CoreOutOfRange { core, cores } => {
                write!(f, "core {core} out of range (machine has {cores})")
            }
        }
    }
}

impl Error for SystemError {}

/// Summary of a finished (or op-budget-limited) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Final simulated time (max over cores, store buffers drained).
    pub cycles: Cycle,
    /// Ops committed across all cores.
    pub ops: u64,
    /// True when every core's workload stream ended (vs. budget cut).
    pub completed: bool,
}

/// Where [`System::run_until`] should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopAt {
    /// Stop once this many ops (cumulative over the cursor) have committed.
    Ops(u64),
    /// Stop at the first op boundary where simulated time has reached this
    /// cycle — the crash-at-cycle hook. The op that crossed the boundary
    /// has committed, and the machine is exactly as a power failure at that
    /// instant would find it (store buffers and persist buffers mid-flight).
    Cycle(Cycle),
    /// Run until every core's op stream ends.
    End,
}

/// Resumable state of a multi-core run: the per-core liveness, op count
/// and pending ops that [`System::run`] keeps internally. Holding it
/// outside the call lets a driver advance one run in increments via
/// [`System::run_until`] and, between increments, crash-test clones of the
/// machine without replaying from cycle zero. Scheduling state is not
/// part of it: each call schedules from the core clocks as it finds them.
#[derive(Debug, Clone)]
pub struct RunCursor {
    /// The [`Batched`] feed's queues between calls: the rest of the
    /// operation each core was in when a call stopped.
    pending: Vec<std::vec::IntoIter<Op>>,
    active: Vec<bool>,
    ops: u64,
    /// The run loop's min-heap of `(cycle, core)` events, earliest cycle
    /// then lowest core first. Kept here only so repeated calls reuse its
    /// allocation; every call clears and reseeds it.
    events: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl RunCursor {
    /// A cursor at the start of a run on an `n`-core machine.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self {
            pending: vec![Vec::new().into_iter(); cores],
            active: vec![true; cores],
            ops: 0,
            events: BinaryHeap::new(),
        }
    }

    /// Ops committed so far through this cursor.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once every core's op stream has ended.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.active.iter().all(|&a| !a)
    }
}

/// What [`System::run_probed`] records boundary cycles for. Each kind is
/// one signal, a sum of monotone counters sampled after every op. Adding
/// a counter to a kind would change boundary detection, and therefore the
/// committed sweep artifacts, for every existing workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Persist-relevant ordering events: fences (epoch barriers under
    /// BEP), forced persist-buffer drains and WPQ backpressure stalls. The
    /// default crash-point planner signal.
    Ordering,
    /// Committed persisting stores: the store-granular grid the pstore
    /// protocol sweep crashes on. A store-granular protocol (plain
    /// stores, no fences under BBB) has its interesting crash points at
    /// store boundaries, which the ordering probe cannot see at all on a
    /// battery-backed machine.
    PersistingStores,
}

/// A structure whose contents survive a power failure: the entries of
/// [`System::persist_domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Survivor {
    /// eADR's dirty NVMM cache blocks, flushed whole.
    DirtyLines,
    /// Each core's memory-side bbPB, blocks in FIFO order.
    Bbpbs,
    /// Each core's processor-side buffer, stores merged by τ.
    ProcPbs,
    /// Battery-backed store buffers, persistent stores merged by τ.
    StoreBuffers,
}

/// One write the persistence domain owes NVMM at a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Write {
    /// A whole block (a dirty line or a bbPB entry).
    Block(BlockAddr, [u8; BLOCK_BYTES]),
    /// One buffered store, read-modify-written into its block; `core`
    /// is the core whose buffer holds it.
    Store { core: usize, store: SbEntry },
}

/// [`merge_by_tau`] of `queues`, keeping only the stores on blocks
/// `wanted` accepts (all of them without it). `in_order` says the queues
/// are known to be in τ order (store buffers always are); otherwise they
/// are checked.
///
/// When every queue is in τ order, the merge emits all stores in τ
/// order, so filtering its input keeps the same stores in the same order
/// as filtering its output, and only the wanted ones are merged. A queue
/// out of τ order — a relaxed store-buffer drain feeds a processor-side
/// buffer out of order — makes a store's place depend on the stores in
/// front of it, so then the whole queues are merged and the output is
/// filtered.
fn merge_by_tau_filtered<'a, Q>(
    queues: impl Iterator<Item = Q> + Clone,
    in_order: bool,
    wanted: Option<&BlockFilter<'_>>,
    mut visit: impl FnMut(Write),
) where
    Q: Iterator<Item = &'a SbEntry>,
{
    let Some(wanted) = wanted else {
        return merge_by_tau(queues, visit);
    };
    if in_order || queues.clone().all(|q| q.is_sorted_by_key(SbEntry::tau)) {
        merge_by_tau(
            queues.map(|q| q.filter(|e| wanted.contains(e.block))),
            visit,
        );
    } else {
        merge_by_tau(queues, |w| {
            if wanted.contains(w.block()) {
                visit(w);
            }
        });
    }
}

/// The blocks of `mask` on the page at `page`, ascending.
fn blocks_of(page: u64, mask: u64) -> impl Iterator<Item = BlockAddr> {
    let first = page / BLOCK_BYTES as u64;
    let bits = std::iter::successors(Some(mask).filter(|&m| m != 0), |&m| {
        Some(m & (m - 1)).filter(|&m| m != 0)
    });
    bits.map(move |m| BlockAddr::from_index(first + u64::from(m.trailing_zeros())))
}

/// Blocks given per page as masks, ascending by page, with a one-word
/// sieve most other blocks miss: the stores of a partial image are a few
/// among the many buffered.
struct BlockFilter<'a> {
    pages: &'a [(u64, u64)],
    sieve: u64,
}

impl<'a> BlockFilter<'a> {
    fn new(pages: &'a [(u64, u64)]) -> Self {
        let sieve = pages
            .iter()
            .flat_map(|&(page, mask)| blocks_of(page, mask))
            .fold(0, |sieve, block| sieve | Self::bit(block));
        Self { pages, sieve }
    }

    fn bit(block: BlockAddr) -> u64 {
        1 << ((block.index() ^ block.index() >> 6) & 63)
    }

    fn contains(&self, block: BlockAddr) -> bool {
        if self.sieve & Self::bit(block) == 0 {
            return false;
        }
        let base = block.base();
        let page = base & !(PAGE_BYTES as u64 - 1);
        self.pages
            .binary_search_by_key(&page, |&(page, _)| page)
            .is_ok_and(|i| self.pages[i].1 >> ((base - page) / BLOCK_BYTES as u64) & 1 != 0)
    }
}

impl Write {
    /// The block the write lands on.
    fn block(&self) -> BlockAddr {
        match self {
            Write::Block(block, _) => *block,
            Write::Store { store, .. } => store.block,
        }
    }
}

/// One queue of [`merge_by_tau`], ordered by its front store's τ key
/// (earliest first in the max-heap); fronts of different cores never tie.
struct Front<P> {
    key: Reverse<(Cycle, usize, u64)>,
    core: usize,
    queue: P,
}

impl<'a, Q: Iterator<Item = &'a SbEntry>> Front<Peekable<Q>> {
    /// The queue at its next store; `None` once it is empty.
    fn of(core: usize, mut queue: Peekable<Q>) -> Option<Self> {
        let e = queue.peek()?;
        let key = Reverse((e.committed, core, e.seq));
        Some(Self { key, core, queue })
    }
}

impl<Q> PartialEq for Front<Q> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<Q> Eq for Front<Q> {}

impl<Q> PartialOrd for Front<Q> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<Q> Ord for Front<Q> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Merges per-core FIFO queues of buffered stores in coherence order
/// τ = (commit cycle, core index, per-core sequence). Only queue fronts
/// are compared, so each core's own order is kept even where it is not
/// τ-sorted (a relaxed store-buffer drain can feed a processor-side
/// buffer out of commit order). The fronts wait in a min-heap, so each
/// store costs O(log cores). Empty queues are dropped up front, so
/// merging nothing allocates nothing.
fn merge_by_tau<'a, Q>(queues: impl Iterator<Item = Q>, mut visit: impl FnMut(Write))
where
    Q: Iterator<Item = &'a SbEntry>,
{
    let mut fronts: BinaryHeap<Front<Peekable<Q>>> = queues
        .enumerate()
        .filter_map(|(core, q)| Front::of(core, q.peekable()))
        .collect();
    while let Some(Front {
        core, mut queue, ..
    }) = fronts.pop()
    {
        let store = *queue.next().expect("peeked front");
        visit(Write::Store { core, store });
        fronts.extend(Front::of(core, queue));
    }
}

/// The simulated machine.
///
/// `System` is `Clone`: every component is plain owned data, so a clone is
/// an independent machine whose future — including a destructive
/// [`System::crash_now`] — cannot affect the original. Crash-point sweeps
/// rely on this to fork the machine at each injection point.
#[derive(Clone)]
pub struct System {
    cfg: SimConfig,
    hierarchy: CacheHierarchy,
    memories: Memories,
    persist: PersistState,
    cores: Vec<CoreState>,
    arch: ByteStore,
    now_max: Cycle,
    /// Pipeline-level event recorder (store commit/visibility, persist
    /// allocation, loads, fences, flushes, crashes). Component logs live
    /// in `persist` and the NVMM controller; [`System::take_events`]
    /// merges them all.
    trace: TraceLog,
    /// Per-kind event counts and simulated-cycle attribution (see
    /// [`EventKind`]); exported under `sched.*` by [`System::stats`].
    profile: SchedProfile,
    /// Commit→point-of-persistence latency per persisting store; exported
    /// under `persist.latency.*` by [`System::stats`].
    persist_lat: PersistLatencyTracker,
    /// Ops committed since the last periodic debug audit.
    audit_countdown: u32,
    /// Whether store-buffer changes go to the NVMM controller's change
    /// log: the store buffers are in the persistence domain.
    sb_notes: bool,
}

/// How many committed ops the always-on debug audit lets pass between
/// [`System::check_invariants`] sweeps. Large enough that debug test runs
/// stay fast; small enough that every multi-thousand-op sweep is audited
/// many times.
const DEBUG_AUDIT_PERIOD: u32 = 4096;

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("mode", &self.persist.mode())
            .field("cores", &self.cores.len())
            .field("now_max", &self.now_max)
            .finish_non_exhaustive()
    }
}

// Experiment points run whole `System`s on worker threads. Every component
// is plain owned data — no `Rc`, `RefCell`, or raw pointers — and this
// assertion keeps it that way at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<Box<dyn crate::Workload>>();
};

impl System {
    /// Builds a machine from a configuration and persistency mode.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, mode: PersistencyMode) -> Result<Self, SystemError> {
        cfg.validate().map_err(SystemError::InvalidConfig)?;
        let hierarchy = CacheHierarchy::new(&cfg);
        let memories = Memories::new(&cfg);
        let persist = PersistState::new(&cfg, mode);
        let cores = (0..cfg.cores)
            .map(|i| CoreState::new(i, cfg.core.store_buffer_entries))
            .collect();
        let persist_lat = PersistLatencyTracker::new(mode, cfg.battery_backed_sb, cfg.cores);
        let mut sys = Self {
            cfg,
            hierarchy,
            memories,
            persist,
            cores,
            arch: ByteStore::new(),
            now_max: 0,
            trace: TraceLog::default(),
            profile: SchedProfile::default(),
            persist_lat,
            audit_countdown: 0,
            sb_notes: false,
        };
        // Structures outside the persistence domain report no changes
        // (nor do BEP's volatile buffers, see `PersistState::new`), so the
        // change log's domain count, which `crash_image_epoch` adds with
        // the battery healthy, moves only with what a healthy crash keeps.
        let dirty_lines = sys.persist_domain(true).any(|s| s == Survivor::DirtyLines);
        sys.hierarchy.set_change_notes(dirty_lines);
        sys.sb_notes = sys
            .persist_domain(true)
            .any(|s| s == Survivor::StoreBuffers);
        Ok(sys)
    }

    /// Enables or disables event tracing across every component (the
    /// pipeline, persist buffers, and the NVMM controller). Off by
    /// default; the persist-order checker (`bbb-check`) turns it on.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
        self.persist.set_tracing(on);
        self.memories.nvmm_mut().set_tracing(on);
    }

    /// Drains every component's event log into one cycle-ordered stream.
    /// Ties within a cycle keep component order: pipeline events first,
    /// then persist-state and per-core buffer events, then NVMM
    /// persist-point events.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut logs = vec![self.trace.take()];
        logs.extend(self.persist.take_trace_logs());
        logs.push(self.memories.nvmm_mut().take_trace());
        merge_logs(logs)
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The active persistency mode.
    #[must_use]
    pub fn mode(&self) -> PersistencyMode {
        self.persist.mode()
    }

    /// The physical address map.
    #[must_use]
    pub fn address_map(&self) -> &AddressMap {
        self.memories.map()
    }

    /// The functional architectural memory workloads generate against.
    #[must_use]
    pub fn arch_mem(&self) -> &ByteStore {
        &self.arch
    }

    /// Mutable architectural memory (workload setup).
    pub fn arch_mem_mut(&mut self) -> &mut ByteStore {
        &mut self.arch
    }

    /// Current simulated time (the furthest any core has progressed).
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.now_max
    }

    /// Pre-loads bytes into both the architectural memory and the backing
    /// media (warm start: state that existed before the measured window).
    pub fn preload(&mut self, addr: u64, bytes: &[u8]) {
        self.arch.write(addr, bytes);
        // Propagate block-granular to media.
        let first = BlockAddr::containing(addr);
        let last = BlockAddr::containing(addr + bytes.len().max(1) as u64 - 1);
        for idx in first.index()..=last.index() {
            let block = BlockAddr::from_index(idx);
            let data = self.arch.read_block(block);
            self.memories.load(block, &data);
        }
    }

    /// Pre-loads one `u64` (convenience over [`System::preload`]).
    pub fn preload_u64(&mut self, addr: u64, value: u64) {
        self.preload(addr, &value.to_le_bytes());
    }

    /// Boots this (fresh) machine from a post-crash NVMM image: the
    /// image's contents become both the architectural memory and the NVMM
    /// media, exactly as a reboot would find them. Recovery code then
    /// runs as ordinary workload operations.
    pub fn adopt_image(&mut self, image: &bbb_mem::NvmImage) {
        for (base, _) in image.as_store().iter_pages() {
            self.arch.share_page(image.as_store(), base);
        }
        self.sync_media_from_arch();
    }

    /// Runs a workload's [`Workload::setup`] against architectural memory
    /// and mirrors the result into the backing media (warm start for the
    /// measured window).
    pub fn prepare(&mut self, workload: &mut dyn Workload) {
        workload.setup(&mut self.arch);
        self.sync_media_from_arch();
    }

    /// [`System::prepare`] for pull-based op streams.
    pub fn prepare_stream(&mut self, stream: &mut dyn OpStream) {
        stream.setup(&mut self.arch);
        self.sync_media_from_arch();
    }

    /// Shares every materialized architectural-memory page with the
    /// backing media without consuming simulated time (see
    /// [`Memories::load_page`]); a store's first write to a page copies it.
    pub fn sync_media_from_arch(&mut self) {
        for (base, _) in self.arch.iter_pages() {
            self.memories.load_page(&self.arch, base);
        }
    }

    /// Runs a complete op stream on one core (single-threaded experiments
    /// and examples), returning the completion cycle. The store buffer is
    /// *not* force-drained afterwards — crash semantics stay observable.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::CoreOutOfRange`] for a bad core index.
    pub fn run_single_core(&mut self, core: usize, ops: Vec<Op>) -> Result<Cycle, SystemError> {
        if core >= self.cores.len() {
            return Err(SystemError::CoreOutOfRange {
                core,
                cores: self.cores.len(),
            });
        }
        for op in ops {
            self.step_op(core, &op);
        }
        Ok(self.cores[core].ready_at)
    }

    /// Drives a multi-threaded workload to completion or until `op_budget`
    /// total ops have committed (`u64::MAX` for unlimited). Store buffers
    /// are pumped (not force-drained) at the end.
    pub fn run(&mut self, workload: &mut dyn Workload, op_budget: u64) -> RunSummary {
        let cores = self.cores.len();
        self.run_stream(&mut Batched::new(workload, cores), op_budget)
    }

    /// Advances a multi-threaded run until `stop` is reached or the
    /// workload completes, updating `cursor` so a later call resumes where
    /// this one left off. Unlike [`System::run`] nothing is pumped
    /// afterwards — a crash injected right after it returns sees the
    /// machine mid-flight, which is the point.
    ///
    /// The core with the earliest clock steps next, the lowest index on
    /// ties. Each call schedules from the core clocks as it finds them, so
    /// a driver may move them between calls ([`System::step_op`],
    /// [`System::drain_all_store_buffers`]).
    ///
    /// # Panics
    ///
    /// Panics if the cursor was built for a different core count.
    pub fn run_until(
        &mut self,
        workload: &mut dyn Workload,
        cursor: &mut RunCursor,
        stop: StopAt,
    ) -> RunSummary {
        self.run_batched(workload, cursor, stop, None)
    }

    /// Drives `stream` to completion or until `op_budget` total ops have
    /// committed, then pumps each store buffer at its core's clock so
    /// in-progress drains finish where they can. [`System::run`] is this
    /// over a [`Batched`] feed.
    pub fn run_stream(&mut self, stream: &mut dyn OpStream, op_budget: u64) -> RunSummary {
        let mut cursor = RunCursor::new(self.cores.len());
        let summary = self.run_inner(stream, &mut cursor, StopAt::Ops(op_budget), None);
        for c in 0..self.cores.len() {
            let t = self.cores[c].ready_at;
            self.pump_sb(c, t);
        }
        RunSummary {
            cycles: self.now_max,
            ..summary
        }
    }

    /// Runs the workload to completion while recording, after each
    /// committed op, the cycle at which the `kind` signal moved — the
    /// crash-point planner's reference pass. Equivalent to stepping one op
    /// at a time with [`System::run_until`] and sampling between steps,
    /// but without a scheduler entry/exit and heap re-seed per op.
    pub fn run_probed(
        &mut self,
        workload: &mut dyn Workload,
        cursor: &mut RunCursor,
        event_cycles: &mut Vec<Cycle>,
        kind: ProbeKind,
    ) -> RunSummary {
        self.run_batched(workload, cursor, StopAt::End, Some((event_cycles, kind)))
    }

    /// [`System::run_inner`] through a [`Batched`] feed that resumes the
    /// ops `cursor` holds pending and hands back the ones left at the stop.
    fn run_batched(
        &mut self,
        workload: &mut dyn Workload,
        cursor: &mut RunCursor,
        stop: StopAt,
        probe: Option<(&mut Vec<Cycle>, ProbeKind)>,
    ) -> RunSummary {
        let queues = std::mem::take(&mut cursor.pending);
        let mut feed = Batched { workload, queues };
        let summary = self.run_inner(&mut feed, cursor, stop, probe);
        cursor.pending = feed.queues;
        summary
    }

    fn run_inner(
        &mut self,
        feed: &mut dyn OpStream,
        cursor: &mut RunCursor,
        stop: StopAt,
        mut probe: Option<(&mut Vec<Cycle>, ProbeKind)>,
    ) -> RunSummary {
        let mut last = probe
            .as_ref()
            .map_or(0, |&(_, kind)| self.probe_signal(kind));
        let n = self.cores.len();
        assert_eq!(cursor.active.len(), n, "cursor built for another machine");
        // One completion event per active core, at its clock as this call
        // finds it. While the loop runs, a popped core's next event is
        // pushed when it yields, and dropped when its stream ends.
        cursor.events.clear();
        for c in 0..n {
            if cursor.active[c] {
                cursor.events.push(Reverse((self.cores[c].ready_at, c)));
            }
        }
        'sched: loop {
            match stop {
                StopAt::Ops(budget) if cursor.ops >= budget => break,
                StopAt::Cycle(at) if self.now_max >= at => break,
                _ => {}
            }
            let Some(Reverse((at, core))) = cursor.events.pop() else {
                break;
            };
            debug_assert!(cursor.active[core] && at == self.cores[core].ready_at);
            // Step this core inline while it stays the globally earliest
            // event: re-pushing and immediately re-popping the same core
            // for back-to-back ops would be pure heap churn, and comparing
            // `(ready_at, core)` against the heap root reproduces the pop
            // order (cycle, then lowest core index) exactly. Leaving this
            // loop yields: the core's next event goes back on the heap.
            loop {
                let Some(op) = feed.next_op(core, &mut self.arch) else {
                    cursor.active[core] = false;
                    continue 'sched; // stream ended: drop the core's event
                };
                self.step_op(core, &op);
                cursor.ops += 1;
                if let Some((ref mut sink, kind)) = probe {
                    let p = self.probe_signal(kind);
                    if p != last {
                        sink.push(self.now_max);
                        last = p;
                    }
                }
                // The stop check runs between ops exactly as it would at
                // the top of the scheduler loop.
                let stopped = match stop {
                    StopAt::Ops(budget) => cursor.ops >= budget,
                    StopAt::Cycle(at) => self.now_max >= at,
                    _ => false,
                };
                if stopped {
                    break 'sched;
                }
                // Another core's event is due first (or ties with a lower
                // index): yield to it.
                let now = (self.cores[core].ready_at, core);
                if cursor
                    .events
                    .peek()
                    .is_some_and(|&Reverse(next)| next < now)
                {
                    break;
                }
            }
            cursor
                .events
                .push(Reverse((self.cores[core].ready_at, core)));
        }
        RunSummary {
            cycles: self.now_max,
            ops: cursor.ops,
            completed: cursor.finished(),
        }
    }

    /// Interprets one op on `core` at the core's local clock.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn step_op(&mut self, core: usize, op: &Op) {
        let now = self.cores[core].ready_at;
        self.pump_sb(core, now);
        let (end, kind) = match *op {
            Op::Compute { cycles } => (now + Cycle::from(cycles), EventKind::Pipeline),
            Op::Load { addr, .. } => {
                let block = BlockAddr::containing(addr);
                let (done, kind) = if self.cores[core].sb.holds_block(block) {
                    // Store-to-load forwarding from the SB.
                    (now + self.cfg.l1d.latency, EventKind::Pipeline)
                } else {
                    let (res, _) = self.hierarchy.read(
                        now,
                        core,
                        block,
                        &mut self.memories,
                        &mut self.persist,
                    );
                    let kind = if res.l1_hit {
                        EventKind::Pipeline
                    } else {
                        EventKind::Nvmm
                    };
                    (res.completion, kind)
                };
                self.trace.push(TraceEvent::LoadCommit {
                    core,
                    block,
                    cycle: done,
                });
                (done, kind)
            }
            Op::Store { addr, size, bytes } => {
                let block = BlockAddr::containing(addr);
                let offset = block.offset_of(addr);
                assert!(
                    offset + size as usize <= bbb_sim::BLOCK_BYTES,
                    "store spans cache blocks"
                );
                let persistent = self.memories.map().is_persistent(addr);
                let mut t = now;
                while self.cores[core].sb.is_full() {
                    let freed = self.drain_one_sb(core);
                    self.cores[core].sb_full_stalls.add(freed.saturating_sub(t));
                    t = t.max(freed);
                }
                let seq = self.cores[core].stores.get();
                let entry = SbEntry {
                    block,
                    offset,
                    len: size as usize,
                    bytes,
                    persistent,
                    committed: t,
                    seq,
                };
                self.cores[core].sb.push(entry).expect("space ensured");
                if persistent && self.sb_notes {
                    self.memories.note_change(block);
                }
                self.trace.push(TraceEvent::StoreCommit {
                    core,
                    block,
                    seq,
                    persistent,
                    cycle: t,
                });
                // Architectural memory reflects *committed* stores only.
                // Workload generators read it to plan their next ops, so
                // writing it here (not at op-generation time) is what
                // keeps cross-core visibility honest: a core can chain to
                // another core's node only after the publishing store has
                // actually committed — exactly the coherence order a real
                // load would observe.
                self.arch.write(addr, &bytes[..size as usize]);
                self.cores[core].stores.inc();
                if persistent {
                    self.cores[core].persisting_stores.inc();
                    self.cores[core].persisting_store_bytes.add(size as u64);
                    self.persist_lat.on_store_commit(core, block, t);
                }
                let kind = if t > now {
                    EventKind::StoreBuffer
                } else {
                    EventKind::Pipeline
                };
                (t + 1, kind)
            }
            Op::Clwb { addr } => {
                // Program order: all older stores must reach the L1D before
                // the line is written back.
                let t = self.drain_sb_all(core, now);
                let block = BlockAddr::containing(addr);
                let f = self.hierarchy.flush(t, core, block, &mut self.memories);
                self.trace.push(TraceEvent::Flush {
                    core,
                    block,
                    cycle: f.persist,
                    wrote_back: f.wrote_back,
                });
                self.cores[core].record_flush(f.persist);
                self.persist_lat.on_clwb(core, block, f.persist);
                let kind = if f.wrote_back {
                    EventKind::Wpq
                } else if t > now {
                    EventKind::StoreBuffer
                } else {
                    EventKind::Pipeline
                };
                (t + 1, kind)
            }
            Op::Fence => {
                let sb_done = self.drain_sb_all(core, now);
                let mut t = sb_done;
                if self.persist.mode() == PersistencyMode::Bep {
                    // Epoch barrier: stall until the volatile persist
                    // buffer has fully drained to the persistence domain
                    // (the stall the paper's §III-A notes BEP still pays).
                    t = self
                        .persist
                        .procpb_mut(core)
                        .drain_all_timed(t, &mut self.memories);
                }
                let done = self.cores[core].flushes_done_by(t);
                // BEP point of persistence: by `t` the SB and the volatile
                // procPB have both fully drained, so every persisting
                // store this core committed before the barrier is durable.
                self.persist_lat.on_fence(core, t);
                self.cores[core]
                    .fence_stall_cycles
                    .add(done.saturating_sub(now));
                self.cores[core].fences.inc();
                self.trace
                    .push(TraceEvent::EpochBarrier { core, cycle: done });
                let kind = if t > sb_done {
                    EventKind::Bbpb
                } else if done > t {
                    EventKind::Wpq
                } else if sb_done > now {
                    EventKind::StoreBuffer
                } else {
                    EventKind::Pipeline
                };
                (done, kind)
            }
        };
        self.cores[core].committed.inc();
        self.cores[core].ready_at = end.max(now);
        self.profile.record(kind, self.cores[core].ready_at - now);
        self.now_max = self.now_max.max(self.cores[core].ready_at);
        // Always-on debug audit: every few thousand committed ops, sweep
        // the coherence, inclusion, and holder-index invariants so every
        // debug test and crashfuzz sweep runs them for free. Release
        // builds keep only the counter arithmetic.
        self.audit_countdown += 1;
        if self.audit_countdown >= DEBUG_AUDIT_PERIOD {
            self.audit_countdown = 0;
            if cfg!(debug_assertions) {
                self.check_invariants();
            }
        }
    }

    /// Injects a power failure *now*: writes exactly the active
    /// persistence domain to NVMM and returns the post-crash image
    /// recovery code would see.
    pub fn crash_now(&mut self) -> NvmImage {
        self.crash(true)
    }

    /// Injects a power failure with the battery disconnected or dead: the
    /// contents of every battery-backed structure above the memory
    /// controller — bbPBs or processor-side buffers, battery-backed store
    /// buffers, eADR's cache drain — are LOST. Only the ADR'd WPQ, whose
    /// writes are already merged into media, survives.
    ///
    /// This is the differential *negative* oracle for crash-consistency
    /// checking: modes whose durability story depends on the battery must
    /// exhibit lost updates relative to [`System::crash_now`] at the same
    /// point, proving the recovery checkers detect real inconsistency.
    pub fn crash_now_battery_dropped(&mut self) -> NvmImage {
        self.crash(false)
    }

    /// The destructive crash: every surviving write goes through the
    /// memory port a live drain uses (whole blocks as writes, buffered
    /// stores as read-modify-writes), then every persist buffer and store
    /// buffer is emptied — drained or lost, nothing stays behind.
    fn crash(&mut self, battery_ok: bool) -> NvmImage {
        let now = self.now_max;
        // Every buffer empties below: the crash note overflows the change
        // log, so no image built before is a basis and the healthy epoch
        // moves.
        self.memories.nvmm_mut().note_crash(now, battery_ok);
        let mut writes = Vec::new();
        self.surviving_writes(battery_ok, None, |from, w| writes.push((from, w)));
        for (from, w) in writes {
            match w {
                Write::Block(block, data) => {
                    self.memories.write_block(now, block, data);
                }
                Write::Store { core, store } => {
                    let bytes = &store.bytes[..store.len];
                    self.memories
                        .rmw_block(now, store.block, store.offset, bytes);
                    if from == Survivor::ProcPbs {
                        // The crash drains the store on its buffer's
                        // behalf: the same event and count an ordered
                        // drain gives it.
                        self.persist
                            .procpb_mut(core)
                            .record_drain(now, store.block, false);
                    }
                }
            }
        }
        self.persist.crash_discard();
        for core in &mut self.cores {
            core.sb.drain_all();
        }
        self.memories.nvmm().crash_image()
    }

    /// The post-crash image if power failed *now*, without crashing: the
    /// persistence domain's writes (same list, same order as
    /// [`System::crash_now`]) are overlaid onto a copy-on-write snapshot
    /// of NVMM media, so the live system is untouched and unshared pages
    /// are never copied. With `battery_ok == false` every battery-backed
    /// structure is lost and the image is the media snapshot alone —
    /// byte-identical to [`System::crash_now_battery_dropped`].
    ///
    /// Crash-point sweeps call this instead of cloning the whole system
    /// and crashing the clone; the two paths produce byte-identical
    /// images (see the differential tests).
    #[must_use]
    pub fn crash_image(&self, battery_ok: bool) -> NvmImage {
        self.crash_image_on(battery_ok, &mut ImageBasis::default())
    }

    /// [`System::crash_image`] built on `basis`, the last image this
    /// machine built in the same battery state: only the blocks the NVMM
    /// controller's change log recorded since that image are rebuilt —
    /// media's bytes plus the persistence domain's writes on them — and
    /// every other page is that image's (see [`ImageBasis`]). A fresh
    /// basis builds every page. The bytes are [`System::crash_image`]'s;
    /// `basis` then describes this image.
    #[must_use]
    pub fn crash_image_on(&self, battery_ok: bool, basis: &mut ImageBasis) -> NvmImage {
        let nvmm = self.memories.nvmm();
        let mut build = basis.start(nvmm.changes(), nvmm.media_snapshot(), battery_ok);
        let (only, writes) = build.parts();
        self.surviving_writes(battery_ok, only, |_, w| match w {
            Write::Block(block, data) => writes.write(block.base(), &data),
            Write::Store { store, .. } => writes.write(
                store.block.base() + store.offset as u64,
                &store.bytes[..store.len],
            ),
        });
        basis.finish(build)
    }

    /// A fingerprint of everything [`System::crash_image`] can read: equal
    /// epochs at two probe points of the *same* system prove the two images
    /// are byte-identical, so a crash-point sweep can reuse the previous
    /// point's recovery verdict without snapshotting again.
    ///
    /// The epoch is the change log's count of media notes, plus its count
    /// of persistence-domain notes when `battery_ok` ([`ChangeLog::notes`]).
    /// Every change the image can see is noted — the structures outside
    /// the domain are the ones [`System::new`] keeps from noting — and
    /// both counts only grow, so an unchanged epoch proves the image
    /// unchanged. The converse does not hold (a note need not change a
    /// byte); a changed epoch only costs a fresh snapshot.
    ///
    /// [`ChangeLog::notes`]: bbb_mem::ChangeLog::notes
    #[must_use]
    pub fn crash_image_epoch(&self, battery_ok: bool) -> u64 {
        self.memories.nvmm().changes().notes(battery_ok)
    }

    /// The persistence domain: the structures whose contents survive a
    /// power failure now, in the order a crash writes them to NVMM. NVMM
    /// media, with the ADR'd WPQ already merged into it, always survives
    /// and is not listed. This is the one definition every crash path —
    /// destructive, imaged, fingerprinted and costed — reads.
    fn persist_domain(&self, battery_ok: bool) -> impl Iterator<Item = Survivor> {
        let buffers = match self.persist.mode() {
            _ if !battery_ok => None,
            // ADR only, or volatile persist buffers: media alone.
            PersistencyMode::Pmem | PersistencyMode::Bep => None,
            PersistencyMode::Eadr => Some(Survivor::DirtyLines),
            PersistencyMode::BbbMemorySide => Some(Survivor::Bbpbs),
            PersistencyMode::BbbProcessorSide => Some(Survivor::ProcPbs),
        };
        let sbs =
            (buffers.is_some() && self.cfg.battery_backed_sb).then_some(Survivor::StoreBuffers);
        buffers.into_iter().chain(sbs)
    }

    /// Visits every write the persistence domain owes NVMM, in the order a
    /// crash issues them: structure by structure as
    /// [`System::persist_domain`] lists them. Buffered stores across cores
    /// merge in coherence order τ = (commit cycle, core index, per-core
    /// sequence), never by bare core index (DESIGN.md §9.4, resolved
    /// ledger item 1).
    ///
    /// With `only` — blocks per page in ascending page order, as masks of
    /// the page's 64 blocks — just the writes on those blocks, in the
    /// same order. Block-granular survivors are looked up block by block;
    /// their blocks are distinct, so no order among them changes a byte.
    /// Store-granular ones come from the one τ merge of the whole queues,
    /// filtered: merging filtered queues would not be the filtered merge
    /// once a queue leaves τ order.
    fn surviving_writes(
        &self,
        battery_ok: bool,
        only: Option<&[(u64, u64)]>,
        mut visit: impl FnMut(Survivor, Write),
    ) {
        let nvmm = |block: &BlockAddr| self.memories.map().is_nvmm(block.base());
        let blocks = || {
            only.into_iter()
                .flatten()
                .flat_map(|&(page, mask)| blocks_of(page, mask))
        };
        for from in self.persist_domain(battery_ok) {
            match (from, only) {
                (Survivor::DirtyLines, None) => {
                    for (block, data, _) in self.hierarchy.dirty_blocks() {
                        if nvmm(&block) {
                            visit(from, Write::Block(block, data));
                        }
                    }
                }
                (Survivor::DirtyLines, Some(_)) => {
                    for block in blocks().filter(nvmm) {
                        if let Some(data) = self.hierarchy.dirty_block(block) {
                            visit(from, Write::Block(block, data));
                        }
                    }
                }
                (Survivor::Bbpbs, None) => {
                    for c in 0..self.cores.len() {
                        for (block, data) in self.persist.bbpb(c).drain_set() {
                            visit(from, Write::Block(block, data));
                        }
                    }
                }
                (Survivor::Bbpbs, Some(_)) => {
                    for block in blocks() {
                        let holder = self.persist.holder_of(block);
                        if let Some(data) = holder.and_then(|c| self.persist.bbpb(c).entry(block)) {
                            visit(from, Write::Block(block, data));
                        }
                    }
                }
                (Survivor::ProcPbs, _) => merge_by_tau_filtered(
                    (0..self.cores.len()).map(|c| self.persist.procpb(c).iter()),
                    false,
                    only.map(BlockFilter::new).as_ref(),
                    |w| visit(from, w),
                ),
                (Survivor::StoreBuffers, _) => merge_by_tau_filtered(
                    self.cores
                        .iter()
                        .map(|c| c.sb.iter().filter(|e| e.persistent)),
                    true,
                    only.map(BlockFilter::new).as_ref(),
                    |w| visit(from, w),
                ),
            }
        }
    }

    /// Snapshot-cost accounting for [`System::crash_image`]: the number of
    /// materialized NVMM media pages (all shared, not copied, when a COW
    /// snapshot forks) and the media store's lifetime copy-on-write page
    /// copies. Crash-point sweeps difference the copy counter across an
    /// image's lifetime to report pages shared vs. copied.
    #[must_use]
    pub fn media_cow_stats(&self) -> (usize, u64) {
        let nvmm = self.memories.nvmm();
        (nvmm.media_resident_pages(), nvmm.media_cow_page_copies())
    }

    /// The `kind` signal [`System::run_probed`] samples between ops. Each
    /// summand is a monotone counter, so the sum changes exactly when one
    /// of them moves, as the two counts of [`System::crash_image_epoch`]
    /// do.
    fn probe_signal(&self, kind: ProbeKind) -> u64 {
        match kind {
            ProbeKind::Ordering => {
                let fences: u64 = self.cores.iter().map(|c| c.fences.get()).sum();
                fences
                    + self.persist.forced_drains()
                    + self.memories.nvmm().wpq_backpressure_events()
            }
            ProbeKind::PersistingStores => {
                self.cores.iter().map(|c| c.persisting_stores.get()).sum()
            }
        }
    }

    /// The flush-on-fail drain set if power failed right now (for the
    /// energy model), without mutating anything: the persistence domain's
    /// writes, counted per structure.
    #[must_use]
    pub fn crash_cost(&self) -> CrashCost {
        let mut cost = CrashCost {
            mode: self.persist.mode(),
            bbpb_entries: 0,
            sb_entries: 0,
            sb_bytes: 0,
            dirty_cache_blocks: 0,
            wpq_blocks: self.memories.nvmm().wpq_occupancy(self.now_max) as u64,
        };
        self.surviving_writes(true, None, |from, w| match (from, w) {
            (Survivor::DirtyLines, _) => cost.dirty_cache_blocks += 1,
            (Survivor::Bbpbs | Survivor::ProcPbs, _) => cost.bbpb_entries += 1,
            (Survivor::StoreBuffers, Write::Store { store, .. }) => {
                cost.sb_entries += 1;
                cost.sb_bytes += store.len as u64;
            }
            (Survivor::StoreBuffers, Write::Block(..)) => unreachable!("SB entries are stores"),
        });
        cost
    }

    /// Persistent blocks that are dirty in the persistence-mode's holding
    /// structures but not yet written to NVMM media: dirty persistent
    /// cache blocks under eADR, resident bbPB entries under BBB. A
    /// steady-state write comparison adds these to the media write count
    /// (they are writes the measured window produced whose media cost
    /// falls just past its end).
    #[must_use]
    pub fn residual_persist_blocks(&self) -> u64 {
        match self.persist.mode() {
            PersistencyMode::BbbMemorySide | PersistencyMode::BbbProcessorSide => {
                self.persist.total_resident_entries()
            }
            PersistencyMode::Eadr | PersistencyMode::Pmem | PersistencyMode::Bep => {
                self.hierarchy
                    .dirty_blocks()
                    .filter(|(_, _, persistent)| *persistent)
                    .count() as u64
            }
        }
    }

    /// Merged statistics from every component, plus run-level metrics.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.hierarchy.stats();
        s.merge(&self.memories.stats());
        s.merge(&self.persist.stats());
        for c in &self.cores {
            s.merge(&c.stats());
        }
        s.set("sim.cycles", self.now_max);
        s.set(
            "sim.residual_persist_blocks",
            self.residual_persist_blocks(),
        );
        self.profile.export(&mut s);
        self.persist_lat.export(&mut s);
        s
    }

    /// Per-kind event counts and simulated-cycle attribution for every op
    /// stepped on this machine so far (pipeline vs. store buffer vs. WPQ
    /// vs. bbPB vs. NVMM — see [`EventKind`]).
    #[must_use]
    pub fn sched_profile(&self) -> &SchedProfile {
        &self.profile
    }

    /// Verifies the cache-coherence and bbPB-inclusion invariants. Tests
    /// call this after runs.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violation.
    pub fn check_invariants(&self) {
        self.hierarchy.check_invariants();
        // The O(1) holder index must agree with the exhaustive scan for
        // every resident or indexed block (satellite fix audit).
        self.persist.check_holder_index();
        if self.persist.mode() == PersistencyMode::BbbMemorySide {
            // Invariant 4 + LLC inclusion: every bbPB-resident block is in
            // the L2 and in at most one bbPB.
            for core in 0..self.cores.len() {
                for (block, _) in self.persist.bbpb(core).drain_set() {
                    assert_eq!(
                        self.persist.holder_of(block),
                        Some(core),
                        "block in multiple bbPBs"
                    );
                    assert!(
                        self.hierarchy.l2().peek(block).is_some(),
                        "LLC inclusion of bbPB violated for {block}"
                    );
                }
            }
        }
    }

    /// Forces every store buffer empty (end-of-measurement barrier).
    /// Entries drain interleaved across cores in commit-time order, so the
    /// final memory state reflects simulated time rather than core index.
    pub fn drain_all_store_buffers(&mut self) {
        loop {
            let next = (0..self.cores.len())
                .filter_map(|c| self.cores[c].sb.front().map(|e| (e.committed, c)))
                .min();
            let Some((_, core)) = next else { break };
            let done = self.drain_one_sb(core);
            self.cores[core].ready_at = self.cores[core].ready_at.max(done);
        }
    }

    /// Drains SB entries whose turn has come by `now`.
    fn pump_sb(&mut self, core: usize, now: Cycle) {
        while !self.cores[core].sb.is_empty() && self.cores[core].sb_drain_busy_until <= now {
            self.drain_one_sb(core);
        }
    }

    /// Drains every SB entry, returning when the last reaches the L1D.
    fn drain_sb_all(&mut self, core: usize, now: Cycle) -> Cycle {
        while !self.cores[core].sb.is_empty() {
            self.drain_one_sb(core);
        }
        now.max(self.cores[core].sb_drain_busy_until)
    }

    /// Retires one SB entry into the L1D (and, under BBB, into the bbPB in
    /// the same cycle). Under TSO the oldest entry drains; under the
    /// relaxed-consistency configuration any L1-writable entry may drain
    /// first (paper §III-C) — which is exactly why BBB battery-backs the
    /// store buffer: PoP is at commit, so program-order persistency
    /// survives the out-of-order L1D writes. Returns the cycle the drain
    /// engine frees.
    fn drain_one_sb(&mut self, core: usize) -> Cycle {
        let e = if self.cfg.relaxed_sb_drain {
            // Prefer an entry whose block is already writable in the L1D
            // (no coherence transaction needed): out-of-order drain.
            let ready = self.cores[core]
                .sb
                .iter()
                .position(|e| self.hierarchy.l1(core).state_of(e.block).writable());
            match ready {
                Some(i) => self.cores[core].sb.pop_at(i).expect("index valid"),
                None => self.cores[core].sb.pop_front().expect("non-empty"),
            }
        } else {
            self.cores[core]
                .sb
                .pop_front()
                .expect("drain_one_sb on empty SB")
        };
        if e.persistent && self.sb_notes {
            // The store leaves the battery-backed SB's crash drain. The
            // buffer is in τ order, so no store behind it moves in the
            // drain's τ merge.
            self.memories.note_change(e.block);
        }
        let start = self.cores[core].sb_drain_busy_until.max(e.committed);
        let res = self.hierarchy.write(
            start,
            core,
            e.block,
            e.offset,
            &e.bytes[..e.len],
            &mut self.memories,
            &mut self.persist,
        );
        let mut done = res.completion;
        self.trace.push(TraceEvent::StoreVisible {
            core,
            block: e.block,
            seq: e.seq,
            cycle: done,
        });
        if e.persistent {
            match self.persist.mode() {
                PersistencyMode::BbbMemorySide => {
                    let data = self
                        .hierarchy
                        .peek_block(e.block)
                        .expect("block just written");
                    let out =
                        self.persist
                            .allocate_block(core, done, e.block, data, &mut self.memories);
                    self.trace.push(TraceEvent::PersistAlloc {
                        core,
                        block: e.block,
                        seq: e.seq,
                        cycle: out.done,
                        coalesced: out.coalesced,
                        rejected: out.rejected,
                        battery: true,
                    });
                    done = out.done.max(done);
                }
                PersistencyMode::BbbProcessorSide | PersistencyMode::Bep => {
                    let battery = self.persist.mode() == PersistencyMode::BbbProcessorSide;
                    let out = self
                        .persist
                        .procpb_mut(core)
                        .push(done, e, &mut self.memories);
                    self.trace.push(TraceEvent::PersistAlloc {
                        core,
                        block: e.block,
                        seq: e.seq,
                        cycle: out.done,
                        coalesced: out.coalesced,
                        rejected: out.rejected,
                        battery,
                    });
                    done = out.done.max(done);
                }
                PersistencyMode::Pmem | PersistencyMode::Eadr => {}
            }
        }
        if e.persistent {
            // No-battery-SB machines: the drain *is* the store's arrival
            // in the battery domain (no-op for every other persist point).
            self.persist_lat.on_sb_drain(e.committed, done);
        }
        self.cores[core].sb_drain_busy_until = done;
        self.now_max = self.now_max.max(done);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_cpu::reordered_behind;
    use bbb_mem::ChangeLog;
    use bbb_sim::SplitMix64;

    fn sys(mode: PersistencyMode) -> System {
        System::new(SimConfig::small_for_tests(), mode).expect("valid config")
    }

    fn pbase(s: &System) -> u64 {
        s.address_map().persistent_base()
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SimConfig::small_for_tests();
        cfg.cores = 0;
        let err = System::new(cfg, PersistencyMode::Eadr).unwrap_err();
        assert!(matches!(err, SystemError::InvalidConfig(_)));
        assert!(format!("{err}").contains("invalid configuration"));
    }

    #[test]
    fn page_sync_matches_block_loads_across_unaligned_dram_boundary() {
        use bbb_mem::PAGE_BYTES;
        use bbb_sim::BLOCK_BYTES;

        // DRAM ends five blocks into a page, so that page straddles the
        // DRAM/NVMM boundary and must be split between the controllers.
        let mut cfg = SimConfig::small_for_tests();
        cfg.dram_bytes += 5 * BLOCK_BYTES as u64;
        let page = PAGE_BYTES as u64;
        let boundary_page = cfg.dram_bytes / page * page;
        let full_pages = [
            0,
            boundary_page - page,
            boundary_page,
            boundary_page + 3 * page,
        ];
        let mut paged = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        for (i, base) in full_pages.into_iter().enumerate() {
            let bytes: Vec<u8> = (0..PAGE_BYTES).map(|b| (b * 7 + i) as u8 | 1).collect();
            paged.arch.write(base, &bytes);
        }
        // A sparse page: one word, the rest zero.
        paged.arch.write_u64(boundary_page + 9 * page + 64, 0xFEED);

        let mut blocked = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        blocked.arch = paged.arch.clone();
        paged.sync_media_from_arch();
        // The reference: every block routed on its own.
        for (base, bytes) in blocked.arch.iter_pages() {
            for (i, chunk) in bytes.chunks_exact(BLOCK_BYTES).enumerate() {
                let block = BlockAddr::containing(base + (i * BLOCK_BYTES) as u64);
                blocked.memories.load(block, chunk.try_into().unwrap());
            }
        }

        for (base, _) in paged.arch.iter_pages() {
            for i in 0..(page / BLOCK_BYTES as u64) {
                let block = BlockAddr::containing(base + i * BLOCK_BYTES as u64);
                let want = paged.arch.read_block(block);
                assert_eq!(paged.memories.read_block(0, block).1, want, "{block:?}");
                assert_eq!(blocked.memories.read_block(0, block).1, want, "{block:?}");
            }
        }
        let (p, b) = (paged.memories.nvmm(), blocked.memories.nvmm());
        assert!(
            p.media_snapshot() == b.media_snapshot(),
            "NVMM media differ"
        );
        for key in ["nvmm.media_pages", "nvmm.cow_page_copies"] {
            assert_eq!(p.stats().get(key), b.stats().get(key), "{key}");
        }
        // The straddling page is resident in both controllers: NVMM holds
        // it, the full page above it and the sparse one.
        assert_eq!(p.stats().get("nvmm.media_pages"), 3);
    }

    #[test]
    fn core_out_of_range_is_reported() {
        let mut s = sys(PersistencyMode::Eadr);
        let err = s.run_single_core(99, vec![]).unwrap_err();
        assert_eq!(err, SystemError::CoreOutOfRange { core: 99, cores: 2 });
    }

    #[test]
    fn bbb_store_is_durable_without_flushes() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xFEED)])
            .unwrap();
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 0xFEED);
    }

    #[test]
    fn pmem_store_without_flush_is_lost() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xFEED)])
            .unwrap();
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 0, "volatile caches lost the store");
    }

    #[test]
    fn pmem_store_with_flush_and_fence_is_durable() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        s.run_single_core(
            0,
            vec![Op::store_u64(a, 0xBEEF), Op::Clwb { addr: a }, Op::Fence],
        )
        .unwrap();
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 0xBEEF);
    }

    #[test]
    fn eadr_store_is_durable_without_flushes() {
        let mut s = sys(PersistencyMode::Eadr);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xACE)]).unwrap();
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 0xACE);
    }

    #[test]
    fn procside_store_is_durable_without_flushes() {
        let mut s = sys(PersistencyMode::BbbProcessorSide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0xCAFE)])
            .unwrap();
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 0xCAFE);
    }

    #[test]
    fn dram_stores_never_survive() {
        for mode in PersistencyMode::ALL {
            let mut s = sys(mode);
            s.run_single_core(0, vec![Op::store_u64(0x100, 42)])
                .unwrap();
            let img = s.crash_now();
            assert_eq!(img.read_u64(0x100), 0, "{mode}: DRAM data must die");
        }
    }

    #[test]
    fn program_order_is_preserved_in_crash_image() {
        // The linked-list hazard of paper Fig. 2: node init must persist
        // before the head pointer. Under BBB both are durable instantly, so
        // any crash sees a prefix-consistent state.
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let node = pbase(&s) + 0x400;
        let head = pbase(&s);
        s.run_single_core(
            0,
            vec![Op::store_u64(node, 0x1234), Op::store_u64(head, node)],
        )
        .unwrap();
        let img = s.crash_now();
        let head_val = img.read_u64(head);
        if head_val != 0 {
            assert_eq!(img.read_u64(head_val), 0x1234, "head implies node");
        }
    }

    #[test]
    fn loads_observe_prior_stores() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s) + 0x100;
        s.preload_u64(a, 0x11);
        let end = s
            .run_single_core(
                0,
                vec![Op::load_u64(a), Op::store_u64(a, 0x22), Op::load_u64(a)],
            )
            .unwrap();
        assert!(end > 0);
        s.check_invariants();
    }

    #[test]
    fn preload_reaches_arch_and_media() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s) + 24;
        s.preload_u64(a, 0x77);
        assert_eq!(s.arch_mem().read_u64(a), 0x77);
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 0x77);
    }

    #[test]
    fn compute_advances_time() {
        let mut s = sys(PersistencyMode::Eadr);
        let end = s
            .run_single_core(0, vec![Op::Compute { cycles: 1000 }])
            .unwrap();
        assert_eq!(end, 1000);
        assert_eq!(s.cycle(), 1000);
    }

    #[test]
    fn fence_without_flushes_is_cheap() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 1), Op::Fence])
            .unwrap();
        // The fence only waits for the SB drain (which here includes one
        // cold-miss fill from NVMM, ~300 cycles) — never for the
        // 1000-cycle NVMM write a PMEM-style flush would require.
        assert!(s.cycle() < 500, "cycle = {}", s.cycle());
    }

    #[test]
    fn pmem_fence_pays_flush_latency() {
        let a_cfg = SimConfig::small_for_tests();
        let mut bbb = System::new(a_cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        let mut pmem = System::new(a_cfg, PersistencyMode::Pmem).unwrap();
        let a = pbase(&bbb);
        let ops = |flush: bool| {
            let mut v = Vec::new();
            for i in 0..20u64 {
                v.push(Op::store_u64(a + i * 64, i));
                if flush {
                    v.push(Op::Clwb { addr: a + i * 64 });
                    v.push(Op::Fence);
                }
            }
            v
        };
        let t_bbb = bbb.run_single_core(0, ops(false)).unwrap();
        let t_pmem = pmem.run_single_core(0, ops(true)).unwrap();
        assert!(
            t_pmem > 2 * t_bbb,
            "strict persistency in software must be much slower: {t_pmem} vs {t_bbb}"
        );
    }

    #[test]
    fn stats_aggregate_across_components() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 1), Op::load_u64(a + 64)])
            .unwrap();
        s.drain_all_store_buffers();
        let st = s.stats();
        assert_eq!(st.get("cores.stores"), 1);
        assert_eq!(st.get("cores.persisting_stores"), 1);
        assert!(st.get("cores.committed") >= 2);
        assert!(st.get("bbpb.allocations") >= 1);
        assert!(st.get("sim.cycles") > 0);
    }

    #[test]
    fn crash_cost_reflects_mode() {
        // eADR: dirty cache blocks dominate; BBB: bbPB entries.
        let mut eadr = sys(PersistencyMode::Eadr);
        let mut bbb = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&eadr);
        let ops: Vec<Op> = (0..8u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        eadr.run_single_core(0, ops.clone()).unwrap();
        eadr.drain_all_store_buffers();
        bbb.run_single_core(0, ops).unwrap();
        bbb.drain_all_store_buffers();

        let ce = eadr.crash_cost();
        let cb = bbb.crash_cost();
        assert!(ce.dirty_cache_blocks >= 4);
        assert_eq!(ce.bbpb_entries, 0);
        assert!(cb.bbpb_entries >= 1);
        assert_eq!(cb.dirty_cache_blocks, 0);
        // The headline claim in miniature: BBB's drain set is far smaller.
        assert!(cb.above_mc_blocks() < ce.above_mc_blocks());
    }

    #[test]
    fn multicore_ping_pong_stays_consistent() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);

        // Arch memory reflects *committed* stores, so an unsynchronized
        // read-increment-store from two cores is a genuine lost-update
        // race. Serialize like real code would: a lock held from batch
        // generation until the holder's next request (by which point its
        // store has committed and is architecturally visible).
        struct PingPong {
            left: [u32; 2],
            addr: u64,
            holder: Option<usize>,
        }
        impl Workload for PingPong {
            fn name(&self) -> &str {
                "pingpong"
            }
            fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
                if self.holder == Some(core) {
                    self.holder = None;
                }
                if self.left[core] == 0 {
                    return None;
                }
                if self.holder.is_some() {
                    return Some(vec![Op::Compute { cycles: 16 }]);
                }
                self.holder = Some(core);
                self.left[core] -= 1;
                let v = arch.read_u64(self.addr) + 1;
                Some(vec![Op::load_u64(self.addr), Op::store_u64(self.addr, v)])
            }
        }

        let mut w = PingPong {
            left: [25, 25],
            addr: a,
            holder: None,
        };
        let summary = s.run(&mut w, u64::MAX);
        assert!(summary.completed);
        // 50 increment batches of 2 ops each, plus any contended spins.
        assert!(summary.ops >= 100);
        s.check_invariants();
        s.drain_all_store_buffers();
        let img = s.crash_now();
        assert_eq!(img.read_u64(a), 50, "all 50 increments durable");
    }

    #[test]
    fn run_respects_op_budget() {
        let mut s = sys(PersistencyMode::Eadr);
        let a = pbase(&s);
        struct Infinite {
            addr: u64,
        }
        impl Workload for Infinite {
            fn name(&self) -> &str {
                "infinite"
            }
            fn next_batch(&mut self, _core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
                let v = arch.read_u64(self.addr) + 1;
                arch.write_u64(self.addr, v);
                Some(vec![Op::store_u64(self.addr, v)])
            }
        }
        let summary = s.run(&mut Infinite { addr: a }, 10);
        assert_eq!(summary.ops, 10);
        assert!(!summary.completed);
    }

    #[test]
    fn run_until_in_increments_matches_one_shot_run() {
        // The resumable path must be the same machine as `run`: advancing
        // a cursor in cycle-bounded increments, then to completion, lands
        // on the identical crash image and op count.
        let mk = || {
            let s = sys(PersistencyMode::BbbMemorySide);
            let a = pbase(&s);
            let ops: Vec<Op> = (0..64u64)
                .map(|i| Op::store_u64(a + (i % 16) * 64, i))
                .collect();
            (s, ops)
        };
        struct Fixed {
            per_core: Vec<Vec<Op>>,
        }
        impl Workload for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
                let ops = std::mem::take(&mut self.per_core[core]);
                if ops.is_empty() {
                    None
                } else {
                    Some(ops)
                }
            }
        }

        let (mut whole, ops) = mk();
        let mut w1 = Fixed {
            per_core: vec![ops.clone(), ops.clone()],
        };
        whole.run(&mut w1, u64::MAX);

        let (mut stepped, ops) = mk();
        let mut w2 = Fixed {
            per_core: vec![ops.clone(), ops],
        };
        let mut cursor = RunCursor::new(2);
        let mut at = 50;
        loop {
            let s = stepped.run_until(&mut w2, &mut cursor, StopAt::Cycle(at));
            if s.completed {
                break;
            }
            at += 50;
        }
        assert!(cursor.finished());
        // Match `run`'s trailing pump before comparing.
        for c in 0..2 {
            let t = stepped.cores[c].ready_at;
            stepped.pump_sb(c, t);
        }
        assert_eq!(stepped.cycle(), whole.cycle());
        assert_eq!(cursor.ops(), 128);
        assert_eq!(
            stepped.crash_now().read_u64(pbase(&whole)),
            whole.crash_now().read_u64(pbase(&whole))
        );
    }

    #[test]
    fn cloned_system_crashes_independently() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 0x111)]).unwrap();
        let mut fork = s.clone();
        let img = fork.crash_now();
        assert_eq!(img.read_u64(a), 0x111);
        // The original keeps running as if the fork never existed —
        // including writes that land on pages the fork's COW snapshot
        // still shares.
        s.run_single_core(0, vec![Op::store_u64(a + 8, 0x222)])
            .unwrap();
        let img2 = s.crash_now();
        assert_eq!(img2.read_u64(a), 0x111);
        assert_eq!(img2.read_u64(a + 8), 0x222);
        // And the fork's image is frozen: the original's later store must
        // not bleed through the shared pages.
        assert_eq!(img.read_u64(a + 8), 0);
    }

    /// Cross-core same-line SB conflicts at a crash must resolve in
    /// coherence order τ = (commit cycle, core, seq), not core index
    /// (DESIGN.md §9.4, resolved ledger item 1): core 1 stores first,
    /// core 0 stores the same word 1000 cycles later, and the later store
    /// must win in the crash image even though core 0 drains "first" by
    /// index.
    #[test]
    fn crash_drain_resolves_sb_conflicts_by_commit_order() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            s.step_op(1, &Op::store_u64(a, 0x0B01D)); // committed early
            s.step_op(0, &Op::Compute { cycles: 1000 });
            s.step_op(0, &Op::store_u64(a, 0xA11CE)); // committed late
            let img = s.crash_image(true);
            let mut fork = s.clone();
            let destructive = fork.crash_now();
            assert_eq!(img, destructive, "{mode}: overlay vs destructive");
            assert_eq!(
                img.read_u64(a),
                0xA11CE,
                "{mode}: the later-committed store must win the conflict"
            );
        }
    }

    /// The non-destructive `crash_image` must be byte-identical to forking
    /// the system and crashing the fork — for every mode, in both battery
    /// states, with and without a battery-backed store buffer, on one core
    /// and on two cores interleaving stores to shared lines (the
    /// cross-core τ merge), both mid-flight (store buffers and persist
    /// buffers occupied) and after the buffers drain (dirty caches under
    /// eADR, resident bbPB entries under BBB).
    #[test]
    fn crash_image_matches_destructive_crash_across_modes() {
        for mode in PersistencyMode::ALL {
            for battery_backed_sb in [true, false] {
                for cores in [1, 2] {
                    let mut cfg = SimConfig::small_for_tests();
                    cfg.battery_backed_sb = battery_backed_sb;
                    let mut s = System::new(cfg, mode).unwrap();
                    let a = pbase(&s);
                    let case =
                        format!("{mode}, battery_backed_sb={battery_backed_sb}, {cores} core(s)");
                    // A 40-byte stride puts neighbouring stores — on
                    // different cores when interleaved — into one line.
                    for i in 0..24u64 {
                        let core = (i % cores) as usize;
                        s.step_op(core, &Op::store_u64(a + i * 40, 0x1000 + i));
                        if mode.requires_flushes() && i % 3 == 0 {
                            s.step_op(core, &Op::Clwb { addr: a + i * 40 });
                            s.step_op(core, &Op::Fence);
                        }
                        if mode.requires_epoch_barriers() && i % 5 == 0 {
                            s.step_op(core, &Op::Fence);
                        }
                    }

                    // Mid-flight: store buffers may still hold entries.
                    // Post-drain: persist domain holds the interesting state.
                    for phase in ["mid-flight", "post-drain"] {
                        if phase == "post-drain" {
                            s.drain_all_store_buffers();
                        }
                        for battery_ok in [true, false] {
                            let image = s.crash_image(battery_ok);
                            let mut fork = s.clone();
                            let destructive = if battery_ok {
                                fork.crash_now()
                            } else {
                                fork.crash_now_battery_dropped()
                            };
                            assert_eq!(
                                image, destructive,
                                "{case}: {phase}, battery_ok={battery_ok}"
                            );
                        }
                    }

                    // crash_image is genuinely non-destructive: the live
                    // system still produces the same destructive image
                    // afterwards.
                    let again = s.crash_image(true);
                    let destructive = s.crash_now();
                    assert_eq!(again, destructive, "{case}: live system undisturbed");
                }
            }
        }
    }

    /// The pages of `image` whose pointer differs from `last`'s (or that
    /// only one of them holds).
    fn moved_pages(last: &NvmImage, image: &NvmImage) -> Vec<u64> {
        let mut pages: Vec<u64> = last
            .as_store()
            .iter_pages()
            .chain(image.as_store().iter_pages())
            .map(|(base, _)| base)
            .filter(|&base| last.pin(base).changed_blocks(image, base).is_some())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// An image built on the last one, with nothing in between, shares
    /// every page with it; after one more store, only that store's page
    /// is new. Each equals the full build.
    #[test]
    fn an_image_built_on_the_last_keeps_its_unchanged_pages() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            for page in 0..3 {
                s.preload_u64(a + page * 4096, 7);
                s.step_op(0, &Op::store_u64(a + page * 4096 + 8, page + 1));
            }
            let mut basis = ImageBasis::default();
            let first = s.crash_image_on(true, &mut basis);
            assert_eq!(first, s.crash_image(true), "{mode}");
            assert_eq!(basis.overlaid(), 3, "{mode}: the overlay lands on 3 pages");
            let second = s.crash_image_on(true, &mut basis);
            assert!(moved_pages(&first, &second).is_empty(), "{mode}");

            s.step_op(0, &Op::store_u64(a + 4096 + 16, 9));
            let third = s.crash_image_on(true, &mut basis);
            assert_eq!(third, s.crash_image(true), "{mode}");
            assert_eq!(moved_pages(&second, &third), vec![a + 4096], "{mode}");
        }
    }

    /// A store-heavy random op of a two-core machine: stores to words on
    /// three pages (so the cores share blocks), loads, flushes, fences
    /// and compute.
    fn random_op(rng: &mut SplitMix64, a: u64) -> Op {
        let word = a + 4096 * rng.next_below(3) + 8 * rng.next_below(24);
        match rng.next_below(12) {
            0..=6 => Op::store_u64(word, rng.next_u64()),
            7 => Op::load_u64(word),
            8 => Op::Clwb { addr: word },
            9 => Op::Fence,
            _ => Op::Compute {
                cycles: rng.next_below(400) as u32,
            },
        }
    }

    /// Two-core machines in every mode, with store buffers battery-backed
    /// or not, draining in order or relaxed (which feeds processor-side
    /// buffers out of τ order).
    fn random_machines() -> impl Iterator<Item = (String, System)> {
        PersistencyMode::ALL.into_iter().flat_map(|mode| {
            [(true, false), (false, false), (true, true), (false, true)]
                .into_iter()
                .map(move |(backed, relaxed)| {
                    let mut cfg = SimConfig::small_for_tests();
                    cfg.battery_backed_sb = backed;
                    cfg.relaxed_sb_drain = relaxed;
                    let case = format!("{mode}, backed SB {backed}, relaxed drain {relaxed}");
                    (case, System::new(cfg, mode).unwrap())
                })
        })
    }

    /// The domain's writes in a form where only what can change a byte
    /// counts: the block-granular writes, which come first and name
    /// distinct blocks, sorted by block; the stores in order.
    fn canonical(mut writes: Vec<(Survivor, Write)>) -> Vec<(Survivor, Write)> {
        let blocks = writes
            .iter()
            .take_while(|(_, w)| matches!(w, Write::Block(..)))
            .count();
        writes[..blocks].sort_by_key(|(_, w)| w.block());
        writes
    }

    #[test]
    fn filtered_domain_writes_are_the_full_list_filtered() {
        let mut rng = SplitMix64::new(0xF17E);
        for (case, mut s) in random_machines() {
            let a = pbase(&s);
            for i in 0..240 {
                let core = rng.next_index(2);
                s.step_op(core, &random_op(&mut rng, a));
                for battery_ok in [true, false] {
                    let mut full = Vec::new();
                    s.surviving_writes(battery_ok, None, |from, w| full.push((from, w)));
                    let random_block = |rng: &mut SplitMix64| {
                        a + 4096 * rng.next_below(3) + 64 * rng.next_below(8)
                    };
                    let mut only: Vec<BlockAddr> = full
                        .iter()
                        .map(|(_, w)| w.block())
                        .filter(|_| rng.chance(1, 2))
                        .collect();
                    only.extend((0..3).map(|_| BlockAddr::containing(random_block(&mut rng))));
                    only.sort_unstable();
                    only.dedup();
                    let mut pages: Vec<(u64, u64)> = Vec::new();
                    for block in &only {
                        let page = block.base() & !(PAGE_BYTES as u64 - 1);
                        let bit = 1 << ((block.base() - page) / BLOCK_BYTES as u64);
                        match pages.last_mut() {
                            Some((p, mask)) if *p == page => *mask |= bit,
                            _ => pages.push((page, bit)),
                        }
                    }
                    let mut filtered = Vec::new();
                    s.surviving_writes(battery_ok, Some(&pages), |from, w| {
                        filtered.push((from, w));
                    });
                    full.retain(|(_, w)| only.binary_search(&w.block()).is_ok());
                    assert_eq!(
                        canonical(filtered),
                        canonical(full),
                        "{case}, op {i}, battery {battery_ok}"
                    );
                }
            }
        }
    }

    #[test]
    fn images_built_on_the_last_match_the_full_build_on_random_machines() {
        let mut rng = SplitMix64::new(0x1A6E);
        for (case, mut s) in random_machines() {
            let a = pbase(&s);
            let mut bases = [ImageBasis::default(), ImageBasis::default()];
            let mut last = [None, None];
            let mut partial = 0;
            for i in 0..240 {
                let core = rng.next_index(2);
                s.step_op(core, &random_op(&mut rng, a));
                for battery_ok in [true, false] {
                    let k = usize::from(battery_ok);
                    let image = s.crash_image_on(battery_ok, &mut bases[k]);
                    assert!(
                        image == s.crash_image(battery_ok),
                        "{case}, op {i}, battery {battery_ok}"
                    );
                    partial += usize::from(image.changes_since(last[k]).is_some());
                    last[k] = image.id();
                }
            }
            assert!(partial > 400, "{case}: {partial} images built on the last");
        }
    }

    /// The τ merge before the heap: every queue front compared per store.
    fn merge_by_tau_scan<'a, Q>(queues: impl Iterator<Item = Q>, mut visit: impl FnMut(Write))
    where
        Q: Iterator<Item = &'a SbEntry>,
    {
        let mut fronts: Vec<(usize, Peekable<Q>)> =
            queues.map(Iterator::peekable).enumerate().collect();
        loop {
            let next = fronts
                .iter_mut()
                .enumerate()
                .filter_map(|(i, (core, q))| q.peek().map(|e| ((e.committed, *core, e.seq), i)))
                .min();
            let Some((_, i)) = next else { break };
            let (core, q) = &mut fronts[i];
            let store = *q.next().expect("peeked front");
            visit(Write::Store { core: *core, store });
        }
    }

    #[test]
    fn heap_tau_merge_matches_the_front_scan() {
        let mut rng = SplitMix64::new(0x7A0);
        for _ in 0..2000 {
            let queues = random_queues(&mut rng);
            let (mut heap, mut scan) = (Vec::new(), Vec::new());
            merge_by_tau(queues.iter().map(|q| q.iter()), |w| heap.push(w));
            merge_by_tau_scan(queues.iter().map(|q| q.iter()), |w| scan.push(w));
            assert_eq!(heap, scan, "{queues:?}");
        }
    }

    /// Random per-core store queues, one in four stores jumping anywhere
    /// in commit time, so queues leave τ order.
    fn random_queues(rng: &mut SplitMix64) -> Vec<Vec<SbEntry>> {
        let cores = 1 + rng.next_index(6);
        (0..cores)
            .map(|_| {
                let mut committed = 0;
                (0..rng.next_below(8))
                    .map(|seq| {
                        committed = if rng.chance(1, 4) {
                            rng.next_below(40)
                        } else {
                            committed + rng.next_below(5)
                        };
                        SbEntry {
                            block: BlockAddr::from_index(rng.next_below(6)),
                            offset: 0,
                            len: 8,
                            bytes: seq.to_le_bytes(),
                            persistent: true,
                            committed,
                            seq,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The merged stores of each block, in merge order.
    fn per_block(queues: &[Vec<SbEntry>]) -> Vec<Vec<Write>> {
        let mut blocks = vec![Vec::new(); 6];
        merge_by_tau(queues.iter().map(|q| q.iter()), |w| {
            blocks[w.block().index() as usize].push(w);
        });
        blocks
    }

    /// Taking a store out of a queue moves no other store of the merge
    /// relative to the stores of its block, except on the blocks
    /// `reordered_behind` names and the store's own: the change log's
    /// rule for drains out of queues that left τ order.
    #[test]
    fn reordered_behind_names_every_block_whose_merge_order_moves() {
        let mut rng = SplitMix64::new(0x0DE7);
        let mut moved_somewhere = 0;
        for _ in 0..4000 {
            let queues = random_queues(&mut rng);
            let core = rng.next_index(queues.len());
            if queues[core].is_empty() {
                continue;
            }
            let at = rng.next_index(queues[core].len());
            let mut after = queues.clone();
            let removed = after[core].remove(at);
            let named: Vec<BlockAddr> = reordered_behind(&removed, &after[core][at..]).collect();
            let (before, after) = (per_block(&queues), per_block(&after));
            for (b, (mut was, now)) in before.into_iter().zip(after).enumerate() {
                let block = BlockAddr::from_index(b as u64);
                was.retain(|w| {
                    *w != Write::Store {
                        core,
                        store: removed,
                    }
                });
                if block != removed.block && !named.contains(&block) {
                    assert_eq!(was, now, "{queues:?}: removed {removed:?}");
                } else {
                    moved_somewhere += usize::from(was != now);
                }
            }
        }
        assert!(moved_somewhere > 0, "no removal moved a store");
    }

    /// Past the change log's capacity, or after a destructive crash, an
    /// image cannot be built on the last: it is built in full, names no
    /// blocks, and the next image builds on it again.
    #[test]
    fn an_image_after_the_log_overflows_is_the_full_build() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            let mut basis = ImageBasis::default();
            s.step_op(0, &Op::store_u64(a, 1));
            let first = s.crash_image_on(true, &mut basis);
            let mark = s.memories.nvmm().changes().mark();
            for i in 0..ChangeLog::CAPACITY as u64 {
                s.step_op(0, &Op::store_u64(a + 64 * (i % 512), i));
            }
            assert!(
                s.memories.nvmm().changes().since(mark, true).is_none(),
                "{mode}"
            );
            let second = s.crash_image_on(true, &mut basis);
            assert!(second == s.crash_image(true), "{mode}");
            assert_eq!(second.changes_since(first.id()), None, "{mode}");

            s.step_op(0, &Op::store_u64(a + 8, 2));
            let third = s.crash_image_on(true, &mut basis);
            assert!(third == s.crash_image(true), "{mode}");
            assert!(third.changes_since(second.id()).is_some(), "{mode}");

            let destroyed = s.crash_now();
            let fourth = s.crash_image_on(true, &mut basis);
            assert!(fourth == destroyed, "{mode}");
            assert_eq!(fourth.changes_since(third.id()), None, "{mode}");
        }
    }

    /// Both epochs of a machine, healthy first.
    fn epochs(s: &System) -> [u64; 2] {
        [s.crash_image_epoch(true), s.crash_image_epoch(false)]
    }

    /// A DRAM block is in no crash image, so a store to one moves neither
    /// epoch: not through eADR's caches, nor through a battery-backed SB.
    #[test]
    fn dram_stores_leave_the_epochs_alone() {
        for mode in [PersistencyMode::Eadr, PersistencyMode::BbbMemorySide] {
            let mut s = sys(mode);
            assert!(s.cfg.battery_backed_sb);
            let before = epochs(&s);
            s.run_single_core(0, vec![Op::store_u64(0x100, 42), Op::Fence])
                .unwrap();
            let block = BlockAddr::containing(0x100);
            assert!(s.hierarchy.l1(0).state_of(block).writable(), "{mode}");
            assert_eq!(epochs(&s), before, "{mode}");
        }
    }

    /// A clone starts at its original's epochs, and each machine's epochs
    /// move only with its own steps.
    #[test]
    fn a_clone_keeps_its_epochs_and_moves_them_alone() {
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            s.run_single_core(0, vec![Op::store_u64(a, 1)]).unwrap();
            let mut c = s.clone();
            let forked = epochs(&s);
            assert_eq!(epochs(&c), forked, "{mode}");

            c.run_single_core(0, vec![Op::store_u64(a + 64, 2)])
                .unwrap();
            let stepped = epochs(&c);
            assert_ne!(stepped[0], forked[0], "{mode}");
            assert_eq!(epochs(&s), forked, "{mode}");

            s.run_single_core(1, vec![Op::store_u64(a + 128, 3)])
                .unwrap();
            assert_ne!(epochs(&s)[0], forked[0], "{mode}");
            assert_eq!(epochs(&c), stepped, "{mode}");
        }
    }

    /// A destructive crash empties the persistence domain, so it moves
    /// the healthy epoch even when it writes nothing to media.
    #[test]
    fn crash_now_moves_the_healthy_epoch() {
        for mode in PersistencyMode::ALL {
            let mut s = sys(mode);
            let a = pbase(&s);
            s.run_single_core(0, vec![Op::store_u64(a, 1)]).unwrap();
            let before = s.crash_image_epoch(true);
            let _ = s.crash_now();
            assert_ne!(s.crash_image_epoch(true), before, "{mode}");

            let empty = s.crash_image_epoch(true);
            let _ = s.crash_now();
            assert_ne!(s.crash_image_epoch(true), empty, "{mode}: empty domain");
        }
    }

    /// A battery-dropped image is media alone, so after a step that only
    /// coalesces a store into a bbPB entry it rebuilds no block.
    #[test]
    fn a_dropped_image_reads_only_media_notes() {
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        s.run_single_core(0, vec![Op::store_u64(a, 1), Op::Fence])
            .unwrap();
        let mut basis = ImageBasis::default();
        let first = s.crash_image_on(false, &mut basis);
        let (coalesces, media) = (s.stats().get("bbpb.coalesces"), epochs(&s)[1]);

        s.run_single_core(0, vec![Op::store_u64(a + 8, 2), Op::Fence])
            .unwrap();
        assert_eq!(s.stats().get("bbpb.coalesces"), coalesces + 1);
        assert_eq!(epochs(&s)[1], media, "no media note");
        let second = s.crash_image_on(false, &mut basis);
        assert!(second == s.crash_image(false));
        assert_eq!(second.changes_since(first.id()), Some(&[][..]));
    }

    /// A bbPB filled to capacity (a 100 % drain threshold keeps every
    /// entry resident) drains every block at a battery-backed crash, as
    /// plain NVMM writes with no ordered-drain accounting, and the crash
    /// leaves it empty.
    #[test]
    fn crash_drains_a_completely_full_bbpb() {
        let mut cfg = SimConfig::small_for_tests();
        cfg.bbpb.drain_policy = bbb_sim::DrainPolicy::Threshold { threshold_pct: 100 };
        let capacity = cfg.bbpb.entries as u64;
        let mut s = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        let a = pbase(&s);
        let ops: Vec<Op> = (0..capacity)
            .map(|i| Op::store_u64(a + i * 64, i + 1))
            .collect();
        s.run_single_core(0, ops).unwrap();
        s.drain_all_store_buffers();
        assert_eq!(s.crash_cost().bbpb_entries, capacity, "buffer truly full");
        let before = s.stats();
        assert_eq!(before.get("bbpb.drains"), 0, "nothing drained yet");

        let img = s.crash_now();
        for i in 0..capacity {
            assert_eq!(img.read_u64(a + i * 64), i + 1, "block {i}");
        }
        let after = s.stats();
        assert_eq!(
            after.get("nvmm.writes") - before.get("nvmm.writes"),
            capacity,
            "one NVMM write per resident block"
        );
        assert_eq!(after.get("bbpb.drains"), 0);
        assert_eq!(s.crash_cost().bbpb_entries, 0, "crash empties the bbPB");
    }

    /// One drain semantics: the same persisting stores in a bbb-proc
    /// procPB leave the same media bytes and the same NVMM read and write
    /// counts whether a live drain (`drain_all_timed` through `Memories`)
    /// or the crash drain writes them.
    #[test]
    fn live_and_crash_drains_of_a_procpb_agree() {
        let mut cfg = SimConfig::small_for_tests();
        cfg.bbpb.drain_policy = bbb_sim::DrainPolicy::Threshold { threshold_pct: 100 };
        let stores = cfg.bbpb.entries as u64 - 1;
        let mut s = System::new(cfg, PersistencyMode::BbbProcessorSide).unwrap();
        let a = pbase(&s);
        for b in 0..3 {
            s.memories
                .load(BlockAddr::containing(a + b * 64), &[0xA0 + b as u8; 64]);
        }
        let ops: Vec<Op> = (0..stores)
            .map(|i| Op::store_u64(a + i % 3 * 64 + i % 5 * 8, i + 1))
            .collect();
        s.run_single_core(0, ops).unwrap();
        s.drain_all_store_buffers();
        assert!(s.persist.procpb(0).resident() > 1, "stores left to drain");
        let counts = |s: &System| {
            let stats = s.stats();
            (stats.get("nvmm.reads"), stats.get("nvmm.writes"))
        };
        let (reads, _) = counts(&s);

        let mut live = s.clone();
        let now = live.now_max;
        live.persist
            .procpb_mut(0)
            .drain_all_timed(now, &mut live.memories);
        let crashed = s.crash_now();
        assert!(live.memories.nvmm().crash_image() == crashed, "media bytes");
        assert_eq!(counts(&live), counts(&s));
        assert_eq!(counts(&live).0, reads, "a drain reads no media");
    }

    #[test]
    fn battery_dropped_crash_loses_buffered_stores() {
        for mode in [
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
            PersistencyMode::Eadr,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            s.run_single_core(0, vec![Op::store_u64(a, 0xFEED)])
                .unwrap();
            let mut fork = s.clone();
            assert_eq!(
                fork.crash_now().read_u64(a),
                0xFEED,
                "{mode}: battery drains"
            );
            let img = s.crash_now_battery_dropped();
            assert_eq!(
                img.read_u64(a),
                0,
                "{mode}: without the battery the store dies"
            );
        }
    }

    #[test]
    fn crash_mid_wpq_backpressure_keeps_every_accepted_write() {
        // Satellite: crash while the WPQ sits at occupancy == capacity.
        // A tiny queue plus a store stream wide enough to outrun the media
        // guarantees backpressure; every accepted write must still be in
        // the crash image because the queue is inside the ADR domain.
        let mut cfg = SimConfig::small_for_tests();
        cfg.mem.wpq_entries = 2;
        cfg.mem.nvmm_channels = 1;
        let mut s = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        let a = s.address_map().persistent_base();
        let ops: Vec<Op> = (0..64u64)
            .map(|i| Op::store_u64(a + i * 64, i + 1))
            .collect();
        s.run_single_core(0, ops).unwrap();
        s.drain_all_store_buffers();
        assert!(
            s.memories.nvmm().wpq_backpressure_events() > 0,
            "stream must backpressure the WPQ"
        );
        let img = s.crash_now();
        for i in 0..64u64 {
            assert_eq!(img.read_u64(a + i * 64), i + 1, "store {i}");
        }
    }

    #[test]
    fn fences_are_counted() {
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        s.run_single_core(
            0,
            vec![
                Op::store_u64(a, 1),
                Op::Clwb { addr: a },
                Op::Fence,
                Op::Fence,
            ],
        )
        .unwrap();
        assert_eq!(s.stats().get("cores.fences"), 2);
    }

    #[test]
    fn bbpb_inclusion_invariant_holds_under_pressure() {
        // Stream stores over many distinct blocks so LLC evictions force
        // drains; the invariant check would catch stale bbPB entries.
        let mut s = sys(PersistencyMode::BbbMemorySide);
        let a = pbase(&s);
        let ops: Vec<Op> = (0..600u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        s.run_single_core(0, ops).unwrap();
        s.drain_all_store_buffers();
        s.check_invariants();
        let st = s.stats();
        assert!(
            st.get("cache.suppressed_writebacks") > 0,
            "persistent evictions must skip the redundant writeback"
        );
        // Everything durable at crash despite zero flushes.
        let img = s.crash_now();
        for i in 0..600u64 {
            assert_eq!(img.read_u64(a + i * 64), i, "store {i}");
        }
    }

    /// Two cores interleaving runs of compute ops with stores; batches mix
    /// compute-run lengths so the cores' clocks cross inside a run and the
    /// stop points land in the middle of one.
    struct ComputeHeavy {
        left: [u32; 2],
        base: u64,
    }

    impl Workload for ComputeHeavy {
        fn name(&self) -> &str {
            "compute-heavy"
        }
        fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
            if self.left[core] == 0 {
                return None;
            }
            self.left[core] -= 1;
            let i = u64::from(self.left[core]);
            let mut ops = Vec::new();
            // Uneven compute runs so cores' clocks cross mid-run.
            for k in 0..(1 + (i + core as u64) % 5) {
                ops.push(Op::Compute {
                    cycles: (7 + 13 * k + core as u64 * 3) as u32,
                });
            }
            let slot = self.base + (core as u64 * 64 + (i % 8)) * 8;
            let v = arch.read_u64(slot) + 1;
            ops.push(Op::store_u64(slot, v));
            ops.push(Op::Compute { cycles: 5 });
            ops.push(Op::Compute { cycles: 9 });
            Some(ops)
        }
    }

    #[test]
    fn probed_run_matches_plain_run() {
        // Sampling the probe between ops must not perturb the run: same
        // cycles, same stats (including sched.* attribution), same crash
        // image as a plain run.
        for mode in PersistencyMode::ALL {
            let mut plain = sys(mode);
            let mut reference = sys(mode);
            let base = pbase(&plain) + 0x400;
            let mk = || ComputeHeavy {
                left: [40, 31],
                base,
            };
            let s1 = plain.run(&mut mk(), u64::MAX);
            let mut cursor = RunCursor::new(reference.cores.len());
            let mut sink = Vec::new();
            let s2 = reference.run_probed(&mut mk(), &mut cursor, &mut sink, ProbeKind::Ordering);
            for c in 0..reference.cores.len() {
                let t = reference.cores[c].ready_at;
                reference.pump_sb(c, t);
            }
            assert_eq!(s1.ops, s2.ops, "{mode:?}");
            assert_eq!(s1.cycles, reference.now_max, "{mode:?}");
            assert_eq!(plain.stats(), reference.stats(), "{mode:?}");
            let (ia, ib) = (plain.crash_image(true), reference.crash_image(true));
            assert_eq!(ia.as_store(), ib.as_store(), "{mode:?}");
        }
    }

    #[test]
    fn stop_points_match_one_op_increments() {
        let base_budget = 37u64;
        for stop_kind in 0..2 {
            let mut whole = sys(PersistencyMode::Eadr);
            let mut reference = sys(PersistencyMode::Eadr);
            let base = pbase(&whole) + 0x400;
            let mk = || ComputeHeavy {
                left: [40, 31],
                base,
            };
            let stop = if stop_kind == 0 {
                StopAt::Ops(base_budget)
            } else {
                StopAt::Cycle(500)
            };
            let mut c1 = RunCursor::new(whole.cores.len());
            let s1 = whole.run_until(&mut mk(), &mut c1, stop);
            // Per-op reference: the same run in one-op run_until
            // increments, ended by the same stop.
            let mut c2 = RunCursor::new(reference.cores.len());
            let mut w = mk();
            let mut s2 = reference.run_until(&mut w, &mut c2, StopAt::Ops(1));
            loop {
                let done = match stop {
                    StopAt::Ops(b) => c2.ops() >= b,
                    StopAt::Cycle(at) => reference.now_max >= at,
                    StopAt::End => unreachable!(),
                };
                if done || c2.finished() {
                    break;
                }
                let next = c2.ops() + 1;
                s2 = reference.run_until(&mut w, &mut c2, StopAt::Ops(next));
            }
            assert_eq!(s1.ops, s2.ops, "stop {stop:?}");
            assert_eq!(whole.now_max, reference.now_max, "stop {stop:?}");
            assert_eq!(whole.stats(), reference.stats(), "stop {stop:?}");
        }
    }

    /// Two cores storing to shared and private persistent blocks, with a
    /// `clwb` and a fence every third batch, so fences, forced drains, WPQ
    /// backpressure and persisting stores all move.
    struct Ordered {
        left: [u32; 2],
        base: u64,
    }

    impl Workload for Ordered {
        fn name(&self) -> &str {
            "ordered"
        }
        fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
            if self.left[core] == 0 {
                return None;
            }
            self.left[core] -= 1;
            let i = u64::from(self.left[core]);
            let private = self.base + 0x1000 * (core as u64 + 1) + (i % 16) * 64;
            let mut ops = vec![
                Op::store_u64(self.base + (i % 4) * 64, i),
                Op::Compute {
                    cycles: 3 + core as u32,
                },
                Op::store_u64(private, i),
            ];
            if i % 3 == 0 {
                ops.extend([Op::Clwb { addr: private }, Op::Fence]);
            }
            Some(ops)
        }
    }

    /// The counters behind `kind`'s signal, one entry per counter.
    fn probe_counters(s: &System, kind: ProbeKind) -> Vec<u64> {
        match kind {
            ProbeKind::Ordering => {
                let mut v: Vec<u64> = s.cores.iter().map(|c| c.fences.get()).collect();
                v.push(s.persist.forced_drains());
                v.push(s.memories.nvmm().wpq_backpressure_events());
                v
            }
            ProbeKind::PersistingStores => {
                s.cores.iter().map(|c| c.persisting_stores.get()).collect()
            }
        }
    }

    #[test]
    fn run_probed_boundaries_match_a_one_op_walk() {
        // The reference walks the run one op at a time and records the
        // cycle after every op that moved any of the kind's counters. The
        // 2-entry WPQ backpressures; the default one leaves forced drains
        // as the only ordering events of some ops.
        let mut tiny_wpq = SimConfig::small_for_tests();
        tiny_wpq.mem.wpq_entries = 2;
        tiny_wpq.mem.nvmm_channels = 1;
        for cfg in [SimConfig::small_for_tests(), tiny_wpq] {
            for mode in PersistencyMode::ALL {
                for kind in [ProbeKind::Ordering, ProbeKind::PersistingStores] {
                    let case = format!("WPQ {} {mode:?} {kind:?}", cfg.mem.wpq_entries);
                    let mut probed = System::new(cfg.clone(), mode).unwrap();
                    let base = pbase(&probed);
                    let mk = || Ordered {
                        left: [30, 24],
                        base,
                    };
                    let mut cursor = RunCursor::new(2);
                    let mut boundaries = Vec::new();
                    probed.run_probed(&mut mk(), &mut cursor, &mut boundaries, kind);

                    let mut walked = System::new(cfg.clone(), mode).unwrap();
                    let mut w = mk();
                    let mut c = RunCursor::new(2);
                    let mut last = probe_counters(&walked, kind);
                    let mut expected = Vec::new();
                    while !c.finished() {
                        let next = c.ops() + 1;
                        walked.run_until(&mut w, &mut c, StopAt::Ops(next));
                        let now = probe_counters(&walked, kind);
                        if now != last {
                            expected.push(walked.now_max);
                            last = now;
                        }
                    }
                    assert!(!expected.is_empty(), "{case}");
                    assert_eq!(boundaries, expected, "{case}");
                    assert_eq!(cursor.ops(), c.ops(), "{case}");
                }
            }
        }
    }

    /// Endless 10-cycle compute ops; records which core each op ran on.
    struct Spin {
        order: Vec<usize>,
    }

    impl Workload for Spin {
        fn name(&self) -> &str {
            "spin"
        }
        fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
            self.order.push(core);
            Some(vec![Op::Compute { cycles: 10 }])
        }
    }

    #[test]
    fn equal_clocks_step_the_lower_core_first() {
        // [4, 2, 2, 9]: the first core with the smallest clock starts.
        // [10, 0]: core 1 reaches core 0's clock and must yield to it.
        for (clocks, expected) in [
            (vec![4, 2, 2, 9], vec![1, 2, 0, 3, 1, 2, 0, 3]),
            (vec![10, 0], vec![1, 0, 1, 0, 1, 0, 1, 0]),
        ] {
            let mut cfg = SimConfig::small_for_tests();
            cfg.cores = clocks.len();
            let mut s = System::new(cfg, PersistencyMode::Eadr).unwrap();
            for (core, &clock) in clocks.iter().enumerate() {
                s.cores[core].ready_at = clock;
            }
            let mut spin = Spin { order: Vec::new() };
            let mut cursor = RunCursor::new(clocks.len());
            s.run_until(&mut spin, &mut cursor, StopAt::Ops(8));
            assert_eq!(spin.order, expected, "clocks {clocks:?}");
        }
    }

    /// A stream yielding the same committed sequence as `ComputeHeavy`.
    struct ComputeHeavyStream {
        inner: ComputeHeavy,
        bufs: Vec<std::collections::VecDeque<Op>>,
    }

    impl OpStream for ComputeHeavyStream {
        fn name(&self) -> &str {
            "compute-heavy-stream"
        }
        fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
            if self.bufs[core].is_empty() {
                let batch = self.inner.next_batch(core, arch)?;
                self.bufs[core].extend(batch);
            }
            self.bufs[core].pop_front()
        }
    }

    #[test]
    fn stream_run_matches_batch_run() {
        // A full run, and an op budget that stops both feeds mid-batch
        // (`ComputeHeavy` batches are 4–8 ops).
        for budget in [u64::MAX, 37] {
            for mode in [PersistencyMode::BbbMemorySide, PersistencyMode::Pmem] {
                let mut batch_sys = sys(mode);
                let mut stream_sys = sys(mode);
                let base = pbase(&batch_sys) + 0x400;
                let mut w = ComputeHeavy {
                    left: [25, 18],
                    base,
                };
                let mut s = ComputeHeavyStream {
                    inner: ComputeHeavy {
                        left: [25, 18],
                        base,
                    },
                    bufs: vec![std::collections::VecDeque::new(); 2],
                };
                let r1 = batch_sys.run(&mut w, budget);
                let r2 = stream_sys.run_stream(&mut s, budget);
                assert_eq!(r1, r2, "{mode:?} budget {budget}");
                assert_eq!(r1.completed, budget == u64::MAX, "{mode:?} budget {budget}");
                assert_eq!(
                    batch_sys.stats(),
                    stream_sys.stats(),
                    "{mode:?} budget {budget}"
                );
                let (ia, ib) = (batch_sys.crash_image(true), stream_sys.crash_image(true));
                assert_eq!(ia.as_store(), ib.as_store(), "{mode:?} budget {budget}");
            }
        }
    }

    /// `ComputeHeavy` with an empty batch before each operation and before
    /// the end of each core's stream.
    struct Gapped {
        inner: ComputeHeavy,
        gap: [bool; 2],
    }

    impl Workload for Gapped {
        fn name(&self) -> &str {
            "gapped"
        }
        fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
            self.gap[core] = !self.gap[core];
            if self.gap[core] {
                return Some(Vec::new());
            }
            self.inner.next_batch(core, arch)
        }
    }

    #[test]
    fn empty_batches_change_nothing() {
        // Drives a run whole (0), in one-op `run_until` increments (1) or
        // probed (2).
        fn drive(s: &mut System, w: &mut dyn Workload, how: usize) -> (RunSummary, Vec<Cycle>) {
            let mut cursor = RunCursor::new(s.cores.len());
            let mut sink = Vec::new();
            let summary = match how {
                0 => s.run(w, u64::MAX),
                1 => loop {
                    let next = cursor.ops() + 1;
                    let summary = s.run_until(w, &mut cursor, StopAt::Ops(next));
                    if summary.completed {
                        break summary;
                    }
                },
                _ => s.run_probed(w, &mut cursor, &mut sink, ProbeKind::Ordering),
            };
            (summary, sink)
        }
        for mode in PersistencyMode::ALL {
            for how in 0..3 {
                let outcome = |gaps: bool| {
                    let mut s = sys(mode);
                    s.set_tracing(true);
                    let inner = ComputeHeavy {
                        left: [40, 31],
                        base: pbase(&s) + 0x400,
                    };
                    let (summary, sink) = if gaps {
                        let mut w = Gapped {
                            inner,
                            gap: [false; 2],
                        };
                        drive(&mut s, &mut w, how)
                    } else {
                        drive(&mut s, &mut { inner }, how)
                    };
                    let events = s.take_events();
                    (summary, sink, events, s.crash_image(true).into_store())
                };
                let (plain, gapped) = (outcome(false), outcome(true));
                assert!(plain.0.completed && !plain.2.is_empty(), "{mode:?} {how}");
                assert_eq!(plain, gapped, "{mode:?} drive {how}");
            }
        }
    }

    #[test]
    fn persist_latency_is_zero_under_battery_and_positive_under_pmem() {
        // Battery-backed SB: PoP == commit, the whole distribution is 0.
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let mut s = sys(mode);
            let a = pbase(&s);
            let ops: Vec<Op> = (0..16u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
            s.run_single_core(0, ops).unwrap();
            let st = s.stats();
            assert_eq!(st.get("persist.latency.samples"), 16, "{mode:?}");
            assert_eq!(st.get("persist.latency.p999"), 0, "{mode:?}");
            assert_eq!(st.get("persist.latency.max"), 0, "{mode:?}");
            assert_eq!(st.get("cores.persisting_store_bytes"), 16 * 8, "{mode:?}");
        }
        // ADR + flushes: the clwb resolves the store at WPQ acceptance,
        // hundreds of cycles after commit.
        let mut s = sys(PersistencyMode::Pmem);
        let a = pbase(&s);
        let mut ops = Vec::new();
        for i in 0..8u64 {
            ops.push(Op::store_u64(a + i * 64, i));
            ops.push(Op::Clwb { addr: a + i * 64 });
            ops.push(Op::Fence);
        }
        s.run_single_core(0, ops).unwrap();
        let st = s.stats();
        assert_eq!(st.get("persist.latency.samples"), 8);
        assert!(st.get("persist.latency.p50") > 0);
        assert_eq!(st.get("persist.latency.unresolved"), 0);
        // BEP: the epoch barrier resolves everything the core committed.
        let mut s = sys(PersistencyMode::Bep);
        let a = pbase(&s);
        let mut ops: Vec<Op> = (0..8u64).map(|i| Op::store_u64(a + i * 64, i)).collect();
        ops.push(Op::Fence);
        s.run_single_core(0, ops).unwrap();
        let st = s.stats();
        assert_eq!(st.get("persist.latency.samples"), 8);
        assert_eq!(st.get("persist.latency.unresolved"), 0);
    }
}

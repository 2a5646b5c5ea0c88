//! DRAM and NVMM memory controllers.
//!
//! Each controller owns its media contents ([`ByteStore`]), a
//! [`ChannelScheduler`] modeling per-channel bandwidth, and latency
//! parameters from the paper's Table III. The NVMM controller additionally
//! owns the [`WritePendingQueue`] (the ADR persistence domain) and an
//! [`EnduranceTracker`].

use bbb_sim::{
    Addr, BlockAddr, Counter, Cycle, MemTiming, Stats, TraceEvent, TraceLog, BLOCK_BYTES,
};

use crate::backing::ByteStore;
use crate::changes::{Change, ChangeLog};
use crate::endurance::EnduranceTracker;
use crate::image::NvmImage;
use crate::sched::ChannelScheduler;
use crate::wpq::WritePendingQueue;

/// Result of submitting a write to a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Cycle the write becomes durable. For NVMM this is WPQ acceptance
    /// (ADR); for DRAM durability is meaningless and this equals completion.
    pub persist: Cycle,
    /// Cycle the media write finishes and the channel frees.
    pub completion: Cycle,
}

/// The volatile DRAM controller.
///
/// # Examples
///
/// ```
/// use bbb_mem::DramController;
/// use bbb_sim::{BlockAddr, MemTiming};
///
/// let mut dram = DramController::new(MemTiming::default());
/// let block = BlockAddr::from_index(3);
/// dram.write(0, block, [1; 64]);
/// let (done, data) = dram.read(0, block);
/// assert_eq!(data[0], 1);
/// assert!(done > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DramController {
    access_latency: Cycle,
    channels: ChannelScheduler,
    media: ByteStore,
    reads: Counter,
    writes: Counter,
}

impl DramController {
    /// Creates a controller with the given timing; DRAM uses two channels.
    #[must_use]
    pub fn new(timing: MemTiming) -> Self {
        Self {
            access_latency: timing.dram_access,
            channels: ChannelScheduler::new(2),
            media: ByteStore::new(),
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// Reads a block; returns `(completion_cycle, data)`.
    pub fn read(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
        self.reads.inc();
        let (_, completion) = self.channels.schedule(now, self.access_latency);
        (completion, self.media.read_block(block))
    }

    /// Writes a block; returns the channel completion cycle.
    pub fn write(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
        self.writes.inc();
        let (_, completion) = self.channels.schedule(now, self.access_latency);
        self.media.write_block(block, &data);
        completion
    }

    /// Pre-loads media contents without consuming simulated time (warm
    /// start before measurement begins).
    pub fn load(&mut self, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        self.media.write_block(block, data);
    }

    /// Pre-loads the page holding `addr` by sharing `src`'s.
    pub fn share_page(&mut self, src: &ByteStore, addr: Addr) {
        self.media.share_page(src, addr);
    }

    /// Exports counters under the `dram.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("dram.reads", self.reads.get());
        s.set("dram.writes", self.writes.get());
        s
    }
}

/// The NVMM controller: media, channels, the battery-backed WPQ, and
/// endurance accounting.
///
/// # Examples
///
/// ```
/// use bbb_mem::NvmmController;
/// use bbb_sim::{BlockAddr, MemTiming};
///
/// let mut nvmm = NvmmController::new(MemTiming::default());
/// let block = BlockAddr::from_index(10);
/// let w = nvmm.write(0, block, [9; 64]);
/// assert_eq!(w.persist, 0);          // WPQ acceptance = durable
/// assert!(w.completion >= 1000);     // media write takes 500 ns
/// assert_eq!(nvmm.endurance().total_writes(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NvmmController {
    read_latency: Cycle,
    write_latency: Cycle,
    /// Demand reads get their own channel slots: memory controllers
    /// prioritize reads over background WPQ drains, so queued writes do
    /// not inflate read latency (they only backpressure the WPQ).
    read_channels: ChannelScheduler,
    write_channels: ChannelScheduler,
    wpq: WritePendingQueue,
    media: ByteStore,
    endurance: EnduranceTracker,
    reads: Counter,
    wpq_read_hits: Counter,
    trace: TraceLog,
    /// What the crash image depends on: every media write here, and
    /// every persist-domain change reported through
    /// [`MemoryPort::note_change`](bbb_sim::MemoryPort::note_change).
    changes: ChangeLog,
}

impl NvmmController {
    /// Creates a controller from the configured timing.
    #[must_use]
    pub fn new(timing: MemTiming) -> Self {
        Self {
            read_latency: timing.nvmm_read,
            write_latency: timing.nvmm_write,
            read_channels: ChannelScheduler::new(timing.nvmm_channels),
            write_channels: ChannelScheduler::new(timing.nvmm_channels),
            wpq: WritePendingQueue::new(timing.wpq_entries),
            media: ByteStore::new(),
            endurance: EnduranceTracker::new(),
            reads: Counter::new(),
            wpq_read_hits: Counter::new(),
            trace: TraceLog::default(),
            changes: ChangeLog::default(),
        }
    }

    /// The changes the crash image depends on (see [`ChangeLog`]).
    #[must_use]
    pub fn changes(&self) -> &ChangeLog {
        &self.changes
    }

    /// Enables or disables [`TraceEvent::NvmmWrite`] recording.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Drains the recorded persist-point events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Records a power failure in the controller's own log, so that
    /// accepts recorded *before* it stay before it in the merged stream
    /// even when their persist cycles tie with the crash cycle (the
    /// cross-log merge is only cycle-granular; the checker relies on
    /// crash-drain writes, and only those, following the crash marker).
    /// The crash empties every buffer above the controller, so the change
    /// log records its overflow ([`ChangeLog::overflow`]).
    pub fn note_crash(&mut self, now: Cycle, battery_ok: bool) {
        self.trace.push(TraceEvent::Crash {
            cycle: now,
            battery_ok,
        });
        self.changes.overflow();
    }

    /// Reads a block; returns `(completion_cycle, data)`. Reads that hit a
    /// still-queued WPQ entry are forwarded at a fraction of media latency.
    pub fn read(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
        self.reads.inc();
        if self.wpq.holds(block, now) {
            self.wpq_read_hits.inc();
            // Forwarding from the controller's SRAM queue: cheap and does
            // not occupy a media channel.
            return (now + 8, self.media.read_block(block));
        }
        let (_, completion) = self.read_channels.schedule(now, self.read_latency);
        (completion, self.media.read_block(block))
    }

    /// Writes a block through the WPQ. The returned [`WriteOutcome::persist`]
    /// is the ADR point of persistency (WPQ acceptance, possibly delayed by
    /// backpressure when the queue is full).
    pub fn write(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> WriteOutcome {
        let accept = self
            .wpq
            .offer(now, block, &mut self.write_channels, self.write_latency);
        self.trace.push(TraceEvent::NvmmWrite {
            block,
            cycle: accept.persist,
            coalesced: accept.coalesced,
        });
        // Media bytes reflect the WPQ contents immediately: the queue is
        // inside the persistence domain, so for crash purposes queued data
        // and media data are equivalent.
        self.media.write_block(block, &data);
        self.changes.note(block, Change::Media);
        if !accept.coalesced {
            self.endurance.record(block);
        }
        WriteOutcome {
            persist: accept.persist,
            completion: accept.media_completion,
        }
    }

    /// Pre-loads media contents without consuming simulated time.
    pub fn load(&mut self, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        self.media.write_block(block, data);
        self.changes.note(block, Change::Media);
    }

    /// Pre-loads the page holding `addr` by sharing `src`'s. A media write
    /// to it before `src` writes it is a counted copy-on-write.
    pub fn share_page(&mut self, src: &ByteStore, addr: Addr) {
        self.media.share_page(src, addr);
        self.changes.note_page(addr);
    }

    /// Snapshot of the persistent image at a crash: media plus the WPQ,
    /// which the ADR capacitor drains (they are already merged internally).
    #[must_use]
    pub fn crash_image(&self) -> NvmImage {
        NvmImage::from_store(self.media.clone())
    }

    /// A copy-on-write snapshot of raw media contents. O(resident pages)
    /// pointer bumps; pages are shared with the live controller until
    /// either side writes them. Crash imaging overlays persist-domain
    /// contents onto this without disturbing the running system.
    #[must_use]
    pub fn media_snapshot(&self) -> ByteStore {
        self.media.clone()
    }

    /// Materialized 4 KiB media pages (snapshot-cost accounting).
    #[must_use]
    pub fn media_resident_pages(&self) -> usize {
        self.media.resident_pages()
    }

    /// Media pages deep-copied by copy-on-write so far (writes that hit a
    /// page still shared with a snapshot).
    #[must_use]
    pub fn media_cow_page_copies(&self) -> u64 {
        self.media.cow_page_copies()
    }

    /// Bytes the ADR capacitor must drain if power fails at `now`.
    #[must_use]
    pub fn wpq_crash_bytes(&self, now: Cycle) -> u64 {
        self.wpq.crash_drain_bytes(now)
    }

    /// WPQ occupancy at `now`, for stats and tests.
    #[must_use]
    pub fn wpq_occupancy(&self, now: Cycle) -> usize {
        self.wpq.occupancy(now)
    }

    /// Backpressure stalls the WPQ has suffered so far (cheap event probe
    /// for crash-point planners; also in [`NvmmController::stats`]).
    #[must_use]
    pub fn wpq_backpressure_events(&self) -> u64 {
        self.wpq.backpressure_count()
    }

    /// Endurance (per-block media write) accounting.
    #[must_use]
    pub fn endurance(&self) -> &EnduranceTracker {
        &self.endurance
    }

    /// Exports counters under `nvmm.` and `wpq.` prefixes.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.endurance.stats();
        s.merge(&self.wpq.stats());
        s.set("nvmm.reads", self.reads.get());
        s.set("nvmm.wpq_read_hits", self.wpq_read_hits.get());
        s.set("nvmm.media_pages", self.media.resident_pages() as u64);
        s.set("nvmm.cow_page_copies", self.media.cow_page_copies());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> MemTiming {
        MemTiming::default()
    }

    #[test]
    fn dram_read_write_latency() {
        let mut d = DramController::new(timing());
        let b = BlockAddr::from_index(1);
        let done = d.write(0, b, [7; 64]);
        assert_eq!(done, 110);
        let (done, data) = d.read(0, b);
        assert_eq!(done, 110); // second channel
        assert_eq!(data, [7; 64]);
        assert_eq!(d.stats().get("dram.reads"), 1);
        assert_eq!(d.stats().get("dram.writes"), 1);
    }

    #[test]
    fn dram_load_is_instant() {
        let mut d = DramController::new(timing());
        let b = BlockAddr::from_index(2);
        d.load(b, &[3; 64]);
        let (_, data) = d.read(0, b);
        assert_eq!(data, [3; 64]);
        assert_eq!(d.stats().get("dram.writes"), 0);
    }

    #[test]
    fn nvmm_write_persists_at_wpq_accept() {
        let mut n = NvmmController::new(timing());
        let b = BlockAddr::from_index(5);
        let w = n.write(100, b, [1; 64]);
        assert_eq!(w.persist, 100);
        assert_eq!(w.completion, 1100);
        assert_eq!(n.endurance().total_writes(), 1);
    }

    #[test]
    fn nvmm_read_latency_and_data() {
        let mut n = NvmmController::new(timing());
        let b = BlockAddr::from_index(6);
        n.load(b, &[4; 64]);
        let (done, data) = n.read(0, b);
        assert_eq!(done, 300);
        assert_eq!(data, [4; 64]);
    }

    #[test]
    fn wpq_forwarding_serves_reads_fast() {
        let mut n = NvmmController::new(timing());
        let b = BlockAddr::from_index(7);
        n.write(0, b, [9; 64]);
        let (done, data) = n.read(10, b); // entry still queued
        assert_eq!(done, 18);
        assert_eq!(data, [9; 64]);
        assert_eq!(n.stats().get("nvmm.wpq_read_hits"), 1);
    }

    #[test]
    fn crash_image_contains_wpq_contents() {
        let mut n = NvmmController::new(timing());
        let b = BlockAddr::from_index(8);
        n.write(0, b, [0x5A; 64]);
        // Crash immediately: media write hasn't completed, but the WPQ is
        // battery backed, so the image must contain the data.
        let img = n.crash_image();
        assert_eq!(img.read_block(b), [0x5A; 64]);
        assert_eq!(n.wpq_crash_bytes(0), 64);
        assert_eq!(n.wpq_occupancy(0), 1);
    }

    #[test]
    fn wpq_drains_reduce_crash_bytes() {
        let mut n = NvmmController::new(timing());
        n.write(0, BlockAddr::from_index(1), [1; 64]);
        assert!(n.wpq_crash_bytes(0) > 0);
        assert_eq!(n.wpq_crash_bytes(10_000), 0);
    }

    #[test]
    fn endurance_skips_coalesced_writes() {
        // One write channel so queued writes can coalesce.
        let mut n = NvmmController::new(MemTiming {
            nvmm_channels: 1,
            ..timing()
        });
        // Saturate channels so later writes queue and can coalesce.
        for i in 0..8 {
            n.write(0, BlockAddr::from_index(i), [i as u8; 64]);
        }
        let before = n.endurance().total_writes();
        // Block 7 queued last; still pending => coalesce.
        n.write(1, BlockAddr::from_index(7), [0xFF; 64]);
        assert_eq!(n.endurance().total_writes(), before);
        assert_eq!(n.stats().get("wpq.coalesced"), 1);
        // Latest data still visible in crash image.
        assert_eq!(
            n.crash_image().read_block(BlockAddr::from_index(7)),
            [0xFF; 64]
        );
    }
}

impl bbb_sim::MemoryPort for DramController {
    fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
        DramController::read(self, now, block)
    }

    fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
        DramController::write(self, now, block, data)
    }

    fn rmw_block(&mut self, now: Cycle, block: BlockAddr, offset: usize, bytes: &[u8]) -> Cycle {
        let data = patched(&self.media, block, offset, bytes);
        DramController::write(self, now, block, data)
    }
}

impl bbb_sim::MemoryPort for NvmmController {
    fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
        NvmmController::read(self, now, block)
    }

    fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
        NvmmController::write(self, now, block, data).persist
    }

    fn rmw_block(&mut self, now: Cycle, block: BlockAddr, offset: usize, bytes: &[u8]) -> Cycle {
        let data = patched(&self.media, block, offset, bytes);
        NvmmController::write(self, now, block, data).persist
    }

    fn note_change(&mut self, block: BlockAddr) {
        self.changes.note(block, Change::Domain);
    }
}

/// Both controllers' read-modify-write step: `block`'s media bytes, read
/// at no media-read cost, with `bytes` laid at `offset`.
fn patched(media: &ByteStore, block: BlockAddr, offset: usize, bytes: &[u8]) -> [u8; BLOCK_BYTES] {
    assert!(offset + bytes.len() <= BLOCK_BYTES, "RMW exceeds block");
    let mut data = media.read_block(block);
    data[offset..offset + bytes.len()].copy_from_slice(bytes);
    data
}

#[cfg(test)]
mod port_tests {
    use super::*;
    use bbb_sim::MemoryPort;

    #[test]
    fn nvmm_port_write_returns_persist_point() {
        let mut n = NvmmController::new(MemTiming::default());
        let b = BlockAddr::from_index(1);
        let persist = MemoryPort::write_block(&mut n, 7, b, [1; 64]);
        assert_eq!(persist, 7, "WPQ accept, not media completion");
    }

    #[test]
    fn nvmm_port_rmw_patches_bytes_with_one_write() {
        let mut n = NvmmController::new(MemTiming::default());
        let b = BlockAddr::from_index(2);
        n.load(b, &[0xAA; 64]);
        n.rmw_block(0, b, 8, &[1, 2, 3]);
        assert_eq!(n.endurance().total_writes(), 1);
        assert_eq!(n.stats().get("nvmm.reads"), 0, "media patched directly");
        let img = n.crash_image();
        let blk = img.read_block(b);
        assert_eq!(&blk[8..11], &[1, 2, 3]);
        assert_eq!(blk[0], 0xAA);
    }

    #[test]
    fn dram_port_round_trip() {
        let mut d = DramController::new(MemTiming::default());
        let b = BlockAddr::from_index(3);
        MemoryPort::write_block(&mut d, 0, b, [5; 64]);
        let (_, data) = MemoryPort::read_block(&mut d, 0, b);
        assert_eq!(data, [5; 64]);
        d.rmw_block(0, b, 0, &[9]);
        let (_, data) = MemoryPort::read_block(&mut d, 0, b);
        assert_eq!(data[0], 9);
        assert_eq!(data[1], 5);
    }

    #[test]
    #[should_panic(expected = "RMW exceeds block")]
    fn oversized_rmw_panics() {
        let mut n = NvmmController::new(MemTiming::default());
        n.rmw_block(0, BlockAddr::from_index(0), 60, &[0; 8]);
    }
}

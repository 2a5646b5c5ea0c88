//! Differential test of the heap-ordered WPQ and channel scheduler against
//! the scan-based reference model they replaced.
//!
//! The reference below retires WPQ entries by scanning the whole queue and
//! picks a channel by scanning every channel's free cycle. The production
//! queue retires entries in completion order from a min-heap and keeps the
//! channels' free cycles in one. Both are driven with the same SplitMix64
//! offer sequences: arrival cycles come from interleaved per-core clocks, so
//! they are not monotone; blocks repeat, so writes coalesce, backpressure on
//! a full queue and replace in-flight entries. Every accept, occupancy,
//! read-forwarding probe and counter must agree.

use bbb::mem::{ChannelScheduler, WritePendingQueue};
use bbb::sim::{BlockAddr, Cycle, FxHashMap, SplitMix64, Stats};

/// The scan-based channel scheduler: the least-loaded channel, found by a
/// scan of every channel.
struct ScanScheduler {
    free_at: Vec<Cycle>,
}

impl ScanScheduler {
    fn new(channels: usize) -> Self {
        Self {
            free_at: vec![0; channels],
        }
    }

    fn schedule(&mut self, now: Cycle, latency: Cycle) -> (Cycle, Cycle) {
        let idx = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one channel");
        let start = now.max(self.free_at[idx]);
        let completion = start + latency;
        self.free_at[idx] = completion;
        (start, completion)
    }
}

struct ScanEntry {
    start: Cycle,
    completion: Cycle,
}

/// The scan-based WPQ: every purge, occupancy count and backpressure
/// minimum walks the whole queue.
struct ScanWpq {
    capacity: usize,
    entries: FxHashMap<BlockAddr, ScanEntry>,
    media_writes: u64,
    coalesced: u64,
    backpressure_events: u64,
}

impl ScanWpq {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: FxHashMap::default(),
            media_writes: 0,
            coalesced: 0,
            backpressure_events: 0,
        }
    }

    fn occupancy(&self, now: Cycle) -> usize {
        self.entries.values().filter(|e| e.completion > now).count()
    }

    /// Returns `(persist, media_completion, coalesced)`.
    fn offer(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        media: &mut ScanScheduler,
        write_latency: Cycle,
    ) -> (Cycle, Cycle, bool) {
        self.purge(now);
        let mut accept = now;
        if self.coalescable(block, now).is_none() && self.occupancy(now) >= self.capacity {
            self.backpressure_events += 1;
            accept = self
                .entries
                .values()
                .map(|e| e.completion)
                .filter(|&c| c > now)
                .min()
                .unwrap_or(now);
            self.purge(accept);
        }
        if let Some(completion) = self.coalescable(block, accept) {
            self.coalesced += 1;
            return (accept, completion, true);
        }
        let (start, completion) = media.schedule(accept, write_latency);
        self.entries.insert(block, ScanEntry { start, completion });
        self.media_writes += 1;
        (accept, completion, false)
    }

    fn coalescable(&self, block: BlockAddr, t: Cycle) -> Option<Cycle> {
        self.entries
            .get(&block)
            .filter(|e| e.start > t)
            .map(|e| e.completion)
    }

    fn holds(&self, block: BlockAddr, now: Cycle) -> bool {
        self.entries.get(&block).is_some_and(|e| e.completion > now)
    }

    fn purge(&mut self, now: Cycle) {
        self.entries.retain(|_, e| e.completion > now);
    }

    fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("wpq.media_writes", self.media_writes);
        s.set("wpq.coalesced", self.coalesced);
        s.set("wpq.backpressure_events", self.backpressure_events);
        s
    }
}

const CAPACITIES: [usize; 4] = [1, 2, 4, 64];
const CHANNELS: [usize; 3] = [1, 2, 32];
const SEEDS: u64 = 4;
const OFFERS: usize = 3000;
const CORES: usize = 4;

/// Drives both queues through one offer sequence, checking every outcome.
/// Returns the number of coalesced, backpressured and replacing offers.
fn run_sequence(capacity: usize, channels: usize, seed: u64) -> (u64, u64, u64) {
    let mut rng = SplitMix64::new(seed ^ ((capacity as u64) << 32) ^ channels as u64);
    let mut wpq = WritePendingQueue::new(capacity);
    let mut media = ChannelScheduler::new(channels);
    let mut reference = ScanWpq::new(capacity);
    let mut ref_media = ScanScheduler::new(channels);
    // A pool a little larger than the queue, so blocks repeat while queued.
    let pool = capacity as u64 + 3;
    // Most runs use one write latency, as the controller does; odd seeds
    // vary it per offer, so a replacing entry can complete before the one
    // it replaced.
    let latency = |rng: &mut SplitMix64| {
        if seed.is_multiple_of(2) {
            1000
        } else {
            200 + 200 * rng.next_below(5)
        }
    };
    let mut clocks = [0 as Cycle; CORES];
    let mut replaced = 0u64;
    for i in 0..OFFERS {
        // Alternate bursts that fill the queue with idle spells that drain
        // it.
        let step = if (i / 500) % 2 == 0 { 400 } else { 20 };
        let core = rng.next_index(CORES);
        clocks[core] += rng.next_below(step);
        let now = clocks[core];
        let block = BlockAddr::from_index(rng.next_below(pool));
        let write_latency = latency(&mut rng);
        let in_flight = reference
            .entries
            .get(&block)
            .is_some_and(|e| e.start <= now && e.completion > now);
        let got = wpq.offer(now, block, &mut media, write_latency);
        let want = reference.offer(now, block, &mut ref_media, write_latency);
        let ctx = format!("capacity {capacity}, channels {channels}, seed {seed}, offer {i}");
        assert_eq!(
            (got.persist, got.media_completion, got.coalesced),
            want,
            "accept differs: {ctx}"
        );
        if in_flight && !got.coalesced {
            replaced += 1;
        }
        // Probe at a cycle around any core's clock, past or future.
        let t = clocks[rng.next_index(CORES)] + rng.next_below(3000);
        let t = t.saturating_sub(1500);
        assert_eq!(wpq.occupancy(t), reference.occupancy(t), "occupancy: {ctx}");
        let probe = BlockAddr::from_index(rng.next_below(pool));
        assert_eq!(
            wpq.holds(probe, t),
            reference.holds(probe, t),
            "holds: {ctx}"
        );
        assert_eq!(
            wpq.crash_drain_bytes(t),
            reference.occupancy(t) as u64 * 64,
            "crash drain: {ctx}"
        );
        assert_eq!(wpq.stats(), reference.stats(), "stats: {ctx}");
    }
    let s = reference.stats();
    (
        s.get("wpq.coalesced"),
        s.get("wpq.backpressure_events"),
        replaced,
    )
}

#[test]
fn heap_wpq_matches_the_scan_reference() {
    for capacity in CAPACITIES {
        for channels in CHANNELS {
            let mut totals = (0, 0, 0);
            for seed in 0..SEEDS {
                let (c, b, r) = run_sequence(capacity, channels, seed);
                totals = (totals.0 + c, totals.1 + b, totals.2 + r);
            }
            // The sequences must reach the paths they are meant to test.
            let (coalesced, backpressure, replaced) = totals;
            assert!(
                backpressure > 0,
                "capacity {capacity}, channels {channels}: no backpressure"
            );
            if capacity > 1 || channels > 1 {
                assert!(
                    coalesced > 0,
                    "capacity {capacity}, channels {channels}: no coalesce"
                );
            }
            assert!(
                replaced > 0,
                "capacity {capacity}, channels {channels}: no replaced in-flight entry"
            );
        }
    }
}

#[test]
fn heap_scheduler_matches_the_scan_reference() {
    for channels in CHANNELS {
        for seed in 0..SEEDS {
            let mut rng = SplitMix64::new(seed);
            let mut heap = ChannelScheduler::new(channels);
            let mut scan = ScanScheduler::new(channels);
            let mut clocks = [0 as Cycle; CORES];
            for i in 0..OFFERS {
                let core = rng.next_index(CORES);
                clocks[core] += rng.next_below(200);
                let latency = 1 + rng.next_below(1000);
                assert_eq!(
                    heap.schedule(clocks[core], latency),
                    scan.schedule(clocks[core], latency),
                    "channels {channels}, seed {seed}, request {i}"
                );
            }
        }
    }
}

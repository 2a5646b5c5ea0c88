//! Durable write-ahead log at server scale (extension).
//!
//! Each core owns one log shard per tenant; an append writes a 64-byte
//! record (three payload words, then a self-identifying header word
//! published last within the line), and a *group commit* publishes the
//! shard's head counter once every [`WalSpec::group`] appends — the
//! classic WAL amortization that batters flush-based persistency far
//! less than it does BBB, because under BBB every record store is already
//! durable at commit and the head publish is just one more store.
//!
//! When a ring fills, the shard *truncates*: the tail counter jumps
//! forward by half the ring before the overwriting append — a recovery
//! consumer is promised only records in `[tail, head)`. Program order
//! (tail store → overwriting record stores → later head store) makes the
//! promise crash-safe under any suffix-loss persistency discipline.
//!
//! Tenant choice per append is Zipfian (hot logs), arrivals are bursty,
//! and state is O(shards). Each append, and the end-of-stream head
//! flush, is one [`Workload`] batch, as for
//! [`KvWorkload`](crate::kv::KvWorkload).

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, NvmImage};
use bbb_sim::{Addr, SplitMix64, ZipfSampler};

use crate::kv::{mix64, open_request, push_store};

/// High-bits tag folded into record header words (`"WALB"`-ish).
pub const WAL_TAG: u64 = 0x5741_4C42_0000_0000;

/// Bytes per record slot and per shard header block.
pub const REC_BYTES: u64 = 64;

/// Payload words per record (at +8, +16, +24 within the record line).
pub const REC_PAYLOAD_WORDS: u64 = 3;

/// Log-shard geometry shared by the workload and the recovery checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalLayout {
    /// First shard-header address (block-aligned).
    pub base: Addr,
    /// Cores (each owns `tenants` shards).
    pub cores: usize,
    /// Log shards per core.
    pub tenants: usize,
    /// Record slots per shard ring (power of two).
    pub ring_records: u64,
}

impl WalLayout {
    /// Lays out `cores × tenants` shards starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics unless `ring_records` is a power of two ≥ 4 and the shard
    /// counts are nonzero.
    #[must_use]
    pub fn new(base: Addr, cores: usize, tenants: usize, ring_records: u64) -> Self {
        assert!(cores > 0 && tenants > 0, "empty shard grid");
        assert!(
            ring_records.is_power_of_two() && ring_records >= 4,
            "ring must be a power of two >= 4"
        );
        Self {
            base: base.next_multiple_of(REC_BYTES),
            cores,
            tenants,
            ring_records,
        }
    }

    /// Shards in total.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.cores * self.tenants
    }

    /// Bytes per shard: header block + ring.
    #[must_use]
    pub fn shard_bytes(&self) -> u64 {
        (1 + self.ring_records) * REC_BYTES
    }

    /// Total bytes of log storage.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.shards() as u64 * self.shard_bytes()
    }

    /// Shard id of `(core, tenant)`.
    #[must_use]
    pub fn shard(&self, core: usize, tenant: usize) -> usize {
        core * self.tenants + tenant
    }

    /// Address of a shard's header block (head at +0, tail at +8).
    #[must_use]
    pub fn header_addr(&self, shard: usize) -> Addr {
        self.base + shard as u64 * self.shard_bytes()
    }

    /// Address of the record slot `seq` occupies in `shard`'s ring.
    #[must_use]
    pub fn record_addr(&self, shard: usize, seq: u64) -> Addr {
        self.header_addr(shard) + REC_BYTES + (seq & (self.ring_records - 1)) * REC_BYTES
    }

    /// Expected header word of record `seq` in `shard` (published last
    /// within the record line).
    #[must_use]
    pub fn record_header(&self, shard: usize, seq: u64) -> u64 {
        WAL_TAG ^ mix64((shard as u64).rotate_left(40) ^ seq)
    }

    /// Expected payload word `i` of record `seq` in `shard`.
    #[must_use]
    pub fn record_payload(&self, shard: usize, seq: u64, i: u64) -> u64 {
        mix64(((shard as u64) << 44) ^ (seq << 4) ^ (i + 1))
    }
}

/// Construction parameters for [`WalWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct WalSpec {
    /// Log shards per core.
    pub tenants: usize,
    /// Record slots per ring (power of two; must exceed `2 × group`).
    pub ring_records: u64,
    /// Appends between head publishes (group commit size).
    pub group: u64,
    /// Appends each core performs before its stream ends.
    pub per_core_appends: u64,
    /// Zipf exponent over tenants (hot logs).
    pub zipf_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Emit `clwb`+`sfence` after each persisting store (PMEM baseline).
    pub instrument: bool,
}

/// The server-scale WAL workload. See module docs.
#[derive(Debug)]
pub struct WalWorkload {
    layout: WalLayout,
    spec: WalSpec,
    zipf: ZipfSampler,
    // Per-core generation state.
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    burst_left: Vec<u64>,
    // Per-shard state (a shard is written only by its owning core).
    seq: Vec<u64>,
    tail: Vec<u64>,
    pending: Vec<u64>,
}

impl WalWorkload {
    /// Builds the workload for `layout.cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the ring cannot hold two truncation windows of `group`
    /// appends.
    #[must_use]
    pub fn new(layout: WalLayout, spec: WalSpec) -> Self {
        assert_eq!(layout.tenants, spec.tenants, "layout/spec tenant mismatch");
        assert!(spec.group >= 1, "group commit of zero appends");
        assert!(
            layout.ring_records / 2 > spec.group,
            "ring too small for group commit + truncation"
        );
        let mut master = SplitMix64::new(spec.seed);
        let rngs = (0..layout.cores).map(|_| master.split()).collect();
        Self {
            zipf: ZipfSampler::new(spec.tenants as u64, spec.zipf_s),
            rngs,
            remaining: vec![spec.per_core_appends; layout.cores],
            burst_left: vec![0; layout.cores],
            seq: vec![0; layout.shards()],
            tail: vec![0; layout.shards()],
            pending: vec![0; layout.shards()],
            layout,
            spec,
        }
    }

    /// The shard geometry (for recovery checks and reports).
    #[must_use]
    pub fn layout(&self) -> WalLayout {
        self.layout
    }

    /// The ops of one append by `core` (tenant chosen Zipfian).
    fn generate_append(&mut self, core: usize) -> Vec<Op> {
        let mut ops = open_request(&mut self.rngs[core], &mut self.burst_left[core]);
        let instrument = self.spec.instrument;

        let tenant = self.zipf.sample(&mut self.rngs[core]) as usize;
        let shard = self.layout.shard(core, tenant);
        let seq = self.seq[shard];
        let header = self.layout.header_addr(shard);

        // Truncate before the ring wraps onto an in-window record. The
        // tail store precedes the overwriting record stores in program
        // order, so `[tail, head)` never spans a clobbered slot.
        if seq - self.tail[shard] == self.layout.ring_records {
            let new_tail = seq - self.layout.ring_records / 2;
            self.tail[shard] = new_tail;
            push_store(&mut ops, instrument, header + 8, new_tail);
        }

        // Record body first, self-identifying header word last.
        let rec = self.layout.record_addr(shard, seq);
        for i in 0..REC_PAYLOAD_WORDS {
            let word = self.layout.record_payload(shard, seq, i);
            push_store(&mut ops, instrument, rec + 8 + i * 8, word);
        }
        let word = self.layout.record_header(shard, seq);
        push_store(&mut ops, instrument, rec, word);
        self.seq[shard] = seq + 1;
        self.pending[shard] += 1;

        // Group commit: publish the head every `group` appends.
        if self.pending[shard] >= self.spec.group {
            self.pending[shard] = 0;
            push_store(&mut ops, instrument, header, seq + 1);
        }
        ops
    }

    /// End-of-stream flush: the stores publishing `core`'s unpublished
    /// heads, none when every head is published.
    fn generate_final_flush(&mut self, core: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for tenant in 0..self.layout.tenants {
            let shard = self.layout.shard(core, tenant);
            if self.pending[shard] > 0 {
                self.pending[shard] = 0;
                let header = self.layout.header_addr(shard);
                push_store(&mut ops, self.spec.instrument, header, self.seq[shard]);
            }
        }
        ops
    }
}

impl Workload for WalWorkload {
    fn name(&self) -> &str {
        "wal"
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        // Zeroed heads/tails are the real initial state; touching them in
        // the architectural store just makes that explicit.
        for shard in 0..self.layout.shards() {
            let header = self.layout.header_addr(shard);
            arch.write_u64(header, 0);
            arch.write_u64(header + 8, 0);
        }
    }

    /// Each append, then the final flush unless it is empty. The flush
    /// leaves every head published, so a later call finds it empty too.
    fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
        if self.remaining[core] > 0 {
            self.remaining[core] -= 1;
            return Some(self.generate_append(core));
        }
        let flush = self.generate_final_flush(core);
        (!flush.is_empty()).then_some(flush)
    }
}

/// Verifies a post-crash image against the WAL contract: for every
/// shard, `tail ≤ head`, the window fits the ring, and every record in
/// `[tail, head)` is intact (header and payload words exact). Returns
/// the total number of recovered records across shards.
///
/// # Errors
///
/// Returns a description of the first violated shard — expected for
/// uninstrumented PMEM images, never for battery-backed modes.
pub fn check_wal_recovery(image: &NvmImage, layout: &WalLayout) -> Result<u64, String> {
    let mut recovered = 0u64;
    for shard in 0..layout.shards() {
        let header = layout.header_addr(shard);
        let head = image.read_u64(header);
        let tail = image.read_u64(header + 8);
        if tail > head {
            return Err(format!("shard {shard}: tail {tail} ahead of head {head}"));
        }
        if head - tail > layout.ring_records {
            return Err(format!(
                "shard {shard}: window {tail}..{head} exceeds ring {}",
                layout.ring_records
            ));
        }
        for seq in tail..head {
            let rec = layout.record_addr(shard, seq);
            let got = image.read_u64(rec);
            if got != layout.record_header(shard, seq) {
                return Err(format!(
                    "shard {shard}: record {seq} header {got:#x} corrupt at {rec:#x}"
                ));
            }
            for i in 0..REC_PAYLOAD_WORDS {
                let got = image.read_u64(rec + 8 + i * 8);
                if got != layout.record_payload(shard, seq, i) {
                    return Err(format!(
                        "shard {shard}: record {seq} payload word {i} corrupt"
                    ));
                }
            }
            recovered += 1;
        }
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::{AddressMap, SimConfig};

    fn small_setup(cfg: &SimConfig) -> (WalLayout, WalSpec) {
        let map = AddressMap::new(cfg);
        let layout = WalLayout::new(map.persistent_base(), cfg.cores, 4, 32);
        let spec = WalSpec {
            tenants: 4,
            ring_records: 32,
            group: 8,
            per_core_appends: 200,
            zipf_s: 0.99,
            seed: 0xB0B,
            instrument: false,
        };
        (layout, spec)
    }

    #[test]
    fn layout_shards_do_not_overlap() {
        let layout = WalLayout::new(0x1000, 2, 3, 8);
        let mut ends = Vec::new();
        for s in 0..layout.shards() {
            let lo = layout.header_addr(s);
            let hi = layout.record_addr(s, layout.ring_records - 1) + REC_BYTES;
            ends.push((lo, hi));
            assert_eq!(hi - lo, layout.shard_bytes());
        }
        for w in ends.windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn appends_truncate_and_recover_under_bbb() {
        let cfg = SimConfig::small_for_tests();
        let (layout, spec) = small_setup(&cfg);
        let mut wal = WalWorkload::new(layout, spec);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(&mut wal);
        let summary = sys.run(&mut wal, u64::MAX);
        assert!(summary.completed);
        // 200 appends over rings of 32 must have truncated at least once.
        assert!(wal.tail.iter().any(|&t| t > 0), "no shard truncated");
        sys.drain_all_store_buffers();
        let img = sys.crash_now();
        let n = check_wal_recovery(&img, &layout).expect("consistent");
        // After the final flush every shard exposes its full window.
        let expect: u64 = (0..layout.shards()).map(|s| wal.seq[s] - wal.tail[s]).sum();
        assert_eq!(n, expect);
        assert!(n > 0);
    }

    #[test]
    fn group_commit_bounds_unpublished_window_mid_run() {
        let cfg = SimConfig::small_for_tests();
        let (layout, spec) = small_setup(&cfg);
        let mut wal = WalWorkload::new(layout, spec);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(&mut wal);
        // Stop mid-run: published heads may lag seq by at most `group`
        // (plus whatever sits uncommitted in store buffers).
        sys.run(&mut wal, 300);
        let img = sys.crash_now();
        let n = check_wal_recovery(&img, &layout).expect("mid-run image consistent");
        let published: u64 = (0..layout.shards())
            .map(|s| img.read_u64(layout.header_addr(s)))
            .sum();
        assert_eq!(
            n,
            published
                - (0..layout.shards())
                    .map(|s| img.read_u64(layout.header_addr(s) + 8))
                    .sum::<u64>()
        );
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        let cfg = SimConfig::small_for_tests();
        let (layout, spec) = small_setup(&cfg);
        let run = || {
            let mut wal = WalWorkload::new(layout, spec);
            let mut sys = System::new(cfg.clone(), PersistencyMode::BbbProcessorSide).unwrap();
            sys.prepare(&mut wal);
            sys.run(&mut wal, u64::MAX);
            sys.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn instrumented_run_recovers_under_pmem() {
        let cfg = SimConfig::small_for_tests();
        let (layout, mut spec) = small_setup(&cfg);
        spec.instrument = true;
        spec.per_core_appends = 60;
        let mut wal = WalWorkload::new(layout, spec);
        let mut sys = System::new(cfg, PersistencyMode::Pmem).unwrap();
        sys.prepare(&mut wal);
        sys.run(&mut wal, u64::MAX);
        sys.drain_all_store_buffers();
        let img = sys.crash_now();
        check_wal_recovery(&img, &layout).expect("instrumented pmem log consistent");
    }
}

//! The pstore log-append workload: `bbb-pstore`'s SPSC ring run on the
//! simulated machine, so crashfuzz can crash-sweep every store boundary
//! of the ring protocol itself.
//!
//! Core 0 is the producer (grant → fill → commit, one committed grant per
//! measured op), core 1 the consumer (grant_read → release, trimming the
//! window whenever it grows past half the ring so the ring wraps many
//! times per run); on a single-core machine one core alternates the two
//! roles. All protocol state lives in the simulated persistent heap,
//! reached through [`SimBacking`] — an engine that turns every
//! [`PBacking`] access into simulator ops: reads load *committed*
//! architectural memory, writes emit stores the simulator applies at
//! commit, and the shim's barriers become `clwb`/`sfence` ops. Under
//! BBB/eADR the shim is [`Discipline::BufferBacked`] and the op stream
//! provably contains no flush and no fence (the `bbb-check` trace audit
//! asserts exactly that); under instrumented PMEM it is
//! [`Discipline::FlushFence`]; under BEP the suite's epoch wrapper
//! appends the per-batch epoch fence.
//!
//! Recovery ([`check_pstore_recovery`]) runs the crate's real
//! [`recover`] over the crash image and then checks every surviving
//! payload byte against the seed-derived expected contents: the reader
//! must observe a *prefix of committed grants* — never torn, reordered,
//! or stale-lap bytes. The recovered count is the committed-sequence
//! watermark, which grows monotonically with appends — exactly what the
//! sweep's strict battery-dropped oracle needs.

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, NvmImage};
use bbb_pstore::{
    recover, Discipline, GrantError, PBacking, RingReader, RingWriter, COMMIT_SEQ_OFF,
    COMMIT_WATERMARK_OFF, MAGIC_OFF, MAX_PAYLOAD_BYTES, PSTORE_MAGIC, READ_MARK_OFF, READ_PUB_OFF,
};
use bbb_sim::{Addr, SplitMix64};

/// Ring data capacity used on the simulator: small enough that a smoke
/// run laps the ring several times (wraparound pads, space reclaim and
/// the release protocol all get exercised), large enough for dozens of
/// live records.
pub const SIM_RING_CAPACITY: u64 = 1024;

/// Compute cycles a poll batch burns while the ring is full (producer)
/// or quiet (consumer).
const POLL_CYCLES: u32 = 24;

/// A [`PBacking`] engine over the simulated machine: reads consult
/// committed architectural memory and emit load ops; writes emit store
/// ops (applied by the simulator at commit, never at generation time);
/// `persist` emits one `clwb` per block plus an `sfence`.
#[derive(Debug)]
pub struct SimBacking<'a> {
    arch: &'a ByteStore,
    base: Addr,
    ops: Vec<Op>,
}

impl<'a> SimBacking<'a> {
    /// An engine addressing the ring at `base` (64-byte aligned) in
    /// `arch`.
    #[must_use]
    pub fn new(arch: &'a ByteStore, base: Addr) -> Self {
        debug_assert_eq!(base % 64, 0, "ring base must be block aligned");
        Self {
            arch,
            base,
            ops: Vec::new(),
        }
    }

    /// The op sequence this engine's accesses generated.
    #[must_use]
    pub fn finish(self) -> Vec<Op> {
        self.ops
    }
}

impl PBacking for SimBacking<'_> {
    fn read_u64(&mut self, off: u64) -> Result<u64, String> {
        self.ops.push(Op::load_u64(self.base + off));
        Ok(self.arch.read_u64(self.base + off))
    }

    fn write_u64(&mut self, off: u64, value: u64) -> Result<(), String> {
        self.ops.push(Op::store_u64(self.base + off, value));
        Ok(())
    }

    fn persist(&mut self, blocks: &[u64]) -> Result<(), String> {
        for &b in blocks {
            self.ops.push(Op::Clwb {
                addr: self.base + b * 64,
            });
        }
        self.ops.push(Op::Fence);
        Ok(())
    }
}

/// Payload length for sequence `seq` under `seed`: 8..=32 bytes, a
/// deterministic function both the producer and the checker compute.
#[must_use]
pub fn payload_len(seed: u64, seq: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let len = 8 * (1 + r.next_below(4));
    debug_assert!(len <= MAX_PAYLOAD_BYTES);
    len
}

/// The expected payload bytes of sequence `seq` under `seed`.
#[must_use]
pub fn expected_payload(seed: u64, seq: u64) -> Vec<u8> {
    let len = payload_len(seed, seq);
    let mut r = SplitMix64::new(seed ^ seq.rotate_left(31));
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out
}

/// The SPSC ring protocol as a simulator workload.
#[derive(Debug)]
pub struct PstoreLogWorkload {
    base: Addr,
    capacity: u64,
    seed: u64,
    cores: usize,
    writer: RingWriter,
    reader: RingReader,
    appends_remaining: u64,
}

impl PstoreLogWorkload {
    /// A workload appending `appends` records under `seed` at ring base
    /// `base`, instrumented per `discipline`.
    #[must_use]
    pub fn new(base: Addr, cores: usize, appends: u64, seed: u64, discipline: Discipline) -> Self {
        // The writer/reader protocol objects carry only volatile mirrors
        // (watermark, next seq, read mark); formatting a scratch backing
        // positions them exactly as a fresh ring leaves them. The
        // persistent header itself is written by `setup`.
        let mut scratch =
            bbb_pstore::MemBacking::new(bbb_pstore::backing_len(SIM_RING_CAPACITY) as usize);
        let writer = RingWriter::create(&mut scratch, SIM_RING_CAPACITY, discipline)
            .expect("fresh scratch ring");
        let reader = RingReader::attach(&mut scratch, discipline).expect("fresh scratch ring");
        Self {
            base,
            capacity: SIM_RING_CAPACITY,
            seed,
            cores,
            writer,
            reader,
            appends_remaining: appends,
        }
    }

    fn producer_batch(&mut self, arch: &ByteStore) -> Option<Vec<Op>> {
        if self.appends_remaining == 0 {
            return None;
        }
        let mut b = SimBacking::new(arch, self.base);
        self.try_append(&mut b);
        Some(b.finish())
    }

    /// Appends one record if space is published, else leaves a poll op
    /// sequence in `b`. The grant's `read_pub` load is the poll load.
    fn try_append(&mut self, b: &mut SimBacking<'_>) {
        let seq = self.writer.next_seq();
        let len = payload_len(self.seed, seq);
        match self.writer.grant_write(b, len) {
            Ok(mut grant) => {
                grant
                    .payload
                    .copy_from_slice(&expected_payload(self.seed, seq));
                self.writer
                    .commit(b, &grant)
                    .expect("sim backing never fails");
                self.appends_remaining -= 1;
            }
            Err(GrantError::WouldBlock) => b.ops.push(Op::Compute {
                cycles: POLL_CYCLES,
            }),
            Err(e) => panic!("pstore grant: {e}"),
        }
    }

    /// Trims the window down to a quarter of the ring, releasing whole
    /// records. Returns false when nothing needed trimming.
    fn try_trim(&mut self, b: &mut SimBacking<'_>, live: u64) -> bool {
        if live <= self.capacity / 2 {
            return false;
        }
        let records = self.reader.grant_read(b).expect("committed window parses");
        let mut bytes = 0;
        for r in &records {
            if live - bytes <= self.capacity / 4 {
                break;
            }
            bytes += r.span;
        }
        self.reader
            .release_mark(b, bytes)
            .expect("sim backing never fails");
        true
    }

    fn consumer_batch(&mut self, arch: &ByteStore) -> Option<Vec<Op>> {
        let mut b = SimBacking::new(arch, self.base);
        if self.reader.marked_unpublished() {
            self.reader
                .release_publish(&mut b)
                .expect("sim backing never fails");
            return Some(b.finish());
        }
        let committed_off = b
            .read_u64(COMMIT_WATERMARK_OFF)
            .expect("sim backing never fails");
        let live = committed_off - self.reader.read_off();
        if self.try_trim(&mut b, live) {
            return Some(b.finish());
        }
        if self.appends_remaining > 0 {
            // Producer still generating: stay alive and poll.
            b.ops.push(Op::Compute {
                cycles: POLL_CYCLES,
            });
            return Some(b.finish());
        }
        None
    }

    fn single_core_batch(&mut self, arch: &ByteStore) -> Option<Vec<Op>> {
        let mut b = SimBacking::new(arch, self.base);
        if self.reader.marked_unpublished() {
            self.reader
                .release_publish(&mut b)
                .expect("sim backing never fails");
            return Some(b.finish());
        }
        let committed_off = b
            .read_u64(COMMIT_WATERMARK_OFF)
            .expect("sim backing never fails");
        let live = committed_off - self.reader.read_off();
        if self.try_trim(&mut b, live) {
            return Some(b.finish());
        }
        if self.appends_remaining == 0 {
            return None;
        }
        self.try_append(&mut b);
        Some(b.finish())
    }
}

impl Workload for PstoreLogWorkload {
    fn name(&self) -> &str {
        "pstore"
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        // Format the persistent header (the state `RingWriter::create`
        // leaves); `System::prepare` syncs it into NVMM media.
        arch.write_u64(self.base + MAGIC_OFF, PSTORE_MAGIC);
        arch.write_u64(self.base + MAGIC_OFF + 8, self.capacity);
        for off in [
            COMMIT_WATERMARK_OFF,
            COMMIT_SEQ_OFF,
            READ_MARK_OFF,
            READ_PUB_OFF,
        ] {
            arch.write_u64(self.base + off, 0);
        }
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        if self.cores == 1 {
            return match core {
                0 => self.single_core_batch(arch),
                _ => None,
            };
        }
        match core {
            0 => self.producer_batch(arch),
            1 => self.consumer_batch(arch),
            _ => None,
        }
    }
}

/// Verifies a post-crash image of the pstore ring: structural recovery
/// via the crate's [`recover`], then payload-content verification of
/// every surviving record against the seed-derived expected bytes.
/// Returns the committed-sequence watermark (monotone in appends).
///
/// # Errors
///
/// The first structural or content inconsistency.
pub fn check_pstore_recovery(image: &NvmImage, base: Addr, seed: u64) -> Result<u64, String> {
    struct ImgBacking<'a> {
        image: bbb_mem::ImageReader<'a>,
        base: Addr,
    }
    impl PBacking for ImgBacking<'_> {
        fn read_u64(&mut self, off: u64) -> Result<u64, String> {
            let addr = self.base.checked_add(off);
            let addr = addr.ok_or_else(|| format!("read past the address space: off {off}"))?;
            Ok(self.image.read_u64(addr))
        }
        fn write_u64(&mut self, _off: u64, _v: u64) -> Result<(), String> {
            Err("crash image is read-only".into())
        }
        fn persist(&mut self, _blocks: &[u64]) -> Result<(), String> {
            Err("crash image is read-only".into())
        }
    }
    let mut backing = ImgBacking {
        image: image.reader(),
        base,
    };
    let snap = recover(&mut backing)?;
    for r in &snap.records {
        let expected = expected_payload(seed, r.seq);
        if r.payload != expected {
            return Err(format!(
                "record seq {} holds foreign payload ({} bytes)",
                r.seq,
                r.payload.len()
            ));
        }
    }
    Ok(snap.committed_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{make_workload, verify_recovery, WorkloadKind, WorkloadParams};
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    #[test]
    fn payload_functions_are_deterministic_and_sized() {
        for seq in 1..50 {
            let a = expected_payload(7, seq);
            let b = expected_payload(7, seq);
            assert_eq!(a, b);
            assert_eq!(a.len() as u64, payload_len(7, seq));
            assert!(a.len() >= 8 && a.len() <= 32);
            assert_eq!(a.len() % 8, 0);
        }
        assert_ne!(expected_payload(7, 1), expected_payload(7, 2));
        assert_ne!(expected_payload(7, 1), expected_payload(8, 1));
    }

    #[test]
    fn two_core_run_commits_and_recovers_every_append() {
        let cfg = SimConfig::small_for_tests();
        let params = WorkloadParams::smoke();
        let mut w = make_workload(WorkloadKind::PstoreLog, &cfg, params);
        let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(w.as_mut());
        let summary = sys.run(w.as_mut(), u64::MAX);
        assert!(summary.completed, "producer and consumer both finish");
        let img = sys.crash_now();
        let n = verify_recovery(WorkloadKind::PstoreLog, &img, &cfg, params).unwrap();
        assert_eq!(
            n, params.per_core_ops,
            "every committed append survives a battery-backed crash"
        );
        sys.check_invariants();
    }

    #[test]
    fn single_core_run_laps_the_ring() {
        let mut cfg = SimConfig::small_for_tests();
        cfg.cores = 1;
        let params = WorkloadParams::smoke();
        let mut w = make_workload(WorkloadKind::PstoreLog, &cfg, params);
        let mut sys = System::new(cfg.clone(), PersistencyMode::Eadr).unwrap();
        sys.prepare(w.as_mut());
        let summary = sys.run(w.as_mut(), u64::MAX);
        assert!(summary.completed);
        let img = sys.crash_now();
        let n = verify_recovery(WorkloadKind::PstoreLog, &img, &cfg, params).unwrap();
        assert_eq!(n, params.per_core_ops);
        // 64 appends of ≥24-byte spans through a 1 KiB ring: wrapped.
        assert!(
            params.per_core_ops * 24 > SIM_RING_CAPACITY,
            "smoke scale must lap the ring"
        );
    }

    #[test]
    fn bbb_op_stream_has_no_flush_and_no_fence() {
        let cfg = SimConfig::small_for_tests();
        let params = WorkloadParams::smoke();
        let mut w = make_workload(WorkloadKind::PstoreLog, &cfg, params);
        let mut arch = ByteStore::new();
        w.setup(&mut arch);
        let mut total = 0usize;
        for _ in 0..2000 {
            let mut progressed = false;
            for core in 0..cfg.cores {
                if let Some(batch) = w.next_batch(core, &mut arch) {
                    progressed = true;
                    for op in &batch {
                        assert!(
                            !matches!(op, Op::Clwb { .. } | Op::Fence),
                            "BBB commit path must be plain loads/stores"
                        );
                        // Apply stores so the protocol advances (the
                        // simulator normally does this at commit).
                        if let Op::Store { addr, size, bytes } = op {
                            arch.write(*addr, &bytes[..*size as usize]);
                        }
                    }
                    total += batch.len();
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(total > 500, "protocol ran");
    }

    #[test]
    fn instrumented_stream_flushes_and_fences() {
        let cfg = SimConfig::small_for_tests();
        let mut params = WorkloadParams::smoke();
        params.instrument = true;
        let mut w = make_workload(WorkloadKind::PstoreLog, &cfg, params);
        let mut arch = ByteStore::new();
        w.setup(&mut arch);
        let batch = w.next_batch(0, &mut arch).expect("first append");
        assert!(
            batch.iter().any(|op| matches!(op, Op::Clwb { .. })),
            "strict PMEM commit must flush"
        );
        assert_eq!(
            batch.iter().filter(|op| matches!(op, Op::Fence)).count(),
            2,
            "data barrier and publish barrier"
        );
    }
}

//! The SPSC persistent ring: header layout, grant state machine, commit
//! and release paths.
//!
//! ## Layout (ring-relative offsets, one live word per 64-byte block)
//!
//! ```text
//! +0    MAGIC_OFF             magic          | +8 capacity
//! +64   COMMIT_WATERMARK_OFF  committed_off  | +72 committed_seq
//! +128  READ_MARK_OFF         read_off       (consumer, persist-first)
//! +192  READ_PUB_OFF          read_pub       (consumer, publish-second)
//! +256  DATA_OFF              capacity bytes of record storage
//! ```
//!
//! Offsets are *monotone*: `committed_off`, `read_off`, and `read_pub`
//! only grow; a record's storage position is `off % capacity`. Each live
//! header word owns its own cache block so no two protocol words can tear
//! together (the `committed_off`/`committed_seq` pair shares block 1 by
//! design — they form one watermark and are validated against each other
//! at recovery).
//!
//! ## Record framing
//!
//! `word0 = len (low 32) | cksum (high 32)`, then `seq`, then `len`
//! payload bytes (8-aligned; a record never straddles the capacity
//! boundary — a `PAD` word fills the lap tail instead).
//!
//! ## Ordering points
//!
//! A commit is exactly two [`FlushShim::barrier`]s: *data barrier* (pad +
//! payload + seq + word0 durable before the watermark moves) then
//! *publish barrier* (watermark durable before the producer may reuse
//! released space it unlocks). A release mirrors it: `read_off` is marked
//! and made durable *before* `read_pub` is published, so any space the
//! producer overwrites is provably recorded as consumed in the persistent
//! image — the recovery parse can never walk into recycled bytes.

use crate::backing::PBacking;
use crate::recover::{parse_window, recover, Record};
use crate::shim::{Discipline, FlushShim};
use crate::GrantError;

/// Header offset of the magic word (`+8`: capacity).
pub const MAGIC_OFF: u64 = 0;
/// Header offset of the committed-grant watermark.
pub const COMMIT_WATERMARK_OFF: u64 = 64;
/// Header offset of the last committed sequence number (same block as the
/// watermark: one logical word pair).
pub const COMMIT_SEQ_OFF: u64 = 72;
/// Header offset of the consumer's durable consumption mark.
pub const READ_MARK_OFF: u64 = 128;
/// Header offset of the consumer's space-release publication.
pub const READ_PUB_OFF: u64 = 192;
/// First data byte; the data area is `capacity` bytes.
pub const DATA_OFF: u64 = 256;

/// Identifies a bbb-pstore ring (version 1).
pub const PSTORE_MAGIC: u64 = 0x4242_4250_5354_5231; // "BBPSTR1"

/// Largest payload a single grant may carry.
pub const MAX_PAYLOAD_BYTES: u64 = 256;

/// The lap-tail filler: a `word0` of all ones marks the rest of the lap
/// as dead space.
pub(crate) const PAD_WORD: u64 = u64::MAX;

/// Bytes of framing before the payload (`word0` + `seq`).
pub(crate) const RECORD_HEADER_BYTES: u64 = 16;

fn mix64(mut x: u64) -> u64 {
    // SplitMix64 finalizer: full-avalanche, dependency-free.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The record checksum: seq-seeded fold over the payload words, so a
/// stale payload under a fresh header (or vice versa) cannot verify.
#[must_use]
pub(crate) fn record_cksum(seq: u64, payload: &[u8]) -> u32 {
    let mut h = mix64(seq ^ 0x9E37_79B9_7F4A_7C15);
    for chunk in payload.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(w));
    }
    (h ^ (h >> 32)) as u32
}

/// Backing address of monotone data offset `off`.
pub(crate) fn data_addr(capacity: u64, off: u64) -> u64 {
    DATA_OFF + off % capacity
}

/// Storage footprint of a ring with `capacity` data bytes.
#[must_use]
pub fn backing_len(capacity: u64) -> u64 {
    DATA_OFF + capacity
}

/// True when a complete, checksum-valid record carrying exactly `seq`
/// sits at data offset `off` — the shape a mid-commit crash leaves just
/// past the stale watermark (its data barrier ran; the watermark store
/// did not). Tolerates the lap-tail pad the commit may have laid first.
fn orphan_record_at<B: PBacking>(
    backing: &mut B,
    capacity: u64,
    off: u64,
    seq: u64,
) -> Result<bool, String> {
    if seq == 0 {
        return Ok(false);
    }
    let mut off = off;
    let mut word0 = backing.read_u64(data_addr(capacity, off))?;
    let rem = capacity - off % capacity;
    if word0 == PAD_WORD && rem < capacity {
        let Some(next) = off.checked_add(rem) else {
            return Ok(false);
        };
        off = next;
        word0 = backing.read_u64(data_addr(capacity, off))?;
    }
    let len = word0 & 0xFFFF_FFFF;
    let cksum = (word0 >> 32) as u32;
    if len == 0 || !len.is_multiple_of(8) || len > MAX_PAYLOAD_BYTES {
        return Ok(false);
    }
    if RECORD_HEADER_BYTES + len > capacity - off % capacity
        || off.checked_add(RECORD_HEADER_BYTES + len).is_none()
    {
        return Ok(false);
    }
    if backing.read_u64(data_addr(capacity, off + 8))? != seq {
        return Ok(false);
    }
    let mut payload = vec![0u8; len as usize];
    for (i, chunk) in payload.chunks_mut(8).enumerate() {
        let w = backing.read_u64(data_addr(
            capacity,
            off + RECORD_HEADER_BYTES + 8 * i as u64,
        ))?;
        chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
    }
    Ok(record_cksum(seq, &payload) == cksum)
}

fn check_capacity(capacity: u64) -> Result<(), String> {
    if capacity < 512 || !capacity.is_multiple_of(64) {
        return Err(format!(
            "capacity {capacity}: need a multiple of 64, at least 512"
        ));
    }
    Ok(())
}

/// An open write grant: reserved ring space plus the caller's staging
/// buffer. Fill `payload`, then [`RingWriter::commit`].
#[derive(Debug)]
pub struct WriteGrant {
    pub(crate) off: u64,
    pub(crate) pad: u64,
    /// Sequence number this grant will commit as.
    pub seq: u64,
    /// Caller-filled payload bytes (length fixed at grant time).
    pub payload: Vec<u8>,
}

impl WriteGrant {
    /// Monotone data offset the record will occupy.
    #[must_use]
    pub fn off(&self) -> u64 {
        self.off
    }
}

/// The producer end.
#[derive(Debug, Clone)]
pub struct RingWriter {
    capacity: u64,
    committed_off: u64,
    next_seq: u64,
    shim: FlushShim,
}

impl RingWriter {
    /// Formats a fresh ring of `capacity` data bytes into `backing` and
    /// returns its producer end.
    ///
    /// Formatting is crash-atomic: the magic is *invalidated first* and
    /// *stamped last*, each behind a barrier, so a crash at any store
    /// boundary leaves either a file [`crate::is_formatted`] reports as
    /// unformatted (safe to format again) or a complete empty ring —
    /// never a half-written header that recovery would trust.
    ///
    /// # Errors
    ///
    /// Invalid capacity or backing failure.
    pub fn create<B: PBacking>(
        backing: &mut B,
        capacity: u64,
        discipline: Discipline,
    ) -> Result<Self, String> {
        check_capacity(capacity)?;
        let mut shim = FlushShim::new(discipline);
        backing.write_u64(MAGIC_OFF, 0)?;
        shim.note_write(MAGIC_OFF, 8);
        shim.barrier(backing)?;
        for (off, v) in [
            (MAGIC_OFF + 8, capacity),
            (COMMIT_WATERMARK_OFF, 0),
            (COMMIT_SEQ_OFF, 0),
            (READ_MARK_OFF, 0),
            (READ_PUB_OFF, 0),
        ] {
            backing.write_u64(off, v)?;
            shim.note_write(off, 8);
        }
        shim.barrier(backing)?;
        backing.write_u64(MAGIC_OFF, PSTORE_MAGIC)?;
        shim.note_write(MAGIC_OFF, 8);
        shim.barrier(backing)?;
        Ok(Self {
            capacity,
            committed_off: 0,
            next_seq: 1,
            shim,
        })
    }

    /// Re-attaches a producer to an existing ring: recovers, validates,
    /// and positions after the last committed grant.
    ///
    /// A crash between the watermark pair's two stores leaves
    /// `committed_seq` one ahead of `committed_off` (see [`Self::commit`]).
    /// The record that seq names was never visible, so the attach rolls it
    /// back: the next grant reuses the orphaned sequence number and its
    /// commit overwrites the orphan bytes. Skipping to `committed_seq + 1`
    /// instead would put a permanent gap in the sequence chain — which
    /// recovery would then reject as torn.
    ///
    /// # Errors
    ///
    /// Structural recovery failure or backing failure.
    pub fn attach<B: PBacking>(backing: &mut B, discipline: Discipline) -> Result<Self, String> {
        let snap = recover(backing)?;
        let torn = match snap.records.last() {
            // Non-empty window: the last visible record anchors the pair.
            Some(last) => last.seq + 1 == snap.committed_seq,
            // Fully-consumed window: the anchor is gone, but in the torn
            // state the orphan record itself is durable at the stale
            // watermark (the data barrier precedes the seq store), so
            // probe for it. A stale previous-lap record there cannot
            // carry `committed_seq` — sequence numbers never repeat.
            None => orphan_record_at(
                backing,
                snap.capacity,
                snap.committed_off,
                snap.committed_seq,
            )?,
        };
        Ok(Self {
            capacity: snap.capacity,
            committed_off: snap.committed_off,
            next_seq: if torn {
                snap.committed_seq
            } else {
                snap.committed_seq + 1
            },
            shim: FlushShim::new(discipline),
        })
    }

    /// Ring data capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Sequence number the next committed grant will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The flush shim (for inspecting barrier/flush counts).
    #[must_use]
    pub fn shim(&self) -> &FlushShim {
        &self.shim
    }

    /// Reserves ring space for a `len`-byte payload. Fails with
    /// [`GrantError::WouldBlock`] until the consumer has *published*
    /// enough released space — the producer keys off `read_pub`, never
    /// off the (possibly not yet durable) `read_off`.
    ///
    /// # Errors
    ///
    /// See [`GrantError`].
    pub fn grant_write<B: PBacking>(
        &mut self,
        backing: &mut B,
        len: u64,
    ) -> Result<WriteGrant, GrantError> {
        if len == 0 || !len.is_multiple_of(8) || len > MAX_PAYLOAD_BYTES {
            return Err(GrantError::TooLarge);
        }
        // Recovery rejects a record carrying the last sequence number.
        if self.next_seq == u64::MAX {
            return Err(GrantError::Exhausted);
        }
        let pos = self.committed_off % self.capacity;
        let rem = self.capacity - pos;
        let pad = if rem < RECORD_HEADER_BYTES + len {
            rem
        } else {
            0
        };
        let need = pad + RECORD_HEADER_BYTES + len;
        let read_pub = backing
            .read_u64(READ_PUB_OFF)
            .map_err(GrantError::Backing)?;
        let end = self.committed_off.checked_add(need);
        let limit = read_pub.checked_add(self.capacity);
        let (Some(end), Some(limit)) = (end, limit) else {
            return Err(GrantError::Exhausted);
        };
        if end > limit {
            return Err(GrantError::WouldBlock);
        }
        Ok(WriteGrant {
            off: self.committed_off + pad,
            pad,
            seq: self.next_seq,
            payload: vec![0; len as usize],
        })
    }

    /// Commits a filled grant: writes pad + payload + seq + header, takes
    /// the data barrier, advances the `committed_off`/`committed_seq`
    /// watermark, and takes the publish barrier. On a battery-backed
    /// discipline both barriers are no-ops and the whole commit is plain
    /// stores.
    ///
    /// # Errors
    ///
    /// Backing failure, or a grant committed out of order.
    pub fn commit<B: PBacking>(
        &mut self,
        backing: &mut B,
        grant: &WriteGrant,
    ) -> Result<(), String> {
        if grant.seq != self.next_seq {
            return Err(format!(
                "grant seq {} committed out of order (expected {})",
                grant.seq, self.next_seq
            ));
        }
        let len = grant.payload.len() as u64;
        let exhausted = || "ring offsets or sequence numbers exhausted".to_owned();
        let new_off = grant
            .off
            .checked_add(RECORD_HEADER_BYTES)
            .and_then(|o| o.checked_add(len))
            .ok_or_else(exhausted)?;
        let next_seq = self.next_seq.checked_add(1).ok_or_else(exhausted)?;
        if grant.pad > 0 {
            self.put(
                backing,
                data_addr(self.capacity, self.committed_off),
                PAD_WORD,
            )?;
        }
        for (i, chunk) in grant.payload.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.put(
                backing,
                data_addr(
                    self.capacity,
                    grant.off + RECORD_HEADER_BYTES + 8 * i as u64,
                ),
                u64::from_le_bytes(w),
            )?;
        }
        self.put(backing, data_addr(self.capacity, grant.off + 8), grant.seq)?;
        let word0 = len | (u64::from(record_cksum(grant.seq, &grant.payload)) << 32);
        self.put(backing, data_addr(self.capacity, grant.off), word0)?;
        self.shim.barrier(backing)?; // data durable before the watermark
                                     // The watermark is a two-word pair and a crash (or a concurrent
                                     // reader) can land between the stores: seq goes first, so the only
                                     // observable torn state is seq one ahead of the watermark — which
                                     // recovery explicitly accepts. (Watermark-first would instead
                                     // expose off-ahead-of-seq, which is indistinguishable from a lost
                                     // record.)
        self.put(backing, COMMIT_SEQ_OFF, grant.seq)?;
        self.put(backing, COMMIT_WATERMARK_OFF, new_off)?;
        self.shim.barrier(backing)?; // watermark durable before reuse
        self.committed_off = new_off;
        self.next_seq = next_seq;
        Ok(())
    }

    fn put<B: PBacking>(&mut self, backing: &mut B, off: u64, v: u64) -> Result<(), String> {
        backing.write_u64(off, v)?;
        self.shim.note_write(off, 8);
        Ok(())
    }
}

/// The consumer end.
#[derive(Debug, Clone)]
pub struct RingReader {
    capacity: u64,
    read_off: u64,
    marked_unpublished: bool,
    shim: FlushShim,
}

impl RingReader {
    /// Attaches a consumer to an existing ring at its recovered mark. If
    /// a crash separated a mark from its publication, the pending
    /// publication is replayed by the next [`RingReader::release_publish`].
    ///
    /// # Errors
    ///
    /// Structural recovery failure or backing failure.
    pub fn attach<B: PBacking>(backing: &mut B, discipline: Discipline) -> Result<Self, String> {
        let snap = recover(backing)?;
        Ok(Self {
            capacity: snap.capacity,
            read_off: snap.read_off,
            marked_unpublished: snap.read_pub != snap.read_off,
            shim: FlushShim::new(discipline),
        })
    }

    /// The consumer's current mark (monotone data offset).
    #[must_use]
    pub fn read_off(&self) -> u64 {
        self.read_off
    }

    /// True while a mark awaits its publication barrier.
    #[must_use]
    pub fn marked_unpublished(&self) -> bool {
        self.marked_unpublished
    }

    /// The flush shim (for inspecting barrier/flush counts).
    #[must_use]
    pub fn shim(&self) -> &FlushShim {
        &self.shim
    }

    /// Parses every committed-but-unconsumed record — the read grant.
    /// Returns records in commit order; consuming a prefix of them and
    /// passing the sum of their [`Record::span`]s to
    /// [`RingReader::release`] frees their space.
    ///
    /// # Errors
    ///
    /// Backing failure or a structurally invalid window (impossible on a
    /// healthy ring; crash images surface it as a recovery verdict).
    pub fn grant_read<B: PBacking>(&mut self, backing: &mut B) -> Result<Vec<Record>, String> {
        let committed_off = backing.read_u64(COMMIT_WATERMARK_OFF)?;
        let committed_seq = backing.read_u64(COMMIT_SEQ_OFF)?;
        parse_window(
            backing,
            self.capacity,
            self.read_off,
            committed_off,
            committed_seq,
        )
    }

    /// Marks `bytes` of the read grant consumed and makes the mark
    /// durable. Persist-first: the mark must be durable *before*
    /// [`RingReader::release_publish`] hands the space to the producer,
    /// or a crash could find recycled bytes inside the parse window.
    ///
    /// # Errors
    ///
    /// Backing failure.
    pub fn release_mark<B: PBacking>(&mut self, backing: &mut B, bytes: u64) -> Result<(), String> {
        self.read_off += bytes;
        backing.write_u64(READ_MARK_OFF, self.read_off)?;
        self.shim.note_write(READ_MARK_OFF, 8);
        self.shim.barrier(backing)?;
        self.marked_unpublished = true;
        Ok(())
    }

    /// Publishes the durable mark to the producer (`read_pub`), taking
    /// the trailing barrier so the publication itself is ordered.
    ///
    /// # Errors
    ///
    /// Backing failure.
    pub fn release_publish<B: PBacking>(&mut self, backing: &mut B) -> Result<(), String> {
        backing.write_u64(READ_PUB_OFF, self.read_off)?;
        self.shim.note_write(READ_PUB_OFF, 8);
        self.shim.barrier(backing)?;
        self.marked_unpublished = false;
        Ok(())
    }

    /// [`RingReader::release_mark`] + [`RingReader::release_publish`].
    ///
    /// # Errors
    ///
    /// Backing failure.
    pub fn release<B: PBacking>(&mut self, backing: &mut B, bytes: u64) -> Result<(), String> {
        self.release_mark(backing, bytes)?;
        self.release_publish(backing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    fn ring(capacity: u64) -> (MemBacking, RingWriter) {
        let mut b = MemBacking::new(backing_len(capacity) as usize);
        let w = RingWriter::create(&mut b, capacity, Discipline::BufferBacked).unwrap();
        (b, w)
    }

    fn append(b: &mut MemBacking, w: &mut RingWriter, bytes: &[u8]) -> u64 {
        let mut g = w.grant_write(b, bytes.len() as u64).unwrap();
        g.payload.copy_from_slice(bytes);
        let seq = g.seq;
        w.commit(b, &g).unwrap();
        seq
    }

    #[test]
    fn append_read_release_round_trip() {
        let (mut b, mut w) = ring(512);
        append(&mut b, &mut w, b"hello wo");
        append(&mut b, &mut w, b"rld.....");
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let recs = r.grant_read(&mut b).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 1);
        assert_eq!(recs[0].payload, b"hello wo");
        assert_eq!(recs[1].seq, 2);
        let span = recs[0].span;
        r.release(&mut b, span).unwrap();
        let recs = r.grant_read(&mut b).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 2);
    }

    #[test]
    fn ring_wraps_through_many_laps() {
        let (mut b, mut w) = ring(512);
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let mut consumed = 1u64;
        for i in 0..200u64 {
            let len = 8 * (1 + i % 4);
            let payload: Vec<u8> = (0..len).map(|j| (i + j) as u8).collect();
            loop {
                match w.grant_write(&mut b, len) {
                    Ok(mut g) => {
                        g.payload.copy_from_slice(&payload);
                        w.commit(&mut b, &g).unwrap();
                        break;
                    }
                    Err(GrantError::WouldBlock) => {
                        let recs = r.grant_read(&mut b).unwrap();
                        assert!(!recs.is_empty(), "full ring must have records");
                        assert_eq!(recs[0].seq, consumed, "strict prefix consumption");
                        consumed += 1;
                        let span = recs[0].span;
                        r.release(&mut b, span).unwrap();
                    }
                    Err(e) => panic!("grant failed: {e}"),
                }
            }
        }
        let recs = r.grant_read(&mut b).unwrap();
        assert_eq!(recs.last().unwrap().seq, 200);
    }

    #[test]
    fn grants_respect_unpublished_marks() {
        // Marked-but-unpublished space must NOT be grantable: the
        // producer keys off read_pub alone.
        let (mut b, mut w) = ring(512);
        for _ in 0..15 {
            append(&mut b, &mut w, &[7u8; 16]);
        }
        assert!(matches!(
            w.grant_write(&mut b, 64),
            Err(GrantError::WouldBlock)
        ));
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let recs = r.grant_read(&mut b).unwrap();
        let bytes: u64 = recs.iter().take(4).map(|x| x.span).sum();
        r.release_mark(&mut b, bytes).unwrap();
        assert!(
            matches!(w.grant_write(&mut b, 64), Err(GrantError::WouldBlock)),
            "marked space is not yet published"
        );
        r.release_publish(&mut b).unwrap();
        assert!(w.grant_write(&mut b, 64).is_ok());
    }

    #[test]
    fn bad_grants_are_rejected() {
        let (mut b, mut w) = ring(512);
        assert_eq!(w.grant_write(&mut b, 0).unwrap_err(), GrantError::TooLarge);
        assert_eq!(w.grant_write(&mut b, 12).unwrap_err(), GrantError::TooLarge);
        assert_eq!(
            w.grant_write(&mut b, MAX_PAYLOAD_BYTES + 8).unwrap_err(),
            GrantError::TooLarge
        );
        let g1 = w.grant_write(&mut b, 8).unwrap();
        let _g2 = w.grant_write(&mut b, 8).unwrap(); // re-grant same slot is fine
        w.commit(&mut b, &g1).unwrap();
        let stale = WriteGrant {
            off: g1.off,
            pad: 0,
            seq: g1.seq, // already committed
            payload: vec![0; 8],
        };
        assert!(w.commit(&mut b, &stale).is_err(), "out-of-order commit");
    }

    #[test]
    fn flush_fence_commit_takes_exactly_two_barriers() {
        let mut b = MemBacking::new(backing_len(512) as usize);
        let mut w = RingWriter::create(&mut b, 512, Discipline::FlushFence).unwrap();
        let barriers = w.shim().barriers();
        let flushed = w.shim().flushed_blocks();
        append_ff(&mut b, &mut w);
        assert_eq!(w.shim().barriers() - barriers, 2, "data + publish");
        // One data block + the watermark's header block; the minimal
        // set, not the whole ring.
        assert_eq!(w.shim().flushed_blocks() - flushed, 2);
    }

    fn append_ff(b: &mut MemBacking, w: &mut RingWriter) {
        let mut g = w.grant_write(b, 16).unwrap();
        g.payload.copy_from_slice(&[3u8; 16]);
        w.commit(b, &g).unwrap();
    }

    /// Rebuilds the exact torn-pair crash image: commit a record fully,
    /// then put the *old* watermark back — data and seq durable, the
    /// watermark store lost. (`commit` stores seq before the watermark,
    /// so this is the one torn state a crash can expose.)
    fn tear_last_commit(b: &mut MemBacking, old_watermark: u64) {
        b.write_u64(COMMIT_WATERMARK_OFF, old_watermark).unwrap();
    }

    #[test]
    fn reattach_after_torn_watermark_pair_reuses_the_orphan_seq() {
        let (mut b, mut w) = ring(512);
        append(&mut b, &mut w, &[1u8; 8]);
        append(&mut b, &mut w, &[2u8; 8]);
        let stale = b.read_u64(COMMIT_WATERMARK_OFF).unwrap();
        append(&mut b, &mut w, &[3u8; 8]);
        tear_last_commit(&mut b, stale);
        drop(w);
        let mut w = RingWriter::attach(&mut b, Discipline::BufferBacked).unwrap();
        assert_eq!(
            w.next_seq(),
            3,
            "orphaned seq 3 must be reused, not skipped"
        );
        append(&mut b, &mut w, &[30u8; 8]);
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let recs = r.grant_read(&mut b).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].seq, 3);
        assert_eq!(
            recs[2].payload,
            vec![30u8; 8],
            "recommit overwrote the orphan"
        );
    }

    #[test]
    fn reattach_after_torn_pair_with_consumed_window_probes_the_orphan() {
        // The harder case: every visible record was consumed before the
        // torn commit, so no window record anchors the pair — attach must
        // find the durable orphan record itself.
        let (mut b, mut w) = ring(512);
        append(&mut b, &mut w, &[1u8; 8]);
        append(&mut b, &mut w, &[2u8; 8]);
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let recs = r.grant_read(&mut b).unwrap();
        let bytes: u64 = recs.iter().map(|x| x.span).sum();
        r.release(&mut b, bytes).unwrap();
        let stale = b.read_u64(COMMIT_WATERMARK_OFF).unwrap();
        append(&mut b, &mut w, &[3u8; 8]);
        tear_last_commit(&mut b, stale);
        drop(w);
        let mut w = RingWriter::attach(&mut b, Discipline::BufferBacked).unwrap();
        assert_eq!(
            w.next_seq(),
            3,
            "empty-window torn pair must also roll back"
        );
        append(&mut b, &mut w, &[33u8; 8]);
        let recs = r.grant_read(&mut b).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].seq, recs[0].payload.clone()), (3, vec![33u8; 8]));
        // And a *clean* fully-consumed ring must NOT roll back: seq 3 is
        // genuinely committed here, so the next grant is 4.
        let (mut b, mut w) = ring(512);
        for v in 1..=3u8 {
            append(&mut b, &mut w, &[v; 8]);
        }
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let bytes: u64 = r.grant_read(&mut b).unwrap().iter().map(|x| x.span).sum();
        r.release(&mut b, bytes).unwrap();
        drop(w);
        let w = RingWriter::attach(&mut b, Discipline::BufferBacked).unwrap();
        assert_eq!(
            w.next_seq(),
            4,
            "clean consumed ring must not re-issue seq 3"
        );
    }

    #[test]
    fn create_is_format_atomic_at_every_store_boundary() {
        // Journal the format's stores, then cut at every prefix — over a
        // zeroed file AND over a live formatted ring. Each cut must read
        // back either unformatted or as a complete empty ring.
        struct Journal {
            mem: MemBacking,
            writes: Vec<(u64, u64)>,
        }
        impl PBacking for Journal {
            fn read_u64(&mut self, off: u64) -> Result<u64, String> {
                self.mem.read_u64(off)
            }
            fn write_u64(&mut self, off: u64, v: u64) -> Result<(), String> {
                self.writes.push((off, v));
                self.mem.write_u64(off, v)
            }
            fn persist(&mut self, blocks: &[u64]) -> Result<(), String> {
                self.mem.persist(blocks)
            }
        }
        let fresh = MemBacking::new(backing_len(512) as usize);
        let (live, _) = {
            let (mut b, mut w) = ring(512);
            append(&mut b, &mut w, b"survivor");
            (b, w)
        };
        for base in [fresh, live] {
            let mut j = Journal {
                mem: base.clone(),
                writes: Vec::new(),
            };
            RingWriter::create(&mut j, 512, Discipline::BufferBacked).unwrap();
            for cut in 0..=j.writes.len() {
                let mut img = base.clone();
                for &(off, v) in &j.writes[..cut] {
                    img.write_u64(off, v).unwrap();
                }
                if crate::is_formatted(&mut img).unwrap() {
                    let snap = recover(&mut img)
                        .unwrap_or_else(|e| panic!("cut {cut}: formatted but unrecoverable: {e}"));
                    assert!(
                        cut == 0 || snap.records.is_empty(),
                        "cut {cut}: half-format leaked records"
                    );
                } else {
                    assert!(cut < j.writes.len(), "full format must stamp the magic");
                }
            }
        }
    }

    #[test]
    fn writer_reattaches_where_it_left_off() {
        let (mut b, mut w) = ring(512);
        append(&mut b, &mut w, &[1u8; 8]);
        append(&mut b, &mut w, &[2u8; 8]);
        drop(w);
        let mut w = RingWriter::attach(&mut b, Discipline::BufferBacked).unwrap();
        assert_eq!(w.next_seq(), 3);
        append(&mut b, &mut w, &[3u8; 8]);
        let mut r = RingReader::attach(&mut b, Discipline::BufferBacked).unwrap();
        let recs = r.grant_read(&mut b).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].payload, vec![3u8; 8]);
    }
}

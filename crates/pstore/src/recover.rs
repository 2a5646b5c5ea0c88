//! Crash recovery: re-deriving the committed window from the header and
//! proving it is a clean prefix of committed grants.
//!
//! The parse accepts exactly the states the protocol's ordering points
//! allow and rejects everything else: bad magic, incoherent watermarks, a
//! window that ends in padding, torn or mis-framed records, checksum
//! mismatches, and — via the `committed_seq` anchor — any stale-lap
//! record that survived with a valid checksum but the wrong sequence
//! number. The crashfuzz oracle feeds every simulator crash image through
//! here; the battery-dropped images are *expected* to fail (or recover
//! strictly less), which is what gives the sweep teeth.

use crate::backing::PBacking;
use crate::ring::{
    data_addr, record_cksum, COMMIT_SEQ_OFF, COMMIT_WATERMARK_OFF, DATA_OFF, MAGIC_OFF,
    MAX_PAYLOAD_BYTES, PAD_WORD, PSTORE_MAGIC, READ_MARK_OFF, READ_PUB_OFF, RECORD_HEADER_BYTES,
};

/// One committed record as recovered from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Commit sequence number (consecutive within a window).
    pub seq: u64,
    /// Monotone data offset of the record's `word0`.
    pub off: u64,
    /// Window bytes this record accounts for, including any lap-tail pad
    /// that preceded it — release exactly this much to free it.
    pub span: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Everything [`recover`] learned about a ring.
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// Data capacity in bytes.
    pub capacity: u64,
    /// Committed-grant watermark.
    pub committed_off: u64,
    /// Sequence number of the last committed grant (0 when none ever).
    pub committed_seq: u64,
    /// Consumer's durable consumption mark.
    pub read_off: u64,
    /// Consumer's published release point.
    pub read_pub: u64,
    /// The committed-but-unconsumed records, in commit order.
    pub records: Vec<Record>,
}

/// Walks `[read_off, committed_off)` validating framing, checksums, and
/// — anchored on `committed_seq` — sequence continuity.
///
/// # Errors
///
/// A description of the first structural inconsistency.
pub(crate) fn parse_window<B: PBacking>(
    backing: &mut B,
    capacity: u64,
    read_off: u64,
    committed_off: u64,
    committed_seq: u64,
) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    let mut off = read_off;
    let mut pending_pad = 0u64;
    while off < committed_off {
        let pos = off % capacity;
        let rem = capacity - pos;
        let word0 = backing.read_u64(data_addr(capacity, off))?;
        if word0 == PAD_WORD {
            if rem == capacity {
                return Err(format!("pad word at lap start (off {off})"));
            }
            if off.checked_add(rem).is_none_or(|end| end >= committed_off) {
                return Err(format!("window ends in padding (off {off})"));
            }
            pending_pad += rem;
            off += rem;
            continue;
        }
        let len = word0 & 0xFFFF_FFFF;
        let cksum = (word0 >> 32) as u32;
        if len == 0 || !len.is_multiple_of(8) || len > MAX_PAYLOAD_BYTES {
            return Err(format!("record at off {off}: invalid length {len}"));
        }
        if RECORD_HEADER_BYTES + len > rem {
            return Err(format!("record at off {off}: straddles the lap boundary"));
        }
        let end = off.checked_add(RECORD_HEADER_BYTES + len);
        if end.is_none_or(|end| end > committed_off) {
            return Err(format!("record at off {off}: runs past the watermark"));
        }
        let seq = backing.read_u64(data_addr(capacity, off + 8))?;
        let mut payload = vec![0u8; len as usize];
        for (i, chunk) in payload.chunks_mut(8).enumerate() {
            let w = backing.read_u64(data_addr(
                capacity,
                off + RECORD_HEADER_BYTES + 8 * i as u64,
            ))?;
            chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
        }
        if record_cksum(seq, &payload) != cksum {
            return Err(format!(
                "record at off {off} (seq {seq}): checksum mismatch"
            ));
        }
        records.push(Record {
            seq,
            off,
            span: pending_pad + RECORD_HEADER_BYTES + len,
            payload,
        });
        pending_pad = 0;
        off += RECORD_HEADER_BYTES + len;
    }
    // Sequence continuity, anchored on the committed_seq watermark: each
    // record must chain by exactly one from its predecessor, and the last
    // must be the one the watermark names — or its immediate predecessor,
    // because the commit path stores seq *before* the watermark and a
    // crash (or a concurrent read) between the two leaves seq exactly one
    // ahead. A stale previous-lap record with a valid checksum cannot
    // satisfy both chain and anchor.
    for pair in records.windows(2) {
        if pair[0].seq.checked_add(1) != Some(pair[1].seq) {
            return Err(format!(
                "record at off {} has seq {} (after seq {})",
                pair[1].off, pair[1].seq, pair[0].seq
            ));
        }
    }
    if let Some(last) = records.last() {
        if last.seq != committed_seq && last.seq.checked_add(1) != Some(committed_seq) {
            return Err(format!(
                "window ends at seq {} but the watermark names {committed_seq}",
                last.seq
            ));
        }
    }
    Ok(records)
}

/// True when `backing` holds a formatted ring (the magic word is
/// present). A file killed mid-[`crate::RingWriter::create`] reads back
/// `false` — the magic is stamped last — and is safe to format again.
///
/// # Errors
///
/// Backing failure.
pub fn is_formatted<B: PBacking>(backing: &mut B) -> Result<bool, String> {
    Ok(backing.read_u64(MAGIC_OFF)? == PSTORE_MAGIC)
}

/// Validates the header and parses the committed window.
///
/// # Errors
///
/// A description of the first structural inconsistency — the recovery
/// invariant is that a crash image of a correctly-disciplined machine
/// *never* produces one.
pub fn recover<B: PBacking>(backing: &mut B) -> Result<RingSnapshot, String> {
    let magic = backing.read_u64(MAGIC_OFF)?;
    if magic != PSTORE_MAGIC {
        return Err(format!("bad magic {magic:#x}"));
    }
    let capacity = backing.read_u64(MAGIC_OFF + 8)?;
    if capacity < 512 || !capacity.is_multiple_of(64) {
        return Err(format!("implausible capacity {capacity}"));
    }
    // The whole data area must exist: its last word is readable and no
    // data address overflows.
    let Some(end) = DATA_OFF.checked_add(capacity) else {
        return Err(format!("capacity {capacity} overflows the ring's extent"));
    };
    backing
        .read_u64(end - 8)
        .map_err(|e| format!("capacity {capacity} runs past the backing: {e}"))?;
    let committed_off = backing.read_u64(COMMIT_WATERMARK_OFF)?;
    let committed_seq = backing.read_u64(COMMIT_SEQ_OFF)?;
    let read_off = backing.read_u64(READ_MARK_OFF)?;
    let read_pub = backing.read_u64(READ_PUB_OFF)?;
    // Records and pads are 8-byte multiples, so every offset is aligned;
    // an unaligned one would also make word reads straddle pages.
    if [committed_off, read_off, read_pub]
        .iter()
        .any(|o| !o.is_multiple_of(8))
    {
        return Err(format!(
            "unaligned offsets: read {read_pub}/{read_off}, committed {committed_off}"
        ));
    }
    if read_pub > read_off {
        return Err(format!(
            "published release {read_pub} ahead of the durable mark {read_off}"
        ));
    }
    if read_off > committed_off {
        return Err(format!(
            "consumption mark {read_off} ahead of the watermark {committed_off}"
        ));
    }
    if committed_off - read_pub > capacity {
        return Err(format!(
            "window {read_pub}..{committed_off} exceeds capacity {capacity}"
        ));
    }
    if committed_off > 0 && committed_seq == 0 {
        return Err("watermark moved but no sequence ever committed".into());
    }
    // The producer attaches at `committed_seq + 1`.
    if committed_seq == u64::MAX {
        return Err("sequence numbers exhausted".into());
    }
    let records = parse_window(backing, capacity, read_off, committed_off, committed_seq)?;
    Ok(RingSnapshot {
        capacity,
        committed_off,
        committed_seq,
        read_off,
        read_pub,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::ring::{backing_len, RingWriter};
    use crate::shim::Discipline;

    fn ring_with(n: u64) -> (MemBacking, RingWriter) {
        let mut b = MemBacking::new(backing_len(512) as usize);
        let mut w = RingWriter::create(&mut b, 512, Discipline::BufferBacked).unwrap();
        for i in 0..n {
            let mut g = w.grant_write(&mut b, 16).unwrap();
            g.payload.copy_from_slice(&[i as u8; 16]);
            w.commit(&mut b, &g).unwrap();
        }
        (b, w)
    }

    #[test]
    fn recovers_empty_and_filled_rings() {
        let (mut b, _) = ring_with(0);
        let s = recover(&mut b).unwrap();
        assert_eq!(s.records.len(), 0);
        assert_eq!(s.committed_seq, 0);
        let (mut b, _) = ring_with(5);
        let s = recover(&mut b).unwrap();
        assert_eq!(s.records.len(), 5);
        assert_eq!(s.committed_seq, 5);
        assert_eq!(s.records[4].payload, vec![4u8; 16]);
    }

    #[test]
    fn rejects_bad_magic_and_capacity() {
        let (mut b, _) = ring_with(1);
        b.write_u64(MAGIC_OFF, 0x1234).unwrap();
        assert!(recover(&mut b).unwrap_err().contains("bad magic"));
        let (mut b, _) = ring_with(1);
        b.write_u64(MAGIC_OFF + 8, 100).unwrap();
        assert!(recover(&mut b).unwrap_err().contains("capacity"));
    }

    #[test]
    fn rejects_torn_payload() {
        let (mut b, w) = ring_with(3);
        // Corrupt one payload word of the second record without touching
        // its header: checksum must catch it.
        let off = DATA_OFF + 32 + 16; // record 2's first payload word
        b.write_u64(off, 0xBAD0_BAD0).unwrap();
        assert!(recover(&mut b).unwrap_err().contains("checksum"));
        let _ = w;
    }

    #[test]
    fn rejects_stale_lap_record_via_seq_anchor() {
        let (mut b, _) = ring_with(4);
        // Overwrite record 4's bytes with the *valid bytes of record 2*
        // — checksum verifies, but the record sits at the wrong window
        // position, the shape a stale previous-lap survivor takes.
        let mut rec2 = [0u64; 4];
        for (i, w) in rec2.iter_mut().enumerate() {
            *w = b.read_u64(DATA_OFF + 32 + 8 * i as u64).unwrap();
        }
        for (i, w) in rec2.iter().enumerate() {
            b.write_u64(DATA_OFF + 96 + 8 * i as u64, *w).unwrap();
        }
        assert!(
            recover(&mut b).unwrap_err().contains("seq"),
            "a checksum-valid record in the wrong position must be rejected"
        );
    }

    #[test]
    fn rejects_incoherent_watermarks() {
        let (mut b, _) = ring_with(2);
        b.write_u64(crate::ring::READ_PUB_OFF, 1000).unwrap();
        assert!(recover(&mut b)
            .unwrap_err()
            .contains("ahead of the durable mark"));
        let (mut b, _) = ring_with(2);
        b.write_u64(crate::ring::READ_MARK_OFF, 1000).unwrap();
        assert!(recover(&mut b)
            .unwrap_err()
            .contains("ahead of the watermark"));
        let (mut b, _) = ring_with(2);
        b.write_u64(COMMIT_WATERMARK_OFF, 8192).unwrap();
        assert!(recover(&mut b).unwrap_err().contains("exceeds capacity"));
    }

    #[test]
    fn rejects_watermark_past_torn_record() {
        let (mut b, _) = ring_with(2);
        // Pretend a third record committed whose bytes never made it:
        // the watermark points into zeros.
        b.write_u64(COMMIT_WATERMARK_OFF, 96).unwrap();
        b.write_u64(COMMIT_SEQ_OFF, 3).unwrap();
        assert!(recover(&mut b).is_err());
    }
}

//! `bbb_pstore::recover` on hostile headers and records.
//!
//! A ring file or crash image is untrusted input: every header that passes
//! the cheap capacity check (`>= 512`, a multiple of 64) must still yield
//! a verdict, never an arithmetic-overflow panic.

use bbb::mem::{ByteStore, NvmImage};
use bbb::pstore::{
    backing_len, recover, Discipline, MemBacking, PBacking, RingWriter, COMMIT_SEQ_OFF,
    COMMIT_WATERMARK_OFF, DATA_OFF, MAGIC_OFF, PSTORE_MAGIC, READ_MARK_OFF, READ_PUB_OFF,
};
use bbb::workloads::check_pstore_recovery;

/// The largest capacity that passes the `>= 512`, multiple-of-64 check.
const HUGE: u64 = !63;

/// A 4 KiB backing holding only a ring header.
fn header(capacity: u64, read_pub: u64, read_off: u64, committed: u64) -> MemBacking {
    let mut b = MemBacking::new(4096);
    for (off, word) in [
        (MAGIC_OFF, PSTORE_MAGIC),
        (MAGIC_OFF + 8, capacity),
        (COMMIT_WATERMARK_OFF, committed),
        (COMMIT_SEQ_OFF, 7),
        (READ_MARK_OFF, read_off),
        (READ_PUB_OFF, read_pub),
    ] {
        b.write_u64(off, word).unwrap();
    }
    b
}

#[test]
fn capacity_whose_extent_overflows_is_rejected() {
    let mut b = header(HUGE, HUGE - 200, HUGE - 100, HUGE - 10);
    let err = recover(&mut b).expect_err("the data area cannot exist");
    assert!(err.contains("capacity"), "{err}");
    // 8-aligned offsets reach the same check.
    let mut b = header(HUGE, HUGE - 200, HUGE - 104, HUGE - 8);
    assert!(recover(&mut b).is_err());
}

#[test]
fn capacity_past_the_backing_is_rejected() {
    let mut b = header(1 << 62, 0, 0, 0);
    let err = recover(&mut b).expect_err("the last data word is unreadable");
    assert!(err.contains("runs past the backing"), "{err}");
}

#[test]
fn hostile_capacity_in_a_crash_image_is_rejected() {
    let base = 1 << 33;
    let mut store = ByteStore::new();
    for (off, word) in [
        (MAGIC_OFF, PSTORE_MAGIC),
        (MAGIC_OFF + 8, HUGE - 256),
        (COMMIT_WATERMARK_OFF, 64),
        (COMMIT_SEQ_OFF, 7),
    ] {
        store.write_u64(base + off, word);
    }
    let image = NvmImage::from_store(store);
    assert!(check_pstore_recovery(&image, base, 1).is_err());
}

/// The record checksum as the ring format defines it: a seq-seeded
/// SplitMix64 fold over the payload words, folded to 32 bits.
fn cksum(seq: u64, payload: &[u8]) -> u64 {
    fn mix64(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    let mut h = mix64(seq ^ 0x9E37_79B9_7F4A_7C15);
    for w in payload.chunks(8) {
        h = mix64(h ^ u64::from_le_bytes(w.try_into().unwrap()));
    }
    (h ^ (h >> 32)) & 0xFFFF_FFFF
}

/// A 512-byte ring holding `seqs.len()` 16-byte records, each rewritten
/// to carry the given sequence number under a valid checksum.
fn ring_with_seqs(seqs: &[u64], committed_seq: u64) -> MemBacking {
    let mut b = MemBacking::new(backing_len(512) as usize);
    let mut w = RingWriter::create(&mut b, 512, Discipline::BufferBacked).unwrap();
    for (i, &seq) in seqs.iter().enumerate() {
        let mut g = w.grant_write(&mut b, 16).unwrap();
        g.payload.copy_from_slice(&[i as u8 + 1; 16]);
        w.commit(&mut b, &g).unwrap();
        let at = DATA_OFF + g.off();
        b.write_u64(at + 8, seq).unwrap();
        b.write_u64(at, 16 | cksum(seq, &g.payload) << 32).unwrap();
    }
    b.write_u64(COMMIT_SEQ_OFF, committed_seq).unwrap();
    b
}

#[test]
fn rewritten_records_still_recover() {
    // The test's checksum matches the ring's: a rewrite to the seqs the
    // writer used changes nothing.
    let mut b = ring_with_seqs(&[1, 2], 2);
    let snap = recover(&mut b).unwrap();
    assert_eq!(snap.records.len(), 2);
}

#[test]
fn record_with_the_last_sequence_number_is_rejected() {
    for (seqs, committed_seq) in [
        (&[u64::MAX][..], 1),
        (&[u64::MAX][..], u64::MAX),
        (&[u64::MAX, 0][..], 1),
        (&[u64::MAX - 1, u64::MAX][..], u64::MAX),
    ] {
        let mut b = ring_with_seqs(seqs, committed_seq);
        let verdict = recover(&mut b);
        assert!(
            verdict.is_err(),
            "{seqs:?} under {committed_seq}: {verdict:?}"
        );
    }
}

#[test]
fn attach_at_the_end_of_the_offset_space_returns_a_verdict() {
    // An empty window at the last aligned offset. Under a 512-byte ring a
    // lap-tail pad sits there; under a 576-byte one the lap runs past
    // 2^64, so a record that fits the lap still overflows the offset.
    let off = u64::MAX - 7;
    for (capacity, word0) in [(512, u64::MAX), (576, 16)] {
        let mut b = MemBacking::new(backing_len(capacity) as usize);
        RingWriter::create(&mut b, capacity, Discipline::BufferBacked).unwrap();
        for (at, word) in [
            (COMMIT_WATERMARK_OFF, off),
            (COMMIT_SEQ_OFF, 5),
            (READ_MARK_OFF, off),
            (READ_PUB_OFF, off),
            (DATA_OFF + off % capacity, word0),
        ] {
            b.write_u64(at, word).unwrap();
        }
        // Either verdict will do; overflowing the offset will not.
        let _ = RingWriter::attach(&mut b, Discipline::BufferBacked);
    }
}

//! `bbb-pstore`: a single-producer/single-consumer persistent ring buffer
//! programmed the way the BBB paper says persistent structures should be —
//! plain stores, no flushes, no fences — yet portable to machines that do
//! need them.
//!
//! The API is bbqueue's two-ended grant shape:
//!
//! - producer: [`RingWriter::grant_write`]`(len)` → fill → [`RingWriter::commit`]
//! - consumer: [`RingReader::grant_read`]`()` → consume → [`RingReader::release`]
//!
//! On a battery-backed machine ([`Discipline::BufferBacked`]) every one of
//! those steps compiles down to loads and stores: the point of visibility
//! *is* the point of persistency, so the moment the commit watermark store
//! commits, the grant is durable. On ADR/strict-PMEM machines
//! ([`Discipline::FlushFence`]) the very same ring code routes its stores
//! through a FliT-style per-object flush-tracking shim ([`FlushShim`]):
//! the shim remembers which 64-byte blocks each grant dirtied and, at the
//! two ordering points the protocol actually needs (data before watermark,
//! watermark before reuse), emits the minimal flush + fence sequence — and
//! nothing anywhere else. [`Discipline::EpochOrdered`] keeps the dirty
//! tracking but emits only the ordering fence, the discipline Buffered
//! Epoch Persistency wants.
//!
//! Storage is abstracted behind [`PBacking`], with two engines:
//! [`MemBacking`] (plain memory, also the shape the simulator backing in
//! `bbb-workloads` mirrors so crashfuzz can sweep every store boundary of
//! this protocol) and [`FileBacking`] (a real file via `std::fs`, durable
//! across process restarts — see the `bbb-pstore` CLI).
//!
//! Crash recovery is [`recover`]: it re-derives the committed window from
//! the header watermarks and validates framing, checksums, and sequence
//! continuity, so a reader observes a *prefix of committed grants* after
//! any crash — never a torn or reordered one. The proof sketch lives in
//! DESIGN.md §pstore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backing;
mod recover;
mod ring;
mod shim;

pub use backing::{FileBacking, MemBacking, PBacking};
pub use recover::{is_formatted, recover, Record, RingSnapshot};
pub use ring::{
    backing_len, RingReader, RingWriter, WriteGrant, COMMIT_SEQ_OFF, COMMIT_WATERMARK_OFF,
    DATA_OFF, MAGIC_OFF, MAX_PAYLOAD_BYTES, PSTORE_MAGIC, READ_MARK_OFF, READ_PUB_OFF,
};
pub use shim::{Discipline, FlushShim, BLOCK_BYTES};

/// Errors a grant request can report without touching storage state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantError {
    /// Not enough released space in the ring for `len` payload bytes (plus
    /// framing); retry after the consumer releases.
    WouldBlock,
    /// The payload can never fit (`len` exceeds [`MAX_PAYLOAD_BYTES`] or
    /// is not a positive multiple of 8).
    TooLarge,
    /// The ring's 64-bit data offsets or sequence numbers cannot cover
    /// another record.
    Exhausted,
    /// The backing store failed.
    Backing(String),
}

impl std::fmt::Display for GrantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantError::WouldBlock => write!(f, "ring full: no released space for the grant"),
            GrantError::TooLarge => write!(f, "payload length invalid (8-aligned, 8..=MAX)"),
            GrantError::Exhausted => write!(f, "ring offsets or sequence numbers exhausted"),
            GrantError::Backing(e) => write!(f, "backing error: {e}"),
        }
    }
}

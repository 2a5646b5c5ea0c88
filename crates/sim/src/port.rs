//! The block-granular memory-port interface.
//!
//! Defined here, at the bottom of the crate stack, so that the cache
//! hierarchy (`bbb-cache`) can *use* it, the memory controllers
//! (`bbb-mem`) can *implement* it, and the persistence machinery
//! (`bbb-core`) can drain persist buffers through whichever port the
//! system wires up.

use crate::{BlockAddr, Cycle, BLOCK_BYTES};

/// A timed, block-granular interface to main memory.
pub trait MemoryPort {
    /// Reads a block; returns `(completion_cycle, data)`.
    fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]);

    /// Writes a block; returns the cycle at which the write is durable
    /// (and globally performed). For NVMM this is WPQ acceptance — the ADR
    /// persist point — not media completion; for DRAM it is the access
    /// completion.
    fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle;

    /// Read-modify-writes `bytes` at `offset` within `block` as one block
    /// write: a store-granular persist-buffer drain. The controller patches
    /// its media bytes itself, at no media-read cost, then writes the block
    /// as [`MemoryPort::write_block`] would, so a drain counts one write
    /// and no read, live or at a crash. There is no default: a port that
    /// read through its timed path here would charge a read the paper's
    /// drains never take.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `offset + bytes.len()` exceeds the
    /// block size.
    fn rmw_block(&mut self, now: Cycle, block: BlockAddr, offset: usize, bytes: &[u8]) -> Cycle;

    /// Tells the port that the crash-surviving bytes of `block` may have
    /// changed above it: a cache line or a persist-buffer entry of the
    /// block was installed, changed or removed. A port that keeps a log
    /// of such blocks (the NVMM controller's) records it; the default
    /// ignores it. Media writes through the port need no such note.
    fn note_change(&mut self, _block: BlockAddr) {}
}

//! The block-granular memory-port interface.
//!
//! Defined here, at the bottom of the crate stack, so that the cache
//! hierarchy (`bbb-cache`) can *use* it, the memory controllers
//! (`bbb-mem`) can *implement* it, and the persistence machinery
//! (`bbb-core`) can drain persist buffers through whichever port the
//! system wires up.

use crate::{Addr, BlockAddr, Cycle, BLOCK_BYTES};

/// A timed, block-granular interface to main memory.
pub trait MemoryPort {
    /// Reads a block; returns `(completion_cycle, data)`.
    fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]);

    /// Writes a block; returns the cycle at which the write is durable
    /// (and globally performed). For NVMM this is WPQ acceptance — the ADR
    /// persist point — not media completion; for DRAM it is the access
    /// completion.
    fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle;

    /// Read-modify-writes `bytes` at `offset` within `block` as a single
    /// block write (store-granular persist-buffer drains). The default
    /// implementation reads through the timed path and then writes, which
    /// counts a read and pays its latency. The DRAM and NVMM controllers
    /// override it to patch media directly, but the system's routing port
    /// (`bbb-core`'s `Memories`) does not, so live processor-side and BEP
    /// drains take the timed read (ROADMAP item 5).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `offset + bytes.len()` exceeds the
    /// block size.
    fn rmw_block(&mut self, now: Cycle, block: BlockAddr, offset: usize, bytes: &[u8]) -> Cycle {
        assert!(offset + bytes.len() <= BLOCK_BYTES, "RMW exceeds block");
        let (_, mut data) = self.read_block(now, block);
        data[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.write_block(now, block, data)
    }

    /// Tells the port that the crash-surviving bytes of `block` may have
    /// changed above it: a cache line or a persist-buffer entry of the
    /// block was installed, changed or removed. A port that keeps a log
    /// of such blocks (the NVMM controller's) records it; the default
    /// ignores it. Media writes through the port need no such note.
    fn note_change(&mut self, _block: BlockAddr) {}

    /// Convenience: the block containing `addr`.
    fn block_of(&self, addr: Addr) -> BlockAddr {
        BlockAddr::containing(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct VecMem {
        data: [u8; BLOCK_BYTES],
        reads: usize,
        writes: usize,
    }

    impl MemoryPort for VecMem {
        fn read_block(&mut self, now: Cycle, _: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
            self.reads += 1;
            (now + 10, self.data)
        }
        fn write_block(&mut self, now: Cycle, _: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
            self.writes += 1;
            self.data = data;
            now
        }
    }

    #[test]
    fn default_rmw_reads_then_writes() {
        let mut m = VecMem {
            data: [0; BLOCK_BYTES],
            reads: 0,
            writes: 0,
        };
        let done = m.rmw_block(5, BlockAddr::from_index(0), 4, &[1, 2]);
        assert_eq!(done, 5);
        assert_eq!(m.data[4..6], [1, 2]);
        assert_eq!((m.reads, m.writes), (1, 1));
    }

    #[test]
    fn block_of_helper() {
        let m = VecMem {
            data: [0; BLOCK_BYTES],
            reads: 0,
            writes: 0,
        };
        assert_eq!(m.block_of(0x7F), BlockAddr::from_index(1));
    }

    #[test]
    #[should_panic(expected = "RMW exceeds block")]
    fn oversized_rmw_panics() {
        let mut m = VecMem {
            data: [0; BLOCK_BYTES],
            reads: 0,
            writes: 0,
        };
        m.rmw_block(0, BlockAddr::from_index(0), 60, &[0; 8]);
    }
}

//! Interfaces between the coherence protocol and the rest of the system.
//!
//! [`MemoryPort`] abstracts the DRAM/NVMM controllers so the hierarchy can
//! fill and write back blocks without owning the memory system.
//! [`CoherenceHooks`] surfaces exactly the protocol events the paper's
//! Table II attaches bbPB actions to; `bbb-core` implements it for the BBB
//! persistence machinery, while [`NullHooks`] gives the baseline behavior
//! (always write dirty evictions back).

use bbb_sim::{BlockAddr, Cycle, BLOCK_BYTES};

pub use bbb_sim::MemoryPort;

/// What to do with a dirty block being evicted from the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackDecision {
    /// Write the block back to memory (baseline MESI behavior).
    WriteBack,
    /// Drop the block silently. BBB does this for persistent blocks: the
    /// bbPB has (or had) the line, so memory already holds — or is about to
    /// hold, via the forced drain — the latest value (paper §III-B).
    Suppress,
}

/// Observer for the coherence events that interact with the persistence
/// domain (paper Fig. 6 and Table II).
///
/// All methods have no-op-adjacent defaults so simple experiments can
/// implement only what they need.
pub trait CoherenceHooks {
    /// A remote core `requester` gained exclusive ownership of `block`,
    /// invalidating `victim`'s L1 copy (Fig. 6(a) RdX on an M block, or
    /// Fig. 6(b) Upgrade on an S block). If the victim's bbPB holds the
    /// block, BBB moves the entry — without draining — to the requester's
    /// bbPB, which becomes responsible for draining it.
    fn on_remote_invalidate(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        victim: usize,
        requester: usize,
        mem: &mut dyn MemoryPort,
    ) {
        let _ = (now, block, victim, requester, mem);
    }

    /// A remote read downgraded `owner`'s M copy to S (Fig. 6(c)). Under
    /// BBB the block *stays* in the owner's bbPB and the traditional
    /// downgrade writeback to memory is skipped (the bbPB is a persistence-
    /// domain extension of memory).
    fn on_remote_downgrade(&mut self, now: Cycle, block: BlockAddr, owner: usize) {
        let _ = (now, block, owner);
    }

    /// The LLC is evicting a dirty block. The hook may force-drain a bbPB
    /// entry (to keep the LLC dirty-inclusive of bbPBs) and decide whether
    /// the LLC writeback happens at all. `data` is the latest block value.
    fn on_llc_dirty_evict(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        data: &[u8; BLOCK_BYTES],
        persistent: bool,
        mem: &mut dyn MemoryPort,
    ) -> WritebackDecision {
        let _ = (now, block, data, persistent, mem);
        WritebackDecision::WriteBack
    }

    /// The LLC is evicting a *clean* block (still requires bbPB inclusion
    /// enforcement under BBB: a clean-in-LLC block can still sit in a bbPB
    /// after a downgrade skipped its writeback).
    fn on_llc_clean_evict(&mut self, now: Cycle, block: BlockAddr, mem: &mut dyn MemoryPort) {
        let _ = (now, block, mem);
    }

    /// `core`'s L1 evicted its copy of `block`. BBB keeps each bbPB
    /// included in its own core's L1 (the two-level-hierarchy analogue of
    /// the paper's private-L2 inclusion): once the L1 copy is gone, no
    /// future coherence message would reach this bbPB, so a resident entry
    /// must drain now or Invariant 4 ("a block resides in at most one
    /// bbPB") could be violated by another core's later store.
    fn on_l1_evict(&mut self, now: Cycle, block: BlockAddr, core: usize, mem: &mut dyn MemoryPort) {
        let _ = (now, block, core, mem);
    }
}

/// Baseline hooks: every dirty eviction writes back; nothing else happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullHooks;

impl CoherenceHooks for NullHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeMem;
    impl MemoryPort for FakeMem {
        fn read_block(&mut self, now: Cycle, _: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
            (now + 1, [0; BLOCK_BYTES])
        }
        fn write_block(&mut self, now: Cycle, _: BlockAddr, _: [u8; BLOCK_BYTES]) -> Cycle {
            now + 1
        }
        fn rmw_block(&mut self, now: Cycle, _: BlockAddr, _: usize, _: &[u8]) -> Cycle {
            now + 1
        }
    }

    #[test]
    fn null_hooks_default_to_writeback() {
        let mut h = NullHooks;
        let mut m = FakeMem;
        let d = h.on_llc_dirty_evict(0, BlockAddr::from_index(0), &[0; 64], true, &mut m);
        assert_eq!(d, WritebackDecision::WriteBack);
        // Defaults are callable no-ops.
        h.on_remote_invalidate(0, BlockAddr::from_index(0), 0, 1, &mut m);
        h.on_remote_downgrade(0, BlockAddr::from_index(0), 0);
        h.on_llc_clean_evict(0, BlockAddr::from_index(0), &mut m);
        h.on_l1_evict(0, BlockAddr::from_index(0), 0, &mut m);
    }
}

//! The hybrid DRAM + NVMM main memory behind one [`MemoryPort`].
//!
//! Routes block reads and writes to the right controller by physical
//! region (paper Fig. 4: flat address space split between DRAM and NVMM,
//! each with its own controller).

use bbb_cache::MemoryPort;
use bbb_mem::{ByteStore, DramController, NvmmController, PAGE_BYTES};
use bbb_sim::{Addr, AddressMap, BlockAddr, Cycle, SimConfig, Stats, BLOCK_BYTES};

/// Both memory controllers plus the address map that routes between them.
#[derive(Debug, Clone)]
pub struct Memories {
    dram: DramController,
    nvmm: NvmmController,
    map: AddressMap,
}

impl Memories {
    /// Builds the memory system for a machine configuration.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            dram: DramController::new(cfg.mem.clone()),
            nvmm: NvmmController::new(cfg.mem.clone()),
            map: AddressMap::new(cfg),
        }
    }

    /// The machine's address map.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Direct access to the NVMM controller (bbPB drains, crash imaging).
    #[must_use]
    pub fn nvmm(&self) -> &NvmmController {
        &self.nvmm
    }

    /// Mutable access to the NVMM controller.
    pub fn nvmm_mut(&mut self) -> &mut NvmmController {
        &mut self.nvmm
    }

    /// Pre-loads media contents (warm start) without simulated time.
    pub fn load(&mut self, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        if self.map.is_nvmm(block.base()) {
            self.nvmm.load(block, data);
        } else {
            self.dram.load(block, data);
        }
    }

    /// Pre-loads `src`'s page at page-aligned `base` (warm start) without
    /// simulated time: shared with `src` when it lies in one region, else
    /// (`dram_bytes` need not be a page multiple) routed block by block
    /// through [`Memories::load`].
    pub fn load_page(&mut self, src: &ByteStore, base: Addr) {
        let nvmm = self.map.is_nvmm(base);
        if nvmm != self.map.is_nvmm(base + PAGE_BYTES as u64 - 1) {
            for off in (0..PAGE_BYTES as u64).step_by(BLOCK_BYTES) {
                let block = BlockAddr::containing(base + off);
                self.load(block, &src.read_block(block));
            }
        } else if nvmm {
            self.nvmm.share_page(src, base);
        } else {
            self.dram.share_page(src, base);
        }
    }

    /// Merged statistics from both controllers.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.dram.stats();
        s.merge(&self.nvmm.stats());
        s
    }
}

impl MemoryPort for Memories {
    fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
        if self.map.is_nvmm(block.base()) {
            self.nvmm.read(now, block)
        } else {
            self.dram.read(now, block)
        }
    }

    fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
        if self.map.is_nvmm(block.base()) {
            self.nvmm.write(now, block, data).persist
        } else {
            self.dram.write(now, block, data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mems() -> Memories {
        Memories::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn routes_by_region() {
        let mut m = mems();
        let dram_block = BlockAddr::from_index(0);
        let nvmm_block = BlockAddr::containing(m.map().persistent_base());

        m.write_block(0, dram_block, [1; 64]);
        m.write_block(0, nvmm_block, [2; 64]);
        assert_eq!(m.stats().get("dram.writes"), 1);
        assert_eq!(m.stats().get("nvmm.writes"), 1);

        let (_, d) = m.read_block(0, dram_block);
        assert_eq!(d, [1; 64]);
        let (_, n) = m.read_block(0, nvmm_block);
        assert_eq!(n, [2; 64]);
    }

    #[test]
    fn nvmm_write_persist_is_wpq_accept() {
        let mut m = mems();
        let b = BlockAddr::containing(m.map().persistent_base());
        let persist = m.write_block(42, b, [9; 64]);
        assert_eq!(persist, 42, "WPQ accepts immediately when empty");
    }

    #[test]
    fn load_routes_and_skips_counters() {
        let mut m = mems();
        let nv = BlockAddr::containing(m.map().persistent_base());
        m.load(nv, &[7; 64]);
        m.load(BlockAddr::from_index(1), &[8; 64]);
        assert_eq!(m.stats().get("nvmm.writes"), 0);
        assert_eq!(m.stats().get("dram.writes"), 0);
        assert_eq!(m.nvmm().crash_image().read_block(nv), [7; 64]);
    }
}

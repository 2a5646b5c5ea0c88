//! Physical addresses, cache-block addresses, and the machine address map.
//!
//! The simulated machine has a flat physical address space split between a
//! DRAM region and an NVMM region (paper Fig. 4), each 8 GB by default. A
//! sub-range of the NVMM region is the *persistent heap*: pages allocated by
//! `palloc` live there, and a store is a **persisting store** exactly when
//! its address falls inside that range (paper §III-A: persisting stores are
//! distinguished by the pages they access, not by special instructions).

use crate::config::SimConfig;

/// Base-2 log of the cache block size (64-byte blocks).
pub const BLOCK_SHIFT: u32 = 6;

/// Cache block size in bytes (paper Table III: 64 B).
pub const BLOCK_BYTES: usize = 1 << BLOCK_SHIFT;

/// A byte-granular physical address.
pub type Addr = u64;

/// A cache-block-aligned address, used as the key for every cache, bbPB, and
/// WPQ structure in the simulator.
///
/// The wrapped value is the *block number* (address >> [`BLOCK_SHIFT`]), not
/// the byte address; use [`BlockAddr::base`] to recover the byte address.
///
/// # Examples
///
/// ```
/// use bbb_sim::{Addr, BlockAddr};
/// let a: Addr = 0x1234;
/// let b = BlockAddr::containing(a);
/// assert_eq!(b.base(), 0x1200);
/// assert_eq!(b.offset_of(a), 0x34);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Returns the block containing byte address `addr`.
    #[must_use]
    pub const fn containing(addr: Addr) -> Self {
        Self(addr >> BLOCK_SHIFT)
    }

    /// Creates a block address directly from a block number.
    #[must_use]
    pub const fn from_index(index: u64) -> Self {
        Self(index)
    }

    /// The block number (byte address >> [`BLOCK_SHIFT`]).
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The first byte address of this block.
    #[must_use]
    pub const fn base(self) -> Addr {
        self.0 << BLOCK_SHIFT
    }

    /// The byte offset of `addr` within this block.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is not inside this block.
    #[must_use]
    pub fn offset_of(self, addr: Addr) -> usize {
        debug_assert_eq!(Self::containing(addr), self, "address not in block");
        (addr - self.base()) as usize
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk:{:#x}", self.base())
    }
}

/// Which physical region an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Volatile DRAM.
    Dram,
    /// Non-volatile main memory outside the persistent heap (data placed in
    /// NVMM that the program does not require to be crash-consistent).
    NvmmVolatile,
    /// The persistent heap inside NVMM; stores here are persisting stores.
    NvmmPersistent,
}

impl Region {
    /// True for both NVMM sub-regions.
    #[must_use]
    pub const fn is_nvmm(self) -> bool {
        matches!(self, Region::NvmmVolatile | Region::NvmmPersistent)
    }
}

/// The machine's physical address map (paper Fig. 4).
///
/// Layout: `[0, dram_bytes)` is DRAM; `[dram_bytes, dram_bytes + nvmm_bytes)`
/// is NVMM; the persistent heap is a prefix of the NVMM range starting at
/// [`AddressMap::persistent_base`].
///
/// # Examples
///
/// ```
/// use bbb_sim::{AddressMap, SimConfig, Region};
/// let map = AddressMap::new(&SimConfig::default());
/// assert_eq!(map.region_of(0), Region::Dram);
/// assert_eq!(map.region_of(map.persistent_base()), Region::NvmmPersistent);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    dram_bytes: u64,
    nvmm_bytes: u64,
    persistent_bytes: u64,
}

impl AddressMap {
    /// Builds the map from a simulator configuration.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            dram_bytes: cfg.dram_bytes,
            nvmm_bytes: cfg.nvmm_bytes,
            persistent_bytes: cfg.persistent_heap_bytes.min(cfg.nvmm_bytes),
        }
    }

    /// First NVMM byte address (== DRAM size).
    #[must_use]
    pub const fn nvmm_base(&self) -> Addr {
        self.dram_bytes
    }

    /// One past the last valid physical address.
    #[must_use]
    pub const fn end(&self) -> Addr {
        self.dram_bytes + self.nvmm_bytes
    }

    /// First byte of the persistent heap.
    ///
    /// The heap is placed at the start of the NVMM range.
    #[must_use]
    pub const fn persistent_base(&self) -> Addr {
        self.dram_bytes
    }

    /// One past the last persistent-heap byte.
    #[must_use]
    pub const fn persistent_end(&self) -> Addr {
        self.dram_bytes + self.persistent_bytes
    }

    /// Classifies a byte address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the physical address space.
    #[must_use]
    pub fn region_of(&self, addr: Addr) -> Region {
        assert!(
            addr < self.end(),
            "address {addr:#x} outside physical memory"
        );
        if addr < self.dram_bytes {
            Region::Dram
        } else if addr < self.persistent_end() {
            Region::NvmmPersistent
        } else {
            Region::NvmmVolatile
        }
    }

    /// True if `addr` lies anywhere in NVMM.
    #[must_use]
    pub fn is_nvmm(&self, addr: Addr) -> bool {
        self.region_of(addr).is_nvmm()
    }

    /// True if `addr` lies in the persistent heap, i.e. stores to it are
    /// persisting stores that must enter the persistence domain.
    ///
    /// Total: an address outside physical memory is not persistent, so
    /// recovery oracles can reject a hostile pointer instead of panicking.
    #[must_use]
    pub fn is_persistent(&self, addr: Addr) -> bool {
        (self.persistent_base()..self.persistent_end()).contains(&addr)
    }

    /// True if every byte of `block` lies in the persistent heap.
    ///
    /// Blocks never straddle the region boundary in practice because the
    /// regions are block-aligned, so checking the base byte suffices.
    #[must_use]
    pub fn is_persistent_block(&self, block: BlockAddr) -> bool {
        self.is_persistent(block.base())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(&SimConfig::default())
    }

    #[test]
    fn block_alignment() {
        let b = BlockAddr::containing(0x1fff);
        assert_eq!(b.base(), 0x1fc0);
        assert_eq!(b.base() % BLOCK_BYTES as u64, 0);
        assert_eq!(BlockAddr::containing(b.base()), b);
    }

    #[test]
    fn block_index_round_trip() {
        let b = BlockAddr::from_index(42);
        assert_eq!(b.index(), 42);
        assert_eq!(b.base(), 42 * BLOCK_BYTES as u64);
    }

    #[test]
    fn regions_partition_space() {
        let m = map();
        assert_eq!(m.region_of(0), Region::Dram);
        assert_eq!(m.region_of(m.nvmm_base() - 1), Region::Dram);
        assert_eq!(m.region_of(m.nvmm_base()), Region::NvmmPersistent);
        assert_eq!(m.region_of(m.persistent_end() - 1), Region::NvmmPersistent);
        assert_eq!(m.region_of(m.persistent_end()), Region::NvmmVolatile);
        assert_eq!(m.region_of(m.end() - 1), Region::NvmmVolatile);
    }

    #[test]
    #[should_panic(expected = "outside physical memory")]
    fn out_of_range_panics() {
        let m = map();
        let _ = m.region_of(m.end());
    }

    #[test]
    fn persistent_predicates_agree() {
        let m = map();
        let a = m.persistent_base() + 128;
        assert!(m.is_persistent(a));
        assert!(m.is_nvmm(a));
        assert!(m.is_persistent_block(BlockAddr::containing(a)));
        assert!(!m.is_persistent(0));
    }

    #[test]
    fn out_of_range_is_not_persistent() {
        let m = map();
        assert!(!m.is_persistent(m.end()));
        assert!(!m.is_persistent(0xFFFF_FFFF_FFFF_FFF8));
        assert!(!m.is_persistent_block(BlockAddr::containing(u64::MAX)));
    }

    #[test]
    fn persistent_heap_clamped_to_nvmm() {
        let cfg = SimConfig {
            persistent_heap_bytes: u64::MAX,
            ..SimConfig::default()
        };
        let m = AddressMap::new(&cfg);
        assert_eq!(m.persistent_end(), m.end());
    }

    #[test]
    fn display_shows_base() {
        let b = BlockAddr::containing(0x1240);
        assert_eq!(format!("{b}"), "blk:0x1240");
    }
}

//! Simulated-machine configuration (paper Table III plus BBB parameters).
//!
//! [`SimConfig::default`] reproduces the paper's evaluated machine: 8
//! out-of-order cores at 2 GHz with 8-wide issue/retire, ROB 192, LSQ 32,
//! private 128 kB L1s, a shared 1 MB L2 (the LLC), hybrid 8 GB DRAM +
//! 8 GB NVMM main memory, and a 32-entry bbPB per core with a 75% drain
//! threshold.

use crate::clock::ns_to_cycles;
use crate::Cycle;

/// Kibibyte multiplier for readable cache-size constants.
pub const KIB: u64 = 1024;
/// Mebibyte multiplier.
pub const MIB: u64 = 1024 * KIB;
/// Gibibyte multiplier.
pub const GIB: u64 = 1024 * MIB;

/// Per-core pipeline parameters (paper Table III, "Processor" row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum instructions dispatched into the ROB per cycle.
    pub issue_width: usize,
    /// Maximum instructions retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Load/store-queue capacity.
    pub lsq_entries: usize,
    /// Post-commit store-buffer capacity.
    pub store_buffer_entries: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            issue_width: 8,
            retire_width: 8,
            rob_entries: 192,
            lsq_entries: 32,
            store_buffer_entries: 32,
        }
    }
}

/// One cache level's geometry and access latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Hit/access latency in cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Number of 64-byte blocks this cache holds.
    #[must_use]
    pub fn blocks(&self) -> usize {
        (self.capacity_bytes / crate::BLOCK_BYTES as u64) as usize
    }

    /// Number of sets (`blocks / ways`).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways` blocks.
    #[must_use]
    pub fn sets(&self) -> usize {
        let blocks = self.blocks();
        assert_eq!(
            blocks % self.ways,
            0,
            "capacity must divide evenly into ways"
        );
        blocks / self.ways
    }
}

/// Main-memory timing (paper Table III, DRAM and NVMM rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTiming {
    /// DRAM read/write latency in cycles (55 ns).
    pub dram_access: Cycle,
    /// NVMM read latency in cycles (150 ns).
    pub nvmm_read: Cycle,
    /// NVMM write latency in cycles (500 ns).
    pub nvmm_write: Cycle,
    /// Entries in the NVMM controller's write-pending queue (the ADR
    /// persistence domain of the baseline machine).
    pub wpq_entries: usize,
    /// Independent NVMM banks that service requests in parallel (one
    /// 64-byte write per bank per 500 ns). 32 banks sustain ~4 GB/s of
    /// writes — sized so the WPQ absorbs the paper's worst-case
    /// back-to-back persist rate, as implied by eADR (and BBB-32) running
    /// without write-bandwidth stalls in the paper's results.
    pub nvmm_channels: usize,
}

impl Default for MemTiming {
    fn default() -> Self {
        Self {
            dram_access: ns_to_cycles(55),
            nvmm_read: ns_to_cycles(150),
            nvmm_write: ns_to_cycles(500),
            wpq_entries: 64,
            nvmm_channels: 32,
        }
    }
}

/// When the bbPB drains entries to NVMM (paper §III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Watermark draining (the paper's policy): when the buffer fills, a
    /// burst drains least-recently-written entries until occupancy falls
    /// back to `threshold_pct` percent of capacity (75% is the evaluated
    /// default). Every entry stays coalescable until the buffer is
    /// genuinely out of room, so the whole capacity acts as the
    /// coalescing window.
    Threshold {
        /// Occupancy percentage (0–100] a drain burst empties down to.
        threshold_pct: u8,
    },
    /// Drain whenever the buffer is non-empty. An ablation point: loses
    /// coalescing opportunities, increasing NVMM writes.
    Eager,
}

impl DrainPolicy {
    /// The paper's default: a 75% drain threshold.
    #[must_use]
    pub const fn paper_default() -> Self {
        DrainPolicy::Threshold { threshold_pct: 75 }
    }

    /// Number of occupied entries (resident plus drains in flight) at
    /// which a drain burst begins, for a buffer of `capacity` entries.
    #[must_use]
    pub fn trigger_level(&self, capacity: usize) -> usize {
        match *self {
            DrainPolicy::Eager => 1,
            DrainPolicy::Threshold { .. } => capacity.max(1),
        }
    }

    /// Number of *resident* entries a drain burst stops at.
    #[must_use]
    pub fn stop_level(&self, capacity: usize) -> usize {
        match *self {
            DrainPolicy::Eager => 0,
            DrainPolicy::Threshold { threshold_pct } => {
                (capacity * usize::from(threshold_pct)) / 100
            }
        }
    }
}

/// Battery-backed persist buffer parameters (paper §III, §V-D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbpbConfig {
    /// Entries per core (64-byte blocks for the memory-side design,
    /// individual stores for the processor-side design). Paper default: 32.
    pub entries: usize,
    /// Draining policy; paper default is 75% threshold.
    pub drain_policy: DrainPolicy,
    /// Cycles a draining entry stays occupied before its slot frees: the
    /// core-to-memory-controller round trip of the drain packet (plus WPQ
    /// backpressure when the queue is full). This is what makes very small
    /// bbPBs reject bursts of persisting stores (paper Fig. 8(a)).
    pub drain_latency: Cycle,
}

impl Default for BbpbConfig {
    fn default() -> Self {
        Self {
            entries: 32,
            drain_policy: DrainPolicy::paper_default(),
            drain_latency: 64,
        }
    }
}

/// Complete configuration of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cores (paper: 8).
    pub cores: usize,
    /// Per-core pipeline parameters.
    pub core: CoreConfig,
    /// Private L1 data cache (128 kB, 8-way, 2 cycles).
    pub l1d: CacheConfig,
    /// Shared L2, the LLC (1 MB, 8-way, 11 cycles).
    pub l2: CacheConfig,
    /// Main-memory timing.
    pub mem: MemTiming,
    /// bbPB geometry and drain policy.
    pub bbpb: BbpbConfig,
    /// DRAM capacity in bytes (8 GB).
    pub dram_bytes: u64,
    /// NVMM capacity in bytes (8 GB).
    pub nvmm_bytes: u64,
    /// Size of the persistent heap carved out of NVMM.
    pub persistent_heap_bytes: u64,
    /// Interconnect hop latency between a core and the shared L2, and
    /// between the L2 and a memory controller, in cycles.
    pub noc_hop: Cycle,
    /// Battery-back the store buffer so PoP moves up to store commit
    /// (required for program-order persistency under relaxed consistency,
    /// paper §III-C). On by default, matching the paper's design.
    pub battery_backed_sb: bool,
    /// Model relaxed consistency: the store buffer may write ready stores to
    /// the L1D out of program order. Off by default (TSO).
    pub relaxed_sb_drain: bool,
    /// BBB endurance optimization (paper §III-B): drop dirty persistent
    /// LLC evictions instead of writing them back (the bbPB has or had the
    /// line). On by default; turning it off is an ablation point.
    pub suppress_persistent_writebacks: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cores: 8,
            core: CoreConfig::default(),
            l1d: CacheConfig {
                capacity_bytes: 128 * KIB,
                ways: 8,
                latency: 2,
            },
            l2: CacheConfig {
                capacity_bytes: MIB,
                ways: 8,
                latency: 11,
            },
            mem: MemTiming::default(),
            bbpb: BbpbConfig::default(),
            dram_bytes: 8 * GIB,
            nvmm_bytes: 8 * GIB,
            persistent_heap_bytes: GIB,
            noc_hop: 4,
            battery_backed_sb: true,
            relaxed_sb_drain: false,
            suppress_persistent_writebacks: true,
        }
    }
}

impl SimConfig {
    /// A scaled-down machine for unit tests: tiny caches and buffers so
    /// evictions, rejections, and drains happen within a few hundred
    /// operations instead of millions.
    #[must_use]
    pub fn small_for_tests() -> Self {
        Self {
            cores: 2,
            l1d: CacheConfig {
                capacity_bytes: 2 * KIB,
                ways: 2,
                latency: 2,
            },
            l2: CacheConfig {
                capacity_bytes: 8 * KIB,
                ways: 4,
                latency: 11,
            },
            bbpb: BbpbConfig {
                entries: 4,
                drain_policy: DrainPolicy::paper_default(),
                drain_latency: 64,
            },
            dram_bytes: MIB,
            nvmm_bytes: MIB,
            persistent_heap_bytes: 512 * KIB,
            ..Self::default()
        }
    }

    /// Validates internal consistency, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any structural parameter is zero (the WPQ and the
    /// NVMM channel count included), a cache geometry does not divide
    /// evenly or has a set count that is not a power of two, or the L2 is
    /// smaller than one core's L1D (the inclusion invariant would be
    /// unsatisfiable).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be > 0".into());
        }
        if self.bbpb.entries == 0 {
            return Err("bbPB must have at least one entry".into());
        }
        if self.core.store_buffer_entries == 0 || self.core.rob_entries == 0 {
            return Err("core buffers must be non-empty".into());
        }
        for (name, c) in [("l1d", &self.l1d), ("l2", &self.l2)] {
            if c.ways == 0 || c.capacity_bytes == 0 {
                return Err(format!("{name}: ways and capacity must be > 0"));
            }
            let blocks = c.blocks();
            if blocks == 0 || blocks % c.ways != 0 {
                return Err(format!("{name}: capacity must divide into ways"));
            }
            // Block index bits select the set.
            if !(blocks / c.ways).is_power_of_two() {
                return Err(format!("{name}: set count must be a power of two"));
            }
        }
        if self.mem.wpq_entries == 0 || self.mem.nvmm_channels == 0 {
            return Err("the WPQ and the NVMM channels must be non-empty".into());
        }
        if self.l2.capacity_bytes < self.l1d.capacity_bytes {
            return Err("L2 must be at least as large as one L1D (inclusion)".into());
        }
        if let DrainPolicy::Threshold { threshold_pct } = self.bbpb.drain_policy {
            if threshold_pct == 0 || threshold_pct > 100 {
                return Err("drain threshold must be in (0, 100]".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table3() {
        let c = SimConfig::default();
        assert_eq!(c.cores, 8);
        assert_eq!(c.core.issue_width, 8);
        assert_eq!(c.core.rob_entries, 192);
        assert_eq!(c.core.lsq_entries, 32);
        assert_eq!(c.l1d.capacity_bytes, 128 * KIB);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l1d.latency, 2);
        assert_eq!(c.l2.capacity_bytes, MIB);
        assert_eq!(c.l2.latency, 11);
        assert_eq!(c.mem.dram_access, 110);
        assert_eq!(c.mem.nvmm_read, 300);
        assert_eq!(c.mem.nvmm_write, 1000);
        assert_eq!(c.bbpb.entries, 32);
        assert_eq!(
            c.bbpb.drain_policy,
            DrainPolicy::Threshold { threshold_pct: 75 }
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_geometry() {
        let c = SimConfig::default();
        assert_eq!(c.l1d.blocks(), 2048);
        assert_eq!(c.l1d.sets(), 256);
        assert_eq!(c.l2.blocks(), 16384);
        assert_eq!(c.l2.sets(), 2048);
    }

    #[test]
    fn drain_threshold_levels() {
        let p = DrainPolicy::paper_default();
        assert_eq!(p.trigger_level(32), 32); // bursts begin when full
        assert_eq!(p.stop_level(32), 24); // ... and empty down to 75%
        assert_eq!(p.stop_level(4), 3);
        assert_eq!(p.stop_level(1), 0); // a 1-entry buffer drains fully
        assert_eq!(DrainPolicy::Eager.trigger_level(32), 1);
        assert_eq!(DrainPolicy::Eager.stop_level(32), 0);
        // A 1% threshold on a tiny buffer drains (almost) everything.
        assert_eq!(DrainPolicy::Threshold { threshold_pct: 1 }.stop_level(4), 0);
    }

    #[test]
    fn small_config_is_valid() {
        assert!(SimConfig::small_for_tests().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let c = SimConfig {
            cores: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.bbpb.entries = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.l1d.ways = 3; // 2048 blocks % 3 != 0
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.l2.capacity_bytes = 64 * KIB; // smaller than L1D
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.bbpb.drain_policy = DrainPolicy::Threshold { threshold_pct: 0 };
        assert!(c.validate().is_err());
    }
}

//! Persistency modes: the machines the paper compares (Table I).

use std::fmt;

/// Which persistency support the simulated machine provides.
///
/// # Examples
///
/// ```
/// use bbb_core::PersistencyMode;
/// assert!(PersistencyMode::Pmem.requires_flushes());
/// assert!(!PersistencyMode::BbbMemorySide.requires_flushes());
/// assert!(PersistencyMode::BbbMemorySide.has_bbpb());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistencyMode {
    /// The ADR baseline programmed in the Intel PMEM style: the persistence
    /// domain is the WPQ only, and software must insert `clwb` + `sfence`
    /// to order persists (paper Fig. 3).
    Pmem,
    /// Enhanced ADR: the entire cache hierarchy (plus store buffers and
    /// WPQ) is battery backed. No flushes needed; the performance and
    /// NVMM-write *optimum* the paper normalizes against — at the price of
    /// a battery two to three orders of magnitude larger than BBB's.
    Eadr,
    /// BBB with the memory-side bbPB organization (the paper's design):
    /// block-granular entries inside the persistence domain, free
    /// coalescing and reordering, LLC dirty-inclusion.
    BbbMemorySide,
    /// BBB with the processor-side organization: ordered per-store entries,
    /// coalescing only between back-to-back stores to the same block.
    BbbProcessorSide,
    /// Buffered Epoch Persistency with *volatile* persist buffers (the
    /// DPO/HOPS lineage the paper's §VI contrasts BBB against): stores
    /// buffer per core and drain lazily, epoch barriers stall until the
    /// buffer empties, and a crash loses whatever is still buffered —
    /// durability is guaranteed only at epoch boundaries.
    Bep,
}

impl PersistencyMode {
    /// All modes, in the order the paper's tables list them (plus the
    /// epoch-persistency baseline from related work).
    pub const ALL: [PersistencyMode; 5] = [
        PersistencyMode::Pmem,
        PersistencyMode::Eadr,
        PersistencyMode::BbbMemorySide,
        PersistencyMode::BbbProcessorSide,
        PersistencyMode::Bep,
    ];

    /// True when correct persist ordering requires software `clwb`/`sfence`
    /// (Table I "Persist Inst." row).
    #[must_use]
    pub const fn requires_flushes(self) -> bool {
        matches!(self, PersistencyMode::Pmem)
    }

    /// True when the programmer must delimit epochs with persist barriers
    /// (the programmability cost BEP retains and BBB removes).
    #[must_use]
    pub const fn requires_epoch_barriers(self) -> bool {
        matches!(self, PersistencyMode::Bep)
    }

    /// True for either BBB organization.
    #[must_use]
    pub const fn has_bbpb(self) -> bool {
        matches!(
            self,
            PersistencyMode::BbbMemorySide | PersistencyMode::BbbProcessorSide
        )
    }

    /// True when the mode buffers persisting stores in a per-core persist
    /// buffer at all (battery-backed or volatile).
    #[must_use]
    pub const fn has_persist_buffer(self) -> bool {
        self.has_bbpb() || matches!(self, PersistencyMode::Bep)
    }

    /// True when the entire cache hierarchy is inside the persistence
    /// domain.
    #[must_use]
    pub const fn caches_persistent(self) -> bool {
        matches!(self, PersistencyMode::Eadr)
    }

    /// Short tag for labels, metric names and generated test names, e.g.
    /// `bbb-mem`.
    #[must_use]
    pub const fn tag(self) -> &'static str {
        match self {
            PersistencyMode::Pmem => "pmem",
            PersistencyMode::Eadr => "eadr",
            PersistencyMode::BbbMemorySide => "bbb-mem",
            PersistencyMode::BbbProcessorSide => "bbb-proc",
            PersistencyMode::Bep => "bep",
        }
    }

    /// Where the point of persistency sits (Table I "PoP location" row).
    #[must_use]
    pub const fn pop_location(self) -> &'static str {
        match self {
            PersistencyMode::Pmem | PersistencyMode::Bep => "WPQ/memory",
            PersistencyMode::Eadr => "L1D",
            PersistencyMode::BbbMemorySide | PersistencyMode::BbbProcessorSide => "bbPB/L1D",
        }
    }

    /// Relative battery requirement (Table I "Battery Needed" row).
    #[must_use]
    pub const fn battery(self) -> &'static str {
        match self {
            PersistencyMode::Pmem | PersistencyMode::Bep => "none (WPQ capacitor only)",
            PersistencyMode::Eadr => "large (whole hierarchy)",
            PersistencyMode::BbbMemorySide | PersistencyMode::BbbProcessorSide => {
                "small (bbPB only)"
            }
        }
    }
}

impl fmt::Display for PersistencyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PersistencyMode::Pmem => "PMEM (ADR + clwb/sfence)",
            PersistencyMode::Eadr => "eADR",
            PersistencyMode::BbbMemorySide => "BBB (memory-side)",
            PersistencyMode::BbbProcessorSide => "BBB (processor-side)",
            PersistencyMode::Bep => "BEP (volatile persist buffers + epoch barriers)",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_requirements_match_table1() {
        assert!(PersistencyMode::Pmem.requires_flushes());
        for m in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            assert!(!m.requires_flushes(), "{m} must not need flushes");
        }
    }

    #[test]
    fn bbpb_presence() {
        assert!(PersistencyMode::BbbMemorySide.has_bbpb());
        assert!(PersistencyMode::BbbProcessorSide.has_bbpb());
        assert!(!PersistencyMode::Pmem.has_bbpb());
        assert!(!PersistencyMode::Eadr.has_bbpb());
    }

    #[test]
    fn eadr_is_the_only_persistent_cache_mode() {
        assert!(PersistencyMode::Eadr.caches_persistent());
        assert_eq!(
            PersistencyMode::ALL
                .iter()
                .filter(|m| m.caches_persistent())
                .count(),
            1
        );
    }

    #[test]
    fn bep_programmability_profile() {
        let bep = PersistencyMode::Bep;
        assert!(!bep.requires_flushes());
        assert!(bep.requires_epoch_barriers());
        assert!(!bep.has_bbpb());
        assert!(bep.has_persist_buffer());
        assert_eq!(bep.pop_location(), "WPQ/memory");
        // Only BEP requires epoch barriers.
        assert_eq!(
            PersistencyMode::ALL
                .iter()
                .filter(|m| m.requires_epoch_barriers())
                .count(),
            1
        );
    }

    #[test]
    fn tags_are_stable() {
        // Table rows and metric names in the committed records use them.
        let tags: Vec<&str> = PersistencyMode::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(tags, ["pmem", "eadr", "bbb-mem", "bbb-proc", "bep"]);
    }

    #[test]
    fn descriptive_strings_are_nonempty() {
        for m in PersistencyMode::ALL {
            assert!(!m.pop_location().is_empty());
            assert!(!m.battery().is_empty());
            assert!(!format!("{m}").is_empty());
        }
    }
}

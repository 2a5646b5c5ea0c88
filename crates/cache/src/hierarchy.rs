//! The directory-based MESI protocol over the two-level hierarchy.
//!
//! [`CacheHierarchy`] owns every core's L1D and the shared inclusive L2
//! (the LLC), and resolves each access as one blocking transaction: latency
//! is accumulated analytically along the path the request takes (L1 → NoC →
//! L2 → peer L1 or memory), state is updated atomically, and the relevant
//! [`CoherenceHooks`] fire for every event the paper's Table II assigns a
//! bbPB action to.
//!
//! Directory convention: an L1 holding a block in **M or E** is recorded as
//! the line's `owner` (E→M upgrades are silent in MESI, so the directory
//! cannot distinguish them anyway); L1s holding **S** are recorded in the
//! sharer mask.

use bbb_sim::{AddressMap, BlockAddr, Counter, Cycle, SimConfig, Stats, BLOCK_BYTES};

use crate::block::{cores_in, L2Line, Mesi};
use crate::hooks::{CoherenceHooks, MemoryPort, WritebackDecision};
use crate::l1::L1Cache;
use crate::l2::L2Cache;

/// Timing and hit/miss outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the access completes at the requesting core.
    pub completion: Cycle,
    /// True if the access was satisfied by the requester's L1.
    pub l1_hit: bool,
}

/// Outcome of a `clwb`-style flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushResult {
    /// Cycle at which the flushed data is durable (WPQ acceptance). Equals
    /// the issue cycle when the block was already clean everywhere.
    pub persist: Cycle,
    /// True if any dirty data actually moved to memory.
    pub wrote_back: bool,
}

#[derive(Debug, Default, Clone)]
struct Counters {
    l1_hits: Counter,
    l1_misses: Counter,
    l2_hits: Counter,
    l2_misses: Counter,
    interventions: Counter,
    upgrades: Counter,
    invalidations: Counter,
    back_invalidations: Counter,
    writebacks: Counter,
    suppressed_writebacks: Counter,
    flushes: Counter,
}

/// The full cache hierarchy: per-core L1Ds plus the shared L2 directory.
///
/// See the crate docs for the modeling approach; unit tests below exercise
/// every coherence case of the paper's Table II.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1s: Vec<L1Cache>,
    l2: L2Cache,
    map: AddressMap,
    l1_lat: Cycle,
    l2_lat: Cycle,
    noc: Cycle,
    counters: Counters,
    /// Whether every access that can change cached *contents* — L1-miss
    /// reads, writes, flushes — reports its block, and every victim it
    /// evicts, to the memory port ([`MemoryPort::note_change`]): the
    /// blocks whose crash image may have changed where dirty lines
    /// survive a crash (eADR). L1 read hits only refresh LRU stamps and
    /// report nothing. On unless the owner turns it off.
    change_notes: bool,
}

impl CacheHierarchy {
    /// Builds the hierarchy for a machine configuration.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            l1s: (0..cfg.cores).map(|_| L1Cache::new(&cfg.l1d)).collect(),
            l2: L2Cache::new(&cfg.l2),
            map: AddressMap::new(cfg),
            l1_lat: cfg.l1d.latency,
            l2_lat: cfg.l2.latency,
            noc: cfg.noc_hop,
            counters: Counters::default(),
            change_notes: true,
        }
    }

    /// Turns the change notes to the memory port on or off (see
    /// [`MemoryPort::note_change`]): a machine whose caches are outside
    /// its persistence domain need not report their changes.
    pub fn set_change_notes(&mut self, on: bool) {
        self.change_notes = on;
    }

    /// Reports `block` to `mem` as changed, when notes are on.
    #[inline]
    fn note(&self, mem: &mut dyn MemoryPort, block: BlockAddr) {
        if self.change_notes {
            mem.note_change(block);
        }
    }

    /// Number of cores (L1 caches).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    /// Immutable view of one core's L1 (tests and crash draining).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1(&self, core: usize) -> &L1Cache {
        &self.l1s[core]
    }

    /// Immutable view of the shared L2.
    #[must_use]
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }

    /// A load of `block` by `core`. Returns the access result and the
    /// current block payload.
    pub fn read(
        &mut self,
        now: Cycle,
        core: usize,
        block: BlockAddr,
        mem: &mut dyn MemoryPort,
        hooks: &mut dyn CoherenceHooks,
    ) -> (AccessResult, [u8; BLOCK_BYTES]) {
        if let Some(line) = self.l1s[core].touch(block) {
            if line.state.readable() {
                // L1 read hits refresh LRU stamps only — they cannot change
                // any cached *contents*, so they report no change.
                self.counters.l1_hits.inc();
                return (
                    AccessResult {
                        completion: now + self.l1_lat,
                        l1_hit: true,
                    },
                    line.data,
                );
            }
        }
        self.note(mem, block);
        self.counters.l1_misses.inc();
        let mut t = now + self.l1_lat + self.noc + self.l2_lat;

        let (data, fill_state) = if let Some(owner) = self.l2_owner(block) {
            // L2 hit with a remote M/E owner: intervention (Fig. 6(c)).
            self.counters.l2_hits.inc();
            debug_assert_ne!(owner, core, "owner would have hit in its own L1");
            self.counters.interventions.inc();
            let was_m = self.l1s[owner].state_of(block) == Mesi::M;
            let data = self.l1s[owner].downgrade_to_shared(block);
            let line = self
                .l2
                .touch(block)
                .expect("inclusion: owner implies L2 line");
            line.owner = None;
            line.add_sharer(owner);
            if was_m {
                line.data = data;
                // BBB note: the dirty data stays dirty in the LLC; the
                // traditional flush-to-memory on M->S downgrade is already
                // absorbed by the inclusive LLC, and the paper's
                // optimization (skip the memory write) applies when this
                // line is eventually evicted.
                line.dirty = true;
                hooks.on_remote_downgrade(now, block, owner);
            }
            t += 2 * self.noc + self.l1_lat;
            (data, Mesi::S)
        } else if let Some(line) = self.l2.touch(block) {
            // Plain L2 hit.
            self.counters.l2_hits.inc();
            let state = if line.unowned() { Mesi::E } else { Mesi::S };
            (line.data, state)
        } else {
            // L2 miss: fetch from memory. Dirty-inclusion of bbPBs
            // guarantees no bbPB holds the block (asserted by bbb-core's
            // hooks in debug builds), so memory data is current.
            self.counters.l2_misses.inc();
            let (done, data) = mem.read_block(t, block);
            t = done;
            let persistent = self.map.is_persistent_block(block);
            let victim = self.l2.fill(block, data, persistent);
            if let Some(v) = victim {
                let accepted = self.evict_l2_line(t, v, mem, hooks);
                t = t.max(accepted);
            }
            (data, Mesi::E)
        };

        // Record the requester in the directory.
        {
            let line = self.l2.peek_mut(block).expect("line just ensured");
            match fill_state {
                Mesi::E => {
                    debug_assert!(line.unowned());
                    line.owner = Some(core);
                }
                Mesi::S => line.add_sharer(core),
                _ => unreachable!("fills are E or S"),
            }
        }

        t += self.noc; // data back to the L1
        let persistent = self.map.is_persistent_block(block);
        if let Some(victim) = self.l1s[core].fill(block, fill_state, data, persistent) {
            self.retire_l1_victim(t, core, victim.block, victim.state, victim.data, mem, hooks);
        }
        (
            AccessResult {
                completion: t,
                l1_hit: false,
            },
            data,
        )
    }

    /// A store by `core` writing `bytes` at `offset` within `block`.
    /// Obtains M state (invalidating remote copies per Table II), applies
    /// the payload to the L1 line, and returns the access result.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the block size.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        now: Cycle,
        core: usize,
        block: BlockAddr,
        offset: usize,
        bytes: &[u8],
        mem: &mut dyn MemoryPort,
        hooks: &mut dyn CoherenceHooks,
    ) -> AccessResult {
        assert!(offset + bytes.len() <= BLOCK_BYTES, "store exceeds block");
        self.note(mem, block);
        // Fast path: the requester already owns the line — M outright, or E
        // via the silent upgrade (the directory records us as owner either
        // way). A single tag probe serves the whole store.
        let fast = match self.l1s[core].touch(block) {
            Some(line) if matches!(line.state, Mesi::M | Mesi::E) => {
                line.state = Mesi::M;
                line.data[offset..offset + bytes.len()].copy_from_slice(bytes);
                true
            }
            _ => false,
        };
        if fast {
            self.counters.l1_hits.inc();
            debug_assert_eq!(self.l2_owner(block), Some(core));
            return AccessResult {
                completion: now + self.l1_lat,
                l1_hit: true,
            };
        }
        let state = self.l1s[core].state_of(block);
        let result = match state {
            Mesi::M | Mesi::E => unreachable!("owned lines take the fast path"),
            Mesi::S => {
                // Upgrade: invalidate the other sharers (Fig. 6(b)).
                self.counters.l1_misses.inc();
                self.counters.upgrades.inc();
                let t = now + self.l1_lat + self.noc + self.l2_lat;
                // Copy the directory bitmask out so sharer iteration does
                // not hold the line borrow (and allocates nothing).
                let mask = self
                    .l2
                    .touch(block)
                    .expect("inclusion: S implies L2 line")
                    .sharer_mask();
                for o in cores_in(mask).filter(|&c| c != core) {
                    self.counters.invalidations.inc();
                    self.l1s[o].invalidate(block);
                    hooks.on_remote_invalidate(now, block, o, core, mem);
                }
                let line = self.l2.peek_mut(block).expect("line present");
                line.sharers = 0;
                line.owner = Some(core);
                self.l1s[core].touch(block).expect("line present").state = Mesi::M;
                AccessResult {
                    completion: t + 2 * self.noc,
                    l1_hit: false,
                }
            }
            Mesi::I => {
                // Read-exclusive (Fig. 6(a) when a remote M copy exists).
                self.counters.l1_misses.inc();
                let mut t = now + self.l1_lat + self.noc + self.l2_lat;
                let data = if let Some(owner) = self.l2_owner(block) {
                    self.counters.l2_hits.inc();
                    debug_assert_ne!(owner, core);
                    self.counters.invalidations.inc();
                    let line = self.l1s[owner].invalidate(block).expect("directory owner");
                    hooks.on_remote_invalidate(now, block, owner, core, mem);
                    let l2line = self.l2.touch(block).expect("inclusion");
                    if line.state == Mesi::M {
                        l2line.data = line.data;
                        l2line.dirty = true;
                    }
                    l2line.owner = None;
                    t += 2 * self.noc + self.l1_lat;
                    l2line.data
                } else if self.l2.contains_block(block) {
                    self.counters.l2_hits.inc();
                    let mask = self.l2.touch(block).expect("present").sharer_mask();
                    if cores_in(mask).any(|c| c != core) {
                        t += 2 * self.noc;
                    }
                    for o in cores_in(mask).filter(|&c| c != core) {
                        self.counters.invalidations.inc();
                        self.l1s[o].invalidate(block);
                        hooks.on_remote_invalidate(now, block, o, core, mem);
                    }
                    let line = self.l2.peek_mut(block).expect("present");
                    line.sharers = 0;
                    line.data
                } else {
                    self.counters.l2_misses.inc();
                    let (done, data) = mem.read_block(t, block);
                    t = done;
                    let persistent = self.map.is_persistent_block(block);
                    if let Some(v) = self.l2.fill(block, data, persistent) {
                        let accepted = self.evict_l2_line(t, v, mem, hooks);
                        t = t.max(accepted);
                    }
                    data
                };
                {
                    let line = self.l2.peek_mut(block).expect("ensured");
                    line.owner = Some(core);
                    line.sharers = 0;
                }
                t += self.noc;
                let persistent = self.map.is_persistent_block(block);
                if let Some(victim) = self.l1s[core].fill(block, Mesi::M, data, persistent) {
                    self.retire_l1_victim(
                        t,
                        core,
                        victim.block,
                        victim.state,
                        victim.data,
                        mem,
                        hooks,
                    );
                }
                AccessResult {
                    completion: t,
                    l1_hit: false,
                }
            }
        };

        let line = self.l1s[core].peek_mut(block).expect("M line installed");
        debug_assert_eq!(line.state, Mesi::M);
        line.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        result
    }

    /// A `clwb`-style flush of `block` issued by `core`: writes any dirty
    /// copy back to memory and leaves caches clean, without invalidating.
    pub fn flush(
        &mut self,
        now: Cycle,
        core: usize,
        block: BlockAddr,
        mem: &mut dyn MemoryPort,
    ) -> FlushResult {
        let _ = core; // the flush path is identical regardless of issuer
        self.note(mem, block);
        self.counters.flushes.inc();
        let t = now + self.l1_lat + self.noc + self.l2_lat;

        let Some(owner) = self.l2_owner_or_none(block) else {
            return FlushResult {
                persist: now,
                wrote_back: false,
            };
        };

        let (data, was_dirty) = match owner {
            Some(o) if self.l1s[o].state_of(block) == Mesi::M => {
                let data = self.l1s[o].downgrade_to_shared(block);
                let line = self.l2.peek_mut(block).expect("inclusion");
                line.data = data;
                line.owner = None;
                line.add_sharer(o);
                (data, true)
            }
            Some(o) => {
                // Owner in E: clean; demote to S for simplicity.
                let data = self.l1s[o].downgrade_to_shared(block);
                let line = self.l2.peek_mut(block).expect("inclusion");
                line.owner = None;
                line.add_sharer(o);
                (data, line.dirty)
            }
            None => {
                let line = self.l2.peek(block).expect("checked present");
                (line.data, line.dirty)
            }
        };

        if !was_dirty {
            return FlushResult {
                persist: now,
                wrote_back: false,
            };
        }
        let persist = mem.write_block(t, block, data);
        let line = self.l2.peek_mut(block).expect("present");
        line.dirty = false;
        FlushResult {
            persist,
            wrote_back: true,
        }
    }

    /// Every block that holds dirty data anywhere in the hierarchy, with
    /// its latest payload — the drain set of an eADR crash. The list is
    /// deduplicated: an L1 M copy supersedes the (stale) L2 payload.
    pub fn dirty_blocks(&self) -> impl Iterator<Item = (BlockAddr, [u8; BLOCK_BYTES], bool)> + '_ {
        self.l2.iter().filter_map(|line| {
            if let Some(o) = line.owner {
                let l1 = self.l1s[o].peek(line.block).expect("inclusion");
                if l1.state == Mesi::M {
                    return Some((line.block, l1.data, line.persistent));
                }
            }
            line.dirty
                .then_some((line.block, line.data, line.persistent))
        })
    }

    /// `block`'s entry of [`CacheHierarchy::dirty_blocks`]: its latest
    /// payload when it holds dirty data anywhere in the hierarchy.
    #[must_use]
    pub fn dirty_block(&self, block: BlockAddr) -> Option<[u8; BLOCK_BYTES]> {
        let line = self.l2.peek(block)?;
        if let Some(o) = line.owner {
            let l1 = self.l1s[o].peek(block).expect("inclusion");
            if l1.state == Mesi::M {
                return Some(l1.data);
            }
        }
        line.dirty.then_some(line.data)
    }

    /// Latest value of `block` visible in the hierarchy, if cached.
    #[must_use]
    pub fn peek_block(&self, block: BlockAddr) -> Option<[u8; BLOCK_BYTES]> {
        let line = self.l2.peek(block)?;
        if let Some(o) = line.owner {
            if let Some(l1) = self.l1s[o].peek(block) {
                return Some(l1.data);
            }
        }
        Some(line.data)
    }

    /// Verifies the inclusion and directory invariants; call from tests.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violation found.
    pub fn check_invariants(&self) {
        for (core, l1) in self.l1s.iter().enumerate() {
            for line in l1.iter() {
                let l2 = self
                    .l2
                    .peek(line.block)
                    .unwrap_or_else(|| panic!("inclusion violated: {} not in L2", line.block));
                match line.state {
                    Mesi::M | Mesi::E => assert_eq!(
                        l2.owner,
                        Some(core),
                        "directory owner mismatch for {}",
                        line.block
                    ),
                    Mesi::S => assert!(
                        l2.has_sharer(core),
                        "directory sharer mismatch for {}",
                        line.block
                    ),
                    Mesi::I => {}
                }
            }
        }
        for line in self.l2.iter() {
            if let Some(o) = line.owner {
                let st = self.l1s[o].state_of(line.block);
                assert!(
                    matches!(st, Mesi::M | Mesi::E),
                    "owner {o} of {} holds state {st:?}",
                    line.block
                );
                assert_eq!(line.sharers, 0, "owned line with sharers: {}", line.block);
            }
            for c in line.sharer_cores() {
                assert_eq!(
                    self.l1s[c].state_of(line.block),
                    Mesi::S,
                    "sharer {c} of {} not in S",
                    line.block
                );
            }
        }
    }

    /// Exports counters under the `cache.` prefix.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let c = &self.counters;
        let mut s = Stats::new();
        s.set("cache.l1_hits", c.l1_hits.get());
        s.set("cache.l1_misses", c.l1_misses.get());
        s.set("cache.l2_hits", c.l2_hits.get());
        s.set("cache.l2_misses", c.l2_misses.get());
        s.set("cache.interventions", c.interventions.get());
        s.set("cache.upgrades", c.upgrades.get());
        s.set("cache.invalidations", c.invalidations.get());
        s.set("cache.back_invalidations", c.back_invalidations.get());
        s.set("cache.writebacks", c.writebacks.get());
        s.set("cache.suppressed_writebacks", c.suppressed_writebacks.get());
        s.set("cache.flushes", c.flushes.get());
        s
    }

    /// Owner core of `block` if the L2 records one and it isn't `block`'s
    /// requester-side L1 state that matters. `None` when the block is
    /// absent from L2 or unowned.
    fn l2_owner(&self, block: BlockAddr) -> Option<usize> {
        self.l2.peek(block).and_then(|l| l.owner)
    }

    /// `None` when the block is absent from the L2 entirely, otherwise
    /// `Some(owner_or_none)`.
    fn l2_owner_or_none(&self, block: BlockAddr) -> Option<Option<usize>> {
        self.l2.peek(block).map(|l| l.owner)
    }

    /// Folds an evicted L1 line's state back into the L2 directory and
    /// notifies the persistence hooks (bbPB self-inclusion, see
    /// [`CoherenceHooks::on_l1_evict`]).
    #[allow(clippy::too_many_arguments)]
    fn retire_l1_victim(
        &mut self,
        now: Cycle,
        core: usize,
        block: BlockAddr,
        state: Mesi,
        data: [u8; BLOCK_BYTES],
        mem: &mut dyn MemoryPort,
        hooks: &mut dyn CoherenceHooks,
    ) {
        self.note(mem, block);
        let line = self
            .l2
            .peek_mut(block)
            .expect("inclusion: L1 victim must be in L2");
        match state {
            Mesi::M => {
                debug_assert_eq!(line.owner, Some(core));
                line.owner = None;
                line.data = data;
                line.dirty = true;
            }
            Mesi::E => {
                debug_assert_eq!(line.owner, Some(core));
                line.owner = None;
            }
            Mesi::S => line.remove_sharer(core),
            Mesi::I => {}
        }
        hooks.on_l1_evict(now, block, core, mem);
    }

    /// Handles an LLC eviction: back-invalidate L1 copies, then consult the
    /// hooks about the (possibly suppressed) writeback. Returns the cycle
    /// the victim's writeback is accepted by memory — the fill that forced
    /// the eviction cannot complete earlier (a full WPQ backpressures the
    /// LLC victim buffer, throttling every mode identically).
    fn evict_l2_line(
        &mut self,
        now: Cycle,
        mut victim: L2Line,
        mem: &mut dyn MemoryPort,
        hooks: &mut dyn CoherenceHooks,
    ) -> Cycle {
        self.note(mem, victim.block);
        if let Some(o) = victim.owner {
            self.counters.back_invalidations.inc();
            if let Some(l1line) = self.l1s[o].invalidate(victim.block) {
                if l1line.state == Mesi::M {
                    victim.data = l1line.data;
                    victim.dirty = true;
                }
            }
        }
        for c in cores_in(victim.sharer_mask()) {
            self.counters.back_invalidations.inc();
            self.l1s[c].invalidate(victim.block);
        }
        if victim.dirty {
            match hooks.on_llc_dirty_evict(now, victim.block, &victim.data, victim.persistent, mem)
            {
                WritebackDecision::WriteBack => {
                    self.counters.writebacks.inc();
                    mem.write_block(now, victim.block, victim.data)
                }
                WritebackDecision::Suppress => {
                    self.counters.suppressed_writebacks.inc();
                    now
                }
            }
        } else {
            hooks.on_llc_clean_evict(now, victim.block, mem);
            now
        }
    }
}

impl L2Cache {
    /// True if the block is present (helper local to the protocol).
    #[must_use]
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.peek(block).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use bbb_mem::ByteStore;

    /// A memory port over a plain byte store with fixed latencies, plus
    /// write logging for assertions.
    struct TestMem {
        store: ByteStore,
        read_lat: Cycle,
        write_lat: Cycle,
        writes: Vec<BlockAddr>,
    }

    impl TestMem {
        fn new() -> Self {
            Self {
                store: ByteStore::new(),
                read_lat: 300,
                write_lat: 0, // persist point: immediate accept
                writes: Vec::new(),
            }
        }
    }

    impl MemoryPort for TestMem {
        fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
            (now + self.read_lat, self.store.read_block(block))
        }
        fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
            self.writes.push(block);
            self.store.write_block(block, &data);
            now + self.write_lat
        }
        fn rmw_block(&mut self, _: Cycle, _: BlockAddr, _: usize, _: &[u8]) -> Cycle {
            unreachable!("the hierarchy writes whole blocks")
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::small_for_tests()
    }

    /// A block inside the persistent heap of the small test config.
    fn pblock(cfg_: &SimConfig, i: u64) -> BlockAddr {
        let map = AddressMap::new(cfg_);
        BlockAddr::containing(map.persistent_base() + i * BLOCK_BYTES as u64)
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 0);
        mem.store.write_block(b, &[0x11; 64]);

        let (r1, d1) = h.read(0, 0, b, &mut mem, &mut hooks);
        assert!(!r1.l1_hit);
        assert_eq!(d1, [0x11; 64]);
        assert!(r1.completion > 300);

        let (r2, d2) = h.read(r1.completion, 0, b, &mut mem, &mut hooks);
        assert!(r2.l1_hit);
        assert_eq!(r2.completion, r1.completion + c.l1d.latency);
        assert_eq!(d2, [0x11; 64]);
        h.check_invariants();
        assert_eq!(h.stats().get("cache.l1_hits"), 1);
        assert_eq!(h.stats().get("cache.l2_misses"), 1);
    }

    #[test]
    fn exclusive_fill_then_silent_upgrade() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 1);

        h.read(0, 0, b, &mut mem, &mut hooks);
        assert_eq!(h.l1(0).state_of(b), Mesi::E);
        let w = h.write(100, 0, b, 0, &[0xAA], &mut mem, &mut hooks);
        assert!(w.l1_hit, "E->M upgrade is silent");
        assert_eq!(h.l1(0).state_of(b), Mesi::M);
        assert_eq!(h.peek_block(b).unwrap()[0], 0xAA);
        h.check_invariants();
    }

    #[test]
    fn read_shared_by_two_cores() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 2);

        h.read(0, 0, b, &mut mem, &mut hooks);
        h.read(1000, 1, b, &mut mem, &mut hooks);
        // First reader had E; second read finds an owner -> intervention
        // downgrades (clean E, no dirty data) or plain share.
        assert_eq!(h.l1(0).state_of(b), Mesi::S);
        assert_eq!(h.l1(1).state_of(b), Mesi::S);
        h.check_invariants();
    }

    #[test]
    fn write_invalidates_remote_m_copy_fig6a() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 3);

        h.write(0, 0, b, 0, &[0x01], &mut mem, &mut hooks);
        assert_eq!(h.l1(0).state_of(b), Mesi::M);
        // Core 1 writes: RdX must invalidate core 0 and transfer the data.
        h.write(1000, 1, b, 1, &[0x02], &mut mem, &mut hooks);
        assert_eq!(h.l1(0).state_of(b), Mesi::I);
        assert_eq!(h.l1(1).state_of(b), Mesi::M);
        let data = h.peek_block(b).unwrap();
        assert_eq!(&data[..2], &[0x01, 0x02], "both writes merged");
        assert_eq!(h.stats().get("cache.invalidations"), 1);
        h.check_invariants();
    }

    #[test]
    fn upgrade_invalidates_sharers_fig6b() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 4);

        h.read(0, 0, b, &mut mem, &mut hooks);
        h.read(1000, 1, b, &mut mem, &mut hooks);
        assert_eq!(h.l1(0).state_of(b), Mesi::S);
        // Core 1 upgrades S -> M.
        let w = h.write(2000, 1, b, 0, &[0x5A], &mut mem, &mut hooks);
        assert!(!w.l1_hit);
        assert_eq!(h.l1(0).state_of(b), Mesi::I);
        assert_eq!(h.l1(1).state_of(b), Mesi::M);
        assert_eq!(h.stats().get("cache.upgrades"), 1);
        h.check_invariants();
    }

    #[test]
    fn read_downgrades_remote_m_copy_fig6c() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 5);

        h.write(0, 0, b, 0, &[0x77], &mut mem, &mut hooks);
        let (_, data) = h.read(1000, 1, b, &mut mem, &mut hooks);
        assert_eq!(data[0], 0x77, "intervention forwards dirty data");
        assert_eq!(h.l1(0).state_of(b), Mesi::S);
        assert_eq!(h.l1(1).state_of(b), Mesi::S);
        // No memory writeback happened: dirty data absorbed by LLC.
        assert!(mem.writes.is_empty());
        assert_eq!(h.stats().get("cache.interventions"), 1);
        h.check_invariants();
    }

    #[test]
    fn flush_writes_back_dirty_data_and_cleans() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 6);

        h.write(0, 0, b, 0, &[0xEE], &mut mem, &mut hooks);
        let f = h.flush(100, 0, b, &mut mem);
        assert!(f.wrote_back);
        assert_eq!(mem.writes, vec![b]);
        assert_eq!(mem.store.read_block(b)[0], 0xEE);
        // Second flush: nothing dirty.
        let f2 = h.flush(200, 0, b, &mut mem);
        assert!(!f2.wrote_back);
        assert_eq!(f2.persist, 200);
        h.check_invariants();
    }

    #[test]
    fn flush_of_uncached_block_is_noop() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let b = pblock(&c, 7);
        let f = h.flush(50, 0, b, &mut mem);
        assert!(!f.wrote_back);
        assert_eq!(f.persist, 50);
    }

    #[test]
    fn llc_eviction_writes_back_dirty_block() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        // Small config L2: 8 KiB / 64 = 128 blocks, 4 ways, 32 sets.
        // Blocks with the same (index % 32) collide.
        let base = pblock(&c, 0);
        let collide = |k: u64| BlockAddr::from_index(base.index() + k * 32);
        // Dirty the first block from core 0, then stream four more through
        // the same L2 set from core 1, forcing an LLC eviction while core
        // 0's L1 still holds the dirty line (back-invalidation required).
        h.write(0, 0, collide(0), 0, &[0xD1], &mut mem, &mut hooks);
        for k in 1..=4 {
            h.read(1000 * k, 1, collide(k), &mut mem, &mut hooks);
        }
        assert!(
            mem.writes.contains(&collide(0)),
            "dirty victim written back: {:?}",
            mem.writes
        );
        assert_eq!(h.l1(0).state_of(collide(0)), Mesi::I, "back-invalidated");
        assert_eq!(mem.store.read_block(collide(0))[0], 0xD1);
        assert!(h.stats().get("cache.writebacks") >= 1);
        assert!(h.stats().get("cache.back_invalidations") >= 1);
        h.check_invariants();
    }

    #[test]
    fn dirty_blocks_reports_l1_m_payload() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 8);
        h.write(0, 0, b, 0, &[0xBB], &mut mem, &mut hooks);
        let dirty: Vec<_> = h.dirty_blocks().collect();
        assert_eq!(dirty.len(), 1);
        let (blk, data, persistent) = dirty[0];
        assert_eq!(blk, b);
        assert_eq!(data[0], 0xBB);
        assert!(persistent);
    }

    #[test]
    fn dram_blocks_are_not_persistent() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = BlockAddr::from_index(4); // DRAM region
        h.write(0, 0, b, 0, &[0x01], &mut mem, &mut hooks);
        let dirty: Vec<_> = h.dirty_blocks().collect();
        assert_eq!(dirty.len(), 1);
        assert!(!dirty[0].2);
    }

    #[test]
    fn ping_pong_preserves_data_and_invariants() {
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = NullHooks;
        let b = pblock(&c, 9);
        let mut t = 0;
        for i in 0..16u8 {
            let core = (i % 2) as usize;
            h.write(t, core, b, i as usize, &[i], &mut mem, &mut hooks);
            t += 500;
        }
        h.check_invariants();
        let data = h.peek_block(b).unwrap();
        for i in 0..16u8 {
            assert_eq!(data[i as usize], i, "byte {i} survived the ping-pong");
        }
    }

    #[test]
    fn suppression_hook_is_respected() {
        struct SuppressAll;
        impl CoherenceHooks for SuppressAll {
            fn on_llc_dirty_evict(
                &mut self,
                _: Cycle,
                _: BlockAddr,
                _: &[u8; BLOCK_BYTES],
                _: bool,
                _: &mut dyn MemoryPort,
            ) -> WritebackDecision {
                WritebackDecision::Suppress
            }
        }
        let c = cfg();
        let mut h = CacheHierarchy::new(&c);
        let mut mem = TestMem::new();
        let mut hooks = SuppressAll;
        let base = pblock(&c, 0);
        let collide = |k: u64| BlockAddr::from_index(base.index() + k * 32);
        h.write(0, 0, collide(0), 0, &[0xD1], &mut mem, &mut hooks);
        for k in 1..=4 {
            h.read(1000 * k, 0, collide(k), &mut mem, &mut hooks);
        }
        assert!(!mem.writes.contains(&collide(0)), "writeback suppressed");
        assert!(h.stats().get("cache.suppressed_writebacks") >= 1);
    }
}

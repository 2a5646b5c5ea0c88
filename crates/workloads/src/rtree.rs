//! The `rtree` workload: a persistent spatial R-tree.
//!
//! Matches the paper's Table IV `rtree` row: a 1M-node tree, pre-populated
//! at setup, with random rectangle insertions during the measured window
//! (15.5% persisting stores in the paper). Inserts descend by
//! least-enlargement, append into a leaf, and split full nodes by
//! partitioning entries around the midpoint of the node's bounding box.
//!
//! Crash discipline: a fresh node is fully written before the single
//! pointer/count store that publishes it, so strict persistency keeps the
//! tree structurally valid at every crash point. (Bounding boxes on the
//! ancestor path are updated after the publish; a crash between publish
//! and box-tighten leaves boxes conservative-but-valid, which the checker
//! accepts — the classic relaxed-invariant trick real persistent R-trees
//! use.)
//!
//! Node layout (8 entries/node, 8 + 8*24 = 200 B, rounded to 256 B):
//! `{ header: count | (leaf_flag << 32), entries[8]: { min: 2×u16 packed,
//! max: 2×u16 packed (one u64), child_or_value: u64, pad: u64 } }`.
//! Coordinates are u16 grid points packed into one u64 per entry.

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::locks::InsertLock;
use crate::palloc::Palloc;
use crate::walk::NodeBudget;

/// Entries per R-tree node.
pub const FANOUT: usize = 8;
const NODE_BYTES: u64 = 256;
const ENTRY_BYTES: u64 = 24;

/// A packed axis-aligned rectangle on a u16 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Min x/y, max x/y.
    pub x0: u16,
    /// Min y.
    pub y0: u16,
    /// Max x (inclusive).
    pub x1: u16,
    /// Max y (inclusive).
    pub y1: u16,
}

impl Rect {
    /// Packs into one u64 (x0 | y0<<16 | x1<<32 | y1<<48).
    #[must_use]
    pub fn pack(self) -> u64 {
        u64::from(self.x0)
            | (u64::from(self.y0) << 16)
            | (u64::from(self.x1) << 32)
            | (u64::from(self.y1) << 48)
    }

    /// Unpacks from [`Rect::pack`]'s encoding.
    #[must_use]
    pub fn unpack(v: u64) -> Self {
        Self {
            x0: v as u16,
            y0: (v >> 16) as u16,
            x1: (v >> 32) as u16,
            y1: (v >> 48) as u16,
        }
    }

    /// True when the rectangle is well-formed (min ≤ max).
    #[must_use]
    pub fn valid(self) -> bool {
        self.x0 <= self.x1 && self.y0 <= self.y1
    }

    /// The smallest rectangle containing both.
    #[must_use]
    pub fn union(self, o: Rect) -> Rect {
        Rect {
            x0: self.x0.min(o.x0),
            y0: self.y0.min(o.y0),
            x1: self.x1.max(o.x1),
            y1: self.y1.max(o.y1),
        }
    }

    /// True when `o` fits entirely inside `self`.
    #[must_use]
    pub fn contains(self, o: Rect) -> bool {
        self.x0 <= o.x0 && self.y0 <= o.y0 && self.x1 >= o.x1 && self.y1 >= o.y1
    }

    fn area(self) -> u64 {
        (u64::from(self.x1) - u64::from(self.x0) + 1)
            * (u64::from(self.y1) - u64::from(self.y0) + 1)
    }

    fn enlargement(self, o: Rect) -> u64 {
        self.union(o).area() - self.area()
    }

    fn center(self) -> (u32, u32) {
        (
            (u32::from(self.x0) + u32::from(self.x1)) / 2,
            (u32::from(self.y0) + u32::from(self.y1)) / 2,
        )
    }
}

const LEAF_FLAG: u64 = 1 << 32;

fn hdr_count(h: u64) -> usize {
    (h & 0xFFFF_FFFF) as usize
}

fn hdr_is_leaf(h: u64) -> bool {
    h & LEAF_FLAG != 0
}

fn entry_addr(node: Addr, i: usize) -> Addr {
    node + 8 + i as u64 * ENTRY_BYTES
}

/// A persistent R-tree driven as a multi-core workload.
#[derive(Debug)]
pub struct RtreeWorkload {
    root_slot: Addr,
    map: AddressMap,
    palloc: Palloc,
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    initial: u64,
    instrument: bool,
    inserted: u64,
    lock: InsertLock,
}

impl RtreeWorkload {
    /// Creates the workload; `root_slot` is a reserved root-pointer slot.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        map: AddressMap,
        root_slot: Addr,
        palloc: Palloc,
        cores: usize,
        initial: u64,
        per_core_ops: u64,
        seed: u64,
        instrument: bool,
    ) -> Self {
        let mut master = SplitMix64::new(seed);
        Self {
            root_slot,
            map,
            palloc,
            rngs: (0..cores).map(|_| master.split()).collect(),
            remaining: vec![per_core_ops; cores],
            initial,
            instrument,
            inserted: 0,
            lock: InsertLock::new(),
        }
    }

    /// Rectangles inserted (setup + measured).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    fn random_rect(rng: &mut SplitMix64) -> Rect {
        let x0 = rng.next_below(60_000) as u16;
        let y0 = rng.next_below(60_000) as u16;
        let w = rng.next_below(256) as u16;
        let h = rng.next_below(256) as u16;
        Rect {
            x0,
            y0,
            x1: x0 + w,
            y1: y0 + h,
        }
    }

    /// One insert, generic over functional (`b = None`) and op-emitting
    /// execution. Splits propagate recursively up the saved path, so the
    /// tree stays balanced (depth O(log_FANOUT n)). A fresh sibling is
    /// fully written before the parent store that publishes it; the
    /// in-place shrink of the split node is tolerated by the checker
    /// because every transiently visible entry is still a valid old entry
    /// (the relaxed invariant real persistent R-trees rely on).
    ///
    /// Returns false when the allocator is exhausted.
    fn insert(
        &mut self,
        arch: &mut ByteStore,
        core: usize,
        rect: Rect,
        mut b: Option<&mut OpBuilder<'_>>,
    ) -> bool {
        // Memory access helpers working through the builder when present.
        macro_rules! rd {
            ($addr:expr) => {
                match b.as_deref_mut() {
                    Some(bb) => bb.load_u64(arch, $addr),
                    None => arch.read_u64($addr),
                }
            };
        }
        macro_rules! wr {
            ($addr:expr, $v:expr) => {
                match b.as_deref_mut() {
                    Some(bb) => bb.store_u64($addr, $v),
                    None => arch.write_u64($addr, $v),
                }
            };
        }
        /// Partitions `entries` (boxes + payloads) for a node split:
        /// center against the bounding-box midpoint along the wider axis,
        /// with a forced half/half cut when degenerate.
        type Entries = Vec<(Rect, u64)>;
        fn partition(mut entries: Entries) -> (Entries, Entries) {
            let bbox = entries[1..]
                .iter()
                .fold(entries[0].0, |a, (r, _)| a.union(*r));
            let (cx, cy) = bbox.center();
            let wide_x = u32::from(bbox.x1 - bbox.x0) >= u32::from(bbox.y1 - bbox.y0);
            let (mut keep, mut moved): (Vec<_>, Vec<_>) = entries.drain(..).partition(|(r, _)| {
                let (ex, ey) = r.center();
                if wide_x {
                    ex <= cx
                } else {
                    ey <= cy
                }
            });
            if keep.is_empty() || moved.is_empty() {
                let mut all = std::mem::take(&mut keep);
                all.append(&mut moved);
                moved = all.split_off(all.len() / 2);
                keep = all;
            }
            (keep, moved)
        }
        fn bbox_of(entries: &[(Rect, u64)]) -> Rect {
            entries[1..]
                .iter()
                .fold(entries[0].0, |a, (r, _)| a.union(*r))
        }

        let root = rd!(self.root_slot);
        if root == 0 {
            let Some(node) = self.palloc.alloc(core, NODE_BYTES) else {
                return false;
            };
            wr!(entry_addr(node, 0), rect.pack());
            wr!(entry_addr(node, 0) + 8, self.inserted + 1); // value
            wr!(node, LEAF_FLAG | 1); // header: leaf, count 1
            wr!(self.root_slot, node); // publish
            self.inserted += 1;
            return true;
        }

        // Descend to a leaf by least enlargement, saving (node, entry idx).
        let mut path: Vec<(Addr, usize)> = Vec::with_capacity(8);
        let mut p = root;
        loop {
            let h = rd!(p);
            if hdr_is_leaf(h) {
                break;
            }
            let count = hdr_count(h);
            debug_assert!(count > 0, "internal node cannot be empty");
            let mut best = 0usize;
            let mut best_cost = u64::MAX;
            for i in 0..count {
                let r = Rect::unpack(rd!(entry_addr(p, i)));
                let cost = r.enlargement(rect);
                if cost < best_cost {
                    best_cost = cost;
                    best = i;
                }
            }
            // Tighten the chosen entry's box on the way down (post-publish
            // box maintenance; conservative at a crash).
            let cur = Rect::unpack(rd!(entry_addr(p, best)));
            if !cur.contains(rect) {
                wr!(entry_addr(p, best), cur.union(rect).pack());
            }
            path.push((p, best));
            p = rd!(entry_addr(p, best) + 8);
        }

        // Fast path: leaf has room.
        let h = rd!(p);
        let count = hdr_count(h);
        if count < FANOUT {
            wr!(entry_addr(p, count), rect.pack());
            wr!(entry_addr(p, count) + 8, self.inserted + 1);
            wr!(p, h + 1); // publish via count bump
            self.inserted += 1;
            return true;
        }

        // Leaf full: split, then propagate the new sibling up the path.
        let mut entries: Vec<(Rect, u64)> = (0..count)
            .map(|i| {
                (
                    Rect::unpack(rd!(entry_addr(p, i))),
                    rd!(entry_addr(p, i) + 8),
                )
            })
            .collect();
        entries.push((rect, self.inserted + 1));
        let (keep, moved) = partition(entries);
        let Some(mut sibling) = self.palloc.alloc(core, NODE_BYTES) else {
            return false;
        };
        for (i, (r, v)) in moved.iter().enumerate() {
            wr!(entry_addr(sibling, i), r.pack());
            wr!(entry_addr(sibling, i) + 8, *v);
        }
        wr!(sibling, LEAF_FLAG | moved.len() as u64);
        for (i, (r, v)) in keep.iter().enumerate() {
            wr!(entry_addr(p, i), r.pack());
            wr!(entry_addr(p, i) + 8, *v);
        }
        wr!(p, LEAF_FLAG | keep.len() as u64);
        let mut split_node = p;
        let mut keep_box = bbox_of(&keep);
        let mut moved_box = bbox_of(&moved);

        // Walk back up, inserting the sibling; split parents as needed.
        loop {
            let Some((parent, idx)) = path.pop() else {
                // The split node was the root: grow a new root.
                let Some(newroot) = self.palloc.alloc(core, NODE_BYTES) else {
                    return false;
                };
                wr!(entry_addr(newroot, 0), keep_box.pack());
                wr!(entry_addr(newroot, 0) + 8, split_node);
                wr!(entry_addr(newroot, 1), moved_box.pack());
                wr!(entry_addr(newroot, 1) + 8, sibling);
                wr!(newroot, 2); // internal, count 2
                wr!(self.root_slot, newroot); // publish
                break;
            };
            // The split child kept the `keep` half: tighten its box.
            wr!(entry_addr(parent, idx), keep_box.pack());
            let ph = rd!(parent);
            let pcount = hdr_count(ph);
            if pcount < FANOUT {
                wr!(entry_addr(parent, pcount), moved_box.pack());
                wr!(entry_addr(parent, pcount) + 8, sibling);
                wr!(parent, ph + 1); // publish
                break;
            }
            // Parent full too: split it and continue upward.
            let mut pentries: Vec<(Rect, u64)> = (0..pcount)
                .map(|i| {
                    (
                        Rect::unpack(rd!(entry_addr(parent, i))),
                        rd!(entry_addr(parent, i) + 8),
                    )
                })
                .collect();
            pentries.push((moved_box, sibling));
            let (pkeep, pmoved) = partition(pentries);
            let Some(new_internal) = self.palloc.alloc(core, NODE_BYTES) else {
                return false;
            };
            for (i, (r, v)) in pmoved.iter().enumerate() {
                wr!(entry_addr(new_internal, i), r.pack());
                wr!(entry_addr(new_internal, i) + 8, *v);
            }
            wr!(new_internal, pmoved.len() as u64); // internal
            for (i, (r, v)) in pkeep.iter().enumerate() {
                wr!(entry_addr(parent, i), r.pack());
                wr!(entry_addr(parent, i) + 8, *v);
            }
            wr!(parent, pkeep.len() as u64);
            split_node = parent;
            sibling = new_internal;
            keep_box = bbox_of(&pkeep);
            moved_box = bbox_of(&pmoved);
        }
        self.inserted += 1;
        true
    }
}

impl Workload for RtreeWorkload {
    fn name(&self) -> &str {
        "rtree"
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        arch.write_u64(self.root_slot, 0);
        let cores = self.rngs.len();
        let mut rng = SplitMix64::new(0x47EE_0001);
        for i in 0..self.initial {
            let rect = Self::random_rect(&mut rng);
            let core = (i % cores as u64) as usize;
            if !self.insert(arch, core, rect, None) {
                break;
            }
        }
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        self.lock.release_if_held(core);
        if core >= self.remaining.len() || self.remaining[core] == 0 {
            return None;
        }
        if !self.lock.try_acquire(core) {
            // In-place appends and box tightening race across cores, so
            // inserts are lock-based: spin until the holder's batch
            // commits.
            return Some(InsertLock::spin_batch());
        }
        self.remaining[core] -= 1;
        let rect = Self::random_rect(&mut self.rngs[core]);
        let map = self.map.clone();
        let mut b = OpBuilder::new(&map, self.instrument);
        if !self.insert(arch, core, rect, Some(&mut b)) {
            self.lock.release();
            return None; // allocator exhausted: treat as end of stream
        }
        Some(b.finish())
    }
}

/// Validates a post-crash R-tree image: headers well-formed, counts within
/// fanout, child pointers aligned and in-heap, rectangles valid. Returns
/// the number of reachable leaf entries.
///
/// # Errors
///
/// Returns a description of the first malformed node found, or an error
/// once the walk has visited more nodes than the persistent heap holds
/// (shared subtrees or a cycle).
pub fn check_rtree_recovery(
    image: &NvmImage,
    map: &AddressMap,
    root_slot: Addr,
) -> Result<u64, String> {
    fn walk(
        image: &mut ImageReader<'_>,
        map: &AddressMap,
        budget: &mut NodeBudget,
        node: Addr,
        depth: u32,
        leaves: &mut u64,
    ) -> Result<(), String> {
        if depth > 64 {
            return Err("tree too deep: cycle suspected".into());
        }
        if !map.is_persistent(node) || !node.is_multiple_of(8) {
            return Err(format!("malformed node pointer {node:#x}"));
        }
        budget.visit()?;
        let h = image.read_u64(node);
        let count = hdr_count(h);
        if count == 0 || count > FANOUT {
            return Err(format!("bad count {count} at {node:#x}"));
        }
        for i in 0..count {
            let r = Rect::unpack(image.read_u64(entry_addr(node, i)));
            if !r.valid() {
                return Err(format!("invalid rect at {node:#x} entry {i}"));
            }
            if hdr_is_leaf(h) {
                let v = image.read_u64(entry_addr(node, i) + 8);
                if v == 0 {
                    return Err(format!("zero value at leaf {node:#x} entry {i}"));
                }
                *leaves += 1;
            } else {
                let child = image.read_u64(entry_addr(node, i) + 8);
                walk(image, map, budget, child, depth + 1, leaves)?;
            }
        }
        Ok(())
    }

    let mut reader = image.reader();
    let root = reader.read_u64(root_slot);
    if root == 0 {
        return Ok(0);
    }
    let mut leaves = 0;
    let mut budget = NodeBudget::new(map, NODE_BYTES);
    walk(&mut reader, map, &mut budget, root, 0, &mut leaves)?;
    Ok(leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, RtreeWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let root = map.persistent_base();
        let palloc = Palloc::new(&map, 2, 4096);
        let w = RtreeWorkload::new(map, root, palloc, 2, initial, per_core, 7, false);
        (sys, w)
    }

    #[test]
    fn rect_pack_round_trip() {
        let r = Rect {
            x0: 1,
            y0: 2,
            x1: 300,
            y1: 40_000,
        };
        assert_eq!(Rect::unpack(r.pack()), r);
        assert!(r.valid());
        assert!(!Rect {
            x0: 5,
            y0: 0,
            x1: 4,
            y1: 0
        }
        .valid());
    }

    #[test]
    fn rect_union_and_enlargement() {
        let a = Rect {
            x0: 0,
            y0: 0,
            x1: 9,
            y1: 9,
        };
        let b = Rect {
            x0: 5,
            y0: 5,
            x1: 14,
            y1: 14,
        };
        let u = a.union(b);
        assert_eq!((u.x0, u.y0, u.x1, u.y1), (0, 0, 14, 14));
        assert!(u.contains(a) && u.contains(b));
        assert_eq!(a.enlargement(a), 0);
        assert!(a.enlargement(b) > 0);
    }

    #[test]
    fn setup_builds_valid_tree_with_splits() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 200, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_rtree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert_eq!(n, 200, "every functional insert reachable");
        assert_eq!(w.inserted(), 200);
    }

    #[test]
    fn bbb_run_is_crash_consistent() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 64, 100);
        sys.prepare(&mut w);
        sys.run(&mut w, 900); // cut mid-insert
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_rtree_recovery(&img, &map, map.persistent_base())
            .expect("BBB image consistent at any cycle");
        assert!(n >= 64, "setup data plus some inserts: {n}");
    }

    #[test]
    fn eadr_full_run_matches_functional_count() {
        // Single-core workload: one writer keeps generation order equal to
        // application order, so the image count is exact (cross-core
        // conflicting box updates can diverge slightly — the documented
        // op-granularity approximation).
        let sys0 = System::new(SimConfig::small_for_tests(), PersistencyMode::Eadr).unwrap();
        let map0 = sys0.address_map().clone();
        let root0 = map0.persistent_base();
        let palloc0 = Palloc::new(&map0, 1, 4096);
        let mut w = RtreeWorkload::new(map0, root0, palloc0, 1, 50, 60, 7, false);
        let mut sys = sys0;
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let inserted = w.inserted();
        let img = sys.crash_now();
        let n = check_rtree_recovery(&img, &map, map.persistent_base()).unwrap();
        assert_eq!(n, inserted);
    }
}

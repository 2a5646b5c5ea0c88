//! A persistent B+-tree workload (the `btree` the paper's §IV-B text
//! mentions alongside rtree and hashmap).
//!
//! Crash discipline follows the unsorted-node technique of persistent
//! B-tree designs (wB+Trees, FAST&FAIR): node entries are *appended*
//! rather than shifted, and the count field publishes the append, so a
//! single 8-byte store commits each insert. Searches scan nodes linearly
//! (fanout is 8, so a scan is cheaper than keeping entries sorted would
//! be crash-safe). Splits write the new right sibling completely before a
//! single parent append publishes it.
//!
//! Layout (256 B nodes): header `{count | leaf_flag << 32}`, then 8
//! entries of `{key, payload}` — payload is a value in leaves and a child
//! pointer in internal nodes. Internal entry *k* routes keys `>= key`;
//! every internal node keeps a leftmost entry with key 0.

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::locks::InsertLock;
use crate::palloc::Palloc;
use crate::walk::{Local, Root, Shape, Walker};

/// Entries per node.
pub const FANOUT: usize = 8;
const NODE_BYTES: u64 = 256;
const LEAF_FLAG: u64 = 1 << 32;

fn hdr_count(h: u64) -> usize {
    (h & 0xFFFF_FFFF) as usize
}

fn hdr_is_leaf(h: u64) -> bool {
    h & LEAF_FLAG != 0
}

fn entry_addr(node: Addr, i: usize) -> Addr {
    node + 8 + i as u64 * 16
}

/// A persistent B+-tree driven as a multi-core workload.
#[derive(Debug)]
pub struct BtreeWorkload {
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

impl BtreeWorkload {
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

    /// Keys inserted (setup + measured).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    fn random_key(rng: &mut SplitMix64) -> u64 {
        rng.next_u64() | 1 // nonzero: 0 is the internal leftmost sentinel
    }

    /// One insert; `b = None` runs functionally (setup), otherwise emits
    /// ops. Returns false when the allocator is exhausted.
    fn insert(
        &mut self,
        arch: &mut ByteStore,
        core: usize,
        key: u64,
        mut b: Option<&mut OpBuilder<'_>>,
    ) -> bool {
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

        let root = rd!(self.root_slot);
        if root == 0 {
            let Some(node) = self.palloc.alloc(core, NODE_BYTES) else {
                return false;
            };
            wr!(entry_addr(node, 0), key);
            wr!(entry_addr(node, 0) + 8, key.wrapping_mul(5));
            wr!(node, LEAF_FLAG | 1);
            wr!(self.root_slot, node); // publish
            self.inserted += 1;
            return true;
        }

        // Descend: at each internal node pick the entry with the largest
        // separator key <= key (entries are unsorted; linear scan).
        let mut path: Vec<(Addr, usize)> = Vec::with_capacity(8);
        let mut p = root;
        loop {
            let h = rd!(p);
            if hdr_is_leaf(h) {
                break;
            }
            let count = hdr_count(h);
            debug_assert!(count > 0);
            let mut best = 0usize;
            let mut best_key = 0u64;
            for i in 0..count {
                let k = rd!(entry_addr(p, i));
                if k <= key && k >= best_key {
                    best_key = k;
                    best = i;
                }
            }
            path.push((p, best));
            p = rd!(entry_addr(p, best) + 8);
        }

        // Append into the leaf if it has room: a single count store
        // publishes the insert.
        let h = rd!(p);
        let count = hdr_count(h);
        if count < FANOUT {
            wr!(entry_addr(p, count), key);
            wr!(entry_addr(p, count) + 8, key.wrapping_mul(5));
            wr!(p, h + 1); // publish
            self.inserted += 1;
            return true;
        }

        // Leaf full: split around the median, then propagate.
        let mut entries: Vec<(u64, u64)> = (0..count)
            .map(|i| (rd!(entry_addr(p, i)), rd!(entry_addr(p, i) + 8)))
            .collect();
        entries.push((key, key.wrapping_mul(5)));
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mid = entries.len() / 2;
        let right_entries = entries.split_off(mid);
        let sep = right_entries[0].0;

        let Some(mut right) = self.palloc.alloc(core, NODE_BYTES) else {
            return false;
        };
        for (i, (k, v)) in right_entries.iter().enumerate() {
            wr!(entry_addr(right, i), *k);
            wr!(entry_addr(right, i) + 8, *v);
        }
        wr!(right, LEAF_FLAG | right_entries.len() as u64);
        for (i, (k, v)) in entries.iter().enumerate() {
            wr!(entry_addr(p, i), *k);
            wr!(entry_addr(p, i) + 8, *v);
        }
        wr!(p, LEAF_FLAG | entries.len() as u64);

        // Propagate (sep, right) up the saved path.
        let mut sep = sep;
        let mut split_left = p;
        loop {
            let Some((parent, _)) = path.pop() else {
                // Root split: new root with sentinel-left + sep-right.
                let Some(newroot) = self.palloc.alloc(core, NODE_BYTES) else {
                    return false;
                };
                wr!(entry_addr(newroot, 0), 0); // sentinel routes keys < sep
                wr!(entry_addr(newroot, 0) + 8, split_left);
                wr!(entry_addr(newroot, 1), sep);
                wr!(entry_addr(newroot, 1) + 8, right);
                wr!(newroot, 2);
                wr!(self.root_slot, newroot); // publish
                break;
            };
            let ph = rd!(parent);
            let pcount = hdr_count(ph);
            if pcount < FANOUT {
                wr!(entry_addr(parent, pcount), sep);
                wr!(entry_addr(parent, pcount) + 8, right);
                wr!(parent, ph + 1); // publish
                break;
            }
            // Parent full: split it the same way.
            let mut pentries: Vec<(u64, u64)> = (0..pcount)
                .map(|i| (rd!(entry_addr(parent, i)), rd!(entry_addr(parent, i) + 8)))
                .collect();
            pentries.push((sep, right));
            pentries.sort_unstable_by_key(|&(k, _)| k);
            let mid = pentries.len() / 2;
            let pright_entries = pentries.split_off(mid);
            let psep = pright_entries[0].0;
            let Some(pright) = self.palloc.alloc(core, NODE_BYTES) else {
                return false;
            };
            for (i, (k, v)) in pright_entries.iter().enumerate() {
                wr!(entry_addr(pright, i), *k);
                wr!(entry_addr(pright, i) + 8, *v);
            }
            wr!(pright, pright_entries.len() as u64);
            for (i, (k, v)) in pentries.iter().enumerate() {
                wr!(entry_addr(parent, i), *k);
                wr!(entry_addr(parent, i) + 8, *v);
            }
            wr!(parent, pentries.len() as u64);
            sep = psep;
            split_left = parent;
            right = pright;
        }
        self.inserted += 1;
        true
    }
}

impl Workload for BtreeWorkload {
    fn name(&self) -> &str {
        "btree"
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        arch.write_u64(self.root_slot, 0);
        let cores = self.rngs.len();
        let mut rng = SplitMix64::new(0xB7EE_0001);
        for i in 0..self.initial {
            let key = Self::random_key(&mut rng);
            let core = (i % cores as u64) as usize;
            if !self.insert(arch, core, key, None) {
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
            // Unsorted in-place appends race (two cores would claim the
            // same slot), so inserts are lock-based: spin until the
            // holder's batch commits.
            return Some(InsertLock::spin_batch());
        }
        self.remaining[core] -= 1;
        let key = Self::random_key(&mut self.rngs[core]);
        let map = self.map.clone();
        let mut b = OpBuilder::new(&map, self.instrument);
        if !self.insert(arch, core, key, Some(&mut b)) {
            self.lock.release();
            return None;
        }
        Some(b.finish())
    }
}

/// Validates a post-crash B+-tree image: header tags and counts
/// well-formed, child pointers aligned and in-heap, leaf values matching
/// their keys' encoding. Returns reachable leaf entries.
///
/// # Errors
///
/// Returns a description of the first malformed node found, or an error
/// once the walk has visited more nodes than the persistent heap holds
/// (shared subtrees or a cycle).
pub fn check_btree_recovery(
    image: &NvmImage,
    map: &AddressMap,
    root_slot: Addr,
) -> Result<u64, String> {
    Walker::new(BtreeShape { root_slot }, map).check(image)
}

/// The B-tree's recovery rules for the shared walk.
#[derive(Debug)]
pub(crate) struct BtreeShape {
    /// The root-pointer slot.
    pub(crate) root_slot: Addr,
}

impl Shape for BtreeShape {
    const MIN_NODE_BYTES: u64 = NODE_BYTES;
    const MAX_DEPTH: u32 = 64;
    const TOO_DEEP: &'static str = "tree too deep: cycle suspected";

    fn root(&self) -> Root {
        Root {
            addr: self.root_slot,
            slots: 1,
            key: 0,
        }
    }

    fn visit(
        &self,
        image: &mut ImageReader<'_>,
        node: Addr,
        kids: &mut Vec<Addr>,
    ) -> Result<Local, String> {
        let h = image.read_u64(node);
        let count = hdr_count(h);
        if count == 0 || count > FANOUT {
            return Err(format!("bad count {count} at {node:#x}"));
        }
        let mut keys = 0;
        for i in 0..count {
            let k = image.read_u64(entry_addr(node, i));
            let payload = image.read_u64(entry_addr(node, i) + 8);
            if !hdr_is_leaf(h) {
                kids.push(payload);
            } else if payload != k.wrapping_mul(5) {
                return Err(format!("torn leaf entry at {node:#x} slot {i}"));
            } else {
                keys += 1;
            }
        }
        Ok(Local {
            span: entry_addr(node, count) - node,
            leaves: keys,
            key: 0,
        })
    }

    fn malformed(&self, node: Addr) -> String {
        format!("malformed node pointer {node:#x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, BtreeWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let root = map.persistent_base();
        let palloc = Palloc::new(&map, 2, 4096);
        let w = BtreeWorkload::new(map, root, palloc, 2, initial, per_core, 11, false);
        (sys, w)
    }

    #[test]
    fn setup_builds_valid_tree_with_splits() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 300, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_btree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert_eq!(n, 300, "every setup key reachable");
        assert_eq!(w.inserted(), 300);
    }

    #[test]
    fn search_path_finds_inserted_keys() {
        // Indirect check via the recovery count across several sizes that
        // force 2- and 3-level trees.
        for initial in [5u64, 50, 500] {
            let (mut sys, mut w) = build(PersistencyMode::Eadr, initial, 0);
            sys.prepare(&mut w);
            let map = sys.address_map().clone();
            let img = sys.crash_now();
            let n = check_btree_recovery(&img, &map, map.persistent_base()).unwrap();
            assert_eq!(n, initial);
        }
    }

    #[test]
    fn bbb_run_is_crash_consistent_mid_insert() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 100, 200);
        sys.prepare(&mut w);
        sys.run(&mut w, 731); // cut mid-insert
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_btree_recovery(&img, &map, map.persistent_base())
            .expect("BBB image consistent at any cycle");
        assert!(n >= 100, "setup survives: {n}");
    }

    #[test]
    fn eadr_full_run_matches_functional_count() {
        // Single-core workload keeps the comparison exact.
        let sys0 = System::new(SimConfig::small_for_tests(), PersistencyMode::Eadr).unwrap();
        let map0 = sys0.address_map().clone();
        let root0 = map0.persistent_base();
        let palloc0 = Palloc::new(&map0, 1, 4096);
        let mut w = BtreeWorkload::new(map0, root0, palloc0, 1, 40, 40, 5, false);
        let mut sys = sys0;
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_btree_recovery(&img, &map, map.persistent_base()).unwrap();
        assert_eq!(n, w.inserted());
    }

    #[test]
    fn checker_rejects_torn_leaf() {
        let (mut sys, _) = build(PersistencyMode::BbbMemorySide, 0, 0);
        let map = sys.address_map().clone();
        let root_slot = map.persistent_base();
        let node = root_slot + 0x1000;
        sys.preload_u64(root_slot, node);
        sys.preload_u64(node, LEAF_FLAG | 1);
        sys.preload_u64(entry_addr(node, 0), 9);
        sys.preload_u64(entry_addr(node, 0) + 8, 1); // != 9*5
        let img = sys.crash_now();
        let err = check_btree_recovery(&img, &map, root_slot).unwrap_err();
        assert!(err.contains("torn leaf"), "{err}");
    }
}

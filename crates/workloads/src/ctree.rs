//! The `ctree` workload: a persistent crit-bit (binary radix) tree.
//!
//! Matches the paper's Table IV `ctree` row: a 1M-node tree, pre-populated
//! at setup, with random key insertions during the measured window
//! (18.9% persisting stores in the paper). A crit-bit tree stores keys in
//! leaves; each internal node tests one bit position. An insert allocates
//! one leaf (plus, after the first, one internal node) and *publishes* the
//! subtree with a single pointer store — the crash-consistency commit
//! point, so strict persistency (BBB) keeps the tree valid at any crash.
//!
//! Layout: root pointer at a reserved slot. Internal node (24 B):
//! `{ tag=1 | bit << 8, left, right }`. Leaf (16 B): `{ tag=0 | key << 8,
//! value }`. Keys are 48-bit so the tag byte never collides.

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::palloc::Palloc;
use crate::walk::{Local, Root, Shape, Walker};

const TAG_LEAF: u64 = 0;
const TAG_INTERNAL: u64 = 1;

/// Key space: 48-bit keys, bit 47 tested first.
const KEY_BITS: u32 = 48;

/// A persistent crit-bit tree driven as a multi-core workload.
#[derive(Debug)]
pub struct CtreeWorkload {
    root_addr: Addr,
    map: AddressMap,
    palloc: Palloc,
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    initial: u64,
    instrument: bool,
    inserted: u64,
}

impl CtreeWorkload {
    /// Creates the workload.
    ///
    /// * `root_addr` — reserved root-pointer slot.
    /// * `initial` — nodes inserted functionally at setup (the paper's 1M).
    /// * `per_core_ops` — measured insertions per core.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        map: AddressMap,
        root_addr: Addr,
        palloc: Palloc,
        cores: usize,
        initial: u64,
        per_core_ops: u64,
        seed: u64,
        instrument: bool,
    ) -> Self {
        let mut master = SplitMix64::new(seed);
        Self {
            root_addr,
            map,
            palloc,
            rngs: (0..cores).map(|_| master.split()).collect(),
            remaining: vec![per_core_ops; cores],
            initial,
            instrument,
            inserted: 0,
        }
    }

    /// Total keys inserted (setup + measured).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    fn random_key(rng: &mut SplitMix64) -> u64 {
        rng.next_below(1 << KEY_BITS)
    }

    /// Functional-only insert used during setup (no ops emitted).
    fn insert_functional(&mut self, arch: &mut ByteStore, core: usize, key: u64) -> bool {
        let Some((leaf, internal)) = self.alloc_nodes(arch, core, key) else {
            return false;
        };
        let Some(plan) = plan_insert(arch, &self.map, self.root_addr, key) else {
            return true; // duplicate key: nothing to do
        };
        match plan {
            InsertPlan::EmptyTree => arch.write_u64(self.root_addr, leaf),
            InsertPlan::Splice {
                parent_slot,
                old_child,
                bit,
                key_side_right,
            } => {
                let internal = internal.expect("non-empty tree needs an internal node");
                arch.write_u64(internal, TAG_INTERNAL | (u64::from(bit) << 8));
                let (l, r) = if key_side_right {
                    (old_child, leaf)
                } else {
                    (leaf, old_child)
                };
                arch.write_u64(internal + 8, l);
                arch.write_u64(internal + 16, r);
                arch.write_u64(parent_slot, internal);
            }
        }
        self.inserted += 1;
        true
    }

    fn alloc_nodes(
        &mut self,
        arch: &mut ByteStore,
        core: usize,
        key: u64,
    ) -> Option<(Addr, Option<Addr>)> {
        let leaf = self.palloc.alloc(core, 16)?;
        arch.write_u64(leaf, TAG_LEAF | (key << 8));
        arch.write_u64(leaf + 8, key.wrapping_mul(3)); // value
        let internal = if arch.read_u64(self.root_addr) != 0 {
            Some(self.palloc.alloc(core, 24)?)
        } else {
            None
        };
        Some((leaf, internal))
    }

    /// One measured insert as an op sequence. The leaf and internal node
    /// are written first; the final store splices the parent pointer.
    fn insert_ops(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        let key = Self::random_key(&mut self.rngs[core]);
        let leaf = self.palloc.alloc(core, 16)?;
        let mut b = OpBuilder::new(&self.map, self.instrument);

        b.store_u64(leaf, TAG_LEAF | (key << 8));
        b.store_u64(leaf + 8, key.wrapping_mul(3));

        let Some(plan) = plan_insert_with_builder(&mut b, arch, self.root_addr, key) else {
            // Duplicate key: the traversal loads still count as work, but
            // nothing was inserted (the pre-written leaf is orphaned, just
            // like a real allocator losing a node to a lost race).
            return Some(b.finish());
        };
        match plan {
            InsertPlan::EmptyTree => {
                b.store_u64(self.root_addr, leaf);
            }
            InsertPlan::Splice {
                parent_slot,
                old_child,
                bit,
                key_side_right,
            } => {
                let internal = self.palloc.alloc(core, 24)?;
                b.store_u64(internal, TAG_INTERNAL | (u64::from(bit) << 8));
                let (l, r) = if key_side_right {
                    (old_child, leaf)
                } else {
                    (leaf, old_child)
                };
                b.store_u64(internal + 8, l);
                b.store_u64(internal + 16, r);
                // Publish: the single pointer store that commits the insert.
                b.store_u64(parent_slot, internal);
            }
        }
        self.inserted += 1;
        Some(b.finish())
    }
}

/// Where an insert splices into the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsertPlan {
    EmptyTree,
    Splice {
        /// Address of the pointer slot to overwrite (root or child slot).
        parent_slot: Addr,
        /// The subtree currently hanging off that slot.
        old_child: Addr,
        /// The differing bit the new internal node tests.
        bit: u32,
        /// True when the new key goes right (bit set).
        key_side_right: bool,
    },
}

fn leaf_key(tagged: u64) -> u64 {
    tagged >> 8
}

fn node_bit(tagged: u64) -> u32 {
    (tagged >> 8) as u32
}

fn is_leaf(tagged: u64) -> bool {
    tagged & 0xFF == TAG_LEAF
}

/// Plans an insert by reading through `read`, generic over functional
/// setup reads and op-emitting measured reads.
fn plan_insert_generic(
    mut read: impl FnMut(Addr) -> u64,
    root_addr: Addr,
    key: u64,
) -> Option<InsertPlan> {
    let root = read(root_addr);
    if root == 0 {
        return Some(InsertPlan::EmptyTree);
    }
    // Walk to the best-matching leaf.
    let mut p = root;
    loop {
        let tag = read(p);
        if is_leaf(tag) {
            let existing = leaf_key(tag);
            if existing == key {
                return None; // duplicate
            }
            let diff = existing ^ key;
            let bit = 63 - diff.leading_zeros(); // highest differing bit
            let key_side_right = key & (1 << bit) != 0;
            // Second walk: descend until a node tests a bit below `bit`
            // (or a leaf), tracking the pointer slot to splice.
            let mut slot = root_addr;
            let mut child = read(root_addr);
            loop {
                let t = read(child);
                if is_leaf(t) || node_bit(t) < bit {
                    return Some(InsertPlan::Splice {
                        parent_slot: slot,
                        old_child: child,
                        bit,
                        key_side_right,
                    });
                }
                let b = node_bit(t);
                slot = if key & (1 << b) != 0 {
                    child + 16
                } else {
                    child + 8
                };
                child = read(slot);
            }
        }
        let b = node_bit(tag);
        p = if key & (1 << b) != 0 {
            read(p + 16)
        } else {
            read(p + 8)
        };
    }
}

fn plan_insert(
    arch: &ByteStore,
    _map: &AddressMap,
    root_addr: Addr,
    key: u64,
) -> Option<InsertPlan> {
    plan_insert_generic(|a| arch.read_u64(a), root_addr, key)
}

fn plan_insert_with_builder(
    b: &mut OpBuilder<'_>,
    arch: &ByteStore,
    root_addr: Addr,
    key: u64,
) -> Option<InsertPlan> {
    plan_insert_generic(|a| b.load_u64(arch, a), root_addr, key)
}

impl Workload for CtreeWorkload {
    fn name(&self) -> &str {
        "ctree"
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        arch.write_u64(self.root_addr, 0);
        let cores = self.rngs.len();
        let mut rng = SplitMix64::new(0xC7EE_5EED);
        for i in 0..self.initial {
            let key = Self::random_key(&mut rng);
            let core = (i % cores as u64) as usize;
            if !self.insert_functional(arch, core, key) {
                break; // allocator exhausted: tree is as big as it gets
            }
        }
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        if core >= self.remaining.len() || self.remaining[core] == 0 {
            return None;
        }
        self.remaining[core] -= 1;
        self.insert_ops(core, arch)
    }
}

/// The ctree's recovery rules for the shared walk.
#[derive(Debug)]
pub(crate) struct CtreeShape {
    /// The root-pointer slot.
    pub(crate) root_addr: Addr,
}

/// [`Local::key`] of a leaf: it tests no bit.
const NO_BIT: u32 = u32::MAX;

/// [`Local::key`] of the root slot, and the ceiling of an internal
/// node's: every bit index must lie below it.
const ROOT_BIT: u32 = KEY_BITS + 1;

impl Shape for CtreeShape {
    // A leaf (16 bytes) is the smallest node.
    const MIN_NODE_BYTES: u64 = 16;
    const MAX_DEPTH: u32 = 200;
    const TOO_DEEP: &'static str = "path too deep: cycle suspected";

    fn root(&self) -> Root {
        Root {
            addr: self.root_addr,
            slots: 1,
            key: ROOT_BIT,
        }
    }

    fn visit(
        &self,
        image: &mut ImageReader<'_>,
        p: Addr,
        kids: &mut Vec<Addr>,
    ) -> Result<Local, String> {
        let tag = image.read_u64(p);
        if is_leaf(tag) {
            if tag == 0 {
                return Err(format!("pointer {p:#x} to uninitialized node"));
            }
            return Ok(Local {
                span: 8,
                leaves: 1,
                key: NO_BIT,
            });
        }
        if tag & 0xFF != TAG_INTERNAL {
            return Err(format!("bad tag {tag:#x} at {p:#x}"));
        }
        kids.push(image.read_u64(p + 8));
        kids.push(image.read_u64(p + 16));
        // Clamping keeps `NO_BIT` free: a bit at or past the root's fails
        // every edge check, clamped or not.
        Ok(Local {
            span: 24,
            leaves: 0,
            key: node_bit(tag).min(ROOT_BIT),
        })
    }

    fn malformed(&self, p: Addr) -> String {
        format!("malformed pointer {p:#x}")
    }

    /// Bit indices strictly decrease along every path.
    fn edge(&self, parent: u32, child: Addr, key: u32) -> Result<(), String> {
        if key != NO_BIT && key >= parent {
            return Err(format!("bit order violated at {child:#x}"));
        }
        Ok(())
    }
}

/// Validates a post-crash ctree image: every pointer reachable from the
/// root must lead to a well-formed internal node or tagged leaf, with bit
/// indices strictly decreasing along every path.
///
/// # Errors
///
/// Returns a description of the first malformed node found, or an error
/// once the walk has visited more nodes than the persistent heap holds
/// (shared subtrees or a cycle).
pub fn check_ctree_recovery(
    image: &NvmImage,
    map: &AddressMap,
    root_addr: Addr,
) -> Result<u64, String> {
    Walker::new(CtreeShape { root_addr }, map).check(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, CtreeWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let root = map.persistent_base();
        let palloc = Palloc::new(&map, 2, 4096);
        let w = CtreeWorkload::new(map, root, palloc, 2, initial, per_core, 42, false);
        (sys, w)
    }

    #[test]
    fn setup_builds_a_valid_tree() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 100, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert!(leaves >= 95, "most of 100 random keys inserted: {leaves}");
    }

    #[test]
    fn measured_inserts_run_and_recover_under_bbb() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 50, 25);
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert!(leaves >= 90, "tree grew: {leaves}");
    }

    #[test]
    fn crash_mid_run_is_consistent_under_bbb() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 30, 100);
        sys.prepare(&mut w);
        // Cut the run mid-insert (op granularity) and crash.
        sys.run(&mut w, 157);
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        check_ctree_recovery(&img, &map, map.persistent_base())
            .expect("BBB: any crash point is consistent");
    }

    #[test]
    fn functional_and_simulated_trees_agree() {
        // Single-core workload: with one writer, generation order equals
        // application order, so the image count is exact. (Cross-core
        // conflicting splices can diverge by a node or two — the
        // documented op-granularity approximation.)
        let sys0 = System::new(SimConfig::small_for_tests(), PersistencyMode::Eadr).unwrap();
        let map0 = sys0.address_map().clone();
        let root0 = map0.persistent_base();
        let palloc0 = Palloc::new(&map0, 1, 4096);
        let mut w = CtreeWorkload::new(map0, root0, palloc0, 1, 20, 20, 42, false);
        let mut sys = sys0;
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let inserted = w.inserted();
        let img = sys.crash_now();
        let leaves = check_ctree_recovery(&img, &map, map.persistent_base()).expect("valid");
        assert_eq!(leaves, inserted, "eADR image matches functional count");
    }

    #[test]
    fn duplicate_keys_do_not_grow_the_tree() {
        let mut arch = ByteStore::new();
        let map = AddressMap::new(&SimConfig::small_for_tests());
        let root = map.persistent_base();
        let palloc = Palloc::new(&map, 1, 4096);
        let mut w = CtreeWorkload::new(map, root, palloc, 1, 0, 0, 1, false);
        arch.write_u64(root, 0);
        assert!(w.insert_functional(&mut arch, 0, 7));
        let count_before = w.inserted();
        assert!(w.insert_functional(&mut arch, 0, 7)); // duplicate
        assert_eq!(w.inserted(), count_before);
    }
}

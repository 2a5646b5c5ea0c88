//! Hostile crash images for the pointer-walking recovery oracles, shared
//! by `hostile_trees.rs` (one-off checks) and `oracle_memo.rs` (checks
//! after a memo was built on a valid image).
//!
//! Each tree image is a chain of 20 internal nodes whose children all
//! name the next node, ending in one valid leaf: 21 nodes on the heap,
//! but 8^20 root-to-leaf paths for a B-tree or R-tree walk (2^20 for the
//! crit-bit tree) bounded by depth alone. The hash-map image points every
//! bucket at one shared chain. Every root slot, and the first bucket,
//! sits at the persistent heap's base.

#![allow(dead_code)]

use bbb::mem::{ByteStore, NvmImage};
use bbb::sim::{AddressMap, SimConfig};
use bbb::workloads::rtree::Rect;
use bbb::workloads::{HashmapWorkload, WorkloadKind};

const LEVELS: u64 = 20;
const NODE: u64 = 256;
const LEAF_FLAG: u64 = 1 << 32;

/// Buckets of the shared-chain hash-map image.
pub const BUCKETS: u64 = 64;
/// Nodes of the chain every bucket names.
const CHAIN: u64 = 1000;

/// A pointer past the end of physical memory.
pub const WILD: u64 = 0xFFFF_FFFF_FFFF_FFF8;

pub fn map() -> AddressMap {
    AddressMap::new(&SimConfig::small_for_tests())
}

/// Node `i` of the chain; the root slot sits at the heap base.
fn node(map: &AddressMap, i: u64) -> u64 {
    map.persistent_base() + NODE * (i + 1)
}

/// B-tree and R-tree nodes share a layout: a `{count | leaf << 32}`
/// header, then entries of `entry_bytes` whose word at `+8` is the child
/// pointer (internal) or the value (leaf).
fn fanout_chain(entry_bytes: u64, key: impl Fn(u64) -> u64, value: u64) -> NvmImage {
    let map = map();
    let mut store = ByteStore::new();
    store.write_u64(map.persistent_base(), node(&map, 0));
    for i in 0..LEVELS {
        let n = node(&map, i);
        store.write_u64(n, 8);
        for e in 0..8 {
            store.write_u64(n + 8 + e * entry_bytes, key(e));
            store.write_u64(n + 16 + e * entry_bytes, node(&map, i + 1));
        }
    }
    let leaf = node(&map, LEVELS);
    store.write_u64(leaf, LEAF_FLAG | 1);
    store.write_u64(leaf + 8, key(3));
    store.write_u64(leaf + 16, value);
    NvmImage::from_store(store)
}

/// A B-tree whose 20 levels all name one node 8 times.
pub fn btree_shared_chain() -> NvmImage {
    fanout_chain(16, |e| e, 3 * 5)
}

/// An R-tree whose 20 levels all name one node 8 times.
pub fn rtree_shared_chain() -> NvmImage {
    let rect = |e: u64| {
        let c = e as u16;
        Rect {
            x0: c,
            y0: c,
            x1: c + 1,
            y1: c + 1,
        }
        .pack()
    };
    fanout_chain(24, rect, 7)
}

/// A crit-bit tree whose 20 internal nodes `{1 | bit << 8, left, right}`
/// have both children on the next node, with strictly decreasing bits;
/// the leaf is `{key << 8, value}`.
pub fn ctree_shared_chain() -> NvmImage {
    let map = map();
    let mut store = ByteStore::new();
    store.write_u64(map.persistent_base(), node(&map, 0));
    for i in 0..LEVELS {
        let n = node(&map, i);
        store.write_u64(n, 1 | ((40 - i) << 8));
        store.write_u64(n + 8, node(&map, i + 1));
        store.write_u64(n + 16, node(&map, i + 1));
    }
    store.write_u64(node(&map, LEVELS), 5 << 8);
    NvmImage::from_store(store)
}

/// A B-tree root naming its one leaf twice, as a crash between a split's
/// in-place entry rewrite and its count store leaves it.
pub fn btree_child_named_twice() -> NvmImage {
    let map = map();
    let mut store = ByteStore::new();
    let root = node(&map, 0);
    let leaf = node(&map, 1);
    store.write_u64(map.persistent_base(), root);
    store.write_u64(root, 2);
    store.write_u64(root + 16, leaf);
    store.write_u64(root + 24, 3);
    store.write_u64(root + 32, leaf);
    store.write_u64(leaf, LEAF_FLAG | 1);
    store.write_u64(leaf + 8, 3);
    store.write_u64(leaf + 16, 15);
    NvmImage::from_store(store)
}

/// [`BUCKETS`] buckets all naming one valid, acyclic 1000-node chain:
/// 64 000 visits, past the 21 845 nodes the heap holds.
pub fn hashmap_shared_chain() -> NvmImage {
    let map = map();
    let buckets = map.persistent_base();
    let chain = |k: u64| buckets + BUCKETS * 8 + k * HashmapWorkload::NODE_BYTES;
    let mut store = ByteStore::new();
    for i in 0..BUCKETS {
        store.write_u64(buckets + i * 8, chain(0));
    }
    for k in 0..CHAIN {
        let key = k + 1;
        store.write_u64(chain(k), key);
        store.write_u64(chain(k) + 8, key.wrapping_mul(7));
        let next = if k + 1 < CHAIN { chain(k + 1) } else { 0 };
        store.write_u64(chain(k) + 16, next);
    }
    NvmImage::from_store(store)
}

/// An image whose only word is [`WILD`] at `slot`.
pub fn wild_pointer_at(slot: u64) -> NvmImage {
    let mut store = ByteStore::new();
    store.write_u64(slot, WILD);
    NvmImage::from_store(store)
}

/// Every hostile image, with the workload whose oracle it targets.
pub fn all() -> Vec<(&'static str, WorkloadKind, NvmImage)> {
    let base = map().persistent_base();
    vec![
        (
            "btree shared chain",
            WorkloadKind::Btree,
            btree_shared_chain(),
        ),
        (
            "rtree shared chain",
            WorkloadKind::Rtree,
            rtree_shared_chain(),
        ),
        (
            "ctree shared chain",
            WorkloadKind::Ctree,
            ctree_shared_chain(),
        ),
        (
            "btree child named twice",
            WorkloadKind::Btree,
            btree_child_named_twice(),
        ),
        (
            "hashmap shared chain",
            WorkloadKind::Hashmap,
            hashmap_shared_chain(),
        ),
        (
            "hashmap wild bucket",
            WorkloadKind::Hashmap,
            wild_pointer_at(base),
        ),
        (
            "ctree wild root",
            WorkloadKind::Ctree,
            wild_pointer_at(base),
        ),
        (
            "rtree wild root",
            WorkloadKind::Rtree,
            wild_pointer_at(base),
        ),
        (
            "btree wild root",
            WorkloadKind::Btree,
            wild_pointer_at(base),
        ),
    ]
}

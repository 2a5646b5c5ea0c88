//! Pointer-walking recovery oracles on hostile crash images.
//!
//! A crash image is untrusted input. Each tree image below is a chain of
//! 20 internal nodes whose children all name the next node, ending in one
//! valid leaf: 21 nodes on the heap, but 8^20 root-to-leaf paths for a
//! B-tree or R-tree walk (2^20 for the crit-bit tree) bounded by depth
//! alone. The hash-map image points every bucket at one shared chain. No
//! structure has more nodes than the persistent heap can hold, so every
//! oracle must call the image corrupt once its walk has visited that many
//! (2048 256-byte tree nodes, or 21 845 24-byte hash-map nodes, on the
//! small machine) instead of walking every path.

use bbb::mem::{ByteStore, NvmImage};
use bbb::sim::{AddressMap, SimConfig};
use bbb::workloads::btree::check_btree_recovery;
use bbb::workloads::ctree::check_ctree_recovery;
use bbb::workloads::hashmap::check_hashmap_recovery;
use bbb::workloads::rtree::{check_rtree_recovery, Rect};
use bbb::workloads::{HashmapWorkload, LinkedList};

const LEVELS: u64 = 20;
const NODE: u64 = 256;
const LEAF_FLAG: u64 = 1 << 32;

fn map() -> AddressMap {
    AddressMap::new(&SimConfig::small_for_tests())
}

/// Node `i` of the chain; the root slot sits at the heap base.
fn node(map: &AddressMap, i: u64) -> u64 {
    map.persistent_base() + NODE * (i + 1)
}

fn assert_budget_spent(result: Result<u64, String>) {
    let err = result.expect_err("a walk past the heap's capacity is corruption");
    assert!(
        err.contains("more nodes reachable than the persistent heap holds"),
        "the walk must stop at the node budget: {err}"
    );
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

#[test]
fn btree_oracle_rejects_a_shared_subtree_chain() {
    let map = map();
    let image = fanout_chain(16, |e| e, 3 * 5);
    assert_budget_spent(check_btree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn rtree_oracle_rejects_a_shared_subtree_chain() {
    let map = map();
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
    let image = fanout_chain(24, rect, 7);
    assert_budget_spent(check_rtree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn ctree_oracle_rejects_a_shared_subtree_chain() {
    // Internal node `{1 | bit << 8, left, right}` with both children on
    // the next node and strictly decreasing bits; the leaf is
    // `{key << 8, value}`.
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
    let image = NvmImage::from_store(store);
    assert_budget_spent(check_ctree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn a_child_named_twice_is_within_budget() {
    // A split rewrites a full node's entries in place before the count
    // store that shrinks it, so a crash in between names a child twice.
    // The walk counts it twice, as the crash sweeps always have.
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
    let image = NvmImage::from_store(store);
    assert_eq!(
        check_btree_recovery(&image, &map, map.persistent_base()),
        Ok(2)
    );
}

#[test]
fn hashmap_oracle_rejects_buckets_sharing_one_chain() {
    // 64 buckets all naming one valid, acyclic 1000-node chain: 64 000
    // visits, past the 21 845 nodes the heap holds.
    const BUCKETS: u64 = 64;
    const CHAIN: u64 = 1000;
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
    let image = NvmImage::from_store(store);
    assert_budget_spent(check_hashmap_recovery(&image, &map, buckets, BUCKETS));
}

/// A pointer past the end of physical memory.
const WILD: u64 = 0xFFFF_FFFF_FFFF_FFF8;

/// An image whose only word is `WILD` at `slot`.
fn wild_pointer_at(slot: u64) -> NvmImage {
    let mut store = ByteStore::new();
    store.write_u64(slot, WILD);
    NvmImage::from_store(store)
}

fn assert_malformed<T: std::fmt::Debug, E: std::fmt::Debug>(result: Result<T, E>) {
    let err = result.expect_err("a pointer outside physical memory is corruption");
    assert!(
        format!("{err:?}").to_lowercase().contains("malformed"),
        "the walk must reject the wild pointer: {err:?}"
    );
}

#[test]
fn hashmap_oracle_rejects_a_pointer_outside_memory() {
    let map = map();
    let buckets = map.persistent_base();
    let image = wild_pointer_at(buckets);
    assert_malformed(check_hashmap_recovery(&image, &map, buckets, 4));
}

#[test]
fn ctree_oracle_rejects_a_root_outside_memory() {
    let map = map();
    let image = wild_pointer_at(map.persistent_base());
    assert_malformed(check_ctree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn rtree_oracle_rejects_a_root_outside_memory() {
    let map = map();
    let image = wild_pointer_at(map.persistent_base());
    assert_malformed(check_rtree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn btree_oracle_rejects_a_root_outside_memory() {
    let map = map();
    let image = wild_pointer_at(map.persistent_base());
    assert_malformed(check_btree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn linked_list_oracle_rejects_a_head_outside_memory() {
    let map = map();
    let image = wild_pointer_at(map.persistent_base());
    let list = LinkedList::new(map.persistent_base());
    assert_malformed(list.check_recovery(&image, &map));
}

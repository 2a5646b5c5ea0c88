//! Pointer-walking recovery oracles on hostile crash images.
//!
//! A crash image is untrusted input. The images (`hostile/mod.rs`) are
//! shared-subtree chains with 21 nodes on the heap but up to 8^20
//! root-to-leaf paths, a hash map whose buckets all name one chain, and
//! wild pointers. No structure has more nodes than the persistent heap
//! can hold, so every oracle must call the image corrupt once its walk
//! has visited that many (2048 256-byte tree nodes, or 21 845 24-byte
//! hash-map nodes, on the small machine) instead of walking every path.

mod hostile;

use bbb::workloads::btree::check_btree_recovery;
use bbb::workloads::ctree::check_ctree_recovery;
use bbb::workloads::hashmap::check_hashmap_recovery;
use bbb::workloads::rtree::check_rtree_recovery;
use bbb::workloads::LinkedList;
use hostile::{map, wild_pointer_at, BUCKETS};

fn assert_budget_spent(result: Result<u64, String>) {
    let err = result.expect_err("a walk past the heap's capacity is corruption");
    assert!(
        err.contains("more nodes reachable than the persistent heap holds"),
        "the walk must stop at the node budget: {err}"
    );
}

#[test]
fn btree_oracle_rejects_a_shared_subtree_chain() {
    let map = map();
    let image = hostile::btree_shared_chain();
    assert_budget_spent(check_btree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn rtree_oracle_rejects_a_shared_subtree_chain() {
    let map = map();
    let image = hostile::rtree_shared_chain();
    assert_budget_spent(check_rtree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn ctree_oracle_rejects_a_shared_subtree_chain() {
    let map = map();
    let image = hostile::ctree_shared_chain();
    assert_budget_spent(check_ctree_recovery(&image, &map, map.persistent_base()));
}

#[test]
fn a_child_named_twice_is_within_budget() {
    // The walk counts the child twice, as the crash sweeps always have.
    let map = map();
    let image = hostile::btree_child_named_twice();
    assert_eq!(
        check_btree_recovery(&image, &map, map.persistent_base()),
        Ok(2)
    );
}

#[test]
fn hashmap_oracle_rejects_buckets_sharing_one_chain() {
    let map = map();
    let image = hostile::hashmap_shared_chain();
    assert_budget_spent(check_hashmap_recovery(
        &image,
        &map,
        map.persistent_base(),
        BUCKETS,
    ));
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

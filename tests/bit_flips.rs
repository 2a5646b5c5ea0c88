//! Single-bit flips of valid crash images: every recovery oracle of the
//! paper workloads gives a verdict — no panic, no runaway walk — and the
//! incremental oracles agree with the full walk.
//!
//! For the crit-bit tree, R-tree, B-tree, hash map, an array workload and
//! the linked list, a seeded SplitMix64 sample of 256 flips lands on the
//! words of the structure (its nodes and root slots: every non-zero word
//! of the persistent heap). The tree and hash-map oracles check each
//! flipped image after a memo was built on the valid one, and again
//! fresh; the reports must be identical.

use bbb::core::{PersistencyMode, System};
use bbb::mem::{ByteStore, NvmImage};
use bbb::sim::{AddressMap, SimConfig, SplitMix64};
use bbb::workloads::linkedlist::VALUE_MAGIC;
use bbb::workloads::{make_workload, LinkedList, RecoveryOracle, WorkloadKind, WorkloadParams};

/// Flips sampled per oracle.
const FLIPS: usize = 256;

fn small() -> (SimConfig, WorkloadParams) {
    let params = WorkloadParams {
        initial: 256,
        per_core_ops: 32,
        seed: 0xF11B,
        instrument: false,
    };
    (SimConfig::small_for_tests(), params)
}

/// A valid crash image of `kind` on the small machine, mid-run.
fn valid_image(kind: WorkloadKind) -> NvmImage {
    let (cfg, params) = small();
    let mut w = make_workload(kind, &cfg, params);
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    sys.prepare(w.as_mut());
    sys.run(w.as_mut(), 400);
    sys.crash_now()
}

/// `FLIPS` single-bit flips of `image`, each on a non-zero word of the
/// persistent heap, drawn with a seeded SplitMix64.
fn flips(image: &NvmImage, seed: u64) -> Vec<NvmImage> {
    let map = AddressMap::new(&small().0);
    let words: Vec<(u64, u64)> = image
        .as_store()
        .iter_pages()
        .flat_map(|(base, page)| {
            page.chunks_exact(8).enumerate().map(move |(i, w)| {
                let word = u64::from_le_bytes(w.try_into().expect("8 bytes"));
                (base + 8 * i as u64, word)
            })
        })
        .filter(|&(addr, word)| word != 0 && map.is_persistent(addr))
        .collect();
    assert!(!words.is_empty(), "the image holds a structure");
    let mut rng = SplitMix64::new(seed);
    (0..FLIPS)
        .map(|_| {
            let (addr, word) = words[rng.next_below(words.len() as u64) as usize];
            let mut store = image.clone().into_store();
            store.write_u64(addr, word ^ 1 << rng.next_below(64));
            NvmImage::from_store(store)
        })
        .collect()
}

#[test]
fn flipped_structures_get_the_full_walks_verdict() {
    let (cfg, params) = small();
    for (i, kind) in [
        WorkloadKind::Ctree,
        WorkloadKind::Rtree,
        WorkloadKind::Btree,
        WorkloadKind::Hashmap,
    ]
    .into_iter()
    .enumerate()
    {
        let valid = valid_image(kind);
        let full = |image: &NvmImage| RecoveryOracle::new(kind, &cfg, params).check(image);
        let mut memo = RecoveryOracle::new(kind, &cfg, params);
        for _ in 0..2 {
            assert!(memo.check(&valid).ok(), "{}", kind.name());
        }
        let mut failed = 0;
        for (j, flipped) in flips(&valid, i as u64).iter().enumerate() {
            let report = memo.check(flipped);
            assert_eq!(report, full(flipped), "{} flip {j}", kind.name());
            failed += usize::from(!report.ok());
            assert_eq!(
                memo.check(&valid),
                full(&valid),
                "{} after flip {j}",
                kind.name()
            );
        }
        assert!(failed > 0, "{}: no flip detected", kind.name());
    }
}

#[test]
fn flipped_arrays_get_a_verdict() {
    let (cfg, params) = small();
    let kind = WorkloadKind::MutateNC;
    let valid = valid_image(kind);
    let mut oracle = RecoveryOracle::new(kind, &cfg, params);
    let failed = flips(&valid, 7)
        .iter()
        .filter(|image| !oracle.check(image).ok())
        .count();
    assert!(failed > 0, "a flipped tag bit is detected");
}

#[test]
fn flipped_linked_lists_get_a_verdict() {
    const NODES: u64 = 300;
    let map = AddressMap::new(&small().0);
    let head = map.persistent_base();
    let mut store = ByteStore::new();
    let mut next = 0;
    for i in 0..NODES {
        let node = head + 64 + i * LinkedList::NODE_BYTES;
        store.write_u64(node, VALUE_MAGIC | i);
        store.write_u64(node + 8, next);
        next = node;
    }
    store.write_u64(head, next);
    let valid = NvmImage::from_store(store);
    // A recovered handle bounds its walk by the nodes it counted.
    let (list, _) = LinkedList::recover(&valid, &map, head).expect("a valid list");
    assert_eq!(list.len(), NODES);
    let failed = flips(&valid, 11)
        .iter()
        .filter(|image| list.check_recovery(image, &map).is_err())
        .count();
    assert!(failed > 0, "a flipped tag or pointer bit is detected");
}

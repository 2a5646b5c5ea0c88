//! The `hashmap` workload: a persistent chained hash table.
//!
//! Matches the paper's Table IV `hashmap` row: a 1M-node table,
//! pre-populated at setup, with random insertions during the measured
//! window (6.0% persisting stores — the lowest of the suite, because the
//! bucket-array loads dominate). Each insert prepends a node to its
//! bucket's chain, exactly the linked-list pattern of the paper's Fig. 2:
//! node stores first, bucket-head publish store last.
//!
//! Layout: bucket array of `u64` head pointers at a reserved base; nodes
//! are 24 bytes `{ key, value, next }`.

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, ImageReader, NvmImage};
use bbb_sim::{Addr, AddressMap, SplitMix64};

use crate::builder::OpBuilder;
use crate::palloc::Palloc;
use crate::walk::{Local, Root, Shape, Walker};

/// A persistent chained hashmap driven as a multi-core workload.
#[derive(Debug)]
pub struct HashmapWorkload {
    buckets_addr: Addr,
    n_buckets: u64,
    map: AddressMap,
    palloc: Palloc,
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    initial: u64,
    instrument: bool,
    inserted: u64,
}

impl HashmapWorkload {
    /// Node size in bytes.
    pub const NODE_BYTES: u64 = 24;

    /// Creates the workload. The bucket array occupies
    /// `n_buckets * 8` bytes at `buckets_addr` (reserved space).
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is not a power of two.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        map: AddressMap,
        buckets_addr: Addr,
        n_buckets: u64,
        palloc: Palloc,
        cores: usize,
        initial: u64,
        per_core_ops: u64,
        seed: u64,
        instrument: bool,
    ) -> Self {
        assert!(n_buckets.is_power_of_two(), "bucket count must be 2^k");
        let mut master = SplitMix64::new(seed);
        Self {
            buckets_addr,
            n_buckets,
            map,
            palloc,
            rngs: (0..cores).map(|_| master.split()).collect(),
            remaining: vec![per_core_ops; cores],
            initial,
            instrument,
            inserted: 0,
        }
    }

    /// Keys inserted (setup + measured).
    #[must_use]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    fn bucket_slot(&self, key: u64) -> Addr {
        // Fibonacci hashing: cheap, well-spread.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.n_buckets.trailing_zeros());
        self.buckets_addr + h * 8
    }

    fn insert_functional(&mut self, arch: &mut ByteStore, core: usize, key: u64) -> bool {
        let Some(node) = self.palloc.alloc(core, Self::NODE_BYTES) else {
            return false;
        };
        let slot = self.bucket_slot(key);
        let head = arch.read_u64(slot);
        arch.write_u64(node, key);
        arch.write_u64(node + 8, key.wrapping_mul(7)); // value
        arch.write_u64(node + 16, head);
        arch.write_u64(slot, node);
        self.inserted += 1;
        true
    }

    fn insert_ops(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        let key = self.rngs[core].next_u64() | 1; // nonzero keys
        let node = self.palloc.alloc(core, Self::NODE_BYTES)?;
        let slot = self.bucket_slot(key);
        let mut b = OpBuilder::new(&self.map, self.instrument);
        let head = b.load_u64(arch, slot);
        // Insert-if-absent: walk the chain checking for the key, like the
        // WHISPER hashmap the paper uses (this is also why hashmap has the
        // suite's lowest persisting-store fraction, 6.0% in Table IV).
        let mut p = head;
        let mut walked = 0;
        while p != 0 && walked < 64 {
            let k = b.load_u64(arch, p);
            if k == key {
                return Some(b.finish()); // already present (rare)
            }
            p = b.load_u64(arch, p + 16);
            walked += 1;
        }
        b.store_u64(node, key);
        b.store_u64(node + 8, key.wrapping_mul(7));
        b.store_u64(node + 16, head);
        // Publish.
        b.store_u64(slot, node);
        self.inserted += 1;
        Some(b.finish())
    }
}

impl Workload for HashmapWorkload {
    fn name(&self) -> &str {
        "hashmap"
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        // Zero the bucket array explicitly so the pages exist in media.
        for i in 0..self.n_buckets {
            arch.write_u64(self.buckets_addr + i * 8, 0);
        }
        let cores = self.rngs.len();
        let mut rng = SplitMix64::new(0x4A5_115EED);
        for i in 0..self.initial {
            let key = rng.next_u64() | 1;
            let core = (i % cores as u64) as usize;
            if !self.insert_functional(arch, core, key) {
                break;
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

/// Walks every chain in a post-crash image, validating pointers. Returns
/// the number of reachable nodes. One node budget covers the whole walk,
/// so a cycle, or buckets sharing one chain, fails it instead of running
/// on.
///
/// # Errors
///
/// Returns a description of the first corrupt chain found — expected for
/// uninstrumented PMEM runs, never for BBB/eADR.
pub fn check_hashmap_recovery(
    image: &NvmImage,
    map: &AddressMap,
    buckets_addr: Addr,
    n_buckets: u64,
) -> Result<u64, String> {
    Walker::new(
        HashmapShape {
            buckets_addr,
            n_buckets,
        },
        map,
    )
    .check(image)
}

/// The hash map's recovery rules for the shared walk: the bucket array
/// is the root slots, and each chain node's child is its successor.
#[derive(Debug)]
pub(crate) struct HashmapShape {
    pub(crate) buckets_addr: Addr,
    pub(crate) n_buckets: u64,
}

impl Shape for HashmapShape {
    const MIN_NODE_BYTES: u64 = HashmapWorkload::NODE_BYTES;
    const BUDGET_FIRST: bool = false;

    fn root(&self) -> Root {
        Root {
            addr: self.buckets_addr,
            slots: self.n_buckets,
            key: 0,
        }
    }

    fn visit(
        &self,
        image: &mut ImageReader<'_>,
        p: Addr,
        kids: &mut Vec<Addr>,
    ) -> Result<Local, String> {
        let key = image.read_u64(p);
        if key == 0 {
            return Err(format!("pointer to uninitialized node {p:#x}"));
        }
        let value = image.read_u64(p + 8);
        if value != key.wrapping_mul(7) {
            return Err(format!("torn node at {p:#x}"));
        }
        kids.push(image.read_u64(p + 16));
        Ok(Local {
            span: HashmapWorkload::NODE_BYTES,
            leaves: 1,
            key: 0,
        })
    }

    fn malformed(&self, p: Addr) -> String {
        format!("malformed pointer {p:#x}")
    }

    fn is_null(&self, p: Addr) -> bool {
        p == 0
    }

    fn under(&self, bucket: usize, err: String) -> String {
        format!("bucket {bucket}: {err}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::SimConfig;

    const BUCKETS: u64 = 64;

    fn build(mode: PersistencyMode, initial: u64, per_core: u64) -> (System, HashmapWorkload) {
        let sys = System::new(SimConfig::small_for_tests(), mode).unwrap();
        let map = sys.address_map().clone();
        let base = map.persistent_base();
        let palloc = Palloc::new(&map, 2, BUCKETS * 8);
        let w = HashmapWorkload::new(map, base, BUCKETS, palloc, 2, initial, per_core, 99, false);
        (sys, w)
    }

    #[test]
    fn setup_populates_all_requested_nodes() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 200, 0);
        sys.prepare(&mut w);
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS).unwrap();
        assert_eq!(n, 200);
        assert_eq!(w.inserted(), 200);
    }

    #[test]
    fn bbb_inserts_recover_at_any_crash_point() {
        let (mut sys, mut w) = build(PersistencyMode::BbbMemorySide, 50, 200);
        sys.prepare(&mut w);
        sys.run(&mut w, 333); // cut mid-insert
        sys.check_invariants();
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS)
            .expect("BBB image always consistent");
        assert!(n >= 50, "at least the setup survives: {n}");
    }

    #[test]
    fn eadr_full_run_matches_functional_count() {
        let (mut sys, mut w) = build(PersistencyMode::Eadr, 30, 20);
        sys.prepare(&mut w);
        let summary = sys.run(&mut w, u64::MAX);
        assert!(summary.completed);
        sys.drain_all_store_buffers();
        let map = sys.address_map().clone();
        let inserted = w.inserted();
        let img = sys.crash_now();
        let n = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS).unwrap();
        assert_eq!(n, inserted);
        assert_eq!(n, 30 + 2 * 20);
    }

    #[test]
    fn pmem_without_flushes_loses_tail_inserts() {
        let (mut sys, mut w) = build(PersistencyMode::Pmem, 0, 50);
        sys.prepare(&mut w);
        sys.run(&mut w, u64::MAX);
        let map = sys.address_map().clone();
        let img = sys.crash_now();
        // A torn chain (Err) is the other valid demonstration.
        if let Ok(n) = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS) {
            assert!(n < 100, "cached inserts must be missing: {n}");
        }
    }

    #[test]
    fn checker_detects_torn_node() {
        let (mut sys, w) = build(PersistencyMode::BbbMemorySide, 0, 0);
        let map = sys.address_map().clone();
        let node = map.persistent_base() + 0x4000;
        sys.preload_u64(w.buckets_addr, node);
        sys.preload_u64(node, 5); // key without matching value
        sys.preload_u64(node + 8, 999);
        let img = sys.crash_now();
        let err = check_hashmap_recovery(&img, &map, map.persistent_base(), BUCKETS).unwrap_err();
        assert!(err.contains("torn node"), "{err}");
    }
}

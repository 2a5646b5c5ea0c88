//! The Table IV workload suite: one factory for every evaluated workload.
//!
//! The benchmark harness and the examples construct workloads through
//! [`make_workload`] so that every experiment uses identical layouts,
//! seeds, and scaling knobs.

use bbb_core::{Batched, OpStream, Workload};
use bbb_cpu::Op;
use bbb_mem::{ByteStore, NvmImage};
use bbb_sim::{AddressMap, SimConfig};

use crate::arrays::{ArrayOpKind, ArrayWorkload, Sharing};
use crate::btree::{BtreeShape, BtreeWorkload};
use crate::ctree::{CtreeShape, CtreeWorkload};
use crate::hashmap::{HashmapShape, HashmapWorkload};
use crate::kv::{check_kv_recovery, KvLayout, KvMix, KvSpec, KvWorkload};
use crate::palloc::Palloc;
use crate::pstore_log::{check_pstore_recovery, PstoreLogWorkload, SIM_RING_CAPACITY};
use crate::rtree::{RtreeShape, RtreeWorkload};
use crate::wal::{check_wal_recovery, WalLayout, WalSpec, WalWorkload};
use crate::walk::Walker;

/// Reserved root area at the start of the persistent heap (roots, bucket
/// arrays): 2 MiB on paper-sized heaps, scaled down for small test heaps.
fn root_reserve(cfg: &SimConfig) -> u64 {
    (cfg.persistent_heap_bytes / 8).clamp(4096, 1 << 21)
}

/// Ring base of the pstore workload: past the root reserve, block-aligned
/// (the protocol's one-word-per-block header depends on it). Construction
/// and recovery must agree on this address.
fn pstore_ring_base(cfg: &SimConfig) -> u64 {
    let map = AddressMap::new(cfg);
    (map.persistent_base() + root_reserve(cfg)).next_multiple_of(64)
}

/// Keyspace partitions / log shards per core for the server workloads.
const SERVER_TENANTS: usize = 4;

/// YCSB's default Zipf exponent, used by every server workload.
const SERVER_ZIPF_S: f64 = 0.99;

/// KV slot-table geometry for `(cfg, params)` — construction and recovery
/// must agree on it, exactly like `pstore_ring_base`.
fn kv_geometry(cfg: &SimConfig, params: WorkloadParams) -> KvLayout {
    let map = AddressMap::new(cfg);
    let base = map.persistent_base() + root_reserve(cfg);
    // Headroom for the worst case where every request inserts.
    let max_inserts = params.per_core_ops * cfg.cores as u64;
    let layout = KvLayout::new(base, params.initial, SERVER_TENANTS, max_inserts);
    assert!(
        layout.base + layout.bytes() <= map.persistent_base() + cfg.persistent_heap_bytes,
        "KV slot table does not fit the persistent heap"
    );
    layout
}

/// WAL shard geometry for `(cfg, params)`. `params.initial` is the total
/// record-slot budget across all shards, rounded per shard to a power of
/// two ring.
fn wal_geometry(cfg: &SimConfig, params: WorkloadParams) -> WalLayout {
    let map = AddressMap::new(cfg);
    let base = map.persistent_base() + root_reserve(cfg);
    let shards = (cfg.cores * SERVER_TENANTS) as u64;
    let ring = (params.initial / shards)
        .next_power_of_two()
        .clamp(32, 1 << 14);
    let layout = WalLayout::new(base, cfg.cores, SERVER_TENANTS, ring);
    assert!(
        layout.base + layout.bytes() <= map.persistent_base() + cfg.persistent_heap_bytes,
        "WAL shards do not fit the persistent heap"
    );
    layout
}

/// Hash-map bucket count for `(cfg, params)`: about half the node count,
/// a power of two, within the root reserve. Construction and recovery
/// must agree on it.
fn hashmap_buckets(cfg: &SimConfig, params: WorkloadParams) -> u64 {
    (params.initial / 2)
        .next_power_of_two()
        .clamp(64, root_reserve(cfg) / 8)
}

/// Array geometry for `(cfg, params)`: the base past the root reserve and
/// `params.initial` elements rounded up to a multiple of the core count.
/// Construction and recovery must agree on it.
fn array_geometry(cfg: &SimConfig, params: WorkloadParams) -> (u64, u64) {
    let reserve = root_reserve(cfg);
    let cores = cfg.cores as u64;
    let elements = params.initial.div_ceil(cores) * cores;
    assert!(
        elements * 8 + reserve <= cfg.persistent_heap_bytes,
        "array does not fit the persistent heap"
    );
    (AddressMap::new(cfg).persistent_base() + reserve, elements)
}

/// Builds a server-scale workload as the [`OpStream`] the run loop pulls
/// ([`Batched`] over [`make_workload`]), or `None` for the other kinds.
/// Memory stays O(live keys), independent of the op budget.
///
/// `epochs` ends each request with a persist barrier — the BEP
/// discipline, from [`with_epoch_barriers`] as for every kind.
///
/// # Panics
///
/// Panics if the persistent heap is too small for `params.initial`.
#[must_use]
pub fn make_stream(
    kind: WorkloadKind,
    cfg: &SimConfig,
    params: WorkloadParams,
    epochs: bool,
) -> Option<Box<dyn OpStream>> {
    if !WorkloadKind::SERVER.contains(&kind) {
        return None;
    }
    let mut w = make_workload(kind, cfg, params);
    if epochs {
        w = with_epoch_barriers(w);
    }
    Some(Box::new(Batched::new(w, cfg.cores)))
}

/// The workloads of the paper's Table IV.
///
/// Ordered by declaration so sweep drivers can sort grid points
/// canonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// R-tree random insertions.
    Rtree,
    /// Crit-bit tree random insertions.
    Ctree,
    /// Chained-hashmap random insertions.
    Hashmap,
    /// Array element mutation, per-core regions.
    MutateNC,
    /// Array element mutation, shared array.
    MutateC,
    /// Array element swaps, per-core regions.
    SwapNC,
    /// Array element swaps, shared array.
    SwapC,
    /// B+-tree random insertions (extension: mentioned in the paper's
    /// §IV-B text; not a Table IV row, so not in [`WorkloadKind::ALL`]).
    Btree,
    /// `bbb-pstore` SPSC ring log-append (extension: the grant/commit/
    /// release protocol of `crates/pstore` run on the simulated machine so
    /// crashfuzz can sweep its store boundaries; not a Table IV row, and —
    /// like [`WorkloadKind::Btree`] — kept out of the default sweeps so
    /// committed artifacts stay stable).
    PstoreLog,
    /// Server-scale Zipfian KV service, YCSB mix A — 50% read / 40%
    /// update / 10% insert (extension; see [`crate::kv`]). In
    /// [`WorkloadKind::SERVER`], not in the paper sweeps.
    KvA,
    /// Server-scale Zipfian KV service, YCSB mix B — 95% read / 4%
    /// update / 1% insert (extension).
    KvB,
    /// Server-scale Zipfian KV service, YCSB mix C — read-only
    /// (extension).
    KvC,
    /// Server-scale durable write-ahead log: Zipfian-sharded appends with
    /// group commit and ring truncation (extension; see [`crate::wal`]).
    Wal,
}

impl WorkloadKind {
    /// All seven workloads in the paper's reporting order.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Rtree,
        WorkloadKind::Ctree,
        WorkloadKind::Hashmap,
        WorkloadKind::MutateNC,
        WorkloadKind::MutateC,
        WorkloadKind::SwapNC,
        WorkloadKind::SwapC,
    ];

    /// The paper's seven workloads plus the extensions this repository
    /// adds.
    pub const EXTENDED: [WorkloadKind; 8] = [
        WorkloadKind::Rtree,
        WorkloadKind::Ctree,
        WorkloadKind::Hashmap,
        WorkloadKind::MutateNC,
        WorkloadKind::MutateC,
        WorkloadKind::SwapNC,
        WorkloadKind::SwapC,
        WorkloadKind::Btree,
    ];

    /// The server-scale workloads (this repository's extension
    /// beyond Table IV). Kept separate from [`WorkloadKind::ALL`] and
    /// [`WorkloadKind::EXTENDED`] so the committed paper artifacts stay
    /// stable; the `kv`/`wal` benches sweep exactly these.
    pub const SERVER: [WorkloadKind; 4] = [
        WorkloadKind::KvA,
        WorkloadKind::KvB,
        WorkloadKind::KvC,
        WorkloadKind::Wal,
    ];

    /// Display name matching the paper's tables.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            WorkloadKind::Rtree => "rtree",
            WorkloadKind::Ctree => "ctree",
            WorkloadKind::Hashmap => "hashmap",
            WorkloadKind::MutateNC => "mutateNC",
            WorkloadKind::MutateC => "mutateC",
            WorkloadKind::SwapNC => "swapNC",
            WorkloadKind::SwapC => "swapC",
            WorkloadKind::Btree => "btree",
            WorkloadKind::PstoreLog => "pstore",
            WorkloadKind::KvA => "kv-a",
            WorkloadKind::KvB => "kv-b",
            WorkloadKind::KvC => "kv-c",
            WorkloadKind::Wal => "wal",
        }
    }

    /// Paper Table IV description.
    #[must_use]
    pub const fn description(self) -> &'static str {
        match self {
            WorkloadKind::Rtree => "1 million-node rtree insertion",
            WorkloadKind::Ctree => "1 million-node ctree insertion",
            WorkloadKind::Hashmap => "1 million-node hashmap insertion",
            WorkloadKind::MutateNC | WorkloadKind::MutateC => "modify in 1 million-element array",
            WorkloadKind::SwapNC | WorkloadKind::SwapC => "swap in 1 million-element array",
            WorkloadKind::Btree => "1 million-node btree insertion (extension)",
            WorkloadKind::PstoreLog => "bbb-pstore ring log append (extension)",
            WorkloadKind::KvA => "zipfian KV, 50r/40u/10i mix (extension)",
            WorkloadKind::KvB => "zipfian KV, 95r/4u/1i mix (extension)",
            WorkloadKind::KvC => "zipfian KV, read-only (extension)",
            WorkloadKind::Wal => "sharded WAL append + group commit (extension)",
        }
    }

    /// The paper's reported persisting-store fraction (Table IV), as a
    /// reference point for the harness output.
    #[must_use]
    pub const fn paper_pstore_pct(self) -> f64 {
        match self {
            WorkloadKind::Rtree => 15.5,
            WorkloadKind::Ctree => 18.9,
            WorkloadKind::Hashmap => 6.0,
            WorkloadKind::MutateNC | WorkloadKind::MutateC => 23.8,
            WorkloadKind::SwapNC | WorkloadKind::SwapC => 23.8,
            // Not reported by the paper; ctree's figure is the closest.
            WorkloadKind::Btree => 18.9,
            // Not reported by the paper: a log append is almost entirely
            // persisting stores, like the array workloads.
            WorkloadKind::PstoreLog => 23.8,
            // Not paper rows: derived from the mixes themselves (updates
            // store two words, inserts three; reads store nothing), as
            // reference points only.
            WorkloadKind::KvA => 18.0,
            WorkloadKind::KvB => 3.0,
            WorkloadKind::KvC => 0.1,
            WorkloadKind::Wal => 23.8,
        }
    }
}

/// Scaling knobs for a workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadParams {
    /// Structure size built at setup (the paper's 1M nodes/elements).
    pub initial: u64,
    /// Measured operations per core.
    pub per_core_ops: u64,
    /// Master seed.
    pub seed: u64,
    /// Insert `clwb`+`sfence` after persisting stores (the PMEM baseline's
    /// software strict persistency).
    pub instrument: bool,
}

impl WorkloadParams {
    /// A quick-running configuration for tests and smoke runs.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            initial: 256,
            per_core_ops: 64,
            seed: 0xB0B,
            instrument: false,
        }
    }
}

/// Builds a workload instance laid out for the machine in `cfg`.
///
/// # Panics
///
/// Panics if the persistent heap is too small for the requested `initial`
/// size (choose a larger `SimConfig::persistent_heap_bytes`).
#[must_use]
pub fn make_workload(
    kind: WorkloadKind,
    cfg: &SimConfig,
    params: WorkloadParams,
) -> Box<dyn Workload> {
    let map = AddressMap::new(cfg);
    let base = map.persistent_base();
    let cores = cfg.cores;
    let reserve = root_reserve(cfg);
    let kv = |mix| -> Box<dyn Workload> {
        let spec = KvSpec {
            keys: params.initial,
            tenants: SERVER_TENANTS,
            zipf_s: SERVER_ZIPF_S,
            mix,
            per_core_requests: params.per_core_ops,
            seed: params.seed,
            instrument: params.instrument,
        };
        Box::new(KvWorkload::new(kv_geometry(cfg, params), spec, cores))
    };
    match kind {
        WorkloadKind::Rtree => {
            let palloc = Palloc::new(&map, cores, reserve);
            Box::new(RtreeWorkload::new(
                map,
                base,
                palloc,
                cores,
                params.initial,
                params.per_core_ops,
                params.seed,
                params.instrument,
            ))
        }
        WorkloadKind::Btree => {
            let palloc = Palloc::new(&map, cores, reserve);
            Box::new(BtreeWorkload::new(
                map,
                base,
                palloc,
                cores,
                params.initial,
                params.per_core_ops,
                params.seed,
                params.instrument,
            ))
        }
        WorkloadKind::Ctree => {
            let palloc = Palloc::new(&map, cores, reserve);
            Box::new(CtreeWorkload::new(
                map,
                base,
                palloc,
                cores,
                params.initial,
                params.per_core_ops,
                params.seed,
                params.instrument,
            ))
        }
        WorkloadKind::Hashmap => {
            let palloc = Palloc::new(&map, cores, reserve);
            Box::new(HashmapWorkload::new(
                map,
                base,
                hashmap_buckets(cfg, params),
                palloc,
                cores,
                params.initial,
                params.per_core_ops,
                params.seed,
                params.instrument,
            ))
        }
        WorkloadKind::MutateNC
        | WorkloadKind::MutateC
        | WorkloadKind::SwapNC
        | WorkloadKind::SwapC => {
            let kind_ = match kind {
                WorkloadKind::MutateNC | WorkloadKind::MutateC => ArrayOpKind::Mutate,
                _ => ArrayOpKind::Swap,
            };
            let sharing = match kind {
                WorkloadKind::MutateNC | WorkloadKind::SwapNC => Sharing::NonConflicting,
                _ => Sharing::Conflicting,
            };
            let (array_base, elements) = array_geometry(cfg, params);
            Box::new(ArrayWorkload::new(
                map,
                array_base,
                elements,
                kind_,
                sharing,
                cores,
                params.per_core_ops,
                params.seed,
                params.instrument,
            ))
        }
        WorkloadKind::PstoreLog => {
            let ring_base = pstore_ring_base(cfg);
            assert!(
                ring_base + bbb_pstore::backing_len(SIM_RING_CAPACITY)
                    <= base + cfg.persistent_heap_bytes,
                "pstore ring does not fit the persistent heap"
            );
            let discipline = if params.instrument {
                bbb_pstore::Discipline::FlushFence
            } else {
                bbb_pstore::Discipline::BufferBacked
            };
            Box::new(PstoreLogWorkload::new(
                ring_base,
                cores,
                params.per_core_ops,
                params.seed,
                discipline,
            ))
        }
        WorkloadKind::KvA => kv(KvMix::A),
        WorkloadKind::KvB => kv(KvMix::B),
        WorkloadKind::KvC => kv(KvMix::C),
        WorkloadKind::Wal => {
            let layout = wal_geometry(cfg, params);
            Box::new(WalWorkload::new(
                layout,
                WalSpec {
                    tenants: SERVER_TENANTS,
                    ring_records: layout.ring_records,
                    group: 8,
                    per_core_appends: params.per_core_ops,
                    zipf_s: SERVER_ZIPF_S,
                    seed: params.seed,
                    instrument: params.instrument,
                },
            ))
        }
    }
}

/// Verifies a post-crash image against the structural invariants of the
/// workload `kind` was built with (same `cfg`/`params` layout). Returns
/// the number of recovered elements. A one-off [`RecoveryOracle`] check.
///
/// # Errors
///
/// Returns a description of the first inconsistency — expected for
/// uninstrumented PMEM runs, never for BBB/eADR (nor for BEP with
/// per-operation epochs).
pub fn verify_recovery(
    kind: WorkloadKind,
    image: &NvmImage,
    cfg: &SimConfig,
    params: WorkloadParams,
) -> Result<u64, String> {
    RecoveryOracle::new(kind, cfg, params).verify(image)
}

/// The recovery oracle of one workload layout, kept across the crash
/// images of one run.
///
/// The pointer-linked structures (the crit-bit tree, R-tree, B-tree and
/// hash map) share one incremental walk: once a check has verified, the
/// oracle memoizes the last image that verified and walks again only the
/// nodes on 64-byte blocks that changed since, and their ancestors. Each
/// verdict — the recovered count and the failure text — is the one a
/// fresh oracle gives. The other structures are checked in one pass.
#[derive(Debug)]
pub struct RecoveryOracle {
    kind: WorkloadKind,
    walk: Walk,
}

/// How a [`RecoveryOracle`] checks its structure.
#[derive(Debug)]
enum Walk {
    Ctree(Walker<CtreeShape>),
    Rtree(Walker<RtreeShape>),
    Btree(Walker<BtreeShape>),
    Hashmap(Walker<HashmapShape>),
    /// The one-pass checks, with no memo.
    Array {
        base: u64,
        elements: u64,
    },
    Pstore {
        ring_base: u64,
        seed: u64,
    },
    Kv(KvLayout),
    Wal(WalLayout),
}

impl RecoveryOracle {
    /// The oracle of the structure `kind` builds under `cfg` and `params`.
    #[must_use]
    pub fn new(kind: WorkloadKind, cfg: &SimConfig, params: WorkloadParams) -> Self {
        let map = AddressMap::new(cfg);
        let base = map.persistent_base();
        let walk = match kind {
            WorkloadKind::Rtree => Walk::Rtree(Walker::new(RtreeShape { root_slot: base }, &map)),
            WorkloadKind::Ctree => Walk::Ctree(Walker::new(CtreeShape { root_addr: base }, &map)),
            WorkloadKind::Btree => Walk::Btree(Walker::new(BtreeShape { root_slot: base }, &map)),
            WorkloadKind::Hashmap => Walk::Hashmap(Walker::new(
                HashmapShape {
                    buckets_addr: base,
                    n_buckets: hashmap_buckets(cfg, params),
                },
                &map,
            )),
            WorkloadKind::MutateNC
            | WorkloadKind::MutateC
            | WorkloadKind::SwapNC
            | WorkloadKind::SwapC => {
                let (base, elements) = array_geometry(cfg, params);
                Walk::Array { base, elements }
            }
            WorkloadKind::PstoreLog => Walk::Pstore {
                ring_base: pstore_ring_base(cfg),
                seed: params.seed,
            },
            WorkloadKind::KvA | WorkloadKind::KvB | WorkloadKind::KvC => {
                Walk::Kv(kv_geometry(cfg, params))
            }
            WorkloadKind::Wal => Walk::Wal(wal_geometry(cfg, params)),
        };
        Self { kind, walk }
    }

    /// Verifies `image`: the recovered count, or the first inconsistency.
    fn verify(&mut self, image: &NvmImage) -> Result<u64, String> {
        match &mut self.walk {
            Walk::Ctree(w) => w.check(image),
            Walk::Rtree(w) => w.check(image),
            Walk::Btree(w) => w.check(image),
            Walk::Hashmap(w) => w.check(image),
            Walk::Array { base, elements } => {
                crate::arrays::check_array_recovery(image, *base, *elements)
            }
            Walk::Pstore { ring_base, seed } => check_pstore_recovery(image, *ring_base, *seed),
            Walk::Kv(layout) => check_kv_recovery(image, layout),
            Walk::Wal(layout) => check_wal_recovery(image, layout),
        }
    }

    /// Verifies `image` (see [`verify_recovery`]).
    pub fn check(&mut self, image: &NvmImage) -> RecoveryReport {
        let (recovered, failure) = match self.verify(image) {
            Ok(recovered) => (recovered, None),
            Err(msg) => (0, Some(msg)),
        };
        RecoveryReport {
            workload: self.kind,
            recovered,
            failure,
        }
    }
}

/// A structured recovery-verification outcome: which workload was checked,
/// how much of the structure survived, and — on failure — what exactly was
/// inconsistent. Crash-sweep harnesses report and shrink against this
/// instead of a bare pass/fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Workload whose structure was verified.
    pub workload: WorkloadKind,
    /// Elements recovered (0 when the structure was corrupt).
    pub recovered: u64,
    /// First inconsistency found, if any.
    pub failure: Option<String>,
}

impl RecoveryReport {
    /// True when the structure verified clean.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.failure {
            None => write!(
                f,
                "{}: ok ({} recovered)",
                self.workload.name(),
                self.recovered
            ),
            Some(msg) => write!(f, "{}: FAILED — {msg}", self.workload.name()),
        }
    }
}

/// [`verify_recovery`] with a failure-describing report instead of a bare
/// `Result`: the sweep harness keeps the failing detail alongside the
/// crash point it belongs to.
#[must_use]
pub fn verify_recovery_report(
    kind: WorkloadKind,
    image: &NvmImage,
    cfg: &SimConfig,
    params: WorkloadParams,
) -> RecoveryReport {
    RecoveryOracle::new(kind, cfg, params).check(image)
}

/// Wraps a workload so every high-level operation ends with a persist
/// barrier — the epoch discipline Buffered Epoch Persistency requires the
/// programmer to add (one epoch per structure operation, the natural
/// failure-atomic granularity).
#[derive(Debug)]
pub struct EpochWorkload<W> {
    inner: W,
}

impl<W: Workload> EpochWorkload<W> {
    /// Wraps `inner`, delimiting each operation as one epoch.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }
}

impl<W: Workload> Workload for EpochWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.inner.setup(arch);
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        let mut batch = self.inner.next_batch(core, arch)?;
        batch.push(Op::Fence); // epoch boundary
        Some(batch)
    }
}

/// Boxed-workload variant of [`EpochWorkload`] for factory output.
#[must_use]
pub fn with_epoch_barriers(inner: Box<dyn Workload>) -> Box<dyn Workload> {
    Box::new(EpochWorkload::new(inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, System};

    #[test]
    fn every_workload_constructs_and_runs() {
        for kind in WorkloadKind::EXTENDED {
            let cfg = SimConfig::small_for_tests();
            let mut w = make_workload(kind, &cfg, WorkloadParams::smoke());
            assert_eq!(w.name(), kind.name());
            let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare(w.as_mut());
            let summary = sys.run(w.as_mut(), 500);
            assert!(summary.ops > 0, "{}: no ops ran", kind.name());
            sys.check_invariants();
        }
    }

    #[test]
    fn descriptions_and_pstores_cover_all() {
        for kind in WorkloadKind::EXTENDED {
            assert!(!kind.description().is_empty());
            assert!(kind.paper_pstore_pct() > 0.0);
        }
    }

    #[test]
    fn verify_recovery_dispatches_for_every_kind() {
        for kind in WorkloadKind::EXTENDED {
            let cfg = SimConfig::small_for_tests();
            let params = WorkloadParams::smoke();
            let mut w = make_workload(kind, &cfg, params);
            let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare(w.as_mut());
            sys.run(w.as_mut(), 300);
            let img = sys.crash_now();
            let n = verify_recovery(kind, &img, &cfg, params)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(n > 0, "{}: nothing recovered", kind.name());
        }
    }

    #[test]
    fn server_kinds_construct_run_and_recover() {
        for kind in WorkloadKind::SERVER {
            let cfg = SimConfig::small_for_tests();
            let params = WorkloadParams::smoke();
            assert!(!kind.description().is_empty());
            assert!(kind.paper_pstore_pct() > 0.0);

            // Streaming path.
            let mut stream = make_stream(kind, &cfg, params, false).expect("server kind");
            assert_eq!(stream.name(), kind.name());
            let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare_stream(stream.as_mut());
            let summary = sys.run_stream(stream.as_mut(), u64::MAX);
            assert!(summary.ops > 0, "{}: no ops ran", kind.name());
            sys.drain_all_store_buffers();
            let stream_stats = sys.stats();
            let img = sys.crash_now();
            let n = verify_recovery(kind, &img, &cfg, params)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(n > 0, "{}: nothing recovered", kind.name());

            // Batch adapter path produces the identical machine history.
            let mut w = make_workload(kind, &cfg, params);
            assert_eq!(w.name(), kind.name());
            let mut batch_sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
            batch_sys.prepare(w.as_mut());
            batch_sys.run(w.as_mut(), u64::MAX);
            batch_sys.drain_all_store_buffers();
            assert_eq!(stream_stats, batch_sys.stats(), "{}", kind.name());
        }
    }

    #[test]
    fn server_epochs_come_from_the_one_epoch_wrapper() {
        // The fenced workload run directly and the stream `make_stream`
        // builds with `epochs` are one machine history, with one fence per
        // request (WAL: plus one per non-empty final head flush).
        let cfg = SimConfig::small_for_tests();
        let params = WorkloadParams::smoke();
        let cores = cfg.cores as u64;
        for kind in [WorkloadKind::KvA, WorkloadKind::Wal] {
            let mut w = with_epoch_barriers(make_workload(kind, &cfg, params));
            let mut batch_sys = System::new(cfg.clone(), PersistencyMode::Bep).unwrap();
            batch_sys.prepare(w.as_mut());
            let batch = batch_sys.run(w.as_mut(), u64::MAX);

            let mut stream = make_stream(kind, &cfg, params, true).expect("server kind");
            let mut stream_sys = System::new(cfg.clone(), PersistencyMode::Bep).unwrap();
            stream_sys.prepare_stream(stream.as_mut());
            let streamed = stream_sys.run_stream(stream.as_mut(), u64::MAX);

            assert_eq!(batch, streamed, "{}", kind.name());
            let stats = batch_sys.stats();
            assert_eq!(stats, stream_sys.stats(), "{}", kind.name());
            let fences = stats.get("cores.fences");
            let requests = params.per_core_ops * cores;
            assert!(
                (requests..=requests + cores).contains(&fences),
                "{}: {fences} fences for {requests} requests",
                kind.name()
            );
        }
    }

    #[test]
    fn batch_kinds_have_no_stream() {
        for kind in WorkloadKind::EXTENDED {
            let cfg = SimConfig::small_for_tests();
            assert!(make_stream(kind, &cfg, WorkloadParams::smoke(), false).is_none());
        }
    }

    #[test]
    fn persisting_store_fraction_is_high_by_design() {
        // The paper's workloads are built to stress the bbPB: persisting
        // stores are a large share of all stores.
        let cfg = SimConfig::small_for_tests();
        let mut w = make_workload(WorkloadKind::SwapNC, &cfg, WorkloadParams::smoke());
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(w.as_mut());
        sys.run(w.as_mut(), u64::MAX);
        let st = sys.stats();
        assert_eq!(
            st.get("cores.persisting_stores"),
            st.get("cores.stores"),
            "array workloads only store to the persistent heap"
        );
    }
}

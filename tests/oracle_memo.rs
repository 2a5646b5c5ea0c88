//! The incremental recovery oracles against the full walk.
//!
//! A `RecoveryOracle` kept across the crash images of one run memoizes
//! the last image that verified and walks again only the nodes on blocks
//! that changed. Its report — the recovered count and the failure text —
//! must be the one a fresh oracle gives. Checked here on every fresh
//! crash image of the crashfuzz grids for the crit-bit tree, R-tree,
//! hash map and B-tree, one oracle per battery state as the sweep keeps
//! them; on every hostile image of `hostile_trees.rs` after a memo was
//! built on a valid image; and on a clean subtree pushed past the depth
//! limit.
//!
//! The non-smoke grid is `#[ignore]`d; run it in release with
//! `cargo test --release --test oracle_memo -- --include-ignored`.

mod hostile;

use bbb::core::{PersistencyMode, System};
use bbb::crashfuzz::{
    lost_updates_observable, reference_run, CrashSweep, GridSpec, Point, SweepConfig,
    CRASHFUZZ_SEED,
};
use bbb::mem::{ByteStore, NvmImage};
use bbb::sim::SimConfig;
use bbb::workloads::rtree::Rect;
use bbb::workloads::suite::with_epoch_barriers;
use bbb::workloads::{make_workload, RecoveryOracle, WorkloadKind, WorkloadParams};

/// The structures whose oracles keep a memo.
const MEMO_KINDS: [WorkloadKind; 4] = [
    WorkloadKind::Ctree,
    WorkloadKind::Rtree,
    WorkloadKind::Hashmap,
    WorkloadKind::Btree,
];

fn fresh_oracle(cfg: &SweepConfig) -> RecoveryOracle {
    RecoveryOracle::new(cfg.workload, &cfg.cfg, cfg.params)
}

/// Every paper-discipline and lossy configuration of `kind`, as the
/// `crashfuzz` binary builds them.
fn configs(kind: WorkloadKind, params: WorkloadParams, grid: GridSpec) -> Vec<SweepConfig> {
    let cfg = SimConfig::default();
    let mut out: Vec<SweepConfig> = PersistencyMode::ALL
        .into_iter()
        .map(|mode| SweepConfig::paper_discipline(kind, mode, &cfg, params, grid))
        .collect();
    if lost_updates_observable(kind) {
        for mode in [PersistencyMode::Pmem, PersistencyMode::Bep] {
            out.push(SweepConfig::lossy(kind, mode, &cfg, params, grid));
        }
    }
    out
}

/// Crashes `cfg`'s run at every planned point and at its end, checking
/// each fresh image with the battery state's kept oracle and with a fresh
/// one. Returns the images compared and how many failed.
fn differential(cfg: &SweepConfig) -> (usize, usize) {
    let points = reference_run(cfg).plan(&cfg.grid);
    let mut feed = make_workload(cfg.workload, &cfg.cfg, cfg.params);
    if cfg.epoch_barriers {
        feed = with_epoch_barriers(feed);
    }
    let mut engine = CrashSweep::new(&cfg.cfg, cfg.mode, feed);
    let mut kept = [fresh_oracle(cfg), fresh_oracle(cfg)];
    let (mut compared, mut failed) = (0, 0);
    let stops = points.iter().map(|&p| Point::Cycle(p));
    for stop in stops.chain([Point::End]) {
        engine.advance(stop);
        for battery_ok in [true, false] {
            if !battery_ok && !cfg.battery_oracle() {
                continue;
            }
            let Some(image) = engine.crash(battery_ok) else {
                continue;
            };
            let memo = kept[usize::from(battery_ok)].check(&image);
            let full = fresh_oracle(cfg).check(&image);
            assert_eq!(
                memo,
                full,
                "{} at {stop:?}, battery {battery_ok}",
                cfg.label()
            );
            compared += 1;
            failed += usize::from(!full.ok());
        }
    }
    (compared, failed)
}

fn grid_differential(params: WorkloadParams, grid: GridSpec) {
    for kind in MEMO_KINDS {
        let (mut compared, mut failed) = (0, 0);
        for cfg in configs(kind, params, grid) {
            let (c, f) = differential(&cfg);
            compared += c;
            failed += f;
        }
        // Both verdicts occur: the memo is rebuilt past failures.
        assert!(compared > 100, "{}: {compared} images", kind.name());
        assert!(failed > 0, "{}: no failing image", kind.name());
    }
}

#[test]
fn smoke_grid_memo_reports_match_full_walks() {
    let grid = GridSpec {
        seed: CRASHFUZZ_SEED,
        ..GridSpec::smoke()
    };
    grid_differential(WorkloadParams::smoke(), grid);
}

#[test]
#[ignore = "the non-smoke grid: run in release"]
fn full_grid_memo_reports_match_full_walks() {
    let params = WorkloadParams {
        initial: 2048,
        per_core_ops: 256,
        seed: 0xB0B,
        instrument: false,
    };
    grid_differential(params, GridSpec::bounded(512, 128, CRASHFUZZ_SEED));
}

/// Layout of the small machine whose heap base the hostile images use,
/// with `hostile::BUCKETS` hash buckets.
fn small() -> (SimConfig, WorkloadParams) {
    let params = WorkloadParams {
        initial: 2 * hostile::BUCKETS,
        per_core_ops: 16,
        seed: 0xB0B,
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
    sys.run(w.as_mut(), 200);
    sys.crash_now()
}

#[test]
fn hostile_images_after_a_memo_match_full_walks() {
    let (cfg, params) = small();
    for (name, kind, image) in hostile::all() {
        let valid = valid_image(kind);
        let full = |image: &NvmImage| RecoveryOracle::new(kind, &cfg, params).check(image);
        let mut oracle = RecoveryOracle::new(kind, &cfg, params);
        // The first check walks in full; the second builds the memo.
        for _ in 0..2 {
            let report = oracle.check(&valid);
            assert!(report.ok(), "{name}: {report}");
        }
        assert_eq!(oracle.check(&image), full(&image), "{name}");
        // A failed image leaves the memo of the last valid one.
        assert_eq!(oracle.check(&valid), full(&valid), "{name}: valid again");
        assert_eq!(oracle.check(&image), full(&image), "{name}: again");
    }
}

/// An R-tree image on the small machine: the root slot names `above`
/// fresh single-entry internal nodes, which lead into a chain of `levels`
/// single-entry internal nodes ending in one leaf.
fn rtree_chain(levels: u64, above: u64) -> NvmImage {
    const NODE: u64 = 256;
    let base = hostile::map().persistent_base();
    let rect = Rect {
        x0: 1,
        y0: 1,
        x1: 2,
        y1: 2,
    }
    .pack();
    let chain = |i: u64| base + NODE * (i + 1);
    let fresh = |j: u64| base + NODE * (levels + 2 + j);
    let mut store = ByteStore::new();
    let link = |store: &mut ByteStore, node: u64, child: u64| {
        store.write_u64(node, 1);
        store.write_u64(node + 8, rect);
        store.write_u64(node + 16, child);
    };
    for i in 0..levels {
        link(&mut store, chain(i), chain(i + 1));
    }
    for j in 0..above {
        let next = if j + 1 < above {
            fresh(j + 1)
        } else {
            chain(0)
        };
        link(&mut store, fresh(j), next);
    }
    let leaf = chain(levels);
    store.write_u64(leaf, 1 << 32 | 1);
    store.write_u64(leaf + 8, rect);
    store.write_u64(leaf + 16, 7);
    let root = if above > 0 { fresh(0) } else { chain(0) };
    store.write_u64(base, root);
    NvmImage::from_store(store)
}

#[test]
fn a_clean_subtree_pushed_past_the_depth_limit_fails_as_in_full() {
    // The R-tree accepts depth 64. The memo holds a valid 60-deep chain;
    // the next image hangs it under 8 new nodes, so its leaf lies at
    // depth 68 though none of its nodes changed.
    let (cfg, params) = small();
    let (valid, deep) = (rtree_chain(60, 0), rtree_chain(60, 8));
    let mut oracle = RecoveryOracle::new(WorkloadKind::Rtree, &cfg, params);
    for _ in 0..2 {
        assert_eq!(oracle.check(&valid).recovered, 1);
    }
    let full = RecoveryOracle::new(WorkloadKind::Rtree, &cfg, params).check(&deep);
    assert!(full
        .failure
        .as_deref()
        .is_some_and(|e| e.contains("too deep")));
    assert_eq!(oracle.check(&deep), full);
}

//! The incremental recovery oracles against the full walk.
//!
//! A `RecoveryOracle` kept across the crash images of one run memoizes
//! the last image it checked and walks again only the nodes on blocks
//! that changed. Its report — the recovered count and the failure text —
//! must be the one a fresh oracle gives. Checked here on every fresh
//! crash image of the crashfuzz grids for the crit-bit tree, R-tree,
//! hash map and B-tree, one oracle per battery state as the sweep keeps
//! them, where each image names the blocks it rebuilt and the oracle
//! diffs only those; on every other image of a sweep, arrays included,
//! which names nothing the oracle can use; on every hostile image of `hostile_trees.rs` after a memo was
//! built on a valid image; on a clean subtree pushed past the depth
//! limit; on random sequences moving between valid and hostile images,
//! arrays included, so the memo follows failing images; and on hash-map
//! images that change one bucket block, up to the exact node budget.
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
use bbb::sim::{SimConfig, SplitMix64};
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

/// A crash-sweep engine at cycle zero of `cfg`'s run, and its planned
/// points.
fn engine(cfg: &SweepConfig) -> (CrashSweep, Vec<u64>) {
    let points = reference_run(cfg).plan(&cfg.grid);
    let mut feed = make_workload(cfg.workload, &cfg.cfg, cfg.params);
    if cfg.epoch_barriers {
        feed = with_epoch_barriers(feed);
    }
    (CrashSweep::new(&cfg.cfg, cfg.mode, feed), points)
}

/// Crashes `cfg`'s run at every planned point and at its end, checking
/// each fresh image with the battery state's kept oracle and with a fresh
/// one. Returns the images compared, how many failed, and how many named
/// the blocks that changed since the image before, which the kept oracle
/// checked: those it diffs on the named blocks alone.
fn differential(cfg: &SweepConfig) -> (usize, usize, usize) {
    let (mut engine, points) = engine(cfg);
    let mut kept = [fresh_oracle(cfg), fresh_oracle(cfg)];
    let mut last = [None, None];
    let (mut compared, mut failed, mut hinted) = (0, 0, 0);
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
            let k = usize::from(battery_ok);
            hinted += usize::from(image.changes_since(last[k]).is_some());
            last[k] = image.id();
            let memo = kept[k].check(&image);
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
    (compared, failed, hinted)
}

fn grid_differential(params: WorkloadParams, grid: GridSpec) {
    for kind in MEMO_KINDS {
        let (mut compared, mut failed, mut hinted) = (0, 0, 0);
        for cfg in configs(kind, params, grid) {
            let (c, f, h) = differential(&cfg);
            compared += c;
            failed += f;
            hinted += h;
        }
        // Both verdicts occur: the memo is rebuilt past failures.
        assert!(compared > 100, "{}: {compared} images", kind.name());
        assert!(failed > 0, "{}: no failing image", kind.name());
        // All but the first image of each battery state (and any after
        // the change log overflowed) name their changed blocks.
        assert!(
            hinted * 10 > compared * 9,
            "{}: {hinted} of {compared} images hinted",
            kind.name()
        );
    }
}

/// A kept oracle that checks every other image of a sweep, as a caller
/// sampling the images would: none follows the one the oracle checked
/// last, so none may be diffed on its own changed blocks, and every
/// report must still be the fresh oracle's.
#[test]
fn images_that_skip_one_take_the_full_diff() {
    let grid = GridSpec {
        seed: CRASHFUZZ_SEED,
        ..GridSpec::smoke()
    };
    let kinds = MEMO_KINDS.into_iter().chain([WorkloadKind::SwapC]);
    for kind in kinds {
        for mode in [PersistencyMode::Eadr, PersistencyMode::BbbProcessorSide] {
            let cfg = SweepConfig::paper_discipline(
                kind,
                mode,
                &SimConfig::default(),
                WorkloadParams::smoke(),
                grid,
            );
            let (mut engine, points) = engine(&cfg);
            let mut kept = fresh_oracle(&cfg);
            let (mut checked, mut last, mut take) = (0, None, true);
            for &p in &points {
                engine.advance(Point::Cycle(p));
                let Some(image) = engine.crash(true) else {
                    continue;
                };
                if take {
                    if last.is_some() {
                        assert_eq!(image.changes_since(last), None, "{}", cfg.label());
                    }
                    let label = format!("{} at {p}", cfg.label());
                    let fresh = fresh_oracle(&cfg).check(&image);
                    assert_eq!(kept.check(&image), fresh, "{label}");
                    last = image.id();
                    checked += 1;
                }
                take = !take;
            }
            assert!(checked > 20, "{}: {checked} images", cfg.label());
        }
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
        // The failed image moved the memo; the valid one is diffed against it.
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

/// Valid images of `kind` on the small machine, taken every `ops` ops of
/// one run (the run length is no part of the layout).
fn valid_run(kind: WorkloadKind, ops: u64, images: usize) -> Vec<NvmImage> {
    let (cfg, params) = small();
    let params = WorkloadParams {
        per_core_ops: 256,
        ..params
    };
    let mut w = make_workload(kind, &cfg, params);
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    sys.prepare(w.as_mut());
    (0..images)
        .map(|_| {
            sys.run(w.as_mut(), ops);
            sys.crash_image(true)
        })
        .collect()
}

/// How a hostile word is spoiled, from its value and another pointer.
type Spoil = fn(u64, u64) -> u64;

/// A sequence of images moving between valid and hostile states of
/// `kind`'s structure, each checked by one kept oracle and by a fresh one.
/// Each image is one of four valid images of one run, with a random
/// subset of six hostile words: a pointer zeroed, moved into its node or
/// aimed at another pointer's node, or a word zeroed or with a bit
/// flipped. The kept oracle thus sees a hostile image again right after it,
/// an image that drops an early inconsistency but keeps changes past it,
/// and a valid image after several failures.
fn random_walk_matches_full_walks(kind: WorkloadKind, seed: u64) {
    let (cfg, params) = small();
    let valid = valid_run(kind, 150, 4);
    let base = hostile::map().persistent_base();
    let words: Vec<(u64, u64)> = valid[0]
        .as_store()
        .iter_pages()
        .filter(|&(page, _)| page >= base)
        .flat_map(|(page, _)| (page..page + 4096).step_by(8))
        .map(|a| (a, valid[0].read_u64(a)))
        .filter(|&(_, v)| v != 0)
        .collect();
    let map = hostile::map();
    let pointers: Vec<(u64, u64)> = words
        .iter()
        .copied()
        .filter(|&(_, v)| map.is_persistent(v) && v % 8 == 0)
        .collect();
    let pointers = if pointers.is_empty() {
        &words
    } else {
        &pointers
    };
    let mut rng = SplitMix64::new(seed);
    let mut pick = |from: &[(u64, u64)]| from[rng.next_below(from.len() as u64) as usize];
    // How each hostile word is spoiled, from its value and another
    // pointer; the first flag picks a pointer word.
    let spoils: [(bool, Spoil); 6] = [
        (true, |_, _| 0),
        (false, |v, _| v ^ 1 << 50),
        (true, |v, _| v + 8),
        (false, |_, _| 0),
        (true, |_, other| other),
        (false, |v, _| v ^ 1),
    ];
    let hostile: Vec<_> = spoils
        .into_iter()
        .map(|(pointer, spoil)| {
            let at = pick(if pointer { pointers } else { &words }).0;
            (at, pick(pointers).1, spoil)
        })
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0xFF);
    let mut kept = RecoveryOracle::new(kind, &cfg, params);
    let (mut passed, mut failed) = (0, 0);
    let mut at = 0;
    for step in 0..160 {
        if rng.next_below(3) == 0 {
            at = rng.next_below(4) as usize;
        }
        let mask = match step {
            0 | 1 => 0,
            _ if rng.next_below(2) == 0 => 0,
            _ => rng.next_below(64) & rng.next_below(64),
        };
        let mut store = valid[at].as_store().clone();
        for (i, &(a, other, spoil)) in hostile.iter().enumerate() {
            if mask & 1 << i != 0 {
                store.write_u64(a, spoil(store.read_u64(a), other));
            }
        }
        let image = NvmImage::from_store(store);
        let full = RecoveryOracle::new(kind, &cfg, params).check(&image);
        assert_eq!(
            kept.check(&image),
            full,
            "{} step {step}: image {at}, hostile {mask:#x}",
            kind.name()
        );
        if full.ok() {
            passed += 1;
        } else {
            failed += 1;
        }
    }
    assert!(
        passed > 10 && failed > 10,
        "{}: {passed} ok, {failed} failed",
        kind.name()
    );
}

#[test]
fn images_moving_between_valid_and_hostile_match_full_walks() {
    let kinds = MEMO_KINDS.into_iter().chain([
        WorkloadKind::MutateNC,
        WorkloadKind::MutateC,
        WorkloadKind::SwapNC,
        WorkloadKind::SwapC,
    ]);
    for (i, kind) in kinds.enumerate() {
        for seed in 0..4 {
            random_walk_matches_full_walks(kind, 0x5EED_0000 + 16 * i as u64 + seed);
        }
    }
}

/// A hash map on the small machine whose first `shared` buckets name one
/// `chain`-node chain and whose last bucket names its own `tail`-node
/// chain.
fn hashmap_chains(shared: u64, chain: u64, tail: u64) -> NvmImage {
    let buckets = hostile::map().persistent_base();
    let mut store = ByteStore::new();
    let mut lay = |at: u64, nodes: u64| {
        for k in 0..nodes {
            let node = at + 24 * k;
            store.write_u64(node, k + 1);
            store.write_u64(node + 8, (k + 1) * 7);
            let next = if k + 1 < nodes { node + 24 } else { 0 };
            store.write_u64(node + 16, next);
        }
    };
    let (a, c) = (buckets + 4096, buckets + 4096 + 24 * chain + 64);
    lay(a, chain);
    lay(c, tail);
    for i in 0..shared {
        store.write_u64(buckets + 8 * i, a);
    }
    store.write_u64(buckets + 8 * (hostile::BUCKETS - 1), c);
    NvmImage::from_store(store)
}

#[test]
fn hashmap_bucket_block_changes_match_full_walks() {
    let (cfg, params) = small();
    let kind = WorkloadKind::Hashmap;
    let full = |image: &NvmImage| RecoveryOracle::new(kind, &cfg, params).check(image);
    let mut kept = RecoveryOracle::new(kind, &cfg, params);
    let valid = valid_image(kind);
    let buckets = hostile::map().persistent_base();
    for _ in 0..2 {
        assert!(kept.check(&valid).ok());
    }
    let total = full(&valid).recovered;
    for bucket in [0, 13, 37, hostile::BUCKETS - 1] {
        let slot = buckets + 8 * bucket;
        let head = valid.read_u64(slot);
        assert_ne!(head, 0, "bucket {bucket} holds a chain");
        let with = |value: u64| {
            let mut store = valid.as_store().clone();
            store.write_u64(slot, value);
            NvmImage::from_store(store)
        };
        // Unlinking the head leaves a valid map one node short.
        let unlinked = with(valid.read_u64(head + 16));
        assert_eq!(kept.check(&unlinked), full(&unlinked), "bucket {bucket}");
        assert_eq!(full(&unlinked).recovered, total - 1);
        for (what, bad) in [
            ("wild", hostile::WILD),
            ("uninitialized", buckets + 3 * 4096),
        ] {
            let image = with(bad);
            let report = kept.check(&image);
            assert_eq!(report, full(&image), "bucket {bucket}, {what}");
            let prefix = format!("bucket {bucket}: ");
            assert!(
                report
                    .failure
                    .as_deref()
                    .is_some_and(|e| e.starts_with(&prefix)),
                "bucket {bucket}, {what}: {report}"
            );
            assert_eq!(
                kept.check(&image),
                full(&image),
                "bucket {bucket}, {what} again"
            );
        }
        assert_eq!(
            kept.check(&valid),
            full(&valid),
            "bucket {bucket}: valid again"
        );
    }

    // The node budget is the heap's bytes over 24: exactly that many
    // visits verify, one more fails in the last bucket. Memo groups of
    // buckets spend none of it.
    let map = hostile::map();
    let budget = (map.persistent_end() - map.persistent_base()) / 24;
    let (shared, chain) = (52, 400);
    let tail = budget - shared * chain;
    let exact = hashmap_chains(shared, chain, tail);
    let over = hashmap_chains(shared, chain, tail + 1);
    let mut kept = RecoveryOracle::new(kind, &cfg, params);
    for image in [&exact, &exact, &over, &exact, &over] {
        assert_eq!(kept.check(image), full(image));
    }
    assert_eq!(full(&exact).recovered, budget);
    let last = hostile::BUCKETS - 1;
    assert_eq!(
        full(&over).failure.as_deref(),
        Some(
            format!(
                "bucket {last}: more nodes reachable than the persistent heap holds: shared \
                 subtrees or a cycle"
            )
            .as_str()
        )
    );
}

//! Crash images built on the last image against the full build.
//!
//! `CrashSweep::crash` builds each fresh image on the last one of the
//! same battery state, rebuilding only the blocks the machine's change
//! log recorded since. Each image it returns must equal
//! `System::crash_image` at the same point byte for byte, and the media
//! pages its overlay lands on (`SweepPerf::pages_copied`) must be those a
//! full build lays writes over. Where it returns `None` instead (the
//! change log's epoch did not move), the full build must equal the last
//! image it returned in that battery state. Checked here at every point
//! of the crashfuzz grids, in both battery states — on the default
//! machine, with a relaxed store-buffer drain (which feeds
//! processor-side buffers out of τ order) and with store buffers outside
//! the battery domain — and op by op on a two-core machine whose cores
//! store to one word.
//!
//! The non-smoke grid is `#[ignore]`d; run it in release with
//! `cargo test --release --test image_basis -- --include-ignored`.

use bbb::core::{ByteStore, ImageBasis, NvmImage, Op, PersistencyMode, Workload};
use bbb::crashfuzz::{
    lost_updates_observable, reference_run, CrashSweep, GridSpec, Point, SweepConfig,
    CRASHFUZZ_SEED,
};
use bbb::sim::{AddressMap, SimConfig};
use bbb::workloads::suite::with_epoch_barriers;
use bbb::workloads::{make_workload, WorkloadKind, WorkloadParams};

/// Every configuration `crashfuzz` sweeps with `params` and `grid`, on
/// machine `cfg`.
fn configs(cfg: &SimConfig, params: WorkloadParams, grid: GridSpec) -> Vec<SweepConfig> {
    let mut out = Vec::new();
    for kind in WorkloadKind::ALL {
        for mode in PersistencyMode::ALL {
            out.push(SweepConfig::paper_discipline(kind, mode, cfg, params, grid));
        }
        if lost_updates_observable(kind) {
            for mode in [PersistencyMode::Pmem, PersistencyMode::Bep] {
                out.push(SweepConfig::lossy(kind, mode, cfg, params, grid));
            }
        }
    }
    out
}

/// Asserts that `engine`'s fresh images in both battery states equal the
/// full build, and count the media pages the full build overlays, and
/// that at a reused point the full build equals `last`, the last image
/// the engine returned in that battery state; returns how many fresh
/// images it compared.
fn compare(engine: &mut CrashSweep, last: &mut [Option<NvmImage>; 2], case: &str) -> usize {
    let mut compared = 0;
    for battery_ok in [true, false] {
        let copied = engine.perf().pages_copied;
        let last = &mut last[usize::from(battery_ok)];
        let mut full_basis = ImageBasis::default();
        match engine.crash(battery_ok) {
            Some(image) => {
                let full = engine.system().crash_image_on(battery_ok, &mut full_basis);
                assert!(image == full, "{case}, battery {battery_ok}");
                assert_eq!(
                    engine.perf().pages_copied - copied,
                    full_basis.overlaid(),
                    "{case}, battery {battery_ok}: pages copied"
                );
                *last = Some(image);
                compared += 1;
            }
            None => {
                let full = engine.system().crash_image(battery_ok);
                let last = last.as_ref().expect("a reused point follows an image");
                assert!(full == *last, "{case}, battery {battery_ok}: reused");
            }
        }
    }
    compared
}

/// The default machine, one draining its store buffers relaxed, and one
/// whose store buffers the battery does not back.
fn machines() -> [(&'static str, SimConfig); 3] {
    let relaxed = SimConfig {
        relaxed_sb_drain: true,
        ..SimConfig::default()
    };
    let unbacked = SimConfig {
        battery_backed_sb: false,
        ..SimConfig::default()
    };
    [
        ("default", SimConfig::default()),
        ("relaxed drain", relaxed),
        ("unbacked SB", unbacked),
    ]
}

fn grid_differential(cfg: &SimConfig, params: WorkloadParams, grid: GridSpec) {
    let (mut compared, mut copied, mut reused) = (0, 0, 0);
    for cfg in configs(cfg, params, grid) {
        let points = reference_run(&cfg).plan(&cfg.grid);
        let mut feed = make_workload(cfg.workload, &cfg.cfg, cfg.params);
        if cfg.epoch_barriers {
            feed = with_epoch_barriers(feed);
        }
        let mut engine = CrashSweep::new(&cfg.cfg, cfg.mode, feed);
        let mut last = [None, None];
        for stop in points.iter().map(|&p| Point::Cycle(p)).chain([Point::End]) {
            engine.advance(stop);
            let case = format!("{} at {stop:?}", cfg.label());
            compared += compare(&mut engine, &mut last, &case);
        }
        let perf = engine.finish();
        copied += perf.pages_copied;
        reused += perf.snapshots_reused;
    }
    assert!(compared > 1000, "{compared} images");
    assert!(reused > 1000, "{reused} reused points");
    assert!(copied > 0, "the overlay landed on no media page");
}

fn smoke_grid(machine: usize) {
    let grid = GridSpec {
        seed: CRASHFUZZ_SEED,
        ..GridSpec::smoke()
    };
    let (name, cfg) = &machines()[machine];
    eprintln!("smoke grid, {name} machine");
    grid_differential(cfg, WorkloadParams::smoke(), grid);
}

fn full_grid(machine: usize) {
    let params = WorkloadParams {
        initial: 2048,
        per_core_ops: 256,
        seed: 0xB0B,
        instrument: false,
    };
    let (name, cfg) = &machines()[machine];
    eprintln!("non-smoke grid, {name} machine");
    grid_differential(cfg, params, GridSpec::bounded(512, 128, CRASHFUZZ_SEED));
}

#[test]
fn smoke_grid_images_match_the_full_build() {
    smoke_grid(0);
}

#[test]
fn smoke_grid_images_match_the_full_build_with_relaxed_drain() {
    smoke_grid(1);
}

#[test]
fn smoke_grid_images_match_the_full_build_with_an_unbacked_store_buffer() {
    smoke_grid(2);
}

#[test]
#[ignore = "the non-smoke grid: run in release"]
fn full_grid_images_match_the_full_build() {
    full_grid(0);
}

#[test]
#[ignore = "the non-smoke grid: run in release"]
fn full_grid_images_match_the_full_build_with_relaxed_drain() {
    full_grid(1);
}

#[test]
#[ignore = "the non-smoke grid: run in release"]
fn full_grid_images_match_the_full_build_with_an_unbacked_store_buffer() {
    full_grid(2);
}

/// A feed with nothing to run: the ops come through `Point::Op`.
struct Idle;

impl Workload for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn next_batch(&mut self, _core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
        None
    }
}

#[test]
fn cross_core_stores_to_one_word_image_as_in_full() {
    // Without a battery-backed store buffer, stores reach the persistence
    // domain only as the buffers drain; the cores' same-word stores must
    // still land in commit order on a page kept from image to image.
    let mut cfg = SimConfig::small_for_tests();
    cfg.battery_backed_sb = false;
    let a = AddressMap::new(&cfg).persistent_base();
    for mode in PersistencyMode::ALL {
        let mut engine = CrashSweep::new(&cfg, mode, Box::new(Idle));
        let (mut compared, mut last) = (0, [None, None]);
        for i in 0..64u64 {
            let (core, word) = ((i % 2) as usize, a + 8 * (i % 3));
            let op = match i % 8 {
                5 => Op::Compute { cycles: 500 },
                7 if mode.requires_flushes() => Op::Clwb { addr: word },
                6 => Op::Fence,
                _ => Op::store_u64(word + 4096 * (i % 5 / 4), 0x1000 + i),
            };
            engine.advance(Point::Op(core, op));
            compared += compare(&mut engine, &mut last, &format!("{mode}, op {i}"));
        }
        engine.advance(Point::End);
        compared += compare(&mut engine, &mut last, &format!("{mode}, end"));
        assert!(compared >= 10, "{mode}: {compared} images");
    }
}

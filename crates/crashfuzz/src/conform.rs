//! The crash sweeps of a litmus op schedule (`bbb-check conform` and the
//! litmus table): at every op boundary, and at planned cycles *inside*
//! ops, where store-buffer drains and persist-buffer bursts are in flight.
//!
//! Both sweeps are visitors: each image goes to the caller as it is
//! built, and is dropped before the next one unless the caller keeps it.
//! A dropped image leaves its rebuilt pages to the engine's basis alone,
//! so the next image rebuilds them in place; an image still alive when
//! the next is built makes that build copy every page it rebuilds.
//! [`schedule_images`] is the collecting form, for callers that want the
//! whole list.

use bbb_core::{NvmImage, Op, PersistencyMode, ProbeKind, ScheduledOps};
use bbb_sim::SimConfig;

use crate::engine::{CrashSweep, Point};
use crate::grid::GridSpec;

/// Steps `ops` one at a time on their cores ([`Point::Op`]) and crashes
/// with the battery healthy before the first op and after each, handing
/// `visit` the image after `k` ops as `(k, image)`: `None` where it
/// repeats the image after `k - 1`.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`bbb_core::System::new`].
pub fn visit_prefix_images(
    cfg: &SimConfig,
    mode: PersistencyMode,
    ops: &[(usize, Op)],
    mut visit: impl FnMut(usize, Option<NvmImage>),
) {
    let mut sweep = CrashSweep::new(cfg, mode, Box::new(ScheduledOps::new(&[], cfg.cores)));
    visit(0, sweep.crash(true));
    for (k, &(core, op)) in ops.iter().enumerate() {
        sweep.advance(Point::Op(core, op));
        visit(k + 1, sweep.crash(true));
    }
}

/// Sweeps battery-intact crash images across one scheduled execution at
/// cycle granularity, straddling every persisting-store boundary, and
/// hands `visit` the distinct-epoch images in crash-cycle order, always
/// including the final (run-complete) image.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`bbb_core::System::new`].
pub fn visit_schedule_images(
    cfg: &SimConfig,
    mode: PersistencyMode,
    ops: &[(usize, Op)],
    grid: &GridSpec,
    mut visit: impl FnMut(NvmImage),
) {
    let engine = || CrashSweep::new(cfg, mode, Box::new(ScheduledOps::new(ops, cfg.cores)));
    let points = engine().reference(ProbeKind::PersistingStores).plan(grid);
    let mut sweep = engine();
    for point in points.into_iter().map(Point::Cycle).chain([Point::End]) {
        sweep.advance(point);
        if let Some(image) = sweep.crash(true) {
            visit(image);
        }
    }
}

/// [`visit_schedule_images`]' images, collected.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`bbb_core::System::new`].
#[must_use]
pub fn schedule_images(
    cfg: &SimConfig,
    mode: PersistencyMode,
    ops: &[(usize, Op)],
    grid: &GridSpec,
) -> Vec<NvmImage> {
    let mut images = Vec::new();
    visit_schedule_images(cfg, mode, ops, grid, |image| images.push(image));
    images
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CRASHFUZZ_SEED;
    use bbb_sim::AddressMap;

    fn ops(base: u64) -> Vec<(usize, Op)> {
        vec![
            (0, Op::store_u64(base, 1)),
            (1, Op::store_u64(base + 0x1000, 2)),
            (0, Op::store_u64(base + 0x2000, 3)),
            (0, Op::Fence),
            (1, Op::store_u64(base + 0x3000, 4)),
        ]
    }

    #[test]
    fn sweep_is_deterministic_and_ends_with_the_final_image() {
        let cfg = SimConfig::small_for_tests();
        let base = AddressMap::new(&cfg).persistent_base();
        let grid = GridSpec::bounded(8, 4, CRASHFUZZ_SEED);
        for mode in PersistencyMode::ALL {
            let a = schedule_images(&cfg, mode, &ops(base), &grid);
            let b = schedule_images(&cfg, mode, &ops(base), &grid);
            assert!(!a.is_empty());
            let pairs = a.iter().zip(&b);
            for (x, y) in pairs {
                assert_eq!(x.read_u64(base), y.read_u64(base));
                assert_eq!(x.read_u64(base + 0x3000), y.read_u64(base + 0x3000));
            }
            // The last image is the completed run: everything persisted
            // under battery-backed modes.
            if mode != PersistencyMode::Pmem && mode != PersistencyMode::Bep {
                let last = a.last().unwrap();
                assert_eq!(last.read_u64(base), 1);
                assert_eq!(last.read_u64(base + 0x3000), 4);
            }
        }
    }

    #[test]
    fn battery_prefix_discipline_holds_at_every_swept_cycle() {
        // Under pov-pop modes every image must be a schedule prefix:
        // seeing a later store implies every earlier one.
        let cfg = SimConfig::small_for_tests();
        let base = AddressMap::new(&cfg).persistent_base();
        let grid = GridSpec::bounded(32, 16, CRASHFUZZ_SEED);
        let locs = [base, base + 0x1000, base + 0x2000, base + 0x3000];
        for mode in [
            PersistencyMode::Eadr,
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            for img in schedule_images(&cfg, mode, &ops(base), &grid) {
                let seen: Vec<bool> = locs.iter().map(|&a| img.read_u64(a) != 0).collect();
                for i in 1..seen.len() {
                    assert!(
                        !seen[i] || seen[i - 1],
                        "{mode:?}: store {i} persisted before store {}",
                        i - 1
                    );
                }
            }
        }
    }
}

//! Cycle-granular crash-image sweeps for litmus op schedules.
//!
//! The conformance driver (`bbb-check conform`) needs the set of
//! post-crash images a scheduled litmus execution can produce — not just
//! at op boundaries, but *inside* ops, where store-buffer drains and
//! persist-buffer bursts are in flight. This module reuses the crash-
//! point sweep machinery on a [`ScheduledOps`] bridge: a reference pass
//! records the run length and every persisting-store boundary
//! ([`bbb_core::System::run_probed`] with [`ProbeKind::PersistingStores`]),
//! [`plan_points`] straddles each boundary with dense/random filler, and
//! a single forward pass takes a non-destructive
//! [`bbb_core::System::crash_image`] at every planned cycle, memoized by
//! [`bbb_core::System::crash_image_epoch`].

use bbb_core::{NvmImage, Op, PersistencyMode, ProbeKind, RunCursor, ScheduledOps, StopAt, System};
use bbb_sim::SimConfig;

use crate::grid::{plan_points, GridSpec};

/// Sweeps battery-intact crash images across one scheduled execution at
/// cycle granularity. Returns the distinct-epoch images in crash-cycle
/// order, always including the final (run-complete) image.
///
/// # Panics
///
/// Panics if the configuration is rejected by [`System::new`].
#[must_use]
pub fn schedule_images(
    cfg: &SimConfig,
    mode: PersistencyMode,
    ops: &[(usize, Op)],
    grid: &GridSpec,
) -> Vec<NvmImage> {
    // Reference pass: run length + persisting-store boundary cycles.
    let mut sys = System::new(cfg.clone(), mode).expect("litmus config");
    let mut w = ScheduledOps::new(ops, cfg.cores);
    let mut cursor = RunCursor::new(cfg.cores);
    let mut store_cycles = Vec::new();
    sys.run_probed(
        &mut w,
        &mut cursor,
        &mut store_cycles,
        ProbeKind::PersistingStores,
    );
    let total = sys.cycle();
    let final_image = sys.crash_image(true);
    if total == 0 {
        return vec![final_image];
    }

    // Forward pass: one machine, paused at each planned cycle.
    let points = plan_points(total, &store_cycles, grid);
    let mut sys = System::new(cfg.clone(), mode).expect("litmus config");
    let mut w = ScheduledOps::new(ops, cfg.cores);
    let mut cursor = RunCursor::new(cfg.cores);
    let mut images = Vec::with_capacity(points.len() + 1);
    let mut last_epoch = None;
    for point in points {
        sys.run_until(&mut w, &mut cursor, StopAt::Cycle(point));
        let epoch = sys.crash_image_epoch(true);
        if last_epoch != Some(epoch) {
            images.push(sys.crash_image(true));
            last_epoch = Some(epoch);
        }
    }
    images.push(final_image);
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

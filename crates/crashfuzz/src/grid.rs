//! Crash-point planning: choosing the cycles at which to inject power
//! failures.
//!
//! A useful sweep mixes three families of points:
//!
//! * **dense** — an even stride across the whole run, so no phase of the
//!   execution goes unprobed,
//! * **random** — SplitMix64-seeded points that break any accidental
//!   alignment between the stride and the machine's own periodicity
//!   (drain thresholds, epoch lengths),
//! * **boundary** — the cycles `e-1`, `e`, `e+1` straddling every observed
//!   ordering event (epoch barriers, forced bbPB drains, WPQ backpressure
//!   stalls). Persistency bugs live at these edges: the interesting
//!   question is always "what if power fails one cycle before/after the
//!   hardware committed to an ordering decision".

use bbb_sim::{Cycle, SplitMix64};

/// Default planner seed (sweeps are bit-reproducible given a seed).
pub const CRASHFUZZ_SEED: u64 = 0xBBB_5EED;

/// How many points of each family to plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Target number of evenly-strided points across the run.
    pub dense_points: usize,
    /// Number of seeded-random points.
    pub random_points: usize,
    /// Seed for the random family.
    pub seed: u64,
}

impl GridSpec {
    /// The CI smoke grid: enough points (≥ 200 on any non-trivial run)
    /// to straddle every drain/backpressure edge of a smoke-sized
    /// workload, small enough to sweep every (workload, mode) pair in
    /// seconds.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            dense_points: 224,
            random_points: 64,
            seed: CRASHFUZZ_SEED,
        }
    }

    /// An explicitly-sized grid (for tests and the shrinker).
    #[must_use]
    pub fn bounded(dense_points: usize, random_points: usize, seed: u64) -> Self {
        Self {
            dense_points,
            random_points,
            seed,
        }
    }
}

/// Plans the sorted, deduplicated set of crash cycles for a run that
/// lasted `total` cycles and exhibited ordering events at `events`.
///
/// Every returned point lies in `1..=total`; the same inputs always
/// produce the same plan.
///
/// # Panics
///
/// Panics if `total == 0` (nothing ran; there is nothing to crash).
#[must_use]
pub fn plan_points(total: Cycle, events: &[Cycle], spec: &GridSpec) -> Vec<Cycle> {
    assert!(total > 0, "cannot plan crash points for an empty run");
    let mut points = Vec::new();
    if spec.dense_points > 0 {
        let stride = (total / spec.dense_points as u64).max(1);
        points.extend((1..=total / stride).map(|k| k * stride));
    }
    let mut rng = SplitMix64::new(spec.seed);
    points.extend((0..spec.random_points).map(|_| 1 + rng.next_below(total)));
    let mut last = None;
    for &e in events {
        // A repeated event adds nothing; repeats are consecutive in a
        // reference run's event list, which never decreases.
        if last == Some(e) {
            continue;
        }
        last = Some(e);
        for p in [e.saturating_sub(1), e, e.saturating_add(1)] {
            if (1..=total).contains(&p) {
                points.push(p);
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_sorted_deduplicated_and_in_range() {
        let spec = GridSpec::bounded(50, 20, 7);
        let points = plan_points(1000, &[3, 500, 999], &spec);
        assert!(points.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        assert!(points.iter().all(|&p| (1..=1000).contains(&p)));
        assert!(points.len() >= 50);
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = GridSpec::smoke();
        let a = plan_points(5000, &[100, 2000], &spec);
        let b = plan_points(5000, &[100, 2000], &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn boundary_points_straddle_events() {
        let spec = GridSpec::bounded(0, 0, 1);
        let points = plan_points(1000, &[500], &spec);
        assert_eq!(points, vec![499, 500, 501]);
    }

    #[test]
    fn event_at_run_edges_is_clamped() {
        let spec = GridSpec::bounded(0, 0, 1);
        // e-1 = 0 is dropped (nothing ran yet); e+1 past the end is dropped.
        assert_eq!(plan_points(10, &[1, 10], &spec), vec![1, 2, 9, 10]);
    }

    #[test]
    fn dense_stride_covers_short_runs_cycle_by_cycle() {
        let spec = GridSpec::bounded(100, 0, 1);
        let points = plan_points(8, &[], &spec);
        assert_eq!(points, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// The plan is exactly the set of every family's points, on random
    /// runs and event lists (sorted, as a reference run records them, or
    /// not).
    #[test]
    fn plan_matches_a_set_of_every_point() {
        let mut rng = SplitMix64::new(0x9A1D);
        for case in 0..500 {
            let total = 1 + rng.next_below(if case % 2 == 0 { 50 } else { 100_000 });
            let spec = GridSpec::bounded(
                rng.next_below(300) as usize,
                rng.next_below(100) as usize,
                rng.next_u64(),
            );
            let mut events: Vec<Cycle> = (0..rng.next_below(400))
                .map(|_| rng.next_below(total + 2))
                .collect();
            if case % 3 != 0 {
                events.sort_unstable();
            }
            let mut set = std::collections::BTreeSet::new();
            if spec.dense_points > 0 {
                let stride = (total / spec.dense_points as u64).max(1);
                let mut t = stride;
                while t <= total {
                    set.insert(t);
                    t += stride;
                }
            }
            let mut r = SplitMix64::new(spec.seed);
            for _ in 0..spec.random_points {
                set.insert(1 + r.next_below(total));
            }
            for &e in &events {
                for p in [e.saturating_sub(1), e, e.saturating_add(1)] {
                    if (1..=total).contains(&p) {
                        set.insert(p);
                    }
                }
            }
            let want: Vec<Cycle> = set.into_iter().collect();
            assert_eq!(plan_points(total, &events, &spec), want, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn zero_length_run_panics() {
        let _ = plan_points(0, &[], &GridSpec::smoke());
    }
}

//! Parallel, memoizing execution of experiment specs.
//!
//! Every spec is an independent [`System`] — there is no shared mutable
//! state between points — so the runner farms unique points out to a
//! `std::thread` worker pool and hands duplicate specs a shared result.
//! Results always come back **in spec order**, which makes table output
//! independent of the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bbb_core::{RunSummary, System};
use bbb_sim::Stats;
use bbb_workloads::{make_workload, suite::with_epoch_barriers};

use crate::ExperimentSpec;

/// The result of one simulated experiment point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Run summary (cycles, ops).
    pub summary: RunSummary,
    /// Merged component statistics snapshot.
    pub stats: Stats,
}

impl RunResult {
    /// Execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.summary.cycles
    }

    /// Writes to NVMM media (the endurance metric of Fig. 7(b)).
    #[must_use]
    pub fn nvmm_writes(&self) -> u64 {
        self.stats.get("nvmm.writes")
    }

    /// Steady-state NVMM writes: media writes plus blocks still dirty in
    /// the mode's holding structures at window end (their media write
    /// falls just past the measured window; the paper's long 250M-
    /// instruction windows make this end effect invisible, short windows
    /// must add it back for a fair comparison).
    #[must_use]
    pub fn nvmm_writes_steady(&self) -> u64 {
        self.stats.get("nvmm.writes") + self.stats.get("sim.residual_persist_blocks")
    }
}

/// Executes one spec to completion on the calling thread. Pure in the
/// functional sense: the result is fully determined by the spec.
///
/// Every kind runs the same way: the workload (fenced once per operation
/// under `epoch_barriers`) is set up, then pulled one op at a time by
/// [`System::run`]. A server-scale kind's memory stays O(live keys)
/// regardless of the op budget.
#[must_use]
pub fn execute_spec(spec: &ExperimentSpec) -> RunResult {
    let mut sys = System::new(spec.cfg.clone(), spec.mode).expect("valid config");
    let mut w = make_workload(spec.workload, &spec.cfg, spec.params);
    if spec.epoch_barriers {
        w = with_epoch_barriers(w);
    }
    sys.prepare(w.as_mut());
    let summary = sys.run(w.as_mut(), spec.op_budget);
    if spec.op_budget == u64::MAX {
        // End-of-measurement barrier; budget-capped runs skip it so crash
        // semantics stay observable to exploration drivers.
        sys.drain_all_store_buffers();
    }
    RunResult {
        summary,
        stats: sys.stats(),
    }
}

/// Number of distinct simulation points in `specs` (what the runner will
/// actually execute; the rest are memoized duplicates).
#[must_use]
pub fn unique_points(specs: &[ExperimentSpec]) -> usize {
    plan(specs).0.len()
}

/// Returns `(jobs, assignment)`: `jobs[j]` is the spec index that defines
/// unique point `j`, and `assignment[i]` is the job each spec maps to.
fn plan(specs: &[ExperimentSpec]) -> (Vec<usize>, Vec<usize>) {
    let mut jobs: Vec<usize> = Vec::new();
    let mut assignment: Vec<usize> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let job = jobs
            .iter()
            .position(|&j| specs[j].same_point(spec))
            .unwrap_or_else(|| {
                jobs.push(i);
                jobs.len() - 1
            });
        assignment.push(job);
    }
    (jobs, assignment)
}

/// The experiment executor: a fixed-size `std::thread` worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner sized by the `BBB_THREADS` env var, defaulting to the
    /// machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var("BBB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Self::with_threads(threads)
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes one spec on the calling thread.
    #[must_use]
    pub fn run_one(&self, spec: &ExperimentSpec) -> RunResult {
        execute_spec(spec)
    }

    /// Applies `f` to every item on the worker pool, returning results in
    /// item order regardless of thread count. This is the primitive
    /// [`Runner::run`] is built on; other drivers (the crash-sweep
    /// harness, ablations) use it directly to parallelise work that is
    /// not shaped like an [`ExperimentSpec`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (`f` panicked on some item).
    #[must_use]
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            for (slot, item) in slots.iter().zip(items) {
                *slot.lock().expect("unpoisoned") = Some(f(item));
            }
        } else {
            let next = AtomicUsize::new(0);
            let f = &f;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= items.len() {
                            break;
                        }
                        let result = f(&items[j]);
                        *slots[j].lock().expect("unpoisoned") = Some(result);
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("unpoisoned")
                    .expect("every item executed")
            })
            .collect()
    }

    /// Executes every spec, returning results in spec order. Duplicate
    /// points (specs for which [`ExperimentSpec::same_point`] holds) are
    /// executed once and share the result. Execution is deterministic:
    /// the returned vector is identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a spec failed to execute).
    #[must_use]
    pub fn run(&self, specs: &[ExperimentSpec]) -> Vec<RunResult> {
        let (jobs, assignment) = plan(specs);
        let results = self.map(&jobs, |&spec_idx| execute_spec(&specs[spec_idx]));
        assignment.into_iter().map(|j| results[j].clone()).collect()
    }
}

// Results cross thread boundaries on their way back to the caller.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunResult>();
    assert_send_sync::<Runner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_config, Scale};
    use bbb_core::PersistencyMode;
    use bbb_sim::SimConfig;
    use bbb_workloads::WorkloadKind;

    fn tiny_scale() -> Scale {
        Scale {
            initial: 200,
            per_core_ops: 20,
        }
    }

    fn tiny_specs() -> Vec<ExperimentSpec> {
        let scale = tiny_scale();
        let cfg = paper_config(scale);
        let mut specs = Vec::new();
        for kind in [WorkloadKind::Hashmap, WorkloadKind::SwapC] {
            specs.push(ExperimentSpec::new(
                kind,
                PersistencyMode::Eadr,
                &cfg,
                scale,
            ));
            specs.push(ExperimentSpec::new(
                kind,
                PersistencyMode::BbbMemorySide,
                &cfg,
                scale,
            ));
        }
        // A duplicate of the first baseline, as fig7/procside-style sweeps
        // produce; and a relabeled duplicate.
        specs.push(specs[0].clone());
        specs.push(specs[1].clone().labeled("again"));
        specs
    }

    #[test]
    fn executes_a_point() {
        let scale = tiny_scale();
        let cfg = paper_config(scale);
        let spec = ExperimentSpec::new(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            scale,
        );
        let r = Runner::with_threads(1).run_one(&spec);
        assert!(r.summary.ops > 0);
        assert!(r.cycles() > 0);
        assert!(r.nvmm_writes() > 0);
        assert!(r.nvmm_writes_steady() >= r.nvmm_writes());
    }

    #[test]
    fn duplicate_points_are_memoized() {
        let specs = tiny_specs();
        assert_eq!(specs.len(), 6);
        assert_eq!(unique_points(&specs), 4, "two duplicates fold away");
        let results = Runner::with_threads(2).run(&specs);
        assert_eq!(results.len(), specs.len());
        assert_eq!(results[4], results[0], "memoized result is shared");
        assert_eq!(results[5], results[1]);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let specs = tiny_specs();
        let serial = Runner::with_threads(1).run(&specs);
        let parallel = Runner::with_threads(4).run(&specs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let scale = tiny_scale();
        let cfg = paper_config(scale);
        let slow = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::Pmem, &cfg, scale);
        let fast = ExperimentSpec::new(WorkloadKind::Ctree, PersistencyMode::Eadr, &cfg, scale);
        let results = Runner::with_threads(2).run(&[slow.clone(), fast.clone()]);
        assert_eq!(results[0], execute_spec(&slow));
        assert_eq!(results[1], execute_spec(&fast));
        assert!(
            results[0].cycles() > results[1].cycles(),
            "PMEM flushes must cost cycles"
        );
    }

    #[test]
    fn map_preserves_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let square = |x: &u64| x * x;
        let serial = Runner::with_threads(1).map(&items, square);
        let parallel = Runner::with_threads(8).map(&items, square);
        assert_eq!(serial, parallel);
        assert_eq!(serial, items.iter().map(square).collect::<Vec<_>>());
        assert!(Runner::with_threads(4)
            .map::<u64, u64, _>(&[], square)
            .is_empty());
    }

    #[test]
    fn empty_spec_list_is_fine() {
        assert!(Runner::from_env().run(&[]).is_empty());
        assert_eq!(unique_points(&[]), 0);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(Runner::with_threads(0).threads(), 1);
        assert!(Runner::from_env().threads() >= 1);
    }

    #[test]
    fn budget_capped_runs_skip_the_drain_barrier() {
        let mut cfg = SimConfig::small_for_tests();
        cfg.persistent_heap_bytes = 512 * 1024;
        let spec = ExperimentSpec::new(
            WorkloadKind::Hashmap,
            PersistencyMode::BbbMemorySide,
            &cfg,
            Scale {
                initial: 64,
                per_core_ops: 50,
            },
        )
        .with_op_budget(10);
        let r = execute_spec(&spec);
        assert_eq!(r.summary.ops, 10);
        assert!(!r.summary.completed);
    }
}

//! Failure shrinking: turn a crash-sweep failure into the smallest
//! reproducer we can find, printed as a ready-to-paste regression test.
//!
//! Two shrink dimensions, applied greedily:
//!
//! 1. **Workload size** — halve `per_core_ops` and `initial` while a
//!    dense re-scan of the smaller run still fails. Smaller runs make the
//!    regression test fast and the failing state legible.
//! 2. **Crash cycle** — on the final configuration, find the earliest
//!    failing point of a dense grid, then walk cycle-by-cycle through the
//!    preceding stride to the *minimal* failing cycle.

use bbb_sim::{Cycle, SimConfig};

use crate::grid::GridSpec;
use crate::sweep::{first_failure_at, mode_tag, reference_run, CrashFailure, SweepConfig};

/// Dense points used for each shrink re-scan.
const RESCAN_POINTS: usize = 256;

/// A shrunk failure plus its generated regression test.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The shrunk configuration that still fails.
    pub config: SweepConfig,
    /// Minimal failing crash cycle found.
    pub failure: CrashFailure,
    /// A complete `#[test]` function reproducing the failure, ready to
    /// paste into `tests/crash_sweep.rs`.
    pub test_source: String,
}

fn rescan(cfg: &SweepConfig, battery_dropped: bool) -> Option<CrashFailure> {
    let spec = GridSpec::bounded(RESCAN_POINTS, 0, cfg.grid.seed);
    let points = reference_run(cfg).plan(&spec);
    first_failure_at(cfg, battery_dropped, &points)
}

/// Shrinks `failure` (found while sweeping `cfg`) to a minimal
/// reproducer. Deterministic and bounded: each re-scan replays one run.
#[must_use]
pub fn shrink(cfg: &SweepConfig, failure: &CrashFailure) -> Reproducer {
    let battery = failure.battery_dropped;
    let mut best_cfg = cfg.clone();
    let mut best = failure.clone();

    // Dimension 1: workload size.
    loop {
        let mut cand = best_cfg.clone();
        let mut changed = false;
        if cand.params.per_core_ops > 4 {
            cand.params.per_core_ops /= 2;
            changed = true;
        }
        if cand.params.initial > 8 {
            cand.params.initial /= 2;
            changed = true;
        }
        if !changed {
            break;
        }
        match rescan(&cand, battery) {
            Some(f) => {
                best_cfg = cand;
                best = f;
            }
            None => break, // smaller run no longer fails; keep the last one
        }
    }

    // Dimension 2: minimal failing cycle. `rescan` already found the
    // earliest failing point on a dense grid; walk the stride before it
    // cycle by cycle.
    if let Some(f) = rescan(&best_cfg, battery) {
        best = f;
    }
    let reference = reference_run(&best_cfg);
    let stride = (reference.total_cycles / RESCAN_POINTS as u64).max(1);
    if stride > 1 {
        let lo = best.cycle.saturating_sub(stride - 1).max(1);
        let window: Vec<Cycle> = (lo..=best.cycle).collect();
        if let Some(f) = first_failure_at(&best_cfg, battery, &window) {
            best = f;
        }
    }

    let test_source = test_source(&best_cfg, &best);
    Reproducer {
        config: best_cfg,
        failure: best,
        test_source,
    }
}

/// Chooses the named `SimConfig` constructor the machine was derived
/// from; `exact` is false when fields beyond cores/heap/bbPB-entries were
/// customized (the generated test then carries a warning comment).
fn base_expr(cfg: &SimConfig) -> (&'static str, bool) {
    for (expr, base) in [
        ("SimConfig::small_for_tests()", SimConfig::small_for_tests()),
        ("SimConfig::default()", SimConfig::default()),
    ] {
        let mut adjusted = base;
        adjusted.cores = cfg.cores;
        adjusted.persistent_heap_bytes = cfg.persistent_heap_bytes;
        adjusted.bbpb.entries = cfg.bbpb.entries;
        if *cfg == adjusted {
            return (expr, true);
        }
    }
    ("SimConfig::default()", false)
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders a complete `#[test]` reproducing `failure` under `cfg`.
#[must_use]
pub fn test_source(cfg: &SweepConfig, failure: &CrashFailure) -> String {
    let (base, exact) = base_expr(&cfg.cfg);
    let caveat = if exact {
        String::new()
    } else {
        "    // WARNING: the sweep's machine customized more SimConfig fields than\n    // cores/heap/bbPB entries below — port those too.\n".to_owned()
    };
    let barrier_line = if cfg.epoch_barriers {
        "    let mut w = bbb::workloads::suite::with_epoch_barriers(w);\n"
    } else {
        ""
    };
    let crash_call = if failure.battery_dropped {
        "crash_now_battery_dropped"
    } else {
        "crash_now"
    };
    let detail = failure
        .report
        .failure
        .as_deref()
        .unwrap_or("(verification failure)");
    let wl_variant = format!("{:?}", cfg.workload);
    let mode_variant = format!("{:?}", cfg.mode);
    format!(
        r#"#[test]
fn crashfuzz_regression_{wl_fn}_{mode_fn}_cycle_{cycle}() {{
    // Generated by bbb-crashfuzz: power failure at cycle {cycle} leaves
    // {wl_name} unrecoverable under {mode_debug}.
    // Observed: {detail}
    use bbb::core::{{PersistencyMode, RunCursor, StopAt, System}};
    use bbb::sim::SimConfig;
    use bbb::workloads::{{make_workload, verify_recovery_report, WorkloadKind, WorkloadParams}};

{caveat}    let mut cfg = {base};
    cfg.cores = {cores};
    cfg.persistent_heap_bytes = {heap};
    cfg.bbpb.entries = {entries};
    let params = WorkloadParams {{
        initial: {initial},
        per_core_ops: {ops},
        seed: {seed:#x},
        instrument: {instrument},
    }};
    let mut w = make_workload(WorkloadKind::{wl_variant}, &cfg, params);
{barrier_line}    let mut sys = System::new(cfg.clone(), PersistencyMode::{mode_variant}).unwrap();
    sys.prepare(w.as_mut());
    let mut cursor = RunCursor::new(cfg.cores);
    sys.run_until(w.as_mut(), &mut cursor, StopAt::Cycle({cycle}));
    let image = sys.{crash_call}();
    let report = verify_recovery_report(WorkloadKind::{wl_variant}, &image, &cfg, params);
    assert!(report.ok(), "{{report}}");
}}"#,
        wl_fn = sanitize(cfg.workload.name()),
        mode_fn = sanitize(mode_tag(cfg.mode)),
        cycle = failure.cycle,
        wl_name = cfg.workload.name(),
        mode_debug = cfg.mode,
        detail = detail,
        base = base,
        cores = cfg.cfg.cores,
        heap = cfg.cfg.persistent_heap_bytes,
        entries = cfg.cfg.bbpb.entries,
        initial = cfg.params.initial,
        ops = cfg.params.per_core_ops,
        seed = cfg.params.seed,
        instrument = cfg.params.instrument,
        wl_variant = wl_variant,
        mode_variant = mode_variant,
        crash_call = crash_call,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CRASHFUZZ_SEED;
    use bbb_core::PersistencyMode;
    use bbb_workloads::{RecoveryReport, WorkloadKind, WorkloadParams};

    fn lossy_cfg() -> SweepConfig {
        SweepConfig::lossy(
            WorkloadKind::Hashmap,
            PersistencyMode::Pmem,
            &SimConfig::small_for_tests(),
            WorkloadParams::smoke(),
            GridSpec::bounded(64, 0, CRASHFUZZ_SEED),
        )
    }

    #[test]
    fn generated_test_mentions_every_load_bearing_parameter() {
        let cfg = lossy_cfg();
        let f = CrashFailure {
            cycle: 1234,
            battery_dropped: false,
            report: RecoveryReport {
                workload: WorkloadKind::Hashmap,
                recovered: 7,
                failure: Some("bucket 3: dangling node pointer".into()),
            },
        };
        let src = test_source(&cfg, &f);
        assert!(src.contains("#[test]"));
        assert!(src.contains("StopAt::Cycle(1234)"));
        assert!(src.contains("WorkloadKind::Hashmap"));
        assert!(src.contains("PersistencyMode::Pmem"));
        assert!(src.contains("SimConfig::small_for_tests()"));
        assert!(src.contains("dangling node pointer"));
        assert!(src.contains("crashfuzz_regression_hashmap_pmem_cycle_1234"));
        assert!(!src.contains("WARNING"), "small_for_tests is an exact base");
    }

    #[test]
    fn battery_dropped_failures_use_the_dropped_crash_call() {
        let cfg = lossy_cfg();
        let f = CrashFailure {
            cycle: 9,
            battery_dropped: true,
            report: RecoveryReport {
                workload: WorkloadKind::Hashmap,
                recovered: 0,
                failure: Some("torn".into()),
            },
        };
        assert!(test_source(&cfg, &f).contains("crash_now_battery_dropped()"));
    }

    #[test]
    fn shrink_finds_a_smaller_failing_run_for_unflushed_pmem() {
        // Unflushed PMEM fails recovery at some crash point even at tiny
        // scale, so the shrinker must both shrink the workload and keep a
        // failing cycle.
        let cfg = lossy_cfg();
        let reference = reference_run(&cfg);
        let points =
            crate::grid::plan_points(reference.total_cycles, &reference.event_cycles, &cfg.grid);
        let Some(found) = first_failure_at(&cfg, false, &points) else {
            // Nothing to shrink at this scale; the sweep-level negative
            // oracle (final differential) covers the teeth check instead.
            return;
        };
        let rep = shrink(&cfg, &found);
        assert!(rep.failure.cycle <= found.cycle);
        assert!(rep.config.params.per_core_ops <= cfg.params.per_core_ops);
        assert!(!rep.failure.report.ok());
        assert!(rep.test_source.contains("#[test]"));
    }
}

//! The metric catalogue and a run's report.
//!
//! [`end_to_end`] and [`per_layer`] are the single definition of every
//! metric's name, unit, direction and bound; `BENCHMARK.json` at the
//! repository root must list exactly the same entries (a test checks).

use bbb_runner::Json;

use crate::summary::Summary;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, ratios to eADR).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Deterministic for a given seed: any difference between two runs of
    /// the same seed is a change in the simulated machine, not noise.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: Better) -> Def {
    Def {
        name: name.to_owned(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// Absolute slack for `setup_s`: wal sets up in about 2 ms per rep, where
/// a share of it is scheduler noise, so `compare` never flags less than
/// this many seconds.
pub const SETUP_ABS_SLACK_S: f64 = 0.02;

/// The modes, in the column order of the `kv`/`wal` binaries.
pub const MODE_TAGS: [&str; 5] = ["eadr", "bbb-mem", "bbb-proc", "bep", "pmem"];

/// The end-to-end metrics, measured with tracing off.
///
/// `fail_frac` is reported on every run but is not listed here: it is 0 on
/// a correct build, and the catalogue holds only metrics that never read 0.
/// It reaches the result line as the `attempted`/`failed` counts.
#[must_use]
pub fn end_to_end() -> Vec<Def> {
    let bounded = |name: &str, unit, better, bound| Def {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    // Host speed on a shared 2-vCPU machine drifts by 10-15 % over minutes
    // (README "Noise"), so run medians of the host-time metrics spread by
    // up to 14 % across runs: a tighter bound could not tell a regression
    // from the neighbours. The simulated ratios are exact for one seed; the
    // bound only has to cover how they move between seeds, at most 2.3 %
    // (cycles) and 1 % (NVMM writes) over ten seeds (README "Noise").
    let ratio = |name: &str, bound| Def {
        bound: Some(bound),
        exact: true,
        ..def(name, "ratio", Better::Lower)
    };
    vec![
        bounded("wall_s", "s", Better::Lower, 0.25),
        bounded("setup_s", "s", Better::Lower, 0.25),
        bounded("sim_ops_per_s", "ops/s", Better::Higher, 0.25),
        bounded("crash_points_per_s", "points/s", Better::Higher, 0.25),
        bounded("peak_rss_mb", "MiB", Better::Lower, 0.05),
        ratio("sim_cycles_vs_eadr.bbb-mem", 0.10),
        ratio("sim_cycles_vs_eadr.bbb-proc", 0.10),
        ratio("nvmm_writes_vs_eadr.bbb-mem", 0.05),
        ratio("nvmm_writes_vs_eadr.bbb-proc", 0.05),
    ]
}

/// The simulated per-mode metrics: `(name stem, unit, direction)`; each
/// is reported once per mode as `<stem>.<mode>`.
pub const PER_MODE: [(&str, &str, Better); 14] = [
    ("cache.l1_miss_rate", "ratio", Better::Lower),
    ("cache.l2_miss_rate", "ratio", Better::Lower),
    ("bbpb.rejections_per_kop", "1/kop", Better::Lower),
    ("bbpb.coalesce_frac", "ratio", Better::Higher),
    ("bbpb.mean_occupancy", "entries", Better::Lower),
    ("wpq.backpressure_per_kop", "1/kop", Better::Lower),
    ("nvmm.writes_per_kop", "1/kop", Better::Lower),
    ("cores.sb_full_stalls_per_kop", "1/kop", Better::Lower),
    ("cores.fence_stall_share", "ratio", Better::Lower),
    ("sched.cycles_share.pipeline", "ratio", Better::Higher),
    ("sched.cycles_share.store_buffer", "ratio", Better::Lower),
    ("sched.cycles_share.wpq", "ratio", Better::Lower),
    ("sched.cycles_share.bbpb", "ratio", Better::Lower),
    ("sched.cycles_share.nvmm", "ratio", Better::Lower),
];

/// The per-layer metrics, measured by the traced run. Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
#[must_use]
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut defs: Vec<Def> = [
        ("workloads.build_s", "s", Lower),
        ("workloads.setup_s", "s", Lower),
        ("core.new_s", "s", Lower),
        ("core.sync_media_s", "s", Lower),
        ("workloads.arch_pages", "pages", Lower),
        ("workloads.next_op_ns.p50", "ns", Lower),
        ("workloads.next_op_ns.p99", "ns", Lower),
        ("workloads.gen_share", "ratio", Lower),
        ("core.run_self_s", "s", Lower),
        ("core.ns_per_op", "ns", Lower),
        ("core.drain_s", "s", Lower),
        ("workloads.recovery_s", "s", Lower),
        ("crashfuzz.plan_s", "s", Lower),
        ("crashfuzz.sweep_s", "s", Lower),
        ("core.crash_epoch_ns.p50", "ns", Lower),
        ("core.crash_image_us.p50", "us", Lower),
        ("core.crash_image_us.p99", "us", Lower),
        ("crashfuzz.recovery_us.p50", "us", Lower),
        ("crashfuzz.recovery_us.p99", "us", Lower),
        ("crashfuzz.snapshots", "count", Lower),
        ("crashfuzz.snapshots_reused_frac", "ratio", Higher),
        ("crashfuzz.pages_copied_per_snapshot", "pages", Lower),
        ("check.generate_s", "s", Lower),
        ("check.evaluate_us.p50", "us", Lower),
        ("check.evaluate_us.p99", "us", Lower),
        ("check.model_share", "ratio", Lower),
        ("check.executions", "count", Lower),
        ("check.schedule_images_ms.p50", "ms", Lower),
        ("check.shape_ms.p50", "ms", Lower),
        ("check.shape_ms.p99", "ms", Lower),
        ("runner.speedup", "x", Higher),
        ("runner.parallel_eff", "ratio", Higher),
        ("trace.overhead_frac", "ratio", Lower),
        ("unattributed", "ratio", Lower),
        ("bbpb.allocate_ns", "ns", Lower),
        ("cache.write_ns", "ns", Lower),
        ("wpq.write_block_ns", "ns", Lower),
    ]
    .into_iter()
    .map(|(name, unit, better)| def(name, unit, better))
    .collect();
    for (stem, unit, better) in PER_MODE {
        for mode in MODE_TAGS {
            defs.push(Def {
                exact: true,
                ..def(&format!("{stem}.{mode}"), unit, better)
            });
        }
    }
    for mode in ["bep", "pmem"] {
        defs.push(Def {
            exact: true,
            ..def(&format!("persist.latency.p999.{mode}"), "cycles", Lower)
        });
    }
    defs
}

/// One measured metric: a value, and the per-rep samples it is the
/// median of when it was measured more than once.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (the median of `samples` when there are any).
    pub value: f64,
    /// Per-rep samples (empty for single-shot and derived metrics).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single-shot value.
    #[must_use]
    pub fn one(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples: Vec::new(),
        }
    }

    /// The median of per-rep samples.
    #[must_use]
    pub fn reps(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        Self {
            value: Summary::of(&samples).median,
            samples,
            ..Self::one(name, unit, 0.0)
        }
    }

    /// Median, quartiles and count of the samples (a single-shot value
    /// counts as one sample).
    #[must_use]
    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            Summary::of(&[self.value])
        } else {
            Summary::of(&self.samples)
        }
    }
}

/// Everything one `bbb-perf run` measured and checked.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Timed reps measured.
    pub reps: usize,
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// The correctness checks' outcome.
    pub checks: Checks,
}

impl RunReport {
    /// The metric named `name`, if reported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Failed checks over attempted checks.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// True when checks ran and none failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.attempted > 0 && self.checks.failed == 0
    }

    /// `name value unit`, one line per metric.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!("fail_frac {} ratio\n", self.fail_frac()));
        out
    }

    /// The full record: every metric with its median, quartiles, count and
    /// samples. `bbb-perf compare` reads these files.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let s = m.summary();
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit.as_str())),
                    ("median", Json::from(s.median)),
                    ("q1", Json::from(s.q1)),
                    ("q3", Json::from(s.q3)),
                    ("n", Json::from(s.n)),
                    (
                        "samples",
                        Json::arr(m.samples.iter().map(|&x| Json::from(x))),
                    ),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("trace", Json::from(self.trace)),
            ("reps", Json::from(self.reps)),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            ("fail_frac", Json::from(self.fail_frac())),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }

    /// The one-line result: the catalogue's end-to-end metrics for an
    /// untraced run, its per-layer metrics for a traced one.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric the run did not report.
    pub fn result_line(&self) -> Result<Json, String> {
        let defs = if self.trace {
            per_layer()
        } else {
            end_to_end()
        };
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let m = self
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            metrics.push((
                d.name,
                Json::obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit.as_str())),
                ]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// Counts correctness checks and keeps the first few failures for the
/// error report.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

//! Tiny-scale runs of every workload: each reports every catalogued metric
//! with its unit, passes its checks, and keeps `BENCHMARK.json` honest.

use std::path::Path;

use bbb_perf::compare::compare;
use bbb_perf::metrics::{end_to_end, per_layer, RunReport};
use bbb_perf::{run, RunOpts, Size, Workload};
use bbb_runner::Json;

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunReport {
    let opts = RunOpts {
        workload,
        seed,
        trace,
        size: Size::Tiny,
    };
    let (report, tracer) = run(&opts).expect("tiny run completes");
    assert_eq!(tracer.is_some(), trace, "spans exactly when traced");
    report
}

fn assert_complete(workload: Workload, trace: bool) {
    let report = tiny(workload, 7, trace);
    assert!(report.checks.attempted > 0, "{workload:?}: no checks ran");
    assert_eq!(report.fail_frac(), 0.0, "{:?}", report.checks.failures);
    let defs = if trace { per_layer() } else { end_to_end() };
    for d in defs {
        let m = report
            .get(&d.name)
            .unwrap_or_else(|| panic!("{workload:?}: {} not reported", d.name));
        assert_eq!(m.unit, d.unit, "{}", d.name);
        assert!(m.value.is_finite(), "{}: {}", d.name, m.value);
        if !trace {
            assert!(m.value > 0.0, "{workload:?}: end-to-end {} reads 0", d.name);
        }
    }
    let line = report.result_line().expect("every catalogued metric");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn kv_reports_every_metric() {
    assert_complete(Workload::Kv, false);
    assert_complete(Workload::Kv, true);
}

#[test]
fn wal_reports_every_metric() {
    assert_complete(Workload::Wal, false);
    assert_complete(Workload::Wal, true);
}

#[test]
fn crash_reports_every_metric() {
    assert_complete(Workload::Crash, false);
    assert_complete(Workload::Crash, true);
}

#[test]
fn conform_reports_every_metric() {
    assert_complete(Workload::Conform, false);
    assert_complete(Workload::Conform, true);
}

fn ratios(report: &RunReport) -> Vec<u64> {
    end_to_end()
        .iter()
        .filter(|d| d.exact)
        .map(|d| report.get(&d.name).expect("ratio reported").value.to_bits())
        .collect()
}

#[test]
fn simulated_ratios_repeat_for_a_seed_and_move_with_it() {
    for workload in [Workload::Kv, Workload::Wal] {
        let a = ratios(&tiny(workload, 1, false));
        assert_eq!(a, ratios(&tiny(workload, 1, false)), "{workload:?}");
        assert_ne!(a, ratios(&tiny(workload, 2, false)), "{workload:?}");
    }
}

fn catalogue_entry(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let want = |defs: Vec<bbb_perf::metrics::Def>| {
        defs.into_iter()
            .map(|d| {
                (
                    d.name,
                    d.unit.to_owned(),
                    d.better.name().to_owned(),
                    d.bound,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(catalogue_entry(&doc, "end_to_end"), want(end_to_end()));
    assert_eq!(catalogue_entry(&doc, "per_layer"), want(per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn compare_flags_regressions_and_changed_ratios() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    let (a, b) = (dir.join("a"), dir.join("b"));
    for d in [&a, &b] {
        std::fs::create_dir_all(d).expect("temp dir");
    }
    let parent = tiny(Workload::Wal, 3, false);
    std::fs::write(a.join("wal.json"), parent.to_json().to_string()).expect("write");

    // The same record on both sides: nothing regressed, ratios identical.
    std::fs::write(b.join("wal.json"), parent.to_json().to_string()).expect("write");
    let (text, bad) = compare(&a, &b).expect("compare");
    assert!(!bad, "{text}");
    assert!(text.contains("identical"), "{text}");

    // A change 50 % slower everywhere, with a moved ratio.
    let mut slow = parent.clone();
    for m in &mut slow.metrics {
        if m.name == "wall_s" {
            m.value *= 1.5;
            m.samples.iter_mut().for_each(|x| *x *= 1.5);
        }
        if m.name == "sim_cycles_vs_eadr.bbb-mem" {
            m.value *= 1.01;
        }
    }
    std::fs::write(b.join("wal.json"), slow.to_json().to_string()).expect("write");
    let (text, bad) = compare(&a, &b).expect("compare");
    assert!(bad, "{text}");
    assert!(text.contains("CHANGED"), "{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("wall_s")
                && (l.contains("REGRESSED") || l.contains("unresolved"))),
        "{text}"
    );
}

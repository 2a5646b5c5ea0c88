//! `bbb-check` — persist-order checking from the command line.
//!
//! ```text
//! bbb-check litmus  [--json]
//! bbb-check audit   [--json]
//! bbb-check conform [--json] [--full]
//!
//!   litmus   run the persistency litmus shapes against all five modes and
//!            print the allowed/forbidden verdict table
//!   audit    replay traced smoke-grid workloads through the checker:
//!            battery modes must verify PoV = PoP with zero violations;
//!            deliberately-broken disciplines (flush-stripped PMEM,
//!            barrier-stripped BEP) must each yield at least one witness
//!   conform  generate litmus shapes, evaluate the axiomatic model under
//!            every mode, crash-sweep each shape on the simulator, and
//!            fail on any sim-shows-forbidden disagreement
//!   --full   conform only: the larger generator bounds
//!   --json   also write BENCH_<cmd>.json (or set BBB_JSON=1)
//! ```
//!
//! Exit status is non-zero when any expectation fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bbb_check::conform::run_suite;
use bbb_check::enumerate::{generate_suite, GenBounds};
use bbb_check::litmus::{mode_label, run_all, run_shape, shapes};
use bbb_check::{CheckReport, ModeConform, PersistOrderChecker};
use bbb_core::{PersistencyMode, System};
use bbb_runner::{json_requested, Report, Runner};
use bbb_sim::{SimConfig, Table};
use bbb_workloads::{make_workload, WorkloadKind, WorkloadParams};

fn usage() -> ! {
    eprintln!("usage: bbb-check <litmus|audit|conform> [--json] [--full]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut full = false;
    for a in &args {
        match a.as_str() {
            "litmus" | "audit" | "conform" if cmd.is_none() => cmd = Some(a.clone()),
            "--json" => {} // consumed by json_requested()
            "--full" => full = true,
            _ => usage(),
        }
    }
    let failed = match cmd.as_deref() {
        Some("litmus") => litmus_cmd(),
        Some("audit") => audit_cmd(),
        Some("conform") => conform_cmd(full),
        _ => usage(),
    };
    std::process::exit(i32::from(failed));
}

fn litmus_cmd() -> bool {
    let rows = run_all();
    let mut report = Report::with_json("litmus", json_requested());
    report.meta_scale_name("litmus");
    report.meta("shapes", shapes().len());
    report.meta("modes", PersistencyMode::ALL.len());
    let mut table = Table::new(
        "Persistency litmus verdicts",
        &[
            "shape", "mode", "expected", "observed", "points", "checker", "status",
        ],
    );
    let mut failed = false;
    for row in &rows {
        let pass = row.pass();
        failed |= !pass;
        table.row_owned(vec![
            row.shape.to_owned(),
            mode_label(row.mode).to_owned(),
            row.expect.verdict.label().to_owned(),
            row.observed_label(),
            row.crash_points.to_string(),
            format!(
                "{} violation(s){}",
                row.report.violations(),
                if row.expect.witness {
                    " (expected)"
                } else {
                    ""
                }
            ),
            if pass { "ok" } else { "FAILED" }.to_owned(),
        ]);
    }
    report.table(table);
    let witnesses: usize = rows
        .iter()
        .filter(|r| r.expect.witness)
        .map(|r| r.report.violations() as usize)
        .sum();
    report.meta("cells", rows.len());
    report.meta("expected_witnesses_found", witnesses);
    report.note(format!(
        "{} cells; forbidden outcomes never observed where guaranteed; \
         {} ordering witness(es) from deliberately-broken disciplines",
        rows.len(),
        witnesses
    ));
    report.emit().expect("report written");

    for row in rows.iter().filter(|r| !r.pass()) {
        eprintln!(
            "\n{} under {}: expected {}, observed {} with {} checker violation(s)",
            row.shape,
            mode_label(row.mode),
            row.expect.verdict.label(),
            row.observed_label(),
            row.report.violations()
        );
        for w in &row.report.witnesses {
            eprintln!("{w}");
        }
    }
    // Print the first witness of each broken-discipline cell so the table
    // is accompanied by concrete happens-before paths.
    for row in rows.iter().filter(|r| r.expect.witness && r.pass()) {
        if let Some(w) = row.report.witnesses.first() {
            println!(
                "\nwitness ({} under {}):\n{w}",
                row.shape,
                mode_label(row.mode)
            );
        }
    }
    failed
}

/// One audit cell: a workload traced end-to-end (run, then battery-backed
/// crash) and replayed through the checker.
struct AuditCell {
    kind: WorkloadKind,
    mode: PersistencyMode,
    cfg: SimConfig,
    instrument: bool,
    /// Expected outcome: `Some(true)` means the checker must be clean,
    /// `Some(false)` means it must find at least one witness, `None` is
    /// informational.
    expect_clean: Option<bool>,
    label: String,
}

fn audit_trace(cell: &AuditCell) -> CheckReport {
    let params = WorkloadParams {
        instrument: cell.instrument,
        ..WorkloadParams::smoke()
    };
    let mut w = make_workload(cell.kind, &cell.cfg, params);
    let mut sys = System::new(cell.cfg.clone(), cell.mode).expect("audit config");
    sys.prepare(w.as_mut());
    sys.set_tracing(true);
    sys.run(w.as_mut(), u64::MAX);
    sys.crash_now();
    let events = sys.take_events();
    PersistOrderChecker::run(cell.mode, cell.cfg.cores, &events)
}

fn audit_cmd() -> bool {
    let battery = [
        PersistencyMode::Eadr,
        PersistencyMode::BbbMemorySide,
        PersistencyMode::BbbProcessorSide,
    ];
    let mut cells = Vec::new();
    // Every smoke-grid workload under every battery mode: the PoV = PoP
    // theorem and crash completeness must hold with zero violations.
    for kind in WorkloadKind::ALL {
        for mode in battery {
            cells.push(AuditCell {
                kind,
                mode,
                cfg: SimConfig::default(),
                instrument: false,
                expect_clean: Some(true),
                label: format!("{}/{}", kind.name(), mode_label(mode)),
            });
        }
    }
    // Flush-stripped PMEM on the small machine: eviction pressure makes
    // LRU order diverge from store order, so strict persistency must be
    // caught violated.
    for kind in [
        WorkloadKind::Rtree,
        WorkloadKind::Ctree,
        WorkloadKind::Hashmap,
    ] {
        cells.push(AuditCell {
            kind,
            mode: PersistencyMode::Pmem,
            cfg: SimConfig::small_for_tests(),
            instrument: false,
            expect_clean: Some(false),
            label: format!("{}/pmem-stripped", kind.name()),
        });
    }
    // The instrumented discipline on the same machine: the software
    // clwb+sfence pairs restore strict order, so the checker must be
    // clean again.
    cells.push(AuditCell {
        kind: WorkloadKind::Rtree,
        mode: PersistencyMode::Pmem,
        cfg: SimConfig::small_for_tests(),
        instrument: true,
        expect_clean: Some(true),
        label: "rtree/pmem-instrumented".to_owned(),
    });
    // Barrier-stripped BEP workloads, informational: cross-core hazards
    // depend on sharing patterns.
    for kind in [WorkloadKind::SwapC, WorkloadKind::MutateC] {
        cells.push(AuditCell {
            kind,
            mode: PersistencyMode::Bep,
            cfg: SimConfig::small_for_tests(),
            instrument: false,
            expect_clean: None,
            label: format!("{}/bep-stripped", kind.name()),
        });
    }

    let reports = Runner::from_env().map(&cells, audit_trace);

    // The guaranteed barrier-stripped BEP witness: the mp litmus shape,
    // whose consumer publishes a flag through the volatile buffer's
    // capacity drain while the producer's observed data stays buffered.
    let shapes = shapes();
    let mp = shapes.iter().find(|s| s.name == "mp").expect("mp shape");
    let bep_row = run_shape(mp, PersistencyMode::Bep);

    let mut report = Report::with_json("check_audit", json_requested());
    report.meta_scale_name("smoke");
    report.meta("cells", cells.len());
    let mut table = Table::new(
        "Persist-order audit",
        &[
            "trace",
            "events",
            "pstores",
            "persisted",
            "pov=pop",
            "violations",
            "status",
        ],
    );
    let mut failed = false;
    let mut row = |label: &str, rep: &CheckReport, ok: bool| {
        failed |= !ok;
        table.row_owned(vec![
            label.to_owned(),
            rep.events.to_string(),
            rep.persistent_stores.to_string(),
            rep.persisted.to_string(),
            rep.pov_pop_checked.to_string(),
            rep.violations().to_string(),
            if ok { "ok" } else { "FAILED" }.to_owned(),
        ]);
    };
    for (cell, rep) in cells.iter().zip(&reports) {
        let ok = match cell.expect_clean {
            Some(true) => rep.ok(),
            Some(false) => rep.violations() >= 1,
            None => true,
        };
        row(&cell.label, rep, ok);
        if !ok {
            eprintln!("\n{}: unexpected outcome", cell.label);
            for w in &rep.witnesses {
                eprintln!("{w}");
            }
            if rep.violations() == 0 {
                eprintln!("  expected at least one ordering witness, found none");
            }
        }
    }
    let bep_ok = bep_row.report.violations() >= 1;
    row("mp/bep-stripped", &bep_row.report, bep_ok);
    report.table(table);

    let battery_violations: u64 = cells
        .iter()
        .zip(&reports)
        .filter(|(c, _)| c.expect_clean == Some(true))
        .map(|(_, r)| r.violations())
        .sum();
    let pov_pop: u64 = reports.iter().map(|r| r.pov_pop_checked).sum();
    report.meta("battery_violations", battery_violations);
    report.meta("pov_pop_checked", pov_pop);
    report.note(format!(
        "battery modes: {pov_pop} stores checked PoV = PoP, {battery_violations} violations; \
         broken disciplines produced their witnesses"
    ));
    report.emit().expect("report written");

    if bep_ok {
        if let Some(w) = bep_row.report.witnesses.first() {
            println!("\nbarrier-stripped BEP witness (mp shape):\n{w}");
        }
    }
    failed
}

fn conform_cmd(full: bool) -> bool {
    let suite = if full {
        GenBounds::full_suite()
    } else {
        GenBounds::smoke_suite()
    };
    let progs = generate_suite(&suite);
    let results = run_suite(&progs);

    let mut report = Report::with_json("conform", json_requested());
    report.meta_scale_name(if full { "full" } else { "smoke" });
    report.meta("shapes", progs.len());
    report.meta("modes", PersistencyMode::ALL.len());

    // Aggregate the per-shape cells into one row per mode.
    let mut table = Table::new(
        "Model vs. simulator conformance",
        &[
            "mode",
            "shapes",
            "executions",
            "allowed",
            "forbidden",
            "universal",
            "observed",
            "covered",
            "points",
            "violations",
            "status",
        ],
    );
    let mut total_violations = 0usize;
    let mut unwitnessed = 0usize;
    let mut total_points = 0usize;
    for (mi, mode) in PersistencyMode::ALL.into_iter().enumerate() {
        let sum = |f: fn(&ModeConform) -> usize| -> usize {
            results.iter().map(|r| f(&r.per_mode[mi])).sum()
        };
        let violations = sum(|m| m.violations.len());
        total_violations += violations;
        // Every forbidden outcome must carry a witness; `universal`
        // counts the stronger all-executions kind.
        unwitnessed += sum(|m| m.forbidden - m.witnessed);
        total_points += sum(|m| m.crash_points);
        let mut row = vec![mode_label(mode).to_owned(), results.len().to_string()];
        row.extend(
            [
                sum(|m| m.executions),
                sum(|m| m.allowed),
                sum(|m| m.forbidden),
                sum(|m| m.universal),
                sum(|m| m.observed),
                sum(|m| m.covered),
                sum(|m| m.crash_points),
                violations,
            ]
            .map(|n| n.to_string()),
        );
        row.push(if violations == 0 { "ok" } else { "FAILED" }.to_owned());
        table.row_owned(row);
    }
    report.table(table);

    // Disagreement table: empty on a conforming build, and the artifact
    // CI uploads when the gate trips.
    if total_violations > 0 {
        let mut diff = Table::new(
            "Sim-shows-forbidden disagreements",
            &["shape", "mode", "outcome", "provenance", "witness"],
        );
        for r in &results {
            for m in &r.per_mode {
                for v in &m.violations {
                    diff.row_owned(vec![
                        r.shape.clone(),
                        mode_label(m.mode).to_owned(),
                        v.outcome_str.clone(),
                        v.provenance.clone(),
                        v.witness.clone(),
                    ]);
                }
            }
        }
        report.table(diff);
    }

    report.meta("crash_points", total_points);
    report.meta("violations", total_violations);
    report.meta("forbidden_without_witness", unwitnessed);
    report.note(format!(
        "{} shapes x {} modes, {} crash images: {} sim-shows-forbidden disagreement(s)",
        progs.len(),
        PersistencyMode::ALL.len(),
        total_points,
        total_violations
    ));
    report.emit().expect("report written");

    // A few sample witnesses so forbidden verdicts are concrete.
    let samples = results
        .iter()
        .flat_map(|r| r.per_mode.iter().map(move |m| (r, m)))
        .filter_map(|(r, m)| {
            m.sample_witness
                .as_ref()
                .map(|w| (r.shape.clone(), m.mode, w.clone()))
        })
        .take(3);
    for (shape, mode, w) in samples {
        println!("\nwitness ({shape} under {}): {w}", mode_label(mode));
    }
    for r in &results {
        for m in &r.per_mode {
            for v in &m.violations {
                eprintln!(
                    "\nDISAGREEMENT {} under {}: sim produced {} ({}), model forbids it:\n  {}",
                    r.shape,
                    mode_label(m.mode),
                    v.outcome_str,
                    v.provenance,
                    v.witness
                );
            }
        }
    }
    total_violations > 0 || unwitnessed > 0
}

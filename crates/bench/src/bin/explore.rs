//! `bbb-explore`: the design-space autoexplorer.
//!
//! Sweeps bbPB entries × drain threshold × battery capacity × WPQ depth
//! × core count over the server-scale KV and WAL workloads, prices every
//! point's battery, and reports the Pareto frontier over (performance,
//! battery volume, endurance) plus the two answers the paper can't give:
//! the bbPB size that desaturates the WAL, and the core count where the
//! memory-side bbPB stops paying off.

use bbb_bench::explore::{
    config_count, core_scaling, explore_scale, measure, pareto_frontier, sim_points,
    wal_desaturation_entries, Measurement, CAPACITY_TIERS_J, DESAT_BOUND,
};
use bbb_bench::{unique_points, Report, Runner, Scale};
use bbb_sim::Table;
use bbb_workloads::WorkloadKind;

fn frontier_row(m: &Measurement) -> Vec<String> {
    vec![
        format!(
            "{}/e{}/t{}/q{}/c{}",
            m.point.workload.name(),
            m.point.entries,
            m.point.threshold_pct,
            m.point.wpq,
            m.point.cores
        ),
        format!("{:.3}", m.slowdown),
        format!("{:.3}", m.endurance),
        format!("{:.3}", m.write_amp),
        m.p999.to_string(),
        m.fences.to_string(),
        format!("{:.3}", m.battery_j * 1e3),
        format!("{:.2}", m.volume_mm3),
        m.min_tier_j
            .map_or_else(|| "-".to_owned(), |t| format!("{:.0e}", t)),
    ]
}

fn main() {
    let preset = Scale::from_env().name();
    let scale = explore_scale(preset);
    let runner = Runner::from_env();
    let points = sim_points();
    let specs = bbb_bench::explore::all_specs(&points, scale);
    let unique = unique_points(&specs);

    #[allow(clippy::disallowed_methods)] // wall clock goes to stderr only
    let t0 = std::time::Instant::now();
    let results = measure(&points, scale, &runner);
    #[allow(clippy::disallowed_methods)]
    let wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "explore: {} configs ({} sim points, {unique} unique sims) in {wall:.2}s",
        config_count(),
        points.len(),
    );

    let frontier = pareto_frontier(&results);
    let desat = wal_desaturation_entries(&results);
    let scaling = core_scaling(&results);
    let feasible = results.iter().filter(|m| m.min_tier_j.is_some()).count();

    let mut summary = Table::new("Explore summary", &["metric", "value"]);
    summary.row(&["configs", &config_count().to_string()]);
    summary.row(&["sim points", &points.len().to_string()]);
    summary.row(&["unique sims", &unique.to_string()]);
    summary.row(&["feasible", &feasible.to_string()]);
    summary.row(&["frontier", &frontier.len().to_string()]);
    summary.row(&[
        "wal-desat-entries",
        &desat.map_or_else(|| "none".to_owned(), |e| e.to_string()),
    ]);

    let mut ft = Table::new(
        "Pareto frontier: performance vs battery volume vs endurance (per workload)",
        &[
            "config", "vs eADR", "NVMM xE", "WA", "p999", "fences", "batt mJ", "vol mm3", "tier J",
        ],
    );
    for m in &frontier {
        ft.row_owned(frontier_row(m));
    }

    let mut wt = Table::new(
        "WAL desaturation: bbb-mem vs eADR by bbPB entries (t75/q64/c8)",
        &["entries", "vs eADR", "NVMM xE", "p999", "batt mJ"],
    );
    let mut wal: Vec<&Measurement> = results
        .iter()
        .filter(|m| {
            m.point.workload == WorkloadKind::Wal
                && m.point.threshold_pct == 75
                && m.point.wpq == 64
                && m.point.cores == 8
        })
        .collect();
    wal.sort_by_key(|m| m.point.entries);
    for m in wal {
        wt.row_owned(vec![
            m.point.entries.to_string(),
            format!("{:.3}", m.slowdown),
            format!("{:.3}", m.endurance),
            m.p999.to_string(),
            format!("{:.3}", m.battery_j * 1e3),
        ]);
    }

    let mut ct = Table::new(
        "Core-count scaling: geomean bbb-mem slowdown at the paper point (e32/t75/q64)",
        &["cores", "vs eADR", "status"],
    );
    for &(cores, ratio) in &scaling {
        ct.row_owned(vec![
            cores.to_string(),
            format!("{ratio:.3}"),
            if ratio <= DESAT_BOUND {
                "pays off".to_owned()
            } else {
                "saturated".to_owned()
            },
        ]);
    }

    let mut report = Report::new("explore");
    report.meta_scale_name(preset);
    report.meta("initial", scale.initial);
    report.meta("per_core_ops", scale.per_core_ops);
    report.meta("threads", runner.threads());
    report.meta("capacity_tiers", CAPACITY_TIERS_J.len() as u64);
    report.table(summary);
    report.table(ft);
    report.table(wt);
    report.table(ct);
    report.note("Grid: bbPB entries x drain threshold x battery capacity x WPQ depth");
    report.note("x core count (8-64), KV mix A + WAL, bbb-mem vs matched eADR baseline.");
    report.note("Battery priced for worst-case full bbPBs on a core-scaled server");
    report.note("platform (SuperCap volume); a config is feasible when its provisioned");
    report.note("energy fits a capacity tier. Frontier minimizes (slowdown, volume,");
    report.note("endurance) per workload over feasible points.");
    report.emit().expect("report output");
}

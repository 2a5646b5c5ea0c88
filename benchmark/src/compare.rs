//! `bbb-perf compare A B`: a change's runs against its parent's.
//!
//! `A` (parent) and `B` (change) are result files written by `bbb-perf
//! run`, or directories of them. Untraced runs are grouped by workload;
//! each end-to-end metric and `fail_frac` gets one row per workload:
//!
//! * exact metrics (the simulated ratios, `fail_frac`) must be identical
//!   for every seed both sides ran;
//! * a host-time metric regresses when the change's median is worse than
//!   the parent's by more than its bound; it is *unresolved* when either
//!   side's spread (IQR over median) exceeds the bound, unless every run
//!   of the change reads better than every run of the parent;
//! * with at least ten runs a side, taken as alternating parent/change
//!   pairs in file-name order, the claim rule applies: the change wins at
//!   least 9/10 of the pairs (ties count for neither) and the medians
//!   differ by more than the parent's IQR.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bbb_runner::Json;

use crate::metrics::{end_to_end, Better, Def, SETUP_ABS_SLACK_S};
use crate::summary::Summary;

/// One run's values, as read back from its result file.
#[derive(Debug, Clone)]
struct Run {
    seed: u64,
    /// metric → (value, spread of its reps)
    values: BTreeMap<String, (f64, f64)>,
}

/// Reads every untraced result file under `path`, grouped by workload.
fn load(path: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_owned()]
    };
    files.sort();
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("{}: no {k}", f.display()));
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("{}: workload is not a string", f.display()))?
            .to_owned();
        let seed = field("seed")?.as_u64().unwrap_or(0);
        let mut values = BTreeMap::new();
        values.insert(
            "fail_frac".to_owned(),
            (field("fail_frac")?.as_f64().unwrap_or(f64::NAN), 0.0),
        );
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                let (Some(value), Some(median), Some(q1), Some(q3)) =
                    (num("value"), num("median"), num("q1"), num("q3"))
                else {
                    return Err(format!("{}: metric {name} is incomplete", f.display()));
                };
                let spread = if median == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / median
                };
                values.insert(name.clone(), (value, spread));
            }
        }
        out.entry(workload).or_default().push(Run { seed, values });
    }
    if out.is_empty() {
        return Err(format!("{}: no untraced result files", path.display()));
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_share(d: &Def, a: f64, b: f64) -> f64 {
    let delta = match d.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

fn better(d: &Def, a: f64, b: f64) -> bool {
    match d.better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    }
}

/// Median and spread of one side: over its runs when there are several,
/// else the single run's own reps.
fn side(runs: &[Run], name: &str) -> Option<(Summary, f64, Vec<f64>)> {
    let vals: Vec<(f64, f64)> = runs
        .iter()
        .filter_map(|r| r.values.get(name).copied())
        .collect();
    if vals.is_empty() {
        return None;
    }
    let xs: Vec<f64> = vals.iter().map(|v| v.0).collect();
    let s = Summary::of(&xs);
    let spread = if xs.len() == 1 { vals[0].1 } else { s.spread() };
    Some((s, spread, xs))
}

/// The verdict of one (metric, workload) row.
fn verdict(d: &Def, a: &[Run], b: &[Run]) -> Option<(String, bool)> {
    let (sa, spread_a, xa) = side(a, &d.name)?;
    let (sb, spread_b, xb) = side(b, &d.name)?;
    let mut row = format!(
        "{:<30} {:>14.6} {:>14.6} {:>+8.2}%",
        d.name,
        sa.median,
        sb.median,
        -100.0 * worse_share(d, sa.median, sb.median),
    );
    if d.exact {
        let mut paired = 0;
        let mut same = true;
        for ra in a {
            for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
                if let (Some(x), Some(y)) = (ra.values.get(&d.name), rb.values.get(&d.name)) {
                    paired += 1;
                    same &= x.0.to_bits() == y.0.to_bits();
                }
            }
        }
        let (text, bad) = match (paired, same) {
            (0, _) => ("no common seed", false),
            (_, true) => ("identical", false),
            (_, false) => ("CHANGED", true),
        };
        let _ = write!(row, "  {:>9} {text}", "exact");
        return Some((row, bad));
    }
    let bound = d.bound.unwrap_or(0.0);
    let slack = if d.name == "setup_s" {
        bound.max(SETUP_ABS_SLACK_S / sa.median)
    } else {
        bound
    };
    let worse = worse_share(d, sa.median, sb.median);
    let all_better = xa.iter().all(|&pa| xb.iter().all(|&pb| better(d, pa, pb)));
    let (text, bad) = if spread_a > bound || spread_b > bound {
        if all_better {
            ("improved (every run)", false)
        } else {
            ("unresolved", false)
        }
    } else if worse > slack {
        ("REGRESSED", true)
    } else if -worse > slack {
        ("improved", false)
    } else {
        ("within bound", false)
    };
    let _ = write!(
        row,
        "  {:>8.1}% {text} (spread {:.1}% / {:.1}%)",
        100.0 * bound,
        100.0 * spread_a,
        100.0 * spread_b
    );
    if xa.len() >= 10 && xb.len() >= 10 {
        let pairs = xa.len().min(xb.len());
        let wins = xa
            .iter()
            .zip(&xb)
            .filter(|(&pa, &pb)| better(d, pa, pb))
            .count();
        let claim = wins * 10 >= pairs * 9 && (sb.median - sa.median).abs() > sa.q3 - sa.q1;
        let _ = write!(
            row,
            "; claim {} ({wins}/{pairs} pairs won)",
            if claim { "holds" } else { "not met" }
        );
    }
    Some((row, bad))
}

/// Compares `a` (parent) against `b` (change); returns the report and
/// whether any metric regressed or any exact metric changed.
///
/// # Errors
///
/// Fails when either side has no readable untraced result file.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let fail_frac = Def {
        name: "fail_frac".to_owned(),
        unit: "ratio",
        better: Better::Lower,
        bound: None,
        exact: true,
    };
    let mut out = String::new();
    let mut any_bad = false;
    for (workload, runs_a) in &ra {
        let Some(runs_b) = rb.get(workload) else {
            let _ = writeln!(out, "{workload}: only in {}", a.display());
            continue;
        };
        let _ = writeln!(
            out,
            "{workload} ({} parent run(s), {} change run(s))\n{:<30} {:>14} {:>14} {:>9}  {:>9} verdict",
            runs_a.len(),
            runs_b.len(),
            "metric",
            "parent",
            "change",
            "better by",
            "bound"
        );
        for d in end_to_end().iter().chain([&fail_frac]) {
            if let Some((row, bad)) = verdict(d, runs_a, runs_b) {
                any_bad |= bad;
                let _ = writeln!(out, "{row}");
            }
        }
        out.push('\n');
    }
    Ok((out, any_bad))
}

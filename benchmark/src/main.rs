//! `bbb-perf` command line.
//!
//! ```text
//! bbb-perf run --workload <kv|wal|crash|conform> [--seed N] [--seconds S]
//!              [--trace [0|1]] [--out DIR]
//! bbb-perf compare <A.json|A-dir> <B.json|B-dir>
//! ```
//!
//! `run` prints every metric as `name value unit`, writes the full record
//! (medians, quartiles, samples) to `DIR/<workload>-seed<N>-trace<0|1>.json`
//! and, when traced, the spans to `DIR/<workload>-seed<N>-spans.jsonl`;
//! its last line on stdout is the one-line JSON result. It exits non-zero
//! without a result when a measurement or fidelity guard cannot complete.
//!
//! A run measures its workload's fixed number of timed reps. `--seconds`
//! is accepted and not used: callers that follow `BENCHMARK.json` pass its
//! `run_seconds`, which describes how long those reps take.

use std::path::PathBuf;
use std::process::ExitCode;

use bbb_perf::{compare::compare, run, RunOpts, Size, Workload};

const USAGE: &str = "usage: bbb-perf run --workload <kv|wal|crash|conform> [--seed N] \
                     [--seconds S] [--trace [0|1]] [--out DIR]\n       \
                     bbb-perf compare <A.json|A-dir> <B.json|B-dir>";

/// Default seed: the repository's `PAPER_SEED`, so a default run measures
/// the inputs the `kv` and `wal` binaries use.
const DEFAULT_SEED: u64 = bbb_runner::PAPER_SEED;

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut trace = false;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = parse_seed(v).ok_or_else(|| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                value()?;
            }
            "--out" => out = PathBuf::from(value()?),
            "--trace" => match it.peek().map(|v| v.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let opts = RunOpts {
        workload,
        seed,
        trace,
        size: Size::Full,
    };
    let (report, tracer) = run(&opts)?;
    let result = report.result_line()?;

    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let stem = format!("{}-seed{seed}", workload.name());
    let record = out.join(format!("{stem}-trace{}.json", u8::from(trace)));
    std::fs::write(&record, format!("{}\n", report.to_json()))
        .map_err(|e| format!("{}: {e}", record.display()))?;
    if let Some(tr) = tracer {
        let spans = out.join(format!("{stem}-spans.jsonl"));
        std::fs::write(&spans, tr.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    for failure in &report.checks.failures {
        eprintln!("check failed: {failure}");
    }
    eprintln!("record written to {}", record.display());
    print!("{}", report.text());
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare(args[1].as_ref(), args[2].as_ref()).map(|(text, bad)| {
                print!("{text}");
                if bad {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bbb-perf: {e}");
        ExitCode::from(2)
    })
}

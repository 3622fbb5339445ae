//! The fedaqp benchmark: one command per workload, printing every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) and ending with one JSON line.
//!
//! ```text
//! perfbench --workload <scan-heavy|grid-plans|live-ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A wrong answer prints the reason to stderr and exits 1 without a
//! result. See `perfbench/README.md` for the workloads and metrics.

mod common;
mod grid;
mod live;
mod scan;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Args, Report};

const USAGE: &str =
    "usage: perfbench --workload <scan-heavy|grid-plans|live-ingest> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn result_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    )
}

/// Writes the spans of a traced run under `perfbench/results/`.
fn write_spans(args: &Args, tracer: &trace::Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::spans_json(tracer.spans()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "scan-heavy" => scan::run(&args),
        "grid-plans" => grid::run(&args),
        "live-ingest" => live::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match outcome {
        Ok(r) => r,
        Err(wrong) => {
            eprintln!("WRONG ANSWER ({}): {wrong}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "error_frac {:.6} (failed or refused {} of {} attempted operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if let Some(tr) = &report.trace {
        println!(
            "trace: {} spans, max |sum of self times - root| = {} ns",
            tr.spans().len(),
            trace::max_root_residual_ns(tr.spans())
        );
        match write_spans(&args, tr) {
            Ok(path) => println!("trace: spans written to {path}"),
            Err(e) => {
                eprintln!("cannot write spans: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

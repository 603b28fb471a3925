//! The repository benchmark.
//!
//! One command runs one named workload for a given seed and time budget,
//! prints every metric by name and unit, checks the simulator's outputs,
//! and ends with one JSON line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, measured with no
//! spans at all. With `--trace 1` it runs the workload untraced once,
//! then again with timed calls into each layer's public functions, checks
//! that both runs reach the same simulated state, and reports the
//! per-layer metrics. `NOTES.md` beside this package documents the
//! workloads, the metrics and which layer metric moves which end-to-end
//! metric.

mod clock;
mod fleet;
mod machine;
mod mc;
mod report;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper-5cpu", "idle-4cpu", "fleet-storm-budgeted", "mc-tardis"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?)
            }
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    match (args.workload.as_str(), args.trace) {
        ("paper-5cpu", false) => {
            machine::run(&machine::PAPER, args.seed, args.seconds, &mut report)
        }
        ("paper-5cpu", true) => machine::run_traced(&machine::PAPER, args.seed, &mut report),
        ("idle-4cpu", false) => machine::run(&machine::IDLE, args.seed, args.seconds, &mut report),
        ("idle-4cpu", true) => machine::run_traced(&machine::IDLE, args.seed, &mut report),
        ("fleet-storm-budgeted", false) => fleet::run(args.seed, args.seconds, &mut report),
        ("fleet-storm-budgeted", true) => fleet::run_traced(args.seed, &mut report),
        ("mc-tardis", false) => mc::run(args.seconds, &mut report),
        ("mc-tardis", true) => mc::run_traced(&mut report),
        _ => unreachable!("workload names are validated in parse_args"),
    }
    report.finish();
    ExitCode::SUCCESS
}

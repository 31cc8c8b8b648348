//! `omfl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans-dir <dir>]`
//!
//! Runs one workload and prints summary lines, then one JSON object as the
//! last line of standard output. Exits 2 on bad arguments and 1 when the
//! workload cannot be set up.

use omfl_perfbench::{fleet, pd, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["pd-1m", "pd-4k-graph", "fleet-mixed"];

fn parse() -> Result<(String, RunOptions), String> {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: omfl_perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--spans-dir" => opts.spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "pd-1m" => pd::run(&pd::pd_1m(), &opts),
        "pd-4k-graph" => pd::run(&pd::pd_4k_graph(), &opts),
        _ => fleet::run(&fleet::fleet_mixed(), &opts),
    };
    match result {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("# {line}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {workload} could not be set up: {e}");
            ExitCode::from(1)
        }
    }
}

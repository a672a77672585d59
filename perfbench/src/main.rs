//! Command-line entry point of the ATLANTIS repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints one line per note and per metric, then the JSON result line.
//! Exits non-zero on a usage error or when any output fails its oracle.

use atlantis_perfbench::metrics::{render, END_TO_END, PER_LAYER};
use atlantis_perfbench::{run, RunConfig, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: atlantis-perfbench --workload <cluster_steady|cluster_overload|\
chdl_stream> --seed <u64> --seconds <secs> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size: Size::full(workload),
        trace_dir: Some(PathBuf::from("perfbench/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    for note in &report.notes {
        println!("{note}");
    }
    let set = if cfg.trace { PER_LAYER } else { END_TO_END };
    let (lines, json) = render(&report.outcome, set);
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    if report.outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: outputs failed their oracle checks");
        ExitCode::FAILURE
    }
}

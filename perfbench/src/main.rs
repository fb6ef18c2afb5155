//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints every metric by name with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an op
//! failed or an output check did not pass, 2 on a usage error.

use perfbench::{metric_values, run, RunConfig, Workload, DEFAULT_SEED};
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: perfbench --workload <paper-compile|kiloqubit-compile|serve-mix|verify-width|all> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace is 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?);
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let config = RunConfig::new(workload, args.seed, args.seconds, args.trace);
    let report = run(workload, &config);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} (seed {}, {} mode, {} cores available)",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        threads
    );
    let values = metric_values(workload, &report, args.trace);
    for (def, value) in &values {
        println!("  {:<34} {:>14.6} {}", def.name, value, def.unit);
    }
    if !args.trace {
        println!(
            "  tail percentile p{} over {} ops",
            workload.tail_percentile() * 100.0,
            report.latencies_ms.len()
        );
    }
    println!(
        "  error_rate {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(*value),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A metric value as JSON: every digit Rust prints for the value; a
/// value that could not be measured (NaN) is printed as -1.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "-1".to_string()
    }
}

/// Runs the benchmark's workloads, each in a child process of its own so
/// that no workload's memory peak or warm state leaks into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(child) => child,
            Err(e) => {
                eprintln!("perfbench: cannot start {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = child.stdout.take().expect("stdout is piped");
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
        }
        let ok = child.wait().is_ok_and(|status| status.success());
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

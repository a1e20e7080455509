//! Command line of the benchmark:
//!
//! ```text
//! sda-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//! sda-perfbench --record NAME [--scratch DIR]
//! ```
//!
//! The last line of standard output is the JSON result. The exit code is
//! 0 only when every check passed; 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use sda_perfbench::digest::References;
use sda_perfbench::report::{fingerprint, result_line};
use sda_perfbench::workloads::{record, run, Options, Size};

const USAGE: &str = "usage: sda-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
[--scratch DIR]\n       sda-perfbench --record NAME [--scratch DIR]";

/// Reference digests recorded with `--record` (see README.md).
const REFERENCES: &str = include_str!("../references.txt");

enum Command {
    Run(Options),
    Record(String, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::Full,
        scratch: std::env::temp_dir(),
    };
    let (mut seed, mut seconds, mut trace, mut record_name) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--scratch" => opts.scratch = PathBuf::from(value()?),
            "--record" => record_name = Some(value()?.clone()),
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    if let Some(name) = record_name {
        return Ok(Command::Record(name, opts.scratch));
    }
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    opts.trace = trace.ok_or("--trace is required")?;
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(Command::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Record(name, scratch)) => {
            return match record(&name, scratch) {
                Ok(lines) => {
                    for line in lines {
                        println!("{line}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refs = match References::parse(REFERENCES) {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("error: references.txt: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# sda-perfbench workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    println!("# machine {}", fingerprint());
    let out = match run(&opts, Some(&refs)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    for problem in &out.problems {
        println!("FAILED {problem}");
        eprintln!("FAILED {problem}");
    }
    let attempted = out.attempted.max(1);
    println!(
        "failure_rate {} ({} of {attempted} failed)",
        out.failed as f64 / attempted as f64,
        out.failed
    );
    let correct = out.failed == 0 && !out.metrics.is_empty();
    println!(
        "{}",
        result_line(correct, attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

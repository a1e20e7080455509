//! The reproduction: runs every table, figure, checkpoint, ablation,
//! extension, and claim check (or the ones `--only` names), printing a
//! report.
//!
//! Usage: `repro [--scale quick|default|paper] [--only NAME[,NAME...]]
//! [--plot] [--out DIR] [--cache-dir DIR | --no-cache]`
//!
//! With `--plot`, each figure is followed by an ASCII chart of its
//! curves. With `--out DIR`, each artifact is also written to
//! `DIR/<name>.csv`. With `--cache-dir DIR`, completed sweep points are
//! memoized on disk, making repeated reproductions incremental.
//! `SDA_JOBS` sets the worker count (unset or empty: all cores). The
//! exit status is 1 if a rendered claim check fails, 2 on a usage error
//! or an invalid `SDA_JOBS`.

use std::process::ExitCode;

use sda_experiments::repro::{self, Artifact};
use sda_experiments::run;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match repro::parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("repro: {message}");
            eprintln!("{}", repro::usage());
            return ExitCode::from(2);
        }
    };
    if let Err(message) = run::env_jobs() {
        eprintln!("repro: {message}");
        return ExitCode::from(2);
    }
    if let Err(e) = repro::install_exec(&options) {
        eprintln!("repro: setting up the result cache: {e}");
        return ExitCode::from(2);
    }

    println!("# SDA reproduction report (scale: {})\n", options.scale);
    let mut claims_fail = false;
    let mut tables = Vec::new();
    for (name, artifact) in repro::render(options.scale, &options.only) {
        let plot = match &artifact {
            Artifact::Figure(figure, x_label) if options.plot => Some(figure.plot(name, x_label)),
            Artifact::Claims(results) => {
                let held = results.iter().filter(|r| r.pass).count();
                eprintln!("{held} / {} claims hold at this scale", results.len());
                claims_fail = held < results.len();
                None
            }
            _ => None,
        };
        let table = artifact.into_table();
        println!("{table}");
        if let Some(plot) = plot {
            println!("{plot}");
        }
        tables.push((name, table));
    }
    if let Some(dir) = &options.out {
        if let Err(message) = repro::write_csvs(dir, &tables) {
            eprintln!("repro: {message}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} CSV files to {}", tables.len(), dir.display());
    }
    if let Some(summary) = repro::cache_summary() {
        eprintln!("{summary}");
    }
    if claims_fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

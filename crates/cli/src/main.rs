//! The `sda` command-line tool.
//!
//! ```text
//! sda run [CONFIG] [key=value ...] [OPTIONS]
//!     Run a simulation and print a report. CONFIG is an optional
//!     config file (see `sda help config`); key=value pairs override it.
//!
//! sda compare [CONFIG] STRATEGY [STRATEGY ...] [OPTIONS]
//!     Run the same workload under several strategies (common random
//!     numbers) and print a side-by-side miss-rate table.
//!
//! sda sweep key=LO..HI:STEP [CONFIG] [key=value ...] [OPTIONS]
//!     Run one point per value of `key` and print a miss-rate row each.
//!
//! Options (run/compare/sweep): --seed N, --reps N, --jobs N (worker
//! threads, 0 = auto), --ci-target R (adaptive stopping on the 95% CI
//! width ratio; --reps becomes the floor, --max-reps the cap),
//! --stats-out PATH (write per-metric statistics as stats.json),
//! --throughput, and --cache-dir DIR (memoize completed points on disk).
//! `run` additionally takes --trace-out PATH: write replication 0's
//! structured event trace as JSONL, byte-identical at any --jobs level.
//!
//! sda decompose SPEC DEADLINE STRATEGY [--pex P1,P2,...]
//!     Decompose an end-to-end deadline over a serial-parallel task
//!     graph (bracket notation) and print each stage's virtual deadline.
//!
//! sda repro [--scale quick|default|paper] [--only NAME[,NAME...]]
//!           [--plot] [--out DIR] [--jobs N] [--cache-dir DIR]
//!     Reproduce the paper's tables, figures and claims (or the ones
//!     --only names). --plot draws each figure as an ASCII chart, --out
//!     writes DIR/<name>.csv per artifact. Exits 1 if a claim fails.
//!
//! sda help [config]
//! ```
//!
//! Each command accepts only its own flags. Worker threads come from
//! `--jobs N`, else the `SDA_JOBS` environment variable, else all cores.
//! Usage errors print `error: …` and exit 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use sda_cli::{apply_setting, load_config, parse_strategy, render_report};
use sda_core::Decomposition;
use sda_experiments::repro::{self, Artifact, REGISTRY};
use sda_experiments::run::{self, Exec};
use sda_experiments::Scale;
use sda_model::parse_spec;
use sda_sim::trace::{JsonlSink, SharedSink};
use sda_sim::{MultiRun, PointCache, Runner, SimConfig, StopRule, Sweep, SweepPoint};
use sda_simcore::SimTime;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            // Every error path here names a flag, key, or argument.
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        print_help(None);
        return Ok(ExitCode::SUCCESS);
    };
    if command == "help" {
        print_help(rest.first().map(String::as_str));
        return Ok(ExitCode::SUCCESS);
    }
    let (positional, opts) = parse(command, rest)?;
    match command.as_str() {
        "run" => cmd_run(&positional, &opts)?,
        "compare" => cmd_compare(&positional, &opts)?,
        "sweep" => cmd_sweep(&positional, &opts)?,
        "decompose" => cmd_decompose(&positional, &opts)?,
        "repro" => return cmd_repro(&opts),
        _ => unreachable!("parse rejects unknown commands"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The flags each command accepts; `None` for an unknown command.
fn flags(command: &str) -> Option<&'static [&'static str]> {
    const SIMULATE: [&str; 9] = [
        "--seed",
        "--reps",
        "--jobs",
        "--cache-dir",
        "--ci-target",
        "--max-reps",
        "--stats-out",
        "--throughput",
        "--trace-out",
    ];
    Some(match command {
        "run" => &SIMULATE,
        "compare" | "sweep" => &SIMULATE[..8],
        "decompose" => &["--pex"],
        "repro" => &[
            "--jobs",
            "--cache-dir",
            "--scale",
            "--only",
            "--plot",
            "--out",
        ],
        _ => return None,
    })
}

/// Every command's options; each command reads the fields of the flags
/// it accepts.
#[derive(Debug, Clone)]
struct Options {
    /// Base seed of the derived replication-seed stream.
    seed: u64,
    /// Replications per point (the floor when `--ci-target` is set).
    reps: usize,
    /// `--jobs N`, if given; see [`Options::jobs`].
    jobs: Option<usize>,
    /// On-disk result cache directory; completed points are memoized
    /// there and replayed on later invocations.
    cache_dir: Option<PathBuf>,
    /// Adaptive stopping: target 95% CI width ratio.
    ci_target: Option<f64>,
    /// Replication cap under `--ci-target`.
    max_reps: usize,
    /// Where to write the per-metric `stats.json`, if anywhere.
    stats_out: Option<String>,
    /// Include the (nondeterministic) `events_per_sec` entry in
    /// `stats.json`.
    throughput: bool,
    /// Where to write the replication-0 JSONL trace, if anywhere.
    trace_out: Option<String>,
    /// `decompose`'s predicted execution times, comma-separated.
    pex: Option<String>,
    /// `repro`'s experiment scale.
    scale: Scale,
    /// The artifacts `repro` renders, in registry order without repeats;
    /// empty renders every artifact.
    only: Vec<&'static str>,
    /// Print an ASCII chart after each figure.
    plot: bool,
    /// Directory `repro` writes per-artifact CSVs into.
    out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            seed: 42,
            reps: 2,
            jobs: None,
            cache_dir: None,
            ci_target: None,
            max_reps: 64,
            stats_out: None,
            throughput: false,
            trace_out: None,
            pex: None,
            scale: Scale::Default,
            only: Vec::new(),
            plot: false,
            out: None,
        }
    }
}

/// Parses a flag's value, naming the flag on failure.
fn value<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad {flag} value {text:?}"))
}

/// Parses a count that must be at least 1.
fn count(flag: &str, text: &str) -> Result<usize, String> {
    match value(flag, text)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// The one option scanner: splits `command`'s arguments into positional
/// arguments and [`Options`], rejecting any flag `command` does not take.
fn parse<'a>(command: &str, args: &'a [String]) -> Result<(Vec<&'a String>, Options), String> {
    let accepted =
        flags(command).ok_or_else(|| format!("unknown command {command:?} (try `sda help`)"))?;
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut only = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            if command == "repro" {
                // A bare scale name is shorthand for `--scale` (`sda repro
                // quick`); like the flag, the last one given wins.
                opts.scale =
                    Scale::parse(flag).map_err(|_| format!("unrecognized argument {flag:?}"))?;
            } else {
                positional.push(arg);
            }
            continue;
        }
        if !accepted.contains(&flag) {
            return Err(format!("`sda {command}` does not take {flag}"));
        }
        match flag {
            "--throughput" => opts.throughput = true,
            "--plot" => opts.plot = true,
            _ => {
                let v = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--seed" => opts.seed = value(flag, v)?,
                    "--reps" => opts.reps = count(flag, v)?,
                    "--jobs" => opts.jobs = Some(value(flag, v)?),
                    "--cache-dir" => opts.cache_dir = Some(PathBuf::from(v)),
                    "--ci-target" => match value(flag, v)? {
                        target if target > 0.0 => opts.ci_target = Some(target),
                        _ => return Err(format!("{flag} must be positive")),
                    },
                    "--max-reps" => opts.max_reps = count(flag, v)?,
                    "--stats-out" => opts.stats_out = Some(v.clone()),
                    "--trace-out" => opts.trace_out = Some(v.clone()),
                    "--pex" => opts.pex = Some(v.clone()),
                    "--scale" => opts.scale = Scale::parse(v)?,
                    "--only" => {
                        for name in v.split(',') {
                            if !REGISTRY.iter().any(|(known, _)| *known == name) {
                                return Err(format!(
                                    "--only: unknown artifact {name:?} (artifacts: {})",
                                    artifact_names()
                                ));
                            }
                            only.push(name);
                        }
                    }
                    "--out" => opts.out = Some(PathBuf::from(v)),
                    _ => unreachable!("{flag} is accepted but not parsed"),
                }
            }
        }
    }
    opts.only = REGISTRY
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| only.contains(name))
        .collect();
    Ok((positional, opts))
}

/// Every artifact name `sda repro --only` accepts, in report order.
fn artifact_names() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    names.join(", ")
}

/// Worker threads: `flag` (`--jobs N`), else `env` (`SDA_JOBS`), which
/// is 0 (all cores) when unset. A malformed `SDA_JOBS` is an error even
/// under `--jobs`.
fn workers(flag: Option<usize>, env: Result<usize, String>) -> Result<usize, String> {
    let env = env?;
    Ok(flag.unwrap_or(env))
}

impl Options {
    /// The worker count: see [`workers`]. Checked before anything
    /// simulates, because the experiment harness panics on a malformed
    /// `SDA_JOBS`.
    fn jobs(&self) -> Result<usize, String> {
        workers(self.jobs, run::env_jobs())
    }

    /// The stop rule: adaptive under `--ci-target`, fixed otherwise.
    fn stop(&self) -> StopRule {
        match self.ci_target {
            Some(target) => StopRule::CiWidth(target),
            None => StopRule::FixedReps(self.reps),
        }
    }

    /// Runs `cfgs` as the points of one sweep, with the cache dir (if
    /// any) attached, and returns their results in order.
    fn execute_all(&self, cfgs: Vec<SimConfig>) -> Result<Vec<MultiRun>, String> {
        let stop = self.stop();
        let mut sweep = Sweep::new()
            .points(
                cfgs.into_iter()
                    .map(|cfg| SweepPoint::new(cfg, self.seed).stop(stop)),
            )
            .jobs(self.jobs()?)
            .min_reps(self.reps.max(2))
            .max_reps(self.max_reps);
        let cache = self
            .cache_dir
            .as_ref()
            .map(|dir| {
                PointCache::with_dir(dir)
                    .map(Arc::new)
                    .map_err(|e| format!("cannot open cache dir {dir:?}: {e}"))
            })
            .transpose()?;
        if let Some(cache) = &cache {
            sweep = sweep.cache(Arc::clone(cache));
        }
        let results = sweep.execute().map_err(|e| e.to_string())?;
        if let Some(cache) = &cache {
            eprintln!("{}", cache.report());
        }
        Ok(results)
    }

    /// Runs `cfg` under these options. Tracing needs the live event
    /// stream, so a traced run always simulates, through a [`Runner`]
    /// whose trace records replication 0 only (its bytes are independent
    /// of `--jobs`); otherwise the cache dir (if any) answers first.
    fn execute(&self, cfg: &SimConfig) -> Result<MultiRun, String> {
        let Some(path) = &self.trace_out else {
            let mut results = self.execute_all(vec![cfg.clone()])?;
            return Ok(results.pop().expect("one point in, one out"));
        };
        let jobs = self.jobs()?;
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
        let sink = JsonlSink::new(std::io::BufWriter::new(file));
        let multi = Runner::new(cfg.clone())
            .seed(self.seed)
            .jobs(jobs)
            .stop(self.stop())
            .min_reps(self.reps.max(2))
            .max_reps(self.max_reps)
            .trace(SharedSink::new(Box::new(sink)))
            .execute()
            .map_err(|e| e.to_string())?;
        eprintln!("trace written to {path}");
        Ok(multi)
    }

    /// The run point's `stats.json` document: deterministic by default,
    /// with the wall-clock `events_per_sec` entry under `--throughput`.
    fn stats_json(&self, multi: &MultiRun) -> String {
        if self.throughput {
            multi.stats_with_throughput().to_json()
        } else {
            multi.stats().to_json()
        }
    }
}

/// Writes a `stats.json` document, reporting where it went.
fn write_stats(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("cannot write stats to {path:?}: {e}"))?;
    eprintln!("stats written to {path}");
    Ok(())
}

/// Builds a configuration from an optional leading config-file path and
/// `key=value` overrides.
fn build_config<'a>(positional: &[&'a String]) -> Result<(SimConfig, Vec<&'a String>), String> {
    let mut cfg = SimConfig::baseline();
    let mut rest = positional;
    if let Some(first) = positional.first() {
        if !first.contains('=') && Path::new(first).exists() {
            cfg = load_config(Path::new(first)).map_err(|e| e.to_string())?;
            rest = &positional[1..];
        }
    }
    let mut leftovers = Vec::new();
    for arg in rest {
        if let Some((key, value)) = arg.split_once('=') {
            apply_setting(&mut cfg, key, value).map_err(|e| e.to_string())?;
        } else {
            leftovers.push(*arg);
        }
    }
    Ok((cfg, leftovers))
}

fn cmd_run(positional: &[&String], opts: &Options) -> Result<(), String> {
    let (cfg, leftovers) = build_config(positional)?;
    if let Some(extra) = leftovers.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    cfg.validate().map_err(|e| e.to_string())?;
    let multi = opts.execute(&cfg)?;
    print!("{}", render_report(&cfg, &multi));
    if let Some(path) = &opts.stats_out {
        write_stats(path, &opts.stats_json(&multi))?;
    }
    Ok(())
}

fn cmd_compare(positional: &[&String], opts: &Options) -> Result<(), String> {
    let (base, strategy_args) = build_config(positional)?;
    if strategy_args.is_empty() {
        return Err("compare needs at least one strategy label (e.g. UD-UD EQF-DIV1)".into());
    }
    base.validate().map_err(|e| e.to_string())?;
    let points = strategy_args
        .into_iter()
        .map(|label| {
            let strategy = parse_strategy(label)?;
            let name = strategy.label().into_owned();
            Ok((
                format!("{name:<12}"),
                name,
                base.clone().with_strategy(strategy),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    run_table(opts, format!("{:<12}", "strategy"), points)
}

/// Runs labelled points `(row label, stats key, config)` as one sweep,
/// then prints a miss-rate row per point under `header` and writes the
/// keyed `stats.json`, if asked.
fn run_table(
    opts: &Options,
    header: String,
    points: Vec<(String, String, SimConfig)>,
) -> Result<(), String> {
    let (labels, cfgs): (Vec<_>, Vec<_>) = points
        .into_iter()
        .map(|(label, key, cfg)| ((label, key), cfg))
        .unzip();
    let results = opts.execute_all(cfgs)?;
    println!(
        "{header} {:>16} {:>16} {:>16}",
        "MD_local", "MD_global", "missed work"
    );
    let mut stats_entries = Vec::new();
    for ((label, key), multi) in labels.into_iter().zip(results) {
        println!(
            "{label} {:>16} {:>16} {:>16}",
            multi.md_local().to_string(),
            multi.md_global().to_string(),
            multi.missed_work().to_string(),
        );
        if opts.stats_out.is_some() {
            stats_entries.push((key, opts.stats_json(&multi)));
        }
    }
    if let Some(path) = &opts.stats_out {
        write_stats(path, &keyed_stats(&stats_entries))?;
    }
    Ok(())
}

/// Renders labelled run-point records as one JSON object (the
/// `compare`/`sweep` form of `stats.json`).
fn keyed_stats(entries: &[(String, String)]) -> String {
    let mut out = String::from("{\n");
    for (i, (label, json)) in entries.iter().enumerate() {
        let indented = json.replace('\n', "\n  ");
        out.push_str(&format!("  {label:?}: {indented}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

/// Decimal places a number is written with: 1 for `0.2`, 3 for `25e-4`.
fn decimals(text: &str) -> usize {
    let (mantissa, exponent) = text.split_once(['e', 'E']).unwrap_or((text, "0"));
    let places = mantissa.split_once('.').map_or(0, |(_, frac)| frac.len()) as i64;
    (places - exponent.parse::<i64>().unwrap_or(0)).max(0) as usize
}

/// Parses a sweep spec `key=LO..HI:STEP` into (key, values). Value `i` is
/// `LO + i·STEP` rounded to the decimal places written in LO and STEP, so
/// `0.1..0.9:0.2` yields exactly the f64s `0.1, 0.3, 0.5, 0.7, 0.9`.
fn parse_sweep_spec(text: &str) -> Result<(String, Vec<f64>), String> {
    let (key, range) = text
        .split_once('=')
        .ok_or_else(|| format!("sweep spec {text:?} must look like key=LO..HI:STEP"))?;
    let (span, step_text) = range
        .split_once(':')
        .ok_or_else(|| format!("sweep range {range:?} must look like LO..HI:STEP"))?;
    let (lo_text, hi) = span
        .split_once("..")
        .ok_or_else(|| format!("sweep span {span:?} must look like LO..HI"))?;
    let (lo_text, step_text) = (lo_text.trim(), step_text.trim());
    let lo: f64 = lo_text.parse().map_err(|_| format!("bad LO {lo_text:?}"))?;
    let hi: f64 = hi.trim().parse().map_err(|_| format!("bad HI {hi:?}"))?;
    let step: f64 = step_text
        .parse()
        .map_err(|_| format!("bad STEP {step_text:?}"))?;
    if !(step > 0.0 && hi >= lo) {
        return Err(format!("invalid sweep [{lo}, {hi}] step {step}"));
    }
    let places = decimals(lo_text).max(decimals(step_text));
    let values = (0..)
        .map(|i| {
            let v = lo + f64::from(i) * step;
            format!("{v:.places$}")
                .parse::<f64>()
                .expect("formatted f64")
        })
        .take_while(|v| *v <= hi + 1e-9)
        .collect();
    Ok((key.trim().to_string(), values))
}

fn cmd_sweep(positional: &[&String], opts: &Options) -> Result<(), String> {
    let Some((&spec_arg, rest)) = positional.split_first() else {
        return Err("usage: sda sweep key=LO..HI:STEP [CONFIG] [key=value ...]".into());
    };
    let (key, values) = parse_sweep_spec(spec_arg)?;
    let (base, leftovers) = build_config(rest)?;
    if let Some(extra) = leftovers.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let points = values
        .iter()
        .map(|value| {
            let mut cfg = base.clone();
            apply_setting(&mut cfg, &key, &format!("{value}")).map_err(|e| e.to_string())?;
            cfg.validate().map_err(|e| e.to_string())?;
            Ok((format!("{value:<10.3}"), format!("{key}={value}"), cfg))
        })
        .collect::<Result<Vec<_>, String>>()?;
    run_table(opts, format!("{key:<10}"), points)
}

fn cmd_decompose(positional: &[&String], opts: &Options) -> Result<(), String> {
    let [spec_text, deadline_text, strategy_text] = positional else {
        return Err("usage: sda decompose SPEC DEADLINE STRATEGY [--pex P1,P2,...]".into());
    };
    let spec = parse_spec(spec_text).map_err(|e| e.to_string())?;
    let deadline: f64 = deadline_text
        .parse()
        .map_err(|_| format!("bad deadline {deadline_text:?}"))?;
    let strategy = parse_strategy(strategy_text)?;
    let leaves = spec.simple_count();
    let pex: Vec<f64> = match &opts.pex {
        Some(text) => {
            let parsed: Result<Vec<f64>, _> =
                text.split(',').map(|p| p.trim().parse::<f64>()).collect();
            let parsed = parsed.map_err(|_| format!("bad pex list {text:?}"))?;
            if parsed.len() != leaves {
                return Err(format!(
                    "pex list has {} entries, the graph has {leaves} subtasks",
                    parsed.len()
                ));
            }
            parsed
        }
        None => vec![1.0; leaves],
    };

    println!("task graph: {spec}");
    println!("strategy:   {strategy}, end-to-end deadline {deadline}\n");
    let mut decomp = Decomposition::new(&spec, pex.clone());
    let mut pending = decomp.start(SimTime::ZERO, SimTime::from(deadline), &strategy);
    let mut now = 0.0f64;
    while !pending.is_empty() {
        pending.sort_by_key(|r| r.leaf);
        for r in &pending {
            println!(
                "t = {now:7.3}   T{} released, virtual deadline {:.3}",
                r.leaf + 1,
                r.deadline.value()
            );
        }
        let batch = std::mem::take(&mut pending);
        let finish = now + batch.iter().map(|r| pex[r.leaf]).fold(0.0, f64::max);
        for r in batch {
            pending.extend(decomp.complete_leaf(r.leaf, SimTime::from(finish), &strategy));
        }
        now = finish;
    }
    println!("t = {now:7.3}   complete (assuming each subtask runs exactly its pex)");
    Ok(())
}

/// Renders the selected artifacts to stdout (and CSVs under `--out`),
/// reports the cache on stderr, and exits 1 if a rendered claim fails.
fn cmd_repro(opts: &Options) -> Result<ExitCode, String> {
    let jobs = opts.jobs()?;
    let exec = match &opts.cache_dir {
        Some(dir) => {
            Exec::sweep_with_dir(dir).map_err(|e| format!("cannot open cache dir {dir:?}: {e}"))?
        }
        None => Exec::sweep(),
    }
    .with_jobs(jobs);

    println!("# SDA reproduction report (scale: {})\n", opts.scale);
    let mut claims_fail = false;
    let tables = run::with_exec(exec.clone(), || {
        repro::render(opts.scale, &opts.only)
            .map(|(name, artifact)| {
                let plot = match &artifact {
                    Artifact::Figure(figure, x_label) if opts.plot => {
                        Some(figure.plot(name, x_label))
                    }
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
                (name, table)
            })
            .collect::<Vec<_>>()
    });
    if let Some(dir) = &opts.out {
        repro::write_csvs(dir, &tables)?;
        eprintln!("wrote {} CSV files to {}", tables.len(), dir.display());
    }
    if let Some(report) = exec.cache_report() {
        eprintln!("{report}");
    }
    Ok(if claims_fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn print_help(topic: Option<&str>) {
    if topic == Some("config") {
        println!(
            "config file format: one `key = value` per line, `#` comments.\n\
             keys:\n\
             \x20 nodes, load, frac_local, mu_local, mu_subtask, duration, warmup\n\
             \x20 slack = LO..HI            local slack distribution\n\
             \x20 global_slack = LO..HI\n\
             \x20 shape = parallel:N | uniform:LO-HI | spec:[...] | figure14\n\
             \x20 strategy = SSP-PSP        e.g. UD-UD, UD-DIV1, EQF-DIV1, ED-GF\n\
             \x20 scheduler = edf|fcfs|sjf|llf\n\
             \x20 preemptive = true|false\n\
             \x20 speeds = S1,S2,...        per-node speed factors\n\
             \x20 service_shape = exponential|deterministic|uniform\n\
             \x20 placement = random|least-loaded\n\
             \x20 burst = none|PERIOD,ON_FRACTION,BOOST  (ON/OFF arrival bursts)\n\
             \x20 abort = none|pm|local|local-drop\n\
             \x20 estimation = exact|factor:F|bias:F|mean:M\n\
             fault injection (all off by default; see also `sda repro --only f1_faults`):\n\
             \x20 fault_mttf = T            mean time to node failure (0 = never)\n\
             \x20 fault_mttr = T            mean time to repair\n\
             \x20 fault_crash = abort|requeue   fate of work on a crashed node\n\
             \x20 fault_straggler = PROB,FACTOR  inflate service times by FACTOR\n\
             \x20 fault_comm = PROB,MEAN    delay serial hand-offs by Exp(MEAN)"
        );
        return;
    }
    println!(
        "sda — subtask deadline assignment simulator (Kao & Garcia-Molina, ICDCS 1994)\n\n\
         usage:\n\
         \x20 sda run [CONFIG] [key=value ...] [OPTIONS]\n\
         \x20 sda compare [CONFIG] [key=value ...] STRATEGY... [OPTIONS]\n\
         \x20 sda sweep key=LO..HI:STEP [CONFIG] [key=value ...] [OPTIONS]\n\
         \x20 sda decompose SPEC DEADLINE STRATEGY [--pex P1,P2,...]\n\
         \x20 sda repro [--scale quick|default|paper] [--only NAME[,NAME...]] [--plot]\n\
         \x20           [--out DIR] [--jobs N] [--cache-dir D]\n\
         \x20 sda help [config]\n\n\
         options (run/compare/sweep):\n\
         \x20 --seed N       base seed of the replication stream (default 42)\n\
         \x20 --reps N       replications per point (default 2; the floor with --ci-target)\n\
         \x20 --jobs N       worker threads (default $SDA_JOBS, else 0 = all cores)\n\
         \x20 --ci-target R  add replications until each MD metric's 95% CI\n\
         \x20                width ratio is <= R (capped by --max-reps)\n\
         \x20 --max-reps N   replication cap under --ci-target (default 64)\n\
         \x20 --stats-out F  write per-metric statistics to F as stats.json\n\
         \x20 --throughput   add the wall-clock events_per_sec entry to\n\
         \x20                stats.json (nondeterministic; off by default)\n\
         \x20 --trace-out F  (run only) write replication 0's event trace to F\n\
         \x20                as JSONL; the bytes do not depend on --jobs\n\
         \x20 --cache-dir D  memoize completed points in D and replay them on\n\
         \x20                later invocations (bypassed when --trace-out is set;\n\
         \x20                without it nothing is read from or written to disk)\n\n\
         options (repro; also --jobs and --cache-dir as above):\n\
         \x20 --scale S      quick, default (the default) or paper; a bare S works too\n\
         \x20 --only NAMES   render only these comma-separated artifacts\n\
         \x20 --plot         follow each figure with an ASCII chart\n\
         \x20 --out DIR      also write each artifact to DIR/<name>.csv\n\
         \x20 artifacts: {}\n\n\
         examples:\n\
         \x20 sda run load=0.7 strategy=UD-DIV1 --jobs 8 --stats-out stats.json\n\
         \x20 sda run load=0.7 duration=2000 --trace-out trace.jsonl\n\
         \x20 sda compare load=0.5 UD-UD UD-DIV1 UD-GF EQF-DIV1\n\
         \x20 sda sweep load=0.1..0.9:0.2 strategy=UD-GF --ci-target 0.1\n\
         \x20 sda decompose \"[a [b || c] d]\" 12 EQF-DIV1 --pex 1,2,2,1\n\
         \x20 sda repro --scale quick --only fig7,claims --plot",
        artifact_names()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parses `args` as `command`'s arguments.
    fn parse_as(command: &str, args: &[&str]) -> Result<(usize, Options), String> {
        let args = strings(args);
        parse(command, &args).map(|(positional, opts)| (positional.len(), opts))
    }

    #[test]
    fn parse_extracts_seed_and_reps() {
        let (positional, opts) = parse_as(
            "compare",
            &["load=0.5", "--seed", "7", "UD-UD", "--reps", "3"],
        )
        .unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.reps, 3);
        assert_eq!(positional, 2);
    }

    #[test]
    fn parse_defaults() {
        let (positional, opts) = parse_as("run", &[]).unwrap();
        assert_eq!(positional, 0);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.reps, 2);
        assert_eq!(opts.jobs, None);
        assert_eq!(opts.cache_dir, None);
        assert_eq!(opts.ci_target, None);
        assert_eq!(opts.max_reps, 64);
        assert_eq!(opts.stats_out, None);
        assert_eq!(opts.trace_out, None);
        assert!(!opts.throughput, "deterministic stats.json by default");
        assert!(parse_as("run", &["--seed"]).is_err());
        assert!(parse_as("run", &["--reps", "0"]).is_err());
    }

    #[test]
    fn parse_run_flags() {
        let (positional, opts) = parse_as(
            "run",
            &[
                "--jobs",
                "4",
                "--ci-target",
                "0.1",
                "--max-reps",
                "16",
                "--stats-out",
                "out.json",
                "--trace-out",
                "trace.jsonl",
                "--cache-dir",
                "pts",
                "--throughput",
            ],
        )
        .unwrap();
        assert_eq!(positional, 0);
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.ci_target, Some(0.1));
        assert_eq!(opts.max_reps, 16);
        assert_eq!(opts.stats_out.as_deref(), Some("out.json"));
        assert_eq!(opts.trace_out.as_deref(), Some("trace.jsonl"));
        assert_eq!(opts.cache_dir.as_deref(), Some(Path::new("pts")));
        assert!(opts.throughput);
        for bad in [
            &["--ci-target", "-1"][..],
            &["--max-reps", "0"],
            &["--jobs", "two"],
            &["--stats-out"],
            &["--trace-out"],
            &["--cache-dir"],
        ] {
            assert!(parse_as("run", bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_repro_flags() {
        let (positional, opts) = parse_as(
            "repro",
            &[
                "--scale",
                "quick",
                "--only",
                "fig5",
                "--plot",
                "--out",
                "report",
                "--cache-dir",
                "cache",
                "--jobs",
                "3",
            ],
        )
        .unwrap();
        assert_eq!(positional, 0);
        assert_eq!(opts.scale, Scale::Quick);
        assert_eq!(opts.only, ["fig5"]);
        assert!(opts.plot);
        assert_eq!(opts.out.as_deref(), Some(Path::new("report")));
        assert_eq!(opts.cache_dir.as_deref(), Some(Path::new("cache")));
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(parse_as("repro", &[]).unwrap().1.scale, Scale::Default);
        assert_eq!(parse_as("repro", &["paper"]).unwrap().1.scale, Scale::Paper);
        // The last scale given wins, bare name or `--scale`.
        for (argv, scale) in [
            (&["quick", "--scale", "paper"][..], Scale::Paper),
            (&["--scale", "paper", "quick"], Scale::Quick),
            (&["paper", "quick"], Scale::Quick),
        ] {
            let (positional, opts) = parse_as("repro", argv).unwrap();
            assert_eq!((positional, opts.scale), (0, scale), "{argv:?}");
        }

        // `--only` lists come back in registry order without repeats.
        for (argv, only) in [
            (&[][..], vec![]),
            (
                &["--only", "claims,fig6,table1"],
                vec!["table1", "fig6", "claims"],
            ),
            (&["--only", "fig5,fig5"], vec!["fig5"]),
            (
                &["--only", "e2_slack", "--only", "fig5"],
                vec!["fig5", "e2_slack"],
            ),
        ] {
            assert_eq!(parse_as("repro", argv).unwrap().1.only, only, "{argv:?}");
        }
    }

    #[test]
    fn parse_errors_name_the_flag() {
        for (command, argv, needle) in [
            ("repro", &["--out"][..], "--out"),
            ("repro", &["--scale"], "--scale"),
            ("repro", &["--cache-dir"], "--cache-dir"),
            ("repro", &["--only"], "--only"),
            ("repro", &["--only", "fig5,nope"], "\"nope\""),
            ("repro", &["--scale", "galactic"], "galactic"),
            ("repro", &["galactic"], "unrecognized argument \"galactic\""),
            ("repro", &["--frobnicate"], "--frobnicate"),
            ("repro", &["--csv"], "--csv"),
            ("repro", &["--seed", "5"], "--seed"),
            ("repro", &["--no-cache"], "--no-cache"),
            ("run", &["--no-cache"], "--no-cache"),
            ("run", &["--scale", "quick"], "--scale"),
            ("compare", &["--trace-out", "t.jsonl"], "--trace-out"),
            ("sweep", &["--trace-out", "t.jsonl"], "--trace-out"),
            ("decompose", &["--jobs", "2"], "--jobs"),
            ("decompose", &["--seed", "5"], "--seed"),
            ("decompose", &["--pex"], "--pex"),
        ] {
            let err = parse_as(command, argv).unwrap_err();
            assert!(err.contains(needle), "{command} {argv:?}: {err:?}");
        }
        let err = parse_as("frobnicate", &[]).unwrap_err();
        assert!(err.contains("unknown command"), "{err:?}");
    }

    #[test]
    fn jobs_flag_overrides_sda_jobs_which_overrides_auto() {
        assert_eq!(workers(None, Ok(0)), Ok(0));
        assert_eq!(workers(None, Ok(3)), Ok(3));
        assert_eq!(workers(Some(2), Ok(3)), Ok(2));
        assert_eq!(workers(Some(0), Ok(3)), Ok(0));
        let bad = || Err(r#"SDA_JOBS: invalid value "abc""#.to_string());
        assert_eq!(workers(None, bad()), bad());
        assert_eq!(workers(Some(2), bad()), bad(), "checked even under --jobs");
    }

    #[test]
    fn cached_run_matches_a_fresh_one() {
        let dir = std::env::temp_dir().join(format!("sda-cli-cache-{}", std::process::id()));
        let cfg = SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        };
        let fresh = Options {
            jobs: Some(1),
            ..Options::default()
        };
        let cached = Options {
            cache_dir: Some(dir.clone()),
            ..fresh.clone()
        };
        let want = fresh.execute(&cfg).unwrap().stats().to_json();
        let cold = cached.execute(&cfg).unwrap().stats().to_json();
        let warm = cached.execute(&cfg).unwrap().stats().to_json();
        assert_eq!(want, cold);
        assert_eq!(want, warm);
        // A whole command's points in one sweep, adaptive and with a
        // duplicate, match per-point runs, cold and replayed.
        let cfgs = vec![cfg.clone(), cfg.clone().with_load(0.7), cfg];
        let adaptive = Options {
            ci_target: Some(0.2),
            max_reps: 8,
            ..fresh.clone()
        };
        let want: Vec<String> = cfgs
            .iter()
            .map(|cfg| adaptive.execute(cfg).unwrap().stats().to_json())
            .collect();
        let batched = Options {
            jobs: Some(2),
            ..adaptive.clone()
        };
        for cache_dir in [None, cached.cache_dir.clone(), cached.cache_dir.clone()] {
            let opts = Options {
                cache_dir,
                ..batched.clone()
            };
            let got: Vec<String> = opts
                .execute_all(cfgs.clone())
                .unwrap()
                .iter()
                .map(|multi| multi.stats().to_json())
                .collect();
            assert_eq!(want, got);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keyed_stats_nests_run_points() {
        let entries = vec![
            ("UD-UD".to_string(), "{}".to_string()),
            ("UD-DIV1".to_string(), "{}".to_string()),
        ];
        let json = keyed_stats(&entries);
        assert!(json.contains("\"UD-UD\": {}"));
        assert!(json.contains("\"UD-DIV1\": {}"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn run_options_execute_honors_ci_target() {
        let cfg = SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        };
        let opts = Options {
            seed: 1,
            jobs: Some(2),
            ci_target: Some(100.0),
            max_reps: 8,
            ..Options::default()
        };
        let multi = opts.execute(&cfg).unwrap();
        assert_eq!(multi.runs().len(), 2, "loose target stops at the floor");
    }

    #[test]
    fn build_config_applies_overrides() {
        let args = strings(&["load=0.7", "strategy=UD-GF", "leftover"]);
        let refs: Vec<&String> = args.iter().collect();
        let (cfg, leftovers) = build_config(&refs).unwrap();
        assert_eq!(cfg.load, 0.7);
        assert_eq!(cfg.strategy.psp.label(), "GF");
        assert_eq!(leftovers.len(), 1);
        assert_eq!(leftovers[0], "leftover");
    }

    #[test]
    fn sweep_spec_parses() {
        let (key, values) = parse_sweep_spec("load=0.1..0.5:0.2").unwrap();
        assert_eq!(key, "load");
        assert_eq!(values.len(), 3);
        assert!((values[0] - 0.1).abs() < 1e-12);
        assert!((values[2] - 0.5).abs() < 1e-12);
        // Exactly the values written, not the sums `v += step` drifts to
        // (0.30000000000000004, 0.8999999999999999).
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (_, values) = parse_sweep_spec("load=0.1..0.9:0.2").unwrap();
        assert_eq!(bits(&values), bits(&[0.1, 0.3, 0.5, 0.7, 0.9]));
        // The end stays inclusive within 1e-9.
        let (_, values) = parse_sweep_spec("load=0.1..0.7:0.1").unwrap();
        assert_eq!(
            bits(&values),
            bits(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
            "{values:?}"
        );
        let (_, values) = parse_sweep_spec("x=1..2:25e-2").unwrap();
        assert_eq!(bits(&values), bits(&[1.0, 1.25, 1.5, 1.75, 2.0]));
        let (_, values) = parse_sweep_spec("nodes=2..8:2").unwrap();
        assert_eq!(values, [2.0, 4.0, 6.0, 8.0]);
        assert!(parse_sweep_spec("load=0.1..0.5").is_err());
        assert!(parse_sweep_spec("load").is_err());
        assert!(parse_sweep_spec("load=0.5..0.1:0.1").is_err());
        assert!(parse_sweep_spec("load=0.1..0.5:0").is_err());
    }
}

//! The four workloads, each in a timed form (tracing off, end-to-end
//! metrics) and a traced form (instruments attached, per-layer
//! metrics).
//!
//! Every workload is chosen so that one simulator mechanism does most
//! of the work on it and little on another workload (see README.md):
//!
//! * `fig5_6node` — the paper's Figure-5 model; the per-event hot path.
//! * `nodes_600` — the same per-node load on 600 nodes; the per-event
//!   bookkeeping that grows with the node count.
//! * `pipeline_overload_ci` — the Figure-14 pipeline under overload,
//!   process-manager aborts and faults, run by `Runner` to a CI target.
//! * `repro_quick` — the quick reproduction campaign, cold then warm.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sda_core::SdaStrategy;
use sda_experiments::run::{with_exec, Exec, CAMPAIGN_SEED};
use sda_experiments::{
    ablations, checkpoints, claims, extensions, faults, figures, repro, tables, Scale, Table,
};
use sda_sim::cache::{canonical_point, parse_multi_run, point_key_of};
use sda_sim::{
    AbortPolicy, CrashPolicy, Ev, FaultConfig, MultiRun, RunResult, Runner, SimConfig, Simulation,
    StopRule,
};
use sda_simcore::rng::derive_seed;
use sda_simcore::{Engine, SimTime};

use crate::digest::{fnv1a, Digest, References};
use crate::probe::{HandleStats, Probe, TimingSink, KINDS};
use crate::replay::{Replay, ReplayStats};
use crate::report::{median, nproc, peak_rss_mib, quantile, spread, Metric};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "fig5_6node",
    "nodes_600",
    "pipeline_overload_ci",
    "repro_quick",
];

/// End-to-end metrics with their units: every timed run reports each.
pub const END_TO_END: [(&str, &str); 3] = [
    ("events_per_sec", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Event kinds whose per-event timings go into the per-layer result;
/// they occur on every workload. The rarer kinds are in the printed
/// table only.
const TIMED_KINDS: usize = 3;

/// Per-layer metrics with their units: every traced run reports each.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = vec![
        ("simcore.engine.self_ns_per_event".to_string(), "ns"),
        ("simcore.event.pending_mean".to_string(), "count"),
        ("simcore.event.pending_max".to_string(), "count"),
        ("sim.handle.ns_per_event".to_string(), "ns"),
    ];
    for kind in KINDS {
        out.push((format!("sim.handle.{kind}.count"), "count"));
    }
    for kind in &KINDS[..TIMED_KINDS] {
        out.push((format!("sim.handle.{kind}.ns_p50"), "ns"));
        out.push((format!("sim.handle.{kind}.ns_ptail"), "ns"));
        out.push((format!("sim.handle.{kind}.ptail"), "%"));
    }
    for (name, unit) in [
        ("sched.queue.ops_per_event", "ops/event"),
        ("sched.queue.remove_share", "fraction"),
        ("sched.queue.ns_per_op", "ns"),
        ("sched.queue.len_mean", "count"),
        ("core.decomp.assignments_per_task", "count"),
        ("core.decomp.ns_per_task", "ns"),
        ("sim.runner.reps", "count"),
        ("sim.runner.worker_busy_frac", "fraction"),
        ("sim.sweep.points", "count"),
        ("sim.sweep.simulated", "count"),
        ("sim.sweep.dedup_ratio", "fraction"),
        ("sim.cache.hits_disk", "count"),
        ("sim.cache.errors", "count"),
        ("sim.trace.records_per_event", "count"),
        ("sim.trace.record_ns", "ns"),
        ("sim.trace.overhead_pct", "%"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Inputs come from a pool of this many recorded seeds, so that every
/// input has a recorded reference digest.
pub const INPUT_POOL: u64 = 64;

/// The pool index of the `i`-th input of a run started with `seed`.
fn input_index(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i) % INPUT_POOL
}

/// The simulation seed of pool entry `index`.
pub fn input_seed(index: u64) -> u64 {
    derive_seed(0x5DA_BE4C, index)
}

/// How much simulated work a run does: `Full` is the benchmark; `Tiny`
/// shrinks every horizon for self-tests and dry runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's horizons.
    Full,
    /// Tiny horizons; reference digests are not checked.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Horizon size.
    pub size: Size,
    /// Directory for the campaign's cache.
    pub scratch: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted: replications, CI runs or campaign passes.
    pub attempted: u64,
    /// Units that panicked, overran their event budget or failed a
    /// check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Campaign digests computed, for recording references.
    pub digests: Vec<Digest>,
}

impl Outcome {
    /// Runs one unit under panic isolation, counting it.
    fn attempt<T>(&mut self, what: &str, unit: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let message = match catch_unwind(AssertUnwindSafe(unit)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(message)) => message,
            Err(payload) => {
                let text = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                format!("panicked: {text}")
            }
        };
        self.failed += 1;
        self.problems.push(format!("{what}: {message}"));
        None
    }

    /// Counts a failure of the last attempted unit if `mismatches` is not
    /// empty.
    fn verify(&mut self, what: &str, mismatches: Vec<String>) {
        if !mismatches.is_empty() {
            self.failed += 1;
            self.problems.push(format!(
                "{what}: digest mismatch: {}",
                mismatches.join("; ")
            ));
        }
    }

    fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

/// Compares `got` with the recorded reference, when references are
/// checked.
fn against_reference(
    refs: Option<&References>,
    workload: &str,
    index: u64,
    got: &Digest,
) -> Vec<String> {
    match refs {
        None => Vec::new(),
        Some(refs) => match refs.get(workload, index) {
            Some(want) => got.mismatches(want),
            None => vec![format!(
                "no reference recorded for {workload} input {index}"
            )],
        },
    }
}

/// Compares a traced result with its untraced twin: tracing must not
/// change a single value.
fn against_untraced(traced: &Digest, untraced: &Digest) -> Vec<String> {
    if traced == untraced {
        Vec::new()
    } else {
        let mut out = traced.mismatches(untraced);
        out.insert(0, "traced run differs from untraced run".to_string());
        out
    }
}

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

/// The single-replication configuration of `fig5_6node` or `nodes_600`.
pub fn replication_config(workload: &str, size: Size) -> SimConfig {
    let (nodes, warmup, horizon) = match (workload, size) {
        // The paper's replication length, after Table 1's warm-up.
        ("fig5_6node", Size::Full) => (6, 2_000.0, 200_000.0),
        ("fig5_6node", Size::Tiny) => (6, 200.0, 2_000.0),
        // About half fig5_6node's event count per replication. A node's
        // queue settles within tens of time units at load 0.5, so a
        // short warm-up suffices at any node count.
        ("nodes_600", Size::Full) => (600, 200.0, 1_000.0),
        ("nodes_600", Size::Tiny) => (600, 10.0, 20.0),
        _ => unreachable!("not a single-replication workload: {workload}"),
    };
    SimConfig {
        nodes,
        warmup,
        duration: warmup + horizon,
        ..SimConfig::baseline()
    }
}

/// The configuration of `pipeline_overload_ci`: Figure 14's five-stage
/// pipeline under EQF-DIV1 at load 0.8, process-manager aborts, node
/// crashes with requeueing, stragglers and hand-off delays.
fn pipeline_config(size: Size) -> SimConfig {
    let duration = match size {
        Size::Full => 20_000.0,
        Size::Tiny => 2_000.0,
    };
    SimConfig {
        load: 0.8,
        strategy: SdaStrategy::eqf_div1(),
        abort: AbortPolicy::ProcessManager,
        fault: FaultConfig {
            mttf: 5_000.0,
            mttr: 50.0,
            crash_policy: CrashPolicy::RequeueSubtask,
            straggler_prob: 0.02,
            straggler_factor: 3.0,
            comm_delay_prob: 0.1,
            comm_delay_mean: 0.5,
        },
        duration,
        warmup: duration * 0.01,
        ..SimConfig::section8()
    }
}

/// The 95% CI width ratio `pipeline_overload_ci` runs to.
fn ci_target(size: Size) -> f64 {
    match size {
        Size::Full => 0.05,
        Size::Tiny => 0.2,
    }
}

/// The campaign point whose replication 0 the traced `repro_quick` run
/// replays through the instruments: Figure 5's UD curve at load 0.5.
fn campaign_sample_config() -> SimConfig {
    Scale::Quick
        .apply(SimConfig::baseline())
        .with_load(0.5)
        .with_strategy(SdaStrategy::ud_ud())
}

/// An upper bound on the events a sane replication of `cfg` processes:
/// four times a generous per-task event count. A replication past it
/// is a runaway.
fn event_budget(cfg: &SimConfig) -> u64 {
    let leaves = cfg.shape.mean_leaf_count();
    let tasks_per_time =
        cfg.lambda_local() * cfg.nodes as f64 + cfg.lambda_global() * (1.0 + leaves);
    let crashes = if cfg.fault.crash_enabled() {
        2.0 * cfg.nodes as f64 / cfg.fault.mttf
    } else {
        0.0
    };
    (4.0 * (3.0 * tasks_per_time + crashes) * cfg.duration) as u64 + 100_000
}

// ---------------------------------------------------------------------
// One replication, driven through Simulation + Engine::run_until
// ---------------------------------------------------------------------

/// Instruments for one traced replication.
#[derive(Debug)]
pub struct Tracer {
    /// `handle` timings.
    pub handle: HandleStats,
    /// The timing sink.
    pub sink: TimingSink,
    /// Queue and decomposition replays.
    pub replay: Replay,
    /// Host time inside `Engine::run_until`.
    pub run_ns: u64,
}

impl Tracer {
    /// Fresh instruments for a replication of `cfg`.
    pub fn new(cfg: &SimConfig) -> Tracer {
        Tracer {
            handle: HandleStats::default(),
            sink: TimingSink::default(),
            replay: Replay::new(cfg),
            run_ns: 0,
        }
    }
}

/// A finished replication and its timings.
#[derive(Debug)]
pub struct Rep {
    /// Simulation construction, priming and the warm-up interval.
    pub setup_s: f64,
    /// Host time of the post-warm-up window.
    pub window_s: f64,
    /// Events processed in that window.
    pub window_events: u64,
    /// Events per host second of each window chunk.
    pub chunk_rates: Vec<f64>,
    /// The result, as `Runner` would report it.
    pub result: RunResult,
}

impl Rep {
    /// Events per host second over the window.
    pub fn events_per_sec(&self) -> f64 {
        self.window_events as f64 / self.window_s
    }
}

/// Window chunks; the event budget is checked between them.
const CHUNKS: u32 = 16;

fn advance(
    engine: &mut Engine<Ev>,
    sim: &mut Simulation,
    tracer: Option<&mut Tracer>,
    until: SimTime,
) {
    match tracer {
        None => {
            engine.run_until(sim, until);
        }
        Some(t) => {
            let mut probe = Probe {
                sim,
                stats: &mut t.handle,
                sink_ns: Some(t.sink.elapsed_handle()),
            };
            let started = Instant::now();
            engine.run_until(&mut probe, until);
            t.run_ns += started.elapsed().as_nanos() as u64;
            for record in t.sink.drain() {
                t.replay.feed(&record);
            }
            t.replay.flush();
        }
    }
}

/// Runs one replication of `cfg` with `seed`: setup (construction,
/// priming, warm-up), then the window in chunks under an event budget.
/// With a tracer, the whole replication runs under the instruments.
///
/// # Errors
///
/// Returns a configuration error or a budget overrun.
pub fn replicate(
    cfg: &SimConfig,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let started = Instant::now();
    let mut sim = Simulation::new(cfg.clone(), seed).map_err(|e| e.to_string())?;
    if let Some(t) = tracer.as_deref() {
        sim.set_sink(Box::new(t.sink.clone()));
    }
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    advance(
        &mut engine,
        &mut sim,
        tracer.as_deref_mut(),
        SimTime::from(cfg.warmup),
    );
    let setup_s = started.elapsed().as_secs_f64();

    let budget = event_budget(cfg);
    let at_warmup = engine.events_processed();
    let mut chunk_rates = Vec::with_capacity(CHUNKS as usize);
    let window = Instant::now();
    for chunk in 1..=CHUNKS {
        let until = cfg.warmup + (cfg.duration - cfg.warmup) * f64::from(chunk) / f64::from(CHUNKS);
        let (before, started) = (engine.events_processed(), Instant::now());
        advance(
            &mut engine,
            &mut sim,
            tracer.as_deref_mut(),
            SimTime::from(until),
        );
        chunk_rates
            .push((engine.events_processed() - before) as f64 / started.elapsed().as_secs_f64());
        if engine.events_processed() > budget {
            return Err(format!(
                "event budget exceeded: {} events > {budget} by time {until}",
                engine.events_processed()
            ));
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    if let Some(mut sink) = sim.take_sink() {
        sink.flush();
    }
    let events = engine.events_processed();
    let (metrics, node_stats) = sim.into_results();
    let end = SimTime::from(cfg.duration);
    let result = RunResult {
        metrics,
        events,
        busy: node_stats.iter().map(|s| s.busy()).collect(),
        mean_queue_len: node_stats.iter().map(|s| s.mean_queue_len(end)).collect(),
        node_stats,
        duration: cfg.duration,
        seed,
        wall_secs: window_s,
    };
    Ok(Rep {
        setup_s,
        window_s,
        window_events: events - at_warmup,
        chunk_rates,
        result,
    })
}

// ---------------------------------------------------------------------
// Per-layer accounting
// ---------------------------------------------------------------------

/// Per-layer totals over a traced run.
#[derive(Debug, Default)]
struct Layers {
    handle: HandleStats,
    replay: ReplayStats,
    run_ns: u64,
    records: u64,
    encode_ns: u64,
    jsonl_bytes: u64,
    eps_untraced: Vec<f64>,
    eps_traced: Vec<f64>,
    reps: f64,
    busy_frac: f64,
    sweep_points: u64,
    sweep_simulated: u64,
    sweep_shared: u64,
    hits_disk: u64,
    cache_errors: u64,
}

impl Layers {
    fn absorb(&mut self, t: &Tracer) {
        self.handle.merge(&t.handle);
        self.replay.merge(&t.replay.stats);
        self.run_ns += t.run_ns;
        let (records, encode_ns, bytes) = t.sink.totals();
        self.records += records;
        self.encode_ns += encode_ns;
        self.jsonl_bytes += bytes;
    }

    /// Runs a replication untraced and traced, checks the untraced
    /// digest with `reference` and the traced one against the untraced
    /// one, and absorbs the traced run's layers. Returns the untraced
    /// replication.
    fn traced_pair(
        &mut self,
        out: &mut Outcome,
        what: &str,
        cfg: &SimConfig,
        seed: u64,
        reference: impl FnOnce(&Digest) -> Vec<String>,
    ) -> Option<Rep> {
        let plain = out.attempt(what, || replicate(cfg, seed, None))?;
        let mut tracer = Tracer::new(cfg);
        let traced = out.attempt(what, || replicate(cfg, seed, Some(&mut tracer)))?;
        let untraced = Digest::of_run(&plain.result);
        let mut mismatches = reference(&untraced);
        mismatches.extend(against_untraced(&Digest::of_run(&traced.result), &untraced));
        out.verify(what, mismatches);
        self.eps_untraced.push(plain.events_per_sec());
        self.eps_traced.push(traced.events_per_sec());
        self.absorb(&tracer);
        Some(plain)
    }

    fn metrics(&self, out: &mut Outcome) -> Vec<Metric> {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let h = &self.handle;
        let events = h.events as f64;
        let r = &self.replay;
        let (untraced, traced) = (median(&self.eps_untraced), median(&self.eps_traced));
        let mut values = vec![
            per(self.run_ns.saturating_sub(h.total_ns) as f64, events),
            per(h.pending_sum as f64, events),
            h.pending_max as f64,
            per(h.total_ns.saturating_sub(h.sink_ns) as f64, events),
        ];
        values.extend(h.by_kind.iter().map(|hist| hist.count() as f64));
        for hist in &h.by_kind[..TIMED_KINDS] {
            let tail = hist.tail_percentile();
            values.extend([
                hist.percentile(50.0) as f64,
                hist.percentile(tail) as f64,
                tail,
            ]);
        }
        values.extend([
            per(r.queue_ops as f64, events),
            per(r.queue_removes as f64, r.queue_ops as f64),
            per(r.queue_ns as f64, r.queue_ops as f64),
            per(r.queue_len_sum as f64, r.queue_ops as f64),
            per(r.assignments as f64, r.tasks as f64),
            per(r.decomp_ns as f64, r.tasks as f64),
            self.reps,
            self.busy_frac,
            self.sweep_points as f64,
            self.sweep_simulated as f64,
            per(self.sweep_shared as f64, self.sweep_points as f64),
            self.hits_disk as f64,
            self.cache_errors as f64,
            per(self.records as f64, events),
            per(self.encode_ns as f64, self.records as f64),
            100.0 * per(untraced - traced, untraced),
        ]);
        let names = per_layer();
        debug_assert_eq!(names.len(), values.len());
        let metrics: Vec<Metric> = names
            .into_iter()
            .zip(values)
            .map(|((name, unit), value)| Metric::new(name, value, unit))
            .collect();

        out.line(format!("per-layer table ({} traced events)", h.events));
        for m in &metrics {
            out.line(format!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit));
        }
        for (kind, hist) in KINDS.iter().zip(&h.by_kind).skip(TIMED_KINDS) {
            if hist.count() > 0 {
                let tail = hist.tail_percentile();
                out.line(format!(
                    "  sim.handle.{kind}: p50 {} ns, p{tail} {} ns, n={}",
                    hist.percentile(50.0),
                    hist.percentile(tail),
                    hist.count()
                ));
            }
        }
        out.line(format!(
            "  sched.queue.replay_mismatches {} (0 = the replay served jobs in the traced order)",
            r.queue_mismatches
        ));
        out.line(format!(
            "  sim.trace: {} JSONL bytes; events/s untraced {}, traced {}",
            self.jsonl_bytes,
            spread(&self.eps_untraced),
            spread(&self.eps_traced)
        ));
        metrics
    }
}

// ---------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------

/// Runs one workload.
///
/// `refs` is `None` to skip the reference check (tiny horizons).
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(opts: &Options, refs: Option<&References>) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut out = Outcome::default();
    let metrics = match (opts.workload.as_str(), opts.trace) {
        (w @ ("fig5_6node" | "nodes_600"), false) => {
            replication_timed(w, opts, refs, deadline, &mut out)
        }
        (w @ ("fig5_6node" | "nodes_600"), true) => {
            replication_traced(w, opts, refs, deadline, &mut out)
        }
        ("pipeline_overload_ci", trace) => pipeline(opts, refs, deadline, trace, &mut out),
        ("repro_quick", trace) => repro_quick(opts, refs, deadline, trace, &mut out),
        (other, _) => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    out.metrics = metrics;
    Ok(out)
}

/// The end-to-end metrics from a timed run's samples.
///
/// `events_per_sec` is the lower quartile of the throughput samples: the
/// rate sustained three quarters of the time. On a shared host the
/// simulator mostly runs at a steady pace with bursts of extra speed; the
/// lower quartile tracks the steady pace and varies far less from run to
/// run than the median, while a slower program still moves it.
fn end_to_end(out: &mut Outcome, events_per_sec: &[f64], setup_s: &[f64]) -> Vec<Metric> {
    out.line(format!(
        "events_per_sec {} events/s",
        spread(events_per_sec)
    ));
    out.line(format!("setup_s {} s", spread(setup_s)));
    let rss = peak_rss_mib();
    out.line(format!("peak_rss_mb {rss:.3} MiB"));
    let values = [quantile(events_per_sec, 0.25), median(setup_s), rss];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// `fig5_6node` / `nodes_600`, timed: consecutive replications of pool
/// inputs until the time is up; every window chunk is a throughput
/// sample.
fn replication_timed(
    workload: &str,
    opts: &Options,
    refs: Option<&References>,
    deadline: Instant,
    out: &mut Outcome,
) -> Vec<Metric> {
    let cfg = replication_config(workload, opts.size);
    let (mut eps, mut setup) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let index = input_index(opts.seed, i);
        i += 1;
        let what = format!("{workload} input {index}");
        if let Some(rep) = out.attempt(&what, || replicate(&cfg, input_seed(index), None)) {
            eps.extend_from_slice(&rep.chunk_rates);
            setup.push(rep.setup_s);
            let mismatches = against_reference(refs, workload, index, &Digest::of_run(&rep.result));
            out.verify(&what, mismatches);
        }
    }
    let metrics = end_to_end(out, &eps, &setup);
    if workload == "nodes_600" {
        // The node-count axis: a few Figure-5 replications in the same
        // process, for the ratio. Not part of the result line.
        let small = replication_config("fig5_6node", opts.size);
        let base: Vec<f64> = (0..4)
            .filter_map(|k| replicate(&small, input_seed(input_index(opts.seed, k)), None).ok())
            .flat_map(|rep| rep.chunk_rates)
            .collect();
        out.line(format!(
            "node-count cliff: events_per_sec nodes_600 / fig5_6node = {:.4} (fig5_6node {:.6e} events/s, same process)",
            quantile(&eps, 0.25) / quantile(&base, 0.25),
            quantile(&base, 0.25)
        ));
    }
    metrics
}

/// `fig5_6node` / `nodes_600`, traced.
fn replication_traced(
    workload: &str,
    opts: &Options,
    refs: Option<&References>,
    deadline: Instant,
    out: &mut Outcome,
) -> Vec<Metric> {
    let cfg = replication_config(workload, opts.size);
    let mut layers = Layers {
        reps: 1.0,
        ..Layers::default()
    };
    let mut busy = Vec::new();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let index = input_index(opts.seed, i);
        i += 1;
        let plain = layers.traced_pair(
            out,
            &format!("{workload} input {index}"),
            &cfg,
            input_seed(index),
            |d| against_reference(refs, workload, index, d),
        );
        // One worker: the share of the untraced replication's wall time
        // spent in its timed window.
        if let Some(rep) = plain {
            busy.push(rep.window_s / (rep.setup_s + rep.window_s));
        }
    }
    layers.busy_frac = median(&busy);
    layers.metrics(out)
}

/// `pipeline_overload_ci`: `Runner::execute` with `StopRule::CiWidth`
/// on every worker thread, repeated until the time is up.
fn pipeline(
    opts: &Options,
    refs: Option<&References>,
    deadline: Instant,
    trace: bool,
    out: &mut Outcome,
) -> Vec<Metric> {
    const WORKLOAD: &str = "pipeline_overload_ci";
    const SETUP_SAMPLES: usize = 5;
    let index = input_index(opts.seed, 0);
    let base = input_seed(index);
    let jobs = nproc();
    // Setup: config build, validation and `Runner` construction, then one
    // short replication per worker so that threads, allocator arenas and
    // code pages are warm before the timed window.
    let setup_once = || -> Result<Runner, String> {
        let cfg = pipeline_config(opts.size);
        cfg.validate().map_err(|e| e.to_string())?;
        let warmup = SimConfig {
            duration: cfg.duration / 10.0,
            warmup: cfg.warmup / 10.0,
            ..cfg.clone()
        };
        Runner::new(warmup)
            .seed(base)
            .jobs(jobs)
            .stop(StopRule::FixedReps(jobs))
            .execute()
            .map_err(|e| e.to_string())?;
        Ok(Runner::new(cfg)
            .seed(base)
            .jobs(jobs)
            .stop(StopRule::CiWidth(ci_target(opts.size))))
    };
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut runner = None;
    for _ in 0..SETUP_SAMPLES {
        let started = Instant::now();
        runner = out.attempt(&format!("{WORKLOAD} setup"), setup_once);
        setup.push(started.elapsed().as_secs_f64());
    }
    let Some(runner) = runner else {
        return Vec::new();
    };

    let what = format!("{WORKLOAD} input {index}");
    let (mut eps, mut time_to_ci, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<MultiRun> = None;
    let mut tries = 0;
    while tries == 0 || !trace && Instant::now() < deadline {
        tries += 1;
        // Only the latest result is kept, so peak memory does not count a
        // stale one.
        last = None;
        let executed = out.attempt(&what, || {
            let started = Instant::now();
            let multi = runner.execute().map_err(|e| e.to_string())?;
            Ok((multi, started.elapsed().as_secs_f64()))
        });
        let Some((multi, secs)) = executed else {
            continue;
        };
        let events: u64 = multi.runs().iter().map(|r| r.events).sum();
        eps.push(events as f64 / secs);
        time_to_ci.push(secs);
        let worked: f64 = multi.runs().iter().map(|r| r.wall_secs).sum();
        busy.push(worked / (jobs as f64 * secs));
        out.verify(
            &what,
            against_reference(refs, WORKLOAD, index, &Digest::of_multi(&multi)),
        );
        last = Some(multi);
    }
    let Some(multi) = last else {
        return Vec::new();
    };
    out.line(format!(
        "time_to_ci_s {} s ({} reps to CI width ratio {} on {jobs} threads)",
        spread(&time_to_ci),
        multi.runs().len(),
        ci_target(opts.size)
    ));
    if !trace {
        return end_to_end(out, &eps, &setup);
    }

    // Traced: replicate the Runner's replications one by one (the
    // Runner's seeds), each untraced and traced, until the time is up.
    let cfg = pipeline_config(opts.size);
    let mut layers = Layers {
        reps: multi.runs().len() as f64,
        busy_frac: median(&busy),
        ..Layers::default()
    };
    for (rep, run) in multi.runs().iter().enumerate() {
        if rep > 0 && Instant::now() >= deadline {
            break;
        }
        layers.traced_pair(
            out,
            &format!("{what} rep {rep}"),
            &cfg,
            derive_seed(base, rep as u64),
            |d| d.mismatches(&Digest::of_run(run)),
        );
    }
    layers.metrics(out)
}

/// A campaign: the named artifact functions it renders.
type Artifact = (&'static str, fn() -> Table);

/// The quick campaign artifact by artifact, in `repro::artifacts` order,
/// so the traced run can time each. The traced run checks that this
/// list renders exactly what `repro::artifacts` renders.
fn campaign_artifacts(size: Size) -> Vec<Artifact> {
    const Q: Scale = Scale::Quick;
    let full: Vec<Artifact> = vec![
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("fig5", || figures::fig5(Q).table),
        ("fig6", || figures::fig6(Q).table),
        ("fig7", || figures::fig7(Q).table),
        ("fig9", || figures::fig9(Q).table),
        ("fig10", || figures::fig10(Q).table),
        ("fig11", || figures::fig11(Q).table),
        ("fig12", || figures::fig12(Q).table),
        ("fig15", || figures::fig15(Q).table),
        ("checkpoints", || checkpoints::run(Q).0),
        ("a1_local_abort", || ablations::local_abort(Q)),
        ("a2_sched", || ablations::sched_policies(Q)),
        ("a3_ssp", || ablations::ssp_family(Q)),
        ("a4_pex_error", || ablations::pex_error(Q)),
        ("a5_gf_delta", || ablations::gf_delta(Q)),
        ("a6_heterogeneous", || ablations::heterogeneous_nodes(Q)),
        ("a7_preemption", || ablations::preemption(Q)),
        ("a8_service_shape", || ablations::service_shapes(Q)),
        ("a9_placement", || ablations::placement(Q)),
        ("a10_burstiness", || ablations::burstiness(Q)),
        ("e1_stages", || extensions::stage_sweep(Q).0),
        ("e2_slack", || extensions::slack_sweep(Q).0),
        ("f1_faults", || faults::mttf_sweep(Q).0),
        ("claims", || claims::render(&claims::validate(Q))),
    ];
    match size {
        Size::Full => full,
        Size::Tiny => full
            .into_iter()
            .filter(|(name, _)| *name == "fig5")
            .collect(),
    }
}

/// The campaign as users run it.
fn campaign(size: Size) -> Vec<(&'static str, Table)> {
    match size {
        Size::Full => repro::artifacts(Scale::Quick),
        Size::Tiny => campaign_artifacts(size)
            .into_iter()
            .map(|(name, f)| (name, f()))
            .collect(),
    }
}

fn render(artifacts: &[(&'static str, Table)]) -> Vec<(String, String)> {
    artifacts
        .iter()
        .map(|(name, table)| (name.to_string(), table.to_csv()))
        .collect()
}

fn render_hash(rendered: &[(String, String)]) -> u64 {
    let mut bytes = Vec::new();
    for (name, csv) in rendered {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(csv.as_bytes());
    }
    fnv1a(&bytes)
}

/// Totals over the points a cold pass stored in the cache directory.
#[derive(Debug, Default)]
struct Stored {
    points: u64,
    reps: u64,
    events: u64,
    wall_secs: f64,
}

/// Reads back every cache entry in `dir` through the cache's own parser.
fn stored_points(dir: &Path) -> Result<Stored, String> {
    let mut stored = Stored::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|ext| ext != "sdacache") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let multi =
            parse_entry(&text).ok_or_else(|| format!("{}: unreadable entry", path.display()))?;
        stored.points += 1;
        stored.reps += multi.runs().len() as u64;
        stored.events += multi.runs().iter().map(|r| r.events).sum::<u64>();
        stored.wall_secs += multi.runs().iter().map(|r| r.wall_secs).sum::<f64>();
    }
    Ok(stored)
}

/// Parses a cache entry, taking its preimage from its own header.
fn parse_entry(text: &str) -> Option<MultiRun> {
    let mut lines = text.lines();
    lines.next()?;
    let count: usize = lines.next()?.strip_prefix("preimage ")?.parse().ok()?;
    let preimage: String = lines.take(count).map(|line| format!("{line}\n")).collect();
    parse_multi_run(text, &preimage)
}

fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// One cold-then-warm campaign pass and its checks.
struct Pass {
    digest: Digest,
    cold_s: f64,
    warm_s: f64,
    render_s: f64,
    artifact_s: Vec<(&'static str, f64)>,
    cold: sda_sim::CacheReport,
    warm: sda_sim::CacheReport,
    stored: Stored,
}

/// `repro_quick`: the quick campaign on an empty cache directory, then a
/// fresh `Exec` replaying it from that directory.
fn repro_quick(
    opts: &Options,
    refs: Option<&References>,
    deadline: Instant,
    trace: bool,
    out: &mut Outcome,
) -> Vec<Metric> {
    const WORKLOAD: &str = "repro_quick";
    const SETUP_SAMPLES: usize = 50;
    let dir = opts
        .scratch
        .join(format!("repro-cache-{}", std::process::id()));
    let jobs = nproc();
    let (mut setup, mut eps, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while i == 0 || !trace && Instant::now() < deadline {
        i += 1;
        let what = format!("{WORKLOAD} pass {i}");
        let pass = out.attempt(&what, || {
            clear_dir(&dir)?;
            let mut exec = None;
            for _ in 0..SETUP_SAMPLES {
                let started = Instant::now();
                exec = Some(
                    Exec::sweep_with_dir(&dir)
                        .map_err(|e| e.to_string())?
                        .with_jobs(jobs),
                );
                setup.push(started.elapsed().as_secs_f64());
            }
            let exec = exec.expect("at least one setup sample");

            let started = Instant::now();
            let mut artifact_s = Vec::new();
            let cold_art = if trace {
                with_exec(exec.clone(), || {
                    campaign_artifacts(opts.size)
                        .into_iter()
                        .map(|(name, f)| {
                            let t = Instant::now();
                            let table = f();
                            artifact_s.push((name, t.elapsed().as_secs_f64()));
                            (name, table)
                        })
                        .collect::<Vec<_>>()
                })
            } else {
                with_exec(exec.clone(), || campaign(opts.size))
            };
            let rendering = Instant::now();
            let cold_csv = render(&cold_art);
            let render_s = rendering.elapsed().as_secs_f64();
            let cold_s = started.elapsed().as_secs_f64();
            let cold = exec.cache_report().expect("sweep exec has a cache");

            let replay = Exec::sweep_with_dir(&dir)
                .map_err(|e| e.to_string())?
                .with_jobs(jobs);
            let started = Instant::now();
            let warm_csv = render(&with_exec(replay.clone(), || campaign(opts.size)));
            let warm_s = started.elapsed().as_secs_f64();
            let warm = replay.cache_report().expect("sweep exec has a cache");

            if cold_csv != warm_csv {
                return Err("warm replay rendered different bytes than the cold pass".to_string());
            }
            if warm.misses != 0 {
                return Err(format!("warm replay simulated {} points", warm.misses));
            }
            let stored = stored_points(&dir)?;
            let digest = Digest::default()
                .with_exact("render_fnv", render_hash(&cold_csv))
                .with_exact("points", cold.points())
                .with_exact("simulated", cold.misses)
                .with_exact("stored_points", stored.points)
                .with_exact("reps", stored.reps)
                .with_exact("events", stored.events)
                .with_exact("cache_errors", cold.errors() + warm.errors());
            let mismatches = against_reference(refs, WORKLOAD, 0, &digest);
            if !mismatches.is_empty() {
                return Err(format!("digest mismatch: {}", mismatches.join("; ")));
            }
            Ok(Pass {
                digest,
                cold_s,
                warm_s,
                render_s,
                artifact_s,
                cold,
                warm,
                stored,
            })
        });
        if let Some(pass) = pass {
            out.digests.push(pass.digest.clone());
            eps.push(pass.stored.events as f64 / pass.cold_s);
            passes.push(pass);
        }
    }
    let Some(last) = passes.last() else {
        let _ = clear_dir(&dir);
        return Vec::new();
    };
    let cold: Vec<f64> = passes.iter().map(|p| p.cold_s).collect();
    let warm: Vec<f64> = passes.iter().map(|p| p.warm_s).collect();
    out.line(format!("cold_s {} s", spread(&cold)));
    out.line(format!("warm_replay_s {} s", spread(&warm)));
    out.line(format!(
        "campaign: {} points, {} simulated ({} replications, {} events), {} warm disk hits",
        last.cold.points(),
        last.cold.misses,
        last.stored.reps,
        last.stored.events,
        last.warm.hits_disk
    ));
    if !trace {
        let _ = clear_dir(&dir);
        return end_to_end(out, &eps, &setup);
    }

    // Traced: the campaign layers from the pass, and the per-event
    // layers from one campaign point replayed through the instruments
    // and checked against the replication the campaign stored.
    let mut layers = Layers {
        reps: last.stored.reps as f64,
        busy_frac: last.stored.wall_secs / (jobs as f64 * last.cold_s),
        sweep_points: last.cold.points(),
        sweep_simulated: last.cold.misses,
        sweep_shared: last.cold.hits_memory,
        hits_disk: last.warm.hits_disk,
        cache_errors: last.cold.errors() + last.warm.errors(),
        ..Layers::default()
    };
    let cfg = campaign_sample_config();
    let stop = StopRule::FixedReps(Scale::Quick.replications());
    let preimage = canonical_point(&cfg, CAMPAIGN_SEED, &stop, 2, 64);
    let stored_run =
        std::fs::read_to_string(dir.join(format!("{}.sdacache", point_key_of(&preimage))))
            .ok()
            .and_then(|text| parse_multi_run(&text, &preimage));
    layers.traced_pair(
        out,
        &format!("{WORKLOAD} sampled point"),
        &cfg,
        derive_seed(CAMPAIGN_SEED, 0),
        |d| match stored_run {
            Some(multi) => d.mismatches(&Digest::of_run(&multi.runs()[0])),
            None => vec!["the sampled campaign point is not in the cache".to_string()],
        },
    );
    let metrics = layers.metrics(out);
    for (name, secs) in &last.artifact_s {
        out.line(format!("  experiments.{name}.s {secs:.6} s"));
    }
    out.line(format!("  experiments.render.s {:.6} s", last.render_s));
    out.line(format!(
        "  sim.cache.ns_per_hit {:.1} ns",
        1e9 * last.warm_s / last.warm.hits_disk.max(1) as f64
    ));
    let _ = clear_dir(&dir);
    metrics
}

/// Reference digests for every pool input of `workload`, one
/// reference-file line each.
///
/// # Errors
///
/// Returns the first replication or campaign error.
pub fn record(workload: &str, scratch: PathBuf) -> Result<Vec<String>, String> {
    let line = |index: u64, d: &Digest| format!("{workload} {index} {}", d.to_line());
    match workload {
        "fig5_6node" | "nodes_600" => {
            let cfg = replication_config(workload, Size::Full);
            (0..INPUT_POOL)
                .map(|index| {
                    let rep = replicate(&cfg, input_seed(index), None)?;
                    Ok(line(index, &Digest::of_run(&rep.result)))
                })
                .collect()
        }
        "pipeline_overload_ci" => (0..INPUT_POOL)
            .map(|index| {
                let multi = Runner::new(pipeline_config(Size::Full))
                    .seed(input_seed(index))
                    .jobs(nproc())
                    .stop(StopRule::CiWidth(ci_target(Size::Full)))
                    .execute()
                    .map_err(|e| e.to_string())?;
                Ok(line(index, &Digest::of_multi(&multi)))
            })
            .collect(),
        "repro_quick" => {
            let opts = Options {
                workload: workload.to_string(),
                seed: 0,
                seconds: 0.0,
                trace: false,
                size: Size::Full,
                scratch,
            };
            let out = run(&opts, None)?;
            match out.digests.first() {
                Some(digest) if out.failed == 0 => Ok(vec![line(0, digest)]),
                _ => Err(out.problems.join("\n")),
            }
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

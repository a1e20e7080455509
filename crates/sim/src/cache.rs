//! Content-addressed result cache for experiment data points.
//!
//! A *point* is `(SimConfig, base seed, stop rule)`; its result is a
//! [`MultiRun`]. Because the simulator is deterministic — replication
//! `i` of base seed `b` always runs with `derive_seed(b, i)` — a point's
//! result is a pure function of the point itself, so results can be
//! memoized by content address:
//!
//! * **key** = a stable 128-bit hash of the point's *canonical text*
//!   ([`canonical_point`]): every simulated parameter of the
//!   configuration, the base seed, the stop rule (with the adaptive
//!   bounds that shape it), and [`CACHE_SCHEMA_VERSION`];
//! * **value** = the serialized [`MultiRun`], with every `f64` stored as
//!   its exact bit pattern so a reloaded result is bit-identical to the
//!   simulated one.
//!
//! [`PointCache`] layers an in-memory map (deduplicating repeated points
//! within one process, e.g. the same baseline curve appearing in two
//! figures) over an optional on-disk directory (making `sda repro`
//! incremental across invocations). Each cache file also stores the full
//! canonical preimage; a lookup whose stored preimage does not match is
//! treated as a miss, so a (cosmically unlikely) hash collision or a
//! truncated file degrades to recomputation, never to a wrong result.
//!
//! # Invalidation
//!
//! Keys change whenever any simulated parameter changes, and whenever
//! [`CACHE_SCHEMA_VERSION`] is bumped. Bump the version when simulation
//! semantics change (event ordering, RNG draws, metric definitions) even
//! though the configuration type did not: stale entries then miss
//! naturally and are recomputed. Nothing is ever deleted; a cache
//! directory can be wiped at any time.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sda_core::{EstimationModel, PspStrategy, SspStrategy};
use sda_simcore::stats::{
    Estimate, Histogram, MissCounter, NodeStats, TimeWeighted, WeightedMiss, Welford,
};
use sda_simcore::SimTime;

use crate::config::{AbortPolicy, GlobalShape, Placement, ResubmitPolicy, ServiceShape, SimConfig};
use crate::metrics::Metrics;
use crate::runner::{BatchEstimates, MultiRun, RunResult, StopRule};

/// Version of both the canonical point text and the on-disk value
/// format. Part of every key: bumping it invalidates all prior entries.
///
/// Version 3: node queue-length accumulators are updated where a queue
/// changes, not after every event. A cached accumulator's `last_time` is
/// now the time of the node's last queue change, and under sustained
/// overload a replication's `mean_queue_len` can differ from a version 2
/// entry in its last bits (the summation order changed). Version 2
/// entries therefore miss instead of replaying.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

// ---------------------------------------------------------------------
// Canonical serialization and stable hashing
// ---------------------------------------------------------------------

/// Formats an `f64` exactly: Rust's `{:?}` prints the shortest decimal
/// that round-trips, so distinct values produce distinct text.
fn f(x: f64) -> String {
    format!("{x:?}")
}

/// The canonical text of a configuration: one `name=value` line per
/// simulated parameter, in fixed order. Two configurations serialize
/// identically if and only if they compare equal — this is what gets
/// hashed into the cache key.
pub fn canonical_config(cfg: &SimConfig) -> String {
    let mut out = String::with_capacity(512);
    let mut line = |name: &str, value: String| {
        out.push_str(name);
        out.push('=');
        out.push_str(&value);
        out.push('\n');
    };
    line("nodes", cfg.nodes.to_string());
    line("load", f(cfg.load));
    line("frac_local", f(cfg.frac_local));
    line("mu_local", f(cfg.mu_local));
    line("mu_subtask", f(cfg.mu_subtask));
    line(
        "local_slack",
        format!(
            "uniform[{},{}]",
            f(cfg.local_slack.lo()),
            f(cfg.local_slack.hi())
        ),
    );
    line(
        "global_slack",
        format!(
            "uniform[{},{}]",
            f(cfg.global_slack.lo()),
            f(cfg.global_slack.hi())
        ),
    );
    line(
        "shape",
        match &cfg.shape {
            GlobalShape::ParallelFixed { n } => format!("parallel_fixed:{n}"),
            GlobalShape::ParallelUniform { lo, hi } => format!("parallel_uniform:{lo}..{hi}"),
            GlobalShape::Spec(spec) => format!("spec:{spec}"),
        },
    );
    line(
        "ssp",
        match cfg.strategy.ssp {
            SspStrategy::Ud => "ud".to_string(),
            SspStrategy::Ed => "ed".to_string(),
            SspStrategy::Eqs => "eqs".to_string(),
            SspStrategy::Eqf => "eqf".to_string(),
        },
    );
    line(
        "psp",
        match cfg.strategy.psp {
            PspStrategy::Ud => "ud".to_string(),
            PspStrategy::DivX { x } => format!("div:{}", f(x)),
            PspStrategy::Gf { delta } => format!("gf:{}", f(delta)),
        },
    );
    line("scheduler", cfg.scheduler.to_string());
    line("preemptive", cfg.preemptive.to_string());
    line(
        "node_speeds",
        cfg.node_speeds
            .iter()
            .map(|s| f(*s))
            .collect::<Vec<_>>()
            .join(","),
    );
    line(
        "service_shape",
        match cfg.service_shape {
            ServiceShape::Exponential => "exponential".to_string(),
            ServiceShape::Deterministic => "deterministic".to_string(),
            ServiceShape::UniformSpread => "uniform_spread".to_string(),
        },
    );
    line(
        "placement",
        match cfg.placement {
            Placement::RandomDistinct => "random_distinct".to_string(),
            Placement::LeastLoaded => "least_loaded".to_string(),
        },
    );
    line(
        "burst",
        match &cfg.burst {
            None => "none".to_string(),
            Some(b) => format!(
                "period:{},on:{},boost:{}",
                f(b.period),
                f(b.on_fraction),
                f(b.boost)
            ),
        },
    );
    line(
        "abort",
        match cfg.abort {
            AbortPolicy::None => "none".to_string(),
            AbortPolicy::ProcessManager => "process_manager".to_string(),
            AbortPolicy::LocalScheduler { resubmit } => match resubmit {
                ResubmitPolicy::Never => "local_scheduler:never".to_string(),
                ResubmitPolicy::OnceWithRealDeadline => {
                    "local_scheduler:once_real_deadline".to_string()
                }
            },
        },
    );
    line(
        "estimation",
        match cfg.estimation {
            EstimationModel::Exact => "exact".to_string(),
            EstimationModel::UniformFactor { max_factor } => {
                format!("uniform_factor:{}", f(max_factor))
            }
            EstimationModel::Bias { factor } => format!("bias:{}", f(factor)),
            EstimationModel::ClassMean { mean } => format!("class_mean:{}", f(mean)),
        },
    );
    line(
        "fault",
        if cfg.fault.any_enabled() {
            format!(
                "mttf:{},mttr:{},crash:{},straggler:{}x{},comm:{}~{}",
                f(cfg.fault.mttf),
                f(cfg.fault.mttr),
                cfg.fault.crash_policy.label(),
                f(cfg.fault.straggler_prob),
                f(cfg.fault.straggler_factor),
                f(cfg.fault.comm_delay_prob),
                f(cfg.fault.comm_delay_mean)
            )
        } else {
            // Every disabled fault configuration simulates identically
            // (no fault stream is ever drawn), so they all share one key.
            "none".to_string()
        },
    );
    line("duration", f(cfg.duration));
    line("warmup", f(cfg.warmup));
    out
}

/// The canonical text of a full data point: schema version, the
/// configuration ([`canonical_config`]), the base seed, and the stop
/// rule. For the adaptive rule the replication bounds are included too,
/// because they shape the result; for fixed replication counts they are
/// irrelevant and omitted.
pub fn canonical_point(
    cfg: &SimConfig,
    seed: u64,
    stop: &StopRule,
    min_reps: usize,
    max_reps: usize,
) -> String {
    let stop_text = match stop {
        StopRule::FixedReps(n) => format!("fixed:{n}"),
        StopRule::CiWidth(target) => {
            format!("ci:target={},min={min_reps},max={max_reps}", f(*target))
        }
        StopRule::BatchMeans { batch_size } => format!("batch:size={batch_size}"),
    };
    format!(
        "schema={CACHE_SCHEMA_VERSION}\n{}seed={seed}\nstop={stop_text}\n",
        canonical_config(cfg)
    )
}

/// 64-bit FNV-1a over `text` from the given offset basis.
fn fnv1a(text: &str, offset: u64) -> u64 {
    let mut hash = offset;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The stable 128-bit content address of a canonical point text,
/// rendered as 32 hex digits. Two independent FNV-1a passes (the
/// standard offset basis and a salted one) make accidental collisions
/// negligible; the stored preimage makes even a real collision safe
/// (it reads back as a miss).
///
/// This hash is implemented here — not with `std`'s `DefaultHasher` —
/// because the key must be stable across processes, platforms, and Rust
/// releases; `DefaultHasher` guarantees none of those.
pub fn point_key_of(canonical: &str) -> String {
    let lo = fnv1a(canonical, 0xCBF2_9CE4_8422_2325);
    let hi = fnv1a(canonical, 0x6C62_272E_07BB_0142);
    format!("{hi:016x}{lo:016x}")
}

// ---------------------------------------------------------------------
// MultiRun (de)serialization
// ---------------------------------------------------------------------

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn push_welford(out: &mut String, name: &str, w: &Welford) {
    let (count, mean, m2, min, max) = w.to_parts();
    out.push_str(&format!(
        "{name} {count} {} {} {} {}\n",
        hex(mean),
        hex(m2),
        hex(min),
        hex(max)
    ));
}

fn push_hist(out: &mut String, name: &str, h: &Histogram) {
    let (bin_width, bins, overflow, count) = h.to_parts();
    out.push_str(&format!("{name} {} {overflow} {count}", hex(bin_width)));
    for b in bins {
        out.push_str(&format!(" {b}"));
    }
    out.push('\n');
}

/// Serializes a [`MultiRun`] (with its canonical preimage) into the
/// cache file text. Every float is stored as its exact bit pattern.
pub fn serialize_multi_run(preimage: &str, multi: &MultiRun) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "sda-point-cache {CACHE_SCHEMA_VERSION}\npreimage {}\n",
        preimage.lines().count()
    ));
    out.push_str(preimage);
    out.push_str("payload\n");
    match multi.batch_means() {
        None => out.push_str("batch none\n"),
        Some(b) => out.push_str(&format!(
            "batch {} {} {} {} {} {}\n",
            hex(b.md_local.mean),
            hex(b.md_local.half_width),
            hex(b.md_global.mean),
            hex(b.md_global.half_width),
            b.batches.0,
            b.batches.1
        )),
    }
    out.push_str(&format!("runs {}\n", multi.runs().len()));
    for run in multi.runs() {
        let m = &run.metrics;
        out.push_str(&format!(
            "run {} {} {} {}\n",
            run.seed,
            run.events,
            hex(run.duration),
            hex(run.wall_secs)
        ));
        out.push_str(&format!(
            "local_md {} {}\n",
            m.local_md.missed(),
            m.local_md.total()
        ));
        out.push_str(&format!(
            "subtask_md {} {}\n",
            m.subtask_md.missed(),
            m.subtask_md.total()
        ));
        out.push_str(&format!("global_md {}", m.global_md.len()));
        for (n, counter) in &m.global_md {
            out.push_str(&format!(" {n} {} {}", counter.missed(), counter.total()));
        }
        out.push('\n');
        out.push_str(&format!(
            "missed_work {} {}\n",
            hex(m.missed_work.missed_amount()),
            hex(m.missed_work.total())
        ));
        push_welford(&mut out, "local_response", &m.local_response);
        push_welford(&mut out, "global_response", &m.global_response);
        push_welford(&mut out, "local_tardiness", &m.local_tardiness);
        push_welford(&mut out, "global_tardiness", &m.global_tardiness);
        push_hist(&mut out, "local_hist", &m.local_response_hist);
        push_hist(&mut out, "global_hist", &m.global_response_hist);
        out.push_str(&format!(
            "counters {} {} {} {} {}\n",
            m.aborted_locals,
            m.aborted_globals,
            m.local_scheduler_aborts,
            m.resubmissions,
            m.preemptions
        ));
        out.push_str(&format!(
            "fault_counters {} {} {} {} {}\n",
            m.node_crashes, m.crash_aborts, m.crash_requeues, m.straggler_inflations, m.comm_delays
        ));
        out.push_str(&format!("nodes {}\n", run.node_stats.len()));
        for node in &run.node_stats {
            let local = node.local_counter();
            let (area, last_time, last_value, start) = node.queue_stats().to_parts();
            out.push_str(&format!(
                "node {} {} {} {} {} {} {} {}\n",
                hex(node.busy()),
                node.served(),
                local.missed(),
                local.total(),
                hex(area),
                hex(last_time.value()),
                hex(last_value),
                hex(start.value())
            ));
        }
    }
    out
}

/// A token-stream reader over the cache file text; every accessor
/// returns `None` on any mismatch, so malformed input parses to a miss.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    fn tagged(&mut self, tag: &str) -> Option<Vec<&'a str>> {
        let line = self.lines.next()?;
        let mut tokens = line.split_ascii_whitespace();
        if tokens.next()? != tag {
            return None;
        }
        Some(tokens.collect())
    }
}

fn parse_u64(t: &str) -> Option<u64> {
    t.parse().ok()
}

fn parse_f64(t: &str) -> Option<f64> {
    u64::from_str_radix(t, 16).ok().map(f64::from_bits)
}

fn parse_welford(tokens: &[&str]) -> Option<Welford> {
    if tokens.len() != 5 {
        return None;
    }
    Some(Welford::from_parts(
        parse_u64(tokens[0])?,
        parse_f64(tokens[1])?,
        parse_f64(tokens[2])?,
        parse_f64(tokens[3])?,
        parse_f64(tokens[4])?,
    ))
}

fn parse_hist(tokens: &[&str]) -> Option<Histogram> {
    if tokens.len() < 3 {
        return None;
    }
    let bin_width = parse_f64(tokens[0])?;
    let overflow = parse_u64(tokens[1])?;
    let count = parse_u64(tokens[2])?;
    let bins = tokens[3..]
        .iter()
        .map(|t| parse_u64(t))
        .collect::<Option<Vec<u64>>>()?;
    if bins.iter().sum::<u64>() + overflow != count {
        return None;
    }
    Some(Histogram::from_parts(bin_width, bins, overflow, count))
}

fn parse_miss(missed: &str, total: &str) -> Option<MissCounter> {
    let (missed, total) = (parse_u64(missed)?, parse_u64(total)?);
    if missed > total {
        return None;
    }
    Some(MissCounter::from_parts(missed, total))
}

/// Parses one serialized run (everything after its `run` header line).
fn parse_run(reader: &mut Reader<'_>, header: &[&str]) -> Option<RunResult> {
    if header.len() != 4 {
        return None;
    }
    let seed = parse_u64(header[0])?;
    let events = parse_u64(header[1])?;
    let duration = parse_f64(header[2])?;
    let wall_secs = parse_f64(header[3])?;

    let mut metrics = Metrics::new();
    let t = reader.tagged("local_md")?;
    metrics.local_md = parse_miss(t.first()?, t.get(1)?)?;
    let t = reader.tagged("subtask_md")?;
    metrics.subtask_md = parse_miss(t.first()?, t.get(1)?)?;
    let t = reader.tagged("global_md")?;
    let classes = parse_u64(t.first()?)? as usize;
    if t.len() != 1 + 3 * classes {
        return None;
    }
    for c in 0..classes {
        let n: u32 = t[1 + 3 * c].parse().ok()?;
        metrics
            .global_md
            .insert(n, parse_miss(t[2 + 3 * c], t[3 + 3 * c])?);
    }
    let t = reader.tagged("missed_work")?;
    metrics.missed_work = WeightedMiss::from_parts(parse_f64(t.first()?)?, parse_f64(t.get(1)?)?);
    metrics.local_response = parse_welford(&reader.tagged("local_response")?)?;
    metrics.global_response = parse_welford(&reader.tagged("global_response")?)?;
    metrics.local_tardiness = parse_welford(&reader.tagged("local_tardiness")?)?;
    metrics.global_tardiness = parse_welford(&reader.tagged("global_tardiness")?)?;
    metrics.local_response_hist = parse_hist(&reader.tagged("local_hist")?)?;
    metrics.global_response_hist = parse_hist(&reader.tagged("global_hist")?)?;
    let t = reader.tagged("counters")?;
    if t.len() != 5 {
        return None;
    }
    metrics.aborted_locals = parse_u64(t[0])?;
    metrics.aborted_globals = parse_u64(t[1])?;
    metrics.local_scheduler_aborts = parse_u64(t[2])?;
    metrics.resubmissions = parse_u64(t[3])?;
    metrics.preemptions = parse_u64(t[4])?;
    let t = reader.tagged("fault_counters")?;
    if t.len() != 5 {
        return None;
    }
    metrics.node_crashes = parse_u64(t[0])?;
    metrics.crash_aborts = parse_u64(t[1])?;
    metrics.crash_requeues = parse_u64(t[2])?;
    metrics.straggler_inflations = parse_u64(t[3])?;
    metrics.comm_delays = parse_u64(t[4])?;

    let t = reader.tagged("nodes")?;
    let node_count = parse_u64(t.first()?)? as usize;
    let mut node_stats = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let t = reader.tagged("node")?;
        if t.len() != 8 {
            return None;
        }
        let queue = TimeWeighted::from_parts(
            parse_f64(t[4])?,
            SimTime::from(parse_f64(t[5])?),
            parse_f64(t[6])?,
            SimTime::from(parse_f64(t[7])?),
        );
        node_stats.push(NodeStats::from_parts(
            parse_f64(t[0])?,
            parse_u64(t[1])?,
            parse_miss(t[2], t[3])?,
            queue,
        ));
    }
    // `busy` and `mean_queue_len` are derived from the node accumulators
    // exactly as the runner derives them after a live run, so a cache
    // hit reproduces them bit-for-bit.
    let busy = node_stats.iter().map(NodeStats::busy).collect();
    let mean_queue_len = node_stats
        .iter()
        .map(|s| s.mean_queue_len(SimTime::from(duration)))
        .collect();
    Some(RunResult {
        metrics,
        events,
        busy,
        mean_queue_len,
        node_stats,
        duration,
        seed,
        wall_secs,
    })
}

/// Parses a cache file back into a [`MultiRun`], verifying that the
/// stored preimage matches `expected_preimage` exactly. Returns `None` —
/// a cache miss — on any format mismatch, version skew, or preimage
/// disagreement (hash collision or corruption).
pub fn parse_multi_run(text: &str, expected_preimage: &str) -> Option<MultiRun> {
    let mut reader = Reader {
        lines: text.lines(),
    };
    let t = reader.tagged("sda-point-cache")?;
    if t != [CACHE_SCHEMA_VERSION.to_string().as_str()] {
        return None;
    }
    let t = reader.tagged("preimage")?;
    let preimage_lines = parse_u64(t.first()?)? as usize;
    for expected in expected_preimage.lines() {
        if preimage_lines == 0 || reader.lines.next()? != expected {
            return None;
        }
    }
    if expected_preimage.lines().count() != preimage_lines {
        return None;
    }
    if reader.tagged("payload")?.is_empty() {
        let batch_tokens = reader.tagged("batch")?;
        let batch = match batch_tokens.as_slice() {
            ["none"] => None,
            [a, b, c, d, e, g] => Some(BatchEstimates {
                md_local: Estimate {
                    mean: parse_f64(a)?,
                    half_width: parse_f64(b)?,
                },
                md_global: Estimate {
                    mean: parse_f64(c)?,
                    half_width: parse_f64(d)?,
                },
                batches: (parse_u64(e)? as usize, parse_u64(g)? as usize),
            }),
            _ => return None,
        };
        let t = reader.tagged("runs")?;
        let count = parse_u64(t.first()?)? as usize;
        if count == 0 {
            return None;
        }
        let mut runs = Vec::with_capacity(count);
        for _ in 0..count {
            let header = reader.tagged("run")?;
            runs.push(parse_run(&mut reader, &header)?);
        }
        Some(MultiRun::from_parts(runs, batch))
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// The cache proper
// ---------------------------------------------------------------------

/// Hit/miss accounting of a [`PointCache`], as reported by `sda repro` and
/// asserted by the CI cache-smoke job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Points resolved from the in-memory map (including points
    /// deduplicated within a single sweep).
    pub hits_memory: u64,
    /// Points resolved from the on-disk store.
    pub hits_disk: u64,
    /// Points that had to be simulated.
    pub misses: u64,
    /// Cache files that existed but could not be read (IO errors other
    /// than the file being absent). Each one degraded to recomputation.
    pub read_errors: u64,
    /// Computed results that could not be persisted to disk. The result
    /// itself is unaffected; the next invocation recomputes the point.
    pub write_errors: u64,
    /// Cache files that were read but failed verification (version skew,
    /// truncation, corruption, or preimage mismatch). Each one was
    /// treated as a miss.
    pub verify_errors: u64,
}

impl CacheReport {
    /// Total points resolved without simulation.
    pub fn hits(&self) -> u64 {
        self.hits_memory + self.hits_disk
    }

    /// Total points that went through the cache.
    pub fn points(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of points resolved without simulation (1.0 when no
    /// points were looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.points() == 0 {
            1.0
        } else {
            self.hits() as f64 / self.points() as f64
        }
    }

    /// Total IO/verification errors the cache degraded around.
    pub fn errors(&self) -> u64 {
        self.read_errors + self.write_errors + self.verify_errors
    }
}

impl std::fmt::Display for CacheReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache: {}/{} points hit ({:.1}% — memory {}, disk {}), {} simulated",
            self.hits(),
            self.points(),
            100.0 * self.hit_rate(),
            self.hits_memory,
            self.hits_disk,
            self.misses
        )?;
        if self.errors() > 0 {
            write!(
                f,
                "; {} cache errors (read {}, write {}, verify {})",
                self.errors(),
                self.read_errors,
                self.write_errors,
                self.verify_errors
            )?;
        }
        Ok(())
    }
}

/// A memoization layer for sweep points: an in-memory map, optionally
/// backed by an on-disk content-addressed store.
///
/// Thread-safe; share one handle (via [`std::sync::Arc`]) across sweeps
/// to deduplicate identical points campaign-wide.
#[derive(Debug)]
pub struct PointCache {
    dir: Option<PathBuf>,
    /// key → (preimage, result); the preimage is kept so even a memory
    /// hit verifies the full canonical text, not just its hash.
    memory: Mutex<HashMap<String, (String, MultiRun)>>,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    verify_errors: AtomicU64,
}

/// Counts one degraded cache operation, warning on stderr the first time
/// each category fires (per cache handle) so a sick cache directory is
/// visible without flooding the log once per point.
fn count_error(counter: &AtomicU64, what: &str, detail: &dyn std::fmt::Display) {
    if counter.fetch_add(1, Ordering::Relaxed) == 0 {
        eprintln!("warning: cache {what} ({detail}); recomputing affected points");
    }
}

impl PointCache {
    /// An in-memory cache: deduplicates within the process, persists
    /// nothing.
    pub fn in_memory() -> PointCache {
        PointCache {
            dir: None,
            memory: Mutex::new(HashMap::new()),
            hits_memory: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            verify_errors: AtomicU64::new(0),
        }
    }

    /// A cache persisted under `dir` (created if absent), with the same
    /// in-memory layer in front.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<PointCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(PointCache {
            dir: Some(dir),
            ..PointCache::in_memory()
        })
    }

    /// The on-disk directory, if this cache persists.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn file_of(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.sdacache")))
    }

    /// Looks up a point, counting a memory hit, a disk hit, or a miss.
    /// A disk hit is promoted into the memory layer.
    pub fn lookup(&self, key: &str, preimage: &str) -> Option<MultiRun> {
        if let Some((stored, found)) = self.memory.lock().expect("cache map").get(key) {
            if stored == preimage {
                self.hits_memory.fetch_add(1, Ordering::Relaxed);
                return Some(found.clone());
            }
        }
        if let Some(path) = self.file_of(key) {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    if let Some(multi) = parse_multi_run(&text, preimage) {
                        self.hits_disk.fetch_add(1, Ordering::Relaxed);
                        self.memory
                            .lock()
                            .expect("cache map")
                            .insert(key.to_string(), (preimage.to_string(), multi.clone()));
                        return Some(multi);
                    }
                    // The file exists but is not a valid entry for this
                    // point: corruption, truncation, schema skew, or a
                    // hash collision. All degrade to a recomputation.
                    count_error(
                        &self.verify_errors,
                        "entry failed verification",
                        &path.display(),
                    );
                }
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(err) => {
                    count_error(
                        &self.read_errors,
                        "read failed",
                        &format_args!("{}: {err}", path.display()),
                    );
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Counts a point resolved by sharing another identical point's
    /// result within one sweep (a memory-level hit that never reached
    /// [`PointCache::lookup`]).
    pub fn record_shared_hit(&self) {
        self.hits_memory.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a computed result under `key`, in memory and (when
    /// persistent) on disk via an atomic write-then-rename. A disk error
    /// never fails the caller — a cache that cannot write degrades to
    /// recomputing — but it is counted in [`PointCache::report`] and
    /// warned about once.
    pub fn store(&self, key: &str, preimage: &str, multi: &MultiRun) {
        self.memory
            .lock()
            .expect("cache map")
            .insert(key.to_string(), (preimage.to_string(), multi.clone()));
        if let Some(path) = self.file_of(key) {
            let text = serialize_multi_run(preimage, multi);
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let written = std::fs::File::create(&tmp)
                .and_then(|mut file| file.write_all(text.as_bytes()))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(err) = written {
                let _ = std::fs::remove_file(&tmp);
                count_error(
                    &self.write_errors,
                    "write failed",
                    &format_args!("{}: {err}", path.display()),
                );
            }
        }
    }

    /// The hit/miss accounting so far.
    pub fn report(&self) -> CacheReport {
        CacheReport {
            hits_memory: self.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            verify_errors: self.verify_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        }
    }

    #[test]
    fn canonical_text_is_stable_and_injective() {
        let a = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2), 2, 64);
        let b = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2), 2, 64);
        assert_eq!(a, b);
        let other = canonical_point(
            &quick_cfg().with_load(0.6),
            7,
            &StopRule::FixedReps(2),
            2,
            64,
        );
        assert_ne!(a, other);
        let other_seed = canonical_point(&quick_cfg(), 8, &StopRule::FixedReps(2), 2, 64);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn fixed_reps_key_ignores_adaptive_bounds() {
        let a = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2), 2, 64);
        let b = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2), 4, 8);
        assert_eq!(a, b, "min/max reps do not shape a fixed-count point");
        let ca = canonical_point(&quick_cfg(), 7, &StopRule::CiWidth(0.1), 2, 64);
        let cb = canonical_point(&quick_cfg(), 7, &StopRule::CiWidth(0.1), 2, 8);
        assert_ne!(ca, cb, "adaptive bounds do shape a CI-width point");
    }

    #[test]
    fn known_key_pins_cross_process_stability() {
        // The exact key of the quick baseline point. If this assertion
        // ever fails, the canonical format changed — bump
        // CACHE_SCHEMA_VERSION so old caches are invalidated rather than
        // silently missed or (worse) wrongly hit.
        let key = point_key_of(&canonical_point(
            &quick_cfg(),
            42,
            &StopRule::FixedReps(2),
            2,
            64,
        ));
        assert_eq!(key, "84ef8ff2d58a24626993341bd69af249");
    }

    #[test]
    fn multi_run_round_trips_bit_identically() {
        let multi = crate::Runner::new(quick_cfg())
            .seed(11)
            .jobs(1)
            .stop(StopRule::FixedReps(2))
            .execute()
            .unwrap();
        let preimage = canonical_point(&quick_cfg(), 11, &StopRule::FixedReps(2), 2, 64);
        let text = serialize_multi_run(&preimage, &multi);
        let back = parse_multi_run(&text, &preimage).expect("round-trip parses");
        assert_eq!(back.stats().to_json(), multi.stats().to_json());
        for (a, b) in multi.runs().iter().zip(back.runs()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.events, b.events);
            assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
            assert_eq!(
                a.metrics.md_global().to_bits(),
                b.metrics.md_global().to_bits()
            );
            assert_eq!(
                a.metrics.local_response_quantile(0.99).to_bits(),
                b.metrics.local_response_quantile(0.99).to_bits()
            );
            for (x, y) in a.mean_queue_len.iter().zip(&b.mean_queue_len) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(
            parse_multi_run(&text, "tampered").is_none(),
            "preimage mismatch must read as a miss"
        );
    }

    #[test]
    fn batch_means_round_trips() {
        let multi = crate::Runner::new(quick_cfg())
            .seed(3)
            .stop(StopRule::BatchMeans { batch_size: 64 })
            .execute()
            .unwrap();
        let preimage = canonical_point(
            &quick_cfg(),
            3,
            &StopRule::BatchMeans { batch_size: 64 },
            2,
            64,
        );
        let text = serialize_multi_run(&preimage, &multi);
        let back = parse_multi_run(&text, &preimage).expect("parses");
        let (a, b) = (
            multi.batch_means().expect("batch estimates"),
            back.batch_means().expect("batch estimates"),
        );
        assert_eq!(a.md_local.mean.to_bits(), b.md_local.mean.to_bits());
        assert_eq!(
            a.md_global.half_width.to_bits(),
            b.md_global.half_width.to_bits()
        );
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn disk_cache_round_trips_and_counts() {
        let dir = std::env::temp_dir().join(format!("sda-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = quick_cfg();
        let preimage = canonical_point(&cfg, 5, &StopRule::FixedReps(2), 2, 64);
        let key = point_key_of(&preimage);
        {
            let cache = PointCache::with_dir(&dir).unwrap();
            assert!(cache.lookup(&key, &preimage).is_none());
            let multi = crate::Runner::new(cfg.clone())
                .seed(5)
                .stop(StopRule::FixedReps(2))
                .execute()
                .unwrap();
            cache.store(&key, &preimage, &multi);
            assert!(cache.lookup(&key, &preimage).is_some(), "memory hit");
            assert_eq!(
                cache.report(),
                CacheReport {
                    hits_memory: 1,
                    hits_disk: 0,
                    misses: 1,
                    ..CacheReport::default()
                }
            );
        }
        // A fresh handle over the same directory: a disk hit.
        let cache = PointCache::with_dir(&dir).unwrap();
        let found = cache.lookup(&key, &preimage).expect("disk hit");
        assert_eq!(found.runs().len(), 2);
        assert_eq!(cache.report().hits_disk, 1);
        // A different preimage under the same key must miss, and the
        // disagreement is surfaced as a verification error.
        assert!(cache.lookup(&key, "other-point").is_none());
        assert_eq!(cache.report().verify_errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs the quick baseline point once, for seeding error-path tests.
    fn quick_multi(seed: u64) -> MultiRun {
        crate::Runner::new(quick_cfg())
            .seed(seed)
            .stop(StopRule::FixedReps(2))
            .execute()
            .unwrap()
    }

    #[test]
    fn unwritable_dir_counts_write_error_and_still_serves_memory() {
        let dir = std::env::temp_dir().join(format!("sda-cache-wtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::with_dir(&dir).unwrap();
        let preimage = canonical_point(&quick_cfg(), 5, &StopRule::FixedReps(2), 2, 64);
        let key = point_key_of(&preimage);
        let multi = quick_multi(5);
        // Yank the directory out from under the cache: the tmp-file
        // creation inside store() now fails.
        std::fs::remove_dir_all(&dir).unwrap();
        cache.store(&key, &preimage, &multi);
        assert_eq!(cache.report().write_errors, 1, "store failure is counted");
        // The in-memory layer still holds the result.
        assert!(cache.lookup(&key, &preimage).is_some(), "memory unaffected");
        assert_eq!(cache.report().hits_memory, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_and_unreadable_entries_count_errors_and_miss() {
        let dir = std::env::temp_dir().join(format!("sda-cache-rtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::with_dir(&dir).unwrap();
        let preimage = canonical_point(&quick_cfg(), 6, &StopRule::FixedReps(2), 2, 64);
        let key = point_key_of(&preimage);
        let path = cache.file_of(&key).unwrap();
        // A corrupted payload parses to a miss and counts a verify error.
        std::fs::write(&path, "sda-point-cache garbage\n").unwrap();
        assert!(cache.lookup(&key, &preimage).is_none());
        let report = cache.report();
        assert_eq!((report.verify_errors, report.misses), (1, 1));
        // An entry that cannot be read at all (here: the path is a
        // directory) counts a read error and still degrades to a miss.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(cache.lookup(&key, &preimage).is_none());
        let report = cache.report();
        assert_eq!((report.read_errors, report.misses), (1, 2));
        assert_eq!(report.errors(), 2);
        assert!(
            format!("{report}").contains("2 cache errors (read 1, write 0, verify 1)"),
            "errors appear in the display line: {report}"
        );
        // An absent file is an ordinary miss, not an error.
        std::fs::remove_dir(&path).unwrap();
        assert!(cache.lookup(&key, &preimage).is_none());
        assert_eq!(cache.report().errors(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

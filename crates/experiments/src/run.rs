//! Shared replication driver for every experiment sweep.
//!
//! All tables, figures, ablations and checkpoints funnel through
//! [`run_points`] (or its single-point wrapper [`run_point`]), so one
//! place decides how data points are executed: by default the
//! campaign-level [`Sweep`] engine, which schedules every replication of
//! every point across one work-stealing worker pool and memoizes
//! completed points in a [`PointCache`].
//!
//! # Common random numbers, campaign-wide
//!
//! Every experiment uses the same base seed, [`CAMPAIGN_SEED`]: the seed
//! of replication `i` depends only on `(CAMPAIGN_SEED, i)`, so every
//! configuration — across strategies, loads, *and figures* — sees
//! identical arrival and service draws. That is the classic
//! common-random-numbers variance reduction for paired comparisons, and
//! it makes config-identical points (the UD baseline curve appears in
//! several figures; checkpoints re-measure figure cells) resolve to
//! identical cache keys, so the sweep engine simulates each unique point
//! exactly once per campaign.
//!
//! # Choosing an execution context
//!
//! Experiments run in the context of the innermost [`with_exec`] scope
//! (`sda repro` runs every artifact in one, with its `--jobs` and
//! `--cache-dir`); outside any scope they share one default
//! [`Exec::sweep`].

use std::sync::{Arc, Mutex, OnceLock};

use sda_sim::{CacheReport, MultiRun, PointCache, SimConfig, StopRule, Sweep, SweepPoint};

/// The single base seed shared by the whole campaign (see the
/// [module docs](self)).
pub const CAMPAIGN_SEED: u64 = 42;

/// Parses a value of `SDA_JOBS` (`None` when unset); see [`env_jobs`].
fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    match value {
        None | Some("") => Ok(0),
        Some(v) => v
            .parse()
            .map_err(|_| format!("SDA_JOBS: invalid value {v:?}")),
    }
}

/// The worker count the `SDA_JOBS` environment variable asks for. Unset
/// or empty means `0` (automatic — the machine's available parallelism).
///
/// # Errors
///
/// Returns `SDA_JOBS: invalid value "…"` when the variable is set to
/// anything but a non-negative integer.
pub fn env_jobs() -> Result<usize, String> {
    let value = std::env::var_os("SDA_JOBS").map(|v| v.to_string_lossy().into_owned());
    parse_jobs(value.as_deref())
}

/// Worker threads: [`env_jobs`], read once per process.
///
/// # Panics
///
/// Panics if `SDA_JOBS` is set to an invalid value; front ends check
/// [`env_jobs`] first and report the error instead.
pub fn jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| env_jobs().unwrap_or_else(|message| panic!("{message}")))
}

/// One experiment data point: a configuration, its base seed, and a
/// fixed replication count.
#[derive(Debug, Clone)]
pub struct Point {
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Base seed of the derived replication seed stream.
    pub seed: u64,
    /// Number of replications.
    pub reps: usize,
}

impl Point {
    /// A point at the campaign seed.
    pub fn new(cfg: SimConfig, reps: usize) -> Point {
        Point {
            cfg,
            seed: CAMPAIGN_SEED,
            reps,
        }
    }
}

/// An execution context for experiment sweeps: the sweep engine's worker
/// count and the cache, if any, shared by every sweep in the campaign.
#[derive(Debug, Clone)]
pub struct Exec {
    jobs: usize,
    cache: Option<Arc<PointCache>>,
}

impl Exec {
    /// The default: the sweep engine with an in-memory cache, so
    /// config-identical points across figures are simulated once per
    /// process.
    pub fn sweep() -> Exec {
        Exec {
            jobs: jobs(),
            cache: Some(Arc::new(PointCache::in_memory())),
        }
    }

    /// The sweep engine backed by an on-disk cache directory, making
    /// reproductions incremental across processes.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn sweep_with_dir(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Exec> {
        Ok(Exec {
            jobs: jobs(),
            cache: Some(Arc::new(PointCache::with_dir(dir)?)),
        })
    }

    /// The sweep engine with no cache at all: no cross-figure
    /// memoization, no disk. Points duplicated *within* one
    /// [`run_points`] call are still deduplicated by the engine.
    pub fn sweep_uncached() -> Exec {
        Exec {
            jobs: jobs(),
            cache: None,
        }
    }

    /// Overrides the worker-thread count (`0` = automatic).
    pub fn with_jobs(mut self, jobs: usize) -> Exec {
        self.jobs = jobs;
        self
    }

    /// The cache's hit/miss accounting, when a cache is attached.
    pub fn cache_report(&self) -> Option<CacheReport> {
        self.cache.as_ref().map(|c| c.report())
    }

    /// Executes a batch of points on one sweep and returns their results
    /// in order.
    fn run(&self, points: &[Point]) -> Vec<MultiRun> {
        let mut sweep = Sweep::new().jobs(self.jobs).points(
            points
                .iter()
                .map(|p| SweepPoint::new(p.cfg.clone(), p.seed).stop(StopRule::FixedReps(p.reps)))
                .collect::<Vec<_>>(),
        );
        if let Some(cache) = &self.cache {
            sweep = sweep.cache(Arc::clone(cache));
        }
        sweep.execute().expect("experiment configuration validates")
    }
}

thread_local! {
    /// This thread's [`with_exec`] scopes, innermost last.
    static OVERRIDE: Mutex<Vec<Exec>> = const { Mutex::new(Vec::new()) };
}

/// Runs `f` with `exec` as this thread's execution context, restoring
/// the previous context afterwards.
pub fn with_exec<T>(exec: Exec, f: impl FnOnce() -> T) -> T {
    OVERRIDE.with(|stack| stack.lock().expect("exec override").push(exec));
    // Pop even if `f` panics, so one failing test cannot leak its
    // context into the next test on this thread.
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| {
                stack.lock().expect("exec override").pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// The execution context in effect on this thread: the innermost
/// [`with_exec`] scope, else the process's default [`Exec::sweep`]
/// (created on first use).
fn current() -> Exec {
    static DEFAULT: OnceLock<Exec> = OnceLock::new();
    OVERRIDE
        .with(|stack| stack.lock().expect("exec override").last().cloned())
        .unwrap_or_else(|| DEFAULT.get_or_init(Exec::sweep).clone())
}

/// Runs a batch of experiment data points — all points of a figure or
/// table at once — and returns their results in point order. Batching a
/// whole figure into one call lets the engine interleave replications of
/// different points across workers instead of running point-by-point.
///
/// # Panics
///
/// Panics if a configuration fails validation — experiment
/// configurations are constructed by the harness and must be valid.
pub fn run_points(points: &[Point]) -> Vec<MultiRun> {
    current().run(points)
}

/// Runs one experiment data point: `reps` independent replications of
/// `cfg` from `base_seed`. Prefer [`run_points`] for whole sweeps.
///
/// # Panics
///
/// Panics if the configuration fails validation.
pub fn run_point(cfg: &SimConfig, base_seed: u64, reps: usize) -> MultiRun {
    current()
        .run(&[Point {
            cfg: cfg.clone(),
            seed: base_seed,
            reps,
        }])
        .pop()
        .expect("one point in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        }
    }

    #[test]
    fn parse_jobs_accepts_counts_and_rejects_everything_else() {
        for (value, expected) in [
            (None, Ok(0)),
            (Some(""), Ok(0)),
            (Some("0"), Ok(0)),
            (Some("1"), Ok(1)),
            (Some("16"), Ok(16)),
            (Some("abc"), Err(r#"SDA_JOBS: invalid value "abc""#)),
            (Some("-1"), Err(r#"SDA_JOBS: invalid value "-1""#)),
            (Some("2x"), Err(r#"SDA_JOBS: invalid value "2x""#)),
            (Some(" 4"), Err(r#"SDA_JOBS: invalid value " 4""#)),
            (Some("1.5"), Err(r#"SDA_JOBS: invalid value "1.5""#)),
        ] {
            assert_eq!(
                parse_jobs(value),
                expected.map_err(str::to_string),
                "SDA_JOBS={value:?}"
            );
        }
    }

    #[test]
    fn run_point_uses_the_derived_seed_stream() {
        let multi = run_point(&quick(), 42, 2);
        assert_eq!(multi.runs().len(), 2);
        assert_eq!(
            multi.runs()[0].seed,
            sda_simcore::rng::derive_seed(42, 0),
            "common-random-numbers contract: seeds depend only on (base, i)"
        );
    }

    #[test]
    fn batched_and_single_point_runs_agree_bit_for_bit() {
        let points = [
            Point::new(quick(), 2),
            Point::new(quick().with_load(0.7), 2),
        ];
        let batched = with_exec(Exec::sweep().with_jobs(3), || run_points(&points));
        let alone: Vec<MultiRun> = with_exec(Exec::sweep_uncached().with_jobs(1), || {
            points
                .iter()
                .map(|p| run_point(&p.cfg, p.seed, p.reps))
                .collect()
        });
        assert_eq!(batched.len(), alone.len());
        for (a, b) in batched.iter().zip(&alone) {
            assert_eq!(a.stats().to_json(), b.stats().to_json());
            for (x, y) in a.runs().iter().zip(b.runs()) {
                assert_eq!(
                    x.metrics.md_global().to_bits(),
                    y.metrics.md_global().to_bits()
                );
            }
        }
    }

    #[test]
    fn with_exec_restores_the_previous_context() {
        let (outer, inner) = (Exec::sweep().with_jobs(1), Exec::sweep().with_jobs(1));
        with_exec(outer.clone(), || {
            with_exec(inner.clone(), || {
                run_point(&quick(), 7, 2);
                run_point(&quick(), 7, 2);
            });
            // Back in the outer scope: its cache has not seen the point.
            run_point(&quick(), 7, 2);
        });
        let inner = inner.cache_report().expect("sweep exec has a cache");
        assert_eq!(inner.misses, 1);
        assert_eq!(
            inner.hits_memory, 1,
            "second identical point is a memory hit"
        );
        let outer = outer.cache_report().expect("sweep exec has a cache");
        assert_eq!((outer.misses, outer.hits()), (1, 0));
        assert_eq!(Exec::sweep_uncached().cache_report(), None);
    }
}

//! The replication engine: every simulation this crate runs is scheduled
//! here, over one work-stealing worker pool.
//!
//! A paper reproduction is a *campaign*: dozens of points (configuration
//! × base seed × stop rule), each several replications. Running points
//! one at a time puts a thread barrier between points — the tail of a
//! slow point idles every other core. [`Sweep`] removes the barrier: it
//! flattens all points into per-replication work units and schedules the
//! units across a single work-stealing pool, so workers drain the whole
//! campaign without ever waiting at a point boundary. A [`Runner`] is a
//! one-point sweep.
//!
//! - A [`StopRule::FixedReps`]`(n)` point is `n` units.
//! - A [`StopRule::CiWidth`] point runs in rounds: its first `min_reps`
//!   units go out with the campaign's fixed units; after each round,
//!   every unconverged adaptive point gets `(n / 2).max(2)` more units
//!   (capped at `max_reps`), until none is left.
//! - A [`StopRule::BatchMeans`] point is one unit: a single long run
//!   whose miss indicators are cut into batches as they happen.
//!
//! Every unit runs under panic isolation and the optional event budget.
//!
//! # Determinism
//!
//! Replication `i` of a point with base seed `b` always simulates with
//! `derive_seed(b, i)` regardless of which worker runs it or when, and
//! results are reassembled per point by replication index. Round sizes
//! depend only on the results so far, never on `jobs` or timing. Every
//! [`MultiRun`] this module returns is therefore **bit-identical** at any
//! `jobs` level, pinned against an independent sequential reference by
//! the `sweep` integration test.
//!
//! # Deduplication and caching
//!
//! Identical points (same configuration, seed, and stop rule) are
//! detected by their canonical content address ([`crate::cache`]) and
//! simulated once per sweep; duplicates share the result. With a
//! [`PointCache`] attached, completed points are also memoized across
//! sweeps — and, when the cache is disk-backed, across processes —
//! making repeated reproductions incremental. Tracing is not offered
//! here; attach a sink to a single-point [`Runner`] instead.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use sda_simcore::rng::derive_seed;

use crate::cache::{canonical_point, point_key_of, PointCache};
use crate::config::{ConfigError, SimConfig};
#[cfg(doc)]
use crate::runner::Runner;
use crate::runner::{
    ci_converged, run_batch_means, run_single_with_budget, BatchEstimates, BudgetExceeded,
    MultiRun, RunResult, StopRule, DEFAULT_MAX_REPS, DEFAULT_MIN_REPS,
};
use crate::trace::{SharedSink, TraceSink};

/// One data point of a sweep: a configuration, the base seed its
/// replication seeds derive from, and the stopping rule.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Base seed; replication `i` runs with `derive_seed(seed, i)`.
    pub seed: u64,
    /// When to stop adding replications.
    pub stop: StopRule,
}

impl SweepPoint {
    /// A point with the paper's default of two fixed replications.
    pub fn new(cfg: SimConfig, seed: u64) -> SweepPoint {
        SweepPoint {
            cfg,
            seed,
            stop: StopRule::FixedReps(2),
        }
    }

    /// Sets the stopping rule.
    pub fn stop(mut self, stop: StopRule) -> SweepPoint {
        self.stop = stop;
        self
    }
}

/// How a point gets its result.
enum Plan {
    /// Resolved from the cache before any simulation.
    Cached(MultiRun),
    /// Computed by the task at this index.
    Compute(usize),
    /// Shares the result of the task at this index (duplicate point).
    Shared(usize),
}

/// One planned simulation task (a deduplicated point that missed the
/// cache) and the replications it has finished so far.
struct Task<'a> {
    point: &'a SweepPoint,
    /// Content address, for storing the result back into the cache.
    address: (String, String),
    /// The most replications this task may run.
    cap: usize,
    /// Finished replications, in replication order.
    runs: Vec<RunResult>,
    batch: Option<BatchEstimates>,
    /// The lowest failed replication; the task stops at its first failure.
    failure: Option<(Unit, UnitError)>,
}

/// One schedulable unit of work: a single replication of a task.
#[derive(Clone, Copy)]
struct Unit {
    task: usize,
    rep: usize,
    seed: u64,
}

/// The result of one executed unit. A finished replication is boxed
/// because a `RunResult` carries the full per-node statistics block.
struct Outcome {
    unit: Unit,
    result: Result<Box<(RunResult, Option<BatchEstimates>)>, UnitError>,
}

/// Why a unit failed, before it is attributed to a point index.
#[derive(Debug, Clone)]
enum UnitError {
    Panic(String),
    Budget(BudgetExceeded),
}

impl UnitError {
    fn at(self, point: usize, unit: Unit) -> RunError {
        let Unit { rep, seed, .. } = unit;
        match self {
            UnitError::Panic(message) => RunError::Panic {
                point,
                rep,
                seed,
                message,
            },
            UnitError::Budget(BudgetExceeded { events, budget }) => RunError::Budget {
                point,
                rep,
                seed,
                events,
                budget,
            },
        }
    }
}

/// Why a point of a [`Sweep`] failed — returned per point by
/// [`Sweep::try_execute`], so one poisoned replication degrades that
/// point instead of killing the whole campaign.
///
/// `rep`/`seed` name the failing replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The replication panicked; the panic payload is in `message`.
    Panic {
        /// Index of the failed point in the sweep's point list.
        point: usize,
        /// Replication index within the point.
        rep: usize,
        /// The seed the replication ran with.
        seed: u64,
        /// The panic message.
        message: String,
    },
    /// The replication exceeded the sweep's event budget
    /// ([`Sweep::event_budget`]) — a runaway simulation converted into a
    /// structured result.
    Budget {
        /// Index of the failed point in the sweep's point list.
        point: usize,
        /// Replication index within the point.
        rep: usize,
        /// The seed the replication ran with.
        seed: u64,
        /// Events processed when the watchdog fired.
        events: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic {
                point,
                rep,
                seed,
                message,
            } => write!(
                f,
                "point {point} rep {rep} (seed {seed}) panicked: {message}"
            ),
            RunError::Budget {
                point,
                rep,
                seed,
                events,
                budget,
            } => write!(
                f,
                "point {point} rep {rep} (seed {seed}) exceeded the event budget \
                 ({events} events > {budget})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Builds and executes a campaign of points over one work-stealing
/// worker pool. See the [module docs](self).
#[derive(Debug)]
pub struct Sweep {
    points: Vec<SweepPoint>,
    jobs: usize,
    cache: Option<Arc<PointCache>>,
    min_reps: usize,
    max_reps: usize,
    event_budget: Option<u64>,
    /// Explicit replication seeds replacing the derived stream of every
    /// point; set only by a single-point [`Runner`] (`with_seeds`).
    pub(crate) seed_list: Option<Vec<u64>>,
    /// A sink observing replication 0 of every point; set only by a
    /// single-point [`Runner`] (`trace`).
    pub(crate) trace: Option<SharedSink>,
}

impl Default for Sweep {
    fn default() -> Sweep {
        Sweep::new()
    }
}

impl Sweep {
    /// An empty sweep with automatic parallelism and no cache.
    pub fn new() -> Sweep {
        Sweep {
            points: Vec::new(),
            jobs: 0,
            cache: None,
            min_reps: DEFAULT_MIN_REPS,
            max_reps: DEFAULT_MAX_REPS,
            event_budget: None,
            seed_list: None,
            trace: None,
        }
    }

    /// Adds one point.
    pub fn point(mut self, point: SweepPoint) -> Sweep {
        self.points.push(point);
        self
    }

    /// Adds many points.
    pub fn points(mut self, points: impl IntoIterator<Item = SweepPoint>) -> Sweep {
        self.points.extend(points);
        self
    }

    /// Sets the number of worker threads; `0` (the default) uses the
    /// machine's available parallelism. Affects wall-clock time only,
    /// never results.
    pub fn jobs(mut self, jobs: usize) -> Sweep {
        self.jobs = jobs;
        self
    }

    /// Attaches a result cache; completed points are stored into it and
    /// future lookups (in this sweep or later ones) replay them.
    pub fn cache(mut self, cache: Arc<PointCache>) -> Sweep {
        self.cache = Some(cache);
        self
    }

    /// Sets the replication floor for [`StopRule::CiWidth`] points
    /// (default 2; part of those points' cache key).
    pub fn min_reps(mut self, n: usize) -> Sweep {
        self.min_reps = n.max(2);
        self
    }

    /// Sets the hard replication cap for [`StopRule::CiWidth`] points
    /// (default 64; part of those points' cache key).
    pub fn max_reps(mut self, n: usize) -> Sweep {
        self.max_reps = n.max(1);
        self
    }

    /// Arms a per-replication event-count watchdog: a replication that
    /// processes more than `budget` engine events is cut off and its
    /// point fails with [`RunError::Budget`] instead of hanging the
    /// campaign.
    ///
    /// Not part of the cache key — the budget cannot change the result
    /// of a replication that completes within it.
    pub fn event_budget(mut self, budget: u64) -> Sweep {
        self.event_budget = Some(budget);
        self
    }

    /// Worker-thread count for a given unit count.
    fn effective_jobs(&self, units: usize) -> usize {
        let jobs = if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        jobs.min(units).max(1)
    }

    /// The seed of replication `rep` of `point`.
    fn seed_of(&self, point: &SweepPoint, rep: usize) -> u64 {
        match &self.seed_list {
            Some(list) => list[rep],
            None => derive_seed(point.seed, rep as u64),
        }
    }

    /// `want` replications, capped by the explicit seed list if any.
    fn seed_budget(&self, want: usize) -> usize {
        self.seed_list
            .as_ref()
            .map_or(want, |list| want.min(list.len()))
    }

    /// Checks a stop rule and returns its first-round replication count
    /// and its replication cap.
    fn schedule(&self, stop: StopRule) -> (usize, usize) {
        let (first, cap) = match stop {
            StopRule::FixedReps(n) => {
                let n = self.seed_budget(n);
                (n, n)
            }
            StopRule::CiWidth(target) => {
                assert!(target > 0.0, "CI width target must be positive");
                let floor = self.seed_budget(self.min_reps);
                (floor, self.seed_budget(self.max_reps).max(floor))
            }
            StopRule::BatchMeans { batch_size } => {
                assert!(batch_size > 0, "batch size must be positive");
                let n = self.seed_budget(1);
                (n, n)
            }
        };
        assert!(first > 0, "need at least one replication");
        (first, cap)
    }

    /// Executes every point and returns their results in point order.
    ///
    /// # Errors
    ///
    /// Returns the first configuration validation error before starting
    /// any simulation.
    ///
    /// # Panics
    ///
    /// Panics before any simulation on an invalid stop rule (see
    /// [`Sweep::try_execute`]), and if any replication fails (panics or
    /// blows the event budget) — use [`Sweep::try_execute`] to degrade
    /// gracefully instead.
    pub fn execute(&self) -> Result<Vec<MultiRun>, ConfigError> {
        Ok(self
            .try_execute()?
            .into_iter()
            .map(|point| point.unwrap_or_else(|e| panic!("sweep replication failed: {e}")))
            .collect())
    }

    /// [`Sweep::execute`] with graceful degradation: each point resolves
    /// independently to a result or a structured [`RunError`] naming the
    /// failed point, replication, and seed. A panicking or runaway
    /// replication poisons only the points sharing its task; every other
    /// point completes, and the output stays in point order (failures
    /// are attributed deterministically — the lowest failing replication
    /// index wins — regardless of worker timing).
    ///
    /// Failed points are never stored into the cache.
    ///
    /// # Errors
    ///
    /// Returns the first configuration validation error before starting
    /// any simulation.
    ///
    /// # Panics
    ///
    /// Panics before any simulation if a point asks for zero
    /// replications ([`StopRule::FixedReps`]`(0)`), has a
    /// [`StopRule::CiWidth`] target that is not positive (NaN included),
    /// or a [`StopRule::BatchMeans`] batch size of 0.
    pub fn try_execute(&self) -> Result<Vec<Result<MultiRun, RunError>>, ConfigError> {
        for point in &self.points {
            point.cfg.validate()?;
            self.schedule(point.stop);
        }

        // Resolve each point: cache hit, duplicate of an earlier point,
        // or a fresh task to simulate. Deduplication keys on the same
        // canonical content address the cache uses.
        let mut plans = Vec::with_capacity(self.points.len());
        let mut tasks: Vec<Task> = Vec::new();
        let mut units: Vec<Unit> = Vec::new();
        let mut planned: HashMap<String, usize> = HashMap::new();
        for point in &self.points {
            let preimage = canonical_point(
                &point.cfg,
                point.seed,
                &point.stop,
                self.min_reps,
                self.max_reps,
            );
            let key = point_key_of(&preimage);
            if let Some(&task) = planned.get(&key) {
                if let Some(cache) = &self.cache {
                    cache.record_shared_hit();
                }
                plans.push(Plan::Shared(task));
                continue;
            }
            if let Some(cache) = &self.cache {
                if let Some(found) = cache.lookup(&key, &preimage) {
                    plans.push(Plan::Cached(found));
                    continue;
                }
            }
            // The first round holds every task's first replications.
            let (first, cap) = self.schedule(point.stop);
            units.extend(self.units(tasks.len(), point, 0, first));
            planned.insert(key.clone(), tasks.len());
            plans.push(Plan::Compute(tasks.len()));
            tasks.push(Task {
                point,
                address: (key, preimage),
                cap,
                runs: Vec::new(),
                batch: None,
                failure: None,
            });
        }

        // Run in rounds: each round after the first holds the next
        // replications of the adaptive tasks that have not converged.
        // Unit order within a round affects only which worker runs what,
        // never the results.
        while !units.is_empty() {
            let mut outcomes = self.run_units(&tasks, units);
            // Outcomes arrive in worker-completion order; replication
            // order keeps runs in sequence and makes the lowest failing
            // replication the one reported, at any jobs level.
            outcomes.sort_by_key(|o| (o.unit.task, o.unit.rep));
            for Outcome { unit, result } in outcomes {
                let task = &mut tasks[unit.task];
                match result {
                    Ok(done) => {
                        let (run, batch) = *done;
                        task.runs.push(run);
                        task.batch = batch;
                    }
                    Err(error) => {
                        task.failure.get_or_insert((unit, error));
                    }
                }
            }
            units = tasks
                .iter()
                .enumerate()
                .flat_map(|(index, task)| {
                    let done = task.runs.len();
                    let more = match task.point.stop {
                        StopRule::CiWidth(target)
                            if task.failure.is_none()
                                && done < task.cap
                                && !ci_converged(&task.runs, target) =>
                        {
                            (done / 2).max(2).min(task.cap - done)
                        }
                        _ => 0,
                    };
                    self.units(index, task.point, done, more)
                })
                .collect();
        }

        let mut computed: Vec<Option<Result<MultiRun, (Unit, UnitError)>>> = tasks
            .into_iter()
            .map(|task| {
                if let Some(failure) = task.failure {
                    // A failed task is not cached.
                    return Some(Err(failure));
                }
                let multi = MultiRun::from_parts(task.runs, task.batch);
                if let Some(cache) = &self.cache {
                    cache.store(&task.address.0, &task.address.1, &multi);
                }
                Some(Ok(multi))
            })
            .collect();

        // Hand results back in point order. Walking the points backwards
        // lets every duplicate clone the result before the first point
        // of its task moves it out.
        let mut results: Vec<Result<MultiRun, RunError>> = plans
            .into_iter()
            .enumerate()
            .rev()
            .map(|(point, plan)| {
                let result = match plan {
                    Plan::Cached(multi) => return Ok(multi),
                    Plan::Shared(task) => computed[task].clone(),
                    Plan::Compute(task) => computed[task].take(),
                };
                result
                    .expect("each task resolves once")
                    .map_err(|(unit, error)| error.at(point, unit))
            })
            .collect();
        results.reverse();
        Ok(results)
    }

    /// Units for replications `first..first + count` of task `task`,
    /// which simulates `point`.
    fn units<'s>(
        &'s self,
        task: usize,
        point: &'s SweepPoint,
        first: usize,
        count: usize,
    ) -> impl Iterator<Item = Unit> + 's {
        (first..first + count).map(move |rep| Unit {
            task,
            rep,
            seed: self.seed_of(point, rep),
        })
    }

    /// Runs all units — inline when one worker suffices, otherwise on a
    /// work-stealing pool — and returns their outcomes in any order.
    fn run_units(&self, tasks: &[Task], units: Vec<Unit>) -> Vec<Outcome> {
        let jobs = self.effective_jobs(units.len());
        if jobs <= 1 {
            return units
                .into_iter()
                .map(|unit| self.run_unit(tasks, unit))
                .collect();
        }

        // One deque per worker, units dealt round-robin. A worker pops
        // from the front of its own deque and steals from the back of
        // others'; since no unit ever enqueues more work, a full empty
        // scan means the round is drained and the worker can exit.
        let total = units.len();
        let queues: Vec<Mutex<VecDeque<Unit>>> =
            (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
        for (index, unit) in units.into_iter().enumerate() {
            queues[index % jobs]
                .lock()
                .expect("sweep queue")
                .push_back(unit);
        }
        let outcomes = Mutex::new(Vec::with_capacity(total));
        let queues = &queues;
        let outcomes_ref = &outcomes;
        std::thread::scope(|scope| {
            for me in 0..jobs {
                scope.spawn(move || loop {
                    let unit = {
                        let own = queues[me].lock().expect("sweep queue").pop_front();
                        match own {
                            Some(unit) => Some(unit),
                            None => (1..jobs).find_map(|step| {
                                queues[(me + step) % jobs]
                                    .lock()
                                    .expect("sweep queue")
                                    .pop_back()
                            }),
                        }
                    };
                    let Some(unit) = unit else { break };
                    let outcome = self.run_unit(tasks, unit);
                    outcomes_ref.lock().expect("sweep outcomes").push(outcome);
                });
            }
        });
        outcomes.into_inner().expect("sweep outcomes")
    }

    /// Executes one unit. Configurations were validated up front, so
    /// simulation itself cannot fail — but the unit is isolated with
    /// [`std::panic::catch_unwind`] so a poisoned replication (a model
    /// bug, a fault-injection edge case) degrades into a failed outcome
    /// instead of tearing down the worker pool.
    fn run_unit(&self, tasks: &[Task], unit: Unit) -> Outcome {
        let point = tasks[unit.task].point;
        let trace = if unit.rep == 0 {
            self.trace.clone()
        } else {
            None
        };
        let budget = self.event_budget;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match point.stop {
            StopRule::BatchMeans { batch_size } => {
                run_batch_means(&point.cfg, unit.seed, batch_size, trace, budget)
                    .map(|(run, batch)| (run, Some(batch)))
            }
            StopRule::FixedReps(_) | StopRule::CiWidth(_) => {
                let sink = trace.map(|shared| Box::new(shared) as Box<dyn TraceSink>);
                run_single_with_budget(&point.cfg, unit.seed, sink, budget).map(|run| (run, None))
            }
        }));
        let result = match caught {
            Ok(Ok(done)) => Ok(Box::new(done)),
            Ok(Err(exceeded)) => Err(UnitError::Budget(exceeded)),
            Err(payload) => Err(UnitError::Panic(panic_message(payload.as_ref()))),
        };
        Outcome { unit, result }
    }
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` cover everything `panic!` produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

//! Layer replays: the ready-queue and deadline-assignment work of a
//! traced run, rebuilt from its trace records and run again through
//! `sda_sched::ReadyQueue` and `sda_core::Decomposition` on their own,
//! so each layer's cost can be timed without spans inside the program.
//!
//! Records are fed in emission order. Bookkeeping turns them into
//! operation lists; [`Replay::flush`] then executes the lists in tight
//! timed loops, so the bookkeeping stays out of the timings.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sda_core::{DecompTemplate, Decomposition, Release, SdaStrategy};
use sda_model::TaskSpec;
use sda_sched::{QueuedTask, ReadyQueue};
use sda_sim::{CrashPolicy, GlobalShape, SimConfig, TraceEvent, TraceRecord};
use sda_simcore::SimTime;

/// Totals of both replays.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Ready-queue operations executed (push, pop, keyed removal).
    pub queue_ops: u64,
    /// Of which keyed removals.
    pub queue_removes: u64,
    /// Time executing them.
    pub queue_ns: u64,
    /// Sum over operations of the queue length before the operation.
    pub queue_len_sum: u64,
    /// Pops that did not return the job the trace served next, and
    /// removals of keys not in the queue. Zero when the replay is
    /// faithful.
    pub queue_mismatches: u64,
    /// Global tasks whose decomposition was replayed.
    pub tasks: u64,
    /// Virtual deadlines assigned (releases) during those replays.
    pub assignments: u64,
    /// Time replaying them.
    pub decomp_ns: u64,
}

impl ReplayStats {
    /// Adds `other`'s totals.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.queue_ops += other.queue_ops;
        self.queue_removes += other.queue_removes;
        self.queue_ns += other.queue_ns;
        self.queue_len_sum += other.queue_len_sum;
        self.queue_mismatches += other.queue_mismatches;
        self.tasks += other.tasks;
        self.assignments += other.assignments;
        self.decomp_ns += other.decomp_ns;
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Push {
        node: usize,
        key: u64,
        deadline: SimTime,
    },
    Pop {
        node: usize,
        expect: u64,
    },
    Remove {
        node: usize,
        key: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Job {
    node: usize,
    deadline: SimTime,
    queued: bool,
    /// `(slot, leaf)` for subtasks of global tasks.
    leaf_of: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
struct TaskOps {
    arrival: SimTime,
    deadline: SimTime,
    leaves: usize,
    completions: Vec<(usize, SimTime)>,
}

/// Replays one traced replication's queue and decomposition work.
#[derive(Debug)]
pub struct Replay {
    shape: GlobalShape,
    strategy: SdaStrategy,
    crash_requeue: bool,
    pex: f64,
    next_job: u64,
    jobs: HashMap<u64, Job>,
    serving: Vec<Option<u64>>,
    slot_jobs: HashMap<usize, Vec<u64>>,
    open: HashMap<usize, TaskOps>,
    ops: Vec<Op>,
    finished: Vec<TaskOps>,
    queues: Vec<ReadyQueue<u64>>,
    decomps: HashMap<usize, (Arc<DecompTemplate>, Decomposition)>,
    releases: Vec<Release>,
    /// Totals so far.
    pub stats: ReplayStats,
}

impl Replay {
    /// A replay for a run of `cfg`. Subtask predictions are not in the
    /// trace; every leaf is replayed with the mean subtask demand.
    pub fn new(cfg: &SimConfig) -> Replay {
        Replay {
            shape: cfg.shape.clone(),
            strategy: cfg.strategy,
            crash_requeue: cfg.fault.crash_policy == CrashPolicy::RequeueSubtask,
            pex: 1.0 / cfg.mu_subtask,
            next_job: 0,
            jobs: HashMap::new(),
            serving: vec![None; cfg.nodes],
            slot_jobs: HashMap::new(),
            open: HashMap::new(),
            ops: Vec::new(),
            finished: Vec::new(),
            queues: (0..cfg.nodes)
                .map(|_| ReadyQueue::new(cfg.scheduler))
                .collect(),
            decomps: HashMap::new(),
            releases: Vec::new(),
            stats: ReplayStats::default(),
        }
    }

    fn push(&mut self, id: u64, job: Job) {
        self.ops.push(Op::Push {
            node: job.node,
            key: id,
            deadline: job.deadline,
        });
        self.jobs.insert(id, job);
    }

    /// Takes a job out of the books, queueing a keyed removal if it was
    /// waiting.
    fn retire(&mut self, id: u64) {
        if let Some(job) = self.jobs.remove(&id) {
            if job.queued {
                self.ops.push(Op::Remove {
                    node: job.node,
                    key: id,
                });
            } else if self.serving[job.node] == Some(id) {
                self.serving[job.node] = None;
            }
        }
    }

    /// Books one trace record. Job ids are issued in submission order,
    /// so a subtask's id is the one after the last id seen.
    pub fn feed(&mut self, record: &TraceRecord) {
        match record.event {
            TraceEvent::LocalArrived {
                node,
                job,
                deadline,
            } => {
                self.next_job = job + 1;
                let entry = Job {
                    node,
                    deadline,
                    queued: true,
                    leaf_of: None,
                };
                self.push(job, entry);
            }
            TraceEvent::GlobalArrived {
                slot,
                leaves,
                deadline,
            } => {
                let task = TaskOps {
                    arrival: record.time,
                    deadline,
                    leaves,
                    completions: Vec::with_capacity(leaves),
                };
                self.open.insert(slot, task);
            }
            TraceEvent::SubtaskSubmitted {
                slot,
                leaf,
                node,
                virtual_deadline,
            } => {
                let id = self.next_job;
                self.next_job += 1;
                self.slot_jobs.entry(slot).or_default().push(id);
                let entry = Job {
                    node,
                    deadline: virtual_deadline,
                    queued: true,
                    leaf_of: Some((slot, leaf)),
                };
                self.push(id, entry);
            }
            TraceEvent::ServiceStarted { node, job } => {
                self.ops.push(Op::Pop { node, expect: job });
                if let Some(entry) = self.jobs.get_mut(&job) {
                    entry.queued = false;
                }
                self.serving[node] = Some(job);
            }
            TraceEvent::ServiceCompleted { node, job } => {
                self.serving[node] = None;
                if let Some(Job {
                    leaf_of: Some((slot, leaf)),
                    ..
                }) = self.jobs.remove(&job)
                {
                    if let Some(task) = self.open.get_mut(&slot) {
                        task.completions.push((leaf, record.time));
                    }
                }
            }
            TraceEvent::Preempted { node, job } => {
                self.serving[node] = None;
                if let Some(entry) = self.jobs.get(&job).copied() {
                    self.push(
                        job,
                        Job {
                            queued: true,
                            ..entry
                        },
                    );
                }
            }
            TraceEvent::LocalFinished { job, .. } => self.retire(job),
            TraceEvent::GlobalFinished { slot, .. } => {
                for id in self.slot_jobs.remove(&slot).unwrap_or_default() {
                    self.retire(id);
                }
                if let Some(task) = self.open.remove(&slot) {
                    self.finished.push(task);
                }
            }
            TraceEvent::NodeCrashed { node } => {
                // Under RequeueSubtask the interrupted job goes back into
                // its queue with the same id and deadline; under AbortTask
                // its teardown arrives as a finished record.
                if let Some(job) = self.serving[node].take() {
                    if self.crash_requeue {
                        if let Some(entry) = self.jobs.get(&job).copied() {
                            self.push(
                                job,
                                Job {
                                    queued: true,
                                    ..entry
                                },
                            );
                        }
                    }
                }
            }
            TraceEvent::NodeRecovered { .. } => {}
        }
    }

    fn template(&self, leaves: usize) -> Arc<DecompTemplate> {
        let spec = match &self.shape {
            GlobalShape::Spec(spec) => spec.clone(),
            GlobalShape::ParallelFixed { .. } | GlobalShape::ParallelUniform { .. } => {
                TaskSpec::parallel_simple(leaves)
            }
        };
        Arc::new(DecompTemplate::new(&spec))
    }

    /// Executes the operations booked so far, timing each layer.
    pub fn flush(&mut self) {
        let stats = &mut self.stats;
        let started = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Push {
                    node,
                    key,
                    deadline,
                } => {
                    let queue = &mut self.queues[node];
                    stats.queue_len_sum += queue.len() as u64;
                    queue.push_keyed(key, QueuedTask::new(deadline, self.pex, key));
                }
                Op::Pop { node, expect } => {
                    let queue = &mut self.queues[node];
                    stats.queue_len_sum += queue.len() as u64;
                    if queue.pop().map(|task| task.item) != Some(expect) {
                        stats.queue_mismatches += 1;
                    }
                }
                Op::Remove { node, key } => {
                    let queue = &mut self.queues[node];
                    stats.queue_len_sum += queue.len() as u64;
                    stats.queue_removes += 1;
                    if queue.remove_key(key).is_none() {
                        stats.queue_mismatches += 1;
                    }
                }
            }
        }
        stats.queue_ns += started.elapsed().as_nanos() as u64;
        stats.queue_ops += self.ops.len() as u64;
        self.ops.clear();

        let pex = vec![self.pex; self.finished.iter().map(|t| t.leaves).max().unwrap_or(0)];
        for task in std::mem::take(&mut self.finished) {
            if !self.decomps.contains_key(&task.leaves) {
                let template = self.template(task.leaves);
                let decomp =
                    Decomposition::from_template(Arc::clone(&template), &pex[..task.leaves]);
                self.decomps.insert(task.leaves, (template, decomp));
            }
            let (template, decomp) = self.decomps.get_mut(&task.leaves).expect("inserted above");
            // The simulator's own path: a pooled instance rebound to the
            // shared template, then the first descent and one bubble-up
            // per completed leaf, in the recorded order.
            let started = Instant::now();
            decomp.reset_from(template, &pex[..task.leaves]);
            decomp.start_into(
                task.arrival,
                task.deadline,
                &self.strategy,
                &mut self.releases,
            );
            let mut assignments = self.releases.len();
            for &(leaf, at) in &task.completions {
                decomp.complete_leaf_into(leaf, at, &self.strategy, &mut self.releases);
                assignments += self.releases.len();
            }
            self.stats.decomp_ns += started.elapsed().as_nanos() as u64;
            self.stats.tasks += 1;
            self.stats.assignments += assignments as u64;
        }
    }
}

//! The node layer: one local server with its [`ReadyQueue`], the jobs it
//! carries, and per-node accounting ([`NodeStats`]).
//!
//! A [`Node`] is deliberately dumb — it holds the queue, the job in
//! service, and its observables. *When* to dispatch, preempt, or abort
//! is orchestrated by [`crate::Simulation`]; the process-manager state
//! machine lives in [`crate::pm`].

use sda_sched::{Policy, QueuedTask, ReadyQueue};
use sda_simcore::stats::NodeStats;
use sda_simcore::{EventHandle, SimTime};

/// A local task, carried through queues by value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalJob {
    pub id: u64,
    pub ar: SimTime,
    /// The real deadline (locals are never given virtual deadlines).
    pub dl: SimTime,
    /// Total execution requirement (work units).
    pub ex: f64,
    /// Work still to be done (equals `ex` until preemption shrinks it).
    pub remaining: f64,
    /// Process-manager abort timer, if armed.
    pub timer: Option<EventHandle>,
    pub counted: bool,
}

/// A simple subtask of a global task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubtaskJob {
    pub id: u64,
    pub slot: usize,
    pub leaf: usize,
    /// Total execution requirement (work units).
    pub ex: f64,
    /// Work still to be done (equals `ex` until preemption shrinks it).
    pub remaining: f64,
}

/// Anything a node can serve.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Job {
    Local(LocalJob),
    Subtask(SubtaskJob),
}

impl Job {
    pub fn id(&self) -> u64 {
        match self {
            Job::Local(j) => j.id,
            Job::Subtask(j) => j.id,
        }
    }

    pub fn ex(&self) -> f64 {
        match self {
            Job::Local(j) => j.ex,
            Job::Subtask(j) => j.ex,
        }
    }

    pub fn remaining(&self) -> f64 {
        match self {
            Job::Local(j) => j.remaining,
            Job::Subtask(j) => j.remaining,
        }
    }

    pub fn set_remaining(&mut self, remaining: f64) {
        match self {
            Job::Local(j) => j.remaining = remaining,
            Job::Subtask(j) => j.remaining = remaining,
        }
    }
}

/// The job currently being served by a node.
#[derive(Debug)]
pub(crate) struct InService {
    pub job: Job,
    /// When this service burst started (for busy-time accounting).
    pub start: SimTime,
    /// The deadline the job was presented with (preemption compares
    /// against it).
    pub presented_dl: SimTime,
    /// When service will finish if undisturbed.
    pub completion_at: SimTime,
    pub complete: EventHandle,
    /// The local-scheduler mid-service abort timer, if armed.
    pub abort_timer: Option<EventHandle>,
}

impl InService {
    /// Work (in work units, i.e. node-speed-adjusted) performed on this
    /// job so far, across all of its service bursts, as of `now`.
    pub fn work_performed(&self, now: SimTime, speed: f64) -> f64 {
        self.job.ex() - (self.completion_at - now) * speed
    }

    /// Work still owed as of `now`, in work units.
    pub fn work_remaining(&self, now: SimTime, speed: f64) -> f64 {
        (self.completion_at - now) * speed
    }
}

/// One node: a ready queue, at most one job in service, and its
/// observables.
///
/// The queue is private: every change to its length goes through
/// [`Node::enqueue`], [`Node::pop`] or [`Node::remove_key`], which close
/// the time-weighted queue-length window at the instant of the change.
/// Accounting therefore costs O(1) per queue operation, and nothing that
/// leaves a node's queue alone ever touches its statistics.
#[derive(Debug)]
pub(crate) struct Node {
    queue: ReadyQueue<Job>,
    pub current: Option<InService>,
    /// Service speed in work units per time unit (1.0 in the paper).
    pub speed: f64,
    /// Whether the node is up. Down nodes (crash injection) never
    /// dispatch; their queues keep accumulating until recovery.
    pub up: bool,
    /// Busy time, service counts, local misses, queue length.
    pub stats: NodeStats,
}

impl Node {
    pub fn new(policy: Policy, speed: f64) -> Node {
        Node {
            queue: ReadyQueue::new(policy),
            current: None,
            speed,
            up: true,
            stats: NodeStats::new(SimTime::ZERO),
        }
    }

    /// Whether the server is idle (queue may still be non-empty when the
    /// caller is mid-teardown).
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Number of jobs waiting in the ready queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Waiting plus in-service count — the backlog least-loaded placement
    /// compares. Read only when placement is
    /// [`crate::Placement::LeastLoaded`].
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// Puts `job` into the ready queue at `now` under its id, so abortion
    /// can remove it in O(1) ([`Node::remove_key`]).
    pub fn enqueue(
        &mut self,
        now: SimTime,
        presented_dl: SimTime,
        service_estimate: f64,
        job: Job,
    ) {
        self.queue.push_keyed(
            job.id(),
            QueuedTask::new(presented_dl, service_estimate, job),
        );
        self.observe_queue(now);
    }

    /// Takes the next job per the node's policy at `now`, if any.
    pub fn pop(&mut self, now: SimTime) -> Option<QueuedTask<Job>> {
        let entry = self.queue.pop()?;
        self.observe_queue(now);
        Some(entry)
    }

    /// Removes the queued job with id `key` at `now`, if it is still
    /// waiting.
    pub fn remove_key(&mut self, now: SimTime, key: u64) -> Option<QueuedTask<Job>> {
        let entry = self.queue.remove_key(key)?;
        self.observe_queue(now);
        Some(entry)
    }

    /// Detaches the job in service, crediting its busy time to the node.
    /// The caller cancels whatever timers remain live.
    pub fn detach_current(&mut self, now: SimTime) -> Option<InService> {
        let serving = self.current.take()?;
        self.stats.add_busy(now - serving.start);
        Some(serving)
    }

    /// Closes the queue-length window at `now`: the previous length is
    /// credited for the time since the last change, and the current
    /// length starts its own interval. Called by every method that
    /// changes the length, right after the change.
    fn observe_queue(&mut self, now: SimTime) {
        self.stats.observe_queue(now, self.queue.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, ex: f64) -> Job {
        Job::Local(LocalJob {
            id,
            ar: SimTime::ZERO,
            dl: SimTime::from(10.0),
            ex,
            remaining: ex,
            timer: None,
            counted: true,
        })
    }

    #[test]
    fn backlog_counts_queue_and_server() {
        let mut node = Node::new(Policy::Edf, 1.0);
        assert!(node.is_idle());
        assert_eq!(node.backlog(), 0);
        node.enqueue(SimTime::ZERO, SimTime::from(5.0), 1.0, job(1, 1.0));
        node.enqueue(SimTime::ZERO, SimTime::from(6.0), 1.0, job(2, 1.0));
        assert_eq!(node.backlog(), 2);
        assert!(
            node.remove_key(SimTime::ZERO, 1).is_some(),
            "keyed removal works"
        );
        assert_eq!(node.backlog(), 1);
    }

    #[test]
    fn queue_length_is_accounted_where_the_queue_changes() {
        let t = SimTime::from;
        let mut node = Node::new(Policy::Edf, 1.0);
        // Length over time: 0 on [0,1), 1 on [1,2), 2 on [2,4),
        // 1 on [4,7), 0 on [7,8), 1 on [8,10].
        node.enqueue(t(1.0), t(5.0), 1.0, job(1, 1.0));
        node.enqueue(t(2.0), t(6.0), 1.0, job(2, 1.0));
        // A removal that misses leaves the window open.
        assert!(node.remove_key(t(3.0), 99).is_none());
        assert_eq!(node.stats.queue_stats().to_parts().1, t(2.0));
        let first = node.pop(t(4.0)).expect("two queued");
        assert_eq!(first.item.id(), 1, "EDF pops the earlier deadline");
        assert!(node.remove_key(t(7.0), 2).is_some());
        assert_eq!(node.queue_len(), 0);
        // An empty pop changes nothing either.
        assert!(node.pop(t(7.5)).is_none());
        assert_eq!(node.stats.queue_stats().to_parts().1, t(7.0));
        node.enqueue(t(8.0), t(9.0), 1.0, job(3, 1.0));
        // Area 0 + 1 + 4 + 3 + 0 + 2 = 10 over 10 time units.
        assert_eq!(node.stats.mean_queue_len(t(10.0)), 1.0);
        // The accumulator was last touched by the last change, at t = 8.
        let (area, last_time, last_value, _) = node.stats.queue_stats().to_parts();
        assert_eq!((area, last_time, last_value), (8.0, t(8.0), 1.0));
    }

    #[test]
    fn detach_current_credits_busy_time() {
        let mut node = Node::new(Policy::Edf, 2.0);
        assert!(node.detach_current(SimTime::from(1.0)).is_none());
        let mut engine = sda_simcore::Engine::<()>::new();
        let handle = engine.schedule(SimTime::from(4.0), ());
        node.current = Some(InService {
            job: job(1, 6.0),
            start: SimTime::from(1.0),
            presented_dl: SimTime::from(9.0),
            completion_at: SimTime::from(4.0),
            complete: handle,
            abort_timer: None,
        });
        let serving = node.detach_current(SimTime::from(3.0)).expect("serving");
        assert_eq!(node.stats.busy(), 2.0);
        // Speed 2: of 6 work units, (4-3)*2 = 2 remain at t=3.
        assert_eq!(serving.work_remaining(SimTime::from(3.0), node.speed), 2.0);
        assert_eq!(serving.work_performed(SimTime::from(3.0), node.speed), 4.0);
        assert!(node.is_idle());
    }
}

//! Fault-injection event handling: node crash/recovery and delayed
//! hand-off releases. Split out of [`super`] (the orchestration layer) —
//! same `impl Simulation`, privacy-wise a child of `simulation`.
//!
//! None of these handlers can fire in a fault-free configuration:
//! crashes are primed only when enabled, and `CommRelease` events are
//! scheduled only by a successful communication-delay draw.

use crate::fault::CrashPolicy;

use super::*;

impl Simulation {
    // ------------------------------------------------------------------
    // Node crash / recovery
    // ------------------------------------------------------------------

    pub(super) fn on_node_crash(&mut self, engine: &mut Engine<Ev>, node: usize) {
        let now = engine.now();
        self.metrics.node_crashes += 1;
        self.nodes[node].up = false;
        let repair = self.faults.next_repair_gap();
        engine.schedule_after(repair, Ev::NodeRecover { node });
        self.emit(now, TraceEvent::NodeCrashed { node });

        // The job in service (if any) is interrupted mid-burst.
        if let Some(serving) = self.nodes[node].detach_current(now) {
            engine.cancel(serving.complete);
            if let Some(timer) = serving.abort_timer {
                engine.cancel(timer);
            }
            let partial = serving.work_performed(now, self.nodes[node].speed).max(0.0);
            match self.faults.cfg.crash_policy {
                CrashPolicy::RequeueSubtask => {
                    // Restart from scratch on the same node with the same
                    // presented deadline and job id (any armed
                    // process-manager timer stays valid); the partial work
                    // is simply lost.
                    let mut job = serving.job;
                    job.set_remaining(job.ex());
                    if let Job::Subtask(sub) = &job {
                        let g = self.pm.get_mut(sub.slot).expect("live global");
                        g.leaf_state[sub.leaf] = LeafState::Queued;
                    }
                    self.metrics.crash_requeues += 1;
                    self.nodes[node].enqueue(now, serving.presented_dl, job.ex(), job);
                }
                CrashPolicy::AbortTask => {
                    self.crash_abort_job(engine, node, serving.job, partial);
                }
            }
        }

        // Under AbortTask the outage also kills everything waiting at the
        // node; under RequeueSubtask queued work just waits it out.
        if self.faults.cfg.crash_policy == CrashPolicy::AbortTask {
            while let Some(entry) = self.nodes[node].pop(now) {
                // Preemption may have left partial work behind.
                let partial = entry.item.ex() - entry.item.remaining();
                self.crash_abort_job(engine, node, entry.item, partial);
            }
        }
    }

    pub(super) fn on_node_recover(&mut self, engine: &mut Engine<Ev>, node: usize) {
        let now = engine.now();
        self.nodes[node].up = true;
        let gap = self.faults.next_failure_gap();
        engine.schedule_after(gap, Ev::NodeCrash { node });
        self.emit(now, TraceEvent::NodeRecovered { node });
        self.dispatch(engine, node);
    }

    /// Aborts one job resident on a crashing node (AbortTask policy):
    /// a local task records as missed; a subtask fails and tears down its
    /// whole global task.
    fn crash_abort_job(&mut self, engine: &mut Engine<Ev>, node: usize, job: Job, partial: f64) {
        let now = engine.now();
        self.metrics.crash_aborts += 1;
        match job {
            Job::Local(local) => {
                if let Some(timer) = local.timer {
                    engine.cancel(timer);
                }
                self.metrics.aborted_locals += 1;
                if local.counted {
                    self.metrics.record_local(true, partial, now - local.ar);
                    self.nodes[node].stats.record_local(true);
                }
                self.emit(
                    now,
                    TraceEvent::LocalFinished {
                        job: local.id,
                        missed: true,
                    },
                );
            }
            Job::Subtask(sub) => {
                // The slot is necessarily live: a task holds at most one
                // active leaf per node, and a dead task's queued leaves
                // were already removed from every queue.
                let g = self.pm.get_mut(sub.slot).expect("live global");
                g.work_done += partial;
                // Fail this leaf first so the teardown below skips it
                // (it is already out of the queue/server).
                g.leaf_state[sub.leaf] = LeafState::Failed;
                if g.counted {
                    self.metrics.record_subtask(true);
                }
                self.abort_global(engine, sub.slot);
            }
        }
    }

    // ------------------------------------------------------------------
    // Delayed hand-off releases
    // ------------------------------------------------------------------

    /// A communication-delayed release lands. Guards: the slot must still
    /// hold the same task (arrival times are unique per incarnation) and
    /// the leaf must still be awaiting release — otherwise the task was
    /// torn down while the message was in flight and the event is stale.
    pub(super) fn on_comm_release(
        &mut self,
        engine: &mut Engine<Ev>,
        slot: usize,
        leaf: usize,
        deadline_bits: u64,
        ar_bits: u64,
    ) {
        let Some(g) = self.pm.get_mut(slot) else {
            return;
        };
        if g.ar.value().to_bits() != ar_bits || g.leaf_state[leaf] != LeafState::Unreleased {
            return;
        }
        let release = Release {
            leaf,
            deadline: SimTime::from(f64::from_bits(deadline_bits)),
        };
        // Not a hand-off any more: the delay has already been paid.
        self.submit_releases(engine, slot, &[release], false);
    }
}

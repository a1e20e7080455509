//! # sda — subtask deadline assignment for distributed soft real-time tasks
//!
//! A from-scratch Rust implementation and full experimental reproduction of
//!
//! > Ben Kao and Hector Garcia-Molina. *Subtask Deadline Assignment for
//! > Complex Distributed Soft Real-Time Tasks.* ICDCS 1994.
//!
//! A complex distributed task (`[T1 [T2 ‖ T3 ‖ T4] T5]`) has one
//! end-to-end deadline, but its subtasks are scheduled by *independent*
//! per-node schedulers that only see whatever deadline each subtask is
//! submitted with. Submitting the raw end-to-end deadline (**UD**) makes
//! parallel global tasks miss far more often than local tasks — if one
//! subtask is late, the whole task is late. This crate implements the
//! paper's on-line remedies and everything needed to evaluate them:
//!
//! * [`core`] — the deadline-assignment strategies: **DIV-x**
//!   and **GF** for parallel subtasks, **EQF** (plus ED/EQS) for serial
//!   stages, and the recursive SDA algorithm for arbitrary serial-parallel
//!   graphs;
//! * [`model`] — the serial-parallel task model with a parser
//!   for the paper's bracket notation;
//! * [`sched`] — non-preemptive EDF ready queues (plus
//!   FCFS/SJF baselines);
//! * [`sim`] — the distributed-system simulator (nodes, process
//!   manager, Poisson workloads, abortion policies, metrics);
//! * [`simcore`] — the deterministic discrete-event engine
//!   underneath;
//! * [`experiments`] — a harness regenerating every
//!   table and figure in the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use sda::core::{Decomposition, SdaStrategy};
//! use sda::model::parse_spec;
//! use sda::simcore::SimTime;
//!
//! // A stock-trading pipeline: gather from 3 feeds in parallel, then
//! // analyse, then act. End-to-end deadline: 12 time units.
//! let spec = parse_spec("[[feed1 || feed2 || feed3] analyse act]")?;
//! let pex = vec![1.0, 1.0, 1.0, 2.0, 0.5]; // predicted execution times
//! let mut decomp = Decomposition::new(&spec, pex);
//!
//! // EQF for the serial stages, DIV-1 for the parallel fan-out.
//! let strategy = SdaStrategy::eqf_div1();
//! let releases = decomp.start(SimTime::ZERO, SimTime::from(12.0), &strategy);
//!
//! // The three feeds are released immediately, with virtual deadlines
//! // well before the end-to-end deadline:
//! assert_eq!(releases.len(), 3);
//! assert!(releases.iter().all(|r| r.deadline < SimTime::from(12.0)));
//! # Ok::<(), sda::model::ParseSpecError>(())
//! ```
//!
//! ## Reproducing the paper
//!
//! ```bash
//! cargo run --release -p sda-cli --bin sda -- repro                       # everything
//! cargo run --release -p sda-cli --bin sda -- repro --only fig7 --scale paper
//! cargo run --release -p sda-cli --bin sda -- repro --only checkpoints
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]

// The experiment-running surface, re-exported at the root so one
// `use sda::{Runner, StopRule};` is enough to drive simulations.
pub use sda_sim::{MultiRun, Runner, SimConfig, StatsReport, StopRule};

pub use sda_core as core;
pub use sda_experiments as experiments;
pub use sda_model as model;
pub use sda_sched as sched;
pub use sda_sim as sim;
pub use sda_simcore as simcore;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use sda_core::{
        DecompTemplate, Decomposition, EstimationModel, PspStrategy, Release, SdaStrategy,
        SspStrategy,
    };
    pub use sda_model::{parse_spec, Attrs, NodeId, TaskClass, TaskId, TaskSpec};
    pub use sda_sim::{
        seeds, AbortPolicy, GlobalShape, Metrics, MultiRun, ResubmitPolicy, RunResult, Runner,
        SimConfig, StatsReport, StopRule,
    };
    pub use sda_simcore::SimTime;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let cfg = SimConfig::baseline();
        assert_eq!(cfg.nodes, 6);
        let strategy = SdaStrategy::eqf_div1();
        assert_eq!(strategy.to_string(), "EQF-DIV1");
        let spec = parse_spec("[a || b]").unwrap();
        assert_eq!(spec, TaskSpec::parallel_simple(2));
    }
}

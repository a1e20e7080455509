//! # sda-sim — the distributed soft real-time system simulator
//!
//! An executable model of the system in §3/§5 of Kao & Garcia-Molina
//! (ICDCS 1994): `k` nodes with independent non-preemptive EDF schedulers,
//! a process manager that decomposes global deadlines into subtask virtual
//! deadlines (via [`sda_core`]), Poisson workloads of local and global
//! tasks, the three overload-management modes of §7.3, and the metrics
//! the paper reports (per-class missed-deadline fractions, fraction of
//! missed work, response times).
//!
//! The crate is layered (one module per box in the paper's Figure 2):
//!
//! | module | role |
//! |---|---|
//! | [`workload`](crate::Simulation) (private) | Poisson sources, draws, burst thinning, placement |
//! | `node` (private) | one local server: ready queue, job in service, per-node stats |
//! | `pm` (private) | the process manager's slot table of in-flight global tasks |
//! | [`Simulation`] | the orchestration tying the layers together over the engine |
//! | [`trace`] | the structured [`trace::TraceSink`] observability pipeline |
//! | [`runner`] | the single-point [`Runner`] builder, stopping rules, stats |
//! | [`fault`] | deterministic fault injection: crashes, stragglers, comm delays |
//! | [`cache`] | content-addressed memoization of completed data points |
//! | [`sweep`] | the replication engine: one work-stealing pool for every point and round |
//!
//! ```
//! use sda_core::SdaStrategy;
//! use sda_sim::{Runner, SimConfig, StopRule};
//!
//! // A quick look at the paper's headline effect: DIV-1 halves MD_global
//! // at the Table 1 baseline. Replications run on parallel threads.
//! let cfg = SimConfig::baseline().with_duration(20_000.0);
//! let ud = Runner::new(cfg.clone()).seed(1).stop(StopRule::FixedReps(2)).execute()?;
//! let div1 = Runner::new(cfg.with_strategy(SdaStrategy::ud_div1()))
//!     .seed(1)
//!     .stop(StopRule::FixedReps(2))
//!     .execute()?;
//! assert!(div1.md_global().mean < ud.md_global().mean);
//! # Ok::<(), sda_sim::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod config;
pub mod fault;
mod metrics;
mod node;
mod pm;
pub mod runner;
mod simulation;
pub mod sweep;
pub mod trace;
mod workload;

pub use cache::{CacheReport, PointCache, CACHE_SCHEMA_VERSION};
pub use config::{
    AbortPolicy, Burst, ConfigError, GlobalShape, Placement, ResubmitPolicy, ServiceShape,
    SimConfig,
};
pub use fault::{CrashPolicy, FaultConfig};
pub use metrics::Metrics;
pub use runner::{
    seeds, BatchEstimates, MultiRun, NodeSummary, RunResult, Runner, StatsReport, StopRule,
};
pub use simulation::{Ev, Simulation};
pub use sweep::{RunError, Sweep, SweepPoint};
pub use trace::{
    parse_jsonl, CountingHandle, CountingSink, FanoutSink, JsonlSink, RingBufferHandle,
    RingBufferSink, SharedSink, TraceCounts, TraceEvent, TraceRecord, TraceSink,
};

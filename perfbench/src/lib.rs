//! # sda-perfbench — the repository's benchmark
//!
//! Drives the simulator's public library APIs (`sda-simcore`,
//! `sda-sched`, `sda-core`, `sda-sim`, `sda-experiments`) over four
//! workloads and times the calls from here. A timed run prints the
//! end-to-end metrics; a traced run attaches instruments from outside
//! the program and prints the per-layer table. See README.md.

#![warn(missing_docs)]

pub mod digest;
pub mod probe;
pub mod replay;
pub mod report;
pub mod workloads;

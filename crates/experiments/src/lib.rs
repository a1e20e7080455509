//! # sda-experiments — the reproduction harness
//!
//! One function per table and figure of Kao & Garcia-Molina (ICDCS
//! 1994), plus the in-text numeric checkpoints, the ablations and
//! extensions listed in `DESIGN.md`, and the executable claims. Each
//! function runs the simulator at a chosen [`Scale`] and returns both the
//! raw series (for tests and perfbench) and a rendered [`Table`] matching
//! the rows/series the paper plots.
//!
//! `sda repro` renders all of them through one registry
//! ([`repro::REGISTRY`]); `sda repro --only NAME[,NAME...]` renders a
//! selection:
//!
//! | Paper artifact | Function | `--only` name |
//! |---|---|---|
//! | Table 1 (baseline setting) | [`tables::table1`] | `table1` |
//! | Table 2 (SSP × PSP combinations) | [`tables::table2`] | `table2` |
//! | Figure 5 (UD baseline) | [`figures::fig5`] | `fig5` |
//! | Figure 6 (UD vs DIV-1 vs DIV-2) | [`figures::fig6`] | `fig6` |
//! | Figure 7 (UD, DIV-1, GF) | [`figures::fig7`] | `fig7` |
//! | Figure 9 (MD vs x, n ∈ {2,4,6}) | [`figures::fig9`] | `fig9` |
//! | Figure 10 (frac_local sweeps) | [`figures::fig10`] | `fig10` |
//! | Figure 11 (PM abortion) | [`figures::fig11`] | `fig11` |
//! | Figure 12 (per-class MD, n uniform in 2..6) | [`figures::fig12`] | `fig12` |
//! | Figure 15 (SDA combos on Figure 14 graph) | [`figures::fig15`] | `fig15` |
//! | §6.1/§7.3 in-text numbers | [`checkpoints::run`] | `checkpoints` |
//! | Ablations A1–A10 | [`ablations`] | `a1_local_abort` … `a10_burstiness` |
//! | Extension E1 (serial stage count) | [`extensions::stage_sweep`] | `e1_stages` |
//! | Extension E2 (slack tightness) | [`extensions::slack_sweep`] | `e2_slack` |
//! | Fault robustness F1 | [`faults::mttf_sweep`] | `f1_faults` |
//! | Reproduction claims | [`claims::validate`] | `claims` |
//!
//! Figures 8 and 13 are deterministic illustrations rather than
//! measurements; the root package's `fig8_queue_position` and
//! `fig13_sda_walk` examples print them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod chart;
pub mod checkpoints;
pub mod claims;
pub mod extensions;
pub mod faults;
pub mod figures;
pub mod gantt;
pub mod repro;
pub mod run;
pub mod scale;
pub mod table;
pub mod tables;

pub use scale::Scale;
pub use table::Table;

/// The standard load sweep the paper's load–MD figures use.
pub const LOAD_SWEEP: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Formats an [`sda_simcore::stats::Estimate`] of a rate as a percentage
/// with its 95% half-width.
pub fn pct(e: sda_simcore::stats::Estimate) -> String {
    format!("{:5.2}% ±{:.2}", 100.0 * e.mean, 100.0 * e.half_width)
}

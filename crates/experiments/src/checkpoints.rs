//! The paper's in-text numeric checkpoints (§6.1 and §7.3).
//!
//! These are the places where the paper quotes specific numbers at the
//! baseline load of 0.5; the harness reruns them and prints paper vs
//! measured side by side. Absolute agreement is expected here because the
//! model is fully specified (M/M/1-style nodes, EDF, Table 1 parameters).

use sda_core::analysis::global_miss_probability;
use sda_core::SdaStrategy;
use sda_sim::{AbortPolicy, SimConfig};

use crate::run::{run_points, Point};
use crate::scale::Scale;
use crate::table::Table;

/// One checkpoint: a quantity the paper states in prose.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Where in the paper the number appears.
    pub source: &'static str,
    /// What is measured.
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Checkpoint {
    /// Absolute difference between measured and paper value.
    pub fn abs_error(&self) -> f64 {
        (self.measured - self.paper).abs()
    }
}

/// Runs all §6.1/§7.3 checkpoints at the baseline point (load 0.5).
pub fn run(scale: Scale) -> (Table, Vec<Checkpoint>) {
    // Common random numbers: the campaign seed (hence the same derived
    // replication seeds) across all four configurations. All four points
    // re-measure cells that also appear in figures 5–7 and 11, so under
    // the sweep engine's cache they usually resolve without simulating.
    let reps = scale.replications().max(2);
    let abort_cfg = SimConfig {
        abort: AbortPolicy::ProcessManager,
        ..SimConfig::baseline()
    };
    let results = run_points(&[
        // §6.1, UD at load 0.5.
        Point::new(scale.apply(SimConfig::baseline()), reps),
        // §6.1, DIV-1 at load 0.5.
        Point::new(
            scale
                .apply(SimConfig::baseline())
                .with_strategy(SdaStrategy::ud_div1()),
            reps,
        ),
        // §7.3, process-manager abortion at load 0.5.
        Point::new(scale.apply(abort_cfg.clone()), reps),
        Point::new(
            scale.apply(abort_cfg).with_strategy(SdaStrategy::ud_div1()),
            reps,
        ),
    ]);
    let [ud, div1, ud_abort, div1_abort]: [_; 4] =
        results.try_into().expect("four points in, four out");

    let subtask_p = ud.md_subtask().mean;
    let checkpoints = vec![
        Checkpoint {
            source: "§6.1",
            name: "MD_local under UD",
            paper: 0.089,
            measured: ud.md_local().mean,
        },
        Checkpoint {
            source: "§6.1",
            name: "MD_subtask under UD",
            paper: 0.071,
            measured: subtask_p,
        },
        Checkpoint {
            source: "§6.1",
            name: "MD_global under UD",
            paper: 0.25,
            measured: ud.md_global().mean,
        },
        Checkpoint {
            source: "§6.1",
            name: "independence prediction 1-(1-p)^4",
            paper: 0.255,
            measured: global_miss_probability(subtask_p, 4),
        },
        Checkpoint {
            source: "§6.1",
            name: "MD_local under DIV-1",
            paper: 0.117,
            measured: div1.md_local().mean,
        },
        Checkpoint {
            source: "§6.1",
            name: "MD_global under DIV-1",
            paper: 0.13,
            measured: div1.md_global().mean,
        },
        Checkpoint {
            source: "§6.1",
            name: "fraction of missed work under UD",
            paper: 0.13,
            measured: ud.missed_work().mean,
        },
        Checkpoint {
            source: "§6.1",
            name: "fraction of missed work under DIV-1",
            paper: 0.12,
            measured: div1.missed_work().mean,
        },
        Checkpoint {
            source: "§7.3",
            name: "MD_global under UD with PM abortion",
            paper: 0.15,
            measured: ud_abort.md_global().mean,
        },
        Checkpoint {
            source: "§7.3",
            name: "MD_global under DIV-1 with PM abortion",
            paper: 0.078,
            measured: div1_abort.md_global().mean,
        },
    ];

    let mut table = Table::new(
        "In-text checkpoints at load 0.5 (paper vs measured)",
        &["source", "quantity", "paper", "measured", "abs err"],
    );
    for c in &checkpoints {
        table.row(&[
            c.source.to_string(),
            c.name.to_string(),
            format!("{:5.1}%", 100.0 * c.paper),
            format!("{:5.1}%", 100.0 * c.measured),
            format!("{:4.1}pp", 100.0 * c.abs_error()),
        ]);
    }
    (table, checkpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_match_paper_within_tolerance() {
        // At Quick scale the CI is a couple of percentage points; the
        // paper's numbers must still be in that neighbourhood. The tight
        // quantitative comparison is `sda repro --only checkpoints` at
        // default/paper scale.
        let (_table, cps) = run(Scale::Quick);
        for c in &cps {
            assert!(
                c.abs_error() < 0.05,
                "{} ({}): paper {:.3} vs measured {:.3}",
                c.name,
                c.source,
                c.paper,
                c.measured
            );
        }
    }

    #[test]
    fn table_lists_all_checkpoints() {
        let (table, cps) = run(Scale::Quick);
        assert_eq!(table.row_count(), cps.len());
        assert_eq!(cps.len(), 10);
    }
}

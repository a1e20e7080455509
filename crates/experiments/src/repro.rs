//! The reproduction as a library: the registry of every artifact
//! `sda repro` renders, shared with the determinism test and the
//! benchmarks.

use crate::claims::ClaimResult;
use crate::figures::FigureResult;
use crate::table::Table;
use crate::{ablations, checkpoints, claims, extensions, faults, figures, tables, Scale};

/// What one artifact renders.
#[derive(Debug)]
pub enum Artifact {
    /// A table and nothing else.
    Table(Table),
    /// A figure's table and curves, with the x-axis label `--plot` uses.
    Figure(FigureResult, &'static str),
    /// The claim checks, whose table is their verdicts.
    Claims(Vec<ClaimResult>),
}

impl Artifact {
    /// The artifact's report table.
    pub fn into_table(self) -> Table {
        match self {
            Artifact::Table(table) => table,
            Artifact::Figure(figure, _) => figure.table,
            Artifact::Claims(results) => claims::render(&results),
        }
    }
}

/// Renders one artifact at a scale.
pub type Render = fn(Scale) -> Artifact;

/// Every artifact of the reproduction, in report order, under the name
/// `--only` selects it by and `--out` writes it to (`DIR/<name>.csv`).
pub const REGISTRY: [(&str, Render); 25] = [
    ("table1", |_| Artifact::Table(tables::table1())),
    ("table2", |_| Artifact::Table(tables::table2())),
    ("fig5", |s| Artifact::Figure(figures::fig5(s), "load")),
    ("fig6", |s| Artifact::Figure(figures::fig6(s), "load")),
    ("fig7", |s| Artifact::Figure(figures::fig7(s), "load")),
    ("fig9", |s| {
        Artifact::Figure(figures::fig9(s), "x (DIV-x factor)")
    }),
    ("fig10", |s| {
        Artifact::Figure(figures::fig10(s), "frac_local")
    }),
    ("fig11", |s| Artifact::Figure(figures::fig11(s), "load")),
    ("fig12", |s| {
        Artifact::Figure(figures::fig12(s), "task class (0 = local, else n)")
    }),
    ("fig15", |s| Artifact::Figure(figures::fig15(s), "load")),
    ("checkpoints", |s| Artifact::Table(checkpoints::run(s).0)),
    ("a1_local_abort", |s| {
        Artifact::Table(ablations::local_abort(s))
    }),
    ("a2_sched", |s| {
        Artifact::Table(ablations::sched_policies(s))
    }),
    ("a3_ssp", |s| Artifact::Table(ablations::ssp_family(s))),
    ("a4_pex_error", |s| Artifact::Table(ablations::pex_error(s))),
    ("a5_gf_delta", |s| Artifact::Table(ablations::gf_delta(s))),
    ("a6_heterogeneous", |s| {
        Artifact::Table(ablations::heterogeneous_nodes(s))
    }),
    ("a7_preemption", |s| {
        Artifact::Table(ablations::preemption(s))
    }),
    ("a8_service_shape", |s| {
        Artifact::Table(ablations::service_shapes(s))
    }),
    ("a9_placement", |s| Artifact::Table(ablations::placement(s))),
    ("a10_burstiness", |s| {
        Artifact::Table(ablations::burstiness(s))
    }),
    ("e1_stages", |s| {
        Artifact::Table(extensions::stage_sweep(s).0)
    }),
    ("e2_slack", |s| {
        Artifact::Table(extensions::slack_sweep(s).0)
    }),
    ("f1_faults", |s| Artifact::Table(faults::mttf_sweep(s).0)),
    // The claim checks re-measure cells from the figures and checkpoints
    // above, so under the sweep engine's cache they render without
    // simulating anything new.
    ("claims", |s| Artifact::Claims(claims::validate(s))),
];

/// Renders the registry entries named in `only` (every entry if it is
/// empty) at the given scale, lazily and in registry order. Progress goes
/// to stderr so stdout stays a clean report.
pub fn render<'a>(
    scale: Scale,
    only: &'a [&str],
) -> impl Iterator<Item = (&'static str, Artifact)> + 'a {
    REGISTRY
        .iter()
        .filter(move |(name, _)| only.is_empty() || only.contains(name))
        .map(move |&(name, run)| {
            eprintln!("running {name}...");
            (name, run(scale))
        })
}

/// Runs every table, figure, checkpoint, ablation, extension, and claim
/// check at the given scale, returning the named tables in report order.
pub fn artifacts(scale: Scale) -> Vec<(&'static str, Table)> {
    render(scale, &[])
        .map(|(name, artifact)| (name, artifact.into_table()))
        .collect()
}

/// Writes each artifact to `DIR/<name>.csv`.
///
/// # Errors
///
/// Returns the first write error, naming the file.
pub fn write_csvs(dir: &std::path::Path, artifacts: &[(&str, Table)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, table) in artifacts {
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_pins_the_campaign_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "fig5",
                "fig6",
                "fig7",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig15",
                "checkpoints",
                "a1_local_abort",
                "a2_sched",
                "a3_ssp",
                "a4_pex_error",
                "a5_gf_delta",
                "a6_heterogeneous",
                "a7_preemption",
                "a8_service_shape",
                "a9_placement",
                "a10_burstiness",
                "e1_stages",
                "e2_slack",
                "f1_faults",
                "claims",
            ]
        );
    }

    #[test]
    fn only_renders_the_selection_in_registry_order() {
        let rendered: Vec<(&str, Table)> = render(Scale::Quick, &["table2", "table1"])
            .map(|(name, artifact)| (name, artifact.into_table()))
            .collect();
        assert_eq!(
            rendered,
            [("table1", tables::table1()), ("table2", tables::table2())]
        );
    }
}

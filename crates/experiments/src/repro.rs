//! The reproduction as a library: the registry of every artifact `repro`
//! renders, and the `repro` binary's argument parsing, shared with the
//! determinism test and the benchmarks.

use std::path::PathBuf;

use crate::claims::ClaimResult;
use crate::figures::FigureResult;
use crate::run::{cache_report, install, Exec};
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

/// The `repro` usage text, naming every artifact `--only` accepts.
pub fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [--scale quick|default|paper] [--only NAME[,NAME...]] [--plot] \
         [--out DIR] [--cache-dir DIR | --no-cache]\n\
         artifact names: {}",
        names.join(", ")
    )
}

/// Parsed `repro` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Experiment scale (`--scale quick|default|paper`, default
    /// `default`).
    pub scale: Scale,
    /// The artifacts to render (`--only NAME[,NAME...]`), in registry
    /// order without repeats; empty renders every artifact.
    pub only: Vec<&'static str>,
    /// Print an ASCII chart after each figure (`--plot`).
    pub plot: bool,
    /// Directory to write per-artifact CSVs into (`--out DIR`).
    pub out: Option<PathBuf>,
    /// On-disk result cache directory (`--cache-dir DIR`), making
    /// repeated reproductions incremental.
    pub cache_dir: Option<PathBuf>,
    /// Disable result caching entirely (`--no-cache`).
    pub no_cache: bool,
}

/// Parses the `repro` argument list.
///
/// # Errors
///
/// Returns a message naming the offending flag or value: a flag missing
/// its value, an unknown scale or artifact name, `--cache-dir` combined
/// with `--no-cache`, or an unrecognized argument.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::Default,
        only: Vec::new(),
        plot: false,
        out: None,
        cache_dir: None,
        no_cache: false,
    };
    let mut requested = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale needs a value")?;
                options.scale = Scale::parse(value)?;
            }
            "--only" => {
                let value = iter.next().ok_or("--only needs artifact names")?;
                for name in value.split(',') {
                    if !REGISTRY.iter().any(|(known, _)| *known == name) {
                        return Err(format!("--only: unknown artifact {name:?}"));
                    }
                    requested.push(name);
                }
            }
            "--plot" => options.plot = true,
            "--out" => {
                options.out = Some(PathBuf::from(iter.next().ok_or("--out needs a directory")?));
            }
            "--cache-dir" => {
                options.cache_dir = Some(PathBuf::from(
                    iter.next().ok_or("--cache-dir needs a directory")?,
                ));
            }
            "--no-cache" => options.no_cache = true,
            other => {
                // A bare scale name is shorthand for `--scale` (`repro quick`).
                options.scale =
                    Scale::parse(other).map_err(|_| format!("unrecognized argument {other:?}"))?;
            }
        }
    }
    if options.no_cache && options.cache_dir.is_some() {
        return Err("--no-cache conflicts with --cache-dir".to_string());
    }
    options.only = REGISTRY
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| requested.contains(name))
        .collect();
    Ok(options)
}

/// Installs the process-wide execution mode the options ask for.
///
/// # Errors
///
/// Returns the error from creating the cache directory.
pub fn install_exec(options: &Options) -> std::io::Result<()> {
    let exec = if options.no_cache {
        Exec::sweep_uncached()
    } else if let Some(dir) = &options.cache_dir {
        Exec::sweep_with_dir(dir)?
    } else {
        Exec::sweep()
    };
    install(exec);
    Ok(())
}

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

/// The cache hit/miss summary line printed (and greppable by CI) after a
/// reproduction, e.g.
/// `cache: 120/155 points hit (77.4% — memory 120, disk 0), 35 simulated`.
pub fn cache_summary() -> Option<String> {
    cache_report().map(|r| r.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_all_flags() {
        let options = parse_args(&args(&[
            "--scale",
            "quick",
            "--only",
            "fig5",
            "--plot",
            "--out",
            "report",
            "--cache-dir",
            "cache",
        ]))
        .unwrap();
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(options.only, ["fig5"]);
        assert!(options.plot);
        assert_eq!(options.out.as_deref(), Some(std::path::Path::new("report")));
        assert_eq!(
            options.cache_dir.as_deref(),
            Some(std::path::Path::new("cache"))
        );
        assert!(!options.no_cache);

        // `--only` lists come back in registry order without repeats.
        for (argv, only) in [
            (args(&[]), vec![]),
            (
                args(&["--only", "claims,fig6,table1"]),
                vec!["table1", "fig6", "claims"],
            ),
            (args(&["--only", "fig5,fig5"]), vec!["fig5"]),
            (
                args(&["--only", "e2_slack", "--only", "fig5"]),
                vec!["fig5", "e2_slack"],
            ),
        ] {
            assert_eq!(parse_args(&argv).unwrap().only, only, "{argv:?}");
        }
    }

    #[test]
    fn parse_errors_name_the_flag() {
        for (argv, needle) in [
            (args(&["--out"]), "--out"),
            (args(&["--scale"]), "--scale"),
            (args(&["--cache-dir"]), "--cache-dir"),
            (args(&["--only"]), "--only"),
            (args(&["--only", "fig5,nope"]), "\"nope\""),
            (args(&["--scale", "galactic"]), "galactic"),
            (args(&["--frobnicate"]), "--frobnicate"),
            (args(&["--csv"]), "--csv"),
            (args(&["--no-cache", "--cache-dir", "d"]), "--no-cache"),
        ] {
            let err = parse_args(&argv).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        }
    }

    #[test]
    fn parse_accepts_bare_scale() {
        assert_eq!(parse_args(&args(&["paper"])).unwrap().scale, Scale::Paper);
        assert_eq!(parse_args(&args(&[])).unwrap().scale, Scale::Default);
    }

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
        for (name, _) in REGISTRY {
            assert!(usage().contains(name), "usage should list {name}");
        }
    }

    #[test]
    fn only_renders_the_selection_in_registry_order() {
        let options = parse_args(&args(&["--only", "table2,table1"])).unwrap();
        let rendered: Vec<(&str, Table)> = render(Scale::Quick, &options.only)
            .map(|(name, artifact)| (name, artifact.into_table()))
            .collect();
        assert_eq!(
            rendered,
            [("table1", tables::table1()), ("table2", tables::table2())]
        );
    }
}

//! Executable reproduction claims: every qualitative statement the paper
//! makes about its figures, as pass/fail checks runnable at any scale.
//!
//! `sda repro --only claims` runs these, prints a report, and exits 1 if any
//! fails; the CI-sized versions of the same assertions live in the
//! repository's integration tests at [`Scale::Quick`]. Running at [`Scale::Paper`] verifies the
//! reproduction with the paper's own statistical weight.

use sda_core::analysis::global_miss_probability;

use crate::checkpoints;
use crate::figures::{self, FigureResult};
use crate::scale::Scale;
use crate::table::Table;

/// The outcome of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Claim identifier (`fig7/gf-wins`, ...).
    pub id: &'static str,
    /// The paper's statement being checked.
    pub claim: &'static str,
    /// Whether the reproduction satisfies it.
    pub pass: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

fn check(
    out: &mut Vec<ClaimResult>,
    id: &'static str,
    claim: &'static str,
    pass: bool,
    detail: String,
) {
    out.push(ClaimResult {
        id,
        claim,
        pass,
        detail,
    });
}

fn fig5_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let s = &fig.series[0];
    let p5 = s.at_load(0.5).expect("load 0.5 in sweep");
    check(
        out,
        "fig5/amplification",
        "under UD, global tasks miss ~3x as often as locals at load 0.5 (§6.1)",
        p5.md_global.mean > 2.0 * p5.md_local.mean && p5.md_global.mean < 4.5 * p5.md_local.mean,
        format!(
            "MD_global {:.3} vs MD_local {:.3} ({:.1}x)",
            p5.md_global.mean,
            p5.md_local.mean,
            p5.md_global.mean / p5.md_local.mean
        ),
    );
    let worst = s
        .points
        .iter()
        .filter(|p| p.load <= 0.7)
        .map(|p| (p.md_global.mean - global_miss_probability(p.md_subtask.mean, 4)).abs())
        .fold(0.0, f64::max);
    check(
        out,
        "fig5/independence",
        "measured MD_global tracks 1-(1-p)^4 (§6.1: \"not far from what we obtained\")",
        worst < 0.03,
        format!(
            "max |measured - predicted| = {:.3} over loads <= 0.7",
            worst
        ),
    );
    check(
        out,
        "fig5/subtask-slack-bonus",
        "subtasks do slightly better than locals under UD (Equation 3)",
        p5.md_subtask.mean < p5.md_local.mean,
        format!(
            "MD_subtask {:.3} < MD_local {:.3}",
            p5.md_subtask.mean, p5.md_local.mean
        ),
    );
}

fn fig6_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let (ud, div1, div2) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    let at = |s: &figures::Series, l: f64| s.at_load(l).expect("load in sweep").md_global.mean;
    check(
        out,
        "fig6/div1-halves",
        "DIV-1 roughly halves MD_global at load 0.5 (§6.1: 25% -> 13%)",
        at(div1, 0.5) < 0.65 * at(ud, 0.5),
        format!("UD {:.3} -> DIV-1 {:.3}", at(ud, 0.5), at(div1, 0.5)),
    );
    check(
        out,
        "fig6/div2-similar",
        "DIV-2 is hardly different from DIV-1 except at very high load (§6.1)",
        (at(div1, 0.5) - at(div2, 0.5)).abs() < 0.03
            && (at(div1, 0.7) - at(div2, 0.7)).abs() < 0.05,
        format!(
            "load 0.5: {:.3} vs {:.3}; load 0.7: {:.3} vs {:.3}",
            at(div1, 0.5),
            at(div2, 0.5),
            at(div1, 0.7),
            at(div2, 0.7)
        ),
    );
}

fn fig7_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let (ud, div1, gf) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    let g = |s: &figures::Series, l: f64| s.at_load(l).expect("load in sweep").md_global.mean;
    let l = |s: &figures::Series, l: f64| s.at_load(l).expect("load in sweep").md_local.mean;
    check(
        out,
        "fig7/gf-wins-high-load",
        "GF beats DIV-1 on globals, especially under high load (§6.1)",
        g(gf, 0.6) < g(div1, 0.6) && (g(div1, 0.8) - g(gf, 0.8)) > (g(div1, 0.5) - g(gf, 0.5)),
        format!(
            "gaps: load 0.5 {:.3}, load 0.8 {:.3}",
            g(div1, 0.5) - g(gf, 0.5),
            g(div1, 0.8) - g(gf, 0.8)
        ),
    );
    check(
        out,
        "fig7/gf-free-for-locals",
        "GF and DIV-1 miss approximately the same number of local tasks (§6.1)",
        (0.5..=0.8).step_check(|load| (l(gf, load) - l(div1, load)).abs() < 0.02),
        format!(
            "max local gap {:.3}",
            [0.5, 0.6, 0.7, 0.8]
                .iter()
                .map(|&x| (l(gf, x) - l(div1, x)).abs())
                .fold(0.0, f64::max)
        ),
    );
    let _ = ud;
}

/// Tiny helper trait so the claim above reads naturally.
trait StepCheck {
    fn step_check(&self, f: impl Fn(f64) -> bool) -> bool;
}

impl StepCheck for std::ops::RangeInclusive<f64> {
    fn step_check(&self, f: impl Fn(f64) -> bool) -> bool {
        let mut x = *self.start();
        while x <= *self.end() + 1e-9 {
            if !f(x) {
                return false;
            }
            x += 0.1;
        }
        true
    }
}

fn fig9_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let mut flat = true;
    let mut near = true;
    let mut detail = String::new();
    for series in &fig.series {
        let at = |x: f64| series.at_load(x).expect("x in sweep").md_global.mean;
        flat &= (at(4.0) - at(8.0)).abs() < 0.03;
        near &= (at(1.0) - at(8.0)).abs() < 0.05;
        detail.push_str(&format!(
            "{}: x=1 {:.3}, x=4 {:.3}, x=8 {:.3}; ",
            series.label,
            at(1.0),
            at(4.0),
            at(8.0)
        ));
    }
    check(
        out,
        "fig9/flattens",
        "MD curves flatten as x grows and x = 1 is usually adequate (§7.1)",
        flat && near,
        detail,
    );
}

fn fig10_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let (ud, div1, gf) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    let g0_ud = ud.at_load(0.0).expect("frac 0").md_global.mean;
    let g0_gf = gf.at_load(0.0).expect("frac 0").md_global.mean;
    check(
        out,
        "fig10/gf-equals-ud-no-locals",
        "with frac_local = 0, GF performs exactly as UD (§7.2)",
        (g0_ud - g0_gf).abs() < 1e-12,
        format!("UD {:.4} vs GF {:.4}", g0_ud, g0_gf),
    );
    let gain = |s: &figures::Series, f: f64| {
        ud.at_load(f).expect("frac in sweep").md_global.mean
            - s.at_load(f).expect("frac in sweep").md_global.mean
    };
    check(
        out,
        "fig10/gains-grow-with-locals",
        "DIV-x and GF are most effective with a large local population (§7.2)",
        gain(div1, 0.9) > gain(div1, 0.3) && gain(gf, 0.9) > gain(gf, 0.3),
        format!(
            "DIV-1 gain 0.3 -> 0.9: {:.3} -> {:.3}; GF: {:.3} -> {:.3}",
            gain(div1, 0.3),
            gain(div1, 0.9),
            gain(gf, 0.3),
            gain(gf, 0.9)
        ),
    );
}

fn fig11_claims(fig: &FigureResult, no_abort: &FigureResult, out: &mut Vec<ClaimResult>) {
    let g = |f: &FigureResult, i: usize, l: f64| {
        f.series[i]
            .at_load(l)
            .expect("load in sweep")
            .md_global
            .mean
    };
    check(
        out,
        "fig11/abort-helps-everyone",
        "abortion reduces all miss rates by not wasting resources on tardy tasks (§7.3)",
        g(fig, 0, 0.8) < g(no_abort, 0, 0.8) && g(fig, 1, 0.8) < g(no_abort, 1, 0.8),
        format!(
            "UD at 0.8: {:.3} -> {:.3}; DIV-1: {:.3} -> {:.3}",
            g(no_abort, 0, 0.8),
            g(fig, 0, 0.8),
            g(no_abort, 1, 0.8),
            g(fig, 1, 0.8)
        ),
    );
    check(
        out,
        "fig11/gf-overlaps-div1",
        "under PM abortion GF performs very similarly to DIV-1 (§7.3)",
        (g(fig, 2, 0.5) - g(fig, 1, 0.5)).abs() < 0.02,
        format!(
            "DIV-1 {:.3} vs GF {:.3} at load 0.5",
            g(fig, 1, 0.5),
            g(fig, 2, 0.5)
        ),
    );
}

fn fig12_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let (ud, div1, gf) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    let n6 = ud.points[5].md_global.mean;
    let local = ud.points[0].md_global.mean;
    check(
        out,
        "fig12/n6-one-third",
        "under UD, a 6-subtask global misses about one third of deadlines, ~4x the locals (§7.4)",
        (0.25..0.42).contains(&n6) && n6 > 2.5 * local,
        format!("n=6 {:.3}, local {:.3} ({:.1}x)", n6, local, n6 / local),
    );
    let spread = |s: &figures::Series| {
        let rates: Vec<f64> = (1..=5).map(|i| s.points[i].md_global.mean).collect();
        rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min)
    };
    check(
        out,
        "fig12/div1-equalizes",
        "DIV-1 keeps the MD of all task classes at roughly the same level (§7.4)",
        spread(div1) < 0.5 * spread(ud),
        format!(
            "class spread: UD {:.3}, DIV-1 {:.3}",
            spread(ud),
            spread(div1)
        ),
    );
    let gf_better =
        (1..=5).all(|i| gf.points[i].md_global.mean <= div1.points[i].md_global.mean + 0.01);
    check(
        out,
        "fig12/gf-reduces-further",
        "GF further reduces global miss rates to even lower values (§7.4)",
        gf_better,
        format!(
            "n=4: DIV-1 {:.3} vs GF {:.3}",
            div1.points[3].md_global.mean, gf.points[3].md_global.mean
        ),
    );
}

fn fig15_claims(fig: &FigureResult, out: &mut Vec<ClaimResult>) {
    let g = |i: usize, l: f64| {
        fig.series[i]
            .at_load(l)
            .expect("load in sweep")
            .md_global
            .mean
    };
    check(
        out,
        "fig15/additive",
        "EQF and DIV-1 complement each other; together they dominate (§8)",
        g(1, 0.6) < g(0, 0.6)
            && g(2, 0.6) < g(0, 0.6)
            && g(3, 0.6) < g(1, 0.6)
            && g(3, 0.6) < g(2, 0.6),
        format!(
            "at load 0.6: UD-UD {:.3}, UD-DIV1 {:.3}, EQF-UD {:.3}, EQF-DIV1 {:.3}",
            g(0, 0.6),
            g(1, 0.6),
            g(2, 0.6),
            g(3, 0.6)
        ),
    );
    let p1 = fig.series[0].at_load(0.1).expect("low load");
    check(
        out,
        "fig15/low-load-slack",
        "at low load global tasks miss slightly less than locals, thanks to their larger slack (§8)",
        p1.md_global.mean <= p1.md_local.mean + 0.005,
        format!(
            "load 0.1: MD_global {:.4} vs MD_local {:.4}",
            p1.md_global.mean, p1.md_local.mean
        ),
    );
    let p6 = fig.series[3].at_load(0.6).expect("load 0.6");
    check(
        out,
        "fig15/close-to-locals",
        "EQF-DIV1 keeps MD_global close to MD_local up to load 0.6 (§8)",
        p6.md_global.mean < p6.md_local.mean + 0.06,
        format!(
            "load 0.6: MD_global {:.3} vs MD_local {:.3}",
            p6.md_global.mean, p6.md_local.mean
        ),
    );
}

/// Runs every figure at `scale` and evaluates all reproduction claims.
pub fn validate(scale: Scale) -> Vec<ClaimResult> {
    let mut out = Vec::new();
    fig5_claims(&figures::fig5(scale), &mut out);
    fig6_claims(&figures::fig6(scale), &mut out);
    let fig7 = figures::fig7(scale);
    fig7_claims(&fig7, &mut out);
    fig9_claims(&figures::fig9(scale), &mut out);
    fig10_claims(&figures::fig10(scale), &mut out);
    fig11_claims(&figures::fig11(scale), &fig7, &mut out);
    fig12_claims(&figures::fig12(scale), &mut out);
    fig15_claims(&figures::fig15(scale), &mut out);

    // The in-text numeric checkpoints, each within 3pp of the paper.
    let (_, checkpoints) = checkpoints::run(scale);
    for c in checkpoints {
        let pass = c.abs_error() < 0.03;
        out.push(ClaimResult {
            id: "checkpoint",
            claim: c.name,
            pass,
            detail: format!(
                "paper {:.3}, measured {:.3} ({:+.1}pp)",
                c.paper,
                c.measured,
                100.0 * (c.measured - c.paper)
            ),
        });
    }
    out
}

/// Renders claim results as a table.
pub fn render(results: &[ClaimResult]) -> Table {
    let mut table = Table::new(
        "Reproduction claims (paper statement vs measurement)",
        &["verdict", "id", "claim", "measured"],
    );
    for r in results {
        table.row(&[
            if r.pass { "PASS" } else { "FAIL" }.to_string(),
            r.id.to_string(),
            r.claim.to_string(),
            r.detail.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_pass_at_quick_scale() {
        let results = validate(Scale::Quick);
        assert!(results.len() >= 20, "expected a rich claim set");
        let failures: Vec<&ClaimResult> = results.iter().filter(|r| !r.pass).collect();
        assert!(
            failures.is_empty(),
            "failing claims: {:#?}",
            failures
                .iter()
                .map(|r| format!("{}: {} ({})", r.id, r.claim, r.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn render_lists_every_claim() {
        let results = vec![
            ClaimResult {
                id: "demo",
                claim: "demo claim",
                pass: true,
                detail: "x".into(),
            },
            ClaimResult {
                id: "demo2",
                claim: "other claim",
                pass: false,
                detail: "y".into(),
            },
        ];
        let t = render(&results);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, 0), Some("PASS"));
        assert_eq!(t.cell(1, 0), Some("FAIL"));
    }
}

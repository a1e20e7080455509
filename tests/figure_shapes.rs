//! Qualitative figure-shape assertions: every claim the paper makes about
//! who wins where, asserted against quick-scale reproductions of the
//! actual figures. (Absolute values are compared in `EXPERIMENTS.md` and
//! by `sda repro --only checkpoints`; these tests pin down the *shape*.)

use sda::experiments::figures;
use sda::experiments::Scale;

#[test]
fn fig5_ud_amplifies_global_misses_across_the_sweep() {
    let fig = figures::fig5(Scale::Quick);
    let s = &fig.series[0];
    for p in &s.points {
        if p.load >= 0.3 {
            assert!(
                p.md_global.mean > 1.5 * p.md_local.mean,
                "load {}: global {} local {}",
                p.load,
                p.md_global.mean,
                p.md_local.mean
            );
        }
    }
    // Monotone-ish growth with load: compare endpoints.
    assert!(s.points.last().unwrap().md_global.mean > s.points[2].md_global.mean);
}

#[test]
fn fig6_div1_and_div2_are_close_and_both_beat_ud() {
    let fig = figures::fig6(Scale::Quick);
    let (ud, div1, div2) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    for load in [0.5, 0.7] {
        let ud_g = ud.at_load(load).unwrap().md_global.mean;
        let d1_g = div1.at_load(load).unwrap().md_global.mean;
        let d2_g = div2.at_load(load).unwrap().md_global.mean;
        assert!(d1_g < ud_g, "DIV-1 beats UD at load {load}");
        assert!(d2_g < ud_g, "DIV-2 beats UD at load {load}");
        // "The difference between their performance is hardly noticeable"
        // — within a few points of each other at moderate load.
        assert!(
            (d1_g - d2_g).abs() < 0.05,
            "DIV-1 {d1_g} vs DIV-2 {d2_g} at load {load}"
        );
    }
    // DIV raises the local miss rate relative to UD (the price paid).
    let ud_l = ud.at_load(0.5).unwrap().md_local.mean;
    let d1_l = div1.at_load(0.5).unwrap().md_local.mean;
    assert!(d1_l > ud_l);
}

#[test]
fn fig7_gf_wins_and_locals_pay_no_more_than_under_div1() {
    let fig = figures::fig7(Scale::Quick);
    let (div1, gf) = (&fig.series[1], &fig.series[2]);
    // "both of them miss approximately the same number of local tasks
    // while GF misses significantly fewer global tasks ... particularly
    // under high load".
    for load in [0.6, 0.8] {
        let d = div1.at_load(load).unwrap();
        let g = gf.at_load(load).unwrap();
        assert!(
            g.md_global.mean < d.md_global.mean,
            "GF globals at load {load}"
        );
        assert!(
            (g.md_local.mean - d.md_local.mean).abs() < 0.04,
            "local rates comparable at load {load}: GF {} DIV-1 {}",
            g.md_local.mean,
            d.md_local.mean
        );
    }
}

#[test]
fn fig9_curves_flatten_as_x_grows_and_n2_stabilizes_by_x1() {
    let fig = figures::fig9(Scale::Quick);
    for series in &fig.series {
        let at = |x: f64| series.at_load(x).unwrap().md_global.mean;
        // Large-x plateau: x = 4 vs x = 8 differ by little.
        assert!(
            (at(4.0) - at(8.0)).abs() < 0.03,
            "{}: {} vs {}",
            series.label,
            at(4.0),
            at(8.0)
        );
        // x = 1 is already close to the plateau (the paper's "x = 1 is
        // usually adequate").
        assert!(
            (at(1.0) - at(8.0)).abs() < 0.05,
            "{}: x=1 {} vs x=8 {}",
            series.label,
            at(1.0),
            at(8.0)
        );
        // Tiny x under-boosts: x = 0.25 misses more globals than x = 1.
        assert!(at(0.25) > at(1.0), "{}", series.label);
    }
}

#[test]
fn fig10_gf_equals_ud_with_no_locals_and_gains_grow_with_frac_local() {
    let fig = figures::fig10(Scale::Quick);
    let (ud, div1, gf) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    // frac_local = 0: "GF will perform exactly the same as UD because the
    // deadlines of all subtasks are reduced by exactly the same amount".
    let ud0 = ud.at_load(0.0).unwrap().md_global.mean;
    let gf0 = gf.at_load(0.0).unwrap().md_global.mean;
    assert!(
        (ud0 - gf0).abs() < 1e-12,
        "GF must equal UD with no locals: {ud0} vs {gf0}"
    );
    // Effectiveness (UD minus strategy) grows with frac_local.
    for series in [div1, gf] {
        let gain = |frac: f64| {
            ud.at_load(frac).unwrap().md_global.mean - series.at_load(frac).unwrap().md_global.mean
        };
        assert!(
            gain(0.9) > gain(0.3),
            "{}: gain at 0.9 {} vs at 0.3 {}",
            series.label,
            gain(0.9),
            gain(0.3)
        );
    }
}

#[test]
fn fig11_abortion_lowers_rates_and_div1_stays_effective() {
    let with_abort = figures::fig11(Scale::Quick);
    let without = figures::fig7(Scale::Quick);
    // Abortion reduces miss rates at high load (resources not wasted on
    // tardy tasks).
    let a = with_abort.series[0].at_load(0.8).unwrap();
    let n = without.series[0].at_load(0.8).unwrap();
    assert!(a.md_global.mean < n.md_global.mean);
    assert!(a.md_local.mean < n.md_local.mean);
    // DIV-1 still beats UD under abortion.
    let ud = with_abort.series[0].at_load(0.5).unwrap().md_global.mean;
    let div1 = with_abort.series[1].at_load(0.5).unwrap().md_global.mean;
    assert!(div1 < ud);
    // GF ≈ DIV-1 under PM abortion (the paper omits GF's curves because
    // they overlap DIV-1's).
    let gf = with_abort.series[2].at_load(0.5).unwrap().md_global.mean;
    assert!((gf - div1).abs() < 0.03, "GF {gf} vs DIV-1 {div1}");
}

#[test]
fn fig12_div1_equalizes_and_gf_reduces_further() {
    let fig = figures::fig12(Scale::Quick);
    let (ud, div1, gf) = (&fig.series[0], &fig.series[1], &fig.series[2]);
    // Under UD the n=6 class misses several times more than locals
    // ("about 4 times as likely").
    let ud_local = ud.points[0].md_global.mean;
    let ud_n6 = ud.points[5].md_global.mean;
    assert!(ud_n6 > 2.5 * ud_local, "{ud_n6} vs local {ud_local}");
    // DIV-1 keeps all global classes at roughly the same level: the
    // spread across n = 2..6 shrinks versus UD.
    let spread = |s: &sda::experiments::figures::Series| {
        let rates: Vec<f64> = (1..=5).map(|i| s.points[i].md_global.mean).collect();
        rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min)
    };
    assert!(
        spread(div1) < 0.5 * spread(ud),
        "DIV-1 must flatten the classes"
    );
    // GF pushes every global class below DIV-1's level.
    for i in 1..=5 {
        assert!(
            gf.points[i].md_global.mean <= div1.points[i].md_global.mean + 0.01,
            "class {i}"
        );
    }
}

#[test]
fn fig15_strategies_compose_additively() {
    let fig = figures::fig15(Scale::Quick);
    let at = |i: usize, load: f64| fig.series[i].at_load(load).unwrap().md_global.mean;
    // At load 0.6: UD-UD worst, EQF-DIV1 best, singles in between.
    let (ud_ud, ud_div1, eqf_ud, eqf_div1) = (at(0, 0.6), at(1, 0.6), at(2, 0.6), at(3, 0.6));
    assert!(ud_div1 < ud_ud, "PSP alone helps");
    assert!(eqf_ud < ud_ud, "SSP alone helps");
    assert!(eqf_div1 < ud_div1 && eqf_div1 < eqf_ud, "together they win");
    // At low load, globals (huge slack U[6.25,25]) miss *less* than locals
    // under UD-UD — the paper's low-load observation.
    let p = fig.series[0].at_load(0.1).unwrap();
    assert!(p.md_global.mean <= p.md_local.mean + 0.005);
    // EQF-DIV1 keeps MD_global close to MD_local up to load 0.6.
    let p6 = fig.series[3].at_load(0.6).unwrap();
    assert!(
        p6.md_global.mean < p6.md_local.mean + 0.06,
        "global {} vs local {}",
        p6.md_global.mean,
        p6.md_local.mean
    );
}

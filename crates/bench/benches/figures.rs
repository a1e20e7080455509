//! Macro-benchmarks: regenerate every figure of the paper at Quick scale.
//!
//! Each bench calls the same `sda_experiments::figures` function
//! `repro --only figN` uses, so `cargo bench --bench figures` is a timed
//! end-to-end regeneration of the paper's evaluation (at 2 × 20k time
//! units per point instead of the paper's 2 × 1M).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use sda_experiments::{figures, Scale};

fn figure_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_quick_scale");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));
    group.bench_function("fig5", |b| {
        b.iter(|| black_box(figures::fig5(Scale::Quick)))
    });
    group.bench_function("fig6", |b| {
        b.iter(|| black_box(figures::fig6(Scale::Quick)))
    });
    group.bench_function("fig7", |b| {
        b.iter(|| black_box(figures::fig7(Scale::Quick)))
    });
    group.bench_function("fig9", |b| {
        b.iter(|| black_box(figures::fig9(Scale::Quick)))
    });
    group.bench_function("fig10", |b| {
        b.iter(|| black_box(figures::fig10(Scale::Quick)))
    });
    group.bench_function("fig11", |b| {
        b.iter(|| black_box(figures::fig11(Scale::Quick)))
    });
    group.bench_function("fig12", |b| {
        b.iter(|| black_box(figures::fig12(Scale::Quick)))
    });
    group.bench_function("fig15", |b| {
        b.iter(|| black_box(figures::fig15(Scale::Quick)))
    });
    group.finish();
}

/// One representative simulation data point per figure, at a fixed 10k
/// time units: the cost of a single (config, seed) run on each figure's
/// code path.
fn figure_points(c: &mut Criterion) {
    use sda_core::{PspStrategy, SdaStrategy, SspStrategy};
    use sda_sim::{AbortPolicy, GlobalShape, SimConfig};

    let gf = SdaStrategy {
        ssp: SspStrategy::Ud,
        psp: PspStrategy::gf(),
    };
    let points: Vec<(&str, SimConfig)> = vec![
        ("fig5_ud_load05", SimConfig::baseline()),
        (
            "fig6_div2_load05",
            SimConfig::baseline().with_strategy(SdaStrategy {
                ssp: SspStrategy::Ud,
                psp: PspStrategy::div(2.0),
            }),
        ),
        ("fig7_gf_load05", SimConfig::baseline().with_strategy(gf)),
        (
            "fig11_pm_abort",
            SimConfig {
                abort: AbortPolicy::ProcessManager,
                ..SimConfig::baseline()
            },
        ),
        (
            "fig12_uniform_n",
            SimConfig {
                shape: GlobalShape::ParallelUniform { lo: 2, hi: 6 },
                ..SimConfig::baseline()
            },
        ),
        (
            "fig15_eqf_div1",
            SimConfig::section8().with_strategy(SdaStrategy::eqf_div1()),
        ),
        (
            "a6_heterogeneous",
            SimConfig {
                node_speeds: vec![1.75, 1.75, 1.75, 0.25, 0.25, 0.25],
                ..SimConfig::baseline()
            },
        ),
        (
            "a7_preemptive",
            SimConfig {
                preemptive: true,
                load: 0.7,
                ..SimConfig::baseline()
            },
        ),
        (
            "a1_local_abort_resubmit",
            SimConfig {
                abort: sda_sim::AbortPolicy::LocalScheduler {
                    resubmit: sda_sim::ResubmitPolicy::OnceWithRealDeadline,
                },
                load: 0.7,
                ..SimConfig::baseline().with_strategy(SdaStrategy::ud_div1())
            },
        ),
    ];
    let mut group = c.benchmark_group("figure_points_10k_units");
    group.sample_size(20);
    for (name, cfg) in points {
        group.bench_function(name, |b| b.iter(|| black_box(sda_bench::bench_run(&cfg))));
    }
    group.finish();
}

criterion_group!(benches, figure_benches, figure_points);
criterion_main!(benches);

//! Fuzzing the simulator: random valid configurations must run to their
//! horizon without panicking, and the accounting invariants must hold
//! whatever combination of strategy, shape, scheduler, abortion,
//! placement, speeds, and burstiness is active.
//!
//! The same configurations also check the queue-length accounting
//! differentially: the simulator credits each node's queue length where
//! the queue changes, and a reference wrapper samples every node after
//! every event instead. Both must give the same time-weighted means.

use proptest::prelude::*;

use sda::prelude::*;

/// Single-replication run through the [`Runner`], with the replication's
/// seed given explicitly (shadows the deprecated free function).
fn run(cfg: &SimConfig, seed: u64) -> Result<RunResult, sda::sim::ConfigError> {
    Ok(Runner::new(cfg.clone())
        .with_seeds(vec![seed])
        .stop(StopRule::FixedReps(1))
        .execute()?
        .runs()[0]
        .clone())
}

use sda::sched::Policy;
use sda::sim::{Burst, CrashPolicy, Ev, FaultConfig, Placement, ServiceShape, Simulation};
use sda::simcore::stats::TimeWeighted;
use sda::simcore::{Engine, Model};

fn arb_strategy() -> impl Strategy<Value = SdaStrategy> {
    let ssp = prop_oneof![
        Just(SspStrategy::Ud),
        Just(SspStrategy::Ed),
        Just(SspStrategy::Eqs),
        Just(SspStrategy::Eqf),
    ];
    let psp = prop_oneof![
        Just(PspStrategy::Ud),
        (0.25f64..8.0).prop_map(PspStrategy::div),
        Just(PspStrategy::gf()),
    ];
    (ssp, psp).prop_map(|(ssp, psp)| SdaStrategy { ssp, psp })
}

fn arb_shape() -> impl Strategy<Value = GlobalShape> {
    prop_oneof![
        (1usize..=4).prop_map(|n| GlobalShape::ParallelFixed { n }),
        (1usize..=3, 0usize..=3)
            .prop_map(|(lo, extra)| GlobalShape::ParallelUniform { lo, hi: lo + extra }),
        Just(GlobalShape::figure14()),
        Just(GlobalShape::Spec(
            sda::model::parse_spec("[a [b || c] [d e]]").unwrap()
        )),
    ]
}

fn arb_abort() -> impl Strategy<Value = AbortPolicy> {
    prop_oneof![
        Just(AbortPolicy::None),
        Just(AbortPolicy::ProcessManager),
        Just(AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline
        }),
        Just(AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::Never
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        arb_strategy(),
        arb_shape(),
        arb_abort(),
        0.05f64..0.9, // load
        0.0f64..=1.0, // frac_local
        prop_oneof![
            Just(Policy::Edf),
            Just(Policy::Fcfs),
            Just(Policy::Sjf),
            Just(Policy::Llf)
        ],
        any::<bool>(), // preemptive (EDF only)
        prop_oneof![
            Just(ServiceShape::Exponential),
            Just(ServiceShape::Deterministic),
            Just(ServiceShape::UniformSpread)
        ],
        prop_oneof![
            Just(Placement::RandomDistinct),
            Just(Placement::LeastLoaded)
        ],
        proptest::option::of((10.0f64..200.0, 0.1f64..0.5).prop_map(|(period, f)| Burst {
            period,
            on_fraction: f,
            boost: 1.0 + 0.8 * (1.0 / f - 1.0), // safely inside [1, 1/f)
        })),
        prop_oneof![
            Just(Vec::new()),
            Just(vec![2.0, 2.0, 1.0, 1.0, 0.5, 0.5]),
            Just(vec![1.75, 1.75, 1.75, 0.25, 0.25, 0.25]),
        ],
    )
        .prop_map(
            |(
                strategy,
                shape,
                abort,
                load,
                frac_local,
                scheduler,
                preemptive,
                service_shape,
                placement,
                burst,
                node_speeds,
            )| {
                SimConfig {
                    strategy,
                    shape,
                    abort,
                    load,
                    frac_local,
                    scheduler,
                    preemptive: preemptive && scheduler == Policy::Edf,
                    service_shape,
                    placement,
                    burst,
                    node_speeds,
                    duration: 600.0,
                    warmup: 10.0,
                    ..SimConfig::baseline()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_valid_config_runs_and_accounts_consistently(
        cfg in arb_config(),
        seed in 0u64..1_000,
    ) {
        // Some generated combos are legitimately invalid (e.g. fan-out
        // wider than nodes with globals present): they must be *rejected*,
        // never panic.
        let Ok(result) = run(&cfg, seed) else { return Ok(()) };
        let m = &result.metrics;

        // Rates are probabilities.
        for rate in [m.md_local(), m.md_subtask(), m.md_global(), m.missed_work_fraction()] {
            prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        }
        // Counters are consistent.
        prop_assert!(m.local_md.missed() <= m.local_md.total());
        prop_assert!(m.subtask_md.missed() <= m.subtask_md.total());
        prop_assert!(m.total_missed_count() <= m.local_count() + m.global_count());
        // Busy time per node never exceeds the horizon.
        for (i, &busy) in result.busy.iter().enumerate() {
            prop_assert!(busy <= result.duration * 1.0001, "node {i} busy {busy}");
            prop_assert!(busy >= 0.0);
        }
        // Queue lengths are non-negative and finite.
        for &q in &result.mean_queue_len {
            prop_assert!(q.is_finite() && q >= 0.0);
        }
        // Response times can't be negative.
        prop_assert!(m.local_response.min() >= 0.0 || m.local_response.count() == 0);
        prop_assert!(m.global_response.min() >= 0.0 || m.global_response.count() == 0);
        // Determinism: the same config and seed reproduce the counters.
        let again = run(&cfg, seed).expect("validated above");
        prop_assert_eq!(again.metrics.local_md, m.local_md);
        prop_assert_eq!(again.events, result.events);
    }
}

// ---------------------------------------------------------------------
// Queue-length accounting: at mutation vs. sampled after every event
// ---------------------------------------------------------------------

/// The reference accounting: after every event, every node's queue
/// length is sampled into its own accumulator, whether or not that
/// queue changed. O(nodes) per event, and obviously correct.
struct SampleEveryNode {
    sim: Simulation,
    queues: Vec<TimeWeighted>,
}

impl Model for SampleEveryNode {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
        self.sim.handle(engine, event);
        let now = engine.now();
        for (node, queue) in self.queues.iter_mut().enumerate() {
            queue.update(now, self.sim.queue_len(node) as f64);
        }
    }
}

/// Runs `cfg` once and returns each node's time-weighted mean queue
/// length as `(simulator, reference)`, or `None` for an invalid config.
fn queue_means(cfg: &SimConfig, seed: u64) -> Option<Vec<(f64, f64)>> {
    let mut sim = Simulation::new(cfg.clone(), seed).ok()?;
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    let mut model = SampleEveryNode {
        sim,
        queues: vec![TimeWeighted::new(SimTime::ZERO, 0.0); cfg.nodes],
    };
    let end = SimTime::from(cfg.duration);
    engine.run_until(&mut model, end);
    let (_, stats) = model.sim.into_results();
    Some(
        stats
            .iter()
            .zip(&model.queues)
            .map(|(s, q)| (s.mean_queue_len(end), q.average(end)))
            .collect(),
    )
}

/// Whether `a` and `b` agree to within `1e-12` relative.
fn agree(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn arb_fault() -> impl Strategy<Value = FaultConfig> {
    prop_oneof![
        Just(FaultConfig::disabled()),
        prop_oneof![
            Just(CrashPolicy::AbortTask),
            Just(CrashPolicy::RequeueSubtask)
        ]
        .prop_map(|crash_policy| FaultConfig {
            mttf: 150.0,
            mttr: 15.0,
            crash_policy,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            comm_delay_prob: 0.1,
            comm_delay_mean: 0.5,
        }),
    ]
}

/// [`arb_config`] on 1–8 nodes, with faults on or off.
fn arb_accounting_config() -> impl Strategy<Value = SimConfig> {
    (arb_config(), 1usize..=8, arb_fault()).prop_map(|(mut cfg, nodes, fault)| {
        if cfg.node_speeds.len() != nodes {
            cfg.node_speeds.clear();
        }
        cfg.nodes = nodes;
        cfg.fault = fault;
        cfg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_accounting_at_mutation_matches_sampling_every_node(
        cfg in arb_accounting_config(),
        seed in 0u64..1_000,
    ) {
        let Some(means) = queue_means(&cfg, seed) else { return Ok(()) };
        prop_assert_eq!(means.len(), cfg.nodes);
        for (node, &(ours, reference)) in means.iter().enumerate() {
            prop_assert!(
                agree(ours, reference),
                "node {node}: {ours} at mutation vs {reference} sampled"
            );
        }
    }
}

#[test]
fn queue_accounting_is_bit_identical_at_normal_load() {
    let cfg = SimConfig {
        duration: 20_000.0,
        ..SimConfig::baseline()
    };
    let means = queue_means(&cfg, 7).expect("baseline config is valid");
    for (node, (ours, reference)) in means.into_iter().enumerate() {
        assert!(ours > 0.0, "node {node} saw no queueing");
        assert_eq!(ours.to_bits(), reference.to_bits(), "node {node}");
    }
}

#[test]
fn queue_accounting_agrees_under_overload_at_sixty_nodes() {
    let cfg = SimConfig {
        nodes: 60,
        load: 0.97,
        placement: Placement::LeastLoaded,
        preemptive: true,
        fault: FaultConfig {
            mttf: 500.0,
            mttr: 10.0,
            crash_policy: CrashPolicy::RequeueSubtask,
            ..FaultConfig::disabled()
        },
        duration: 3_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    };
    let means = queue_means(&cfg, 11).expect("overload config is valid");
    for (node, (ours, reference)) in means.into_iter().enumerate() {
        assert!(
            agree(ours, reference),
            "node {node}: {ours} at mutation vs {reference} sampled"
        );
    }
}

//! The sweep engine's contract: results bit-identical to an independent
//! sequential reference at any `jobs` level, duplicates deduplicated,
//! stop rules checked before any simulation, and the cache making repeat
//! sweeps free.

mod reference;

use std::sync::Arc;

use reference::{fingerprint, reference};
use sda_core::SdaStrategy;
use sda_sim::{
    CrashPolicy, FaultConfig, MultiRun, PointCache, RunError, SimConfig, StopRule, Sweep,
    SweepPoint,
};
use sda_simcore::rng::derive_seed;

fn quick(load: f64) -> SimConfig {
    SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        ..SimConfig::baseline().with_load(load)
    }
}

/// A small campaign mixing fixed-rep points, strategies, and adaptive
/// points.
fn campaign() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(quick(0.3), 42),
        SweepPoint::new(quick(0.5), 42).stop(StopRule::FixedReps(3)),
        SweepPoint::new(quick(0.5).with_strategy(SdaStrategy::ud_div1()), 42),
        SweepPoint::new(quick(0.7), 42).stop(StopRule::CiWidth(0.9)),
        SweepPoint::new(quick(0.7), 42).stop(StopRule::BatchMeans { batch_size: 128 }),
        SweepPoint::new(quick(0.6), 7).stop(StopRule::CiWidth(0.05)),
    ]
}

#[test]
fn sweep_matches_the_sequential_reference_at_any_jobs_level() {
    let expected: Vec<String> = campaign()
        .iter()
        .map(|p| fingerprint(&reference(p, 2, 64)))
        .collect();
    // The tight target needs several CI rounds; the loose one stops at
    // the floor.
    let reps = |multi: &MultiRun| multi.runs().len();
    for jobs in [1, 4] {
        let swept = Sweep::new()
            .points(campaign())
            .jobs(jobs)
            .execute()
            .unwrap();
        assert_eq!(swept.len(), expected.len());
        assert_eq!(reps(&swept[3]), 2);
        assert!(reps(&swept[5]) > 4, "{} reps", reps(&swept[5]));
        for (point, (want, got)) in expected.iter().zip(&swept).enumerate() {
            assert_eq!(
                want,
                &fingerprint(got),
                "point {point} diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn duplicate_points_simulate_once() {
    let cache = Arc::new(PointCache::in_memory());
    let point = SweepPoint::new(quick(0.5), 7);
    let results = Sweep::new()
        .points([point.clone(), point.clone(), point])
        .jobs(2)
        .cache(Arc::clone(&cache))
        .execute()
        .unwrap();
    let report = cache.report();
    assert_eq!(report.misses, 1, "one unique point simulates once");
    assert_eq!(report.hits_memory, 2, "duplicates share the result");
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[1]));
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[2]));
}

#[test]
fn disk_cache_makes_a_second_sweep_all_hits() {
    let dir = std::env::temp_dir().join(format!("sda-sweep-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let cold = Sweep::new()
        .points(campaign())
        .jobs(2)
        .cache(Arc::clone(&cold_cache))
        .execute()
        .unwrap();
    let report = cold_cache.report();
    assert_eq!(report.hits(), 0, "cold sweep hits nothing");
    assert_eq!(report.misses as usize, campaign().len());

    // A fresh cache handle over the same directory: pure disk replay.
    let warm_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let warm = Sweep::new()
        .points(campaign())
        .jobs(2)
        .cache(Arc::clone(&warm_cache))
        .execute()
        .unwrap();
    let report = warm_cache.report();
    assert_eq!(report.misses, 0, "warm sweep simulates nothing");
    assert_eq!(report.hits_disk as usize, campaign().len());
    assert!((report.hit_rate() - 1.0).abs() < 1e-12);

    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "cached results are bit-identical"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_still_deduplicates_within_a_sweep() {
    let point = SweepPoint::new(quick(0.4), 9);
    let results = Sweep::new()
        .points([point.clone(), point])
        .jobs(1)
        .execute()
        .unwrap();
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[1]));
}

/// A configuration with every fault class enabled.
fn faulty(load: f64) -> SimConfig {
    SimConfig {
        fault: FaultConfig {
            mttf: 400.0,
            mttr: 20.0,
            crash_policy: CrashPolicy::RequeueSubtask,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            comm_delay_prob: 0.1,
            comm_delay_mean: 0.5,
        },
        ..quick(load)
    }
}

#[test]
fn faulty_sweeps_are_jobs_invariant_and_cache_replayable() {
    let dir = std::env::temp_dir().join(format!("sda-sweep-fault-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let points = || {
        vec![
            SweepPoint::new(faulty(0.5), 42),
            SweepPoint::new(
                SimConfig {
                    fault: FaultConfig {
                        crash_policy: CrashPolicy::AbortTask,
                        ..faulty(0.5).fault
                    },
                    ..faulty(0.5)
                },
                42,
            ),
        ]
    };
    let cold_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let cold = Sweep::new()
        .points(points())
        .jobs(1)
        .cache(Arc::clone(&cold_cache))
        .execute()
        .unwrap();
    // Faults actually fired, and the two crash policies diverge.
    let crashes: u64 = cold[0].runs().iter().map(|r| r.metrics.node_crashes).sum();
    assert!(crashes > 0, "MTTF 400 over 2000 time units must crash");
    assert_ne!(fingerprint(&cold[0]), fingerprint(&cold[1]));
    // Identical bytes at a different jobs level: the fault streams are
    // drawn per replication, not from shared worker state.
    let parallel = Sweep::new().points(points()).jobs(4).execute().unwrap();
    for (a, b) in cold.iter().zip(&parallel) {
        assert_eq!(fingerprint(a), fingerprint(b), "faulty run diverged");
    }
    // And a warm disk replay reproduces the same bytes without
    // simulating.
    let warm_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let warm = Sweep::new()
        .points(points())
        .jobs(2)
        .cache(Arc::clone(&warm_cache))
        .execute()
        .unwrap();
    assert_eq!(warm_cache.report().misses, 0);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(fingerprint(a), fingerprint(b), "cache replay diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_replication_fails_its_point_and_spares_the_others() {
    // Exotic base seeds no other test uses: the armed panic seed is
    // process-global, and sibling tests run concurrently. The fixed
    // point fails at rep 1; the adaptive point (an unreachable target)
    // fails at rep 3, which only its second CI round runs.
    let base = 0x00AD_BEEF_FA17_0001;
    let adaptive = 0x00AD_BEEF_FA17_0002;
    let armed = derive_seed(base, 1);
    let late = derive_seed(adaptive, 3);
    let points = vec![
        SweepPoint::new(quick(0.3), 42),
        SweepPoint::new(quick(0.45), base),
        SweepPoint::new(quick(0.6), 42),
        SweepPoint::new(quick(0.45), adaptive).stop(StopRule::CiWidth(1e-9)),
    ];
    for jobs in [1, 4] {
        sda_sim::runner::test_hooks::panic_on_seed(armed);
        let fixed = Sweep::new()
            .points(points[..3].to_vec())
            .jobs(jobs)
            .try_execute()
            .unwrap();
        sda_sim::runner::test_hooks::panic_on_seed(late);
        let adaptive_result = Sweep::new()
            .points(points.clone())
            .jobs(jobs)
            .try_execute()
            .unwrap();
        sda_sim::runner::test_hooks::clear();
        assert_eq!(fixed.len(), 3, "every point reports, pass or fail");
        let error = fixed[1].as_ref().expect_err("armed point must fail");
        match error {
            RunError::Panic {
                point,
                rep,
                seed,
                message,
            } => {
                assert_eq!((*point, *rep, *seed), (1, 1, armed));
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected a panic error, got {other}"),
        }
        let shown = error.to_string();
        assert!(
            shown.contains("point 1") && shown.contains("rep 1"),
            "{shown}"
        );
        match adaptive_result[3].as_ref().expect_err("late rep must fail") {
            RunError::Panic {
                point, rep, seed, ..
            } => assert_eq!((*point, *rep, *seed), (3, 3, late), "jobs={jobs}"),
            other => panic!("expected a panic error, got {other}"),
        }
        // The sibling points completed normally, bit-identical to the
        // sequential reference.
        for index in [0, 2] {
            let want = fingerprint(&reference(&points[index], 2, 64));
            for results in [&fixed, &adaptive_result] {
                let survived = results[index].as_ref().expect("sibling completes");
                assert_eq!(want, fingerprint(survived), "jobs={jobs}");
            }
        }
    }
    // The strict entry point turns the structured error into a panic.
    sda_sim::runner::test_hooks::panic_on_seed(armed);
    let strict = std::panic::catch_unwind(|| {
        Sweep::new()
            .points(vec![SweepPoint::new(quick(0.45), base)])
            .jobs(1)
            .execute()
    });
    sda_sim::runner::test_hooks::clear();
    assert!(strict.is_err(), "execute() panics on a failed point");
}

#[test]
fn an_event_budget_fails_runaway_points_deterministically() {
    let results = Sweep::new()
        .points(vec![
            SweepPoint::new(quick(0.5), 42),
            SweepPoint::new(quick(0.5).with_load(0.8), 42),
            SweepPoint::new(quick(0.5), 42).stop(StopRule::CiWidth(0.05)),
            SweepPoint::new(quick(0.5), 42).stop(StopRule::BatchMeans { batch_size: 100 }),
        ])
        .jobs(2)
        .event_budget(500)
        .try_execute()
        .unwrap();
    for (index, point) in results.iter().enumerate() {
        match point.as_ref().expect_err("500 events is far too few") {
            RunError::Budget {
                point,
                rep,
                seed,
                events,
                budget,
            } => {
                assert_eq!((*point, *rep), (index, 0), "lowest rep reports");
                assert_eq!(*seed, derive_seed(42, 0));
                assert!(*events > 500 && *budget == 500);
            }
            other => panic!("expected a budget error, got {other}"),
        }
    }
    // A generous budget changes nothing about the results.
    let roomy = Sweep::new()
        .points(campaign())
        .jobs(1)
        .event_budget(10_000_000)
        .execute()
        .unwrap();
    for (point, multi) in campaign().iter().zip(&roomy) {
        assert_eq!(fingerprint(&reference(point, 2, 64)), fingerprint(multi));
    }
}

#[test]
fn invalid_stop_rules_are_rejected_before_any_simulation() {
    for (stop, message) in [
        (StopRule::FixedReps(0), "need at least one replication"),
        (StopRule::CiWidth(0.0), "CI width target must be positive"),
        (StopRule::CiWidth(-0.1), "CI width target must be positive"),
        (
            StopRule::CiWidth(f64::NAN),
            "CI width target must be positive",
        ),
        (
            StopRule::BatchMeans { batch_size: 0 },
            "batch size must be positive",
        ),
    ] {
        // A valid point ahead of the bad one would be simulated first if
        // stop rules were checked only when their units run; instead the
        // planning pass panics and try_execute never returns.
        let outcome = std::panic::catch_unwind(|| {
            Sweep::new()
                .points(vec![
                    SweepPoint::new(quick(0.3), 42),
                    SweepPoint::new(quick(0.3), 42).stop(stop),
                ])
                .jobs(2)
                .try_execute()
        });
        let payload = outcome.expect_err("an invalid stop rule panics");
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(text.contains(message), "{stop:?}: {text:?}");
    }
}

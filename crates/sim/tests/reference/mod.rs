//! A sequential reference for the replication engine, written against
//! the simulator directly: one `Simulation` + `Engine::run_until` per
//! `derive_seed(base, i)`, the documented CI-round schedule, and the
//! batch-means cut over `TraceEvent`s. Engine results must match it
//! bit for bit at any `jobs` level.

use std::sync::{Arc, Mutex};

use sda_sim::{
    BatchEstimates, MultiRun, RunResult, SimConfig, Simulation, StopRule, SweepPoint, TraceEvent,
};
use sda_simcore::rng::derive_seed;
use sda_simcore::stats::{Replications, Summary};
use sda_simcore::{Engine, SimTime};

/// Miss indicators of finished tasks after warm-up: (locals, globals).
type Indicators = Arc<Mutex<(Vec<f64>, Vec<f64>)>>;

/// One replication, optionally recording miss indicators.
fn replicate(cfg: &SimConfig, seed: u64, indicators: Option<Indicators>) -> RunResult {
    let mut sim = Simulation::new(cfg.clone(), seed).expect("valid config");
    if let Some(indicators) = indicators {
        let warmup = cfg.warmup;
        sim.set_sink(Box::new(move |now: SimTime, ev: &TraceEvent| {
            if now.value() < warmup {
                return;
            }
            let mut seen = indicators.lock().unwrap();
            match ev {
                TraceEvent::LocalFinished { missed, .. } => {
                    seen.0.push(f64::from(u8::from(*missed)))
                }
                TraceEvent::GlobalFinished { missed, .. } => {
                    seen.1.push(f64::from(u8::from(*missed)))
                }
                _ => {}
            }
        }));
    }
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.duration));
    let events = engine.events_processed();
    let (metrics, node_stats) = sim.into_results();
    RunResult {
        metrics,
        events,
        busy: node_stats.iter().map(|s| s.busy()).collect(),
        mean_queue_len: node_stats
            .iter()
            .map(|s| s.mean_queue_len(SimTime::from(cfg.duration)))
            .collect(),
        node_stats,
        duration: cfg.duration,
        seed,
        wall_secs: 0.0,
    }
}

/// Whether both MD metrics' 95% CIs are within `target`.
fn converged(runs: &[RunResult], target: f64) -> bool {
    runs.len() >= 2
        && [
            runs.iter()
                .map(|r| r.metrics.md_local())
                .collect::<Vec<_>>(),
            runs.iter().map(|r| r.metrics.md_global()).collect(),
        ]
        .iter()
        .all(|values| Summary::from_values(values).converged(target))
}

/// Mean ± CI over the complete batches of `batch_size` indicators.
fn batches(indicators: &[f64], batch_size: u64) -> (sda_simcore::stats::Estimate, usize) {
    let size = batch_size as usize;
    let means: Replications = indicators
        .chunks_exact(size)
        .map(|batch| batch.iter().fold(0.0, |sum, x| sum + x) / size as f64)
        .collect();
    (means.estimate(), means.len())
}

/// What the engine must return for `point` under the given adaptive
/// replication bounds.
pub fn reference(point: &SweepPoint, min_reps: usize, max_reps: usize) -> MultiRun {
    let rep = |i: usize| replicate(&point.cfg, derive_seed(point.seed, i as u64), None);
    match point.stop {
        StopRule::FixedReps(n) => MultiRun::from_parts((0..n).map(rep).collect(), None),
        StopRule::CiWidth(target) => {
            let cap = max_reps.max(min_reps);
            let mut runs: Vec<RunResult> = (0..min_reps).map(rep).collect();
            while runs.len() < cap && !converged(&runs, target) {
                let more = (runs.len() / 2).max(2).min(cap - runs.len());
                runs.extend((runs.len()..runs.len() + more).map(rep));
            }
            MultiRun::from_parts(runs, None)
        }
        StopRule::BatchMeans { batch_size } => {
            let indicators = Indicators::default();
            let run = replicate(
                &point.cfg,
                derive_seed(point.seed, 0),
                Some(Arc::clone(&indicators)),
            );
            let seen = indicators.lock().unwrap();
            let (md_local, local_batches) = batches(&seen.0, batch_size);
            let (md_global, global_batches) = batches(&seen.1, batch_size);
            let batch = BatchEstimates {
                md_local,
                md_global,
                batches: (local_batches, global_batches),
            };
            MultiRun::from_parts(vec![run], Some(batch))
        }
    }
}

/// Every float in the report, bit-for-bit.
pub fn fingerprint(multi: &MultiRun) -> String {
    let mut out = multi.stats().to_json();
    for run in multi.runs() {
        out.push_str(&format!("\nseed={} events={}", run.seed, run.events));
        for (field, value) in [
            ("md_global", run.metrics.md_global()),
            ("md_local", run.metrics.md_local()),
            ("missed_work", run.metrics.missed_work.fraction()),
            ("q99", run.metrics.global_response_quantile(0.99)),
        ] {
            out.push_str(&format!(" {field}={:016x}", value.to_bits()));
        }
    }
    if let Some(batch) = multi.batch_means() {
        out.push_str(&format!(
            "\nbatches={:?} md_local={:016x}±{:016x} md_global={:016x}±{:016x}",
            batch.batches,
            batch.md_local.mean.to_bits(),
            batch.md_local.half_width.to_bits(),
            batch.md_global.mean.to_bits(),
            batch.md_global.half_width.to_bits(),
        ));
    }
    out
}

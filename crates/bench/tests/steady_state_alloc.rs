//! Pins the tentpole claim of the hot-path work: after warmup, the
//! arrival→dispatch→completion loop performs **zero** heap allocations
//! (tracing off). Runs only with `--features alloc-count`, which this
//! target requires (see `Cargo.toml`), so ordinary workspace test runs
//! keep the plain system allocator.
//!
//! The simulation is single-threaded and deterministic, so the
//! allocation count over a fixed seed and horizon is deterministic too:
//! this test either always passes or always fails for a given build.
//! The allocation counters are process-wide, so every case runs inside
//! the one test function, one after another: a second test thread would
//! count its own allocations into the measured window.

use sda_bench::alloc_count::{self, CountingAlloc};
use sda_sim::{Placement, SimConfig, Simulation};
use sda_simcore::{Engine, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `cfg` to `warm_until`, then checks that the rest of the horizon
/// neither allocates nor frees.
fn assert_allocation_free_after(name: &str, cfg: SimConfig, warm_until: f64) {
    let end = cfg.duration;
    let mut sim = Simulation::new(cfg, 1).expect("config is valid");
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(warm_until));
    let warm_events = engine.events_processed();

    let before = alloc_count::snapshot();
    engine.run_until(&mut sim, SimTime::from(end));
    let delta = alloc_count::snapshot().since(before);

    let events = engine.events_processed() - warm_events;
    assert!(
        events > 10_000,
        "{name}: the window must actually exercise the loop"
    );
    assert_eq!(
        delta.allocations, 0,
        "{name}: steady-state event loop must not allocate (processed {events} events, \
         allocated {} times / {} bytes)",
        delta.allocations, delta.bytes
    );
    assert_eq!(delta.deallocations, 0, "{name}: nor free");
}

#[test]
fn arrival_cycle_is_allocation_free_after_warmup() {
    // Pools, queues, the calendar and hash tables grow to the largest
    // size a run has needed so far, so a node whose queue reaches a new
    // record length can still grow a buffer long after warmup. That
    // growth is amortized, not per event, and its odds scale with
    // node-time observed. So every case gets the same warmup per node
    // (40,000 time units) and a window of about the same number of
    // events (~54,000); only the node count and placement differ.
    //
    // The default Figure-5 workload: 6 nodes, parallel-4 globals,
    // exponential service, EDF.
    assert_allocation_free_after(
        "figure 5, 6 nodes",
        SimConfig {
            duration: 50_000.0,
            ..SimConfig::baseline()
        },
        40_000.0,
    );
    // The same per-node load on 600 nodes under random placement, which
    // takes no backlog snapshot at all.
    assert_allocation_free_after(
        "600 nodes, random placement",
        SimConfig {
            nodes: 600,
            duration: 40_100.0,
            ..SimConfig::baseline()
        },
        40_000.0,
    );
    // Least-loaded placement snapshots every node's backlog on each
    // global arrival, into a persistent scratch buffer.
    assert_allocation_free_after(
        "60 nodes, least-loaded placement",
        SimConfig {
            nodes: 60,
            placement: Placement::LeastLoaded,
            duration: 41_000.0,
            ..SimConfig::baseline()
        },
        40_000.0,
    );
}

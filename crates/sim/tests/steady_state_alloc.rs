//! Pins the tentpole claim of the hot-path work: after warmup, the
//! arrival→dispatch→completion loop performs **zero** heap allocations
//! (tracing off).
//!
//! An integration test is its own binary, so the counting
//! `#[global_allocator]` below affects this test alone; every other
//! test and build keeps the plain system allocator.
//!
//! The simulation is single-threaded and deterministic, so the
//! allocation count over a fixed seed and horizon is deterministic too:
//! this test either always passes or always fails for a given build.
//! The allocation counters are process-wide, so every case runs inside
//! the one test function, one after another: a second test thread would
//! count its own allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sda_sim::{Placement, SimConfig, Simulation};
use sda_simcore::{Engine, SimTime};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] while counting every
/// allocation, deallocation and allocated byte.
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counters are
// plain relaxed atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters since process start: allocations (including
/// reallocations), deallocations and bytes requested.
fn snapshot() -> [u64; 3] {
    [&ALLOCATIONS, &DEALLOCATIONS, &BYTES].map(|counter| counter.load(Ordering::Relaxed))
}

/// Runs `cfg` to `warm_until`, then checks that the rest of the horizon
/// neither allocates nor frees.
fn assert_allocation_free_after(name: &str, cfg: SimConfig, warm_until: f64) {
    let end = cfg.duration;
    let mut sim = Simulation::new(cfg, 1).expect("config is valid");
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(warm_until));
    let warm_events = engine.events_processed();

    let before = snapshot();
    engine.run_until(&mut sim, SimTime::from(end));
    let after = snapshot();
    let [allocations, deallocations, bytes] = [0, 1, 2].map(|i| after[i] - before[i]);

    let events = engine.events_processed() - warm_events;
    assert!(
        events > 10_000,
        "{name}: the window must actually exercise the loop"
    );
    assert_eq!(
        allocations, 0,
        "{name}: steady-state event loop must not allocate (processed {events} events, \
         allocated {allocations} times / {bytes} bytes)"
    );
    assert_eq!(deallocations, 0, "{name}: nor free");
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

//! Instruments attached from outside the simulator in the traced run: a
//! [`Model`] wrapper that times every `Simulation::handle` call, and a
//! [`TraceSink`] that times JSONL encoding into memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sda_sim::{Ev, JsonlSink, Simulation, TraceEvent, TraceRecord, TraceSink};
use sda_simcore::{Engine, Model, SimTime};

/// Event kinds as the per-layer table names them. Crash, recovery and
/// delayed hand-off releases all count as `fault`.
pub const KINDS: [&str; 7] = [
    "local_arrival",
    "global_arrival",
    "service_complete",
    "pm_abort_local",
    "pm_abort_global",
    "in_service_deadline",
    "fault",
];

fn kind_index(event: &Ev) -> usize {
    match event {
        Ev::LocalArrival { .. } => 0,
        Ev::GlobalArrival => 1,
        Ev::ServiceComplete { .. } => 2,
        Ev::PmAbortLocal { .. } => 3,
        Ev::PmAbortGlobal { .. } => 4,
        Ev::InServiceDeadline { .. } => 5,
        Ev::NodeCrash { .. } | Ev::NodeRecover { .. } | Ev::CommRelease { .. } => 6,
    }
}

/// A histogram of nanosecond durations: exact below 128 ns, then 64
/// buckets per power of two (about 1.6% resolution).
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: vec![0; 128 + 57 * 64],
            count: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < 128 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize;
        128 + (exp - 7) * 64 + ((ns >> (exp - 6)) & 63) as usize
    }

    fn lower_bound(index: usize) -> u64 {
        if index < 128 {
            return index as u64;
        }
        let j = index - 128;
        (64 + (j % 64) as u64) << (j / 64 + 1)
    }

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Hist::bucket(ns)] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `p`-th percentile (0 < p ≤ 100), as its bucket's lower bound;
    /// 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (index, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Hist::lower_bound(index);
            }
        }
        0
    }

    /// The highest of the percentiles 50, 90, 99, 99.9, ... that has at
    /// least ten samples beyond it (50 when there are too few samples
    /// for any).
    pub fn tail_percentile(&self) -> f64 {
        let mut best = 50.0;
        for p in [90.0, 99.0, 99.9, 99.99, 99.999, 99.9999] {
            if self.count as f64 * (1.0 - p / 100.0) >= 10.0 {
                best = p;
            }
        }
        best
    }
}

/// Per-kind timings of `Simulation::handle` and calendar occupancy,
/// accumulated by [`Probe`].
#[derive(Debug, Clone, Default)]
pub struct HandleStats {
    /// Self time per kind: the `handle` call minus the trace sink's share.
    pub by_kind: [Hist; 7],
    /// Total `handle` time, trace sink included.
    pub total_ns: u64,
    /// Total time inside the trace sink.
    pub sink_ns: u64,
    /// Events handled.
    pub events: u64,
    /// Sum of `Engine::events_pending` sampled before each event.
    pub pending_sum: u64,
    /// Largest sample of `Engine::events_pending`.
    pub pending_max: u64,
}

impl HandleStats {
    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &HandleStats) {
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            a.merge(b);
        }
        self.total_ns += other.total_ns;
        self.sink_ns += other.sink_ns;
        self.events += other.events;
        self.pending_sum += other.pending_sum;
        self.pending_max = self.pending_max.max(other.pending_max);
    }
}

/// A [`Model`] wrapper around a [`Simulation`] that times each
/// `handle` call and samples the calendar size. It forwards every event
/// unchanged, so the simulated run is the one the bare simulation makes.
#[derive(Debug)]
pub struct Probe<'a> {
    /// The wrapped simulation.
    pub sim: &'a mut Simulation,
    /// Where the timings go.
    pub stats: &'a mut HandleStats,
    /// The attached [`TimingSink`]'s running total, to take the sink's
    /// share out of each event's self time.
    pub sink_ns: Option<Arc<AtomicU64>>,
}

impl Model for Probe<'_> {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
        let kind = kind_index(&event);
        let pending = engine.events_pending() as u64;
        let sink_before = self
            .sink_ns
            .as_ref()
            .map_or(0, |s| s.load(Ordering::Relaxed));
        let started = Instant::now();
        self.sim.handle(engine, event);
        let ns = started.elapsed().as_nanos() as u64;
        let sink = self
            .sink_ns
            .as_ref()
            .map_or(0, |s| s.load(Ordering::Relaxed))
            - sink_before;
        let stats = &mut *self.stats;
        stats.by_kind[kind].record(ns.saturating_sub(sink));
        stats.total_ns += ns;
        stats.sink_ns += sink;
        stats.events += 1;
        stats.pending_sum += pending;
        stats.pending_max = stats.pending_max.max(pending);
    }
}

/// What the [`TimingSink`] has gathered.
#[derive(Debug)]
struct SinkBuffer {
    jsonl: JsonlSink<Vec<u8>>,
    /// Records since the last drain, in emission order.
    records: Vec<TraceRecord>,
    /// Time spent in JSONL encoding.
    encode_ns: u64,
    /// Records seen in total.
    total_records: u64,
    /// JSONL bytes written, counted at each drain.
    total_bytes: u64,
}

/// A trace sink that encodes every record as JSONL into memory, timing
/// the encoding, and keeps the records for the layer replays.
#[derive(Debug, Clone)]
pub struct TimingSink {
    buffer: Arc<Mutex<SinkBuffer>>,
    elapsed: Arc<AtomicU64>,
}

impl Default for TimingSink {
    fn default() -> TimingSink {
        TimingSink {
            buffer: Arc::new(Mutex::new(SinkBuffer {
                jsonl: JsonlSink::new(Vec::new()),
                records: Vec::new(),
                encode_ns: 0,
                total_records: 0,
                total_bytes: 0,
            })),
            elapsed: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl TimingSink {
    /// The running total of time spent inside [`TraceSink::record`].
    pub fn elapsed_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.elapsed)
    }

    /// Moves the buffered records out and releases the encoded bytes,
    /// counting them.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut buffer = self.buffer.lock().expect("trace buffer lock");
        let jsonl = std::mem::replace(&mut buffer.jsonl, JsonlSink::new(Vec::new()));
        buffer.total_bytes += jsonl.into_inner().len() as u64;
        std::mem::take(&mut buffer.records)
    }

    /// `(records, encode ns, bytes)` so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        let buffer = self.buffer.lock().expect("trace buffer lock");
        (buffer.total_records, buffer.encode_ns, buffer.total_bytes)
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        let entered = Instant::now();
        {
            let mut buffer = self.buffer.lock().expect("trace buffer lock");
            let started = Instant::now();
            buffer.jsonl.record(now, event);
            buffer.encode_ns += started.elapsed().as_nanos() as u64;
            buffer.total_records += 1;
            buffer.records.push(TraceRecord::new(now, *event));
        }
        self.elapsed
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_round_down_within_resolution() {
        for ns in [0, 1, 127, 128, 129, 255, 256, 1_000, 123_456, 10_000_000] {
            let low = Hist::lower_bound(Hist::bucket(ns));
            assert!(low <= ns && ns - low <= ns / 64, "{ns} -> {low}");
        }
        let mut h = Hist::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.percentile(50.0), 500);
        assert_eq!(h.tail_percentile(), 99.0);
    }
}

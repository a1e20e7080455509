//! Digests of simulated outputs and the recorded references they are
//! checked against.
//!
//! A digest holds two kinds of values. *Exact* values are integers:
//! counters, and the bit patterns of `MD_local`, `MD_subtask` and
//! `MD_global`. They must match a reference exactly. *Approximate*
//! values are the other float statistics. They must match within
//! [`REL_TOL`] relative, so that a change that only reorders a float
//! summation (such as scoped queue-length accounting) still passes.

use std::collections::BTreeMap;

use sda_sim::{Metrics, MultiRun, RunResult};

/// Relative tolerance for approximate values.
pub const REL_TOL: f64 = 1e-9;

/// One digest value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    /// Must match exactly.
    Exact(u64),
    /// Must match within [`REL_TOL`] relative.
    Approx(f64),
}

/// A named set of values describing one simulated result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Digest {
    values: BTreeMap<String, Value>,
}

impl Digest {
    fn exact(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_string(), Value::Exact(value));
    }

    fn approx(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), Value::Approx(value));
    }

    /// The digest of one replication.
    pub fn of_run(run: &RunResult) -> Digest {
        let mut d = Digest::default();
        d.exact("events", run.events);
        d.add_metrics(&run.metrics);
        let nodes = run.mean_queue_len.len().max(1) as f64;
        d.approx(
            "mean_queue_len",
            run.mean_queue_len.iter().sum::<f64>() / nodes,
        );
        d.approx("utilization", run.utilization());
        d
    }

    /// The digest of a replication set: its replication count, total
    /// events, the pooled counters, and the mean float statistics.
    pub fn of_multi(multi: &MultiRun) -> Digest {
        let mut d = Digest::default();
        d.exact("reps", multi.runs().len() as u64);
        d.exact("events", multi.runs().iter().map(|r| r.events).sum());
        d.add_metrics(&multi.pooled_metrics());
        d.approx(
            "mean_queue_len",
            multi
                .estimate(|r| r.mean_queue_len.iter().sum::<f64>() / r.mean_queue_len.len() as f64)
                .mean,
        );
        d.approx("utilization", multi.utilization().mean);
        d
    }

    fn add_metrics(&mut self, m: &Metrics) {
        self.exact("local_total", m.local_md.total());
        self.exact("local_missed", m.local_md.missed());
        self.exact("subtask_total", m.subtask_md.total());
        self.exact("subtask_missed", m.subtask_md.missed());
        for (n, counter) in &m.global_md {
            self.exact(&format!("global{n}_total"), counter.total());
            self.exact(&format!("global{n}_missed"), counter.missed());
        }
        self.exact("aborted_locals", m.aborted_locals);
        self.exact("aborted_globals", m.aborted_globals);
        self.exact("local_scheduler_aborts", m.local_scheduler_aborts);
        self.exact("resubmissions", m.resubmissions);
        self.exact("preemptions", m.preemptions);
        self.exact("node_crashes", m.node_crashes);
        self.exact("crash_aborts", m.crash_aborts);
        self.exact("crash_requeues", m.crash_requeues);
        self.exact("straggler_inflations", m.straggler_inflations);
        self.exact("comm_delays", m.comm_delays);
        self.exact("md_local_bits", m.md_local().to_bits());
        self.exact("md_subtask_bits", m.md_subtask().to_bits());
        self.exact("md_global_bits", m.md_global().to_bits());
        self.approx("missed_work", m.missed_work_fraction());
        self.approx("local_response_mean", m.local_response.mean());
        self.approx("global_response_mean", m.global_response.mean());
        self.approx("local_tardiness_mean", m.local_tardiness.mean());
        self.approx("global_tardiness_mean", m.global_tardiness.mean());
    }

    /// Adds or replaces an exact value (for results that are not
    /// replications, such as a campaign's render hash).
    pub fn with_exact(mut self, name: &str, value: u64) -> Digest {
        self.exact(name, value);
        self
    }

    /// Every difference from `reference`, one line each; empty when the
    /// digests agree.
    pub fn mismatches(&self, reference: &Digest) -> Vec<String> {
        let mut out = Vec::new();
        for (name, want) in &reference.values {
            let got = self.values.get(name);
            let ok = match (got, want) {
                (Some(Value::Exact(a)), Value::Exact(b)) => a == b,
                (Some(Value::Approx(a)), Value::Approx(b)) => {
                    (a - b).abs() <= REL_TOL * b.abs().max(f64::MIN_POSITIVE)
                        || a.to_bits() == b.to_bits()
                }
                _ => false,
            };
            if !ok {
                out.push(format!("{name}: got {got:?}, want {want:?}"));
            }
        }
        for name in self.values.keys() {
            if !reference.values.contains_key(name) {
                out.push(format!("{name}: not in the reference"));
            }
        }
        out
    }

    /// The digest as `name=value` tokens: exact values as integers,
    /// approximate ones as round-tripping decimals prefixed with `~`.
    pub fn to_line(&self) -> String {
        self.values
            .iter()
            .map(|(name, value)| match value {
                Value::Exact(v) => format!("{name}={v}"),
                Value::Approx(v) => format!("{name}=~{v:?}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses [`Digest::to_line`] output.
    pub fn parse_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> Option<Digest> {
        let mut d = Digest::default();
        for token in tokens {
            let (name, value) = token.split_once('=')?;
            let value = match value.strip_prefix('~') {
                Some(float) => Value::Approx(float.parse().ok()?),
                None => Value::Exact(value.parse().ok()?),
            };
            d.values.insert(name.to_string(), value);
        }
        Some(d)
    }
}

/// 64-bit FNV-1a, for hashing rendered output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The recorded reference digests, keyed by workload name and input
/// index. The file holds one line per entry:
/// `<workload> <input index> name=value ...`; `#` starts a comment.
#[derive(Debug, Default)]
pub struct References {
    entries: BTreeMap<(String, u64), Digest>,
}

impl References {
    /// Parses the reference file text.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let parsed = (|| {
                let workload = tokens.next()?.to_string();
                let index = tokens.next()?.parse().ok()?;
                Some(((workload, index), Digest::parse_tokens(tokens)?))
            })();
            let (key, digest) =
                parsed.ok_or_else(|| format!("malformed reference line: {line}"))?;
            entries.insert(key, digest);
        }
        Ok(References { entries })
    }

    /// The reference for one workload input, if recorded.
    pub fn get(&self, workload: &str, index: u64) -> Option<&Digest> {
        self.entries.get(&(workload.to_string(), index))
    }
}

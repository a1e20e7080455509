#!/usr/bin/env bash
# Tracked benchmarks for the simulator.
#
# Two modes:
#
#   scripts/bench.sh [throughput] [OUT.json]
#       End-to-end throughput of the arrival→dispatch→completion hot
#       path: builds the bench crate (with allocation counting) and runs
#       the `throughput` binary over the default Figure-5 workload, or
#       over the same per-node load on SDA_BENCH_NODES nodes.
#
#   scripts/bench.sh sweep [OUT.json]
#       Campaign-level sweep-engine benchmark: runs the full quick-scale
#       reproduction three ways (sequential per-point baseline, sweep
#       engine over a cold disk cache, warm replay) and reports the
#       wall-clock and cache hit/miss counts of each.
#
# The JSON record goes to stdout and, if an output file is given, to
# that file.
#
# Environment (throughput mode):
#   SDA_BENCH_REPS      repetitions, best-of-N (default 5)
#   SDA_BENCH_NODES     node count, per-node load held fixed (default 6,
#                       the Figure-5 model); e.g. 600 for the node-count
#                       axis
#   SDA_BASELINE_EPS    reference events/sec; adds a "speedup" field.
#                       Defaults to the pre-optimization baseline stored
#                       in the newest committed BENCH_*.json (its
#                       "events_per_sec" at the time), if any.
#
# The committed BENCH_NNNN.json files form the perf trajectory: each PR
# that claims a speedup records the before and after numbers of the
# machine it measured on. See DESIGN.md, "Performance model & hot path"
# and "Sweep engine & result cache".
set -euo pipefail
cd "$(dirname "$0")/.."

mode="throughput"
case "${1:-}" in
  throughput|sweep)
    mode="$1"
    shift
    ;;
esac
out="${1:-}"

if [ "$mode" = "sweep" ]; then
  cargo build --release -p sda-bench --bin sweep
  if [ -n "$out" ]; then
    ./target/release/sweep | tee "$out"
  else
    ./target/release/sweep
  fi
  exit 0
fi

reps="${SDA_BENCH_REPS:-5}"
nodes="${SDA_BENCH_NODES:-}"
baseline="${SDA_BASELINE_EPS:-}"

cargo build --release -p sda-bench --features alloc-count

args=(--reps "$reps")
if [ -n "$nodes" ]; then
  args+=(--nodes "$nodes")
fi
if [ -n "$baseline" ]; then
  args+=(--baseline-eps "$baseline")
fi

if [ -n "$out" ]; then
  ./target/release/throughput "${args[@]}" | tee "$out"
else
  ./target/release/throughput "${args[@]}"
fi

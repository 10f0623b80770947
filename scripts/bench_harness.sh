#!/usr/bin/env bash
# bench_harness.sh — measure the headline harness benchmarks
# (BenchmarkTable2Default, BenchmarkSimulatorThroughput and its
# metrics-enabled twin) and print their best-of-3 wall-clock as a JSON
# fragment on stdout, including the observability overhead ratio
# (metrics-enabled / plain simulator throughput; budget ≤ 1.02 for the
# no-op path, the enabled collector costs a few percent more).
#
# Usage: scripts/bench_harness.sh [extra go test args…]
#
# The checked-in BENCH_harness.json records one before/after pair per perf
# PR; rerun this script on your machine and splice the output in to extend
# the trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go test -run '^$' \
	-bench '^(BenchmarkTable2Default|BenchmarkSimulatorThroughput(Metrics)?)$' \
	-benchtime=1x -count=3 "$@" .)
printf '%s\n' "$out" >&2

best() {
	printf '%s\n' "$out" | awk -v name="$1" '$1 ~ ("^" name "(-[0-9]+)?$") {print $3}' | sort -n | head -1
}

table2=$(best 'BenchmarkTable2Default')
simthr=$(best 'BenchmarkSimulatorThroughput')
simmet=$(best 'BenchmarkSimulatorThroughputMetrics')
overhead=$(awk -v m="$simmet" -v p="$simthr" 'BEGIN {printf "%.3f", m / p}')
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

cat <<EOF
{
  "gomaxprocs": $cores,
  "BenchmarkTable2Default_ns_per_op": $table2,
  "BenchmarkSimulatorThroughput_ns_per_op": $simthr,
  "BenchmarkSimulatorThroughputMetrics_ns_per_op": $simmet,
  "metrics_overhead_ratio": $overhead
}
EOF

#!/usr/bin/env bash
# loadtest_service.sh — measure the floptd offsets hot path: boot the
# daemon on an ephemeral port, warm it with one compile, then drive it
# from the built-in load generator's hammer mode (floptd -loadgen:
# closed-loop workers, each request 4 offset queries of 512 elements)
# over keep-alive connections and print the RPS / latency-quantile JSON
# on stdout.
#
# Usage: scripts/loadtest_service.sh [-cluster] [duration] [concurrency]
#
# With -cluster the script boots a 3-node static-roster cluster instead
# of one daemon and hands the load generator all three URLs; workers
# round-robin across the nodes, so the measured RPS is the aggregate
# the cluster serves (peer cache fills happen during warmup, before the
# measured window).
#
# The checked-in BENCH_service.json records one entry per service PR;
# rerun this script on your machine and splice the output in to extend
# the trajectory. Budget: ≥ 10k RPS with p99 < 25 ms on a single core.
set -euo pipefail
cd "$(dirname "$0")/.."

cluster=0
if [ "${1:-}" = "-cluster" ]; then
	cluster=1
	shift
fi
duration=${1:-10s}
concurrency=${2:-8}

workdir=$(mktemp -d)
pids=()
trap 'for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT

go build -o "$workdir/floptd" ./cmd/floptd

if [ "$cluster" = 1 ]; then
	porta=18475
	portb=18476
	portc=18477
	roster="a=http://127.0.0.1:$porta,b=http://127.0.0.1:$portb,c=http://127.0.0.1:$portc"
	for n in a b c; do
		port_var="port$n"
		"$workdir/floptd" -addr "127.0.0.1:${!port_var}" -workers 2 \
			-node-id "$n" -peers "$roster" >"$workdir/$n.log" 2>&1 &
		pids+=($!)
	done
	targets="http://127.0.0.1:$porta,http://127.0.0.1:$portb,http://127.0.0.1:$portc"
	waiton="$porta $portb $portc"
	nodes=3
else
	addr=127.0.0.1:18474
	"$workdir/floptd" -addr "$addr" -workers 2 >"$workdir/out.log" 2>&1 &
	pids+=($!)
	targets="http://$addr"
	waiton=18474
	nodes=1
fi

for port in $waiton; do
	for i in $(seq 1 50); do
		curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
		sleep 0.1
	done
done

res=$("$workdir/floptd" -loadgen -target "$targets" \
	-duration "$duration" -concurrency "$concurrency")

for p in "${pids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
for p in "${pids[@]}"; do wait "$p" 2>/dev/null || true; done
pids=()

cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
go_version=$(go env GOVERSION)
date_utc=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# Merge run metadata into the loadgen JSON: the encoder indents, so the
# result object's closing brace is alone on the last line and splicing
# before it is safe.
printf '%s\n' "$res" | sed '$d'
cat <<EOF
  ,"duration_requested": "$duration",
  "concurrency": $concurrency,
  "nodes": $nodes,
  "cores": $cores,
  "go": "$go_version",
  "date_utc": "$date_utc"
}
EOF

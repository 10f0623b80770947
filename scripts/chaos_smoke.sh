#!/usr/bin/env bash
# chaos_smoke.sh — crash-recovery drill for floptd: boot the daemon with
# durability journals and seeded fault injection enabled, drive compile
# and simulate traffic through the chaos middleware (delays, 500s,
# dropped connections, journal disk faults), then kill -9 the process
# mid-flight and restart it on the same data directory. Asserts the two
# recovery invariants the journals promise:
#
#   1. zero accepted-job loss — every job ID the daemon answered 202 for
#      reaches a terminal state on the restarted process;
#   2. zero compiled-layout loss — re-submitting each workload returns
#      cached:true with the identical content-addressed ID (replay
#      verified by ID equality).
#
# The fault stream is seeded (-chaos-seed), so a failing drill replays
# the same fault decisions on the same request order. Exits non-zero on
# any failure.
#
# Usage: scripts/chaos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/floptd" ./cmd/floptd

addr=127.0.0.1:18473
base="http://$addr"
datadir="$workdir/data"

start_daemon() { # args: extra flags
	"$workdir/floptd" -addr "$addr" -data-dir "$datadir" -workers 2 -queue 64 "$@" \
		>>"$workdir/out.log" 2>>"$workdir/err.log" &
	pid=$!
	for i in $(seq 1 50); do
		if curl -sf "$base/healthz" >/dev/null 2>&1; then return 0; fi
		if ! kill -0 "$pid" 2>/dev/null; then
			echo "chaos_smoke: daemon died during startup" >&2
			cat "$workdir/err.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	echo "chaos_smoke: daemon never became healthy" >&2
	exit 1
}

fail() { echo "chaos_smoke: $1" >&2; exit 1; }

# rpost retries a POST through the fault stream: injected 500s, dropped
# connections and shed requests are the drill's weather, not failures.
rpost() { # args: url body
	local out
	for i in $(seq 1 60); do
		if out=$(curl -sf -X POST "$1" -d "$2" 2>/dev/null); then
			printf '%s' "$out"
			return 0
		fi
		sleep 0.1
	done
	return 1
}

start_daemon -chaos 0.15 -chaos-seed 42

# Compile three workloads under chaos, recording their layout IDs.
: >"$workdir/layouts.set"
for wl in swim mgrid bt; do
	comp=$(rpost "$base/v1/compile" "{\"workload\":\"$wl\"}") \
		|| fail "compile $wl never succeeded under chaos"
	id=$(printf '%s' "$comp" | sed -n 's/.*"layout_id":"\([^"]*\)".*/\1/p')
	[ -n "$id" ] || fail "compile $wl returned no layout_id: $comp"
	printf '%s %s\n' "$wl" "$id" >>"$workdir/layouts.set"
done

# Background load on the offsets hot path while jobs queue up: the
# loadgen's hammer mode (-duration bounds it, -concurrency sets its
# closed-loop workers). Its exit status is irrelevant (chaos may error
# its setup requests).
"$workdir/floptd" -loadgen -target "$base" -duration 15s -concurrency 8 \
	>/dev/null 2>&1 || true &
loadpid=$!

# Submit simulate jobs round-robin over the three layouts, recording
# only the IDs the daemon actually accepted (answered 202 with a job_id).
: >"$workdir/jobs.set"
while read -r wl id; do
	for n in 1 2 3 4; do
		if job=$(curl -sf -X POST "$base/v1/simulate" -d "{\"layout_id\":\"$id\"}" 2>/dev/null); then
			jid=$(printf '%s' "$job" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
			[ -n "$jid" ] && printf '%s\n' "$jid" >>"$workdir/jobs.set"
		fi
	done
done <"$workdir/layouts.set"
accepted=$(wc -l <"$workdir/jobs.set")
[ "$accepted" -ge 5 ] || fail "only $accepted jobs accepted under chaos, want ≥ 5"

# Crash while jobs are in flight: no drain, no journal compaction —
# recovery must work from whatever the WAL holds at the instant of death.
sleep 0.5
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
kill "$loadpid" 2>/dev/null || true
wait "$loadpid" 2>/dev/null || true

start_daemon -chaos 0

# Invariant 1: every accepted job ID reaches a terminal state on the
# restarted daemon (recovered terminal records answer immediately;
# accepted-but-unfinished jobs were re-enqueued and re-run).
for i in $(seq 1 600); do
	pending=0
	while read -r jid; do
		st=$(curl -sf "$base/v1/jobs/$jid") || fail "job $jid unknown after restart (accepted-job loss)"
		state=$(printf '%s' "$st" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
		case "$state" in
		done|failed) ;;
		*) pending=$((pending + 1)) ;;
		esac
	done <"$workdir/jobs.set"
	[ "$pending" -eq 0 ] && break
	sleep 0.2
done
[ "$pending" -eq 0 ] || fail "$pending accepted jobs never reached a terminal state after restart"

# Invariant 2: the layout catalog survived — identical submissions hit
# the recovered cache with identical content-addressed IDs.
while read -r wl id; do
	comp=$(rpost "$base/v1/compile" "{\"workload\":\"$wl\"}") || fail "recompile $wl failed after restart"
	printf '%s' "$comp" | grep -q '"cached":true' || fail "$wl not cached after restart: $comp"
	rid=$(printf '%s' "$comp" | sed -n 's/.*"layout_id":"\([^"]*\)".*/\1/p')
	[ "$rid" = "$id" ] || fail "$wl recovered under ID $rid, journaled as $id"
done <"$workdir/layouts.set"

metrics=$(curl -sf "$base/metrics")
unique=$(awk '{print $2}' "$workdir/layouts.set" | sort -u | wc -l)
recovered=$(printf '%s' "$metrics" | sed -n 's/^floptd_layouts_recovered_total \([0-9]*\)$/\1/p')
[ -n "$recovered" ] || fail "metrics missing floptd_layouts_recovered_total"
[ "$recovered" -ge "$unique" ] || fail "recovered $recovered layouts, journaled at least $unique"
if printf '%s' "$metrics" | grep -qE '^floptd_recovery_skipped_total [1-9]'; then
	fail "recovery skipped records: $(printf '%s' "$metrics" | grep '^floptd_recovery_skipped_total')"
fi

# Clean exit still works after the crash-recovery cycle.
kill -TERM "$pid"
wait "$pid" || fail "daemon exited non-zero after SIGTERM"
grep -q 'drained, exiting' "$workdir/out.log" || fail "no completed-drain banner after recovery"

echo "chaos_smoke: OK ($accepted accepted jobs terminal, $unique layouts recovered across kill -9)"

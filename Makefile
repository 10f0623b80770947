# Verify tiers for the flopt reproduction.
#
#   make verify        — tier-1 (build + test) plus lint (vet + gofmt),
#                        the race tier that keeps the parallel harness and
#                        the fault-injection paths race-clean, the three
#                        smoke drills below, and bench-test
#   make bench-test    — the benchmark module's own tests (bench/ is a
#                        separate module, so the root build skips it)
#   make bench-harness — measure the headline harness benchmarks and emit
#                        their wall-clock as JSON (see BENCH_harness.json)
#   make bench-compare — rerun the harness benchmarks and diff against the
#                        recorded BENCH_harness.json entry (non-zero exit
#                        on regression beyond BENCH_TOLERANCE)
#   make serve-smoke   — boot floptd, drive one compile/offsets/simulate
#                        round trip, verify /healthz + /metrics and the
#                        graceful SIGTERM drain
#   make chaos         — crash-recovery drill: kill -9 floptd under seeded
#                        fault injection and assert the restarted daemon
#                        lost zero accepted jobs and zero compiled layouts
#   make cluster       — 3-node cluster drill: ring routing, distributed
#                        compile singleflight, peer cache fill, cross-node
#                        job polls, and kill -9 degradation to local compute
#   make workload-smoke — record→replay drill: drive a two-class workload
#                        spec against a recording floptd, replay the trace,
#                        and assert bit-identical reproduction through the
#                        loadgen and the exptab workload sweep
#   make loc           — print the non-test Go line count outside bench/
#                        (the code-size figure ROADMAP.md tracks)
#   make loadtest      — measure the floptd offsets hot path and print the
#                        RPS / latency-quantile JSON (see BENCH_service.json);
#                        pass -cluster via scripts/loadtest_service.sh to
#                        spread the load over a 3-node cluster

GO ?= go
GOFMT ?= gofmt

.PHONY: build vet fmt-check lint test race chaos cluster workload-smoke bench-test verify bench bench-harness bench-compare serve-smoke loadtest loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

lint: vet fmt-check

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

chaos:
	./scripts/chaos_smoke.sh

cluster:
	./scripts/cluster_smoke.sh

workload-smoke:
	./scripts/workload_smoke.sh

bench-test:
	cd bench && $(GO) test .

verify: build lint test race chaos cluster workload-smoke bench-test

bench:
	$(GO) test -run '^$$' -bench=. -benchmem .

bench-harness:
	./scripts/bench_harness.sh

bench-compare:
	./scripts/bench_compare.sh

serve-smoke:
	./scripts/serve_smoke.sh

loadtest:
	./scripts/loadtest_service.sh

loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

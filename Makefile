# Make targets are the single entry points for humans and CI alike
# (.github/workflows/ci.yml invokes exactly these).

GO ?= go

# Where the persistent snapshot store lives (database + statistics +
# true-cardinality caches). `make snapshot` fills it; every jobench
# command accepts -cache-dir to use it.
CACHE_DIR ?= .jobench-cache
SNAPSHOT_SCALE ?= 0.3

# Where `make serve` listens.
SERVE_ADDR ?= :8080

.PHONY: build test test-short race-short fuzz-short bench bench-smoke benchmark-check chaos chaos-short chaos-fleet fmt fmt-check vet docs-check loc ci snapshot serve smoke-serve

# Where chaos-fleet drops its JSON artifact.
BENCH_DIR ?= bench

build:
	$(GO) build ./...

# Full suite, including the multi-minute workload sweeps CI runs.
test:
	$(GO) test ./...

# Developer loop: skips the slow engine/experiments sweeps.
test-short:
	$(GO) test -short ./...

# Race detector over the short suite (the parallel runner's main hazard
# surface); the full suite under -race would take tens of minutes.
race-short:
	$(GO) test -race -short ./...

# Each fuzz target for 10 s (`go test -fuzz` takes one target per run):
# the snapshot decoder, the LIKE matcher every LIKE membership vector of
# the predicate kernels is built from, and the SQL parser with BuildGraph
# behind it.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzLikeMatch$$' -fuzztime=10s ./internal/query
	$(GO) test -run='^$$' -fuzz='^FuzzParseSQL$$' -fuzztime=10s ./internal/query

# Full benchmark run with allocation stats.
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration per benchmark, no tests: catches bit-rot in bench_test.go
# and establishes a perf baseline without benchmarking-grade runtimes.
# Includes BenchmarkTruecardCompute (serial vs parallel truecard DP) and
# the engine micro-benches (BenchmarkEngineExecuteJOB/EngineExecuteSkew/
# EngineHashJoin).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Build (or refresh) the snapshot cache: generates the database, runs
# ANALYZE, computes all 113 true-cardinality stores, and persists the lot
# under CACHE_DIR. A second invocation with a warm cache is near-instant;
# CI keys this directory on the snapshot format sources via actions/cache.
snapshot:
	$(GO) run ./cmd/jobench snapshot build -cache-dir $(CACHE_DIR) -scale $(SNAPSHOT_SCALE)

# Run the benchmark service against the snapshot cache. Requests for the
# default (seed, scale) then warm-load instead of regenerating.
serve:
	$(GO) run ./cmd/jobench serve -addr $(SERVE_ADDR) -scale $(SNAPSHOT_SCALE) -cache-dir $(CACHE_DIR)

# End-to-end service smoke test (CI runs this): start the server on a
# random port, wait for /healthz, require valid JSON (with the expected
# fields) from /healthz and one /v1/optimize, then shut it down with
# SIGTERM and require a clean exit. The server binary is built and run
# directly (not via `go run`) so the TERM signal reaches it.
smoke-serve:
	@set -e; \
	$(GO) build -o .smoke/jobench ./cmd/jobench; \
	$(GO) build -o .smoke/jsoncheck ./cmd/jsoncheck; \
	port=$$(( 20000 + $$$$ % 20000 )); \
	.smoke/jobench serve -addr 127.0.0.1:$$port -scale 0.1 -cache-dir $(CACHE_DIR) & \
	server=$$!; \
	trap 'kill $$server 2>/dev/null || true' EXIT; \
	ok=0; \
	for i in $$(seq 1 60); do \
		if curl -fsS "http://127.0.0.1:$$port/healthz" >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 1; \
	done; \
	test $$ok -eq 1 || { echo "smoke-serve: server never became healthy"; exit 1; }; \
	curl -fsS "http://127.0.0.1:$$port/healthz" | .smoke/jsoncheck status=ok; \
	curl -fsS -X POST "http://127.0.0.1:$$port/v1/optimize" -d '{"query":"13d"}' | .smoke/jsoncheck workload=imdb query=13d; \
	curl -fsS -X POST "http://127.0.0.1:$$port/v1/execute" -d '{"query":"13d","adaptive":true}' | .smoke/jsoncheck workload=imdb query=13d replans; \
	code=$$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://127.0.0.1:$$port/v1/optimize" -d '{"query":"13d","adaptive":true}'); \
	test "$$code" = 400 || { echo "smoke-serve: adaptive /v1/optimize answered $$code, want 400"; exit 1; }; \
	curl -fsS -X POST "http://127.0.0.1:$$port/v1/optimize" -d '{"query":"tpch5","workload":"tpch","scale":0.05}' | .smoke/jsoncheck workload=tpch query=tpch5; \
	curl -fsS "http://127.0.0.1:$$port/v1/experiment/fig3?workload=tpch&scale=0.05&format=json" | .smoke/jsoncheck workload=tpch experiment=fig3 report; \
	curl -fsS -X POST -H 'X-Jobench-Trace: 00000000abcdef12' "http://127.0.0.1:$$port/v1/explain" -d '{"query":"13d"}' | .smoke/jsoncheck workload=imdb query=13d nodes.0.actual_rows text; \
	curl -fsS "http://127.0.0.1:$$port/v1/traces" | .smoke/jsoncheck traces.0.trace_id=00000000abcdef12 traces.0.route=/v1/explain traces.0.spans.0.name count; \
	kill -TERM $$server; \
	wait $$server; \
	echo "smoke-serve: OK"

# Chaos knobs: how long the faulted load runs, how many workers fire it,
# the fleet's scale (0.1 matches the CI snapshot cache so opens are warm),
# and the fault spec every replica misbehaves under — injected 500s and
# rare hangs on the optimize path, injected latency on half the execute
# path. Health probes and /v1/estimate stay clean, so liveness reflects
# the process, not the injected faults.
CHAOS_DURATION ?= 8s
CHAOS_CONCURRENCY ?= 6
CHAOS_SCALE ?= 0.1
CHAOS_FAULT_SPEC ?= route=/v1/optimize,error=0.15,hang=0.02;route=/v1/execute,latency=20ms,jitter=20ms,latency_p=0.5

# Chaos suite: the in-process fleet test (internal/chaos, under -race)
# plus a real-process fleet run under injected faults (chaos-fleet).
# `chaos-short` is the CI variant: the -short test (skips the report
# byte-comparison sweep) and a shorter load window.
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(MAKE) chaos-fleet

chaos-short:
	$(GO) test -race -short -count=1 ./internal/chaos
	$(MAKE) chaos-fleet CHAOS_DURATION=4s

# Real-process chaos: 3 faulted replicas behind the router (retries,
# deadlines and breakers on), a classified load through it, and jsoncheck
# asserting the resilience contract on $(BENCH_DIR)/BENCH_chaos.json —
# bounded client-visible error rate, zero deadline overruns — plus one
# adaptive execution through the router, and metrics proving faults were
# actually injected and accounted for. All four processes must still exit
# cleanly on SIGTERM.
chaos-fleet:
	@set -e; \
	mkdir -p $(BENCH_DIR) .smoke; \
	$(GO) build -o .smoke/jobench ./cmd/jobench; \
	$(GO) build -o .smoke/jsoncheck ./cmd/jsoncheck; \
	base=$$(( 21000 + $$$$ % 20000 )); \
	peers="http://127.0.0.1:$$base,http://127.0.0.1:$$((base+1)),http://127.0.0.1:$$((base+2))"; \
	rport=$$((base+3)); \
	pids=""; \
	for i in 0 1 2; do \
		port=$$((base+i)); \
		.smoke/jobench serve -addr 127.0.0.1:$$port -scale $(CHAOS_SCALE) \
			-cache-dir $(CACHE_DIR) -pool 4 -replica-id chaos-$$i \
			-fault-spec '$(CHAOS_FAULT_SPEC)' -fault-seed $$((100+i)) & \
		pids="$$pids $$!"; \
	done; \
	.smoke/jobench router -addr 127.0.0.1:$$rport -replicas "$$peers" \
		-request-timeout 10s -attempt-timeout 1s -max-retries 2 -retry-budget 0.2 & \
	pids="$$pids $$!"; \
	trap 'kill $$pids 2>/dev/null || true' EXIT; \
	ok=0; \
	for i in $$(seq 1 90); do \
		if curl -fsS "http://127.0.0.1:$$rport/healthz" >/dev/null 2>&1 \
			&& curl -fsS "http://127.0.0.1:$$base/healthz" >/dev/null 2>&1 \
			&& curl -fsS "http://127.0.0.1:$$((base+1))/healthz" >/dev/null 2>&1 \
			&& curl -fsS "http://127.0.0.1:$$((base+2))/healthz" >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 1; \
	done; \
	test $$ok -eq 1 || { echo "chaos-fleet: fleet never became healthy"; exit 1; }; \
	warmpids=""; \
	for i in 0 1 2; do \
		curl -fsS -X POST -H 'Content-Type: application/json' -d '{"query":"1a"}' \
			"http://127.0.0.1:$$((base+i))/v1/estimate" >/dev/null & \
		warmpids="$$warmpids $$!"; \
	done; \
	for pid in $$warmpids; do \
		wait $$pid || { echo "chaos-fleet: replica warm-up failed"; exit 1; }; \
	done; \
	.smoke/jobench loadgen -target "http://127.0.0.1:$$rport" \
		-duration $(CHAOS_DURATION) -concurrency $(CHAOS_CONCURRENCY) \
		-scale $(CHAOS_SCALE) -queries 1a,13d \
		-mix optimize=3,execute=2,estimate=2 \
		-request-timeout 3s -deadline-grace 1s \
		-out $(BENCH_DIR)/BENCH_chaos.json; \
	.smoke/jsoncheck schema=jobench-loadgen/v1 \
		'total.requests>=10' 'total.error_rate<=0.1' 'total.deadline_overruns<=0' \
		classes.optimize.latency_ms.p50 classes.execute.latency_ms.p50 \
		< $(BENCH_DIR)/BENCH_chaos.json; \
	curl -fsS -X POST "http://127.0.0.1:$$rport/v1/execute" -d '{"query":"13d","adaptive":true}' \
		| .smoke/jsoncheck workload=imdb query=13d replans; \
	curl -fsS "http://127.0.0.1:$$base/metrics" | grep -q '^jobench_fault_injected_total' \
		|| { echo "chaos-fleet: replica metrics missing injected-fault counters"; exit 1; }; \
	routermetrics=$$(curl -fsS "http://127.0.0.1:$$rport/metrics"); \
	echo "$$routermetrics" | grep -q '^jobench_router_replica_retries_total' \
		|| { echo "chaos-fleet: router metrics missing retry counters"; exit 1; }; \
	echo "$$routermetrics" | grep -q '^jobench_router_breaker_throttled' \
		|| { echo "chaos-fleet: router metrics missing breaker gauges"; exit 1; }; \
	curl -fsS "http://127.0.0.1:$$rport/v1/traces" | .smoke/jsoncheck 'count>=1' \
		|| { echo "chaos-fleet: router traces empty after load"; exit 1; }; \
	for pid in $$pids; do kill -TERM $$pid 2>/dev/null || true; done; \
	rc=0; \
	for pid in $$pids; do wait $$pid || { echo "chaos-fleet: pid $$pid exited uncleanly"; rc=1; }; done; \
	trap - EXIT; \
	test $$rc -eq 0; \
	echo "chaos-fleet: OK ($(BENCH_DIR)/BENCH_chaos.json)"

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Godoc gate: every exported identifier of the root package and of every
# internal package must carry a doc comment (cmd/docscheck, ~100 lines of
# go/ast — no external linter needed).
docs-check:
	$(GO) run ./cmd/docscheck $$($(GO) list -f '{{.Dir}}' . ./internal/...)

# The perf ledger (benchmark/) is its own module, outside `go build ./...`
# and tier-1 — so without this gate a root API change breaks it silently.
# Vet plus its short tests (~5 s) compile it against the current root.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Non-test Go lines outside benchmark/: the number every PR reports as
# "net LOC" (ROADMAP aim 2).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# Everything the CI checks job runs, in order.
ci: fmt-check vet docs-check build benchmark-check test fuzz-short bench-smoke

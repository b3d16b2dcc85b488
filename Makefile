# Developer entry points. `make tier1` is the gate every change must
# pass; `make race` re-checks the concurrent experiment engine under
# the race detector (much slower — the exp suite runs everything twice
# to compare worker counts; its cells build Mudi with core.Build, over
# clones of one trained predictor, so each offline training runs once).

GO ?= go

# Packages exercised concurrently by the parallel experiment engine
# and the observability fan-in, plus the hot-path packages whose
# scratch/memo state must stay correctly confined (the oracle is
# immutable and shared across workers; so are the fitted models that
# predictor clones share; gp/stats/serving/learn scratch is
# per-goroutine; core's Device Selector memo lives across calls on one
# policy).
RACE_PKGS = ./internal/runner ./internal/exp ./internal/cluster ./internal/core ./internal/shard ./internal/memmgr ./internal/obs ./internal/faults ./internal/perf ./internal/stats ./internal/gp ./internal/serving ./internal/span ./internal/telemetry ./internal/timeline ./internal/trace ./internal/trace/scenario ./internal/sched ./internal/learn ./internal/predictor ./telemetryhttp

.PHONY: tier1 build test vet fmt loc test-benchmark smoke-hotpath smoke-largecluster smoke-telemetry race race-live test-classes bench-parallel bench-obs bench-hotpath bench-trace bench-timeline bench-scale ci

tier1: build test

# benchmark/ is a nested module that implements core.Policy, so the
# root module's build never compiles it: build it too.
build:
	$(GO) build ./...
	cd benchmark && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Fails when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The root module's non-test Go line count: every *.go file outside
# benchmark/ (its own module), *_test.go excluded.
loc:
	@git ls-files -co --exclude-standard -- '*.go' ':!:benchmark/' ':!:*_test.go' | xargs cat | wc -l

# The benchmark module's own tests: every workload, small, traced and
# untraced.
test-benchmark:
	cd benchmark && $(GO) test ./...

# One iteration of each hot-path micro-benchmark.
smoke-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkHotpath' -benchtime 1x -benchmem -count=1 .

# One 1k-device run of the sharded event engine with its wall-clock
# profile.
smoke-largecluster:
	$(GO) run ./examples/largecluster -devices 1000 -tasks 50 -gap 0.2 -shards -1 -policies mudi -profile

# A live 256-device run probed over HTTP: /metrics, /healthz drop
# counts, /slo, /timeline and the /watch SSE stream.
smoke-telemetry:
	GO=$(GO) bash scripts/smoke-telemetry.sh

race:
	$(GO) test -race -timeout 120m $(RACE_PKGS)

# The live HTTP surface polled while a run is in flight, repeated under
# the race detector: the run's goroutine and the pollers share the
# metrics sink, the record log, its attributor and the timeline store.
race-live:
	$(GO) test -race -count=10 -timeout 5m -run LiveEndpoints ./telemetryhttp

# Fixture regeneration. The trace-v2 scenario harness's golden
# fixtures (their tests run under `make test`, and under the race
# detector in `make race`) regenerate with:
#   go test ./internal/trace/... -update
# The control-plane record goldens (events, Chrome traces, the faulted
# run's SLO report and metrics snapshot) regenerate with:
#   go test ./cmd/mudisim -run Golden -update
#   go test . -run 'ChromeTraceGolden|FaultedRecordGolden' -update

# The SLO-class discipline: class-steered placement, admission-control
# shedding, per-class attribution and classless byte-identity, under
# the race detector, in the packages `make race` does not cover.
test-classes:
	$(GO) test -race -timeout 60m ./internal/model . ./cmd/mudisim ./examples/sloclasses -run 'Class|Shed|SLOClass|Classless|RunClasses'

# Regenerate the numbers recorded in BENCH_parallel.json.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkSuite(Sequential|Parallel)$$' -benchtime 3x -short -count=1 .

# Regenerate the numbers recorded in BENCH_obs.json: the disabled-path
# run must stay within noise of the pre-observability baseline.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkSimObs(Off|On)$$' -benchtime 3x -short -benchmem -count=1 .

# Regenerate the numbers recorded in BENCH_hotpath.json: the hot-path
# micro-benchmarks plus the end-to-end alloc budget (BenchmarkSimObsOff
# must stay within the budget locked against BENCH_obs.json).
bench-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkHotpath' -benchmem -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkSimObsOff$$' -benchtime 3x -short -benchmem -count=1 .

# Regenerate the numbers recorded in BENCH_trace.json: the tracer-off
# run must match BenchmarkSimObsOff's alloc budget (BENCH_hotpath.json)
# — tracing disabled is the same zero-overhead path as observation
# disabled.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkSimTrace(Off|On)$$' -benchtime 3x -short -benchmem -count=1 .

# Regenerate the numbers recorded in BENCH_timeline.json: the
# timelines-off run must match BenchmarkSimObsOff's alloc budget
# (BENCH_obs.json) — timeline recording disabled is the same
# zero-overhead path as observation disabled.
bench-timeline:
	$(GO) test -run '^$$' -bench 'BenchmarkSimTimelines(Off|On)$$' -benchtime 3x -short -benchmem -count=1 .

# Regenerate the numbers recorded in BENCH_scale.json: the sharded
# event engine's fleet-size series (1k/2k/5k/10k devices; -short stops
# at 2k). The heapB/device metric must fall or stay flat as the fleet
# grows — that's the sub-linear-memory acceptance for 10k-device runs.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScale' -benchtime 1x -timeout 120m -count=1 .

# The CI tier1 job's build/test steps plus the race job.
ci: tier1 vet fmt test-benchmark smoke-hotpath test-classes smoke-largecluster smoke-telemetry race race-live

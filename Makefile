# Developer entry points. `make tier1` is the gate every change must
# pass; `make race` re-checks the concurrent experiment engine under
# the race detector (much slower — the exp suite runs everything twice
# to compare worker counts).

GO ?= go

# Packages exercised concurrently by the parallel experiment engine
# and the observability fan-in, plus the hot-path packages whose
# scratch/memo state must stay correctly confined (the oracle is
# immutable and shared across workers; gp/stats/serving/learn scratch
# is per-goroutine; core's Device Selector memo lives across calls on
# one policy).
RACE_PKGS = ./internal/runner ./internal/exp ./internal/cluster ./internal/core ./internal/shard ./internal/memmgr ./internal/obs ./internal/faults ./internal/perf ./internal/stats ./internal/gp ./internal/serving ./internal/span ./internal/telemetry ./internal/timeline ./internal/trace ./internal/trace/scenario ./internal/sched ./internal/learn ./internal/predictor ./telemetryhttp

.PHONY: tier1 build test vet fmt test-benchmark smoke-hotpath smoke-largecluster race test-scenarios test-classes bench-parallel bench-obs bench-hotpath bench-trace bench-timeline bench-scale ci

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

race:
	$(GO) test -race -timeout 120m $(RACE_PKGS)

# The trace-v2 scenario validation harness: golden fixtures, statistical
# shape tests, and 1-vs-8-worker replay determinism, under the race
# detector. Regenerate fixtures with:
#   go test ./internal/trace/... -update
# The control-plane record goldens (events, Chrome traces, the faulted
# run's SLO report and metrics snapshot) regenerate with:
#   go test ./cmd/mudisim -run Golden -update
#   go test . -run 'ChromeTraceGolden|FaultedRecordGolden' -update
test-scenarios:
	$(GO) test -race -timeout 60m ./internal/trace ./internal/trace/scenario ./internal/exp -run 'Scenario|Golden|Trace|Cohort|Diurnal|Ramp|FlashCrowd|BurstStorm|Failover|StepQPS|Decode|Encode|Validate|Recorder'

# The SLO-class discipline: class-steered placement, admission-control
# shedding, per-class attribution, classless byte-identity, and the
# classless-vs-classed experiment's 1-vs-8-worker determinism, under
# the race detector.
test-classes:
	$(GO) test -race -timeout 60m ./internal/model ./internal/sched ./internal/span ./internal/cluster ./internal/exp . ./cmd/mudisim ./examples/sloclasses -run 'Class|Shed|SLOClass|Classless|RunClasses'

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
ci: tier1 vet fmt test-benchmark smoke-hotpath test-scenarios test-classes smoke-largecluster race

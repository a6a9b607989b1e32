# PULSE reproduction — developer targets. Everything is stdlib Go; the only
# prerequisite is a Go ≥ 1.22 toolchain.

GO ?= go

.PHONY: all build vet test test-bench test-parallel race stress bench bench-scale bench-scale-full bench-arena bench-observers experiments report examples clean verify alloc lint e2e loc

all: build vet test

# Everything CI's test job checks, in one target.
verify: build vet test

# Zero-allocation assertions for the hot paths (controller idle minute,
# including the million-slot pin, runtime Invoke and idle Step with and
# without the observer chain, the Step harvesting a minute into it, a
# runtime Stats read (TestStatsZeroAllocs), telemetry buffers/fan-out and
# its steady-state sample streams, the provenance recorder's holder minute,
# attribution accountant and ring store). Mirrors the CI "alloc" job.
alloc:
	$(GO) test ./... -run 'ZeroAllocs|DoesNotAllocate|NoAllocs|NoSteadyStateAllocs' -count=1

# bench/ is a module of its own, and its pulsebench command shares its
# directory's name, so it is built to /dev/null rather than beside it.
build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

test:
	$(GO) test ./...

# The benchmark harness's own tests (bench/ is a module of its own, so
# ./... above does not reach it): decorator transparency, chain parity with a
# spawned pulsed, histogram and HTTP-client checks. Mirrors the CI step.
test-bench:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# Staticcheck, pinned so local runs and the CI lint job agree on findings.
# `go run` fetches the tool on first use (needs network once; cached after).
STATICCHECK_VERSION ?= 2023.1.7
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Sharded-controller equivalence proof: the differential harness and every
# controller shard test under the race detector, plus short fuzz smoke runs
# over the optimizer invariants and the two readers of user files (the
# trace CSV and the model catalog). Mirrors the CI "sharded" job.
test-parallel:
	$(GO) test -race ./... -run 'Differential|Sharded'
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPeakDetector$$' -fuzztime=10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzHistoryProbabilities$$' -fuzztime=10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime=10s
	$(GO) test ./internal/metastore -run '^$$' -fuzz '^FuzzFunctionName$$' -fuzztime=10s
	$(GO) test ./internal/runtime -run '^$$' -fuzz '^FuzzInvokeStepSchedule$$' -fuzztime=10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDifferentialScenario$$' -fuzztime=10s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime=10s
	$(GO) test ./internal/models -run '^$$' -fuzz '^FuzzReadCatalog$$' -fuzztime=10s

# Seqlock/epoch stress battery: the runtime package's concurrency tests
# (torn-read, lifecycle, soak, parking), the scenario harness (serial vs
# epoch replays, conservation under racing invokers, churn races), the
# fork-join pool the minute barrier fans out on, and the tournament arena's
# parallel entrant walk over it (with the accountant over the arena),
# repeated under the race detector at contrasting parallelism levels.
# Mirrors the CI "stress" job.
SCENARIOS = -run '^TestDifferentialScenarios$$'
ARENA = ./internal/forkjoin ./internal/tournament ./internal/attribution
stress:
	GOMAXPROCS=1 $(GO) test -race -count=5 -timeout=25m ./internal/runtime
	GOMAXPROCS=1 $(GO) test -race -count=5 -timeout=45m ./internal/core $(SCENARIOS)
	GOMAXPROCS=1 $(GO) test -race -count=5 $(ARENA)
	GOMAXPROCS=4 $(GO) test -race -count=5 -timeout=25m ./internal/runtime
	GOMAXPROCS=4 $(GO) test -race -count=5 -timeout=45m ./internal/core $(SCENARIOS)
	GOMAXPROCS=4 $(GO) test -race -count=5 $(ARENA)

# Live ops smoke test: builds the pulsed binary, runs it with a compressed
# clock and a webhook sink, and drives an alert through fire and resolve.
# Mirrors the CI "e2e" job.
e2e:
	$(GO) test ./cmd/pulsed -run 'TestE2E' -count=1 -v

# Quick-scale benchmark pass over every table/figure harness.
bench:
	$(GO) test -bench=. -benchmem -run xxx .

# Population-scale gate: the 100k-function cell with hard budgets on
# resting bytes per function and mean idle minute-step latency. The cell
# runs twice — bare under the budgets below, then with pulsed's default
# observer chain (telemetry + provenance) attached under pulseload's fixed
# observed-cell budgets (idle step <= 1 ms, bytes/function <= 1.25x the value
# measured when the observers' state became slot-indexed). Mirrors the CI
# "bench-scale" job, which uploads BENCH_scale.json as an artifact.
bench-scale:
	$(GO) run ./cmd/pulseload -scale 100000 \
		-scale-max-bytes-per-fn 1024 -scale-max-idle-step-ms 1 \
		-out BENCH_scale.json

# The full {10k, 100k, 1M} sweep behind README's "Population scale" table
# (minutes, not seconds, at the 1M cell), written to BENCH_scale.json.
bench-scale-full:
	$(GO) run ./cmd/pulseload -scale 10000,100000,1000000 -out BENCH_scale.json

# Per-slot cost of one tournament minute boundary: 100k slots, the six
# entrants of `pulsed -attribution -tournament mpc,hawkes,qlearn` together
# ("all") and each alone, an idle and a 1 %-invoked minute, timed after the
# warm-up's holds have expired, reported as ns/slot with allocations. Runs
# in the CI "bench-scale" job.
bench-arena:
	$(GO) test ./internal/tournament -run '^$$' -bench '^BenchmarkArenaMinute$$' -benchtime 20x

# Per-sample cost of one minute of the barrier-serialized sample stream into
# each of pulsed's default observers (telemetry, then the provenance recorder
# with growing and with full rings): 100k slots, 12k holders, 1k schedules,
# reported as ns/sample with allocations. Runs in the CI "bench-scale" job.
bench-observers:
	$(GO) test ./internal/telemetry ./internal/provenance -run '^$$' -bench '^BenchmarkObserverMinute$$' -benchtime 20x

# Full experiment suite at paper-like scale (hours on a small machine).
experiments:
	$(GO) run ./cmd/experiments -exp all -days 14 -runs 1000

# Regenerate EXPERIMENTS.md (paper-vs-measured) at a moderate scale.
report:
	$(GO) run ./cmd/experiments -report EXPERIMENTS.md -days 7 -runs 30

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/peaksmoothing
	$(GO) run ./examples/integration
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/churn

clean:
	$(GO) clean ./...

# Go line counts outside bench/: non-test, then test — the two numbers
# ROADMAP asks every PR to report. Printed by the CI test job.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs echo non-test
	@find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l | xargs echo test

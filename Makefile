GO ?= go

# Build identity injected into every binary (see internal/buildinfo).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo "")
DATE    ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS  = -X qisim/internal/buildinfo.Version=$(VERSION) \
           -X qisim/internal/buildinfo.Commit=$(COMMIT) \
           -X qisim/internal/buildinfo.Date=$(DATE)

.PHONY: all build test vet race race-parallel race-service race-resume race-obs race-dist race-dse race-chaos race-fleet bench-baseline bench-compare fuzz serve trace-demo verify clean help

# Benchmark sampling knobs shared by bench-baseline and bench-compare:
# time-based benchtime with repetition, so each snapshot carries min/mean
# statistics instead of one noisy single-iteration sample.
BENCHTIME  ?= 100ms
BENCHCOUNT ?= 3

all: build

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the parallel Monte-Carlo engine: sharded-engine
# properties, the serial-vs-parallel equivalence suite, and the cancellation
# fault-injection scenarios, run twice so goroutine scheduling varies.
race-parallel:
	$(GO) test -race -count=2 ./internal/simrun ./internal/faultinject
	$(GO) test -race -count=2 -run 'Equivalence|DeterministicParallel' .

# Focused race pass over the qisimd service stack: job queue + singleflight,
# the content-addressed cache, the metrics registry, and the HTTP E2E/drain
# suites, run twice so goroutine scheduling varies.
race-service:
	$(GO) test -race -count=2 ./internal/service ./internal/jobs ./internal/rescache ./internal/metrics

# Focused race pass over the crash-safety layer: the checkpoint container +
# saver, the engine's resume path, the job journal, qisimd recovery, and the
# consumer-level crash-resume equivalence suite, run twice so goroutine
# scheduling varies.
race-resume:
	$(GO) test -race -count=2 ./internal/checkpoint ./internal/simrun
	$(GO) test -race -count=2 -run 'Recovery|Journal' ./internal/service ./internal/jobs
	$(GO) test -race -count=2 -run 'CrashResume' .

# Focused race pass over the observability layer: the span tracer +
# exporters + slog handler, traced runs of the sharded engine, the qisimd
# trace endpoint + stage histograms, and the root traced-determinism suite
# (byte-identical Monte-Carlo results with tracing on and off), run twice so
# goroutine scheduling varies.
race-obs:
	$(GO) test -race -count=2 ./internal/obs
	$(GO) test -race -count=2 -run 'Trace|StageHistograms|Pprof' ./internal/simrun ./internal/service
	$(GO) test -race -count=2 -run 'WithTracing|TracedShardOverhead' .

# Focused race pass over the distributed-execution layer: the coordinator's
# lease/steal/evict machinery and fold determinism, the worker claim loop,
# the dist fault-injection scenarios, the service fleet E2E, and the root
# chaos kill-matrix, run twice so goroutine scheduling varies.
race-dist:
	$(GO) test -race -count=2 ./internal/dist ./internal/backoff
	$(GO) test -race -count=2 -run 'Dist|Fleet|Probe|Degraded|FaultSuite/dist' ./internal/service ./internal/faultinject
	$(GO) test -race -count=2 -run 'ChaosKillMatrix' .

# Focused race pass over the chaos/Byzantine-defense layer: the seeded
# fault-injection transport + middleware, the retry budget + backoff
# boundary properties, the spot-check/quarantine/idempotency suites, the
# chaos fault-injection scenarios, and the root network-equivalence matrix
# (4 chaotic workers, byte-identical to standalone) plus the wire-level
# quarantine test, run twice so goroutine scheduling varies.
race-chaos:
	$(GO) test -race -count=2 ./internal/chaos ./internal/backoff
	$(GO) test -race -count=2 -run 'SpotCheck|Quarantine|Idempotency|Digest|Client|FaultSuite/chaos' ./internal/dist ./internal/faultinject
	$(GO) test -race -count=2 -run 'ChaosNetworkEquivalence|ChaosCorruptWorkerQuarantined' .

# Focused race pass over the fleet observability plane: the dependency-free
# metrics registry + RED middleware + federation summaries, the flight
# recorder ring, the coordinator's fleet snapshot + federated folds, the
# service-level fleet-status/flight/chaos-export/leak suites, and the root
# observability E2E + exposition-rules validator, run twice so goroutine
# scheduling varies.
race-fleet:
	$(GO) test -race -count=2 ./internal/metrics ./internal/obs
	$(GO) test -race -count=2 -run 'Fleet|Flight|Federated|RED|ChaosInjection|BuildInfo|Renew' ./internal/dist ./internal/service
	$(GO) test -race -count=2 -run 'FleetObservabilityE2E|MetricsExpositionStaysParseable' .

# Focused race pass over the design-space-exploration layer: grid expansion
# + Pareto-fold properties, the sweep engine's committed-prefix determinism,
# parent/child orchestration in the jobs manager (tenant quotas, cancel
# cascades, journaled re-adoption), the dse.sweep service endpoints + SSE
# frontier stream, the DSE fault-injection scenarios, and the root
# end-to-end acceptance suite, run twice so goroutine scheduling varies.
race-dse:
	$(GO) test -race -count=2 ./internal/dse
	$(GO) test -race -count=2 -run 'DSE|Sweep|Tenant|Cancel|Orchestrator|List|Event|Journal' ./internal/service ./internal/jobs
	$(GO) test -race -count=2 -run 'FaultSuite/(canceled-parent|dominated-point|sweep-coordinator)' ./internal/faultinject
	$(GO) test -race -count=2 -run 'TestDSE' .

# Regenerate BENCH_baseline.json: $(BENCHCOUNT) timed samples of every
# benchmark in the repo (ns/op, B/op and allocs/op), aggregated to per-unit
# min/mean/max, recorded so a future change can diff hot-path cost against
# the baseline. Record it on the host that runs bench-compare, and commit
# the refreshed file together with the change that moved it.
bench-baseline:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -run '^$$' ./... | python3 scripts/bench_baseline.py > BENCH_baseline.json

# Run the benchmarks now and diff against the committed BENCH_baseline.json.
# Exits non-zero when any benchmark regresses beyond its FAIL threshold
# (see scripts/bench_compare.py for the per-benchmark bands); small drift
# warns without failing. This is the perf gate CI runs on every change.
bench-compare:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -run '^$$' ./... | python3 scripts/bench_baseline.py > /tmp/bench_current.json
	python3 scripts/bench_compare.py BENCH_baseline.json /tmp/bench_current.json

# Record a span trace of a parallel Monte-Carlo decoder run and leave the
# Chrome trace_event JSON next to the repo. Open it in chrome://tracing or
# https://ui.perfetto.dev to see the engine fan-out: mc.run → per-shard
# spans on worker lanes, in-order merges, checkpoint flushes.
trace-demo:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/qisim -trace-out qisim-trace.json -workers 4 mc -d 7 -shots 100000
	@echo "trace written to qisim-trace.json — load it in chrome://tracing or https://ui.perfetto.dev"

# Short fuzz smoke of the QASM parser boundary (the long runs happen in CI
# and on demand: `go test ./internal/qasm -fuzz FuzzParse -fuzztime 5m`).
fuzz:
	$(GO) test ./internal/qasm -fuzz FuzzParse -fuzztime 15s

# Build and run the qisimd analysis service on :8080 with version stamping.
serve:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/qisimd -addr :8080

# The CI gate: everything that must be green before a change lands.
verify: vet build race fuzz

clean:
	$(GO) clean ./...

help:
	@echo "Common targets:"
	@echo "  build           compile everything with version stamping"
	@echo "  test            run the full test suite"
	@echo "  verify          the CI gate: vet + build + race + fuzz"
	@echo "  race-*          focused race passes (parallel/service/resume/obs/dist/dse/chaos/fleet)"
	@echo "  bench-baseline  re-record BENCH_baseline.json ($(BENCHCOUNT)x $(BENCHTIME) samples)"
	@echo "  bench-compare   run benchmarks and diff against BENCH_baseline.json;"
	@echo "                  exits non-zero on a regression beyond threshold"
	@echo "  trace-demo      record a Chrome trace of a parallel decoder run"
	@echo "  serve           run the qisimd analysis service on :8080"

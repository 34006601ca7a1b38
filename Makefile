# Local targets mirroring .github/workflows/ci.yml, so `make ci` reproduces
# exactly what the blocking CI job runs.

GO ?= go

.PHONY: build test test-short bench bench.txt bench-json golden perfbench-test fuzz fuzz-sweep fmt fmt-check vet lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Bench smoke with results archived as JSON (what the CI full job uploads).
# One pattern rule cuts every benchmark family's artifact from the same
# bench.txt: BENCH_pipeline.json carries the full run, the named families
# filter by benchmark name prefix. Adding a family is one variable line.
BENCH_FAMILIES        = pipeline stream gateway fxp flight health
BENCH_FILTER_pipeline = Benchmark
BENCH_FILTER_stream   = BenchmarkStream
BENCH_FILTER_gateway  = BenchmarkGateway
# BENCH_fxp.json carries both sides of the float-vs-fxp ns/frame
# comparison: the BenchmarkFxpPipeline* variants run the integer MCU
# datapath, the BenchmarkFxpFloatRef* twins run the float reference.
BENCH_FILTER_fxp      = BenchmarkFxp
# BENCH_flight.json carries the flight-recorder on/off twins; their B/op
# and allocs/op columns must stay identical (the ring append path is
# zero-alloc, pinned by TestFlightRecorderAllocNeutral).
BENCH_FILTER_flight   = BenchmarkFlight
# BENCH_health.json carries the link-health plane's cost twins: the
# store-level BenchmarkHealthOn/Off pair (identical 0 allocs/op — the
# plane's marginal epoch cost) plus the gateway-loop throughput context.
BENCH_FILTER_health   = BenchmarkHealth

# Redirect instead of piping through tee so a bench failure stops make.
# -benchmem keeps B/op and allocs/op in the archived JSON, which is what
# pins the "metrics on = zero extra allocations" budget over time.
bench.txt:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... > $@
	@cat $@

BENCH_%.json: bench.txt
	grep -E '^(goos|goarch|cpu|pkg):|^$(BENCH_FILTER_$*)' bench.txt \
		| $(GO) run ./cmd/benchjson > $@

bench-json: $(BENCH_FAMILIES:%=BENCH_%.json)

# Replay the checked-in golden traces, ModeFull and vanilla (blocking in
# CI); regenerate both after an intentional demodulator behavior change with:
#   go test ./internal/pipeline -run TestGoldenTraceReplay -update-golden
golden:
	$(GO) test -run 'TestGoldenTraceReplay' -count=1 -v ./internal/pipeline

# The benchmark's own gates (a replay matches its recording, every
# workload emits every metric), on small workloads. perfbench is its own
# module, so ./... from the root does not reach it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Short fuzz session over the trace codec.
fuzz:
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime 30s ./internal/trace

# Scheduled CI fuzz sweep: ~5 minutes split across the six codec/datapath
# fuzzers (go test allows one -fuzz target per invocation).
FUZZ_TIME ?= 50s
fuzz-sweep:
	$(GO) test -run FuzzChunk -fuzz FuzzChunk -fuzztime $(FUZZ_TIME) ./internal/chunk
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZ_TIME) ./internal/trace
	$(GO) test -run FuzzWireFrame -fuzz FuzzWireFrame -fuzztime $(FUZZ_TIME) ./internal/server
	$(GO) test -run FuzzDecodeDump -fuzz FuzzDecodeDump -fuzztime $(FUZZ_TIME) ./internal/flight
	$(GO) test -run FuzzCommandRoundTrip -fuzz FuzzCommandRoundTrip -fuzztime $(FUZZ_TIME) ./internal/mac
	$(GO) test -run FuzzFxpOps -fuzz FuzzFxpOps -fuzztime $(FUZZ_TIME) ./internal/fxp

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# saiyanvet: the repo's own analyzers (determinism, fxpsat, hotalloc,
# obsgate, ctxfirst), run through `go vet -vettool` so results cache per
# package like any other vet pass. Blocking in CI.
lint:
	$(GO) build -o bin/saiyanvet ./cmd/saiyanvet
	$(GO) vet -vettool=$(CURDIR)/bin/saiyanvet ./...

ci: build vet lint fmt-check test-short golden perfbench-test
